"""Exact proximal operators and the scaled-prox subproblem solver.

prox_apply evaluates argmin_z g(z) + (1/(2 step)) ||z - u||^2 in closed form
for the supported regularizers.  scaled_prox_subproblem minimizes the local
quadratic model Q(z) + g(z) of a composite objective, which is the inner
solve of the proximal Newton method.  A dense or structured H with a simplex
or box g is solved exactly by a primal active-set method that solves on the
free block once per step through linops._factor (for a SlackHessian, its
Schur complement; prox factors nothing itself and never densifies H):
accelerated prox-gradient converges slowly on an ill-conditioned H; it can
start from a caller's feasible point, which the proximal Newton loop sets to
the previous subproblem's solution, so a working set that barely changes
between outer iterations costs few factorizations.  An operator H, an l1 g,
or an H whose free block is not numerically positive definite runs the
accelerated proximal-gradient loop (function-value restart).  One rule,
_acceptance at an accuracy that follows the step, decides for both paths
whether a point solves the subproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .errors import NotPositiveDefiniteError, ParameterError, SubproblemError
from .linops import _factor, _operator, largest_eigenvalue, local_norm

EPS = np.finfo(float).eps
#: iteration cap of the accelerated prox-gradient inner loop
FISTA_MAX_ITER = 20000
#: smallest accuracy a subproblem is asked for (the proximal Newton tolerances' floor)
TOL_FLOOR = 1e-12


@dataclass(frozen=True)
class ProxSpec:
    """Simple regularizer with an exact prox: zero, l1(weight), simplex, box(lo, hi)."""

    kind: str
    weight: float = 0.0
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if self.kind not in ("zero", "l1", "simplex", "box"):
            raise ParameterError(f"unknown regularizer kind {self.kind!r}")
        if self.kind == "l1" and not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ParameterError(f"l1 weight must be finite and nonnegative, got {self.weight}")
        if self.kind == "box" and not (self.lo <= self.hi):
            raise ParameterError("box needs lo <= hi")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind == "l1":
            return self.weight * float(np.abs(x).sum())
        if self.kind == "simplex":
            feas = abs(x.sum() - 1.0) <= 1e-9 and np.all(x >= -1e-12)
            return 0.0 if feas else math.inf
        if self.kind == "box":
            feas = np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12)
            return 0.0 if feas else math.inf
        return 0.0

    def feasible(self, x) -> bool:
        return self.value(x) < math.inf


def project_simplex(u: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1}, sort-based O(p log p)."""
    u = np.asarray(u, dtype=float)
    s = np.sort(u)[::-1]
    # shifting every entry by the largest leaves the projection unchanged and
    # keeps the cumulative sum from overflowing or swamping the unit budget
    s_shift = s - s[:1]
    css = np.cumsum(s_shift) - 1.0
    idx = np.arange(1, u.size + 1)
    valid = np.flatnonzero(s_shift - css / idx > 0.0)
    if valid.size == 0:
        # a NaN or +inf entry, only -inf entries or an empty vector leave no threshold
        raise ParameterError("simplex projection needs finite entries")
    rho = int(valid[-1]) + 1
    theta = css[rho - 1] / rho
    return np.maximum((u - s[0]) - theta, 0.0)


def prox_apply(g: ProxSpec, u, step: float = 1.0) -> np.ndarray:
    """Exact minimizer of g(z) + (1/(2 step)) ||z - u||^2."""
    if not step > 0.0:
        raise ParameterError(f"step must be positive, got {step}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if g.kind == "zero":
        return u.copy()
    if g.kind == "l1":
        thr = g.weight * step
        return np.sign(u) * np.maximum(np.abs(u) - thr, 0.0)
    if g.kind == "simplex":
        return project_simplex(u)
    return np.clip(u, g.lo, g.hi)


def prox_residual(g: ProxSpec, z, grad_z, step: float) -> float:
    """Norm of the composite gradient mapping (1/s)(z - prox_g(z - s grad, s))."""
    z = np.asarray(z, dtype=float)
    return float(np.linalg.norm(z - prox_apply(g, z - step * grad_z, step)) / step)


def scaled_prox_subproblem(h, grad, x, g: ProxSpec, tol: float = 1e-10,
                           l_h: float | None = None, *, start=None) -> np.ndarray:
    """argmin_z <grad, z-x> + 1/2 (z-x)' H (z-x) + g(z).

    A dense or structured H (linops._operator) with a simplex or box g
    takes the primal active-set method (_active_set_qp), which ends at the
    exact minimizer in finitely many steps.  It starts from start, a point
    feasible for g (ParameterError otherwise), when one is given, and from
    the prox-gradient point when not.  Every other input (an operator H, g = l1 or zero, or a free
    block of H that is not numerically positive definite) takes accelerated
    prox-gradient with function-value restart (_fista, at most
    FISTA_MAX_ITER iterations), which ignores start.

    Both paths answer to one rule, _acceptance at an accuracy t from tol:
    when a z passes while t > max(TOL_FLOOR, 0.1 lambda^2), lambda =
    ||z - x||_H, t becomes max(TOL_FLOOR, 0.01 lambda^2) and z is tested
    against it.  FISTA goes on from a z that fails; the active-set path
    raises SubproblemError.  For g = zero the result matches the Newton
    system solve; for H = I it is a single exact prox step.  A NaN tol
    raises ParameterError.
    """
    if math.isnan(tol):
        raise ParameterError("tol must be a number, got nan")
    x = np.asarray(x, dtype=float)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != x.shape or not g.feasible(start):
            raise ParameterError("start must be a point of x's shape feasible for g")
    return _subproblem(_operator(h, x.size), np.asarray(grad, dtype=float), x, g, tol, l_h,
                       start)[0]


def _subproblem(h, grad, x, g: ProxSpec, tol: float, l_h: float | None,
                start=None) -> tuple[np.ndarray, float]:
    """scaled_prox_subproblem's z and lambda = ||z - x||_H, measured by its acceptance check.
    h is linops._operator-normalized; grad, x and a given start are float arrays, the start
    feasible (prox_newton passes its last z)."""
    if l_h is None:
        l_h = largest_eigenvalue(h)
    if l_h <= 0.0:
        raise ParameterError("subproblem needs a positive curvature bound")
    t, lam = tol, math.nan

    def check(z, gz):
        """(residual, target) of z, tightening the accuracy t to z's step when z passes."""
        nonlocal t, lam
        res, floor = _acceptance(g, z, gz, grad, l_h)
        if res <= max(t, floor):
            lam = local_norm(h, z - x)
            if t > TOL_FLOOR and t > 0.1 * lam * lam:
                t = max(TOL_FLOOR, 0.01 * lam * lam)
        return res, max(t, floor)

    if not isinstance(h, LinearOperator) and g.kind in ("simplex", "box"):
        solved = _active_set_qp(h, grad, x, g, 1.0 / l_h, start)
        if solved is not None:
            z, gz = solved
            res, target = check(z, gz)
            if res <= target:
                return z, lam
            raise SubproblemError(
                f"active-set subproblem solution has residual {res:.3e} (target {target:.1e})",
                residual=res)
    z = _fista(h, grad, x, g, l_h, check)
    return z, lam


def _acceptance(g: ProxSpec, z, gz, grad, l_h: float) -> tuple[float, float]:
    """Gradient mapping of z at step 1/L (gz = grad Q(z)) and its rounding floor: the
    rounding of z - (z - gz/L) and of gz at the exact minimizer.  z is accepted at
    accuracy t when the residual is at most max(t, floor)."""
    res = prox_residual(g, z, gz, 1.0 / l_h)
    return res, 8.0 * z.size * EPS * (l_h * np.abs(z).sum() + np.abs(gz).sum()
                                      + np.abs(grad).sum())


def _active_set_qp(h, grad, x, g: ProxSpec, s: float,
                   start=None) -> tuple[np.ndarray, np.ndarray] | None:
    """Primal active-set solve of min <grad, z-x> + 1/2 (z-x)' H (z-x) over a simplex or box.

    Nocedal & Wright, Numerical Optimization, Algorithm 16.3, with the
    working set made of coordinates at a bound.  It starts from start, a
    feasible point whose at-bound coordinates form the first working set:
    a warm start (N&W section 16.5), which for the previous outer
    iteration's solution is often the final working set already.  Without
    one it starts from the prox-gradient point prox_g(x - s grad, s), which
    is feasible and already at most of the active bounds.  Each iteration
    solves on the free block H_FF through one linops._factor (h dense or
    structured, never densified here) and takes the equality-constrained
    step on the free coordinates (for the simplex, with the sum multiplier
    nu from a second solve), or the part of it up to the first bound that
    blocks.  At a stationary point of the working set the coordinate with
    the most negative bound multiplier (grad Q_i + nu at a lower bound, its
    negative at an upper one) is freed; when none is below the rounding
    level the point is the minimizer.  A box with lo == hi is that one
    point.  Returns the minimizer z and grad Q(z), or None when a free block
    of H is not numerically positive definite; raises SubproblemError after
    10 p iterations.
    """
    p = x.size
    lo, hi = (0.0, math.inf) if g.kind == "simplex" else (g.lo, g.hi)
    z = prox_apply(g, x - s * grad, s) if start is None else np.clip(start, lo, hi)
    gz = grad + h @ (z - x)
    if lo == hi:
        return z, gz
    at_lo, at_hi = z <= lo, z >= hi
    for _ in range(10 * p):
        free = np.flatnonzero(~(at_lo | at_hi))
        nu = 0.0
        if free.size:
            try:
                solve = _factor(h, free)
            except NotPositiveDefiniteError:
                return None
            d = -solve(gz[free])
            if g.kind == "simplex":
                # sum(d) = 1 - sum(z): a start off the simplex by rounding comes back to it
                w = solve(np.ones(d.size))
                nu = (d.sum() - (1.0 - z.sum())) / w.sum()
                d -= nu * w
            zf = z[free]
            ratio = np.full(d.size, math.inf)
            dec, inc = d < 0.0, d > 0.0
            ratio[dec] = (lo - zf[dec]) / d[dec]
            ratio[inc] = (hi - zf[inc]) / d[inc]
            k = int(np.argmin(ratio))
            if ratio[k] < 1.0:
                z[free] = zf + max(ratio[k], 0.0) * d
                i = free[k]
                if d[k] < 0.0:
                    z[i], at_lo[i] = lo, True
                else:
                    z[i], at_hi[i] = hi, True
                gz = grad + h @ (z - x)
                continue
            z[free] = zf + d
            gz = grad + h @ (z - x)
        mult = np.where(at_lo, gz + nu, -(gz + nu))
        mult[free] = math.inf
        j = int(np.argmin(mult))
        floor = EPS * (np.abs(z).sum() / s + np.abs(gz).sum() + np.abs(grad).sum())
        if not mult[j] < -floor:
            return z, gz
        at_lo[j] = at_hi[j] = False
    res = prox_residual(g, z, gz, s)
    raise SubproblemError(
        f"active-set subproblem did not finish in {10 * p} iterations (residual {res:.3e})",
        residual=res)


def _fista(h, grad, x, g: ProxSpec, l_h: float, check) -> np.ndarray:
    """Accelerated prox-gradient at step 1/L until check(z, gz) gives residual <= target.

    Restarts the momentum whenever the objective increases.  A point carries
    (z, grad Q(z), Q(z) + g(z)) from one H-product; a y without momentum reuses it.
    """
    s = 1.0 / l_h

    def point(z):
        dz = z - x
        hdz = h @ dz
        return z, grad + hdz, float(grad @ dz) + 0.5 * float(dz @ hdz) + g.value(z)

    z, gz, f = point(prox_apply(g, x - s * grad, s))
    y, gy = z, gz
    t_m = 1.0
    for it in range(FISTA_MAX_ITER + 1):
        res, target = check(z, gz)
        if res <= target:
            return z
        if it == FISTA_MAX_ITER:
            raise SubproblemError(
                f"prox subproblem stalled at residual {res:.3e} (target {target:.1e})",
                residual=res)
        if gy is None:
            gy = grad + h @ (y - x)
        z_new, gz_new, f_new = point(prox_apply(g, y - s * gy, s))
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_m * t_m))
        y, gy = z_new + ((t_m - 1.0) / t_new) * (z_new - z), None
        if f_new > f:
            # restart: drop momentum and retake a plain prox-gradient step
            t_new = 1.0
            z_new, gz_new, f_new = point(prox_apply(g, z - s * gz, s))
            y, gy = z_new, gz_new
        z, gz, f, t_m = z_new, gz_new, f_new, t_new
