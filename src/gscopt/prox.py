"""Exact proximal operators and the scaled-prox subproblem solver.

prox_apply evaluates argmin_z g(z) + (1/(2 step)) ||z - u||^2 in closed form
for the supported regularizers.  scaled_prox_subproblem minimizes the local
quadratic model Q(z) + g(z) of a composite objective, which is the inner solve
of the proximal Newton method.  One primal active-set method solves it for
every g and every kind of H: a simplex or box over its bounds, l1 over the
orthants (each coordinate's orthant is its box), and g = zero with no bound.
It solves on the free block once per step through linops._factor, which alone
decides how (Cholesky for a dense H, a structured H's own solver, such as the
Schur complement of models.SlackHessian, CG for an operator; a block singular
to rounding is shifted), so prox factors nothing itself, never densifies H and
never asks what kind of H it holds.  It can start from a caller's feasible
point, which the proximal Newton loop sets to the previous subproblem's
solution, so a working set that barely changes between outer iterations costs
few factorizations.  It ends at the exact minimizer, which one rule,
_acceptance against the rounding floor of the active set's own stopping test,
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SubproblemError
from .linops import _factor, _form_norm, _operator, largest_eigenvalue

EPS = np.finfo(float).eps


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
        if not np.isfinite(x).all():
            return math.inf
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

    H is of any kind linops._operator takes, and every g goes to the primal
    active-set method (_active_set_qp), which ends at the exact minimizer in
    finitely many steps.  It starts from start, a point feasible for g
    (ParameterError otherwise), when one is given, and from the prox-gradient
    point when not.  An H that is not positive semidefinite raises
    NotPositiveDefiniteError.  tol never changes z: z whose _acceptance
    residual exceeds max(tol, rounding floor) raises SubproblemError.  For
    g = zero the result matches the Newton system solve; for H = I it is a
    single exact prox step.  A NaN tol raises ParameterError.
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
    """scaled_prox_subproblem's z and lambda = ||z - x||_H.  h is linops._operator-
    normalized; grad, x and a given start are float arrays, the start feasible
    (prox_newton passes its last z, and tol = 0: the rounding floor alone)."""
    if l_h is None:
        l_h = largest_eigenvalue(h)
    if l_h <= 0.0:
        raise ParameterError("subproblem needs a positive curvature bound")
    z, gz, hv = _active_set_qp(h, grad, x, g, 1.0 / l_h, start)
    res, floor = _acceptance(g, z, gz, grad, l_h)
    target = max(tol, floor)
    if res <= target:
        return z, _form_norm(z - x, hv)
    raise SubproblemError(
        f"active-set subproblem solution has residual {res:.3e} (target {target:.1e})",
        residual=res)


def _rounding_floor(z, gz, grad, s: float) -> float:
    """Rounding level of a multiplier of _active_set_qp at z (gz = grad Q(z)), step s."""
    return EPS * (np.abs(z).sum() / s + np.abs(gz).sum() + np.abs(grad).sum())


def _acceptance(g: ProxSpec, z, gz, grad, l_h: float) -> tuple[float, float]:
    """Gradient mapping of z at step 1/L (gz = grad Q(z)) and its floor, 8 p times the
    active set's: the rounding of z - (z - gz/L) and of gz at the exact minimizer.  z is
    accepted at accuracy t when the residual is at most max(t, floor)."""
    s = 1.0 / l_h
    return prox_residual(g, z, gz, s), 8.0 * z.size * _rounding_floor(z, gz, grad, s)


def _active_set_qp(h, grad, x, g: ProxSpec, s: float,
                   start=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primal active-set solve of min <grad, z-x> + 1/2 (z-x)' H (z-x) + g(z).

    Nocedal & Wright, Numerical Optimization, Algorithm 16.3; the working set
    is the coordinates at a bound.  A simplex or box has scalar bounds,
    g = zero (or l1 with weight 0) none, and for l1 each coordinate's orthant
    is its box (Byrd, Chin, Nocedal & Oztoprak, Math. Program. 2016): a free
    coordinate keeps its sign and adds w sign to its gradient, a zero one is
    held.  The first working set is the at-bound (l1: zero) coordinates of
    start, a feasible warm start (N&W section 16.5), or else of the
    prox-gradient point prox_g(x - s grad, s).  Each iteration solves on the
    free block through one linops._factor (h of any kind, never densified)
    and takes the equality-constrained step (for the simplex, with the sum
    multiplier nu from a second solve), or its part up to the first blocking
    bound.  At a stationary point of the working set the most negative bound
    multiplier (grad Q_i + nu at a lower bound, its negative at an upper one,
    w - |grad Q_i| at an l1 zero, which enters the orthant -sign(grad Q_i))
    is freed; when none is below the rounding level the point is the
    minimizer.  A box with lo == hi is that one point.  Returns z, grad Q(z)
    and H (z - x); raises SubproblemError after 10 p iterations.
    """
    p = x.size
    lo, hi = (0.0, math.inf) if g.kind == "simplex" else (g.lo, g.hi)
    z = prox_apply(g, x - s * grad, s) if start is None else np.clip(start, lo, hi)
    gz = grad + (hv := h @ (z - x))
    if lo == hi:
        return z, gz, hv
    at_lo, at_hi = z <= lo, z >= hi
    w, sign = g.weight, None
    if g.kind == "l1" and w > 0.0:
        # each orthant's one bound is 0, where a coordinate is held (at_hi starts all False)
        lo = hi = 0.0
        sign = np.sign(z)
        at_lo = sign == 0.0
    for _ in range(10 * p):
        free = np.flatnonzero(~(at_lo | at_hi))
        nu = 0.0
        if free.size:
            solve = _factor(h, free)
            d = -solve(gz[free] if sign is None else gz[free] + w * sign[free])
            if g.kind == "simplex":
                # sum(d) = 1 - sum(z): a start off the simplex by rounding comes back to it
                v = solve(np.ones(d.size))
                nu = (d.sum() - (1.0 - z.sum())) / v.sum()
                d -= nu * v
            zf = z[free]
            ratio = np.full(d.size, math.inf)
            dec, inc = d < 0.0, d > 0.0
            if sign is not None:
                dec &= sign[free] > 0.0
                inc &= sign[free] < 0.0
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
                gz = grad + (hv := h @ (z - x))
                continue
            z[free] = zf + d
            gz = grad + (hv := h @ (z - x))
        mult = np.where(at_lo, gz + nu, -(gz + nu)) if sign is None else w - np.abs(gz)
        mult[free] = math.inf
        j = int(np.argmin(mult))
        if not mult[j] < -_rounding_floor(z, gz, grad, s):
            return z, gz, hv
        at_lo[j] = at_hi[j] = False
        if sign is not None:
            sign[j] = -np.sign(gz[j])
    res = prox_residual(g, z, gz, s)
    raise SubproblemError(
        f"active-set subproblem did not finish in {10 * p} iterations (residual {res:.3e})",
        residual=res)
