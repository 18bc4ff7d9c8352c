"""BFGS quasi-Newton scheme with secant maintenance and Dennis-More diagnostics.

The inverse Hessian approximation B is the one working array: the Hessian
approximation H = B^-1 is formed only on demand.  Updates are skipped (never
damped) when the curvature pairing <y, s> fails its guard, since for GSC
objectives the pairing is positive in exact arithmetic and a failure
indicates numerics.  Inside the loop B lives in the lower triangle of its
C-contiguous array (the upper triangle of the Fortran view BLAS sees), and
the loop's three B operations read or write that triangle only: the
symmetric BLAS products B y and -B g (dsymv) and the rank-two update (dsyr2)
in place, O(p^2) with no p x p temporary.  The upper triangle goes stale and
is mirrored from the lower one, in place, wherever B leaves the loop: before
each callback, into extra["state"], and in the functional bfgs_update.
minimize_qn owns one B for the whole solve and reports each iterate to an
optional callback(k, x, state).

minimize_qn runs on newton._damped_newton with phase2 "off", a gradient-norm
stop test and the direction -B grad of surrogate decrement lambda_hat =
sqrt(g' B g), as solver "quasi_newton": the step constant stays M ||d||_2
and no step is checked against a certificate.  Oracle order: value at the
start; per step grad and the line search's values; grad on the last iterate.
The step rule is repo policy rather than a claim from the analysis: the
analytic GSC step computed with lambda_hat serves as a floor under an
Armijo backtracking that starts at min(1, 2 tau_floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.linalg import blas

from .errors import DomainError, NotPositiveDefiniteError, ParameterError
from .linops import cho_solve, cholesky
from .newton import ARMIJO_C1, SolveOptions, SolveResult, _damped_newton, _start, resolve_params

CURVATURE_GUARD = 1e-12


@dataclass(frozen=True)
class BfgsState:
    b: np.ndarray          # inverse Hessian approximation
    n_skipped: int = 0

    @property
    def h(self) -> np.ndarray:
        """The Hessian approximation B^-1, formed afresh by one Cholesky solve: O(p^3)."""
        return cho_solve(cholesky(self.b), np.eye(self.b.shape[0]))

    @classmethod
    def identity(cls, p, scale=1.0):
        b = np.eye(p)
        b /= scale         # in place: no second p x p array
        return cls(b=b)


def _symv(b, v, alpha=1.0):
    """alpha B v, read from the lower triangle of b alone (dsymv on the Fortran view)."""
    return blas.dsymv(alpha, b.T, v)


def _mirror(b):
    """Copy the lower triangle of b onto its upper one, in place, a row at a time."""
    for i in range(b.shape[0] - 1):
        b[i, i + 1:] = b[i + 1:, i]


def _bfgs_update_inplace(b, s, y) -> bool:
    """Apply the BFGS update to the lower triangle of b in place; False if skipped.

    With rho = 1/<y,s>, B' = B + s u' + u s' where u = (c/2) s - rho B y and
    c = rho^2 <y, B y> + rho (Nocedal & Wright, eq. 6.17), which equals
    V B V' + rho s s' with V = I - rho s y'.  Nothing changes when
    <y, s> <= guard ||y|| ||s||.  b must be a C-contiguous float64 array.
    Only its lower triangle is read and written; the upper one is left as it
    was, for _mirror to restore.
    """
    if not (b.flags.c_contiguous and b.dtype == np.float64):
        raise ParameterError("BFGS state array must be C-contiguous float64")
    ys = float(y @ s)
    if ys <= CURVATURE_GUARD * np.linalg.norm(y) * np.linalg.norm(s):
        return False
    rho = 1.0 / ys
    by = _symv(b, y)
    c = rho * rho * float(y @ by) + rho
    # b.T is the Fortran view BLAS updates in place: its upper triangle += s u' + u s'
    blas.dsyr2(1.0, s, 0.5 * c * s - rho * by, a=b.T, overwrite_a=1)
    return True


def bfgs_update(state: BfgsState, s, y) -> BfgsState:
    """Functional BFGS update: a new state, the input state left untouched.

    Copies B, applies _bfgs_update_inplace to the copy and mirrors its lower
    triangle, so the new state.b is the full symmetric matrix.  state.b must
    be symmetric: only its lower triangle is read.  When the curvature guard
    fails the state is returned unchanged except for the skip counter.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    b = np.array(state.b, dtype=float, order="C")
    if not _bfgs_update_inplace(b, s, y):
        return replace(state, n_skipped=state.n_skipped + 1)
    _mirror(b)
    return replace(state, b=b)


def _exact_quadratic_step(model, x, d, g, f0, tau_floor):
    """The one-dimensional Newton step along d, as (tau, None, 0) like _floored_armijo."""
    curv = float(d @ model.hvp(x, d))
    if curv <= 0.0:
        raise NotPositiveDefiniteError("nonpositive curvature along the QN direction")
    return -float(g @ d) / curv, None, 0


def minimize_qn(model, x0, opts: SolveOptions | None = None, h0=None,
                callback=None) -> SolveResult:
    """Quasi-Newton iteration x+ = x - tau B grad f with BFGS updates.

    h0 seeds the Hessian approximation (default: identity scaled by
    ||grad f(x0)|| / max(1, ||x0||)); it must be a finite, symmetric,
    positive definite (p, p) matrix.  Every step_rule except "exact",
    "full" included, runs the floored Armijo search described in the module
    docstring, with the analytic step of the surrogate decrement as floor.
    "exact" takes the one-dimensional Newton step along the direction
    (exact on quadratics), halved by the domain guard until feasible.
    Terminates on ||grad f|| <= eps max(1, ||grad f(x0)||).

    The loop keeps B in the lower triangle of its working array and mirrors
    it onto the upper one, in place, before each callback and at the end.
    callback(k, x, state) is called once per iterate, before its step.
    state.b is the solver's working array, live and symmetric: it is updated
    in place after the call returns, so a consumer that keeps it must copy
    it.  A callback that writes into state.b must write a symmetric matrix,
    since the loop reads only the lower triangle.  state.h is a fresh B^-1,
    formed at O(p^3) on each access.  extra["state"] holds the final state.
    """
    opts = opts or SolveOptions()
    params = resolve_params(model, opts.nu_choice)
    x = _start(model, x0)
    p = x.size
    state = None
    if h0 is not None:
        state = BfgsState(b=np.ascontiguousarray(cho_solve(_checked_h0(h0, p), np.eye(p))))
    g0_norm, prev = None, None

    def stop(lam, gnorm):
        return gnorm <= opts.eps * max(1.0, g0_norm)

    def direction(k, x, g):
        nonlocal state, g0_norm, prev
        if k == 0:
            g0_norm = float(np.linalg.norm(g))
            if state is None:
                scale = max(np.linalg.norm(g), 1e-8) / max(1.0, float(np.linalg.norm(x)))
                state = BfgsState.identity(p, scale)
        elif not _bfgs_update_inplace(state.b, x - prev[0], g - prev[1]):
            state = replace(state, n_skipped=state.n_skipped + 1)
        prev = x, g
        if callback is not None:
            _mirror(state.b)
            callback(k, x, state)
        d = _symv(state.b, g, -1.0)
        lam_hat = math.sqrt(max(0.0, -float(g @ d)))
        if lam_hat == 0.0 and not stop(lam_hat, float(np.linalg.norm(g))) \
                and k < opts.max_iter:
            # B lost positive definiteness numerically: restart from the identity
            state.b[:] = 0.0
            state.b.flat[::p + 1] = 1.0
            d = -g
            lam_hat = math.sqrt(max(0.0, -float(g @ d)))
        return d, lam_hat

    step = _exact_quadratic_step if opts.step_rule == "exact" else _floored_armijo
    result = _damped_newton(model, x, replace(opts, phase2="off"), params, direction, stop,
                            partial(step, model), model.value, "quasi_newton")
    if result.status == "converged":
        result.trace[-1].phase = "full"
    result.grad_criterion_met = result.status == "converged"
    _mirror(state.b)
    result.extra.update(state=state, skipped_updates=state.n_skipped)
    return result


def _checked_h0(h0, p):
    """h0's Cholesky factor; ParameterError unless a finite symmetric PD (p, p) matrix."""
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (p, p):
        raise ParameterError(f"h0 must be a ({p}, {p}) matrix, got shape {h0.shape}")
    if not np.all(np.isfinite(h0)):
        raise ParameterError("h0 must be finite")
    if np.max(np.abs(h0 - h0.T), initial=0.0) > 1e-12 * np.max(np.abs(h0), initial=0.0):
        raise ParameterError("h0 must be symmetric")
    try:
        return cholesky(h0)
    except NotPositiveDefiniteError as exc:
        raise ParameterError(f"h0 must be positive definite: {exc}") from exc


def _floored_armijo(model, x, d, g, f0, tau_floor):
    """Armijo halving from min(1, 2 tau_floor) with the analytic step as floor.

    The floor is accepted if it still decreases f; otherwise halving
    continues below it (pure backtracking guard, keeps descent monotone
    even when the surrogate decrement misjudges a direction).  Returns
    (tau, f(x + tau d), value calls made); the value is None when 80
    halvings end without an accepted evaluation.
    """
    slope = float(g @ d)
    if slope >= 0.0:
        raise ParameterError("quasi-Newton direction lost descent")
    tau = min(1.0, 2.0 * tau_floor)
    for evals in range(1, 81):
        try:
            f_try = model.value(x + tau * d)
            if f_try <= f0 + ARMIJO_C1 * tau * slope or (tau <= tau_floor and f_try < f0):
                return tau, f_try, evals
        except DomainError:
            pass
        tau *= 0.5
    return tau, None, 80


def dennis_more_ratio(h_k, hess_star, x_k, x_star) -> float:
    """||(H_k - H*)(x_k - x*)||_{H*^-1} / ||x_k - x*||_{H*} in the solution metric."""
    h_k = np.asarray(h_k, dtype=float)
    hess_star = np.asarray(hess_star, dtype=float)
    delta = np.asarray(x_k, dtype=float) - np.asarray(x_star, dtype=float)
    den2 = float(delta @ (hess_star @ delta))
    if den2 <= 0.0:
        raise ParameterError("dennis_more_ratio is undefined at coincident points")
    w = (h_k - hess_star) @ delta
    num2 = float(w @ np.linalg.solve(hess_star, w))
    return math.sqrt(max(0.0, num2) / den2)
