"""BFGS quasi-Newton scheme with secant maintenance and Dennis-More diagnostics.

The Hessian approximation H and its inverse B are both updated by the
matching rank-two formulas; updates are skipped (never damped) when the
curvature pairing <y, s> fails its guard, since for GSC objectives the
pairing is positive in exact arithmetic and a failure indicates numerics.
Each update is O(p^2): four BLAS rank-one updates (dger) applied in place,
with no p x p temporary.  minimize_qn owns one H/B pair for the whole solve
and reports each iterate to an optional callback(k, x, state).

minimize_qn runs on newton._damped_newton with phase2 "off", a gradient-norm
stop test and the direction -B grad of surrogate decrement lambda_hat =
sqrt(g' B g).  Oracle order: value at the start; per step grad and the line
search's values; grad on the last iterate.
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
from .newton import ARMIJO_C1, SolveOptions, SolveResult, _damped_newton, resolve_params

CURVATURE_GUARD = 1e-12


@dataclass(frozen=True)
class BfgsState:
    h: np.ndarray          # Hessian approximation
    b: np.ndarray          # its inverse
    n_skipped: int = 0

    @classmethod
    def identity(cls, p, scale=1.0):
        return cls(h=np.eye(p) * scale, b=np.eye(p) / scale)


def _ger(a, alpha, x, y):
    """a += alpha x y' in place, for a C-contiguous float64 matrix a."""
    # a.T is the Fortran-ordered view BLAS updates in place: a.T += alpha y x'
    blas.dger(alpha, y, x, a=a.T, overwrite_a=1)


def _bfgs_update_inplace(h, b, s, y) -> bool:
    """Apply the BFGS update to h and its inverse b in place; False if skipped.

    H' = H + y y'/<y,s> - (H s)(H s)'/<H s, s> and, with rho = 1/<y,s>,
    B' = B - rho (s (B y)' + (B y) s') + (rho^2 <y, B y> + rho) s s'
    (Nocedal & Wright, eq. 6.17), which equals V B V' + rho s s' with
    V = I - rho s y'.  Nothing changes when <y, s> <= guard ||y|| ||s|| or
    <H s, s> <= 0.  h and b must be C-contiguous float64 arrays.
    """
    if not (h.flags.c_contiguous and b.flags.c_contiguous
            and h.dtype == np.float64 and b.dtype == np.float64):
        raise ParameterError("BFGS state arrays must be C-contiguous float64")
    ys = float(y @ s)
    if ys <= CURVATURE_GUARD * np.linalg.norm(y) * np.linalg.norm(s):
        return False
    hs = h @ s
    shs = float(s @ hs)
    if shs <= 0.0:
        return False
    rho = 1.0 / ys
    by = b @ y
    _ger(h, rho, y, y)
    _ger(h, -1.0 / shs, hs, hs)
    # s (c s - rho B y)' - rho (B y) s' with c = rho^2 <y, B y> + rho
    c = rho * rho * float(y @ by) + rho
    _ger(b, 1.0, s, c * s - rho * by)
    _ger(b, -rho, by, s)
    return True


def bfgs_update(state: BfgsState, s, y) -> BfgsState:
    """Functional BFGS update: a new state, the input state left untouched.

    Copies H and B and applies _bfgs_update_inplace to the copies.  When
    the curvature guard fails the state is returned unchanged except for
    the skip counter.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.array(state.h, dtype=float, order="C")
    b = np.array(state.b, dtype=float, order="C")
    if not _bfgs_update_inplace(h, b, s, y):
        return replace(state, n_skipped=state.n_skipped + 1)
    return replace(state, h=h, b=b)


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

    callback(k, x, state) is called once per iterate, before its step.  The
    state's H and B are the solver's working arrays, updated in place after
    the call returns: a consumer that keeps them must copy them.
    extra["state"] holds the final state.
    """
    opts = opts or SolveOptions()
    params = resolve_params(model, opts.nu_choice)
    x = np.asarray(x0, dtype=float).copy()
    model.check_domain(x)
    p = x.size
    state = None
    if h0 is not None:
        h0, factor = _checked_h0(h0, p)
        state = BfgsState(h=h0.copy(), b=np.ascontiguousarray(cho_solve(factor, np.eye(p))))
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
        elif not _bfgs_update_inplace(state.h, state.b, x - prev[0], g - prev[1]):
            state = replace(state, n_skipped=state.n_skipped + 1)
        prev = x, g
        if callback is not None:
            callback(k, x, state)
        d = -(state.b @ g)
        lam_hat = math.sqrt(max(0.0, -float(g @ d)))
        if lam_hat == 0.0 and not stop(lam_hat, float(np.linalg.norm(g))) \
                and k < opts.max_iter:
            # B lost positive definiteness numerically: restart from the identity
            state.h[:] = state.b[:] = np.eye(p)
            d = -(state.b @ g)
            lam_hat = math.sqrt(max(0.0, -float(g @ d)))
        return d, lam_hat, None

    step = _exact_quadratic_step if opts.step_rule == "exact" else _floored_armijo
    result = _damped_newton(model, x, replace(opts, phase2="off"), params, direction, stop,
                            partial(step, model), model.value, "newton")
    if result.status == "converged":
        result.trace[-1].phase = "full"
    result.grad_criterion_met = result.status == "converged"
    result.extra.update(state=state, skipped_updates=state.n_skipped)
    return result


def _checked_h0(h0, p):
    """(h0, its Cholesky factor); ParameterError unless a finite symmetric PD (p, p) matrix."""
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (p, p):
        raise ParameterError(f"h0 must be a ({p}, {p}) matrix, got shape {h0.shape}")
    if not np.all(np.isfinite(h0)):
        raise ParameterError("h0 must be finite")
    if np.max(np.abs(h0 - h0.T), initial=0.0) > 1e-12 * np.max(np.abs(h0), initial=0.0):
        raise ParameterError("h0 must be symmetric")
    try:
        return h0, cholesky(h0, lower=True)
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
