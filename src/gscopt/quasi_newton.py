"""BFGS quasi-Newton scheme with secant maintenance and Dennis-More diagnostics.

The Hessian approximation H and its inverse B are both updated by the
matching rank-two formulas; updates are skipped (never damped) when the
curvature pairing <y, s> fails its guard, since for GSC objectives the
pairing is positive in exact arithmetic and a failure indicates numerics.
Each update is O(p^2): four BLAS rank-one updates (dger) applied in place,
with no p x p temporary.  minimize_qn owns one H/B pair for the whole solve
and reports each iterate to an optional callback(k, x, state).

The step rule is repo policy rather than a claim from the analysis: the
analytic GSC step computed with the surrogate decrement
lambda_hat = sqrt(g' B g) serves as a floor under an Armijo backtracking
that starts at min(1, 2 tau_floor).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import blas

from . import kernel
from .errors import DomainError, NotPositiveDefiniteError, ParameterError
from .linops import cholesky
from .newton import ARMIJO_C1, IterRecord, SolveOptions, SolveResult, resolve_params

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


def _exact_quadratic_step(model, x, d, g):
    curv = float(d @ model.hvp(x, d))
    if curv <= 0.0:
        raise NotPositiveDefiniteError("nonpositive curvature along the QN direction")
    return -float(g @ d) / curv


def minimize_qn(model, x0, opts: SolveOptions | None = None, h0=None,
                callback=None) -> SolveResult:
    """Quasi-Newton iteration x+ = x - tau B grad f with BFGS updates.

    h0 seeds the Hessian approximation (default: identity scaled by
    ||grad f(x0)|| / max(1, ||x0||)); it must be a finite, symmetric,
    positive definite (p, p) matrix.  Every step_rule except "exact",
    "full" included, runs the floored Armijo search described in the module
    docstring, with the analytic step of the surrogate decrement as floor.
    "exact" takes the one-dimensional Newton step along the direction
    (exact on quadratics).
    Terminates on ||grad f|| <= eps max(1, ||grad f(x0)||).

    callback(k, x, state) is called once per iterate, before its step.  The
    state's H and B are the solver's working arrays, updated in place after
    the call returns: a consumer that keeps them must copy them.
    extra["state"] holds the final state.
    """
    opts = opts or SolveOptions()
    params = resolve_params(model, opts.nu_choice)
    nu, m = params.nu, params.m
    x = np.asarray(x0, dtype=float).copy()
    model.check_domain(x)
    p = x.size

    t0 = time.perf_counter()
    g = model.grad(x)
    if h0 is None:
        scale = max(np.linalg.norm(g), 1e-8) / max(1.0, float(np.linalg.norm(x)))
        state = BfgsState.identity(p, scale)
    else:
        h0 = _checked_h0(h0, p)
        state = BfgsState(h=h0.copy(), b=np.linalg.inv(h0))
    h, b = state.h, state.b
    trace: list[IterRecord] = []
    status = "max_iter"
    g0_norm = float(np.linalg.norm(g))
    f_x = model.value(x)

    for k in range(opts.max_iter + 1):
        if callback is not None:
            callback(k, x, state)
        gnorm = float(np.linalg.norm(g))
        cum = (time.perf_counter() - t0) if opts.record_time else 0.0
        converged = gnorm <= opts.eps * max(1.0, g0_norm)
        d = -(b @ g)
        lam_hat = math.sqrt(max(0.0, -float(g @ d)))
        if lam_hat == 0.0 and not converged and k < opts.max_iter:
            # B lost positive definiteness numerically; restart this iterate
            # from the identity
            for a in (h, b):
                a.fill(0.0)
                a.flat[::p + 1] = 1.0
            d = -(b @ g)
            lam_hat = math.sqrt(max(0.0, -float(g @ d)))
        beta = m * float(np.linalg.norm(d))
        tau_floor, d_k = kernel.step_size(nu, m, lam_hat, beta)

        if converged:
            trace.append(IterRecord(k, f_x, gnorm, lam_hat, beta, d_k, 1.0, "full", cum))
            status = "converged"
            break
        if k == opts.max_iter:
            trace.append(IterRecord(k, f_x, gnorm, lam_hat, beta, d_k, 1.0, "damped", cum))
            status = "max_iter"
            break

        f_new = None
        if opts.step_rule == "exact":
            tau = _exact_quadratic_step(model, x, d, g)
        else:
            tau, f_new = _floored_armijo(model, x, d, g, f_x, tau_floor)
        phase = "full" if tau >= 1.0 else "damped"
        trace.append(IterRecord(k, f_x, gnorm, lam_hat, beta, d_k, min(tau, 1.0), phase, cum))

        x_new = x + tau * d
        g_new = model.grad(x_new)
        if not _bfgs_update_inplace(h, b, x_new - x, g_new - g):
            state = replace(state, n_skipped=state.n_skipped + 1)
        x, g = x_new, g_new
        f_x = model.value(x) if f_new is None else f_new

    return SolveResult(
        x=x, trace=trace, status=status, params=params,
        grad_criterion_met=(status == "converged"),
        extra={"state": state, "skipped_updates": state.n_skipped},
    )


def _checked_h0(h0, p):
    """h0 as a float array, or ParameterError unless it is a finite symmetric PD (p, p) matrix."""
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (p, p):
        raise ParameterError(f"h0 must be a ({p}, {p}) matrix, got shape {h0.shape}")
    if not np.all(np.isfinite(h0)):
        raise ParameterError("h0 must be finite")
    if np.max(np.abs(h0 - h0.T), initial=0.0) > 1e-12 * np.max(np.abs(h0), initial=0.0):
        raise ParameterError("h0 must be symmetric")
    try:
        cholesky(h0, lower=True)
    except NotPositiveDefiniteError as exc:
        raise ParameterError(f"h0 must be positive definite: {exc}") from exc
    return h0


def _floored_armijo(model, x, d, g, f0, tau_floor):
    """Armijo halving from min(1, 2 tau_floor) with the analytic step as floor.

    The floor is accepted if it still decreases f; otherwise halving
    continues below it (pure backtracking guard, keeps descent monotone
    even when the surrogate decrement misjudges a direction).  Returns
    (tau, f(x + tau d)); the value is None when 80 halvings end without an
    accepted evaluation.
    """
    slope = float(g @ d)
    if slope >= 0.0:
        raise ParameterError("quasi-Newton direction lost descent")
    tau = min(1.0, 2.0 * tau_floor)
    for _ in range(80):
        try:
            f_try = model.value(x + tau * d)
            if f_try <= f0 + ARMIJO_C1 * tau * slope:
                return tau, f_try
            if tau <= tau_floor and f_try < f0:
                return tau, f_try
        except DomainError:
            pass
        tau *= 0.5
    return tau, None


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
