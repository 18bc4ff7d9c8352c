"""Damped-step / two-phase Newton method for generalized self-concordant objectives.

The damped phase uses the closed-form step size from the (M, nu) certificate,
which guarantees a computable decrease without any line search; for a GLM
its constant is the third-derivative bound along the step itself
(GlmModel.step_beta), and every such step checks its decrease.  Phase 2
switches to full steps, either heuristically (analytic step at least
PHASE2_TAU_THRESHOLD) or inside the theorem's entry radius, computed once
per solve from the model's certified sigma_min bound.  A floor-augmented
Armijo line search (sufficient-decrease constant ARMIJO_C1) is available as
an alternative step rule.  The model's p_dense alone picks the Newton
system's form: the dense Hessian (Cholesky) up to p_dense columns, an hvp
operator (CG) beyond.
_damped_newton is the one loop of minimize, minimize_composite and
quasi_newton.minimize_qn, each giving it a direction, a stop test and a step
rule.  minimize's oracle order: value; per step grad, hessian | hvp...,
feasible..., value; grad, hessian | hvp... on the last iterate; closing grad.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import kernel, linops
from .errors import ConvergenceError, DomainError, NotPositiveDefiniteError, ParameterError
from .kernel import GscParams
from .models import _sigma_min_bound, resolve_params

MAX_HALVINGS = 60
#: Armijo sufficient-decrease constant of newton's and quasi_newton's line searches
ARMIJO_C1 = 1e-6
#: the heuristic phase-2 entry: full steps once the analytic step reaches this
PHASE2_TAU_THRESHOLD = 0.9
#: a certified step's decrease may fall this far, relative to max(1, |f|), below its
#: estimate: the rounding of f(x) - f(x+), each an n-term float64 sum
CERTIFICATE_RTOL = 1e-12


@dataclass
class SolveOptions:
    nu_choice: str = "native"          # native | force_2 | force_3
    step_rule: str = "analytic"        # analytic | linesearch_floor | full | exact (BFGS only)
    eps: float = 1e-8
    max_iter: int = 500
    phase2: str = "heuristic_tau"      # heuristic_tau | strict_theorem | off
    record_time: bool = True

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ParameterError(f"eps must be positive and finite, got {self.eps}")
        if self.max_iter < 0:
            raise ParameterError(f"max_iter must be nonnegative, got {self.max_iter}")
        if self.step_rule not in ("analytic", "linesearch_floor", "full", "exact"):
            raise ParameterError(f"unknown step_rule {self.step_rule!r}")
        if self.phase2 not in ("heuristic_tau", "strict_theorem", "off"):
            raise ParameterError(f"unknown phase2 mode {self.phase2!r}")


@dataclass
class IterRecord:
    k: int
    f: float
    grad_norm: float
    lam: float
    beta: float
    d_k: float
    tau: float
    phase: str          # "damped" | "full"
    cum_time: float
    dec_est: float = math.nan   # certified decrease of an analytic damped step, else NaN


#: The trace file schema: (file column, IterRecord field) pairs in column order.
#: bench_io writes and reads CSV rows and JSON objects from this table alone.
TRACE_SCHEMA = (("iter", "k"), ("phase", "phase"), ("f", "f"), ("grad_norm", "grad_norm"),
                ("lambda", "lam"), ("beta", "beta"), ("d_k", "d_k"), ("tau", "tau"),
                ("dec_est", "dec_est"), ("cum_time_s", "cum_time"))


@dataclass
class SolveResult:
    x: np.ndarray
    trace: list[IterRecord]
    status: str         # "converged" | "max_iter" | "domain_error" | "inner_failure"
    params: GscParams
    grad_criterion_met: bool = False
    nfval: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        """Steps taken: one record per iterate, and the last iterate takes none."""
        return max(len(self.trace) - 1, 0)


class LinesearchResult(NamedTuple):
    tau: float
    nfval: int


def linesearch_step(model, x, n, tau_floor: float, c1: float = ARMIJO_C1,
                    f0: float | None = None, g0=None) -> LinesearchResult:
    """Halving Armijo search over tau in [tau_floor, 1].

    Starts at tau = 1 and halves until f(x + tau n) <= f(x) + c1 tau <grad, n>;
    the floor is accepted unconditionally (the analytic step guarantees
    descent there), so the search never returns below it.  tau_floor = 0
    gives plain backtracking.  Points outside the domain count as failures.
    """
    if f0 is None:
        f0 = model.value(x)
    if g0 is None:
        g0 = model.grad(x)
    slope = float(np.asarray(g0) @ n)
    if slope >= 0.0:
        raise ParameterError("linesearch needs a descent direction")
    tau, nfval = 1.0, 0
    for _ in range(MAX_HALVINGS):
        if tau <= tau_floor:
            return LinesearchResult(max(tau, tau_floor), nfval)
        try:
            nfval += 1
            if model.value(x + tau * n) <= f0 + c1 * tau * slope:
                return LinesearchResult(tau, nfval)
        except DomainError:
            pass
        tau *= 0.5
    return LinesearchResult(max(tau, tau_floor), nfval)


def _start(model, x0) -> np.ndarray:
    """A float copy of x0, refused (DomainError) if not finite before check_domain sees it."""
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("the start point has non-finite entries")
    model.check_domain(x)
    return x


def _hessian(model, x):
    """The Hessian at x when the model has one (dim <= p_dense), else its hvp operator."""
    if model.has_dense_hessian:
        return model.hessian(x)
    return linops._operator(partial(model.hvp, x.copy()), x.size)


def _newton_step(model, step_rule: str, x, n, grad, f_x, tau_an):
    """The step rule of minimize: analytic, full, or linesearch_step floored at tau_an."""
    if step_rule == "linesearch_floor":
        ls = linesearch_step(model, x, n, tau_an, f0=f_x, g0=grad)
        return ls.tau, None, ls.nfval
    return (1.0 if step_rule == "full" else tau_an), None, 0


def _damped_newton(model, x, opts: SolveOptions, params: GscParams, direction, stop,
                   step, objective, solver: str) -> SolveResult:
    """The damped/full-step loop behind minimize, minimize_composite and minimize_qn.

    direction(k, x, grad) -> (n, lam): the step at iterate k and its
    decrement.  stop(lam, grad_norm) ends the loop.  Outside the full-step
    phase step(x, n, grad, f, tau_analytic) -> (tau, f(x + tau n) or None,
    value calls); the domain guard halves a step whose value it did not
    evaluate.  objective is what the trace records (f, or f + g); solver picks
    the phase-2 constants ("newton" | "prox_newton"), and "quasi_newton"
    marks lam as a surrogate decrement.  The step constant beta is the
    model's step_beta(params, n), reached by attribute lookup, where it has
    one and lam is a true decrement, else m ||n||_2.  Each step taken at the
    analytic tau (damped phase, analytic step rule, no halving, true
    decrement) is checked against its certificate: its record's dec_est is
    kernel.descent_estimate (NaN on every other record), and
    extra["certificate"] holds the steps checked, the violations (a decrease
    below dec_est by more than CERTIFICATE_RTOL max(1, |f|)) and the
    smallest margin (decrease - dec_est) / max(1, |f|), inf with none
    checked.  A violation does not end the solve.  The strict-theorem
    radius is taken once, at the model's certified sigma_min bound
    (_sigma_min_bound): for nu < 3 and M > 0 a bound of 0 is a radius of 0,
    never entered.  A non-finite x raises DomainError.  A ConvergenceError
    (SubproblemError included) or NotPositiveDefiniteError from direction
    ends the solve at that iterate with status "inner_failure": its record
    has NaN lam, beta and d_k, and extra["error"] holds the error.  Oracle
    order: objective at the start; per iterate grad and direction's calls; per
    step taken step's calls, feasible... and objective unless step evaluated
    it.
    """
    if not np.isfinite(x).all():
        raise DomainError("the start point has non-finite entries")
    nu, m = params.nu, params.m
    surrogate = solver == "quasi_newton"
    step_beta = None if surrogate else getattr(model, "step_beta", None)
    certify = not surrogate and opts.step_rule == "analytic"
    radius = 0.0
    if opts.phase2 == "strict_theorem":
        radius = kernel.phase2_threshold(nu, solver).entry_lambda_max(m, _sigma_min_bound(model))

    t0 = time.perf_counter()
    trace: list[IterRecord] = []
    nfval = 0
    extra = {}
    in_full_phase = False
    status = "max_iter"
    cert = {"checked": 0, "violations": 0, "min_margin": math.inf}
    f_x = objective(x)

    for k in range(opts.max_iter + 1):
        g = model.grad(x)
        gnorm = math.sqrt(float(g @ g))
        try:
            n, lam = direction(k, x, g)
        except (ConvergenceError, NotPositiveDefiniteError) as exc:
            cum = (time.perf_counter() - t0) if opts.record_time else 0.0
            trace.append(IterRecord(k, f_x, gnorm, math.nan, math.nan, math.nan, 1.0,
                                    "full" if in_full_phase else "damped", cum))
            status = "inner_failure"
            extra["error"] = f"{type(exc).__name__}: {exc}"
            break

        beta = m * math.sqrt(float(n @ n)) if step_beta is None else step_beta(params, n)
        tau_an, d_k = kernel.step_size(nu, m, lam, beta)
        cum = (time.perf_counter() - t0) if opts.record_time else 0.0
        head = (k, f_x, gnorm, lam, beta, d_k)

        converged = stop(lam, gnorm)
        if converged or k == opts.max_iter:
            trace.append(IterRecord(*head, 1.0, "full" if in_full_phase else "damped", cum))
            status = "converged" if converged else "max_iter"
            break

        # phase-2 entry
        in_full_phase = in_full_phase or lam < radius or (
            opts.phase2 == "heuristic_tau" and opts.step_rule != "full"
            and tau_an >= PHASE2_TAU_THRESHOLD)

        tau, f_new, evals = (1.0, None, 0) if in_full_phase else step(x, n, g, f_x, tau_an)
        nfval += evals

        # numerical domain guard: theory keeps analytic steps feasible, but
        # full steps on bounded domains may exit; halve until inside.  A
        # value evaluated by step already proves the point feasible.  Each
        # trial point is formed once and becomes the next iterate.
        x_new = x + tau * n
        if f_new is None:
            for _ in range(MAX_HALVINGS):
                if model.feasible(x_new):
                    break
                tau *= 0.5
                x_new = x + tau * n
            else:
                trace.append(IterRecord(*head, tau, "damped", cum))
                status = "domain_error"
                break

        certified = certify and not in_full_phase and tau == tau_an
        dec_est = kernel.descent_estimate(nu, lam, d_k, tau) if certified else math.nan
        trace.append(IterRecord(*head, min(tau, 1.0), "full" if tau >= 1.0 else "damped", cum,
                                dec_est))
        x = x_new
        f_prev, f_x = f_x, objective(x) if f_new is None else f_new
        nfval += f_new is None
        if certified:
            margin = (f_prev - f_x - dec_est) / max(1.0, abs(f_prev))
            cert["checked"] += 1
            cert["violations"] += margin < -CERTIFICATE_RTOL
            cert["min_margin"] = min(cert["min_margin"], margin)

    extra["certificate"] = cert
    return SolveResult(x=x, trace=trace, status=status, params=params, nfval=nfval, extra=extra)


def minimize(model, x0, opts: SolveOptions | None = None) -> SolveResult:
    """Newton iteration with analytic damped steps and an optional full-step phase.

    Terminates when the decrement satisfies lambda_k <= eps max(1, lambda_0)
    or at max_iter; the gradient-norm criterion
    ||grad f|| <= eps max(1, ||grad f(x0)||) is tracked separately.
    """
    opts = opts or SolveOptions()
    if opts.step_rule == "exact":
        raise ParameterError("step_rule 'exact' is only meaningful for minimize_qn")
    params = resolve_params(model, opts.nu_choice)
    x = _start(model, x0)
    warm, lam_stop = None, None

    def direction(k, x, g):
        nonlocal warm, lam_stop
        h = _hessian(model, x)
        d = linops.newton_direction(linops.NewtonSystem(h, g), warm_start=warm)
        warm = d.n
        if k == 0:
            lam_stop = opts.eps * max(1.0, d.lam)
        return d.n, d.lam

    result = _damped_newton(model, x, opts, params, direction, lambda lam, _: lam <= lam_stop,
                            partial(_newton_step, model, opts.step_rule), model.value, "newton")
    g_norm = float(np.linalg.norm(model.grad(result.x)))
    result.grad_criterion_met = g_norm <= opts.eps * max(1.0, result.trace[0].grad_norm)
    return result


@dataclass
class ExistenceCheck:
    satisfied: bool
    lhs: float
    rhs: float
    sigma_min: float | None = None


def existence_check(model, x) -> ExistenceCheck:
    """Diagnostic for the solution-existence condition.

    lhs is the local dual gradient norm lambda(x), rhs the radius
    2 sigma^((3-nu)/2) / ((4-nu) M) at the model's certified lower bound sigma
    on sigma_min (_sigma_min_bound, reported as sigma_min), so satisfied is a
    proof: inf when M = 0, 0 when sigma is 0 (a ridge-less GLM or a model
    with no bound).  Never gates the solver.
    """
    x = _start(model, x)
    nu, m = model.params.nu, model.params.m
    g, h = model.grad(x), _hessian(model, x)
    try:
        lam = linops.newton_direction(linops.NewtonSystem(h, g)).lam
    except linops.NotPositiveDefiniteError:
        return ExistenceCheck(False, math.inf, 0.0)
    if m == 0.0:
        return ExistenceCheck(True, lam, math.inf)
    if nu == 3.0:
        return ExistenceCheck(lam < 2.0 / m, lam, 2.0 / m)
    sigma = _sigma_min_bound(model)
    rhs = 2.0 * sigma ** ((3.0 - nu) / 2.0) / ((4.0 - nu) * m)
    return ExistenceCheck(lam < rhs, lam, rhs, sigma)
