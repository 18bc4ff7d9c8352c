"""Proximal Newton method for composite objectives F = f + g with GSC smooth part.

Each outer iteration solves the scaled-prox subproblem at the current
Hessian exactly (for every g, g = zero included, by prox's one active-set
solver) and measures the proximal Newton decrement in the local metric;
that is the direction of newton._damped_newton, here with stop test
lambda <= eps and the proximal-Newton phase-2 constants.  The damped update
x+ = (1 - tau) x + tau z keeps iterates feasible whenever x and z are, and
the loop's halving guard covers the remaining boundary cases.  Oracle order:
value at the start; per step grad, hessian, feasible... and value; grad and
hessian on the last iterate; one closing grad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linops
from .errors import DomainError, ParameterError
from .newton import (SolveOptions, SolveResult, _damped_newton, _hessian, _newton_step,
                     _start, resolve_params)
from .prox import ProxSpec, _subproblem, prox_residual


@dataclass
class CompositeProblem:
    model: object
    g: ProxSpec
    x0: np.ndarray

    def __post_init__(self):
        self.x0 = _start(self.model, self.x0)
        if not self.g.feasible(self.x0):
            raise DomainError("x0 is infeasible for the regularizer")

    def objective(self, x) -> float:
        return self.model.value(x) + self.g.value(x)


def minimize_composite(problem: CompositeProblem, opts: SolveOptions | None = None) -> SolveResult:
    """Damped/full-step proximal Newton iteration on F = f + g.

    Terminates at lambda_k <= eps (proximal Newton decrement) or max_iter.
    Each iteration makes one subproblem call, which ends at the exact
    minimizer z and is checked against the rounding floor alone (tol = 0).
    It starts from the previous iteration's z, which is feasible for g and
    equals x once steps are full, so the active set begins at the last
    working set, and returns lambda_k = ||z - x||_H.  Step rules:
    "analytic" or "full".
    """
    opts = opts or SolveOptions()
    if opts.step_rule not in ("analytic", "full"):
        raise ParameterError(f"step_rule {opts.step_rule!r} is not supported by minimize_composite")
    model, gspec = problem.model, problem.g
    params = resolve_params(model, opts.nu_choice)
    l_h, z = None, None

    def direction(k, x, grad):
        nonlocal l_h, z
        h = _hessian(model, x)
        l_h = linops.largest_eigenvalue(h)
        z, lam = _subproblem(h, grad, x, gspec, 0.0, l_h, z)
        return z - x, lam

    result = _damped_newton(model, problem.x0.copy(), opts, params, direction,
                            lambda lam, _: lam <= opts.eps,
                            partial(_newton_step, model, opts.step_rule),
                            problem.objective, "prox_newton")
    grad = model.grad(result.x)
    # optimality certificate: composite gradient mapping at step 1/L
    cert = math.nan
    if l_h and l_h > 0.0:
        cert = prox_residual(gspec, result.x, grad, 1.0 / l_h)
    result.extra["prox_certificate"] = cert
    return result
