"""The oracle call sequence of the Newton, proximal Newton and BFGS drivers.

The benchmark's outside-in tracer attributes time between oracle calls from
their order, so the order is part of the drivers' contract.  Newton and
proximal Newton: value at the start; per step taken grad, hessian, feasible
(once per domain-guard try) and value; grad and hessian on the converged
iterate; one closing grad.  BFGS: value at the start; per step taken grad
and the line search's values, which leave the domain guard nothing to
check; grad on the converged iterate.
"""

import re

import numpy as np

from gscopt import bench_io, models
from gscopt.newton import SolveOptions, minimize
from gscopt.prox import ProxSpec
from gscopt.prox_newton import CompositeProblem, minimize_composite
from gscopt.quasi_newton import minimize_qn

STEP = r"grad hessian (?:feasible )+value "
TAIL = r"grad hessian grad"


class CallLog:
    """Delegating model proxy that logs every oracle call by name."""

    ORACLE = ("value", "grad", "hessian", "hvp", "feasible", "check_domain")

    def __init__(self, model):
        self._model = model
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self._model, name)
        if name not in self.ORACLE:
            return attr

        def call(*args):
            self.calls.append(name)
            return attr(*args)
        return call


def _steps(calls, prefix):
    """Number of steps in a call log of the pinned shape; fails on any other."""
    seq = " ".join(calls)
    match = re.fullmatch(prefix + r"((?:" + STEP + r")*)" + TAIL, seq)
    assert match, seq
    return len(re.findall(STEP, match.group(1)))


def test_minimize_oracle_order_dwd():
    a, labels = bench_io.gen_logistic(40, 5, seed=8)
    glm = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.zeros(40), q=1.0,
                                            gammas=(1e-4, 1e-4, 1e-5)))
    log = CallLog(glm)
    x0 = np.concatenate([np.zeros(6), np.ones(40)])
    res = minimize(log, x0, SolveOptions(record_time=False))
    assert res.status == "converged"
    assert _steps(log.calls, r"check_domain value ") == res.iterations > 0


def test_minimize_composite_oracle_order_portfolio():
    port = models.PortfolioModel(bench_io.gen_portfolio(50, 10, seed=7))
    log = CallLog(port)
    prob = CompositeProblem(log, ProxSpec("simplex"), np.full(10, 0.1))
    log.calls.clear()
    res = minimize_composite(prob, SolveOptions(eps=1e-9, record_time=False))
    assert res.status == "converged"
    assert _steps(log.calls, r"value ") == res.iterations > 0


def test_minimize_qn_oracle_order_dwd():
    a, labels = bench_io.gen_logistic(40, 5, seed=8)
    glm = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.zeros(40), q=1.0,
                                            gammas=(1e-4, 1e-4, 1e-5)))
    log = CallLog(glm)
    x0 = np.concatenate([np.zeros(6), np.ones(40)])
    res = minimize_qn(log, x0, SolveOptions(record_time=False))
    assert res.status == "converged"
    seq = " ".join(log.calls)
    match = re.fullmatch(r"check_domain value ((?:grad (?:value )+)*)grad", seq)
    assert match, seq
    assert match.group(1).count("grad") == res.iterations > 0
