"""Certificate facts come from the model, found by attribute lookup.

step_beta, lambda_min_q and the GLM reclassification inputs are optional
capabilities (see the gscopt.models docstring).  A delegating proxy must
take the wrapped model's path under every option: the same trace, x, status
and certificate, the same ParameterError where the model has none, and the
same existence diagnostic.
"""

import numpy as np
import pytest

from gscopt import atoms, bench_io, models
from gscopt.errors import ParameterError
from gscopt.newton import SolveOptions, existence_check, minimize
from gscopt.prox import ProxSpec
from gscopt.prox_newton import CompositeProblem, minimize_composite
from gscopt.quasi_newton import minimize_qn

NU_CHOICES = ("native", "force_2", "force_3")
PHASE2 = ("heuristic_tau", "strict_theorem", "off")


class _Proxy:
    """The minimal delegating model proxy: every attribute is the wrapped model's."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)


def _logistic():
    a, labels = bench_io.gen_logistic(50, 5, seed=0)
    return models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=1e-2), np.zeros(5)


def _dwd():
    a, labels = bench_io.gen_logistic(40, 5, seed=8)
    glm = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.zeros(40), q=1.0,
                                            gammas=(1e-4, 1e-4, 1e-5)))
    return glm, np.concatenate([np.zeros(6), np.ones(40)])


def _portfolio():
    return models.PortfolioModel(bench_io.gen_portfolio(50, 10, seed=7)), np.full(10, 0.1)


def _outcome(solve, model):
    """solve(model)'s trace CSV, x bytes, status and certificate, or its ParameterError text."""
    try:
        res = solve(model)
    except ParameterError as exc:
        return f"ParameterError: {exc}"
    return (bench_io.trace_to_csv(res.trace), res.x.tobytes(), res.status,
            res.extra["certificate"])


def _assert_same_path(solve, model):
    direct = _outcome(solve, model)
    assert _outcome(solve, _Proxy(model)) == direct
    return direct


@pytest.mark.parametrize("phase2", PHASE2)
@pytest.mark.parametrize("nu_choice", NU_CHOICES)
@pytest.mark.parametrize("make", [_logistic, _dwd], ids=["logistic", "dwd"])
def test_minimize_proxy_takes_the_models_path(make, nu_choice, phase2):
    model, x0 = make()
    opts = SolveOptions(nu_choice=nu_choice, phase2=phase2, record_time=False)
    direct = _assert_same_path(lambda m: minimize(m, x0, opts), model)
    if make is _dwd and nu_choice == "force_2":
        # t^(-q) has unbounded curvature: no Lipschitz-gradient route
        assert direct.startswith("ParameterError: cannot force nu=2")
    else:
        assert direct[2] == "converged"


@pytest.mark.parametrize("phase2", PHASE2)
@pytest.mark.parametrize("case", ["l1", "box", "portfolio"])
def test_minimize_composite_proxy_takes_the_models_path(case, phase2):
    if case == "portfolio":
        model, x0 = _portfolio()
        g = ProxSpec("simplex")
    else:
        model, x0 = _logistic()
        g = ProxSpec("l1", weight=1e-3) if case == "l1" else ProxSpec("box", lo=-0.5, hi=0.5)
    opts = SolveOptions(eps=1e-9, phase2=phase2, record_time=False)
    direct = _assert_same_path(
        lambda m: minimize_composite(CompositeProblem(m, g, x0), opts), model)
    assert direct[2] == "converged"


@pytest.mark.parametrize("nu_choice", NU_CHOICES)
def test_minimize_qn_proxy_takes_the_models_path(nu_choice):
    model, x0 = _logistic()
    opts = SolveOptions(nu_choice=nu_choice, record_time=False)
    direct = _assert_same_path(lambda m: minimize_qn(m, x0, opts), model)
    assert direct[2] == "converged"


@pytest.mark.parametrize("make", [_logistic, _dwd, _portfolio],
                         ids=["logistic", "dwd", "portfolio"])
def test_existence_check_of_a_proxy_is_the_models(make):
    model, x0 = make()
    assert existence_check(_Proxy(model), x0) == existence_check(model, x0)


def test_existence_check_reads_the_models_sigma_min_bound():
    model, x0 = _logistic()
    assert existence_check(_Proxy(model), x0).sigma_min == model.lambda_min_q() == 1e-2


def test_proxied_portfolio_force_2_raises_the_models_error():
    model, x0 = _portfolio()
    opts = SolveOptions(nu_choice="force_2", record_time=False)
    with pytest.raises(ParameterError) as direct:
        minimize(model, x0, opts)
    with pytest.raises(ParameterError) as proxied:
        minimize(_Proxy(model), x0, opts)
    assert str(proxied.value) == str(direct.value) == "force_2 needs a GLM model or a nu=2 model"
