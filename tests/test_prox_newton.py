"""Proximal Newton on composite problems: reduction, references, feasibility."""

import math
import tracemalloc

import numpy as np
import pytest

from gscopt import atoms, bench_io, linops, models, prox_newton
from gscopt.acceptance import _projected_gradient_reference
from gscopt.errors import DomainError, ParameterError
from gscopt.newton import SolveOptions, minimize
from gscopt.prox import ProxSpec, prox_apply, prox_residual
from gscopt.prox_newton import CompositeProblem, minimize_composite


def portfolio_toy(n=50, p=10, seed=7):
    return models.PortfolioModel(bench_io.gen_portfolio(n, p, seed=seed))


def test_zero_g_reduces_to_newton():
    # the subproblem with no bounds is the Newton system: a dense H and, with
    # p_dense=0, an hvp operator that the active set solves by CG
    a, labels = bench_io.gen_logistic(120, 8, seed=13)
    x0 = np.zeros(8)
    opts = SolveOptions(eps=1e-10, record_time=False)
    for p_dense in (None, 0):
        kw = {} if p_dense is None else {"p_dense": p_dense}
        model = models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=1e-4, **kw)
        rn = minimize(model, x0, opts)
        rp = minimize_composite(CompositeProblem(model, ProxSpec("zero"), x0), opts)
        assert rn.iterations == rp.iterations
        for a_rec, b_rec in zip(rn.trace, rp.trace):
            assert b_rec.f == pytest.approx(a_rec.f, rel=1e-10, abs=1e-12)
            assert b_rec.lam == pytest.approx(a_rec.lam, rel=1e-10, abs=1e-10)
            assert b_rec.tau == pytest.approx(a_rec.tau, rel=1e-10)


def test_portfolio_matches_projected_gradient_reference():
    port = portfolio_toy()
    x0 = np.full(port.dim, 1.0 / port.dim)
    res = minimize_composite(CompositeProblem(port, ProxSpec("simplex"), x0),
                             SolveOptions(eps=1e-9, record_time=False))
    assert res.status == "converged"
    assert res.x.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.x.min() >= 0.0
    xref = _projected_gradient_reference(port, x0)
    assert port.value(res.x) <= port.value(xref) + 1e-6 * (1.0 + abs(port.value(xref)))


def test_composite_descent_and_feasibility():
    port = portfolio_toy(seed=3)
    x0 = np.full(port.dim, 1.0 / port.dim)
    prob = CompositeProblem(port, ProxSpec("simplex"), x0)
    res = minimize_composite(prob, SolveOptions(eps=1e-9, record_time=False))
    fs = [r.f for r in res.trace]
    assert all(b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(fs, fs[1:]))
    # replay the convex combinations: every iterate stays on the simplex
    assert abs(res.x.sum() - 1.0) <= 1e-12 and res.x.min() >= 0.0


def test_termination_certificate():
    port = portfolio_toy(seed=5)
    x0 = np.full(port.dim, 1.0 / port.dim)
    res = minimize_composite(CompositeProblem(port, ProxSpec("simplex"), x0),
                             SolveOptions(eps=1e-9, record_time=False))
    lmax = linops.largest_eigenvalue(port.hessian(res.x), dim=port.dim)
    s = 1.0 / lmax
    res_cert = prox_residual(ProxSpec("simplex"), res.x, port.grad(res.x), s)
    assert res_cert == pytest.approx(res.extra["prox_certificate"], rel=1e-6, abs=1e-12)
    assert res_cert <= 10.0 * 1e-9 * max(1.0, np.linalg.norm(port.grad(res.x)))


def test_l1_logistic_matches_proximal_gradient():
    n, p = 200, 50
    a, labels = bench_io.gen_logistic(n, p, seed=23)
    model = models.GlmModel(a * labels[:, None], atoms.logistic())
    # a weight small enough that x = 0 is not optimal: the solve takes outer
    # iterations and ends on a support strictly between empty and full
    weight = 0.05 / math.sqrt(n)
    spec = ProxSpec("l1", weight=weight)
    x0 = np.zeros(p)
    res = minimize_composite(CompositeProblem(model, spec, x0),
                             SolveOptions(eps=1e-9, max_iter=200, record_time=False))
    assert res.status == "converged" and res.iterations > 0
    assert 0 < np.sum(np.abs(res.x) > 1e-10) < p  # sparse, nonzero solution

    # FISTA reference on the full composite problem
    mu, lips = model.smoothness_bounds()
    x = x0.copy()
    y, t_m = x.copy(), 1.0
    fbest = math.inf
    for _ in range(20000):
        x_new = prox_apply(spec, y - model.grad(y) / lips, 1.0 / lips)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_m * t_m))
        y = x_new + ((t_m - 1.0) / t_new) * (x_new - x)
        if np.linalg.norm(x_new - x) <= 1e-12 * max(1.0, np.linalg.norm(x)):
            x = x_new
            break
        x, t_m = x_new, t_new
    f_pn = model.value(res.x) + spec.value(res.x)
    f_ref = model.value(x) + spec.value(x)
    assert f_pn <= f_ref + 1e-6 * (1.0 + abs(f_ref))


def test_prox_newton_quadratic_tail():
    port = portfolio_toy()
    x0 = np.full(port.dim, 1.0 / port.dim)
    res = minimize_composite(CompositeProblem(port, ProxSpec("simplex"), x0),
                             SolveOptions(eps=1e-9, record_time=False))
    lams = [r.lam for r in res.trace if r.lam > 0.0]
    cs = [b / a**2 for a, b in zip(lams[-3:-1], lams[-2:])]
    assert all(math.isfinite(c) for c in cs)
    assert max(cs) * lams[-3] < 1.0


def test_infeasible_x0_raises():
    port = portfolio_toy()
    with pytest.raises(DomainError):
        CompositeProblem(port, ProxSpec("simplex"), np.full(port.dim, -0.1))
    ok = np.full(port.dim, 1.0 / port.dim)
    bad_simplex = np.full(port.dim, 0.5)  # strictly positive but sums to 5
    with pytest.raises(DomainError):
        CompositeProblem(port, ProxSpec("simplex"), bad_simplex)
    CompositeProblem(port, ProxSpec("simplex"), ok)
    # g = zero looked at no x, so a NaN or inf x0 passed
    glm = models.GlmModel(np.eye(3), atoms.logistic())
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            CompositeProblem(glm, ProxSpec("zero"), np.array([0.0, bad, 0.0]))


def test_box_constrained_glm():
    a, labels = bench_io.gen_logistic(80, 6, seed=17)
    model = models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=1e-3)
    spec = ProxSpec("box", lo=-0.2, hi=0.2)
    res = minimize_composite(CompositeProblem(model, spec, np.zeros(6)),
                             SolveOptions(eps=1e-10, record_time=False))
    assert res.status == "converged"
    assert np.all(res.x >= -0.2 - 1e-12) and np.all(res.x <= 0.2 + 1e-12)
    # some coordinate ends up clamped for this instance
    assert np.any(np.isclose(np.abs(res.x), 0.2, atol=1e-9))


def test_dwd_slack_hessian_composite():
    # the DWD Hessian is a models.SlackHessian: g = zero solves it by elimination,
    # the box's active-set subproblem by eliminating its free slack rows
    a, labels = bench_io.gen_logistic(40, 5, seed=8)
    model = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.full(40, 0.01), q=1.0,
                                              gammas=(1e-4, 1e-4, 1e-5)))
    x0 = np.concatenate([np.zeros(6), np.ones(40)])
    opts = SolveOptions(eps=1e-9, record_time=False)
    rn = minimize(model, x0, opts)
    rz = minimize_composite(CompositeProblem(model, ProxSpec("zero"), x0), opts)
    assert rz.status == "converged" and rz.iterations == rn.iterations
    assert rz.trace[-1].f == pytest.approx(rn.trace[-1].f, rel=1e-12)
    spec = ProxSpec("box", lo=-5.0, hi=5.0)
    rb = minimize_composite(CompositeProblem(model, spec, x0), opts)
    assert rb.status == "converged" and spec.feasible(rb.x) and model.feasible(rb.x)
    assert np.any(np.isclose(rb.x, 5.0, atol=1e-9))
    assert rb.extra["prox_certificate"] <= 1e-6


def test_dwd_l1_composite_matches_pg_bb():
    # an l1 term on the ill-conditioned DWD Hessian: the orthant active set solves each
    # free block by eliminating its slack rows, where accelerated prox-gradient stalled
    a, labels = bench_io.gen_logistic(40, 5, seed=8)
    model = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.full(40, 0.01), q=1.0,
                                              gammas=(1e-4, 1e-4, 1e-5)))
    spec = ProxSpec("l1", weight=1e-3)
    x0 = np.concatenate([np.zeros(6), np.ones(40)])
    res = minimize_composite(CompositeProblem(model, spec, x0),
                             SolveOptions(eps=1e-9, record_time=False))
    assert res.status == "converged" and model.feasible(res.x)
    x_ref, _ = bench_io.pg_bb(model, spec, x0, eps=1e-12)
    ref = model.value(x_ref) + spec.value(x_ref)
    got = model.value(res.x) + spec.value(res.x)
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_l1_with_a_singular_hvp_operator_matches_dense():
    # n < p: the free blocks of the l1 active set are singular.  The CG back-end's
    # shift must clear CG_CURVATURE_TOL on this small-scale H, where 100 n eps times its
    # Rayleigh quotient alone did not (NotPositiveDefiniteError)
    a, labels = bench_io.gen_logistic(50, 200, seed=1)
    spec = ProxSpec("l1", weight=0.01 / math.sqrt(50))
    opts = SolveOptions(eps=1e-9, record_time=False)
    res = [minimize_composite(CompositeProblem(models.GlmModel(a * labels[:, None],
                                                               atoms.logistic(), **kw),
                                               spec, np.zeros(200)), opts)
           for kw in ({}, {"p_dense": 0})]
    assert all(r.status == "converged" for r in res)
    assert res[1].iterations == res[0].iterations
    assert res[1].trace[-1].f == pytest.approx(res[0].trace[-1].f, rel=1e-12)


@pytest.mark.parametrize("rule", ["linesearch_floor", "exact"])
def test_unsupported_step_rules_raise(rule):
    port = portfolio_toy()
    prob = CompositeProblem(port, ProxSpec("simplex"), np.full(port.dim, 1.0 / port.dim))
    with pytest.raises(ParameterError):
        minimize_composite(prob, SolveOptions(step_rule=rule, record_time=False))


class _HvpOnlyPortfolio(models.PortfolioModel):
    def hessian(self, x):
        raise AssertionError("p_dense=0 must build H from hvp")


def test_cg_inner_method_uses_hvp():
    # with p_dense=0 the active set solves its free blocks by CG on the hvp operator
    for n, p, seed in [(50, 10, 7), (200, 20, 0)]:
        w = bench_io.gen_portfolio(n, p, seed=seed)
        x0 = np.full(p, 1.0 / p)
        opts = SolveOptions(eps=1e-9, record_time=False)
        ref = minimize_composite(
            CompositeProblem(models.PortfolioModel(w), ProxSpec("simplex"), x0), opts)
        res = minimize_composite(CompositeProblem(_HvpOnlyPortfolio(w, p_dense=0),
                                                  ProxSpec("simplex"), x0), opts)
        assert res.status == "converged" and res.iterations == ref.iterations
        assert res.trace[-1].f == pytest.approx(ref.trace[-1].f, rel=1e-12)


def test_exact_subproblem_is_not_resolved(monkeypatch):
    # one subproblem call per outer iteration.  An active-set z passes the
    # acceptance rule at any tighter tol (at seed 0 one residual lies above
    # the 1e-12 tol but below the rounding floor), for the l1 logistic and the
    # p_dense=0 (CG) inputs too
    calls = []
    solve = prox_newton._subproblem
    monkeypatch.setattr(prox_newton, "_subproblem",
                        lambda *a: calls.append(a[4]) or solve(*a))
    a, labels = bench_io.gen_logistic(200, 50, seed=23)
    cases = [(models.PortfolioModel(bench_io.gen_portfolio(1000, 5, seed=seed)),
              ProxSpec("simplex"), np.full(5, 0.2)) for seed in (10, 0)]
    cases += [(models.GlmModel(a * labels[:, None], atoms.logistic()),
               ProxSpec("l1", weight=0.05 / math.sqrt(200)), np.zeros(50)),
              (models.PortfolioModel(bench_io.gen_portfolio(50, 10, seed=7), p_dense=0),
               ProxSpec("simplex"), np.full(10, 0.1))]
    for model, spec, x0 in cases:
        calls.clear()
        res = minimize_composite(CompositeProblem(model, spec, x0),
                                 SolveOptions(record_time=False))
        assert res.status == "converged"
        assert len(calls) == len(res.trace), (model, spec)
        # each is checked against the rounding floor alone
        assert set(calls) == {0.0}, (model, spec)


@pytest.mark.parametrize("n,p,seed,p_dense", [
    pytest.param(200, 20, 0, None, id="200-20"),
    pytest.param(1000, 100, 0, None, id="1000-100"),
    pytest.param(1000, 100, 0, 0, id="1000-100-p_dense0"),
    pytest.param(50, 100, 2, 0, id="50-100-seed2-p_dense0"),
])
def test_portfolio_beyond_toy_size_matches_pg_bb(n, p, seed, p_dense):
    # accelerated prox-gradient inner solves stalled above their 1e-12 target on all of
    # these, with a dense H and with p_dense=0; the active set finishes exactly, solving
    # by CG on the hvp operator for p_dense=0 (whose 50x100 H is singular)
    kw = {} if p_dense is None else {"p_dense": p_dense}
    port = models.PortfolioModel(bench_io.gen_portfolio(n, p, seed=seed), **kw)
    x0 = np.full(p, 1.0 / p)
    res = minimize_composite(CompositeProblem(port, ProxSpec("simplex"), x0),
                             SolveOptions(record_time=False))
    assert res.status == "converged"
    x_ref, _ = bench_io.pg_bb(port, ProxSpec("simplex"), x0, eps=1e-10)
    ref = port.value(x_ref)
    assert abs(port.value(res.x) - ref) <= 1e-9 * max(1.0, abs(ref))


def _box_dwd(n):
    # the box-constrained DWD composite: the active set solves its SlackHessian's free
    # blocks by elimination
    a, labels = bench_io.gen_logistic(n, 20, seed=8)
    model = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.full(n, 0.01), q=1.0,
                                              gammas=(1e-4, 1e-4, 1e-5)))
    return model, ProxSpec("box", lo=-5.0, hi=5.0), np.concatenate([np.zeros(21), np.ones(n)])


def _box_dwd_200():
    return _box_dwd(200)


def _portfolio_1000x100():
    return (models.PortfolioModel(bench_io.gen_portfolio(1000, 100, seed=0)),
            ProxSpec("simplex"), np.full(100, 0.01))


@pytest.mark.parametrize("build,iterations,max_factorizations",
                         [(_portfolio_1000x100, 6, 150), (_box_dwd_200, 11, 120)],
                         ids=["portfolio-1000x100", "box-dwd-200"])
def test_warm_start_factorization_counts(monkeypatch, build, iterations, max_factorizations):
    # each subproblem starts from the last one's solution, so most take one
    # factorization; a cold start from the prox-gradient point made 477 and
    # 913 (one per bound it added)
    calls = []
    factor = linops.cholesky
    monkeypatch.setattr(linops, "cholesky", lambda *a, **k: calls.append(1) or factor(*a, **k))
    model, spec, x0 = build()
    res = minimize_composite(CompositeProblem(model, spec, x0),
                             SolveOptions(eps=1e-9, record_time=False))
    assert res.status == "converged" and res.iterations == iterations
    assert 0 < len(calls) <= max_factorizations


@pytest.mark.parametrize("n,iterations,max_peak", [(400, 17, 2e6), (1000, 28, 4e6)],
                         ids=["400", "1000"])
def test_box_dwd_composite_memory_stays_o_np(n, iterations, max_peak):
    # the active set never forms the (p+1+n)^2 Hessian: 7.1 MB at n = 400 and 41.8 MB
    # at n = 1000 when it densified the SlackHessian, under 1 MB by eliminating the
    # free slack rows
    model, spec, x0 = _box_dwd(n)
    tracemalloc.start()
    try:
        res = minimize_composite(CompositeProblem(model, spec, x0),
                                 SolveOptions(eps=1e-9, record_time=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "converged" and res.iterations == iterations
    assert res.extra["prox_certificate"] <= 1e-6
    assert peak <= max_peak
