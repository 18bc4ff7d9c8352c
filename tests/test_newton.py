"""Damped/two-phase Newton: contracts, invariants, and reference cross-checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from gscopt import atoms, bench_io, kernel, linops, models, prox
from gscopt.errors import ConvergenceError, DomainError, ParameterError
from gscopt.newton import (MAX_HALVINGS, SolveOptions, existence_check, linesearch_step,
                           minimize, resolve_params)
from gscopt.prox import ProxSpec
from gscopt.prox_newton import CompositeProblem, minimize_composite
from gscopt.quasi_newton import minimize_qn


def reg_logistic(n=2000, p=100, seed=42, gamma=1e-5, **kw):
    a, labels = bench_io.gen_logistic(n, p, seed=seed)
    return models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=gamma, **kw)


def box_barrier(p=4, seed=0, scale=0.05):
    """f(x) = (1/2p) sum_i [-ln(1 + x_i) - ln(1 - x_i)] + c'x on (-1, 1)^p."""
    rng = np.random.default_rng(seed)
    rows = np.vstack([np.eye(p), -np.eye(p)])
    c = scale * rng.normal(size=p)
    return models.GlmModel(rows, atoms.log_barrier(), b=np.ones(2 * p), c=c)


def test_quadratic_one_iteration():
    qm = models.QuadraticModel(np.eye(3))
    res = minimize(qm, np.array([1.0, 2.0, 2.0]), SolveOptions(record_time=False))
    assert res.status == "converged"
    assert res.iterations == 1
    assert res.trace[0].lam == pytest.approx(3.0)
    assert res.trace[0].tau == 1.0


def test_logistic_force2_converges_and_matches_reference():
    model = reg_logistic(n=600, p=40)
    x0 = np.zeros(model.dim)
    res = minimize(model, x0, SolveOptions(nu_choice="force_2", eps=1e-8, record_time=False))
    assert res.status == "converged"
    assert res.iterations <= 60
    # generic convex solver reference at tight tolerance
    ref = scipy.optimize.minimize(
        model.value, x0, jac=model.grad, method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 20000})
    assert model.value(res.x) <= ref.fun + 1e-10 * (1.0 + abs(ref.fun))
    assert np.linalg.norm(model.grad(res.x)) <= 1e-8 * max(
        1.0, np.linalg.norm(model.grad(x0)))


def test_force3_strictly_slower():
    model = reg_logistic(n=600, p=40)
    x0 = np.zeros(model.dim)
    r2 = minimize(model, x0, SolveOptions(nu_choice="force_2", record_time=False))
    r3 = minimize(model, x0, SolveOptions(nu_choice="force_3", max_iter=2000,
                                          record_time=False))
    assert r3.status == "converged"
    assert r3.iterations >= 2 * r2.iterations


def test_monotone_descent_and_prediction():
    model = reg_logistic(n=400, p=30)
    res = minimize(model, np.zeros(model.dim),
                   SolveOptions(nu_choice="force_2", phase2="off", record_time=False))
    fs = [r.f for r in res.trace]
    assert all(b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(fs, fs[1:]))
    for rec, nxt in zip(res.trace[:-1], res.trace[1:]):
        delta = kernel.descent_estimate(2.0, rec.lam, rec.d_k, rec.tau)
        assert nxt.f <= rec.f - delta + 1e-10 * (1.0 + abs(rec.f))


def test_tau_ordering_along_run():
    model = reg_logistic(n=400, p=30)
    m3 = models.glm_gsc_params(model, 3).m
    res = minimize(model, np.zeros(model.dim),
                   SolveOptions(nu_choice="force_2", phase2="off", record_time=False))
    for rec in res.trace[:-1]:
        if rec.beta <= 0.0:
            continue
        tau2 = math.log1p(rec.beta) / rec.beta
        tau3 = 1.0 / (1.0 + 0.5 * m3 * rec.lam)
        assert tau2 > tau3


def test_quadratic_tail():
    model = reg_logistic(n=400, p=30)
    res = minimize(model, np.zeros(model.dim),
                   SolveOptions(nu_choice="force_2", eps=1e-9, record_time=False))
    lams = [r.lam for r in res.trace if r.lam > 0.0]
    # log lam_{k+1} <= 2 log lam_k + log C over the last three records
    cs = [b / a**2 for a, b in zip(lams[-3:-1], lams[-2:])]
    assert all(math.isfinite(c) for c in cs)
    assert max(cs) * lams[-3] < 1.0  # inside the quadratic basin


def test_affine_invariance_nu3():
    # for nu = 3 the decrement sequence is invariant under x -> A x
    p = 4
    model = box_barrier(p=p)
    rng = np.random.default_rng(8)
    a_mat = np.eye(p) + 0.3 * rng.normal(size=(p, p))
    mapped = models.GlmModel(model.a @ a_mat, atoms.log_barrier(), b=model.b.copy(),
                             c=a_mat.T @ model.c)
    assert mapped.params.m == pytest.approx(model.params.m)
    opts = SolveOptions(eps=1e-10, phase2="off", record_time=False)
    r_direct = minimize(model, np.zeros(p), opts)
    r_mapped = minimize(mapped, np.zeros(p), opts)
    assert r_direct.iterations == r_mapped.iterations
    for a, b in zip(r_direct.trace, r_mapped.trace):
        assert b.lam == pytest.approx(a.lam, rel=1e-6, abs=1e-12)
        assert b.tau == pytest.approx(a.tau, rel=1e-6)


def test_full_step_domain_guard():
    # flat center + strong tilt: the full Newton step exits (-1, 1)^3
    rng = np.random.default_rng(0)
    rows = np.vstack([np.eye(3), -np.eye(3)])
    model = models.GlmModel(rows, atoms.log_barrier(), b=np.ones(6),
                            c=np.array([1.0, -0.7, 0.9]))
    res = minimize(model, np.zeros(3), SolveOptions(step_rule="full", phase2="off",
                                                    eps=1e-9, record_time=False))
    assert res.status == "converged"
    assert model.feasible(res.x)
    assert any(r.tau < 1.0 for r in res.trace)  # the guard had to halve


class _InfeasibleFrom:
    """Delegating model proxy whose feasible answers False from its (calls + 1)-th call on."""

    def __init__(self, model, calls):
        self._model, self._left = model, calls

    def __getattr__(self, name):
        return getattr(self._model, name)

    def feasible(self, x):
        self._left -= 1
        return self._left >= 0 and self._model.feasible(x)


def test_domain_guard_out_of_halvings_ends_with_the_trace():
    model = reg_logistic(n=300, p=20)
    opts = SolveOptions(phase2="off", record_time=False)
    res = minimize(_InfeasibleFrom(model, 2), np.zeros(model.dim), opts)
    assert res.status == "domain_error" and res.iterations == 2
    # the two steps the guard let through are kept, and x stays at the last of them
    two = minimize(model, np.zeros(model.dim), dataclasses.replace(opts, max_iter=2))
    assert np.array_equal(res.x, two.x)
    assert [r.f for r in res.trace] == [r.f for r in two.trace]
    # the last record holds the analytic step after MAX_HALVINGS halvings
    last = res.trace[-1]
    tau_an, _ = kernel.step_size(model.params.nu, model.params.m, last.lam, last.beta)
    assert last.phase == "damped" and last.tau == tau_an * 0.5 ** MAX_HALVINGS


class _IndefiniteFrom:
    """Delegating model proxy whose Hessian has h[0, 0] = -1 from its (calls + 1)-th call on."""

    def __init__(self, model, calls):
        self._model, self._left = model, calls

    def __getattr__(self, name):
        return getattr(self._model, name)

    def hessian(self, x):
        self._left -= 1
        h = self._model.hessian(x)
        if self._left < 0:
            h = h.copy()
            h[0, 0] = -1.0
        return h


def _assert_failed_at_iterate_two(res, two, error):
    """res ended at iterate 2 on error: two steps kept, x and f where two stopped."""
    assert res.status == "inner_failure" and res.iterations == 2 and len(res.trace) == 3
    assert res.extra["error"].startswith(error + ": ")
    assert np.array_equal(res.x, two.x)
    assert res.trace[:2] == two.trace[:2] and res.trace[2].f == two.trace[2].f
    last = res.trace[2]
    assert math.isnan(last.lam) and math.isnan(last.beta) and math.isnan(last.d_k)


def test_indefinite_hessian_ends_the_solve_with_the_trace():
    model = reg_logistic(n=300, p=20)
    opts = SolveOptions(record_time=False)
    two = minimize(model, np.zeros(model.dim), dataclasses.replace(opts, max_iter=2))
    res = minimize(_IndefiniteFrom(model, 2), np.zeros(model.dim), opts)
    _assert_failed_at_iterate_two(res, two, "NotPositiveDefiniteError")


def test_cg_failure_ends_the_solve_with_the_trace(monkeypatch):
    a, labels = bench_io.gen_logistic(300, 20, seed=42)
    model = models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=1e-5, p_dense=0)
    opts = SolveOptions(record_time=False)
    two = minimize(model, np.zeros(model.dim), dataclasses.replace(opts, max_iter=2))
    real_cg, calls = linops._cg, []

    def cg_failing_at_iterate_two(*args, **kwargs):
        calls.append(None)
        if len(calls) > 2:
            raise ConvergenceError("CG did not converge", residual=1.0)
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(linops, "_cg", cg_failing_at_iterate_two)
    res = minimize(model, np.zeros(model.dim), opts)
    _assert_failed_at_iterate_two(res, two, "ConvergenceError")


def test_subproblem_failure_ends_the_composite_solve_with_the_trace(monkeypatch):
    port = models.PortfolioModel(bench_io.gen_portfolio(50, 10, seed=7))
    x0, opts = np.full(10, 0.1), SolveOptions(record_time=False)
    two = minimize_composite(CompositeProblem(port, ProxSpec("simplex"), x0),
                             dataclasses.replace(opts, max_iter=2))
    real_acceptance, calls = prox._acceptance, []

    def acceptance_failing_at_iterate_two(*args):
        # the subproblem's own check then refuses its point
        calls.append(None)
        return (math.inf, 0.0) if len(calls) > 2 else real_acceptance(*args)

    monkeypatch.setattr(prox, "_acceptance", acceptance_failing_at_iterate_two)
    res = minimize_composite(CompositeProblem(port, ProxSpec("simplex"), x0), opts)
    _assert_failed_at_iterate_two(res, two, "SubproblemError")


def test_strict_theorem_phase2():
    model = reg_logistic(n=300, p=20)
    res = minimize(model, np.zeros(model.dim),
                   SolveOptions(nu_choice="force_2", phase2="strict_theorem",
                                eps=1e-9, record_time=False))
    assert res.status == "converged"
    assert any(r.phase == "full" for r in res.trace)


def test_strict_entry_is_certified_and_alike_on_every_path():
    # the strict radius is taken once, at the certified bound min(q_diag) = 1e-5 on
    # sigma_min: the dense and CG (p_dense = 0) solves enter the full-step phase at the
    # same iterate, the first inside that radius, which is inside the exact sigma_min's too
    opts = SolveOptions(nu_choice="force_2", phase2="strict_theorem", eps=1e-9,
                        record_time=False)
    model = reg_logistic(n=300, p=20)
    dense = minimize(model, np.zeros(20), opts)
    cg = minimize(reg_logistic(n=300, p=20, p_dense=0), np.zeros(20), opts)
    assert [r.phase for r in dense.trace] == [r.phase for r in cg.trace]
    m = resolve_params(model, "force_2").m
    threshold = kernel.phase2_threshold(2.0)
    first = next(r for r in dense.trace if r.phase == "full")
    radius = threshold.entry_lambda_max(m, 1e-5)
    assert first.k == next(r.k for r in dense.trace if r.lam < radius)
    x_k = minimize(model, np.zeros(20), dataclasses.replace(opts, max_iter=first.k)).x
    sigma_min = np.linalg.eigvalsh(model.hessian(x_k))[0]
    assert 1e-5 <= sigma_min and first.lam < threshold.entry_lambda_max(m, sigma_min)


def test_dwd_above_p_dense_solves_in_bounded_memory():
    # dim = p + 1 + n = 5011 > p_dense: the Newton step eliminates the slack
    # block instead of forming the n x (p + 1 + n) design or running CG
    n, p = 5000, 10
    a, labels = bench_io.gen_logistic(n, p, seed=3)
    tracemalloc.start()
    try:
        glm = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.zeros(n), q=1.0,
                                                gammas=(1e-5, 1e-5, 1e-7)))
        x0 = np.concatenate([np.zeros(p + 1), np.ones(n)])
        res = minimize(glm, x0, SolveOptions(record_time=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert glm.dim > glm.p_dense and glm.has_dense_hessian
    assert isinstance(glm.hessian(res.x), models.SlackHessian)
    assert res.status == "converged" and res.grad_criterion_met
    assert peak < 40 * n * (p + 2) * 8


def test_x0_outside_domain_raises():
    model = box_barrier(p=3)
    with pytest.raises(DomainError):
        minimize(model, np.array([2.0, 0.0, 0.0]), SolveOptions(record_time=False))


def _composite_from(model, x0, opts):
    # CompositeProblem refuses a non-finite x0 itself; set one after it to reach the loop
    problem = CompositeProblem(model, ProxSpec("zero"), np.zeros(x0.size))
    problem.x0 = x0
    return minimize_composite(problem, opts)


@pytest.mark.parametrize("solve", [minimize, minimize_qn, _composite_from],
                         ids=["newton", "bfgs", "prox_newton"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_x0_raises(solve, bad):
    # each entry refuses it, and the shared loop a CompositeProblem's replaced x0:
    # minimize_qn from inf reported "converged" with f = nan, from NaN it ran to
    # max_iter, and minimize raised ParameterError
    a, labels = bench_io.gen_logistic(50, 5, seed=0)
    model = models.GlmModel(a * labels[:, None], atoms.logistic())
    x0 = np.zeros(5)
    x0[2] = bad
    with pytest.raises(DomainError):
        solve(model, x0, SolveOptions(record_time=False))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_start_is_refused_before_the_model_sees_it(bad):
    # each entry tests x0 before its first oracle call: the model's a @ x0 warned of an
    # invalid matmul first, and existence_check from NaN raised ParameterError
    model = models.GlmModel(np.eye(3), atoms.logistic())
    x0 = np.array([0.0, bad, 0.0])
    entries = {"minimize": lambda: minimize(model, x0),
               "minimize_qn": lambda: minimize_qn(model, x0),
               "existence_check": lambda: existence_check(model, x0),
               "CompositeProblem": lambda: CompositeProblem(model, ProxSpec("zero"), x0)}
    for name, entry in entries.items():
        with pytest.raises(DomainError, match="non-finite"):
            entry()


def ridgeless_wide_logistic(n, p, seed, **kw):
    """A logistic GLM with more columns than rows and q_diag = 0: its Hessian is singular."""
    a, labels = bench_io.gen_logistic(n, p, seed=seed)
    return models.GlmModel(a * labels[:, None], atoms.logistic(), **kw)


RIDGELESS = [((20, 40, 0), 114), ((30, 60, 1), 121), ((10, 50, 2), 85)]


@pytest.mark.parametrize("phase2", ["heuristic_tau", "strict_theorem"])
@pytest.mark.parametrize("shape,iterations", RIDGELESS, ids=lambda v: str(v))
def test_singular_hessian_solves_alike_on_every_path(shape, iterations, phase2):
    # the dense Cholesky refused this H at iteration 0 while CG (p_dense = 0) and the
    # free-block solve (g = zero) converged: p_dense picks only the system's form
    opts = SolveOptions(record_time=False, phase2=phase2)
    x0 = np.zeros(shape[1])
    runs = {"dense": minimize(ridgeless_wide_logistic(*shape), x0, opts),
            "cg": minimize(ridgeless_wide_logistic(*shape, p_dense=0), x0, opts),
            "composite": minimize_composite(
                CompositeProblem(ridgeless_wide_logistic(*shape), ProxSpec("zero"), x0), opts)}
    for name, res in runs.items():
        assert res.status == "converged" and res.iterations == iterations, name


@pytest.mark.parametrize("shape", [s for s, _ in RIDGELESS], ids=str)
def test_existence_check_on_a_singular_hessian(shape):
    # sigma_min is at the rounding level, of either sign: no radius, and lhs is the
    # decrement of the shifted solve
    model = ridgeless_wide_logistic(*shape)
    chk = existence_check(model, np.zeros(model.dim))
    assert not chk.satisfied and math.isfinite(chk.lhs) and chk.lhs > 0.0
    assert abs(chk.sigma_min) <= 1e-12


def unbounded_ridgeless_logistic(**kw):
    """A 10 x 30 ridge-less logistic GLM with c = 0.1 v, v in the null space of A.

    f falls without bound along v, and the gradient's v-part lies in H's null space.
    """
    a, labels = bench_io.gen_logistic(10, 30, seed=2)
    a = a * labels[:, None]
    v = np.linalg.svd(a)[2][-1]
    return models.GlmModel(a, atoms.logistic(), c=0.1 * v, **kw), v


def test_dense_step_along_the_null_space_is_the_gradient_over_the_shift():
    model, v = unbounded_ridgeless_logistic()
    x0 = np.zeros(model.dim)
    g, h = model.grad(x0), model.hessian(x0)
    shift = model.dim * linops.EPS * h.diagonal().max()
    n = linops.newton_direction(linops.NewtonSystem(h, g)).n
    assert float(n @ v) == pytest.approx(-float(g @ v) / shift, rel=3e-3)

    res = minimize(model, x0, SolveOptions(max_iter=50, record_time=False))
    fs = [r.f for r in res.trace]
    assert res.status == "max_iter" and res.iterations == 50
    assert np.isfinite(res.x).all()
    assert all(b < a for a, b in zip(fs, fs[1:]))
    assert fs[-1] == pytest.approx(-170.7, rel=1e-2)


def test_cg_refuses_the_unbounded_ridgeless_model_at_the_start():
    model, _ = unbounded_ridgeless_logistic(p_dense=0)
    res = minimize(model, np.zeros(model.dim), SolveOptions(max_iter=50, record_time=False))
    assert res.status == "inner_failure" and res.iterations == 0
    assert res.extra["error"].startswith("NotPositiveDefiniteError")


def test_nu_choice_resolution_errors():
    barrier = box_barrier(p=3)
    with pytest.raises(ParameterError):
        resolve_params(barrier, "force_2")  # no Lipschitz constant available
    glm_no_reg = models.GlmModel(np.eye(3), atoms.logistic())
    with pytest.raises(ParameterError):
        resolve_params(glm_no_reg, "force_3")  # lam_min(Q) = 0
    # atoms with nu outside [2, 3] are rejected at GLM construction already
    with pytest.raises(ParameterError):
        models.GlmModel(np.eye(3), atoms.entropy(), b=np.full(3, 2.0))


def test_auto_step_rule_removed():
    with pytest.raises(ParameterError):
        SolveOptions(step_rule="auto")


@pytest.mark.parametrize("field,value", [
    ("inner_method", "cg"), ("inner_tol", 1e-10), ("inner_max_iter", 100),
    ("armijo_c1", 1e-6), ("phase2_tau_threshold", 0.9),
])
def test_removed_options_rejected(field, value):
    # these are module constants now; p_dense picks Cholesky or CG
    with pytest.raises(TypeError):
        SolveOptions(**{field: value})
    assert [f.name for f in dataclasses.fields(SolveOptions)] == [
        "nu_choice", "step_rule", "eps", "max_iter", "phase2", "record_time"]


def test_negative_max_iter_rejected():
    with pytest.raises(ParameterError):
        SolveOptions(max_iter=-1)
    res = minimize(models.QuadraticModel(np.eye(2), np.ones(2)), np.zeros(2),
                   SolveOptions(max_iter=0, record_time=False))
    assert res.status == "max_iter" and res.iterations == 0


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_nonfinite_eps_rejected(eps):
    with pytest.raises(ParameterError):
        SolveOptions(eps=eps)


def test_grad_criterion_reported():
    model = reg_logistic(n=300, p=20)
    res = minimize(model, np.zeros(model.dim), SolveOptions(eps=1e-8, record_time=False))
    assert res.status == "converged"
    assert res.grad_criterion_met


def test_max_iter_status():
    model = reg_logistic(n=300, p=20)
    res = minimize(model, np.zeros(model.dim),
                   SolveOptions(nu_choice="force_3", max_iter=3, record_time=False))
    assert res.status == "max_iter"
    assert res.iterations == 3


# ---------------------------------------------------------------------------
# linesearch_step
# ---------------------------------------------------------------------------

def test_linesearch_full_step_on_quadratic():
    qm = models.QuadraticModel(np.eye(2))
    x = np.array([1.0, 1.0])
    n = -x  # exact Newton direction
    ls = linesearch_step(qm, x, n, tau_floor=0.1, c1=1e-6)
    assert ls.tau == 1.0
    assert ls.nfval == 1


def test_linesearch_halves_to_half():
    # f(t) = t^2 from x = -1 along n = 3: full step overshoots, half succeeds
    qm = models.QuadraticModel(np.array([[2.0]]))
    ls = linesearch_step(qm, np.array([-1.0]), np.array([3.0]), tau_floor=0.25, c1=1e-6)
    assert ls.tau == 0.5
    assert ls.nfval == 2


def test_linesearch_floor_accepted_unconditionally():
    qm = models.QuadraticModel(np.array([[2.0]]))
    ls = linesearch_step(qm, np.array([-1.0]), np.array([300.0]), tau_floor=0.25, c1=1e-6)
    assert ls.tau == 0.25
    assert ls.nfval == 2  # tested 1 and 0.5, then returned the floor untested


def test_linesearch_plain_backtracking():
    qm = models.QuadraticModel(np.array([[2.0]]))
    ls = linesearch_step(qm, np.array([-1.0]), np.array([300.0]), tau_floor=0.0, c1=1e-6)
    assert 0.0 < ls.tau < 0.25
    assert ls.nfval > 2


def test_linesearch_skips_trial_points_outside_the_domain():
    # f(x) = x - log x from x = 10 along n = -30: tau = 1 and 1/2 leave x > 0
    model = models.GlmModel(np.array([[1.0]]), atoms.log_barrier(), c=np.array([1.0]))
    ls = linesearch_step(model, np.array([10.0]), np.array([-30.0]), tau_floor=0.0)
    assert ls.tau == 0.25
    assert ls.nfval == 3


def test_linesearch_needs_descent_direction():
    qm = models.QuadraticModel(np.eye(2))
    with pytest.raises(ParameterError):
        linesearch_step(qm, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.1)


def test_linesearch_variant_same_optimum():
    model = reg_logistic(n=300, p=20)
    x0 = np.zeros(model.dim)
    r_an = minimize(model, x0, SolveOptions(nu_choice="force_2", record_time=False))
    r_ls = minimize(model, x0, SolveOptions(nu_choice="force_2",
                                            step_rule="linesearch_floor", record_time=False))
    assert r_ls.status == "converged"
    assert np.linalg.norm(r_ls.x - r_an.x) <= 1e-6 * (1.0 + np.linalg.norm(r_an.x))
    assert r_ls.iterations <= r_an.iterations  # tau >= analytic floor


# ---------------------------------------------------------------------------
# existence check
# ---------------------------------------------------------------------------

def test_existence_quadratic_m_zero():
    qm = models.QuadraticModel(np.diag([2.0, 1.0]), b=np.array([1.0, 1.0]))
    chk = existence_check(qm, np.array([5.0, -3.0]))
    assert chk.satisfied
    assert math.isinf(chk.rhs)


def test_existence_nu3_rhs_independent_of_sigma():
    port = models.PortfolioModel(bench_io.gen_portfolio(12, 4, seed=2))
    x = np.full(4, 0.25)
    chk = existence_check(port, x)
    assert chk.rhs == pytest.approx(2.0 / port.params.m)  # = 1 for M = 2
    # near the optimum the condition should hold
    from gscopt.prox import ProxSpec
    from gscopt.prox_newton import CompositeProblem, minimize_composite
    res = minimize_composite(CompositeProblem(port, ProxSpec("simplex"), x),
                             SolveOptions(eps=1e-9, record_time=False))
    # evaluate at a strictly interior point near the constrained optimum
    x_int = 0.9 * res.x + 0.1 * x
    chk2 = existence_check(port, x_int)
    assert chk2.lhs >= 0.0


def test_existence_check_on_an_indefinite_hessian():
    chk = existence_check(models.QuadraticModel(np.diag([1.0, -1.0])), np.ones(2))
    assert (chk.satisfied, chk.lhs, chk.rhs) == (False, math.inf, 0.0)


def test_existence_logistic():
    model = reg_logistic(n=200, p=10)
    res = minimize(model, np.zeros(10), SolveOptions(record_time=False))
    chk = existence_check(model, res.x)
    assert chk.satisfied
    assert chk.lhs < chk.rhs
    # the radius is taken at the certified bound min(q_diag), so satisfied is a proof
    assert chk.sigma_min == model.q_diag.min() <= np.linalg.eigvalsh(model.hessian(res.x))[0]
