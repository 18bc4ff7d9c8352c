"""BFGS updates, the quasi-Newton loop, and Dennis-More diagnostics."""

import tracemalloc

import numpy as np
import pytest
from test_oracle_order import CallLog

from gscopt import atoms, bench_io, models, quasi_newton
from gscopt.errors import NotPositiveDefiniteError, ParameterError
from gscopt.newton import SolveOptions, minimize
from gscopt.quasi_newton import (BfgsState, bfgs_update, dennis_more_ratio,
                                 minimize_qn)


def logistic_toy(n=200, p=20, seed=11):
    a, labels = bench_io.gen_logistic(n, p, seed=seed)
    return models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=1e-3)


def test_update_hand_example():
    st = bfgs_update(BfgsState.identity(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0]))
    assert np.allclose(st.h, np.diag([2.0, 1.0, 1.0]))
    assert np.allclose(st.h @ st.b, np.eye(3), atol=1e-14)


def test_update_fixed_point():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(4, 4))
    h = base @ base.T + np.eye(4)
    st = BfgsState(b=np.linalg.inv(h))
    s = rng.normal(size=4)
    st2 = bfgs_update(st, s, h @ s)
    assert np.allclose(st2.h, h, atol=1e-12)


def test_secant_and_pd_over_fuzz_run():
    rng = np.random.default_rng(7)
    st = BfgsState.identity(6)
    accepted = 0
    for _ in range(100):
        base = rng.normal(size=(6, 6))
        curv = base @ base.T + 0.5 * np.eye(6)
        s = rng.normal(size=6)
        y = curv @ s
        new = bfgs_update(st, s, y)
        if new.n_skipped > st.n_skipped:
            st = new
            continue
        accepted += 1
        assert np.linalg.norm(new.h @ s - y) <= 1e-10 * (1.0 + np.linalg.norm(y))
        np.linalg.cholesky(0.5 * (new.h + new.h.T))  # PD preserved
        st = new
    assert accepted >= 95


def test_curvature_guard_skips():
    st = BfgsState.identity(3)
    out = bfgs_update(st, np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]))
    assert out.n_skipped == 1
    assert np.allclose(out.h, st.h)


def reference_update(h, b, s, y):
    """The textbook O(p^3) forms: H + y y'/<y,s> - Hs (Hs)'/<Hs,s> and V B V' + rho s s'."""
    rho = 1.0 / float(y @ s)
    hs = h @ s
    v = np.eye(s.size) - rho * np.outer(s, y)
    return (h + np.outer(y, y) * rho - np.outer(hs, hs) / float(s @ hs),
            v @ b @ v.T + rho * np.outer(s, s))


@pytest.mark.parametrize("p", [6, 50])
def test_update_matches_reference_formula_over_fuzz_run(p):
    rng = np.random.default_rng(p)
    st = BfgsState.identity(p, 2.0)
    for _ in range(40):
        base = rng.normal(size=(p, p)) / np.sqrt(p)
        s = rng.normal(size=p)
        y = (base @ base.T + 0.5 * np.eye(p)) @ s
        h_ref, b_ref = reference_update(st.h, st.b, s, y)
        st = bfgs_update(st, s, y)
        assert st.n_skipped == 0
        assert np.linalg.norm(st.h - h_ref) <= 1e-12 * np.linalg.norm(h_ref)
        assert np.linalg.norm(st.b - b_ref) <= 1e-12 * np.linalg.norm(b_ref)


def test_update_leaves_input_state_unchanged():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(8, 8))
    h = base @ base.T + np.eye(8)
    st = BfgsState(b=np.linalg.inv(h))
    h_before, b_before = st.h.copy(), st.b.copy()
    s = rng.normal(size=8)
    new = bfgs_update(st, s, h @ s + 0.1 * s)
    assert new.h is not st.h and new.b is not st.b
    assert np.array_equal(st.h, h_before) and np.array_equal(st.b, b_before)


def traced_peak_of_solve(p):
    """(result, tracemalloc peak in bytes) of a BFGS solve on a 600 x p logistic."""
    a, labels = bench_io.gen_logistic(600, p, seed=3)
    model = models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=1e-3)
    x0 = np.zeros(p)
    tracemalloc.start()
    try:
        res = minimize_qn(model, x0, SolveOptions(eps=1e-8, record_time=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak


def test_solver_memory_independent_of_iteration_count():
    # one working array for the whole solve: the peak stays a few p x p
    # arrays even though retaining a state per iterate would cost p^2 each
    p = 300
    res, peak = traced_peak_of_solve(p)
    assert res.status == "converged" and res.iterations >= 20
    assert peak < 4 * p * p * 8


def test_solver_holds_one_working_array():
    # B is the loop's only p x p array, and the identity start, the update
    # and the restart allocate no other: keeping H beside it peaked at 2.09 p^2
    p = 300
    res, peak = traced_peak_of_solve(p)
    assert res.status == "converged"
    assert peak < 1.5 * p * p * 8


# (iterations, nfval, final f) of minimize_qn with eps = 1e-9, as computed
# when the loop updated H and B with four rank-one passes; the one rank-two
# pass on B rounds differently but must take the same path
PINNED_QN_RESULTS = {
    (600, 300, 3, 1e-3): {"analytic": (56, 56, 0.4841544828588236),
                          "exact": (20, 20, 0.4841544828588238),
                          "full": (56, 56, 0.4841544828588236),
                          "linesearch_floor": (56, 56, 0.4841544828588236)},
    (200, 50, 1, 1e-5): {"analytic": (316, 316, 0.07352312571596027),
                         "exact": (102, 102, 0.07352312571595894),
                         "full": (316, 316, 0.07352312571596027),
                         "linesearch_floor": (316, 316, 0.07352312571596027)},
}


@pytest.mark.parametrize("instance,step_rule", [
    pytest.param(inst, rule, id=f"{inst[0]}x{inst[1]}-{rule}")
    for inst, by_rule in PINNED_QN_RESULTS.items() for rule in by_rule])
def test_results_match_pinned_reference(instance, step_rule):
    n, p, seed, q_diag = instance
    iterations, nfval, f_ref = PINNED_QN_RESULTS[instance][step_rule]
    a, labels = bench_io.gen_logistic(n, p, seed=seed)
    model = models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=q_diag)
    res = minimize_qn(model, np.zeros(p),
                      SolveOptions(step_rule=step_rule, eps=1e-9, record_time=False))
    assert res.status == "converged" and res.extra["skipped_updates"] == 0
    assert (res.iterations, res.nfval) == (iterations, nfval)
    assert abs(res.trace[-1].f - f_ref) <= 1e-12 * max(1.0, abs(f_ref))


def test_inverse_consistency_along_solver_run():
    model = logistic_toy()
    states = []
    res = minimize_qn(model, np.zeros(model.dim), SolveOptions(eps=1e-9, record_time=False),
                      callback=lambda k, x, st: states.append((st.h.copy(), st.b.copy())))
    assert res.status == "converged"
    assert len(states) == len(res.trace)
    for h, b in states:
        assert np.max(np.abs(h @ b - np.eye(model.dim))) <= 1e-8


def test_quadratic_finite_termination_exact_linesearch():
    quad = models.QuadraticModel(np.diag([1.0, 3.0, 7.0, 11.0]), b=np.ones(4))
    res = minimize_qn(quad, np.zeros(4),
                      SolveOptions(step_rule="exact", eps=1e-10, record_time=False))
    assert res.status == "converged"
    assert res.iterations <= 5
    # classical theory: the final approximation equals the true Hessian
    assert np.max(np.abs(res.extra["state"].h - quad.a_mat)) <= 1e-6


def test_exact_step_is_halved_into_the_domain():
    # f(x) = x - log x from x = 10: the first exact step along -B grad lands
    # at x = -80, outside x > 0, so the domain guard halves it
    model = models.GlmModel(np.array([[1.0]]), atoms.log_barrier(), c=np.array([1.0]))
    res = minimize_qn(model, np.array([10.0]),
                      SolveOptions(step_rule="exact", record_time=False))
    assert res.status == "converged" and res.iterations == 7
    assert res.x == pytest.approx([1.0])


def test_floored_armijo_skips_trial_points_outside_the_domain():
    # f(x) = x - log x from x = 10 along d = -30; the search starts at
    # min(1, 2 * 0.5) = 1, and tau = 1 and 1/2 leave x > 0
    model = models.GlmModel(np.array([[1.0]]), atoms.log_barrier(), c=np.array([1.0]))
    x, d = np.array([10.0]), np.array([-30.0])
    tau, f, evals = quasi_newton._floored_armijo(model, x, d, model.grad(x), model.value(x), 0.5)
    assert (tau, evals) == (0.25, 3)
    assert f == model.value(x + 0.25 * d)


def test_exact_step_refuses_negative_curvature():
    quad = models.QuadraticModel(-np.eye(2))
    x = np.ones(2)
    g = quad.grad(x)
    with pytest.raises(NotPositiveDefiniteError):
        quasi_newton._exact_quadratic_step(quad, x, g, g, quad.value(x), 0.5)


def test_floored_armijo_needs_a_descent_direction():
    quad = models.QuadraticModel(np.eye(2))
    x = np.ones(2)
    g = quad.grad(x)
    with pytest.raises(ParameterError):
        quasi_newton._floored_armijo(quad, x, g, g, quad.value(x), 0.5)


def test_floored_armijo_gives_up_after_80_halvings():
    # f0 = -1 lies below every value of f(x) = x^2 / 2, so no trial is accepted
    quad = models.QuadraticModel(np.eye(1))
    x = np.ones(1)
    result = quasi_newton._floored_armijo(quad, x, -x, quad.grad(x), -1.0, 0.25)
    assert result == (0.5 * 2.0**-80, None, 80)


class _StaleGradient:
    """Delegating model proxy whose grad, at its stale-th call, repeats the previous call's."""

    def __init__(self, model, stale):
        self._model, self._stale, self._calls, self._last = model, stale, 0, None

    def __getattr__(self, name):
        return getattr(self._model, name)

    def grad(self, x):
        self._calls += 1
        if self._calls != self._stale:
            self._last = self._model.grad(x)
        return self._last


def test_solver_skips_an_update_with_no_gradient_change():
    # iterate 2 sees iterate 1's gradient: y = 0, so the curvature guard skips
    # that update inside the solve, and the solve goes on with the same B
    skipped = {}
    res = minimize_qn(_StaleGradient(logistic_toy(n=100, p=5, seed=0), 3), np.zeros(5),
                      SolveOptions(eps=1e-9, record_time=False),
                      callback=lambda k, x, state: skipped.setdefault(k, state.n_skipped))
    assert res.status == "converged" and res.extra["skipped_updates"] == 1
    assert (skipped[1], skipped[2]) == (0, 1)


@pytest.mark.parametrize("step_rule", ["analytic", "exact"])
def test_nfval_counts_value_calls_after_the_start(step_rule):
    log = CallLog(logistic_toy(n=100, p=5, seed=0))
    res = minimize_qn(log, np.zeros(5), SolveOptions(step_rule=step_rule, record_time=False))
    assert res.status == "converged"
    assert res.nfval == log.calls.count("value") - 1 > 0


def test_true_hessian_seed_converges_in_one_step():
    quad = models.QuadraticModel(np.diag([2.0, 5.0, 9.0, 1.0]), b=np.ones(4))
    res = minimize_qn(quad, np.zeros(4),
                      SolveOptions(step_rule="exact", eps=1e-12, record_time=False),
                      h0=quad.a_mat)
    assert res.iterations == 1


def test_monotone_descent():
    model = logistic_toy()
    res = minimize_qn(model, np.zeros(model.dim), SolveOptions(eps=1e-9, record_time=False))
    fs = [r.f for r in res.trace]
    assert all(b <= a + 1e-12 * (1.0 + abs(a)) for a, b in zip(fs, fs[1:]))


def test_superlinear_trend_against_newton_reference():
    model = logistic_toy()
    x0 = np.zeros(model.dim)
    xstar = minimize(model, x0, SolveOptions(eps=1e-12, record_time=False)).x
    from gscopt.acceptance import _qn_error_trajectory
    errs = _qn_error_trajectory(model, x0, xstar, eps=1e-9)
    ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 0.0]
    tail = ratios[-4:]
    assert len(tail) == 4
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_dennis_more_values():
    h_star = np.eye(3)
    assert dennis_more_ratio(h_star, h_star, np.array([1.0, 1, 1]), np.zeros(3)) == 0.0
    ratio = dennis_more_ratio(h_star + 0.25 * np.eye(3), h_star,
                              np.array([1.0, 0, 0]), np.zeros(3))
    assert ratio == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(ParameterError):
        dennis_more_ratio(h_star, h_star, np.zeros(3), np.zeros(3))


def test_dennis_more_trend_along_run():
    # small instance: the run gets deep enough into the asymptotic regime
    # for the directional Hessian error to visibly collapse
    model = logistic_toy(n=100, p=5, seed=0)
    x0 = np.zeros(model.dim)
    ref = minimize(model, x0, SolveOptions(eps=1e-12, record_time=False))
    xstar, h_star = ref.x, model.hessian(ref.x)
    seen = []
    minimize_qn(model, x0, SolveOptions(eps=1e-10, record_time=False),
                callback=lambda k, x, st: seen.append((x.copy(), st.h.copy())))
    ratios = [dennis_more_ratio(h, h_star, x, xstar) for x, h in seen[:-1]
              if np.linalg.norm(x - xstar) > 1e-11]
    assert ratios[-1] < ratios[0] / 10.0


def test_exact_step_rejected_by_newton_minimize():
    model = logistic_toy()
    with pytest.raises(ParameterError):
        minimize(model, np.zeros(model.dim), SolveOptions(step_rule="exact"))


@pytest.mark.parametrize("h0", [
    np.eye(4),                                  # wrong shape for p = 5
    np.full((5, 5), np.nan),                    # not finite
    -np.eye(5),                                 # negative definite
    np.eye(5) + np.triu(np.ones((5, 5)), 1),    # not symmetric
])
def test_h0_must_be_a_finite_symmetric_pd_matrix(h0):
    model = logistic_toy(n=100, p=5, seed=0)
    with pytest.raises(ParameterError, match="h0"):
        minimize_qn(model, np.zeros(5), SolveOptions(record_time=False), h0=h0)


def test_restart_keeps_one_record_per_iteration():
    model = logistic_toy(n=100, p=5, seed=0)
    grads = {}

    def spoil_b(k, x, state):
        # the state's arrays are the solver's own: a negative definite B
        # makes the next direction ascend, which forces the restart
        grads[k] = model.grad(x)
        if k == 2:
            state.b[:] = -np.eye(5)

    res = minimize_qn(model, np.zeros(5), SolveOptions(eps=1e-9, record_time=False),
                      callback=spoil_b)
    assert res.status == "converged"
    assert [r.k for r in res.trace] == list(range(len(res.trace)))
    # the restarted iterate steps along -grad, so lambda_hat = ||grad||
    assert res.trace[2].lam == pytest.approx(np.linalg.norm(grads[2]), rel=1e-12)
