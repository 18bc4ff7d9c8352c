"""Model oracles: hand values, finite-difference checks, certified parameters."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from gscopt import atoms, bench_io, kernel, linops, models
from gscopt.acceptance import bound_suite_violations
from gscopt.errors import DomainError, ParameterError
from gscopt.newton import SolveOptions, minimize
from gscopt.prox import ProxSpec
from gscopt.prox_newton import CompositeProblem, minimize_composite
from gscopt.quasi_newton import minimize_qn


def unit_row_logistic(n=40, p=6, seed=1, gamma=1e-5):
    a, labels = bench_io.gen_logistic(n, p, seed=seed)
    return models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=gamma)


def test_portfolio_hand_values():
    pm = models.PortfolioModel(np.array([[1.0, 1.0]]))
    x = np.array([0.5, 0.5])
    assert pm.value(x) == 0.0
    assert np.allclose(pm.grad(x), [-1.0, -1.0])


def test_glm_hand_values():
    gm = models.GlmModel(np.eye(2), atoms.logistic(), weights=np.array([0.5, 0.5]))
    x = np.zeros(2)
    assert gm.value(x) == pytest.approx(math.log(2.0), rel=1e-15)
    assert np.allclose(gm.grad(x), [-0.25, -0.25])
    assert np.allclose(gm.hessian(x), 0.125 * np.eye(2))
    assert np.allclose(gm.hvp(x, np.zeros(2)), 0.0)


@pytest.mark.parametrize("field,size", [("b", 3), ("weights", 3), ("c", 2)])
def test_glm_rejects_misshaped_vectors(field, size):
    # b and weights have one entry per row of A (3 x 2), c one per coordinate
    a = np.ones((3, 2))
    gm = models.GlmModel(a, atoms.logistic(), **{field: np.ones(size)})
    assert math.isfinite(gm.value(np.zeros(2)))
    for bad in (np.ones(size + 1), np.ones((size, 1))):
        with pytest.raises(ParameterError, match=f"^{field} must"):
            models.GlmModel(a, atoms.logistic(), **{field: bad})
    if field == "c":
        # a DWD slack cost of the wrong length reaches the check through dwd_as_glm
        with pytest.raises(ParameterError, match="^c must"):
            models.dwd_as_glm(models.DwdModel(a=np.eye(2), y=np.ones(2), c=np.zeros(3),
                                              q=1.0, gammas=(1e-5, 1e-5, 1e-7)))


@pytest.mark.parametrize("field,size", [("b", 3), ("weights", 3), ("q_diag", 2), ("c", 2)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_glm_rejects_nonfinite_vectors(field, size, bad):
    # NaN passes the weights' and q_diag's sign tests, so finiteness is its own check
    a = np.ones((3, 2))
    for v in (bad, np.where(np.arange(size) == 1, bad, 1.0)):
        with pytest.raises(ParameterError, match=f"^{field} must be finite$"):
            models.GlmModel(a, atoms.logistic(), **{field: v})


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("kind", ["dense", "sparse", "slack"])
def test_glm_rejects_an_empty_design(shape, kind):
    # no rows leaves the default weights 1/n undefined; no columns leaves no variable
    a = np.ones(shape)
    a = {"dense": a, "sparse": sp.csr_matrix(a), "slack": models.SlackDesign(a)}[kind]
    if kind == "slack" and shape[0] > 0:
        # a slack per row: the design has columns even when its block has none
        assert models.GlmModel(a, atoms.neg_power(1.0)).dim == shape[0]
        return
    with pytest.raises(ParameterError, match=rf"got shape \({a.shape[0]}, {a.shape[1]}\)$"):
        models.GlmModel(a, atoms.logistic())


@pytest.mark.parametrize("w, message", [
    (np.ones((0, 3)), r"got shape \(0, 3\)$"),
    (np.ones((3, 0)), r"got shape \(3, 0\)$"),
    (np.array([[1.0, math.nan], [1.0, 1.0]]), "must be finite"),
    (np.array([[1.0, math.inf], [1.0, 1.0]]), "must be finite"),
], ids=["no-rows", "no-columns", "nan", "inf"])
def test_portfolio_rejects_an_empty_or_nonfinite_matrix(w, message):
    # NaN <= 0 is False, so the positivity check alone lets a NaN through
    with pytest.raises(ParameterError, match=message):
        models.PortfolioModel(w)


@pytest.mark.parametrize("field,value", [("q", math.nan), ("q", math.inf), ("q", 0.0),
                                         ("c", math.nan), ("c", math.inf)])
def test_dwd_rejects_a_nonfinite_power_or_slack_cost(field, value):
    kw = dict(a=np.eye(2), y=np.ones(2), c=np.zeros(2), q=1.0, gammas=(1e-5, 1e-5, 1e-7))
    kw[field] = value if field == "q" else np.array([0.0, value])
    with pytest.raises(ParameterError, match="finite q > 0" if field == "q" else "c must be finite"):
        models.DwdModel(**kw)


@pytest.mark.parametrize("make", [
    lambda: unit_row_logistic(),
    lambda: models.PortfolioModel(bench_io.gen_portfolio(30, 6, seed=3)),
    lambda: models.dwd_as_glm(models.DwdModel(
        a=bench_io.gen_logistic(15, 4, seed=8)[0], y=bench_io.gen_logistic(15, 4, seed=8)[1],
        c=np.full(15, 0.01), q=1.0, gammas=(1e-4, 1e-4, 1e-5))),
])
def test_gradient_matches_finite_differences(make):
    model = make()
    rng = np.random.default_rng(4)
    for _ in range(50):
        if isinstance(model, models.PortfolioModel):
            x = np.abs(rng.normal(size=model.dim)) + 0.1
        elif model.atom.domain[0] == 0.0:
            # keep all margins positive for inverse-power atoms
            x = np.concatenate([np.zeros(model.dim - 15), np.ones(15)]) \
                + 0.01 * rng.normal(size=model.dim)
        else:
            x = 0.4 * rng.normal(size=model.dim)
        g = model.grad(x)
        fd = np.empty_like(x)
        h = 1e-6
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (model.value(x + e) - model.value(x - e)) / (2.0 * h)
        assert np.max(np.abs(fd - g)) <= 1e-6 * (1.0 + np.max(np.abs(g)))


def test_hvp_matches_dense_hessian():
    for model in (unit_row_logistic(), models.PortfolioModel(bench_io.gen_portfolio(30, 6, seed=3))):
        rng = np.random.default_rng(5)
        x = np.abs(rng.normal(size=model.dim)) + 0.2
        hmat = model.hessian(x)
        for _ in range(10):
            v = rng.normal(size=model.dim)
            assert np.max(np.abs(hmat @ v - model.hvp(x, v))) <= 1e-10 * (1 + np.abs(hmat @ v).max())


def test_sparse_rows_agree_with_dense():
    gm = unit_row_logistic()
    gs = models.GlmModel(sp.csr_matrix(gm.a), atoms.logistic(), q_diag=1e-5)
    x = np.linspace(-0.3, 0.3, gm.dim)
    assert gs.value(x) == pytest.approx(gm.value(x), rel=1e-14)
    assert np.allclose(gs.grad(x), gm.grad(x))
    assert np.allclose(gs.hessian(x), gm.hessian(x))
    assert np.allclose(gs.hvp(x, x), gm.hvp(x, x))


def test_dense_hessian_cutoff():
    gm = models.GlmModel(np.ones((3, 4)), atoms.logistic(), p_dense=3)
    assert not gm.has_dense_hessian
    with pytest.raises(ParameterError):
        gm.hessian(np.zeros(4))
    gm.hvp(np.zeros(4), np.ones(4))


def test_domain_error_reports_row():
    pm = models.PortfolioModel(np.array([[1.0, 1.0], [1.0, 2.0]]))
    # every oracle at the point raises, however often it is asked
    for oracle in (pm.value, pm.grad, pm.hessian, pm.check_domain, pm.value):
        with pytest.raises(DomainError) as err:
            oracle(np.array([-1.0, 0.5]))
        assert err.value.row == 0
    assert not pm.feasible(np.array([-1.0, 0.5])) and pm.feasible(np.array([0.5, 0.5]))
    glm = models.GlmModel(np.array([[1.0], [-1.0]]), atoms.log_barrier(), b=np.array([1.0, 1.0]))
    with pytest.raises(DomainError) as err:
        glm.value(np.array([2.0]))  # second margin 1 - 2 < 0
    assert err.value.row == 1
    # NaN is outside every domain: the oracles and feasible agree on it
    with pytest.raises(DomainError) as err:
        pm.check_domain(np.array([math.nan, 0.5]))
    assert err.value.row == 0 and not pm.feasible(np.array([math.nan, 0.5]))
    with pytest.raises(DomainError) as err:
        glm.value(np.array([math.nan]))
    assert err.value.row == 0 and not glm.feasible(np.array([math.nan]))
    with pytest.raises(DomainError):
        atoms.atom_eval(atoms.log_barrier(), math.nan)


def test_glm_gsc_params_native_and_forced():
    gm = unit_row_logistic()
    native = models.glm_gsc_params(gm, "native")
    assert native.nu == 2.0 and native.m == pytest.approx(1.0, rel=1e-12)
    forced = models.glm_gsc_params(gm, 3)
    assert forced.nu == 3.0
    assert forced.m == pytest.approx(1.0 / math.sqrt(1e-5), rel=1e-10)
    with pytest.raises(ParameterError):
        models.glm_gsc_params(models.GlmModel(gm.a, atoms.logistic(), q_diag=0.0), 3)
    # nu = 2 via Lipschitz reparam is the identity for logistic
    assert models.glm_gsc_params(gm, 2).m == pytest.approx(native.m)
    # atoms with nu outside [2, 3] are rejected by the finite-sum construction
    with pytest.raises(ParameterError):
        models.glm_gsc_params(models.GlmModel(gm.a, atoms.entropy(), b=np.full(gm.n, 5.0)), "native")
    for target in (None, "2", "3"):
        with pytest.raises(ParameterError):
            models.glm_gsc_params(gm, target)


def test_force_2_reparametrizes_a_bounded_curvature_atom():
    # smoothed_l1 "sqrt" has nu = 8/3 and phi'' <= 1/gamma: forcing nu = 2 goes through
    # the Lipschitz-gradient reparametrization with the model's own L
    glm = _smoothed_l1_sqrt()
    native = models.glm_gsc_params(glm, "native")
    assert native.nu == 8.0 / 3.0
    _, lips = glm.smoothness_bounds()
    assert models.glm_gsc_params(glm, 2) == kernel.reparam(native, "lipschitz_gradient", lips)
    res = minimize(glm, np.zeros(glm.dim), SolveOptions(nu_choice="force_2", record_time=False))
    assert res.status == "converged" and res.trace[-1].lam <= 1e-8


@pytest.mark.parametrize("sparse", [False, True])
def test_dwd_as_glm_refuses_labels_not_matching_the_rows(sparse):
    # a block is filled, never broadcast: one label per row of A
    for rows, labels in [(3, 1), (1, 3), (3, 4)]:
        a = np.ones((rows, 2))
        dwd = models.DwdModel(a=sp.csr_matrix(a) if sparse else a, y=np.ones(labels),
                              c=np.zeros(labels), q=1.0, gammas=(1e-5, 1e-5, 1e-7))
        with pytest.raises(ParameterError, match="one row per label"):
            models.dwd_as_glm(dwd)
    with pytest.raises(ParameterError, match="one row per label"):
        models.dwd_as_glm(models.DwdModel(a=np.ones(3), y=np.ones(3), c=np.zeros(3), q=1.0,
                                          gammas=(1e-5, 1e-5, 1e-7)))


def test_dwd_as_glm_construction():
    a = np.array([[1.0]])
    dwd = models.DwdModel(a=a, y=np.array([1.0]), c=np.array([0.0]), q=1.0,
                          gammas=(1e-5, 1e-5, 1e-7))
    glm = models.dwd_as_glm(dwd)
    assert np.allclose(np.asarray(glm.a), [[1.0, 1.0, 1.0]])
    assert glm.row_norms[0] == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert glm.lambda_min_q() == pytest.approx(1e-7)
    p = models.glm_gsc_params(glm, "native")
    assert p.nu == pytest.approx(8.0 / 3.0)
    # n = 1, unit-ish row: M = M_phi ||row||^(q/(q+2)) = (3/2^(1/3)) 3^(1/6)
    assert p.m == pytest.approx((3.0 / 2.0 ** (1 / 3)) * math.sqrt(3.0) ** (1 / 3), rel=1e-12)


def test_dwd_matches_closed_form_constant():
    # the native construction reproduces the closed-form DWD constant
    # M = (q+2)/(q(q+1))^(1/(q+2)) n^(1/(q+2)) max ||(a_i, y_i, e_i)||^(q/(q+2))
    a, labels = bench_io.gen_logistic(12, 3, seed=21)
    for q in (1.0, 2.0):
        dwd = models.DwdModel(a=a, y=labels, c=np.zeros(12), q=q, gammas=(1e-5, 1e-5, 1e-7))
        glm = models.dwd_as_glm(dwd)
        got = models.glm_gsc_params(glm, "native")
        mphi = (q + 2.0) / (q * (q + 1.0)) ** (1.0 / (q + 2.0))
        want = mphi * 12.0 ** (1.0 / (q + 2.0)) * np.max(glm.row_norms ** (q / (q + 2.0)))
        assert got.m == pytest.approx(want, rel=1e-12)
        assert got.nu == pytest.approx(2.0 * (q + 3.0) / (q + 2.0))


def _design(kind, a):
    if kind == "csr":
        return sp.csr_matrix(np.where(np.abs(a) > 0.5, a, 0.0))
    if kind == "slack":
        return models.SlackDesign(a)
    return a


@pytest.mark.parametrize("kind", ["dense", "csr", "slack"])
@pytest.mark.parametrize("atom", [atoms.logistic(), atoms.neg_power(1.0), atoms.log_barrier()],
                         ids=["nu2", "nu8_3", "nu3"])
def test_native_certificate_matches_a_per_row_reference(kind, atom):
    # M = max_i w_i^(1-nu/2) M_phi ||a_i||^(3-nu), one row at a time in math.pow
    rng = np.random.default_rng(31)
    a = rng.normal(size=(60, 7)) * rng.uniform(0.1, 10.0, size=(60, 1))
    w = rng.uniform(0.5, 2.0, size=60)
    glm = models.GlmModel(_design(kind, a), atom, weights=w)
    rows = np.asarray(glm.a.toarray() if sp.issparse(glm.a) else glm.a)
    nu, m_phi = atom.params.nu, atom.params.m
    want = max(math.pow(wi, 1.0 - nu / 2.0)
               * (m_phi * math.pow(math.sqrt(math.fsum(v * v for v in row)), 3.0 - nu))
               for row, wi in zip(rows.tolist(), w.tolist()))
    got = models.glm_gsc_params(glm, "native")
    assert got.nu == nu
    assert abs(got.m - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("kind", ["dense", "csr", "slack"])
def test_row_norms_match_numpy_norm(kind):
    a = np.random.default_rng(32).normal(size=(80, 9))
    design = _design(kind, a)
    dense = np.asarray(design.toarray() if sp.issparse(design) else design)
    want = np.linalg.norm(dense, axis=1)
    assert np.allclose(models._row_norms(design), want, rtol=1e-15, atol=0.0)


def test_sparse_row_sq_norms_with_empty_rows_and_duplicates():
    a = sp.random(300, 40, density=0.05, format="csr", random_state=34)
    a.data = np.random.default_rng(34).normal(size=a.nnz)
    assert (np.diff(a.indptr) == 0).any()
    dense = a.toarray()
    assert np.array_equal(models.row_sq_norms(a), np.asarray(a.multiply(a).sum(axis=1)).ravel())
    assert np.allclose(models.row_sq_norms(a), (dense**2).sum(axis=1), rtol=1e-14, atol=0.0)
    # duplicates are summed before squaring: row 0 is (1 + 2)^2 + 0.5^2
    dup = sp.csr_matrix((np.array([1.0, 0.5, 2.0, 3.0]), np.array([2, 1, 2, 0]), np.array([0, 3, 3, 4])),
                        shape=(3, 4))
    data = dup.data.copy()
    assert np.array_equal(models.row_sq_norms(dup), [9.25, 0.0, 9.0])
    assert np.array_equal(dup.data, data)  # canonicalized on a copy
    assert np.array_equal(models.row_sq_norms(sp.csr_matrix((2, 3))), [0.0, 0.0])


def test_dense_build_makes_no_design_sized_temporary():
    a = np.random.default_rng(33).normal(size=(2000, 400))
    tracemalloc.start()
    try:
        models.GlmModel(a, atoms.logistic(), q_diag=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * a.nbytes


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_dwd_slack_hessian_matches_dense(sparse, q):
    a, labels = bench_io.gen_logistic(40, 6, seed=12)
    if sparse:
        a = sp.csr_matrix(np.where(np.abs(a) > 0.3, a, 0.0))
    glm = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.full(40, 0.01), q=q,
                                            gammas=(1e-4, 1e-3, 1e-5)))
    assert isinstance(glm.a, models.SlackDesign) and sp.issparse(glm.a.block) == sparse
    # a dense block is held Fortran-ordered for the Schur complement's column scaling;
    # a sparse one stays CSR
    block = glm.a.block
    assert block.format == "csr" if sparse else block.flags.f_contiguous
    if not sparse:
        c_block = np.ascontiguousarray(block)
        held = models.SlackDesign(c_block).block
        assert held.flags.f_contiguous and np.array_equal(held, c_block)
    # the same GLM over the dense extended design [A y I_n]
    dense = models.GlmModel(np.asarray(glm.a), glm.atom, q_diag=glm.q_diag, c=glm.c)
    assert np.asarray(glm.a).shape == glm.a.shape == (40, 47)
    assert np.allclose(glm.row_norms, dense.row_norms, rtol=1e-15, atol=0.0)
    rng = np.random.default_rng(13)
    for _ in range(5):
        # xi in [1, 2] dominates |a_i' w + y_i mu|: an interior point
        x = np.concatenate([0.05 * rng.normal(size=7), 1.0 + rng.random(40)])
        u = rng.normal(size=40)
        assert np.allclose(glm.a @ x, dense.a @ x, rtol=1e-14)
        assert np.allclose(glm.a.T @ u, dense.a.T @ u, rtol=1e-14)
        g = glm.grad(x)
        assert glm.value(x) == pytest.approx(dense.value(x), rel=1e-14)
        assert np.allclose(g, dense.grad(x), rtol=1e-13, atol=1e-16)
        h = glm.hessian(x)
        assert isinstance(h, models.SlackHessian)
        hmat = np.asarray(h)
        scale = np.abs(hmat).max()
        assert np.abs(hmat - dense.hessian(x)).max() <= 1e-14 * scale
        v = rng.normal(size=glm.dim)
        assert np.abs(h @ v - glm.hvp(x, v)).max() <= 1e-13 * np.abs(hmat @ v).max()
        n, lam, _ = linops.newton_direction(linops.NewtonSystem(h, g))
        assert np.linalg.norm(hmat @ n + g) <= 1e-10 * np.linalg.norm(g)
        ref = linops.newton_direction(linops.NewtonSystem(hmat, g), method="cholesky")
        assert lam == pytest.approx(ref.lam, rel=1e-12)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_dwd_hessian_free_set_covering_it_is_the_whole_solve(sparse):
    # a free set that covers H is the whole H: solver(all) is solver() bit for bit,
    # also on the Fortran-ordered block the design holds, where a gathered B_F would
    # not give solver()'s rounding
    a, labels = bench_io.gen_logistic(30, 3, seed=6)
    if sparse:
        a = sp.csr_matrix(np.where(np.abs(a) > 0.3, a, 0.0))
    glm = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.full(30, 0.01), q=1.0,
                                            gammas=(1e-4, 1e-4, 1e-5)))
    rng = np.random.default_rng(6)
    x = np.concatenate([0.05 * rng.normal(size=4), 1.0 + rng.random(30)])
    h = glm.hessian(x)
    for _ in range(5):
        rhs = rng.normal(size=glm.dim)
        assert np.array_equal(h.solver(np.arange(glm.dim))(rhs), h.solver()(rhs))
        assert np.array_equal(linops._factor(h, np.arange(glm.dim))(rhs), h.solver()(rhs))


def test_dwd_newton_matrix_is_the_block_schur_complement():
    # n = 30 slack rows do not count against p_dense, the p + 1 = 4 block columns do
    a, labels = bench_io.gen_logistic(30, 3, seed=14)
    dwd = models.DwdModel(a=a, y=labels, c=np.zeros(30), q=1.0, gammas=(1e-4, 1e-4, 1e-5))
    x = np.concatenate([np.zeros(4), np.ones(30)])
    glm = models.dwd_as_glm(dwd, p_dense=4)
    assert glm.dim == 34 and glm.factor_dim == 4 and glm.has_dense_hessian
    assert isinstance(glm.hessian(x), models.SlackHessian)
    small = models.dwd_as_glm(dwd, p_dense=3)
    assert not small.has_dense_hessian
    with pytest.raises(ParameterError):
        small.hessian(x)


def test_bound_suite_logistic_and_portfolio():
    a, labels = bench_io.gen_logistic(20, 5, seed=31)
    logi = models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=1e-3)
    assert bound_suite_violations(logi, 60, seed=15) == 0
    port = models.PortfolioModel(bench_io.gen_portfolio(20, 5, seed=9))
    assert bound_suite_violations(port, 60, seed=16, base_point=np.full(5, 0.2)) == 0


def test_directional_third_derivative_certificate():
    # |<D^3 f(x)[v] u, u>| <= M ||u||_x^2 ||v||_x^(nu-2) ||v||_2^(3-nu) (1 + 1e-4)
    rng = np.random.default_rng(77)
    cases = [
        unit_row_logistic(n=25, p=5, seed=2, gamma=1e-3),
        models.PortfolioModel(bench_io.gen_portfolio(25, 5, seed=4)),
    ]
    for model in cases:
        m, nu = model.params.m, model.params.nu
        for _ in range(100):
            if isinstance(model, models.PortfolioModel):
                x = np.abs(rng.normal(size=model.dim)) + 0.3
            else:
                x = 0.5 * rng.normal(size=model.dim)
            u = rng.normal(size=model.dim)
            v = rng.normal(size=model.dim)
            third = models.third_directional(model, x, v, u)
            hmat = model.hessian(x)
            nu_x = math.sqrt(u @ hmat @ u)
            nv_x = math.sqrt(v @ hmat @ v)
            bound = m * nu_x**2 * nv_x ** (nu - 2.0) * np.linalg.norm(v) ** (3.0 - nu)
            assert abs(third) <= bound * (1.0 + 1e-4) + 1e-9


def test_smoothness_bounds():
    gm = unit_row_logistic()
    mu, lips = gm.smoothness_bounds()
    assert mu == pytest.approx(1e-5)
    hess_eigs = np.linalg.eigvalsh(gm.hessian(np.zeros(gm.dim)))
    assert lips >= hess_eigs[-1] * (1.0 - 1e-3)
    # A' W A = [[2, -2], [-2, 2]]: its top eigenvector is orthogonal to all-ones,
    # and L must not undershoot phi''_max * 4 + q
    anti = models.GlmModel(np.array([[1.0, -1.0], [-1.0, 1.0], [2.0, -2.0]]),
                           atoms.logistic(), q_diag=1e-3)
    assert anti.smoothness_bounds()[1] >= 0.25 * 4.0 + 1e-3
    bar = models.GlmModel(gm.a, atoms.log_barrier(), b=np.full(gm.n, 10.0))
    assert math.isinf(bar.smoothness_bounds()[1])


# -- one margin evaluation per point --------------------------------------------

class CountingDesign(models.SlackDesign):
    """The slack design [B, I_n], counting its forward (A @ v) and transposed (A.T @ u) products."""

    def __init__(self, block):
        super().__init__(block)
        self.forward = self.transposed = 0

    def __matmul__(self, x):
        self.forward += 1
        return super().__matmul__(x)

    @property
    def T(self):
        return _CountingTranspose(self, super().T)


class _CountingTranspose:
    def __init__(self, design, op):
        self.design, self.op = design, op

    def __matmul__(self, u):
        self.design.transposed += 1
        return self.op @ u


class PointLog:
    """Delegating model proxy: logs (oracle, x bytes) and the design products each call made."""

    ORACLE = ("value", "grad", "hessian", "hvp", "feasible", "check_domain")

    def __init__(self, model):
        self._model = model
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self._model, name)
        if name not in self.ORACLE:
            return attr
        design = self._model.a

        def call(x, *rest):
            before = design.forward, design.transposed
            out = attr(x, *rest)
            self.calls.append((name, np.asarray(x, dtype=float).tobytes(),
                               design.forward - before[0], design.transposed - before[1]))
            return out
        return call

    def points(self):
        """Distinct points among the calls that read margins."""
        return {key for name, key, _, _ in self.calls
                if name != "check_domain" or self._model.atom.bounded}

    def count(self, name):
        return sum(c[0] == name for c in self.calls)


def counting_logistic(n=60, p=4, seed=21, p_dense=models.P_DENSE_DEFAULT):
    a, labels = bench_io.gen_logistic(n, p, seed=seed)
    return models.GlmModel(CountingDesign(a * labels[:, None]), atoms.logistic(),
                           q_diag=1e-3, p_dense=p_dense)


def test_quasi_newton_forms_each_margin_once():
    model = counting_logistic()
    log = PointLog(model)
    res = minimize_qn(log, np.zeros(model.dim), SolveOptions(eps=1e-8, record_time=False))
    assert res.status == "converged" and res.iterations > 5
    # every Armijo search accepted its first trial: one value per step
    assert log.count("value") == log.count("grad") == res.iterations + 1
    assert model.a.forward == len(log.points()) == res.iterations + 1
    assert model.a.transposed == log.count("grad")


def test_cg_hvp_makes_one_product_each_way():
    model = counting_logistic(p_dense=0)
    log = PointLog(model)
    res = minimize(log, np.zeros(model.dim), SolveOptions(record_time=False))
    assert res.status == "converged" and not model.has_dense_hessian
    hvps = [c for c in log.calls if c[0] == "hvp"]
    assert hvps and all(c[2:] == (1, 1) for c in hvps)
    # and step_beta's one A n per iterate
    assert model.a.forward == len(log.points()) + len(hvps) + len(res.trace)


def test_dwd_newton_forms_each_margin_once():
    a, labels = bench_io.gen_logistic(40, 5, seed=8)
    dwd = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.zeros(40), q=1.0,
                                            gammas=(1e-4, 1e-4, 1e-5)))
    model = models.GlmModel(CountingDesign(dwd.a.block), dwd.atom, q_diag=dwd.q_diag, c=dwd.c)
    log = PointLog(model)
    res = minimize(log, np.concatenate([np.zeros(6), np.ones(40)]), SolveOptions(record_time=False))
    assert res.status == "converged" and res.iterations > 5
    # check_domain, value, grad, hessian and feasible all read one margin evaluation,
    # and step_beta makes one product A n per iterate
    assert model.a.forward == len(log.points()) + len(res.trace)
    assert model.a.transposed == log.count("grad")
    # the domain guard took no halving: one point per iterate
    assert log.count("feasible") == res.iterations
    assert model.a.forward == 2 * (res.iterations + 1)


def _point_models():
    a, labels = bench_io.gen_logistic(15, 4, seed=8)
    dwd = models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.full(15, 0.01), q=1.0,
                                            gammas=(1e-4, 1e-4, 1e-5)))
    port = bench_io.gen_portfolio(30, 6, seed=3)
    return [
        (unit_row_logistic, np.linspace(-0.3, 0.3, 6)),
        (lambda: models.PortfolioModel(port), np.full(6, 1.0 / 6.0)),
        (lambda: models.PortfolioModel(port, p_dense=0), np.full(6, 1.0 / 6.0)),
        (lambda: models.GlmModel(dwd.a, dwd.atom, q_diag=dwd.q_diag, c=dwd.c),
         np.concatenate([np.zeros(5), np.ones(15)])),
    ]


def _oracles(model, x, v):
    h = model.hessian(x) if model.has_dense_hessian else None
    return (model.value(x), model.grad(x), model.hvp(x, v),
            None if h is None else np.asarray(h), model.feasible(x))


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.array_equal(g, w)


@pytest.mark.parametrize("make,x0", _point_models())
def test_mutating_x_in_place_misses_the_record(make, x0):
    model, fresh = make(), make()
    x = x0.copy()
    v = np.linspace(1.0, 2.0, x.size)
    model.value(x)
    model.grad(x)
    x[0] += 1e-3      # the same array, now another point
    _assert_same(_oracles(model, x, v), _oracles(fresh, x.copy(), v))


@pytest.mark.parametrize("make,x0", _point_models())
def test_returned_arrays_cannot_corrupt_the_record(make, x0):
    model = make()
    v = np.linspace(1.0, 2.0, x0.size)
    want = _oracles(make(), x0, v)
    g, hv = model.grad(x0), model.hvp(x0, v)
    g[:] = 0.0
    hv[:] = 0.0
    if model.has_dense_hessian:
        h = model.hessian(x0)
        if isinstance(h, models.SlackHessian):
            with pytest.raises(ValueError):   # its curvatures are the record's, read-only
                h.d[0] = 0.0
        else:
            h[:] = 0.0
    _assert_same(_oracles(model, x0, v), want)


def test_record_key_is_the_bytes_of_x():
    # -0.0 == 0.0, but their bytes differ: two points, two margin evaluations
    model = counting_logistic()
    zero = np.zeros(model.dim)
    assert model.value(zero) == model.value(-zero)
    assert model.a.forward == 2
    model.grad(-zero)
    model.hvp(-zero, zero)
    assert model.a.forward == 3      # the hvp's own product A v


def _l1_logistic():
    a, labels = bench_io.gen_logistic(200, 50, seed=23)
    return models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=1e-4)


def _dwd_500x50():
    a, labels = bench_io.gen_logistic(500, 50, seed=0)
    return models.dwd_as_glm(models.DwdModel(a=a, y=labels, c=np.zeros(500), q=1.0,
                                             gammas=(1e-5, 1e-5, 1e-7)))


L1 = ProxSpec("l1", weight=1e-3)
OPTS = SolveOptions(eps=1e-8, record_time=False)


@pytest.mark.parametrize("make,solve,count", [
    (lambda: models.PortfolioModel(bench_io.gen_portfolio(1000, 5, seed=0)),
     lambda m: minimize_composite(CompositeProblem(m, ProxSpec("simplex"), np.full(5, 0.2)),
                                  OPTS), 6),
    (_l1_logistic, lambda m: minimize_composite(CompositeProblem(m, L1, np.zeros(50)), OPTS), 11),
    (_l1_logistic, lambda m: bench_io.pg_bb(m, L1, np.zeros(50), eps=1e-8), 36),
    (_dwd_500x50, lambda m: minimize(m, np.concatenate([np.zeros(51), np.ones(500)]), OPTS), 48),
], ids=["portfolio-prox-newton", "l1-prox-newton", "l1-pg-bb", "dwd-newton"])
def test_margin_evaluations_per_solve(make, solve, count):
    # check_domain and feasible read the record the next value call reuses:
    # a solve forms its margins once per point it visits
    model = make()
    calls = []
    margins = model._z
    model._z = lambda x: calls.append(x) or margins(x)
    solve(model)
    assert len(calls) == count


# -- the step constant along the step itself (GlmModel.step_beta) ------------------

class StepLog:
    """Logs each point a model's grad sees and each step_beta call's (params, beta, n),
    through its instance's attributes: the model keeps its class, so force_3 still
    resolves.  A model without step_beta logs none."""

    def __init__(self, model):
        self.points, self.betas = [], []
        grad = model.grad
        model.grad = lambda x: self.points.append(np.array(x)) or grad(x)
        step_beta = getattr(model, "step_beta", None)
        if step_beta is not None:
            def logged(params, n):
                beta = step_beta(params, n)
                self.betas.append((params, beta, n.copy()))
                return beta
            model.step_beta = logged


def _k_n(model, n):
    """K_n = M_phi max_i w_i^(1-nu/2) |a_i' n|^(3-nu), from its definition."""
    nu = model.params.nu
    s = np.abs(model.a @ n)
    return model.atom.params.m * float(np.max(model.w ** (1.0 - nu / 2.0) * s ** (3.0 - nu)))


@pytest.mark.parametrize("make,x0", [
    (lambda: _dwd_500x50(), np.concatenate([np.zeros(51), np.ones(500)])),
    (lambda: unit_row_logistic(n=200, p=10, seed=4), np.zeros(10)),
], ids=["dwd", "logistic"])
def test_third_derivative_along_the_step_is_within_k_n(make, x0):
    # |D^3 f(y)[n, n, n]| <= K_n (n' H(y) n)^(nu/2) at 5 points of the first damped step
    model = make()
    m, nu = model.params.m, model.params.nu
    d = linops.newton_direction(linops.NewtonSystem(model.hessian(x0), model.grad(x0)))
    beta = model.step_beta(model.params, d.n)
    k_n = _k_n(model, d.n)
    assert m ** (nu - 2.0) * beta ** (3.0 - nu) == pytest.approx(k_n, rel=1e-12)
    tau, _ = kernel.step_size(nu, m, d.lam, beta)
    assert tau < 1.0
    for t in np.linspace(0.0, tau, 5):
        y = x0 + t * d.n
        third = models.third_directional(model, y, d.n, d.n)
        psi = float(d.n @ model.hvp(y, d.n))
        assert abs(third) <= k_n * psi ** (nu / 2.0) * (1.0 + 1e-4) + 1e-9


def _l1_logistic_composite(model):
    return minimize_composite(CompositeProblem(model, L1, np.zeros(model.dim)), OPTS)


@pytest.mark.parametrize("make,solve", [
    (_dwd_500x50, lambda m: minimize(m, np.concatenate([np.zeros(51), np.ones(500)]), OPTS)),
    (lambda: unit_row_logistic(n=200, p=10, seed=4), lambda m: minimize(m, np.zeros(10), OPTS)),
    (_l1_logistic, _l1_logistic_composite),
], ids=["dwd-newton", "logistic-newton", "l1-prox-newton"])
def test_step_beta_never_exceeds_m_norm_n(make, solve):
    model = make()
    log = StepLog(model)
    res = solve(model)
    assert res.status == "converged"
    # one step_beta per iterate, and the trace records what it returned
    assert [b for _, b, _ in log.betas] == [r.beta for r in res.trace]
    m_phi = model.atom.params.m
    for params, beta, n in log.betas:
        assert params == model.params
        assert beta <= params.m * math.sqrt(float(n @ n))
        if params.nu == 2.0:
            assert beta == m_phi * float(np.max(np.abs(model.a @ n)))
    assert res.extra["certificate"]["violations"] == 0


def _forced(nu_choice):
    return lambda model: minimize(model, np.zeros(model.dim),
                                  SolveOptions(nu_choice=nu_choice, eps=1e-8, record_time=False))


def _smoothed_l1_sqrt():
    a, labels = bench_io.gen_logistic(80, 6, seed=4)
    return models.GlmModel(a, atoms.smoothed_l1(0.5, "sqrt"), b=-labels, q_diag=1e-3)


def _portfolio_simplex(model):
    return minimize_composite(CompositeProblem(model, ProxSpec("simplex"), np.full(5, 0.2)), OPTS)


@pytest.mark.parametrize("make,solve", [
    (lambda: unit_row_logistic(n=200, p=10, seed=4, gamma=1e-3), _forced("force_3")),
    (_smoothed_l1_sqrt, _forced("force_2")),
    (lambda: unit_row_logistic(n=200, p=10, seed=4), lambda m: minimize_qn(m, np.zeros(10), OPTS)),
    (lambda: models.PortfolioModel(bench_io.gen_portfolio(1000, 5, seed=0)), _portfolio_simplex),
], ids=["force_3", "force_2", "bfgs", "portfolio"])
def test_other_steps_keep_m_norm_n(make, solve):
    # beta = m ||n||_2, read back from the iterates: n = (x_k+1 - x_k) / tau_k
    model = make()
    log = StepLog(model)
    res = solve(model)
    assert res.status == "converged"
    m = res.params.m
    checked = 0
    for k, rec in enumerate(res.trace[:-1]):
        step = np.linalg.norm(log.points[k + 1] - log.points[k])
        if step >= 1e-6 * (1.0 + np.linalg.norm(log.points[k])):
            assert rec.beta == pytest.approx(m * step / rec.tau, rel=1e-8)
            checked += 1
    assert checked >= 2
    # a reclassified certificate asks the model, which answers m ||n||_2; BFGS never asks
    for params, beta, n in log.betas:
        assert params != model.params and beta == params.m * math.sqrt(float(n @ n))
    assert len(log.betas) == (len(res.trace) if res.params != model.params else 0)
