"""Newton-system solves, local norms, and eigenvalue estimates."""

import math
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from gscopt import linops, prox
from gscopt.errors import ConvergenceError, NotPositiveDefiniteError, ParameterError
from gscopt.linops import NewtonSystem, SlackHessian, newton_direction
from gscopt.prox import ProxSpec, scaled_prox_subproblem


def slack_hessian(n=30, m=4, seed=6, sparse=False, q_block=1e-3, order="C"):
    """A random SlackHessian with curvatures d in (0.1, 2) and small diagonal regularizers;
    a dense block is laid out in order ("C" or "F")."""
    rng = np.random.default_rng(seed)
    block = np.asarray(rng.normal(size=(n, m)), order=order)
    if sparse:
        block = sp.csr_matrix(np.where(np.abs(block) > 0.7, block, 0.0))
    return SlackHessian(block, 0.1 + 1.9 * rng.random(n), np.full(m, q_block),
                        np.full(n, 1e-4))


def test_hand_solves():
    n, lam, _ = newton_direction(NewtonSystem(np.diag([4.0, 1.0]), np.array([2.0, 1.0])))
    assert np.allclose(n, [-0.5, -1.0])
    assert lam == pytest.approx(math.sqrt(2.0), rel=1e-14)
    n, lam, _ = newton_direction(NewtonSystem(np.eye(2), np.zeros(2)))
    assert np.allclose(n, 0.0) and lam == 0.0
    n, lam, _ = newton_direction(NewtonSystem(np.eye(2), np.array([3.0, 4.0])))
    assert np.allclose(n, [-3.0, -4.0]) and lam == pytest.approx(5.0)


def test_cholesky_vs_cg():
    rng = np.random.default_rng(0)
    for p in (5, 50, 200):
        base = rng.normal(size=(p, p))
        h = base @ base.T + np.eye(p)
        g = rng.normal(size=p)
        chol = newton_direction(NewtonSystem(h, g), method="cholesky")
        cg = newton_direction(NewtonSystem(lambda v, h=h: h @ v, g),
                              method="cg", tol=1e-12, max_iter=50 * p)
        assert np.linalg.norm(chol.n - cg.n) <= 1e-8 * (1.0 + np.linalg.norm(chol.n))
        assert cg.lam == pytest.approx(chol.lam, rel=1e-8)


def test_cg_warm_start_converges_faster():
    rng = np.random.default_rng(1)
    p = 80
    base = rng.normal(size=(p, p))
    h = base @ base.T + 5.0 * np.eye(p)
    g = rng.normal(size=p)
    cold = newton_direction(NewtonSystem(h, g), method="cg", tol=1e-10)
    warm = newton_direction(NewtonSystem(h, g * 1.0001), method="cg", tol=1e-10,
                            warm_start=cold.n)
    assert warm.iterations <= cold.iterations


def test_not_positive_definite():
    with pytest.raises(NotPositiveDefiniteError):
        newton_direction(NewtonSystem(np.diag([1.0, -1.0]), np.ones(2)), method="cholesky")
    with pytest.raises(NotPositiveDefiniteError):
        newton_direction(NewtonSystem(np.diag([1.0, -1.0]), np.ones(2)), method="cg")


def test_cg_budget_error_carries_residual():
    rng = np.random.default_rng(2)
    p = 60
    base = rng.normal(size=(p, p))
    h = base @ base.T + 1e-6 * np.eye(p)  # ill-conditioned
    g = rng.normal(size=p)
    with pytest.raises(ConvergenceError) as err:
        newton_direction(NewtonSystem(h, g), method="cg", tol=1e-14, max_iter=2)
    assert err.value.residual is not None and err.value.residual > 0.0


def test_nonfinite_gradient_rejected():
    with pytest.raises(ParameterError):
        newton_direction(NewtonSystem(np.eye(2), np.array([np.nan, 0.0])))


def test_decrement_permutation_invariance():
    rng = np.random.default_rng(3)
    p = 12
    base = rng.normal(size=(p, p))
    h = base @ base.T + np.eye(p)
    g = rng.normal(size=p)
    lam = newton_direction(NewtonSystem(h, g)).lam
    perm = rng.permutation(p)
    hp = h[np.ix_(perm, perm)]
    gp = g[perm]
    lam_p = newton_direction(NewtonSystem(hp, gp)).lam
    assert lam_p == pytest.approx(lam, rel=1e-12)


def test_local_norm():
    assert linops.local_norm(np.diag([4.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(
        math.sqrt(5.0))
    v = np.array([0.3, -0.7, 1.1])
    assert linops.local_norm(np.eye(3), v) == pytest.approx(np.linalg.norm(v))
    assert linops.local_norm(np.eye(3), np.zeros(3)) == 0.0
    with pytest.raises(NotPositiveDefiniteError):
        linops.local_norm(np.diag([1.0, -1.0]), np.array([0.0, 1.0]))


def test_largest_eigenvalue():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    h = q @ np.diag([11.0, 4.0, 3.0, 2.0, 1.0]) @ q.T
    assert linops.largest_eigenvalue(h, tol=1e-8) == pytest.approx(11.0, rel=1e-4)
    assert linops.largest_eigenvalue(lambda v: h @ v, dim=5, tol=1e-8) == pytest.approx(
        11.0, rel=1e-4)
    # the top eigenvector [1, -1] is orthogonal to the all-ones vector
    h = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert linops.largest_eigenvalue(h) == pytest.approx(3.0, rel=1e-3)
    assert linops.largest_eigenvalue(lambda v: h @ v, dim=2) == pytest.approx(3.0, rel=1e-3)


def test_largest_eigenvalue_one_product_per_iteration():
    diag = 1.0 + np.arange(50.0)
    calls = [0]

    def matvec(v):
        calls[0] += 1
        return diag * v

    # reference: the power iteration with a separate Rayleigh product
    v = 1.0 + np.modf(0.5 * (math.sqrt(5.0) - 1.0) * np.arange(50))[0]
    lam, iterations = 0.0, 0
    for iterations in range(1, 1001):
        w = diag * v
        v = w / np.linalg.norm(w)
        lam_new = float(v @ (diag * v))
        if abs(lam_new - lam) <= 1e-3 * max(1.0, abs(lam_new)):
            break
        lam = lam_new
    assert linops.largest_eigenvalue(matvec, dim=50) == lam_new
    assert calls[0] == iterations + 1


@pytest.mark.parametrize("sparse", [False, True])
def test_slack_hessian_operations_match_dense(sparse):
    h = slack_hessian(sparse=sparse)
    hmat = np.asarray(h)
    assert hmat.shape == h.shape == (34, 34)
    assert np.allclose(hmat, hmat.T, rtol=0.0, atol=1e-14 * np.abs(hmat).max())
    rng = np.random.default_rng(7)
    v = rng.normal(size=34)
    assert np.allclose(h @ v, hmat @ v, rtol=0.0, atol=1e-13 * np.abs(hmat @ v).max())
    assert linops.local_norm(h, v) == pytest.approx(math.sqrt(v @ hmat @ v), rel=1e-13)
    assert linops.largest_eigenvalue(h, tol=1e-10) == pytest.approx(
        np.linalg.eigvalsh(hmat)[-1], rel=1e-6)
    g = rng.normal(size=34)
    for method in ("auto", "cholesky"):
        n, lam, _ = newton_direction(NewtonSystem(h, g), method=method)
        assert np.linalg.norm(hmat @ n + g) <= 1e-10 * np.linalg.norm(g)
        assert lam == pytest.approx(newton_direction(NewtonSystem(hmat, g)).lam, rel=1e-12)
    cg = newton_direction(NewtonSystem(h, g), method="cg")
    assert np.linalg.norm(hmat @ cg.n + g) <= 1e-8 * np.linalg.norm(g)


def test_slack_hessian_not_positive_definite():
    # a negative q_block makes the Schur complement, and so H, indefinite
    h = slack_hessian(q_block=-50.0)
    assert np.linalg.eigvalsh(np.asarray(h))[0] < 0.0
    g = np.ones(h.shape[0])
    with pytest.raises(NotPositiveDefiniteError):
        newton_direction(NewtonSystem(h, g))
    with pytest.raises(NotPositiveDefiniteError):
        newton_direction(NewtonSystem(h, g), method="cholesky")
    # a nonpositive slack diagonal d + q_slack
    bad = SlackHessian(np.ones((2, 1)), np.array([1.0, 0.0]), np.ones(1), np.zeros(2))
    with pytest.raises(NotPositiveDefiniteError):
        newton_direction(NewtonSystem(bad, np.ones(3)))


def _spd(rng, p):
    base = rng.normal(size=(p + 3, p))
    return base.T @ base + 1e-3 * np.eye(p)


def _layouts(rng, p):
    """An SPD matrix as C-ordered, Fortran-ordered, transposed and cut-out (copied) arrays."""
    h = _spd(rng, p)
    big = _spd(rng, 2 * p)
    keep = np.zeros(2 * p, dtype=bool)
    keep[rng.choice(2 * p, size=p, replace=False)] = True
    return {"c": h, "fortran": np.asfortranarray(h), "transposed": h.T,
            "strided": big[::2, ::2], "free-block": big[keep][:, keep]}


@pytest.mark.parametrize("p", [1, 5, 51, 300])
@pytest.mark.parametrize("whole", [True, False])
def test_cholesky_pair_matches_scipy(p, whole):
    # the lower-triangle LAPACK pair is scipy's, and a well-conditioned dense H goes
    # through the same factorization unshifted, whole or gathered as an all-free block
    rng = np.random.default_rng(p)
    rhs = rng.normal(size=p)
    for name, a in _layouts(rng, p).items():
        before = a.copy()
        factor = linops.cholesky(a)
        ref = scipy.linalg.cho_factor(a, lower=True)
        assert np.array_equal(factor, ref[0]), name
        solved = linops.cho_solve(factor, rhs)
        assert np.array_equal(solved, scipy.linalg.cho_solve(ref, rhs)), name
        solve = linops._factor(a) if whole else linops._factor(a, np.arange(p))
        assert np.array_equal(solve(rhs), solved), name
        assert np.array_equal(a, before), name


@pytest.mark.parametrize("fortran", [True, False])
def test_cholesky_names_the_failing_pivot(fortran):
    for a, pivot in [(np.diag([1.0, -1.0]), 2), (np.diag([0.0, 1.0]), 1),
                     (np.ones((3, 3)), 2)]:
        with pytest.raises(NotPositiveDefiniteError, match=f"failed at pivot {pivot}$"):
            linops.cholesky(np.asfortranarray(a) if fortran else a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cholesky_rejects_nonfinite(bad):
    for i, j in [(0, 0), (1, 0), (0, 1)]:
        a = np.eye(3)
        a[i, j] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            linops.cholesky(a)
        with pytest.raises(ValueError):
            linops.cholesky(a)


def _eliminate(h, schur, rhs):
    """H^-1 rhs by eliminating H's slack block around the Schur complement schur."""
    b, d, m = h.block, h.d, h.m
    s_diag = d + h.q_slack
    cho = scipy.linalg.cho_factor(schur, lower=True)
    r1, r2 = rhs[:m], rhs[m:]
    x1 = scipy.linalg.cho_solve(cho, r1 - b.T @ (d * r2 / s_diag))
    return np.concatenate([x1, (r2 - d * (b @ x1)) / s_diag])


@pytest.mark.parametrize("sparse,order", [(False, "C"), (False, "F"), (True, "C")],
                         ids=["C", "F", "sparse"])
def test_slack_hessian_solve_is_scipy_elimination_bit_for_bit(sparse, order):
    # the elimination written out with scipy's BLAS and Cholesky wrappers and numpy's
    # diagonal indexing: a dense B's Schur complement is one dsyrk lower triangle, the
    # same bit for bit whether B is C- or Fortran-ordered
    h = slack_hessian(sparse=sparse, order=order)
    b = h.block
    assert sparse or (b.flags.f_contiguous if order == "F" else b.flags.c_contiguous)
    w = h.d * h.q_slack / (h.d + h.q_slack)
    if sparse:
        schur = np.asarray(((b.multiply(w[:, None])).T @ b).todense())
    else:
        schur = scipy.linalg.blas.dsyrk(1.0, (np.sqrt(w)[:, None] * b).T, lower=1)
    schur[np.diag_indices_from(schur)] += h.q_block
    rhs = np.random.default_rng(8).normal(size=h.shape[0])
    assert np.array_equal(h.solver()(rhs), _eliminate(h, schur, rhs))


@pytest.mark.parametrize("m", [1, 4, 51])
def test_slack_hessian_schur_matches_the_full_gram_form(m):
    # the dsyrk triangle agrees with the full gemm B' (e B) + diag(q_block) to rounding
    h = slack_hessian(n=500, m=m, seed=m)
    b = h.block
    e = h.d * h.q_slack / (h.d + h.q_slack)
    rhs = np.random.default_rng(9).normal(size=h.shape[0])
    expected = _eliminate(h, b.T @ (e[:, None] * b) + np.diag(h.q_block), rhs)
    assert np.abs(h.solver()(rhs) - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("sparse", [False, True])
def test_slack_hessian_rejects_negative_slack_curvatures(sparse):
    for field in ("d", "q_slack"):
        h = slack_hessian(sparse=sparse)
        bad = getattr(h, field).copy()
        bad[3] = -1e-6
        setattr(h, field, bad)
        with pytest.raises(ParameterError, match="nonnegative"):
            h.solver()
        # a NaN is not negative: it fails the positivity of d + q_slack instead
        bad[3] = math.nan
        with pytest.raises(NotPositiveDefiniteError, match="not positive"):
            h.solver()
    # a negative entry is refused as such even next to a NaN
    h = slack_hessian(sparse=sparse)
    h.d = h.d.copy()
    h.d[[2, 3]] = [math.nan, -1e-6]
    with pytest.raises(ParameterError, match="nonnegative"):
        h.solver()


@pytest.mark.parametrize("make", [
    lambda matvec: scipy.sparse.linalg.LinearOperator((12, 12), matvec=matvec, dtype=float),
    lambda matvec: types.SimpleNamespace(shape=(12, 12), matvec=matvec),
], ids=["LinearOperator", "shape-and-matvec"])
def test_linear_operator_needs_no_dim(make):
    # an object with matvec and shape knows its order: every entry takes it as it
    # is, with the results of the bare callable given dim
    rng = np.random.default_rng(11)
    hmat = _spd(rng, 12)

    def matvec(v):
        return hmat @ v

    op = make(matvec)
    v, g, x = rng.normal(size=(3, 12))
    assert linops.largest_eigenvalue(op) == linops.largest_eigenvalue(matvec, dim=12)
    assert linops.local_norm(op, v) == linops.local_norm(matvec, v)
    assert np.array_equal(newton_direction(NewtonSystem(op, g)).n,
                          newton_direction(NewtonSystem(matvec, g)).n)
    spec = ProxSpec("l1", weight=0.1)
    assert np.array_equal(scaled_prox_subproblem(op, g, x, spec),
                          scaled_prox_subproblem(matvec, g, x, spec))
    # a bare callable has no order of its own, and an operator no factorization
    with pytest.raises(ParameterError, match="operator input needs dim"):
        linops.largest_eigenvalue(matvec)
    with pytest.raises(ParameterError, match="cholesky method needs a dense Hessian"):
        newton_direction(NewtonSystem(op, g), method="cholesky")


def test_sparse_hessian_is_refused_by_name():
    # a scipy sparse H is none of the accepted kinds: every entry says so
    h = sp.csr_array(_spd(np.random.default_rng(3), 6))
    v = np.ones(6)
    entries = [lambda: newton_direction(NewtonSystem(h, v)),
               lambda: linops.local_norm(h, v),
               lambda: linops.largest_eigenvalue(h),
               lambda: scaled_prox_subproblem(h, v, v, ProxSpec("zero"))]
    for entry in entries:
        with pytest.raises(ParameterError, match="scipy sparse matrix"):
            entry()


def test_matrix_free_solve_leaves_scipy_sparse_linalg_unimported():
    # the operator is gscopt's own type: a fresh interpreter that solves through hvp
    # and CG (p_dense = 0) never loads scipy.sparse.linalg and its resident memory
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import gscopt",
        "a, labels = gscopt.gen_logistic(300, 20, seed=42)",
        "model = gscopt.GlmModel(a * labels[:, None], gscopt.logistic(), q_diag=1e-5, p_dense=0)",
        "assert not model.has_dense_hessian",
        "assert gscopt.minimize(model, np.zeros(model.dim)).status == 'converged'",
        "print('scipy.sparse.linalg' in sys.modules)",
    ])
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class CountingStructured:
    """A structured H over a dense SPD matrix (@, shape, solver(free=None), __array__) that
    counts its whole-H solver calls."""

    def __init__(self, mat):
        self.mat, self.shape, self.solvers = mat, mat.shape, 0

    def __matmul__(self, v):
        return self.mat @ v

    def __array__(self, dtype=None, copy=None):
        return self.mat if dtype is None else self.mat.astype(dtype)

    def solver(self, free=None):
        assert free is None
        self.solvers += 1
        return lambda rhs: np.linalg.solve(self.mat, rhs)


def test_structured_hessian_is_solved_by_its_own_solver():
    rng = np.random.default_rng(12)
    hmat = _spd(rng, 8)
    h = CountingStructured(hmat)
    g = rng.normal(size=8)
    for method in ("auto", "cholesky"):
        n = newton_direction(NewtonSystem(h, g), method=method).n
        assert np.linalg.norm(hmat @ n + g) <= 1e-10 * np.linalg.norm(g)
    assert h.solvers == 2


def _free_masks(dim, m, seed):
    """Free coordinates of a SlackHessian with m block columns: block columns only, slack
    rows only, single coordinates and random mixes (ascending index arrays)."""
    rng = np.random.default_rng(seed)
    masks = {"block": np.arange(m), "slack": np.arange(m, dim), "one-block": np.array([m - 1]),
             "one-slack": np.array([m + 3]), "block-and-one-slack": np.array([0, 1, m + 5])}
    for i in range(8):
        masks[f"mix{i}"] = np.flatnonzero(rng.random(dim) < 0.5)
    return masks


@pytest.mark.parametrize("sparse", [False, True])
def test_slack_hessian_free_block_solve_matches_dense(sparse):
    # solver(free) eliminates the free slack rows around a Schur complement over the
    # free block columns; it agrees with a dense solve of the free block H_FF.  The
    # whole H (condition ~5e5, where the dense solve itself is off by ~5e-13) is the
    # all-free case, which is solver() bit for bit
    h = slack_hessian(sparse=sparse)
    hmat, dim = np.asarray(h), h.shape[0]
    rng = np.random.default_rng(13)
    rhs = rng.normal(size=dim)
    assert np.array_equal(h.solver(np.arange(dim))(rhs), h.solver()(rhs))
    assert np.array_equal(linops._factor(h, np.arange(dim))(rhs), h.solver()(rhs))
    for name, free in _free_masks(dim, h.m, seed=14).items():
        r = rng.normal(size=free.size)
        expected = np.linalg.solve(hmat[np.ix_(free, free)], r)
        for solve in (h.solver(free), linops._factor(h, free)):
            got = solve(r)
            assert got.shape == (free.size,), name
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected), name


def test_dense_free_block_solve_matches_dense():
    rng = np.random.default_rng(15)
    hmat = _spd(rng, 12)
    rhs = rng.normal(size=12)
    for free in (np.array([4]), np.array([0, 3, 7, 11]), np.arange(1, 12, 2), np.arange(12)):
        got = linops._factor(hmat, free)(rhs[free])
        expected = np.linalg.solve(hmat[np.ix_(free, free)], rhs[free])
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    # the whole H and a block factor in the same triangle: all free is the whole H
    assert np.array_equal(linops._factor(hmat, np.arange(12))(rhs), linops._factor(hmat)(rhs))


def test_singular_dense_hessian_is_shifted_like_a_free_block():
    # a rank-2 H: cholesky refuses it, and _factor solves the whole H, like any block of
    # it, shifted by n eps max diag, on a copy, never in the caller's matrix
    rng = np.random.default_rng(16)
    base = rng.normal(size=(5, 2))
    hmat = base @ base.T
    before = hmat.copy()
    with pytest.raises(NotPositiveDefiniteError):
        linops.cholesky(hmat)
    rhs = hmat @ rng.normal(size=5)
    got = linops._factor(hmat)(rhs)
    assert np.array_equal(hmat, before)
    assert np.array_equal(got, linops._factor(hmat, np.arange(5))(rhs))
    assert np.linalg.norm(hmat @ got - rhs) <= 1e-6 * np.linalg.norm(rhs)
    n, lam, _ = newton_direction(NewtonSystem(hmat, -rhs))
    assert np.array_equal(n, got) and math.isfinite(lam)


def test_rounding_singular_schur_block_is_shifted():
    # free block columns [0, 1] with the one slack row fixed: e = d = 1, so the Schur
    # complement is [[1, 1], [1, 1 + eps]].  It factors, but its last pivot^2 = eps is
    # the rounding of a singular block: it is factored again shifted by n eps max diag,
    # as the dense free block is
    h = SlackHessian(np.ones((1, 2)), np.ones(1), np.array([0.0, np.finfo(float).eps]),
                     np.ones(1))
    linops.cholesky(np.asarray(h)[:2, :2])
    free, rhs = np.array([0, 1]), np.array([1.0, -1.0])
    for solve in (h.solver(free), linops._factor(np.asarray(h), free)):
        assert np.all(np.isfinite(solve(rhs)))
    # so the active set, started with the slack coordinate at its bound, returns a point
    spec = ProxSpec("box", lo=-1.0, hi=1.0)
    x, start = np.zeros(3), np.array([0.0, 0.0, 1.0])
    grad = np.array([0.1, -0.3, -2.0])
    l_h = linops.largest_eigenvalue(h, tol=1e-12)
    z = scaled_prox_subproblem(h, grad, x, spec, tol=1e-9, l_h=l_h, start=start)
    res, floor = prox._acceptance(spec, z, grad + h @ (z - x), grad, l_h)
    assert spec.feasible(z) and res <= max(1e-9, floor)


def test_largest_eigenvalue_of_a_zero_matrix():
    assert linops.largest_eigenvalue(np.zeros((3, 3))) == 0.0


def test_cg_with_a_zero_gradient_returns_zero_without_iterating():
    # a warm start is ignored: the Newton step of a zero gradient is zero
    d = newton_direction(NewtonSystem(np.diag([1.0, 2.0, 3.0]), np.zeros(3)), method="cg",
                         warm_start=np.ones(3))
    assert np.array_equal(d.n, np.zeros(3)) and d.lam == 0.0 and d.iterations == 0
