"""Proximal operators and the scaled-prox subproblem solver."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse

from gscopt import linops, prox
from gscopt.errors import NotPositiveDefiniteError, ParameterError
from gscopt.prox import (ProxSpec, project_simplex, prox_apply, prox_residual,
                         scaled_prox_subproblem)


def test_soft_threshold_values():
    assert prox_apply(ProxSpec("l1", weight=1.0), np.array([1.5]), 1.0)[0] == pytest.approx(0.5)
    assert prox_apply(ProxSpec("l1", weight=0.5), np.array([0.3]), 1.0)[0] == 0.0
    got = prox_apply(ProxSpec("l1", weight=0.5), np.array([-2.0, 0.2, 1.0]), 2.0)
    assert np.allclose(got, [-1.0, 0.0, 0.0])


def test_simplex_values():
    assert np.allclose(prox_apply(ProxSpec("simplex"), np.array([2.0, 0.0])), [1.0, 0.0])
    assert np.allclose(prox_apply(ProxSpec("simplex"), np.array([0.6, 0.6])), [0.5, 0.5])
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = project_simplex(rng.normal(size=rng.integers(2, 30)) * 3.0)
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert x.min() >= 0.0


@pytest.mark.parametrize("spec", [ProxSpec("zero"), ProxSpec("l1", weight=0.5),
                                  ProxSpec("simplex"), ProxSpec("box", lo=-1.0),
                                  ProxSpec("box", hi=1.0)],
                         ids=lambda s: f"{s.kind}[{s.lo},{s.hi}]")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_point_is_infeasible(spec, bad):
    # g = zero and a box with an infinite bound accepted NaN or +-inf
    x = np.full(3, 1.0 / 3.0)
    assert spec.feasible(x)
    x[1] = bad
    assert spec.value(x) == math.inf and not spec.feasible(x)


def test_box_and_zero():
    u = np.array([-3.0, 0.5, 7.0])
    assert np.allclose(prox_apply(ProxSpec("box", lo=-1.0, hi=2.0), u), [-1.0, 0.5, 2.0])
    assert np.allclose(prox_apply(ProxSpec("zero"), u), u)
    with pytest.raises(ParameterError):
        ProxSpec("box", lo=2.0, hi=-2.0)
    with pytest.raises(ParameterError):
        ProxSpec("huber")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("u", [[math.nan, 1.0], [0.5, math.inf, 0.2], [-math.inf, -math.inf], []])
def test_simplex_projection_rejects_unprojectable_input(u):
    # the sort finds no threshold: once a bare IndexError
    with pytest.raises(ParameterError):
        project_simplex(np.array(u))
    with pytest.raises(ParameterError):
        prox_apply(ProxSpec("simplex"), np.array(u))


@pytest.mark.parametrize("u,want", [
    ([1e308, 1e308], [0.5, 0.5]),           # the unshifted cumulative sum overflows
    ([1e300, -1e300], [1.0, 0.0]),          # the unshifted threshold loses the budget
    ([1e15 + 0.25, 1e15], [0.625, 0.375]),
])
def test_simplex_projection_of_large_finite_entries(u, want):
    assert np.array_equal(project_simplex(np.array(u)), want)
    assert np.array_equal(prox_apply(ProxSpec("simplex"), np.array(u)), want)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan])
def test_prox_step_must_be_positive(step):
    # nan <= 0 is False: a NaN step once returned NaNs
    with pytest.raises(ParameterError):
        prox_apply(ProxSpec("l1", weight=0.5), np.array([1.0, -2.0]), step)


@pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
def test_l1_weight_must_be_finite_and_nonnegative(weight):
    # nan < 0 is False: a NaN weight once gave prox_apply [nan nan nan], and
    # an infinite one value(0) = inf * 0 = nan
    with pytest.raises(ParameterError):
        ProxSpec("l1", weight=weight)


def _simplex_active_set(u):
    p = u.size
    best, best_val = None, math.inf
    for k in range(1, p + 1):
        for support in itertools.combinations(range(p), k):
            s = list(support)
            shift = (1.0 - u[s].sum()) / k
            x = np.zeros(p)
            x[s] = u[s] + shift
            if x[s].min() < -1e-12:
                continue
            val = float(np.sum((x - u) ** 2))
            if val < best_val:
                best, best_val = x, val
    return best


def test_simplex_matches_active_set_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = int(rng.integers(2, 7))
        u = rng.normal(size=p) * 2.0
        assert np.max(np.abs(project_simplex(u) - _simplex_active_set(u))) <= 1e-12


def test_prox_nonexpansive_euclidean():
    rng = np.random.default_rng(2)
    specs = [ProxSpec("l1", weight=0.7), ProxSpec("simplex"),
             ProxSpec("box", lo=-1.0, hi=1.0), ProxSpec("zero")]
    for spec in specs:
        for _ in range(50):
            u, v = rng.normal(size=8), rng.normal(size=8)
            pu, pv = prox_apply(spec, u), prox_apply(spec, v)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_subproblem_reductions():
    rng = np.random.default_rng(3)
    h = np.diag([2.0, 1.0])
    grad = np.array([1.0, 0.0])
    x = np.array([1.0, 1.0])
    z = scaled_prox_subproblem(h, grad, x, ProxSpec("zero"), tol=1e-12)
    assert np.allclose(z, x - np.linalg.solve(h, grad), atol=1e-10)
    z = scaled_prox_subproblem(np.eye(2), grad, x, ProxSpec("l1", weight=0.3), tol=1e-12)
    assert np.allclose(z, prox_apply(ProxSpec("l1", weight=0.3), x - grad, 1.0), atol=1e-11)


def _brute_force_2d(h, grad, x, weight):
    # grid + polish oracle for min <g, z-x> + 1/2 (z-x)'H(z-x) + w ||z||_1
    def obj(z):
        dz = z - x
        return float(grad @ dz) + 0.5 * float(dz @ h @ dz) + weight * np.abs(z).sum()

    grid = np.linspace(-3.0, 3.0, 241)
    best, best_val = None, math.inf
    for z0 in grid:
        for z1 in grid:
            z = np.array([z0, z1])
            val = obj(z)
            if val < best_val:
                best, best_val = z, val
    # coordinate-descent polish (each scalar subproblem is a soft-threshold)
    z = best.copy()
    for _ in range(400):
        for i in range(2):
            rest = grad[i] + h[i] @ (z - x) - h[i, i] * (z[i] - x[i])
            center = x[i] - rest / h[i, i]
            z[i] = math.copysign(max(abs(center) - weight / h[i, i], 0.0), center)
    return z


def test_subproblem_against_brute_force_2d():
    h = np.diag([2.0, 1.0])
    grad = np.array([1.0, 0.0])
    x = np.array([1.0, 1.0])
    for weight in (10.0, 0.8, 0.05):
        z = scaled_prox_subproblem(h, grad, x, ProxSpec("l1", weight=weight), tol=1e-12)
        want = _brute_force_2d(h, grad, x, weight)
        assert np.max(np.abs(z - want)) <= 1e-8, (weight, z, want)
    # heavy weight zeroes the solution outright
    z = scaled_prox_subproblem(h, grad, x, ProxSpec("l1", weight=10.0), tol=1e-12)
    assert np.allclose(z, 0.0, atol=1e-10)


def test_subproblem_first_order_optimality():
    rng = np.random.default_rng(4)
    for trial in range(20):
        p = 6
        base = rng.normal(size=(p, p))
        h = base @ base.T + np.eye(p)
        grad = rng.normal(size=p)
        x = rng.normal(size=p)
        spec = ProxSpec("l1", weight=0.4) if trial % 2 else ProxSpec("simplex")
        z = scaled_prox_subproblem(h, grad, x, spec, tol=1e-11)
        s = 1.0 / linops.largest_eigenvalue(h, dim=p)
        res = prox_residual(spec, z, grad + h @ (z - x), s)
        assert res <= 1e-10


def test_scaled_prox_nonexpansive_in_h_norm():
    # ||P(u) - P(v)||_H <= ||u - v||_{H^-1}; P computed via the subproblem
    # solver with Q(z) = 1/2 z'Hz - u'z, whose minimizer with g is prox_{H,g}
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = int(rng.integers(2, 11))
        base = rng.normal(size=(p, p))
        h = base @ base.T + np.eye(p)
        u, v = rng.normal(size=p), rng.normal(size=p)
        spec = ProxSpec("l1", weight=0.3)

        def scaled_prox(w):
            # argmin g(z) + 1/2 ||z - H^{-1}w||_H^2 = argmin g(z) + 1/2 z'Hz - w'z
            xc = np.linalg.solve(h, w)
            return scaled_prox_subproblem(h, np.zeros(p), xc, spec, tol=1e-12)

        pu, pv = scaled_prox(u), scaled_prox(v)
        lhs = math.sqrt((pu - pv) @ h @ (pu - pv))
        rhs = math.sqrt((u - v) @ np.linalg.solve(h, u - v))
        assert lhs <= rhs + 1e-8


ACTIVE_SET_SPECS = [ProxSpec("simplex"), ProxSpec("box", lo=-0.3, hi=0.4),
                    ProxSpec("box", lo=-math.inf, hi=0.1), ProxSpec("box", lo=-0.1, hi=math.inf),
                    ProxSpec("box", lo=0.25, hi=0.25), ProxSpec("l1", weight=0.3),
                    ProxSpec("zero")]


def _pd(rng, p):
    base = rng.normal(size=(p, p))
    return base @ base.T / p + np.eye(p)


def _bound_multipliers(spec, h, grad, x, z):
    """KKT multipliers of the bounds at z (for l1, w - |grad Q_i| at a zero coordinate)
    and the gradient of the working set's objective on the free coordinates, which is
    zero at a stationary point; nu is the simplex sum multiplier."""
    gz = grad + h @ (z - x)
    if spec.kind == "l1":
        held = z == 0.0
        return spec.weight - np.abs(gz[held]), (gz + spec.weight * np.sign(z))[~held]
    if spec.kind == "simplex":
        at_lo, at_hi = z <= 0.0, np.zeros(z.size, dtype=bool)
        nu = -float(np.mean(gz[~at_lo]))
    else:
        at_lo, at_hi = z <= spec.lo, z >= spec.hi
        nu = 0.0
    keep = at_lo ^ at_hi          # lo == hi fixes a coordinate: its multiplier is free
    return np.where(at_lo, gz + nu, -(gz + nu))[keep], (gz + nu)[~(at_lo | at_hi)]


@pytest.mark.parametrize("p", [1, 2, 6, 40])
@pytest.mark.parametrize("spec", ACTIVE_SET_SPECS, ids=lambda s: f"{s.kind}[{s.lo},{s.hi}]")
def test_active_set_matches_fista(p, spec):
    # (named for the solver the operator path once took) the active set's dense
    # (Cholesky) back-end against its operator (CG) back-end, each point checked against
    # the KKT conditions: feasible, bound multipliers nonnegative, stationary when free
    rng = np.random.default_rng(p)
    for trial in range(6):
        h = _pd(rng, p)
        x = rng.normal(size=p)
        grad = rng.normal(size=p) * (3.0 if trial % 2 else 0.3)
        z = scaled_prox_subproblem(h, grad, x, spec, tol=1e-12)
        z_cg = scaled_prox_subproblem(lambda v, h=h: h @ v, grad, x, spec, tol=1e-12)
        assert np.max(np.abs(z - z_cg)) <= 1e-9
        for point in (z, z_cg):
            assert spec.feasible(point)
            mult, stationarity = _bound_multipliers(spec, h, grad, x, point)
            assert np.all(mult >= 0.0)
            assert np.all(np.abs(stationarity) <= 1e-9)


@pytest.mark.parametrize("spec", ACTIVE_SET_SPECS[:2], ids=["simplex", "box"])
def test_active_set_vertex_and_interior_optima(spec):
    rng = np.random.default_rng(11)
    p = 6
    h = _pd(rng, p)
    x = np.full(p, 1.0 / p)
    l_h = linops.largest_eigenvalue(h, dim=p)
    # interior: grad puts the unconstrained minimizer strictly inside the set
    inner = np.linspace(0.1, 0.2, p)
    inner = inner / inner.sum() if spec.kind == "simplex" else inner - 0.15
    z = scaled_prox_subproblem(h, -h @ (inner - x), x, spec, tol=1e-12)
    assert prox._active_set_qp(h, -h @ (inner - x), x, spec, 1.0 / l_h) is not None
    assert np.max(np.abs(z - inner)) <= 1e-12
    # vertex: a steep gradient pushes every coordinate to a bound
    grad = 1e3 * np.arange(p, dtype=float) - 2.5e3
    z = scaled_prox_subproblem(h, grad, x, spec, tol=1e-12)
    if spec.kind == "simplex":
        assert np.array_equal(z, np.eye(p)[0])
    else:
        assert np.array_equal(z, np.where(grad > 0.0, spec.lo, spec.hi))
    mult, _ = _bound_multipliers(spec, h, grad, x, z)
    assert mult.size == (p - 1 if spec.kind == "simplex" else p) and np.all(mult > 0.0)


@pytest.mark.parametrize("spec", ACTIVE_SET_SPECS[:2], ids=["simplex", "box"])
def test_rank_deficient_h_falls_back_to_fista(spec):
    # (named for the solver it once handed over to) a rank-3 H: the singular free blocks
    # are shifted at the rounding level, by linops._free_cholesky for the dense H and by
    # the CG back-end for the operator, and both active sets return the same point
    rng = np.random.default_rng(12)
    p = 8
    base = rng.normal(size=(p, 3))
    h = base @ base.T
    x = np.full(p, 1.0 / p)
    grad = rng.normal(size=p)
    l_h = linops.largest_eigenvalue(h, dim=p)
    z = scaled_prox_subproblem(h, grad, x, spec, tol=1e-9, l_h=l_h)
    z_cg = scaled_prox_subproblem(lambda v: h @ v, grad, x, spec, tol=1e-9, l_h=l_h)
    assert np.max(np.abs(z - z_cg)) <= 1e-12
    for point in (z, z_cg):
        assert spec.feasible(point)
        assert prox_residual(spec, point, grad + h @ (point - x), 1.0 / l_h) <= 1e-9


@pytest.mark.parametrize("spec", ACTIVE_SET_SPECS[:2], ids=["simplex", "box"])
def test_pivot_at_the_rounding_level_falls_back_to_fista(spec):
    # (named for the solver it once handed over to) the free block factors, but its
    # last pivot^2 = eps is the rounding of a singular block: linops._free_cholesky
    # shifts it, CG on the operator shifts its own, and both give the same point
    h = np.array([[1.0, 1.0], [1.0, np.nextafter(1.0, 2.0)]])
    linops.cholesky(h, lower=False)
    x = np.array([0.0, 0.1])
    grad = np.array([0.1, -0.3])
    l_h = linops.largest_eigenvalue(h, dim=2)
    z = scaled_prox_subproblem(h, grad, x, spec, tol=1e-9, l_h=l_h)
    z_cg = scaled_prox_subproblem(lambda v: h @ v, grad, x, spec, tol=1e-9, l_h=l_h)
    assert np.max(np.abs(z - z_cg)) <= 1e-12
    for point in (z, z_cg):
        res, floor = prox._acceptance(spec, point, grad + h @ (point - x), grad, l_h)
        assert spec.feasible(point) and res <= max(1e-9, floor)


@pytest.mark.parametrize("operator", [False, True], ids=["dense", "operator"])
@pytest.mark.parametrize("spec", [ProxSpec("box", lo=-1.0, hi=1.0), ProxSpec("simplex"),
                                  ProxSpec("l1", weight=0.1)], ids=["box", "simplex", "l1"])
def test_indefinite_h_raises(spec, operator):
    # every coordinate starts free, so the first free block holds the negative curvature:
    # its Cholesky factorization fails even after the rounding-level shift, and CG meets
    # it.  An l1 solve once returned a z holding -5.8e307 here
    hmat = np.diag([3.0, 1.0, -0.5, 2.0])
    h = (lambda v: hmat @ v) if operator else hmat
    x, grad = np.full(4, 0.25), np.array([0.01, -0.02, 0.01, 0.0])
    with pytest.raises(NotPositiveDefiniteError):
        scaled_prox_subproblem(h, grad, x, spec, tol=1e-10)


@pytest.mark.parametrize("operator", [False, True], ids=["dense", "operator"])
def test_l1_with_weight_zero_is_the_newton_step(operator):
    # l1 with weight 0 has no bounds, as g = zero: z = x - H^-1 grad
    rng = np.random.default_rng(8)
    p = 7
    hmat = _pd(rng, p)
    h = (lambda v: hmat @ v) if operator else hmat
    x, grad = rng.normal(size=p), rng.normal(size=p)
    z = scaled_prox_subproblem(h, grad, x, ProxSpec("l1", weight=0.0), tol=1e-12)
    assert np.array_equal(z, scaled_prox_subproblem(h, grad, x, ProxSpec("zero"), tol=1e-12))
    newton = x - np.linalg.solve(hmat, grad)
    assert np.max(np.abs(z - newton)) <= 1e-12 * max(1.0, np.max(np.abs(newton)))


@pytest.mark.parametrize("spec", [ProxSpec("l1", weight=0.1), ProxSpec("simplex")],
                         ids=["l1", "simplex"])
def test_subproblem_tol_must_not_be_nan(spec):
    h = np.array([[2.0, 0.5], [0.5, 1.0]])
    grad, x = np.array([1.0, -1.0]), np.array([0.5, 0.5])
    with pytest.raises(ParameterError, match="tol"):
        scaled_prox_subproblem(h, grad, x, spec, tol=math.nan)
    # tol <= 0 asks for the rounding floor, tol = inf for the loosest accuracy
    floor = scaled_prox_subproblem(h, grad, x, spec, tol=0.0)
    assert np.array_equal(scaled_prox_subproblem(h, grad, x, spec, tol=-1.0), floor)
    assert spec.feasible(scaled_prox_subproblem(h, grad, x, spec, tol=math.inf))


def test_subproblem_meets_the_floor_at_any_tol():
    # tol = 0.1 is loose next to a step z - x of ~1e-3, yet the returned z is
    # the exact minimizer: its residual lies within the rounding floor alone.
    # x nearly solves each subproblem: grad is its optimality condition plus
    # a 1e-3 error
    rng = np.random.default_rng(21)
    p = 6
    h = _pd(rng, p)
    l_h = linops.largest_eigenvalue(h, dim=p)
    x_l1 = np.array([0.5, -0.4, 0.0, 0.0, 0.7, 0.0])
    x_simplex = np.array([0.1, 0.2, 0.15, 0.25, 0.2, 0.1])
    cases = [(ProxSpec("l1", weight=0.3), x_l1,
              -0.3 * np.sign(x_l1) + 0.15 * np.array([0, 0, -1, 1, 0, 1.0])),
             (ProxSpec("simplex"), x_simplex, -np.ones(p))]
    for spec, x, grad in cases:
        grad = grad + 1e-3 * rng.normal(size=p)
        z = scaled_prox_subproblem(h, grad, x, spec, tol=0.1, l_h=l_h)
        lam = linops.local_norm(h, z - x)
        assert 1e-4 <= lam <= 1e-2
        res, floor = prox._acceptance(spec, z, grad + h @ (z - x), grad, l_h)
        assert res <= floor, spec.kind


def _starts(spec, p):
    """A corner start (every coordinate of a box at one of two values), an interior one
    and, on the simplex, one whose sum is off by less than ProxSpec.feasible allows.  For
    l1 and zero, which take any finite point, one of mixed signs and zeros and the origin."""
    if spec.kind in ("l1", "zero"):
        return np.where(np.arange(p) % 3 == 0, 0.0, (-1.0) ** np.arange(p)), np.zeros(p)
    if spec.kind == "simplex":
        return np.eye(p)[p - 1], np.full(p, 1.0 / p), np.full(p, (1.0 + 5e-10) / p)
    lo = spec.lo if math.isfinite(spec.lo) else spec.hi - 1.0
    hi = spec.hi if math.isfinite(spec.hi) else spec.lo + 1.0
    return np.where(np.arange(p) % 2 == 0, lo, hi), np.full(p, 0.5 * (lo + hi))


@pytest.mark.parametrize("p", [1, 2, 6, 40])
@pytest.mark.parametrize("spec", ACTIVE_SET_SPECS, ids=lambda s: f"{s.kind}[{s.lo},{s.hi}]")
def test_warm_start_reaches_the_cold_minimizer(monkeypatch, p, spec):
    # a feasible start changes where the active set begins, never where it ends
    rng = np.random.default_rng(100 + p)
    calls = []
    factor = linops.cholesky
    monkeypatch.setattr(linops, "cholesky", lambda *a, **k: calls.append(1) or factor(*a, **k))
    for trial in range(4):
        h = _pd(rng, p)
        x = rng.normal(size=p)
        grad = rng.normal(size=p) * (3.0 if trial % 2 else 0.3)
        z = scaled_prox_subproblem(h, grad, x, spec, tol=1e-12)
        for start in _starts(spec, p):
            assert spec.feasible(start)
            z_warm = scaled_prox_subproblem(h, grad, x, spec, tol=1e-12, start=start)
            assert np.max(np.abs(z_warm - z)) <= 1e-12
        # started at its own solution, the active set stops after one factorization
        calls.clear()
        z_warm = scaled_prox_subproblem(h, grad, x, spec, tol=1e-12, start=z)
        assert np.max(np.abs(z_warm - z)) <= 1e-12
        assert len(calls) <= 1


@pytest.mark.parametrize("spec", ACTIVE_SET_SPECS, ids=lambda s: f"{s.kind}[{s.lo},{s.hi}]")
def test_warm_start_must_be_feasible(spec):
    rng = np.random.default_rng(7)
    p = 6
    h, x, grad = _pd(rng, p), rng.normal(size=p), rng.normal(size=p)
    corner = _starts(spec, p)[0]
    outside = corner.copy()
    outside[0] = spec.hi + 1.0 if math.isfinite(spec.hi) else spec.lo - 1.0
    for start in (outside, np.full(p, math.nan), corner[:-1]):
        with pytest.raises(ParameterError):
            scaled_prox_subproblem(h, grad, x, spec, tol=1e-12, start=start)
    # an operator H takes the active set too, so a feasible start changes where it
    # begins, not where it ends
    op = lambda v: h @ v  # noqa: E731
    z = scaled_prox_subproblem(op, grad, x, spec, tol=1e-12)
    z_warm = scaled_prox_subproblem(op, grad, x, spec, tol=1e-12, start=corner)
    assert np.max(np.abs(z_warm - z)) <= 1e-12


class _NoDenseForm:
    """A structured H that delegates @ and solver(free) to a linops.SlackHessian and has
    no dense form: np.asarray on it raises."""

    def __init__(self, slack):
        self.slack, self.shape = slack, slack.shape

    def __matmul__(self, v):
        return self.slack @ v

    def solver(self, free=None):
        return self.slack.solver(free)

    def __array__(self, dtype=None, copy=None):
        raise AssertionError("the active set densified a structured H")


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("spec", [s for s in ACTIVE_SET_SPECS if s.lo < s.hi],
                         ids=lambda s: f"{s.kind}[{s.lo},{s.hi}]")
def test_active_set_never_densifies_a_structured_h(spec, sparse):
    # the active set solves each free block through solver(free) and ends where the
    # active set on the dense H ends
    rng = np.random.default_rng(31)
    n, m = 40, 5
    block = rng.normal(size=(n, m))
    if sparse:
        block = scipy.sparse.csr_matrix(np.where(np.abs(block) > 0.7, block, 0.0))
    slack = linops.SlackHessian(block, 0.1 + 1.9 * rng.random(n), np.full(m, 1e-1),
                                np.full(n, 1e-1))
    h, hmat = _NoDenseForm(slack), np.asarray(slack)
    p = n + m
    l_h = linops.largest_eigenvalue(hmat, tol=1e-12)
    for trial in range(4):
        x = prox_apply(spec, rng.normal(size=p) * 0.2)
        grad = rng.normal(size=p) * (3.0 if trial % 2 else 0.3)
        z = scaled_prox_subproblem(h, grad, x, spec, tol=1e-12, l_h=l_h)
        z_dense = scaled_prox_subproblem(hmat, grad, x, spec, tol=1e-12, l_h=l_h)
        assert spec.feasible(z)
        assert np.max(np.abs(z - z_dense)) <= 1e-12 * max(1.0, np.max(np.abs(z_dense)))
        # the active set itself returns a point on the structured H
        assert prox._active_set_qp(h, grad, x, spec, 1.0 / l_h) is not None
