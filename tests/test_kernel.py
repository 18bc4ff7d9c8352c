"""Kernel functions: frozen values, quadrature cross-checks, and properties."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gscopt import kernel
from gscopt.errors import DomainError, ParameterError
from gscopt.kernel import GscParams

NUS = (2.0, 2.5, 3.0, 4.0)


# ---------------------------------------------------------------------------
# omega family: frozen values and limits
# ---------------------------------------------------------------------------

def test_omega_values():
    assert kernel.omega(2.0, 1.0) == pytest.approx(math.e - 2.0, rel=1e-14)
    assert kernel.omega(3.0, 0.5) == pytest.approx((-0.5 - math.log(0.5)) / 0.25, rel=1e-14)
    for nu in NUS:
        assert kernel.omega(nu, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert kernel.omega(nu, 1e-9) == pytest.approx(0.5, rel=1e-8)


def test_omega_bar_values():
    assert kernel.omega_bar(2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert kernel.omega_bar(4.0, 0.5) == pytest.approx(math.log(0.5) / -0.5, rel=1e-14)
    for nu in NUS:
        assert kernel.omega_bar(nu, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_omega_bar_bar_values():
    assert kernel.omega_bar_bar(2.0, 0.3) == pytest.approx(math.exp(0.3), rel=1e-15)
    assert kernel.omega_bar_bar(3.0, 0.5) == pytest.approx(4.0, rel=1e-14)
    for nu in NUS:
        assert kernel.omega_bar_bar(nu, 0.0) == 1.0


def test_kappa_values():
    lo, hi = kernel.kappa_bounds(2.0, 1.0)
    assert lo == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert hi == pytest.approx(math.e - 1.0, rel=1e-14)
    lo, hi = kernel.kappa_bounds(4.0, 0.5)
    assert lo == pytest.approx(0.75, rel=1e-14)
    assert hi == pytest.approx(-math.log(0.5) / 0.5, rel=1e-13)
    for nu in NUS:
        lo, hi = kernel.kappa_bounds(nu, 0.0)
        assert lo == pytest.approx(1.0, abs=1e-15)
        assert hi == pytest.approx(1.0, abs=1e-15)


def test_r_nu_values():
    assert kernel.r_nu(2.0, 0.0) == pytest.approx(1.5, abs=1e-15)
    assert kernel.r_nu(3.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    # root-consistency with the printed nu=2 full-step constant
    assert kernel.r_nu(2.0, 0.12964) * math.exp(0.12964) == pytest.approx(2.0, abs=1e-3)
    # nu=3 algebraic identity r_nu = 1/(1-t) against the raw power expression
    for t in (0.05, 0.3, 0.7, 0.95):
        assert kernel.r_nu(3.0, t) == pytest.approx(1.0 / (1.0 - t), rel=1e-12)


def test_domain_errors():
    for fn in (kernel.omega, kernel.omega_bar, kernel.omega_bar_bar):
        with pytest.raises(DomainError):
            fn(2.5, 1.0)
        fn(2.0, 1.5)  # nu = 2 has the whole line
    with pytest.raises(DomainError):
        kernel.kappa_bounds(3.0, 1.0)
    with pytest.raises(DomainError):
        kernel.r_nu(2.5, -0.1)
    with pytest.raises(ParameterError):
        kernel.r_nu(3.5, 0.2)


# ---------------------------------------------------------------------------
# quadrature oracles: every profile function is an integral of omega_bar_bar
# ---------------------------------------------------------------------------

def _omega_bar_quad(nu, tau):
    return quad(lambda s: kernel.omega_bar_bar(nu, s * tau), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-13)[0]


def _omega_quad(nu, tau):
    return quad(lambda t: t * _omega_bar_quad(nu, t * tau), 0.0, 1.0,
                epsabs=1e-12, epsrel=1e-12)[0]


@pytest.mark.parametrize("nu", NUS)
def test_quadrature_consistency(nu):
    for tau in (-0.8, -0.2, 0.15, 0.6, 0.88):
        assert kernel.omega_bar(nu, tau) == pytest.approx(_omega_bar_quad(nu, tau), rel=1e-9)
        assert kernel.omega(nu, tau) == pytest.approx(_omega_quad(nu, tau), rel=1e-8)
    for t in (0.05, 0.4, 0.85):
        lo, hi = kernel.kappa_bounds(nu, t)
        lo_q = quad(lambda s: 1.0 / kernel.omega_bar_bar(nu, s * t), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13)[0]
        assert lo == pytest.approx(lo_q, abs=1e-8)
        assert hi == pytest.approx(_omega_bar_quad(nu, t), abs=1e-8)
        assert lo <= 1.0 <= hi


@pytest.mark.parametrize("nu", NUS)
def test_monotone_and_nonnegative(nu):
    taus = np.linspace(-0.9, 0.9, 1000)
    for fn in (kernel.omega, kernel.omega_bar, kernel.omega_bar_bar):
        vals = np.array([fn(nu, float(t)) for t in taus])
        assert np.all(vals >= -1e-15)
        assert np.all(np.diff(vals) >= -1e-13)
    assert all(kernel.omega_bar_bar(nu, float(t)) > 0.0 for t in taus)


@pytest.mark.parametrize("nu", NUS)
def test_series_switch_agreement(nu):
    eps = 1e-11
    # the switch sits at c |tau| = SERIES_TOL, c = max(1, 2/(nu-2)) (1 for nu = 2)
    t_sw = kernel.SERIES_TOL / (1.0 if nu == 2.0 else max(1.0, 2.0 / (nu - 2.0)))
    for fn in (kernel.omega, kernel.omega_bar):
        for sign in (1.0, -1.0):
            above = fn(nu, sign * (t_sw + eps))
            below = fn(nu, sign * (t_sw - eps))
            assert abs(above - below) <= 1e-10 * (1.0 + abs(above))
    lo_a, hi_a = kernel.kappa_bounds(nu, t_sw + eps)
    lo_b, hi_b = kernel.kappa_bounds(nu, t_sw - eps)
    assert abs(lo_a - lo_b) <= 1e-10 and abs(hi_a - hi_b) <= 1e-10
    if nu <= 3.0:
        assert abs(kernel.r_nu(nu, t_sw + eps) - kernel.r_nu(nu, t_sw - eps)) <= 1e-9


def _mp_profiles(nu, t):
    """60-digit omega, omega_bar, lower kappa bound and r_nu, nu in (2, 3), c != 1, 2."""
    with mpmath.workdps(60):
        nu, t = mpmath.mpf(nu), mpmath.mpf(t)
        c = 2 / (nu - 2)
        om = (((1 - t) ** (2 - c) - 1) / ((c - 2) * t) - 1) / ((c - 1) * t)
        ob = ((1 - t) ** (1 - c) - 1) / ((c - 1) * t)
        lo = (1 - (1 - t) ** (c + 1)) / ((c + 1) * t)
        r = c - 1
        rn = (1 - (1 + r * t) * (1 - t) ** r) / (r * t**2 * (1 - t) ** r)
        return [float(v) for v in (om, ob, lo, rn)]


@pytest.mark.parametrize("nu,t", [
    (2.0001, 9e-5), (2.0001, -9e-5), (2.0001, 1e-6), (2.0001, 2e-8),
    (2.0000000000000004, 2.44e-16), (2.0000000000000004, -2.44e-16),
    (2.0000000000000004, 2e-20),
    (2.001, 9e-5), (2.001, -9e-5), (2.001, 1e-6), (2.001, 2e-8),
])
def test_small_tau_near_nu_two_matches_mpmath(nu, t):
    # series coefficients grow like (2/(nu-2))^k: near nu = 2+ the series
    # must give way to the closed forms already at tiny |tau|
    om, ob, lo, rn = _mp_profiles(nu, t)
    assert kernel.omega(nu, t) == pytest.approx(om, rel=1e-12)
    assert kernel.omega_bar(nu, t) == pytest.approx(ob, rel=1e-12)
    if t > 0.0:
        assert kernel.kappa_bounds(nu, t)[0] == pytest.approx(lo, rel=1e-12)
        assert kernel.r_nu(nu, t) == pytest.approx(rn, rel=1e-12)


def test_overflow_returns_inf():
    # the closed forms leave the float range: e^800, and (1 - 0.3)^(-2/0.0001)
    for nu, tau in [(2.0, 800.0), (2.0001, 0.3)]:
        assert kernel.omega(nu, tau) == math.inf
        assert kernel.omega_bar(nu, tau) == math.inf
        assert kernel.omega_bar_bar(nu, tau) == math.inf
        assert kernel.kappa_bounds(nu, tau)[1] == math.inf
    assert kernel.kappa_bounds(2.0001, 0.3)[0] == pytest.approx(1.0 / 6000.5, rel=1e-4)
    assert kernel.r_nu(2.0001, 0.3) == math.inf


def _mp_omegas(nu, t):
    """60-digit omega and omega_bar for any nu >= 2 from their closed forms."""
    with mpmath.workdps(60):
        nu, t = mpmath.mpf(nu), mpmath.mpf(t)
        if nu == 2:
            return float((mpmath.expm1(t) - t) / t**2), float(mpmath.expm1(t) / t)
        if nu == 3:
            om = -(t + mpmath.log1p(-t)) / t**2
        else:
            v = -mpmath.expm1(2 * (nu - 3) / (nu - 2) * mpmath.log1p(-t))
            om = (nu - 2) / (nu - 4) * (1 - (nu - 2) * v / (2 * (nu - 3) * t)) / t
        ob = (nu - 2) / (nu - 4) * -mpmath.expm1((nu - 4) / (nu - 2) * mpmath.log1p(-t)) / t
        return float(om), float(ob)


@pytest.mark.parametrize("nu,t", [
    (2.0, 710.0), (2.0, 720.0), (2.0, -1e200), (3.0, -1e200),
    (2.0001, 0.03), (2.01, 0.973), (5.0, -1e300), (10.0, -1e200),
])
def test_values_past_intermediate_overflow_match_mpmath(nu, t):
    # e^t, (1 - t)^k or t^2 alone leaves the float range while the value is
    # a float: it is evaluated in log space, not returned as inf or raised
    om, ob = _mp_omegas(nu, t)
    assert kernel.omega(nu, t) == pytest.approx(om, rel=1e-12)
    assert kernel.omega_bar(nu, t) == pytest.approx(ob, rel=1e-12)
    if 2.0 < nu <= 3.0 and 0.0 < t < 1.0:
        assert kernel.r_nu(nu, t) == pytest.approx(_mp_profiles(nu, t)[3], rel=1e-12)


# ---------------------------------------------------------------------------
# d_nu, step size, descent estimate
# ---------------------------------------------------------------------------

def test_d_nu():
    assert kernel.d_nu(2.0, 1.0, 0.3, 5.0) == pytest.approx(0.3)
    assert kernel.d_nu(3.0, 2.0, 7.0, 0.4) == pytest.approx(0.4)
    assert kernel.d_nu(2.5, 1.0, 1.0, 1.0) == pytest.approx(0.25)
    assert kernel.d_nu(2.7, 3.0, 0.0, 0.0) == 0.0


def test_step_size_values():
    tau, d_k = kernel.step_size(2.0, 5.0, 2.0, 1.0)
    assert tau == pytest.approx(math.log(2.0), rel=1e-15) and d_k == 1.0
    tau, d_k = kernel.step_size(3.0, 1.0, 1.0, 123.0)
    assert d_k == pytest.approx(0.5) and tau == pytest.approx(2.0 / 3.0, rel=1e-15)
    # frozen high-precision evaluation (mpmath, 50 digits)
    tau, d_k = kernel.step_size(2.5, 1.0, 1.0, 1.0)
    assert d_k == pytest.approx(0.25)
    assert tau == pytest.approx(0.68069386653502624, rel=1e-14)
    # limits
    assert kernel.step_size(2.0, 0.0, 1.0, 0.0).tau == 1.0
    assert kernel.step_size(3.0, 0.0, 1.0, 0.0).tau == 1.0
    assert kernel.step_size(2.5, 1.0, 0.0, 1.0).tau == 1.0  # converged signal


def test_descent_estimate_values():
    # closed form (1/d^2)[(1+d) ln(1+d) - d] at nu=2, lam=1, d=1
    tau = math.log(2.0)
    assert kernel.descent_estimate(2.0, 1.0, 1.0, tau) == pytest.approx(
        2.0 * math.log(2.0) - 1.0, rel=1e-14)
    assert kernel.descent_estimate(2.5, 0.0, 1.0, 0.5) == 0.0
    # nu=3 closed form lam^2/(1+d) + (2/M)^2 [d/(1+d) + ln(1 - d/(1+d))]
    # evaluated at M=1, lam=1 (d=1/2, tau=2/3); frozen from 50-digit evaluation
    tau, d_k = kernel.step_size(3.0, 1.0, 1.0, 1.0)
    delta = kernel.descent_estimate(3.0, 1.0, d_k, tau)
    closed = 1.0 / 1.5 + 4.0 * (0.5 / 1.5 + math.log(1.0 - 0.5 / 1.5))
    assert delta == pytest.approx(closed, rel=1e-13)
    assert delta == pytest.approx(0.37813956756734235, rel=1e-13)


@settings(max_examples=100, deadline=None)
@given(
    nu=st.floats(2.0, 3.0),
    m=st.floats(1e-3, 1e3),
    lam=st.floats(1e-6, 1e3),
    beta_scale=st.floats(1e-3, 1.0),
)
@example(nu=2.0000000000000004, m=1.0, lam=2.0, beta_scale=1.0)
def test_step_size_in_unit_interval_and_descent_positive(nu, m, lam, beta_scale):
    beta = m * lam * beta_scale  # beta = M ||n||_2 <= M lam / sqrt(sigma): any positive works
    tau, d_k = kernel.step_size(nu, m, lam, beta)
    assert 0.0 < tau <= 1.0
    assert kernel.descent_estimate(nu, lam, d_k, tau) > 0.0


def test_step_size_maximizes_model():
    # 1e-4 grid over (0, 1]: no grid point beats the analytic step by > 1e-6 rel
    rng = np.random.default_rng(17)
    grid = np.arange(1e-4, 1.0 + 1e-9, 1e-4)
    for _ in range(100):
        nu = rng.uniform(2.0, 3.0)
        if rng.random() < 0.25:
            nu = float(rng.choice([2.0, 3.0]))
        m = 10.0 ** rng.uniform(-2, 2)
        lam = 10.0 ** rng.uniform(-3, 1)
        beta = m * lam * rng.uniform(1e-3, 1.0)
        tau, d_k = kernel.step_size(nu, m, lam, beta)
        best = kernel.descent_estimate(nu, lam, d_k, tau)

        def model_value(t):
            td = t * d_k
            if nu > 2.0 and td >= 1.0:
                return -math.inf
            return lam**2 * t - kernel.omega(nu, td) * t**2 * lam**2

        grid_best = max(model_value(float(t)) for t in grid)
        assert grid_best <= best + 1e-6 * (1.0 + abs(best))


@settings(max_examples=200, deadline=None)
@given(m3=st.floats(1e-2, 1e4), lam=st.floats(1e-8, 1e2), frac=st.floats(1e-6, 1.0))
@example(m3=1.0, lam=1e-8, frac=1.0)
def test_step_ordering_when_beta_below_m3_lambda(m3, lam, frac):
    # whenever beta <= M3 lam, the nu=2 step beats the nu=3 step; the gap
    # shrinks like beta^2 / 12, below double resolution for small beta, so
    # it is evaluated in 60-digit arithmetic from the exact inputs
    with mpmath.workdps(60):
        beta = mpmath.mpf(frac) * mpmath.mpf(m3) * mpmath.mpf(lam)
        tau2 = mpmath.log1p(beta) / beta
        tau3 = 1 / (1 + mpmath.mpf(m3) * mpmath.mpf(lam) / 2)
        assert tau2 > tau3


# ---------------------------------------------------------------------------
# parameter calculus
# ---------------------------------------------------------------------------

def test_combine_sum():
    p = kernel.combine_sum([(GscParams(1.0, 2.0), 10.0), (GscParams(2.0, 2.0), 0.1)])
    assert p.m == pytest.approx(2.0) and p.nu == 2.0
    p = kernel.combine_sum([(GscParams(2.0, 3.0), 4.0)])
    assert p.m == pytest.approx(1.0)
    p = kernel.combine_sum([(GscParams(1.0, 3.0), 1.0), (GscParams(3.0, 3.0), 9.0)])
    assert p.m == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        kernel.combine_sum([(GscParams(1.0, 2.0), 1.0), (GscParams(1.0, 3.0), 1.0)])
    with pytest.raises(ParameterError):
        kernel.combine_sum([(GscParams(1.0, 1.5), 1.0)])


def test_transform_affine():
    assert kernel.transform_affine(GscParams(1.0, 2.0), 3.0).m == pytest.approx(3.0)
    assert kernel.transform_affine(GscParams(7.0, 3.0), 123.0).m == pytest.approx(7.0)
    assert kernel.transform_affine(GscParams(1.0, 4.0), 1.0, lam_min_ata=4.0).m == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        kernel.transform_affine(GscParams(1.0, 4.0), 1.0, lam_min_ata=0.0)


def test_reparam():
    p = kernel.reparam(GscParams(1.0, 2.0), "strong_convexity", 1e-5)
    assert p.nu == 3.0 and p.m == pytest.approx(1.0 / math.sqrt(1e-5), rel=1e-12)
    p = kernel.reparam(GscParams(5.0, 3.0), "strong_convexity", 0.123)
    assert p.m == pytest.approx(5.0)
    p = kernel.reparam(GscParams(2.0, 2.0), "lipschitz_gradient", 4.0)
    assert p.nu == 2.0 and p.m == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        kernel.reparam(GscParams(1.0, 3.5), "strong_convexity", 1.0)
    with pytest.raises(ParameterError):
        kernel.reparam(GscParams(1.0, 1.0), "lipschitz_gradient", 1.0)


def test_conjugate_params():
    assert kernel.conjugate_params(GscParams(9.0, 3.0), 5).nu == 3.0
    p = kernel.conjugate_params(GscParams(1.0, 4.0), 5)
    assert p.nu == 2.0 and p.m == 1.0
    assert kernel.conjugate_params(GscParams(1.0, 2.0), 1).nu == 4.0
    with pytest.raises(ParameterError):
        kernel.conjugate_params(GscParams(1.0, 2.0), 2)


# ---------------------------------------------------------------------------
# phase-2 thresholds
# ---------------------------------------------------------------------------

def test_phase2_newton():
    th = kernel.phase2_threshold(2.0, "newton")
    assert th.d_star == 0.12964
    assert th.equation_root == pytest.approx(0.12964, abs=5e-5)
    th3 = kernel.phase2_threshold(3.0, "newton")
    assert th3.d_star == 0.5
    assert th3.equation_root == pytest.approx(0.5, abs=1e-9)
    assert th3.entry_lambda_max(4.0) == pytest.approx(1.0 / 8.0)
    assert math.isinf(th3.entry_lambda_max(0.0))
    mid = kernel.phase2_threshold(2.5, "newton")
    # root of (nu-2) R_nu(d) = 4 (1-d)^((4-nu)/(nu-2))
    lhs = 0.5 * kernel.r_nu(2.5, mid.d_star)
    rhs = 4.0 * (1.0 - mid.d_star) ** 3.0
    assert lhs == pytest.approx(rhs, rel=1e-7)


def test_phase2_prox_newton():
    th3 = kernel.phase2_threshold(3.0, "prox_newton")
    assert th3.d_star == 0.20943
    assert th3.equation_root == pytest.approx(1.0 - math.sqrt(5.0 / 8.0), abs=1e-9)
    th2 = kernel.phase2_threshold(2.0, "prox_newton")
    assert th2.d_star == 0.35482
    # the contraction-factor equation root is much smaller than the printed
    # constant; it is exposed for inspection rather than silently replaced
    assert th2.equation_root < 0.1
    mid = kernel.phase2_threshold(2.5, "prox_newton")
    assert 0.0 < mid.d_star < 1.0 - 2.0 ** (-0.25)


def test_entry_rules():
    th = kernel.phase2_threshold(2.0, "newton")
    assert th.entry_lambda_max(2.0, sigma_min=4.0) == pytest.approx(0.12964)
    with pytest.raises(ParameterError):
        th.entry_lambda_max(2.0)  # nu < 3 needs sigma_min
    mid = kernel.phase2_threshold(2.5, "newton")
    lam_max = mid.entry_lambda_max(1.0, sigma_min=1.0)
    assert lam_max == pytest.approx(min(2.0 * mid.d_star / 0.5, 0.5))


# ---------------------------------------------------------------------------
# empirical certificates for the produced parameters (scalar composites)
# ---------------------------------------------------------------------------

def _max_gsc_ratio(d2, d3, ts, nu):
    vals2 = np.array([d2(t) for t in ts])
    vals3 = np.abs([d3(t) for t in ts])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = vals3 / vals2 ** (nu / 2.0)
    ratio[(vals3 == 0.0) & (vals2 == 0.0)] = 0.0
    return float(np.max(ratio))


def test_combine_sum_certificate():
    from gscopt import atoms
    lb, eb = atoms.log_barrier(), atoms.entropy_barrier()
    w1, w2 = 0.3, 2.5
    p = kernel.combine_sum([(lb.params, w1), (eb.params, w2)])
    ts = np.linspace(0.01, 50.0, 1000)
    d2 = lambda t: w1 * atoms.atom_eval(lb, t, 2) + w2 * atoms.atom_eval(eb, t, 2)
    d3 = lambda t: w1 * atoms.atom_eval(lb, t, 3) + w2 * atoms.atom_eval(eb, t, 3)
    assert _max_gsc_ratio(d2, d3, ts, p.nu) <= p.m * (1.0 + 1e-9)


def test_transform_affine_certificate():
    from gscopt import atoms
    lg = atoms.logistic()
    a_coef, b_coef = 3.0, 1.0
    p = kernel.transform_affine(lg.params, a_coef)
    assert p.m == pytest.approx(3.0)
    ts = np.linspace(-10.0, 10.0, 1000)
    d2 = lambda t: a_coef**2 * atoms.atom_eval(lg, a_coef * t + b_coef, 2)
    d3 = lambda t: a_coef**3 * atoms.atom_eval(lg, a_coef * t + b_coef, 3)
    assert _max_gsc_ratio(d2, d3, ts, p.nu) <= p.m * (1.0 + 1e-9)


def test_reparam_certificates():
    from gscopt import atoms
    lg = atoms.logistic()
    mu = 1e-3
    p3 = kernel.reparam(lg.params, "strong_convexity", mu)
    ts = np.linspace(-15.0, 15.0, 1000)
    d2 = lambda t: atoms.atom_eval(lg, t, 2) + mu
    d3 = lambda t: atoms.atom_eval(lg, t, 3)
    assert _max_gsc_ratio(d2, d3, ts, 3.0) <= p3.m * (1.0 + 1e-9)
    # Lipschitz route: sqrt-smoothed l1 has nu = 8/3 and phi'' <= 1/gamma
    gamma = 0.25
    sq = atoms.smoothed_l1(gamma, "sqrt")
    p2 = kernel.reparam(sq.params, "lipschitz_gradient", 1.0 / gamma)
    d2 = lambda t: atoms.atom_eval(sq, t, 2)
    d3 = lambda t: atoms.atom_eval(sq, t, 3)
    assert _max_gsc_ratio(d2, d3, ts, 2.0) <= p2.m * (1.0 + 1e-9)
