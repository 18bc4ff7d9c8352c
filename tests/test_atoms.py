"""Atoms: analytic derivatives vs finite differences, certificates, conjugates."""

import math

import numpy as np
import pytest

from gscopt import atoms
from gscopt.errors import DomainError, ParameterError, UnboundedError


def test_logistic_at_zero():
    lg = atoms.logistic()
    assert atoms.atom_eval(lg, 0.0, 0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert atoms.atom_eval(lg, 0.0, 1) == -0.5
    assert atoms.atom_eval(lg, 0.0, 2) == 0.25
    assert atoms.atom_eval(lg, 0.0, 3) == 0.0


def test_logistic_overflow_safe():
    lg = atoms.logistic()
    assert atoms.atom_eval(lg, 800.0, 0) == pytest.approx(0.0, abs=1e-300)
    assert atoms.atom_eval(lg, -800.0, 0) == pytest.approx(800.0)
    assert np.isfinite(atoms.atom_eval(lg, -800.0, 2))


def test_logistic_sigmoid_edges():
    t = np.array([0.0, -0.0, np.inf, -np.inf, 700.0, -700.0, 710.0, -710.0, 800.0, -800.0])
    s, s_neg = atoms._sigmoid_pair(t)
    e700, e710 = math.exp(-700.0), math.exp(-710.0)
    assert np.array_equal(s, [0.5, 0.5, 1.0, 0.0, 1.0, e700, 1.0, e710, 1.0, 0.0])
    assert np.array_equal(s_neg, [0.5, 0.5, 0.0, 1.0, e700, 1.0, e710, 1.0, 0.0, 1.0])
    lg = atoms.logistic()
    d1, d2, d3 = (lg._derivs[k](t) for k in (1, 2, 3))
    assert np.array_equal(d1, -s_neg)
    assert np.array_equal(d2, [0.25, 0.25, 0.0, 0.0, e700, e700, e710, e710, 0.0, 0.0])
    assert np.array_equal(d3, [0.0, 0.0, 0.0, 0.0, -e700, e700, -e710, e710, 0.0, 0.0])


def test_entropy_values():
    en = atoms.entropy()
    assert atoms.atom_eval(en, 1.0, 0) == 0.0
    assert atoms.atom_eval(en, 1.0, 2) == 1.0
    assert atoms.atom_eval(en, 1.0, 3) == -1.0


def test_neg_power_values():
    npw = atoms.neg_power(1.0)
    assert atoms.atom_eval(npw, 2.0, 0) == 0.5
    assert atoms.atom_eval(npw, 2.0, 2) == 0.25
    assert atoms.atom_eval(npw, 2.0, 3) == -0.375
    p = npw.params
    assert p.m == pytest.approx(3.0 / 2.0 ** (1.0 / 3.0), rel=1e-14)  # ~2.38110
    assert p.nu == pytest.approx(8.0 / 3.0)


def test_table_params():
    assert atoms.logistic().params.m == 1.0 and atoms.logistic().params.nu == 2.0
    assert atoms.exponential().params.m == 1.0 and atoms.exponential().params.nu == 2.0
    assert atoms.log_barrier().params.m == 2.0 and atoms.log_barrier().params.nu == 3.0
    assert atoms.entropy_barrier().params.m == 2.0 and atoms.entropy_barrier().params.nu == 3.0
    assert atoms.entropy().params.m == 1.0 and atoms.entropy().params.nu == 4.0
    pp = atoms.positive_power(1.5)
    assert pp.params.nu == pytest.approx(2.0 * 1.5 / 0.5)
    assert pp.params.m == pytest.approx(0.5 / (1.5 * 0.5) ** 2.0)
    sl = atoms.smoothed_l1(0.4, "sqrt")
    assert sl.params.nu == pytest.approx(8.0 / 3.0)
    assert sl.params.m == pytest.approx(3.0 * 0.4 ** (-2.0 / 3.0))


def test_domain_error():
    with pytest.raises(DomainError):
        atoms.atom_eval(atoms.entropy(), -1.0, 0)
    with pytest.raises(DomainError):
        atoms.atom_eval(atoms.log_barrier(), 0.0, 2)
    with pytest.raises(ParameterError):
        atoms.atom_eval(atoms.logistic(), 0.0, 4)


def _richardson_derivative(f, t, h):
    d1 = (f(t + h) - f(t - h)) / (2.0 * h)
    d2 = (f(t + h / 2.0) - f(t - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


@pytest.mark.parametrize("name", sorted(atoms.standard_atoms()))
def test_derivatives_match_finite_differences(name):
    atom, interval = atoms.standard_atoms()[name]
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    lo = max(interval[0], -8.0)
    hi = min(interval[1], 8.0)
    if atom.domain[0] == 0.0:
        lo = max(lo, 0.05)
    ts = rng.uniform(lo, hi, 200)
    for order in (1, 2, 3):
        f = lambda t: atoms.atom_eval(atom, t, order - 1)
        for t in ts:
            want = _richardson_derivative(f, t, 1e-5)
            got = atoms.atom_eval(atom, float(t), order)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6), (name, order, t)


@pytest.mark.parametrize("name", sorted(atoms.standard_atoms()))
def test_certificates(name):
    atom, interval = atoms.standard_atoms()[name]
    ratio = atoms.gsc_certificate(atom, interval, 4001)
    assert ratio <= atom.params.m * (1.0 + 1e-9), (name, ratio, atom.params.m)
    assert atoms.certificate_passes(atom, interval, 4001)


def test_certificate_exact_ratios():
    # exponential and entropy meet their bound with equality everywhere
    assert atoms.gsc_certificate(atoms.exponential(), (-5.0, 5.0), 101) == pytest.approx(1.0, rel=1e-13)
    assert atoms.gsc_certificate(atoms.entropy(), (0.01, 100.0), 101) == pytest.approx(1.0, rel=1e-13)
    assert atoms.gsc_certificate(atoms.logistic(), (-20.0, 20.0), 4001) <= 1.0
    with pytest.raises(DomainError):
        atoms.gsc_certificate(atoms.log_barrier(), (-1.0, 1.0), 11)


def test_convexity_on_grid():
    for name, (atom, interval) in atoms.standard_atoms().items():
        t = np.linspace(interval[0], interval[1], 501)
        d2 = np.array([atoms.atom_eval(atom, float(ti), 2) for ti in t])
        assert np.all(d2 >= 0.0), name


def test_numeric_conjugate_closed_forms():
    # reflected exponential: conj of e^u is t ln t - t
    ex = atoms.exponential()
    assert atoms.numeric_conjugate(ex, 1.0, 1e-10, reflected=True) == pytest.approx(-1.0, abs=1e-8)
    for t in np.linspace(0.1, 5.0, 50):
        got = atoms.numeric_conjugate(ex, float(t), 1e-12, reflected=True)
        assert got == pytest.approx(t * math.log(t) - t, abs=1e-8)
    # entropy: conj is e^(t-1)
    en = atoms.entropy()
    assert atoms.numeric_conjugate(en, 1.0, 1e-10) == pytest.approx(1.0, abs=1e-8)
    for t in np.linspace(-2.0, 2.0, 50):
        got = atoms.numeric_conjugate(en, float(t), 1e-12)
        assert got == pytest.approx(math.exp(t - 1.0), abs=1e-8)
    # reflected logistic (logistic growth): conj is t ln t + (1-t) ln(1-t)
    lg = atoms.logistic()
    assert atoms.numeric_conjugate(lg, 0.5, 1e-10, reflected=True) == pytest.approx(
        -math.log(2.0), abs=1e-8)
    for t in np.linspace(0.02, 0.98, 50):
        got = atoms.numeric_conjugate(lg, float(t), 1e-12, reflected=True)
        want = t * math.log(t) + (1.0 - t) * math.log(1.0 - t)
        assert got == pytest.approx(want, abs=1e-8)


def test_numeric_conjugate_unbounded():
    with pytest.raises(UnboundedError):
        atoms.numeric_conjugate(atoms.logistic(), 1.5, reflected=True)
    with pytest.raises(UnboundedError):
        atoms.numeric_conjugate(atoms.exponential(), -0.5, reflected=True)


def test_conjugate_parameter_map_spot_checks():
    # value-level sanity that conjugation sends nu -> 6 - nu within ranges:
    # entropy (nu=4) conjugates to e^(t-1), itself (1, 2)-style smooth; check
    # the numeric conjugate second derivative matches 1/phi''(u*) at a point
    en = atoms.entropy()
    t0, h = 0.3, 1e-4
    vals = [atoms.numeric_conjugate(en, t0 + k * h, 1e-12) for k in (-1, 0, 1)]
    second = (vals[0] - 2.0 * vals[1] + vals[2]) / h**2
    # u* solves ln u + 1 = t -> u* = e^(t-1); conj'' = 1/phi''(u*) = u*
    assert second == pytest.approx(math.exp(t0 - 1.0), rel=1e-4)


def test_smoothed_l1_sqrt_uniform_bound():
    gamma = 0.3
    sl = atoms.smoothed_l1(gamma, "sqrt")
    t = np.linspace(-5.0, 5.0, 401)
    vals = np.array([atoms.atom_eval(sl, float(ti), 0) for ti in t])
    assert np.all(np.abs(vals - np.abs(t)) <= gamma + 1e-15)


def test_smoothed_hinge_shape():
    # the gamma -> 0 limit of the implemented form is |1-t| + (1-t)/2
    sh = atoms.smoothed_hinge(0.05)
    for t in (-2.0, 0.0, 0.99, 1.01, 3.0):
        want = abs(1.0 - t) + (1.0 - t) / 2.0
        assert atoms.atom_eval(sh, t, 0) == pytest.approx(want, abs=0.05)
    # minimized at t = 1 (the kink of the underlying nonsmooth loss)
    ts = np.linspace(-3.0, 4.0, 701)
    vals = [atoms.atom_eval(sh, float(t), 0) for t in ts]
    assert abs(ts[int(np.argmin(vals))] - 1.0) < 0.2


# The power and ln-cosh atoms share one implementation each; these pin every
# derivative to the closed form written out per atom, bit for bit.

def _log_cosh(u):
    a = np.abs(u)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


_POSITIVE_GRID = np.logspace(-3.0, 3.0, 601)
_REAL_GRID = np.linspace(-40.0, 40.0, 801)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_neg_power_closed_form(q):
    t = _POSITIVE_GRID
    want = (t ** (-q), -q * t ** (-q - 1.0), q * (q + 1.0) * t ** (-q - 2.0),
            -q * (q + 1.0) * (q + 2.0) * t ** (-q - 3.0))
    for k in range(4):
        assert np.array_equal(atoms.neg_power(q)(t, k), want[k])


@pytest.mark.parametrize("q", [1.1, 1.5, 1.9])
def test_positive_power_closed_form(q):
    t = _POSITIVE_GRID
    want = (t**q, q * t ** (q - 1.0), q * (q - 1.0) * t ** (q - 2.0),
            q * (q - 1.0) * (q - 2.0) * t ** (q - 3.0))
    for k in range(4):
        assert np.array_equal(atoms.positive_power(q)(t, k), want[k])


def test_positive_power_refuses_a_q_whose_m_leaves_the_float_range():
    # M = (2-q)/(q(q-1))^(1/(2-q)) is 4.2e-304 at q = 1.999 and below any float at 1.9999
    assert atoms.positive_power(1.999).params.m > 0.0
    with pytest.raises(ParameterError, match=r"q=1\.9999"):
        atoms.positive_power(1.9999)


@pytest.mark.parametrize("gamma", [0.05, 0.2, 1.9])
def test_smoothed_l1_logsumexp_closed_form(gamma):
    t = _REAL_GRID
    th = np.tanh(t / gamma)
    want = (gamma * _log_cosh(t / gamma), th, (1.0 - th**2) / gamma,
            -2.0 * th * (1.0 - th**2) / gamma**2)
    for k in range(4):
        assert np.array_equal(atoms.smoothed_l1(gamma, "logsumexp")(t, k), want[k])


@pytest.mark.parametrize("gamma", [0.05, 0.2, 1.9])
def test_smoothed_hinge_closed_form(gamma):
    t = _REAL_GRID
    th = np.tanh((1.0 - t) / gamma)
    want = (gamma * _log_cosh((1.0 - t) / gamma) + (1.0 - t) / 2.0, -th - 0.5,
            (1.0 - th**2) / gamma, 2.0 * th * (1.0 - th**2) / gamma**2)
    for k in range(4):
        assert np.array_equal(atoms.smoothed_hinge(gamma)(t, k), want[k])
