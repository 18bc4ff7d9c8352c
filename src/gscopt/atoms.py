"""Univariate loss atoms with analytic derivatives of order 0..3 and certified (M, nu).

Each atom is an immutable value: a scalar convex function phi together
with its open domain and the smallest constants (M, nu) for which
|phi'''(t)| <= M phi''(t)^(nu/2) holds on the whole domain.  Derivatives
are closed forms (no finite differences); the logistic and cosh-based
atoms use overflow-safe evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError, UnboundedError
from .kernel import GscParams, _bisect_increasing

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class LossAtom:
    kind: str
    params: GscParams
    domain: tuple[float, float]
    _derivs: tuple[Callable, Callable, Callable, Callable] = field(repr=False)
    #: global sup of phi'' (inf when unbounded); feeds Lipschitz-gradient estimates
    d2_sup: float = math.inf

    def __call__(self, t, order=0):
        return atom_eval(self, t, order)

    @property
    def bounded(self) -> bool:
        """False when the domain is the whole real line."""
        return self.domain != (-math.inf, math.inf)


def inside(domain: tuple[float, float], t):
    """The mask of t strictly inside the open interval domain; NaN is never inside."""
    lo, hi = domain
    return (t > lo) & (t < hi) if hi < math.inf else t > lo


def _check_domain(atom, t):
    if not np.all(inside(atom.domain, np.asarray(t, dtype=float))):
        lo, hi = atom.domain
        raise DomainError(f"{atom.kind}: argument outside open domain ({lo}, {hi})")


def atom_eval(atom: LossAtom, t, order: int = 0):
    """phi, phi', phi'' or phi''' at t (scalar or ndarray)."""
    if order not in (0, 1, 2, 3):
        raise ParameterError(f"order must be in 0..3, got {order}")
    _check_domain(atom, t)
    t = np.asarray(t, dtype=float)
    out = atom._derivs[order](t)
    if np.ndim(t) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Atom constructors
# ---------------------------------------------------------------------------

def _sigmoid_pair(t):
    """(sigmoid(t), sigmoid(-t)) from one exp: expit without the scipy import.

    With e = exp(-|t|), the sigmoid of the nonnegative one of t, -t is
    1/(1+e) and the other is e/(1+e), so neither overflows.
    """
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    big, small = 1.0 / d, e / d
    return np.where(t >= 0, big, small), np.where(t <= 0, big, small)


def logistic() -> LossAtom:
    """phi(t) = ln(1 + e^(-t)); (M, nu) = (1, 2)."""

    def f0(t):
        return np.maximum(-t, 0.0) + np.log1p(np.exp(-np.abs(t)))

    def f1(t):
        return -_sigmoid_pair(t)[1]

    def f2(t):
        s, s_neg = _sigmoid_pair(t)
        return s * s_neg

    def f3(t):
        s, s_neg = _sigmoid_pair(t)
        return s * s_neg * (1.0 - 2.0 * s)

    return LossAtom("logistic", GscParams(1.0, 2.0), (-math.inf, math.inf), (f0, f1, f2, f3), d2_sup=0.25)


def exponential() -> LossAtom:
    """phi(t) = e^(-t); (M, nu) = (1, 2)."""
    e = lambda t: np.exp(-t)
    return LossAtom(
        "exponential", GscParams(1.0, 2.0), (-math.inf, math.inf),
        (e, lambda t: -np.exp(-t), e, lambda t: -np.exp(-t)),
    )


def _power(p):
    """t^p and its first three derivatives: the closed forms of both power atoms."""
    return (
        lambda t: t**p,
        lambda t: p * t ** (p - 1.0),
        lambda t: p * (p - 1.0) * t ** (p - 2.0),
        lambda t: p * (p - 1.0) * (p - 2.0) * t ** (p - 3.0),
    )


def neg_power(q: float) -> LossAtom:
    """phi(t) = t^(-q) on (0, inf); nu = 2(q+3)/(q+2), M = (q+2)/(q(q+1))^(1/(q+2))."""
    if q <= 0.0:
        raise ParameterError(f"neg_power requires q > 0, got {q}")
    nu = 2.0 * (q + 3.0) / (q + 2.0)
    m = (q + 2.0) / (q * (q + 1.0)) ** (1.0 / (q + 2.0))
    return LossAtom(f"neg_power(q={q})", GscParams(m, nu), (0.0, math.inf), _power(-q))


def entropy() -> LossAtom:
    """phi(t) = t ln t on (0, inf); (M, nu) = (1, 4)."""
    return LossAtom(
        "entropy", GscParams(1.0, 4.0), (0.0, math.inf),
        (
            lambda t: t * np.log(t),
            lambda t: np.log(t) + 1.0,
            lambda t: 1.0 / t,
            lambda t: -1.0 / t**2,
        ),
    )


def log_barrier() -> LossAtom:
    """phi(t) = -ln t on (0, inf); (M, nu) = (2, 3)."""
    return LossAtom(
        "log_barrier", GscParams(2.0, 3.0), (0.0, math.inf),
        (
            lambda t: -np.log(t),
            lambda t: -1.0 / t,
            lambda t: 1.0 / t**2,
            lambda t: -2.0 / t**3,
        ),
    )


def entropy_barrier() -> LossAtom:
    """phi(t) = t ln t - ln t on (0, inf); (M, nu) = (2, 3)."""
    return LossAtom(
        "entropy_barrier", GscParams(2.0, 3.0), (0.0, math.inf),
        (
            lambda t: (t - 1.0) * np.log(t),
            lambda t: np.log(t) + 1.0 - 1.0 / t,
            lambda t: 1.0 / t + 1.0 / t**2,
            lambda t: -1.0 / t**2 - 2.0 / t**3,
        ),
    )


def positive_power(q: float) -> LossAtom:
    """phi(t) = t^q on (0, inf) for q in (1,2); nu = 2(3-q)/(2-q), M = (2-q)/(q(q-1))^(1/(2-q))."""
    if not (1.0 < q < 2.0):
        raise ParameterError(f"positive_power requires q in (1, 2), got {q}")
    nu = 2.0 * (3.0 - q) / (2.0 - q)
    try:
        m = (2.0 - q) / (q * (q - 1.0)) ** (1.0 / (2.0 - q))
    except OverflowError:  # near q = 2 the power leaves the float range
        m = 0.0
    if not 0.0 < m < math.inf:
        raise ParameterError(f"positive_power(q={q}): M is below the float range")
    return LossAtom(f"positive_power(q={q})", GscParams(m, nu), (0.0, math.inf), _power(q))


def _scaled_log_cosh(gamma):
    """gamma ln cosh(t/gamma) and its first three derivatives, overflow-safe."""

    def f0(t):
        # ln cosh u = |u| + log1p(e^(-2|u|)) - ln 2
        a = np.abs(t / gamma)
        return gamma * (a + np.log1p(np.exp(-2.0 * a)) - _LOG2)

    def f1(t):
        return np.tanh(t / gamma)

    def f2(t):
        return (1.0 - np.tanh(t / gamma) ** 2) / gamma

    def f3(t):
        th = np.tanh(t / gamma)
        return -2.0 * th * (1.0 - th**2) / gamma**2

    return f0, f1, f2, f3


def smoothed_l1(gamma: float, variant: str = "logsumexp") -> LossAtom:
    """Smoothed absolute value.

    logsumexp: phi(t) = gamma ln((e^(t/gamma) + e^(-t/gamma))/2), nu = 2.
        The inner ln cosh has |h'''|/h'' = 2|tanh| <= 2, so M = 2; the
        1/gamma argument scaling multiplies it by (1/gamma)^(3-2): M = 2/gamma.
    sqrt: phi(t) = sqrt(t^2 + gamma^2) - gamma, nu = 8/3, M = 3 gamma^(-2/3);
        satisfies |phi(t) - |t|| <= gamma pointwise.
    """
    if gamma <= 0.0:
        raise ParameterError(f"smoothed_l1 requires gamma > 0, got {gamma}")
    if variant == "logsumexp":
        return LossAtom(
            f"smoothed_l1_logsumexp(gamma={gamma})", GscParams(2.0 / gamma, 2.0),
            (-math.inf, math.inf), _scaled_log_cosh(gamma), d2_sup=1.0 / gamma,
        )
    if variant == "sqrt":
        g2 = gamma**2

        def s0(t):
            return np.sqrt(t**2 + g2) - gamma

        def s1(t):
            return t / np.sqrt(t**2 + g2)

        def s2(t):
            return g2 / (t**2 + g2) ** 1.5

        def s3(t):
            return -3.0 * g2 * t / (t**2 + g2) ** 2.5

        return LossAtom(
            f"smoothed_l1_sqrt(gamma={gamma})", GscParams(3.0 * gamma ** (-2.0 / 3.0), 8.0 / 3.0),
            (-math.inf, math.inf), (s0, s1, s2, s3), d2_sup=1.0 / gamma,
        )
    raise ParameterError(f"unknown smoothed_l1 variant {variant!r}")


def smoothed_hinge(gamma: float) -> LossAtom:
    """phi(t) = f(1-t) + (1-t)/2 with f the logsumexp smoothed_l1(gamma), nu = 2.

    The affine argument 1-t and the linear tail leave f's (M, nu) =
    (2/gamma, 2) unchanged.
    """
    if gamma <= 0.0:
        raise ParameterError(f"smoothed_hinge requires gamma > 0, got {gamma}")
    f0, f1, f2, f3 = _scaled_log_cosh(gamma)
    return LossAtom(
        f"smoothed_hinge(gamma={gamma})", GscParams(2.0 / gamma, 2.0), (-math.inf, math.inf),
        (
            lambda t: f0(1.0 - t) + (1.0 - t) / 2.0,
            lambda t: -f1(1.0 - t) - 0.5,
            lambda t: f2(1.0 - t),
            lambda t: -f3(1.0 - t),
        ),
        d2_sup=1.0 / gamma,
    )


# ---------------------------------------------------------------------------
# Certificates and conjugates
# ---------------------------------------------------------------------------

def gsc_certificate(atom: LossAtom, interval: tuple[float, float], samples: int = 2001) -> float:
    """max over a grid of |phi'''| / phi''^(nu/2), with 0/0 counted as 0.

    The certificate passes iff the returned ratio is <= M (1 + 1e-9).
    """
    lo, hi = interval
    if samples < 2:
        raise ParameterError("samples must be >= 2")
    if not (atom.domain[0] < lo < hi < atom.domain[1]):
        raise DomainError(f"interval {interval} exits domain {atom.domain} of {atom.kind}")
    t = np.linspace(lo, hi, samples)
    d2 = np.asarray(atom._derivs[2](t), dtype=float)
    d3 = np.abs(np.asarray(atom._derivs[3](t), dtype=float))
    nu = atom.params.nu
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d3 / d2 ** (nu / 2.0)
    ratio[(d3 == 0.0) & (d2 == 0.0)] = 0.0
    if np.any(~np.isfinite(ratio)):
        return math.inf
    return float(ratio.max())


def certificate_passes(atom: LossAtom, interval: tuple[float, float], samples: int = 2001) -> bool:
    return gsc_certificate(atom, interval, samples) <= atom.params.m * (1.0 + 1e-9)


def numeric_conjugate(atom: LossAtom, t: float, tol: float = 1e-10, reflected: bool = False) -> float:
    """sup_u { t u - phi(u) }: the root u of phi'(u) = t by kernel bisection to width tol.

    With reflected=True the conjugate of u -> phi(-u) is computed instead
    (equal to the plain conjugate at -t), which turns the decreasing losses
    (exponential, logistic) into their conventional increasing forms.
    Raises UnboundedError when t is outside the conjugate domain.
    """
    if reflected:
        t = -t
    lo, hi = atom.domain

    def dphi(u):
        return atom._derivs[1](np.asarray(u, dtype=float))

    # Bracket the root of phi'(u) = t inside the open domain.  phi' is
    # strictly increasing, so expand geometrically from a interior point.
    if math.isfinite(lo) and math.isfinite(hi):
        a, b = lo + 1e-12 * (hi - lo), hi - 1e-12 * (hi - lo)
    else:
        center = 0.0 if lo < 0.0 < hi else (lo + 1.0 if math.isfinite(lo) else hi - 1.0)
        a = b = center
        step = 1.0
        while dphi(a) > t and step < 1e18:
            na = a - step
            if na <= lo:
                na = lo + (a - lo) / 2.0
            a, step = na, step * 2.0
        step = 1.0
        while dphi(b) < t and step < 1e18:
            nb = b + step
            if nb >= hi:
                nb = hi - (hi - b) / 2.0
            b, step = nb, step * 2.0
    if not (dphi(a) <= t <= dphi(b)):
        raise UnboundedError(
            f"{atom.kind}: conjugate unbounded at t={-t if reflected else t} (slope range exceeded)"
        )

    u = _bisect_increasing(lambda u: dphi(u) - t, a, b, tol)
    return t * u - float(atom._derivs[0](np.asarray(u, dtype=float)))


#: Atoms with fixed parameters, used by certificates and the CLI.
def standard_atoms() -> dict[str, tuple[LossAtom, tuple[float, float]]]:
    """Shipped atoms with a representative certificate interval each."""
    return {
        "logistic": (logistic(), (-20.0, 20.0)),
        "exponential": (exponential(), (-5.0, 5.0)),
        "neg_power_q1": (neg_power(1.0), (0.05, 50.0)),
        "neg_power_q2": (neg_power(2.0), (0.05, 50.0)),
        "entropy": (entropy(), (0.01, 100.0)),
        "log_barrier": (log_barrier(), (0.01, 100.0)),
        "entropy_barrier": (entropy_barrier(), (0.01, 100.0)),
        "positive_power_q15": (positive_power(1.5), (0.01, 100.0)),
        "smoothed_l1_logsumexp": (smoothed_l1(0.2, "logsumexp"), (-10.0, 10.0)),
        "smoothed_l1_sqrt": (smoothed_l1(0.2, "sqrt"), (-10.0, 10.0)),
        "smoothed_hinge": (smoothed_hinge(0.2), (-10.0, 10.0)),
    }
