"""Scalar kernel functions and parameter calculus for generalized self-concordance.

Everything here is a pure function of its arguments.  The omega family
(omega, omega_bar, omega_bar_bar) and the kappa bounds are the univariate
profile functions that control all function-value / gradient / Hessian
sandwich bounds; step_size and descent_estimate implement the analytic
damped Newton step; phase2_threshold computes the entry constants of the
full-step (quadratic) phase by _bisect_increasing, the package's one
scalar root finder.

Branch conventions: nu == 2 is the exponential regime, nu > 2 the
(1 - tau)-power regime with domain tau < 1.  All four 0/0 formulas use a
4-term Taylor series for small tau to avoid cancellation; elsewhere the
closed forms are evaluated through expm1/log1p so the relative error stays
near machine precision even for small tau.  The series coefficients grow
like c^k with c = 2/(nu-2), so the switch tests c |tau| (see _use_series):
near nu = 2+ a 4-term series in |tau| alone is far outside its range.
Where e^tau, (1 - tau)^k or tau^2 alone leaves the float range, the value
is taken in log space, and a value beyond the float range is math.inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, ParameterError

# Switch point between closed forms and their Taylor series, on the scaled
# argument max(1, 2/(nu-2)) |tau|.
SERIES_TOL = 1e-4

# log of the largest float: math.exp overflows above it
_LOG_MAX = math.log(1.7976931348623157e308)

# Quadratic-phase entry constants printed in the source analysis.  The
# solvers use these values; phase2_threshold additionally exposes the root
# of the defining equation for inspection (they agree for the plain Newton
# nu=2 case but not for the proximal nu=2 case, see phase2_threshold).
D2_STAR_NEWTON = 0.12964
D2_STAR_PROX = 0.35482
D3_STAR_PROX = 0.20943


@dataclass(frozen=True)
class GscParams:
    """Certificate pair (m, nu): |<D^3 f(x)[v] u, u>| <= m ||u||_x^2 ||v||_x^(nu-2) ||v||_2^(3-nu)."""

    m: float
    nu: float

    def __post_init__(self):
        if not (self.m >= 0.0):
            raise ParameterError(f"m must be nonnegative, got {self.m}")
        if not (self.nu > 0.0):
            raise ParameterError(f"nu must be positive, got {self.nu}")

    def require_solver_range(self):
        if not (2.0 <= self.nu <= 3.0):
            raise ParameterError(
                f"solvers require nu in [2, 3], got nu={self.nu}"
            )


def _check_tau_domain(nu, tau, name="tau"):
    if nu > 2.0 and tau >= 1.0:
        raise DomainError(f"{name}={tau} outside domain: requires {name} < 1 for nu={nu} > 2")


def _require_nu(nu):
    if nu < 2.0:
        raise ParameterError(f"kernel functions require nu >= 2, got {nu}")


def _rising(c, k):
    """c (c+1) ... (c+k-1), with the empty product equal to 1."""
    out = 1.0
    for j in range(k):
        out *= c + j
    return out


def _exp(t):
    """math.exp, with math.inf where the result exceeds the float range."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _over_square(num, tau):
    """num / tau**2, also where tau**2 alone leaves the float range (|tau| > 1e154)."""
    try:
        return num / tau**2
    except OverflowError:
        return num / tau / tau


def _use_series(nu, tau):
    """True where the 4-term series beats the closed form: c |tau| < SERIES_TOL.

    c = max(1, 2/(nu-2)) bounds the growth rate of the series coefficients
    (c = 1 for nu = 2); the truncation error is then O((c tau)^4).
    """
    c = 1.0 if nu == 2.0 else max(1.0, 2.0 / (nu - 2.0))
    return c * abs(tau) < SERIES_TOL


def _series_coeffs(nu: float) -> list[float]:
    """First four Taylor coefficients a_k of omega_bar_bar(nu, tau) = sum_k a_k tau^k."""
    if nu == 2.0:
        return [1.0, 1.0, 0.5, 1.0 / 6.0]
    c = 2.0 / (nu - 2.0)
    return [_rising(c, k) / math.factorial(k) for k in range(4)]


def omega(nu: float, tau: float) -> float:
    """Function-value profile: f(y) - f(x) - <grad, y-x> lies in [omega(-d), omega(d)] ||y-x||_x^2.

    omega(nu, 0) = 1/2 for every nu.
    """
    _require_nu(nu)
    _check_tau_domain(nu, tau)
    if _use_series(nu, tau):
        # sum_k a_k tau^k / ((k+1)(k+2)) with a_k the omega_bar_bar coefficients
        return sum(a * tau**k / ((k + 1) * (k + 2)) for k, a in enumerate(_series_coeffs(nu)))
    if nu == 2.0:
        if tau > _LOG_MAX:
            # e^tau / tau^2 in log space: e^tau alone leaves the float range
            return _exp(tau - 2.0 * math.log(tau))
        return _over_square(math.expm1(tau) - tau, tau)
    if nu == 3.0:
        return _over_square(-(tau + math.log1p(-tau)), tau)
    if nu == 4.0:
        return _over_square((1.0 - tau) * math.log1p(-tau) + tau, tau)
    # generic nu in (2,3) u (3,4) u (4,inf): ((nu-2)/(nu-4)) (1/tau) [1 - w],
    # w = ((nu-2)/(2(nu-3) tau)) (1 - (1-tau)^(2(nu-3)/(nu-2)))
    kappa_exp = 2.0 * (nu - 3.0) / (nu - 2.0)
    t = kappa_exp * math.log1p(-tau)
    if t > _LOG_MAX:
        # (1-tau)^kappa_exp leaves the float range (nu < 3 with tau near 1, or
        # nu > 4 with tau near -inf): take the w term in log space,
        # (nu-2)^2 / (2 (nu-3)(nu-4)) (1-tau)^kappa_exp / tau^2
        c = (nu - 2.0) ** 2 / (2.0 * (nu - 3.0) * (nu - 4.0))
        return (nu - 2.0) / (nu - 4.0) / tau + _exp(t + math.log(c) - 2.0 * math.log(abs(tau)))
    v = -math.expm1(t)
    w = (nu - 2.0) * v / (2.0 * (nu - 3.0) * tau)
    return (nu - 2.0) / (nu - 4.0) * (1.0 - w) / tau


def omega_bar(nu: float, tau: float) -> float:
    """Gradient profile: <grad f(y)-grad f(x), y-x> lies in [omega_bar(-d), omega_bar(d)] ||y-x||_x^2.

    omega_bar(nu, 0) = 1.
    """
    _require_nu(nu)
    _check_tau_domain(nu, tau)
    if _use_series(nu, tau):
        return sum(a * tau**k / (k + 1) for k, a in enumerate(_series_coeffs(nu)))
    if nu == 2.0:
        if tau > _LOG_MAX:
            return _exp(tau - math.log(tau))
        return math.expm1(tau) / tau
    if nu == 4.0:
        return -math.log1p(-tau) / tau
    e = (nu - 4.0) / (nu - 2.0)
    t = e * math.log1p(-tau)
    if t > _LOG_MAX:
        # nu < 4, tau near 1: (nu-2)/(4-nu) (1-tau)^e / tau in log space
        return _exp(t + math.log((nu - 2.0) / ((4.0 - nu) * tau)))
    return (nu - 2.0) / (nu - 4.0) * (-math.expm1(t)) / tau


def omega_bar_bar(nu: float, tau: float) -> float:
    """Local-norm profile: e^tau for nu=2, (1-tau)^(-2/(nu-2)) for nu>2."""
    _require_nu(nu)
    _check_tau_domain(nu, tau)
    if nu == 2.0:
        return _exp(tau)
    return _exp(-(2.0 / (nu - 2.0)) * math.log1p(-tau))


def kappa_bounds(nu: float, t: float) -> tuple[float, float]:
    """Sandwich constants for the mean Hessian int_0^1 H(x + s(y-x)) ds.

    Returns (lower, upper) with lower <= 1 <= upper; both tend to 1 as t -> 0.
    """
    _require_nu(nu)
    if t < 0.0:
        raise DomainError(f"kappa_bounds requires t >= 0, got {t}")
    _check_tau_domain(nu, t, name="t")
    upper = omega_bar(nu, t)
    if _use_series(nu, t):
        if nu == 2.0:
            a = [1.0, -1.0, 0.5, -1.0 / 6.0]
        else:
            c = 2.0 / (nu - 2.0)
            # coefficients of (1-u)^c: (-1)^k binom(c, k)
            a = [1.0, -c, c * (c - 1.0) / 2.0, -c * (c - 1.0) * (c - 2.0) / 6.0]
        lower = sum(a[k] * t**k / (k + 1) for k in range(4))
        return lower, upper
    if nu == 2.0:
        lower = -math.expm1(-t) / t
    else:
        e = nu / (nu - 2.0)
        lower = (nu - 2.0) / nu * (-math.expm1(e * math.log1p(-t))) / t
    return lower, upper


def r_nu(nu: float, t: float) -> float:
    """Hessian-difference envelope: ||H(x,y)|| <= r_nu(d) d for the mean Hessian deviation.

    Defined for nu in [2, 3] and t in [0, 1).  For nu = 3 this reduces to
    1/(1-t); for nu = 2 it is (3/2 + t/3) e^t.
    """
    if not (2.0 <= nu <= 3.0):
        raise ParameterError(f"r_nu requires nu in [2, 3], got {nu}")
    if not (0.0 <= t < 1.0):
        raise DomainError(f"r_nu requires t in [0, 1), got {t}")
    if nu == 2.0:
        return (1.5 + t / 3.0) * math.exp(t)
    r = (4.0 - nu) / (nu - 2.0)
    if _use_series(nu, t):
        # psi_r(t) = sum_k [prod_{j=1}^{k+1} (r+j)] t^k / (k+2)!
        return sum(_rising(r + 1.0, k + 1) * t**k / math.factorial(k + 2) for k in range(4))
    # 1 - (1+rt)(1-t)^r = -expm1(log1p(rt) + r log1p(-t)), cancellation-free
    rl = r * math.log1p(-t)
    num = -math.expm1(math.log1p(r * t) + rl)
    if rl < -_LOG_MAX:
        # (1-t)^r underflows: divide by it in log space
        return num * _exp(-rl - math.log(r * t * t))
    den = r * t**2 * math.exp(rl)
    return num / den


def d_nu(nu: float, m: float, dist2: float, distx: float) -> float:
    """The mixed distance controlling every sandwich bound.

    M ||y-x||_2 for nu = 2, (nu/2 - 1) M ||y-x||_2^(3-nu) ||y-x||_x^(nu-2)
    otherwise, with 0/0 treated as 0 at coincident points.
    """
    _require_nu(nu)
    if m < 0.0 or dist2 < 0.0 or distx < 0.0:
        raise ParameterError("d_nu arguments must be nonnegative")
    if nu == 2.0:
        return m * dist2
    if dist2 == 0.0 and distx == 0.0:
        return 0.0
    return (nu / 2.0 - 1.0) * m * dist2 ** (3.0 - nu) * distx ** (nu - 2.0)


class StepSize(NamedTuple):
    tau: float
    d_k: float


def step_size(nu: float, m: float, lam: float, beta: float) -> StepSize:
    """Analytic damped-step size maximizing the one-dimensional descent model.

    nu = 2:       tau = ln(1 + beta)/beta with d_k = beta.
    nu in (2,3]:  d_k = (nu/2 - 1) m^(nu-2) lam^(nu-2) beta^(3-nu),
                  tau = (1/d_k) [1 - (1 + ((4-nu)/(nu-2)) d_k)^(-(nu-2)/(4-nu))].

    tau is always in (0, 1]; r d_k <= 1e-14 with r = (4-nu)/(nu-2) returns
    the full step (limit).  The bracket is evaluated as
    -expm1(-log1p(r d_k)/r): as nu -> 2+, r grows without bound while
    r d_k tends to beta, and 1 - (1 + r d_k)^(-1/r) cancels to nothing.
    A nonpositive lam means the iterate is stationary; the full step is
    returned as a harmless convention (callers test convergence first).
    """
    if not (2.0 <= nu <= 3.0):
        raise ParameterError(f"step_size requires nu in [2, 3], got {nu}")
    if m < 0.0 or beta < 0.0:
        raise ParameterError("step_size requires m >= 0 and beta >= 0")
    if lam <= 0.0:
        return StepSize(1.0, 0.0)
    if nu == 2.0:
        d_k = beta
        if d_k <= 1e-14:
            return StepSize(1.0, d_k)
        return StepSize(min(1.0, math.log1p(beta) / beta), d_k)
    d_k = (nu / 2.0 - 1.0) * m ** (nu - 2.0) * lam ** (nu - 2.0) * beta ** (3.0 - nu)
    r = (4.0 - nu) / (nu - 2.0)
    if r * d_k <= 1e-14:
        return StepSize(1.0, d_k)
    tau = -math.expm1(-math.log1p(r * d_k) / r) / d_k
    return StepSize(min(1.0, tau), d_k)


def descent_estimate(nu: float, lam: float, d_k: float, tau: float) -> float:
    """Guaranteed decrease of the analytic step: lam^2 tau - omega(tau d_k) tau^2 lam^2."""
    if lam == 0.0:
        return 0.0
    return lam**2 * tau - omega(nu, tau * d_k) * tau**2 * lam**2


# ---------------------------------------------------------------------------
# Parameter calculus
# ---------------------------------------------------------------------------

def combine_sum(parts: list[tuple[GscParams, float]]) -> GscParams:
    """Parameters of sum_i w_i f_i: nu is shared, M = max_i w_i^(1 - nu/2) M_i."""
    if not parts:
        raise ParameterError("combine_sum needs at least one part")
    nu = parts[0][0].nu
    if nu < 2.0:
        raise ParameterError(f"combine_sum requires nu >= 2, got {nu}")
    m = 0.0
    for p, w in parts:
        if abs(p.nu - nu) > 1e-12:
            raise ParameterError(f"mismatched orders {p.nu} != {nu} in combine_sum")
        if w <= 0.0:
            raise ParameterError(f"weights must be positive, got {w}")
        m = max(m, w ** (1.0 - nu / 2.0) * p.m)
    return GscParams(m, nu)


def transform_affine(p: GscParams, op_norm_a: float, lam_min_ata: float = 0.0) -> GscParams:
    """Parameters of f(Ax + b): M' = M ||A||^(3-nu) for nu <= 3, else M lam_min(A'A)^((3-nu)/2)."""
    if op_norm_a < 0.0 or lam_min_ata < 0.0:
        raise ParameterError("operator norms must be nonnegative")
    if p.nu <= 3.0:
        return GscParams(p.m * op_norm_a ** (3.0 - p.nu), p.nu)
    if lam_min_ata <= 0.0:
        raise ParameterError(
            "affine transform with nu > 3 requires lam_min(A'A) > 0 (over-complete A)"
        )
    return GscParams(p.m * lam_min_ata ** ((3.0 - p.nu) / 2.0), p.nu)


def reparam(p: GscParams, mode: str, constant: float) -> GscParams:
    """Reclassify via strong convexity (-> nu=3) or a Lipschitz gradient (-> nu=2).

    strong_convexity(mu):    (M / mu^((3-nu)/2), 3), valid for nu in (0, 3].
    lipschitz_gradient(L):   (M L^(nu/2 - 1), 2),    valid for nu >= 2.
    """
    if constant <= 0.0:
        raise ParameterError("reparam constant must be positive")
    if mode == "strong_convexity":
        if not (0.0 < p.nu <= 3.0):
            raise ParameterError(f"strong_convexity reparam requires nu in (0, 3], got {p.nu}")
        return GscParams(p.m / constant ** ((3.0 - p.nu) / 2.0), 3.0)
    if mode == "lipschitz_gradient":
        if p.nu < 2.0:
            raise ParameterError(f"lipschitz_gradient reparam requires nu >= 2, got {p.nu}")
        return GscParams(p.m * constant ** (p.nu / 2.0 - 1.0), 2.0)
    raise ParameterError(f"unknown reparam mode {mode!r}")


def conjugate_params(p: GscParams, dim: int) -> GscParams:
    """Parameters of the Fenchel conjugate: (M, 6 - nu).

    Valid for nu in (0, 6) when dim == 1 and nu in [3, 6) when dim > 1.
    """
    if dim < 1:
        raise ParameterError("dim must be a positive integer")
    if dim == 1:
        if not (0.0 < p.nu < 6.0):
            raise ParameterError(f"conjugate requires nu in (0, 6) for dim=1, got {p.nu}")
    elif not (3.0 <= p.nu < 6.0):
        raise ParameterError(f"conjugate requires nu in [3, 6) for dim>1, got {p.nu}")
    return GscParams(p.m, 6.0 - p.nu)


# ---------------------------------------------------------------------------
# Quadratic-phase thresholds
# ---------------------------------------------------------------------------

def _bisect_increasing(fn, lo, hi, tol=1e-10, max_iter=200):
    """Root of an increasing function on [lo, hi] by bisection, to hi - lo <= tol.

    The package's one scalar root finder: the phase-2 constants here,
    atoms.numeric_conjugate and the Frank-Wolfe segment search call it.  It
    also stops once lo and hi are adjacent floats, where no midpoint lies
    between them and further steps would change nothing.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo > 0.0 or fhi < 0.0:
        raise ParameterError("bisection bracket does not contain a sign change")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PhaseTwoThreshold:
    """Entry condition of the full-step quadratic phase.

    d_star is the constant the solver uses (the printed value where one is
    printed, otherwise the bisection root); equation_root is the root of the
    defining contraction-factor equation, exposed for inspection because it
    does not match the printed constant in the proximal nu = 2 case.
    For nu < 3 the entry radius scales with sigma_min(x)^((3-nu)/2), so it
    is 0 (no lambda qualifies) when sigma_min is missing, not positive or
    NaN, as on a singular Hessian.
    """

    solver: str
    nu: float
    d_star: float
    equation_root: float

    def entry_lambda_max(self, m: float, sigma_min: float | None = None) -> float:
        """Largest decrement lambda for which full steps are certified."""
        if m == 0.0:
            return math.inf
        if self.nu == 3.0:
            return min(2.0 * self.d_star, 0.5) / m
        if sigma_min is None or not sigma_min > 0.0:
            return 0.0
        if self.nu == 2.0:
            return self.d_star * math.sqrt(sigma_min) / m
        scale = sigma_min ** ((3.0 - self.nu) / 2.0)
        return scale * min(2.0 * self.d_star / (self.nu - 2.0), 0.5) / m


def phase2_threshold(nu: float, solver: str = "newton") -> PhaseTwoThreshold:
    """Quadratic-phase constant d_star and entry rule for a solver family.

    newton:       nu=2 root of R_2(t) e^t = 2 (printed 0.12964 agrees);
                  nu in (2,3) root of (nu-2) R_nu(d) = 4 (1-d)^((4-nu)/(nu-2));
                  nu=3 closed form d = 1/2, rule lambda < 1/(2 M).
    prox_newton:  nu=2 printed constant 0.35482 (the factor-equation root,
                  exposed as equation_root, differs; the printed value is used);
                  nu=3 root of (1-d)^(-2) = 8/5, i.e. 1 - sqrt(5/8) ~ 0.20943;
                  nu in (2,3) root of
                  (nu/2-1) R_nu(d) (1-d)^(-(4-nu)/(nu-2)) / (2-(1-d)^(-2/(nu-2))) = 2.
    """
    if not (2.0 <= nu <= 3.0):
        raise ParameterError(f"phase2_threshold requires nu in [2, 3], got {nu}")
    if solver not in ("newton", "prox_newton"):
        raise ParameterError(f"unknown solver {solver!r}")

    if solver == "newton":
        if nu == 2.0:
            root = _bisect_increasing(lambda t: r_nu(2.0, t) * math.exp(t) - 2.0, 1e-8, 0.9)
            return PhaseTwoThreshold(solver, nu, D2_STAR_NEWTON, root)
        rexp = (4.0 - nu) / (nu - 2.0)
        root = _bisect_increasing(
            lambda d: (nu - 2.0) * r_nu(nu, d) - 4.0 * (1.0 - d) ** rexp,
            1e-8, 1.0 - 1e-8,
        )
        if nu == 3.0:
            # the equation reduces to (1-d)^2 = 1/4
            return PhaseTwoThreshold(solver, nu, 0.5, root)
        return PhaseTwoThreshold(solver, nu, root, root)

    # proximal Newton
    if nu == 2.0:
        # contraction-factor equation R_2(d) e^d / (2 - e^d) = 2 on (0, ln 2)
        root = _bisect_increasing(
            lambda d: r_nu(2.0, d) * math.exp(d) / (2.0 - math.exp(d)) - 2.0,
            1e-8, math.log(2.0) - 1e-8,
        )
        return PhaseTwoThreshold(solver, nu, D2_STAR_PROX, root)
    ub = 1.0 - 2.0 ** (-(nu - 2.0) / 2.0)

    def factor(d):
        pw = (1.0 - d) ** (-2.0 / (nu - 2.0))
        return (nu / 2.0 - 1.0) * r_nu(nu, d) * (1.0 - d) ** (-(4.0 - nu) / (nu - 2.0)) / (2.0 - pw) - 2.0

    root = _bisect_increasing(factor, 1e-8, ub - 1e-10)
    if nu == 3.0:
        return PhaseTwoThreshold(solver, nu, D3_STAR_PROX, root)
    return PhaseTwoThreshold(solver, nu, root, root)
