"""Acceptance matrix: the 12 scaled-down quantitative checks that gate a release.

Each criterion is a check registered by @_criterion, which times it against
its limit and returns a CriterionResult; run_all executes the requested
subset and the CLI `bench` command renders the table.  The same functions
back tests/test_acceptance.py so `pytest` and `gscopt bench` always agree.
Reference values use 50-digit arithmetic (mpmath) where the criterion
demands it; everything is seeded and deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from . import atoms, bench_io, kernel, linops, models, quasi_newton
from .newton import SolveOptions, linesearch_step, minimize
from .prox import ProxSpec, project_simplex, prox_apply
from .prox_newton import CompositeProblem, minimize_composite


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    runtime: float
    limit: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.cid:2d} [{status}] {self.name:<28s} "
                f"{self.runtime:6.2f}s/{self.limit:.0f}s  {self.detail}")


#: criterion id -> its timed check, filled in by @_criterion
CRITERIA: dict[int, Callable[[], CriterionResult]] = {}


def _criterion(cid: int, name: str, limit: float):
    """Register check() -> (passed, detail) as criterion cid, failed if it takes limit s."""
    def register(check):
        @functools.wraps(check)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check()
            dt = time.perf_counter() - t0
            return CriterionResult(cid, name, passed and dt < limit, dt, limit, detail)
        CRITERIA[cid] = run
        return run
    return register


def _report(problems: list[str], success: str) -> str:
    return "; ".join(problems) if problems else success


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

def logistic_toy(n=200, p=20, seed=11, gamma=1e-5):
    a, labels = bench_io.gen_logistic(n, p, seed=seed)
    return models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=gamma)


def portfolio_toy(n=50, p=10, seed=7):
    return models.PortfolioModel(bench_io.gen_portfolio(n, p, seed=seed))


def _mp_funcs():
    """50-digit closed forms of the kernel profile functions."""
    from mpmath import mp, mpf, exp, log

    mp.dps = 50
    one = mpf(1)

    def om(nu, tau):
        nu, tau = mpf(nu), mpf(tau)
        if tau == 0:
            return mpf("0.5")
        if nu == 2:
            return (exp(tau) - tau - 1) / tau**2
        if nu == 3:
            return (-tau - log(1 - tau)) / tau**2
        if nu == 4:
            return ((1 - tau) * log(1 - tau) + tau) / tau**2
        c = (nu - 2) / (2 * (3 - nu) * tau) * ((1 - tau) ** (2 * (3 - nu) / (2 - nu)) - 1)
        return (nu - 2) / (4 - nu) / tau * (c - 1)

    def ob(nu, tau):
        nu, tau = mpf(nu), mpf(tau)
        if tau == 0:
            return one
        if nu == 2:
            return (exp(tau) - 1) / tau
        if nu == 4:
            return log(1 - tau) / (-tau)
        return (nu - 2) / (nu - 4) * (1 - (1 - tau) ** ((nu - 4) / (nu - 2))) / tau

    def obb(nu, tau):
        nu, tau = mpf(nu), mpf(tau)
        if nu == 2:
            return exp(tau)
        return (1 - tau) ** (-2 / (nu - 2))

    def kl(nu, t):
        nu, t = mpf(nu), mpf(t)
        if t == 0:
            return one
        if nu == 2:
            return (1 - exp(-t)) / t
        return (nu - 2) / nu * (1 - (1 - t) ** (nu / (nu - 2))) / t

    def rn(nu, t):
        nu, t = mpf(nu), mpf(t)
        if nu == 2:
            return (mpf(3) / 2 + t / 3) * exp(t)
        r = (4 - nu) / (nu - 2)
        if t == 0:
            return (r + 1) / 2
        return (1 - (1 - t) ** r - r * t * (1 - t) ** r) / (r * t**2 * (1 - t) ** r)

    return om, ob, obb, kl, rn


def _grid(include_negative=True):
    pts = list(np.linspace(-0.9 if include_negative else 0.0, 0.9, 800))
    small = np.logspace(-8, -3.2, 100)
    pts.extend(small)
    pts.extend(-small if include_negative else small / 2.0)
    return np.asarray(pts[:1000])


@_criterion(1, "kernel exactness", 5.0)
def criterion_1():
    """Kernel functions match 50-digit references to 1e-12 (1e-10 near the series switch)."""
    om, ob, obb, kl, rn = _mp_funcs()
    worst = 0.0
    worst_at = ""
    for nu in (2.0, 2.5, 3.0, 4.0):
        taus = _grid()
        for fn, ref in ((kernel.omega, om), (kernel.omega_bar, ob), (kernel.omega_bar_bar, obb)):
            for tau in taus:
                got = fn(nu, float(tau))
                want = float(ref(nu, float(tau)))
                tol = 1e-10 if abs(tau) <= 2e-4 else 1e-12
                rel = abs(got - want) / max(abs(want), 1e-300)
                if rel > tol and rel > worst:
                    worst, worst_at = rel, f"{fn.__name__}(nu={nu}, tau={tau:.3g})"
        ts = _grid(include_negative=False)
        ts = ts[ts >= 0.0]
        for t in ts:
            lo, up = kernel.kappa_bounds(nu, float(t))
            for got, want in ((lo, float(kl(nu, float(t)))), (up, float(ob(nu, float(t))))):
                tol = 1e-10 if abs(t) <= 2e-4 else 1e-12
                rel = abs(got - want) / max(abs(want), 1e-300)
                if rel > tol:
                    worst, worst_at = max(worst, rel), f"kappa(nu={nu}, t={t:.3g})"
        if nu <= 3.0:
            for t in ts:
                got = kernel.r_nu(nu, float(t))
                want = float(rn(nu, float(t)))
                tol = 1e-10 if abs(t) <= 2e-4 else 1e-12
                rel = abs(got - want) / max(abs(want), 1e-300)
                if rel > tol:
                    worst, worst_at = max(worst, rel), f"r_nu(nu={nu}, t={t:.3g})"
    return worst == 0.0, ("all points within tolerance" if worst == 0.0
                          else f"worst rel err {worst:.2e} at {worst_at}")


@_criterion(2, "threshold constants", 1.0)
def criterion_2():
    """Bisection reproduces the printed quadratic-phase constants."""
    th3 = kernel.phase2_threshold(3.0, "prox_newton")
    closed = 1.0 - math.sqrt(5.0 / 8.0)
    ok3 = abs(th3.equation_root - closed) <= 1e-9
    th2 = kernel.phase2_threshold(2.0, "newton")
    ok2 = abs(th2.equation_root - 0.12964) <= 5e-5
    return ok3 and ok2, (f"d3*(prox)={th3.equation_root:.10f} vs {closed:.10f}; "
                         f"root(R2 e^t=2)={th2.equation_root:.7f}")


@_criterion(3, "GSC certificates", 5.0)
def criterion_3():
    """Every shipped atom passes its GSC certificate on the representative interval."""
    failures = []
    for name, (atom, interval) in atoms.standard_atoms().items():
        ratio = atoms.gsc_certificate(atom, interval, 4001)
        if not ratio <= atom.params.m * (1.0 + 1e-9):
            failures.append(f"{name}: {ratio:.6g} > {atom.params.m:.6g}")
    return not failures, _report(failures, f"{len(atoms.standard_atoms())} atoms certified")


def bound_suite_violations(model, n_pairs=200, seed=123, d_max=0.9, slack=1e-8,
                           base_point=None, spread=0.5):
    """Count violations of the four sandwich bounds on random pairs with d_nu <= d_max."""
    rng = np.random.default_rng(seed)
    m, nu = model.params.m, model.params.nu
    p = model.dim
    violations = 0
    for _ in range(n_pairs):
        if base_point is not None:
            # jitter around the base point, staying inside the domain
            x = base_point + 0.05 * spread * rng.normal(size=p)
            while not model.feasible(x):
                x = base_point + 0.05 * spread * rng.normal(size=p)
        else:
            x = spread * rng.normal(size=p)
        direction = rng.normal(size=p)
        h = model.hessian(x)
        nx = math.sqrt(max(direction @ h @ direction, 0.0))
        d_unit = kernel.d_nu(nu, m, float(np.linalg.norm(direction)), nx)
        if d_unit <= 0.0:
            continue
        t = d_max * rng.uniform(0.05, 1.0) / d_unit
        y = x + t * direction
        dx = y - x
        nxl = math.sqrt(dx @ h @ dx)
        d = kernel.d_nu(nu, m, float(np.linalg.norm(dx)), nxl)
        hy = model.hessian(y)
        ny = math.sqrt(dx @ hy @ dx)
        # (i) local norms
        if not (kernel.omega_bar_bar(nu, -d) ** 0.5 * nxl <= ny * (1 + slack)
                and ny <= kernel.omega_bar_bar(nu, d) ** 0.5 * nxl * (1 + slack)):
            violations += 1
        # (ii) Hessian eigenvalue sandwich
        # h and so its factor are finite (linops.cholesky checks h)
        lfac = linops.cholesky(h)
        half = solve_triangular(lfac, hy, lower=True, check_finite=False)
        mid = solve_triangular(lfac, half.T, lower=True, check_finite=False).T
        ev = np.linalg.eigvalsh(0.5 * (mid + mid.T))
        if nu == 2.0:
            lo_b, hi_b = math.exp(-d), math.exp(d)
        else:
            lo_b = (1.0 - d) ** (2.0 / (nu - 2.0))
            hi_b = (1.0 - d) ** (-2.0 / (nu - 2.0))
        if not (ev.min() >= lo_b / (1 + slack) and ev.max() <= hi_b * (1 + slack)):
            violations += 1
        # (iii) gradient pairing
        gdiff = float((model.grad(y) - model.grad(x)) @ dx)
        if not (kernel.omega_bar(nu, -d) * nxl**2 <= gdiff * (1 + slack)
                and gdiff <= kernel.omega_bar(nu, d) * nxl**2 * (1 + slack)):
            violations += 1
        # (iv) function values
        fdiff = model.value(y) - model.value(x) - float(model.grad(x) @ dx)
        if not (kernel.omega(nu, -d) * nxl**2 <= fdiff * (1 + slack) + 1e-300
                and fdiff <= kernel.omega(nu, d) * nxl**2 * (1 + slack)):
            violations += 1
    return violations


@_criterion(4, "bound suite (sandwiches)", 30.0)
def criterion_4():
    """Props-style sandwich bounds hold on logistic and portfolio toys."""
    a, labels = bench_io.gen_logistic(20, 5, seed=31)
    logi = models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=1e-3)
    v1 = bound_suite_violations(logi, 200, seed=5)
    port = models.PortfolioModel(bench_io.gen_portfolio(20, 5, seed=9))
    x0 = np.full(5, 0.2)
    v2 = bound_suite_violations(port, 200, seed=6, base_point=x0)
    return v1 == 0 and v2 == 0, f"violations: logistic={v1}, portfolio={v2}"


@_criterion(5, "descent + step ordering", 60.0)
def criterion_5():
    """Analytic descent, step ordering tau2 > tau3, and iteration contrast."""
    model = logistic_toy(n=2000, p=100, seed=42)
    x0 = np.zeros(model.dim)
    opts2 = SolveOptions(nu_choice="force_2", eps=1e-8, phase2="off", record_time=False)
    opts3 = SolveOptions(nu_choice="force_3", eps=1e-8, phase2="off", max_iter=2000,
                         record_time=False)
    r2 = minimize(model, x0, opts2)
    r3 = minimize(model, x0, opts3)
    m3 = models.glm_gsc_params(model, 3).m

    problems = []
    for res, nu in ((r2, 2.0), (r3, 3.0)):
        fs = [rec.f for rec in res.trace]
        if not all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(fs, fs[1:])):
            problems.append(f"nu={nu}: f not monotone")
        for rec, nxt in zip(res.trace[:-1], res.trace[1:]):
            delta = kernel.descent_estimate(nu, rec.lam, rec.d_k, rec.tau)
            if nxt.f > rec.f - delta + 1e-10 * (1 + abs(rec.f)):
                problems.append(f"nu={nu}, k={rec.k}: decrease below prediction")
                break
    # step ordering at the iterates of both runs; beta is recorded as
    # M_run ||n||, so rescale the force_3 records to the nu=2 constant first
    m2 = model.params.m
    for res in (r2, r3):
        for rec in res.trace[:-1]:
            if rec.lam <= 0.0 or rec.beta <= 0.0:
                continue
            beta2 = rec.beta if res is r2 else rec.beta * m2 / m3
            tau2 = math.log1p(beta2) / beta2
            tau3 = 1.0 / (1.0 + 0.5 * m3 * rec.lam)
            if not tau2 > tau3:
                problems.append(f"k={rec.k}: tau2={tau2} <= tau3={tau3}")
                break
    if not (r2.status == "converged" and r2.iterations <= 60):
        problems.append(f"force_2 took {r2.iterations} iterations (status {r2.status})")
    if not (r3.status == "converged" and r2.iterations * 2 <= r3.iterations):
        problems.append(f"iteration contrast {r2.iterations} vs {r3.iterations}")
    return not problems, _report(
        problems, f"force_2: {r2.iterations} iters, force_3: {r3.iterations} iters")


def _quadratic_tail_ok(lams, floor=1e-16):
    """log lam_{k+1} <= 2 log lam_k + log C over the final 3 records with finite C.

    With mu_k = C lam_k the recursion gives mu_{k+1} <= mu_k^2, so the digits
    of the C-scaled decrement at least double per step provided mu < 1; that
    basin condition (C lam < 1 at the tail start) is what we verify, since a
    run constant C > 1 shifts raw digit counts by log10(C) without breaking
    quadratic convergence.
    """
    tail = [max(l, 0.0) for l in lams[-3:]]
    if len(tail) < 3:
        return False, "trace too short"
    if tail[0] <= 0.0:
        return True, "decrement hit exact zero"
    consts = []
    for a, b in zip(tail[:-1], tail[1:]):
        if a <= 0.0:
            break
        consts.append(max(b, floor) / a**2)
    c_run = max(consts)
    if not math.isfinite(c_run):
        return False, f"C sequence {consts}"
    mu = [c_run * l for l in tail]
    if mu[0] >= 1.0:
        return False, f"outside quadratic basin: C={c_run:.3g}, tail={tail}"
    for a, b in zip(mu[:-1], mu[1:]):
        if a <= 0.0:
            break
        if -math.log10(max(b, c_run * floor)) < 2.0 * (-math.log10(a)) - 1e-9:
            return False, f"scaled digits did not double: {mu}"
    return True, f"C={c_run:.3g}"


@_criterion(6, "quadratic tails", 30.0)
def criterion_6():
    """Quadratic tails of the decrement on the logistic (Newton) and portfolio (PN) toys."""
    problems = []
    model = logistic_toy()
    x0 = np.zeros(model.dim)
    for phase2 in ("heuristic_tau", "off"):
        res = minimize(model, x0, SolveOptions(nu_choice="force_2", eps=1e-9,
                                               phase2=phase2, record_time=False))
        lams = [r.lam for r in res.trace]
        ok, info = _quadratic_tail_ok(lams)
        if not ok:
            problems.append(f"newton phase2={phase2}: {info} tail={lams[-3:]}")
    port = portfolio_toy()
    prob = CompositeProblem(port, ProxSpec("simplex"), np.full(port.dim, 1.0 / port.dim))
    resp = minimize_composite(prob, SolveOptions(eps=1e-9, record_time=False))
    lams = [r.lam for r in resp.trace]
    ok, info = _quadratic_tail_ok(lams)
    if not ok:
        problems.append(f"prox-newton: {info} tail={lams[-3:]}")
    return not problems, _report(problems, "tails quadratic")


def _projected_gradient_reference(model, x0, tol=1e-10, max_iter=500000):
    """Plain projected gradient to a composite-gradient-mapping residual."""
    lmax = linops.largest_eigenvalue(model.hessian(x0))
    s = 1.0 / (4.0 * lmax)
    x = x0.copy()
    for _ in range(max_iter):
        g = model.grad(x)
        x_new = project_simplex(x - s * g)
        if np.linalg.norm(x - x_new) / s <= tol:
            return x_new
        x = x_new
    return x


@_criterion(7, "composite correctness", 30.0)
def criterion_7():
    """Prox-Newton portfolio solution matches a projected-gradient reference."""
    port = portfolio_toy()
    x0 = np.full(port.dim, 1.0 / port.dim)
    res = minimize_composite(CompositeProblem(port, ProxSpec("simplex"), x0),
                             SolveOptions(eps=1e-9, record_time=False))
    xref = _projected_gradient_reference(port, x0, tol=1e-10)
    f_pn, f_ref = port.value(res.x), port.value(xref)
    rel = abs(f_pn - f_ref) / max(1.0, abs(f_ref))
    feasible = abs(res.x.sum() - 1.0) <= 1e-12 and res.x.min() >= 0.0
    return (rel <= 1e-6 and feasible and res.status == "converged",
            f"rel objective gap {rel:.2e}, simplex feasible={feasible}")


def _l1_prox_oracle(u, weight, step):
    """Brute-force scalar prox: coarse grid bracket, then subgradient bisection.

    Value-based polish stalls at sqrt(eps) because the objective is flat to
    second order at the minimum; bisection on the monotone subgradient
    weight sign(z) + (z - u)/step reaches full precision and lands on the
    kink when the subdifferential at 0 contains 0.
    """
    rad = abs(u) + weight * step + 1.0
    zs = np.linspace(-rad, rad, 4001)
    vals = weight * np.abs(zs) + (zs - u) ** 2 / (2.0 * step)
    lo_i = int(np.argmin(vals))
    lo, hi = zs[max(lo_i - 1, 0)], zs[min(lo_i + 1, zs.size - 1)]

    def dh(z):
        return weight * math.copysign(1.0, z) + (z - u) / step

    if dh(lo) > 0.0 or dh(hi) < 0.0:
        lo, hi = -rad, rad
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dh(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _simplex_oracle(u):
    """Exhaustive active-set projection for p <= 6."""
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


@_criterion(8, "prox oracles", 10.0)
def criterion_8():
    """Soft-threshold and simplex projection match brute-force oracles."""
    rng = np.random.default_rng(2024)
    bad = 0
    for _ in range(1000):
        u = rng.normal() * 3.0
        w = rng.uniform(0.0, 2.0)
        s = rng.uniform(0.1, 3.0)
        got = prox_apply(ProxSpec("l1", weight=w), np.array([u]), s)[0]
        want = _l1_prox_oracle(u, w, s)
        if abs(got - want) > 1e-10:
            bad += 1
    for _ in range(1000):
        p = rng.integers(2, 7)
        u = rng.normal(size=p) * 2.0
        got = project_simplex(u)
        want = _simplex_oracle(u)
        if np.max(np.abs(got - want)) > 1e-10:
            bad += 1
    return bad == 0, f"{bad} mismatches out of 2000"


@_criterion(9, "BFGS", 30.0)
def criterion_9():
    """BFGS secant fuzz, quadratic finite termination, superlinear trend."""
    problems = []
    rng = np.random.default_rng(99)
    state = quasi_newton.BfgsState.identity(6)
    accepted = 0
    for i in range(100):
        base = rng.normal(size=(6, 6))
        curv = base @ base.T + 0.5 * np.eye(6)
        s = rng.normal(size=6)
        y = curv @ s
        new_state = quasi_newton.bfgs_update(state, s, y)
        if new_state.n_skipped > state.n_skipped:
            state = new_state
            continue
        accepted += 1
        err = np.linalg.norm(new_state.h @ s - y) / (1.0 + np.linalg.norm(y))
        if err > 1e-10:
            problems.append(f"secant error {err:.2e} at fuzz step {i}")
            break
        state = new_state
    if accepted < 90:
        problems.append(f"only {accepted} accepted updates in fuzz")

    quad = models.QuadraticModel(np.diag([1.0, 3.0, 7.0, 11.0]), b=np.ones(4))
    rq = quasi_newton.minimize_qn(quad, np.zeros(4),
                                  SolveOptions(step_rule="exact", eps=1e-10, record_time=False))
    if not (rq.status == "converged" and rq.iterations <= 5):
        problems.append(f"quadratic termination took {rq.iterations} iterations")

    model = logistic_toy()
    x0 = np.zeros(model.dim)
    xstar = minimize(model, x0, SolveOptions(eps=1e-12, record_time=False)).x
    errs = _qn_error_trajectory(model, x0, xstar, eps=1e-9)
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1) if errs[i] > 0.0]
    tail = ratios[-4:]
    if len(tail) < 4 or not all(b < a for a, b in zip(tail, tail[1:])):
        problems.append(f"superlinear tail not decreasing: {[f'{r:.3f}' for r in tail]}")
    return not problems, _report(
        problems, f"quad in {rq.iterations} its; tail {[f'{r:.2f}' for r in tail]}")


def _qn_error_trajectory(model, x0, xstar, eps=1e-9, max_iter=300):
    """Iterate errors ||x_k - x*|| of the default quasi-Newton run."""
    errs = []
    quasi_newton.minimize_qn(
        model, x0, SolveOptions(eps=eps, max_iter=max_iter, record_time=False),
        callback=lambda k, x, state: errs.append(float(np.linalg.norm(x - xstar))))
    return errs


@_criterion(10, "linesearch floor", 30.0)
def criterion_10():
    """Floor-augmented linesearch: fewer evals than plain, never below the floor."""
    model = logistic_toy()
    problems = []
    # start far from the optimum so early Armijo tests actually reject steps
    x_start = 20.0 * np.ones(model.dim)

    def run(use_floor):
        x = x_start.copy()
        nfval_total = 0
        for _ in range(200):
            g = model.grad(x)
            h = model.hessian(x)
            direction = linops.newton_direction(linops.NewtonSystem(h, g))
            if direction.lam <= 1e-9:
                break
            n = direction.n
            beta = model.params.m * float(np.linalg.norm(n))
            floor_tau, _ = kernel.step_size(2.0, model.params.m, direction.lam, beta)
            floor = floor_tau if use_floor else 0.0
            ls = linesearch_step(model, x, n, floor)
            nfval_total += ls.nfval
            if use_floor and ls.tau < floor_tau - 1e-15:
                problems.append(f"tau {ls.tau} below floor {floor_tau}")
            x = x + ls.tau * n
        return x, nfval_total

    x_floor, ev_floor = run(True)
    x_plain, ev_plain = run(False)
    if ev_floor > ev_plain:
        problems.append(f"floored search used more evals ({ev_floor} > {ev_plain})")
    if np.linalg.norm(x_floor - x_plain) > 1e-8 * (1.0 + np.linalg.norm(x_plain)):
        problems.append("optima differ beyond 1e-8")
    return not problems, _report(problems, f"evals {ev_floor} (floor) vs {ev_plain} (plain)")


@_criterion(11, "baseline contrast", 60.0)
def criterion_11():
    """Fast gradient needs >= 5x the Newton force_2 iterations to gradient norm 1e-6."""
    model = logistic_toy()
    x0 = np.zeros(model.dim)
    res = minimize(model, x0, SolveOptions(nu_choice="force_2", eps=1e-10, record_time=False))
    newton_iters = next((r.k for r in res.trace if r.grad_norm <= 1e-6), None)
    mu, lips = model.smoothness_bounds()
    _, hist = bench_io.fast_gradient(model, x0, mu, lips, eps=1e-6, max_iter=200000)
    fgm_iters = len(hist)
    return (newton_iters is not None and fgm_iters >= 5 * newton_iters,
            f"newton {newton_iters} vs fast-gradient {fgm_iters}")


@_criterion(12, "determinism", 60.0)
def criterion_12():
    """Identical seeds give byte-identical traces."""
    problems = []

    def logistic_trace():
        model = logistic_toy(n=400, p=40, seed=42)
        res = minimize(model, np.zeros(model.dim),
                       SolveOptions(nu_choice="force_2", record_time=False))
        return bench_io.trace_to_csv(res.trace)

    def portfolio_trace():
        port = portfolio_toy()
        res = minimize_composite(
            CompositeProblem(port, ProxSpec("simplex"), np.full(port.dim, 1.0 / port.dim)),
            SolveOptions(eps=1e-9, record_time=False))
        return bench_io.trace_to_csv(res.trace)

    if logistic_trace() != logistic_trace():
        problems.append("logistic trace not reproducible")
    if portfolio_trace() != portfolio_trace():
        problems.append("portfolio trace not reproducible")
    w1 = bench_io.gen_portfolio(100, 30, seed=5)
    w2 = bench_io.gen_portfolio(100, 30, seed=5)
    if w1.tobytes() != w2.tobytes():
        problems.append("generator not byte-deterministic")
    return not problems, _report(problems, "byte-identical reruns")


def run_all(selected=None) -> list[CriterionResult]:
    ids = sorted(CRITERIA) if selected is None else sorted(selected)
    return [CRITERIA[i]() for i in ids]


def format_table(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
