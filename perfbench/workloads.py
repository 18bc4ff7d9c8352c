"""Seeded workloads of the solver benchmark.

A workload turns a seed into arrays (data generation, never timed), builds
the model objects and their certified (M, nu) from those arrays (timed as
set-up), runs whole solves through the public API, and checks each solve's
output through the public oracle, outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.special

from gscopt import (CompositeProblem, DwdModel, GlmModel, PortfolioModel, ProxSpec,
                    SolveOptions, dwd_as_glm, gen_logistic, gen_portfolio, logistic,
                    minimize, minimize_composite, minimize_qn, pg_bb)
from gscopt.bench_io import gaussian_stream

EPS = 1e-8
SIMPLEX = ProxSpec("simplex")
#: objective gap allowed against the projected-gradient reference, relative
#: to max(1, |reference|)
PORTFOLIO_RTOL = 1e-9


def gen_sparse_logistic(n: int, p: int, nnz_per_row: int, seed: int):
    """CSR rows with nnz_per_row Gaussian entries each, l2-normalised, and labels.

    Everything comes from one bench_io.gaussian_stream: column indices are
    normal draws pushed through the normal CDF (uniform on [0, 1)), so a seed
    fixes the matrix bit for bit.  Repeated columns within a row are summed,
    which leaves about 1% of rows with one entry fewer.
    """
    k = n * nnz_per_row
    z = gaussian_stream(seed, 2 * k + p + n)
    cols = np.minimum((scipy.special.ndtr(z[:k]) * p).astype(np.int64), p - 1)
    rows = np.repeat(np.arange(n, dtype=np.int64), nnz_per_row)
    a = sp.csr_matrix((z[k:2 * k], (rows, cols)), shape=(n, p))
    a.sum_duplicates()
    norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=1)).ravel())
    a = sp.csr_matrix(sp.diags(1.0 / norms) @ a)
    x_true = z[2 * k:2 * k + p]
    labels = np.sign(a @ x_true + 0.1 * z[2 * k + p:])
    labels[labels == 0.0] = 1.0
    return a, labels


def _signed_rows(a, labels):
    if sp.issparse(a):
        return sp.csr_matrix(sp.diags(labels) @ a)
    return a * labels[:, None]


@dataclass
class Instance:
    """One solvable input: generated arrays plus the model objects built from them."""

    label: str
    arrays: tuple
    model: object = None
    x0: np.ndarray = None
    reference: float | None = None   # portfolio only: pg-bb objective
    #: exception type of a known failure at this commit: a solve that raises it
    #: counts as failed; any other raised exception counts as a wrong output
    expected_error: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str                                  # newton | prox_newton | quasi_newton
    make_inputs: Callable[[int], list[Instance]]
    build: Callable[[tuple], tuple]              # arrays -> (model, x0)
    solve: Callable[..., object]                 # (model, x0, opts) -> SolveResult
    check: Callable[[Instance, object], str | None]


def options(record_time: bool = True) -> SolveOptions:
    return SolveOptions(eps=EPS, record_time=record_time)


# -- builders: the timed set-up --------------------------------------------

def build_glm(arrays):
    rows, = arrays
    model = GlmModel(rows, logistic(), q_diag=1e-5)
    return model, np.zeros(model.dim)


def build_dwd(arrays):
    a, labels = arrays
    n, p = a.shape
    glm = dwd_as_glm(DwdModel(a=a, y=labels, c=np.zeros(n), q=1.0,
                              gammas=(1e-5, 1e-5, 1e-7)))
    # w = 0, mu = 0, xi = 1 is interior for the inverse-power loss
    return glm, np.concatenate([np.zeros(p + 1), np.ones(n)])


def build_portfolio(arrays):
    w, = arrays
    model = PortfolioModel(w)
    return model, np.full(model.dim, 1.0 / model.dim)


# -- solves -------------------------------------------------------------------

def solve_prox_newton(model, x0, opts):
    return minimize_composite(CompositeProblem(model, SIMPLEX, x0), opts)


# -- output checks ---------------------------------------------------------------

def check_glm(inst: Instance, res) -> str | None:
    if res.status != "converged":
        return f"status {res.status}"
    model = inst.model
    if not model.feasible(res.x):
        return "final iterate infeasible"
    g_end = float(np.linalg.norm(model.grad(res.x)))
    g_start = float(np.linalg.norm(model.grad(inst.x0)))
    if not g_end <= EPS * max(1.0, g_start):
        return f"gradient norm {g_end:.3e} above {EPS:g} * max(1, {g_start:.3e})"
    return None


def check_portfolio(inst: Instance, res) -> str | None:
    if res.status != "converged":
        return f"status {res.status}"
    if not SIMPLEX.feasible(res.x):
        return "result off the simplex"
    if inst.reference is None:
        x_ref, _ = pg_bb(inst.model, SIMPLEX, inst.x0, eps=1e-10)
        # pg-bb's iterate can miss sum(x) = 1 by ~1e-14, which moves an
        # n-row objective by about n times that; rescaling puts it back on
        # the simplex
        inst.reference = inst.model.value(x_ref / x_ref.sum())
    f = inst.model.value(res.x)
    gap = abs(f - inst.reference)
    # relative, with an absolute floor: the optimal value can lie near 0
    if not gap <= PORTFOLIO_RTOL * max(1.0, abs(inst.reference)):
        return f"objective {f!r} differs from pg-bb {inst.reference!r} by {gap:.3e}"
    return None


# -- inputs ------------------------------------------------------------------------

def _sub_seed(seed: int, i: int) -> int:
    # distinct, well-separated generator seeds per instance of one run
    return (seed * 1_000_003 + i) % 2**63


def inputs_logistic_dense(seed):
    a, labels = gen_logistic(10000, 300, seed=_sub_seed(seed, 0))
    return [Instance("10000x300", (_signed_rows(a, labels),))]


def inputs_logistic_sparse(seed):
    a, labels = gen_sparse_logistic(50000, 3000, 9, seed=_sub_seed(seed, 0))
    return [Instance("50000x3000-csr", (_signed_rows(a, labels),))]


def inputs_dwd(seed):
    a, labels = gen_logistic(500, 50, seed=_sub_seed(seed, 0))
    return [Instance("500x50", (a, labels))]


def inputs_portfolio(seed):
    # with 1000 rows the optimum is interior on every seed tried, so each solve
    # ends on inner solves at the 1e-12 floor; 32 instances let the median of
    # one run average over instances rather than hinge on a few
    return [Instance(f"1000x5#{i}", (gen_portfolio(1000, 5, seed=_sub_seed(seed, i)),))
            for i in range(32)]


def inputs_portfolio_stall(seed):
    # a 50x10 optimum is either a vertex (3 outer iterations, ~0.03 s) or
    # interior (1-2.5 s); every 200x20 instance stalls in the prox subproblem
    stall = "SubproblemError"
    small = [Instance(f"50x10#{i}", (gen_portfolio(50, 10, seed=_sub_seed(seed, i)),),
                      expected_error=stall) for i in range(4)]
    large = Instance("200x20", (gen_portfolio(200, 20, seed=_sub_seed(seed, 4)),),
                     expected_error=stall)
    return small + [large]


def inputs_bfgs(seed):
    a, labels = gen_logistic(2000, 400, seed=_sub_seed(seed, 0))
    return [Instance("2000x400", (_signed_rows(a, labels),))]


WORKLOADS = {w.name: w for w in [
    Workload("logistic-dense", "newton",
             inputs_logistic_dense, build_glm, minimize, check_glm),
    Workload("logistic-sparse-cg", "newton",
             inputs_logistic_sparse, build_glm, minimize, check_glm),
    Workload("dwd", "newton",
             inputs_dwd, build_dwd, minimize, check_glm),
    Workload("portfolio", "prox_newton",
             inputs_portfolio, build_portfolio, solve_prox_newton, check_portfolio),
    Workload("portfolio-stall", "prox_newton",
             inputs_portfolio_stall, build_portfolio, solve_prox_newton, check_portfolio),
    Workload("bfgs", "quasi_newton",
             inputs_bfgs, build_glm, minimize_qn, check_glm),
]}


def build(workload: Workload, inst: Instance) -> Instance:
    """Set inst.model and inst.x0 from the instance's arrays."""
    inst.model, inst.x0 = workload.build(inst.arrays)
    return inst
