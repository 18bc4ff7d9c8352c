"""Command-line front end: fit models, run the portfolio benchmark, print kernels.

Exit codes: 0 converged / all passed, 2 not converged (an inner failure
included, its error printed) / criteria failed, 1 usage or data errors.
`--deterministic` zeroes the timing column so that identical
configurations produce byte-identical trace files.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import acceptance, atoms, bench_io, kernel, models
from .errors import GscError
from .newton import SolveOptions, minimize
from .prox import ProxSpec
from .prox_newton import CompositeProblem, minimize_composite
from .quasi_newton import minimize_qn

_NU_TO_CHOICE = {"2": "force_2", "3": "force_3", "native": "native"}
_STEP_TO_RULE = {"analytic": "analytic", "linesearch": "linesearch_floor",
                 "full": "full"}
#: baseline solvers that record no trace for --out
_FIRST_ORDER = ("fgm", "pg-bb", "fw", "fw-ls")


def _parse_synthetic(spec: str) -> dict:
    """{"n": rows, "p": columns} from "n=...,p=..."."""
    pairs = [part.partition("=")[::2] for part in spec.split(",")]
    keys = [key.strip() for key, _ in pairs]
    if sorted(keys) != ["n", "p"]:
        raise GscError(f"--synthetic {spec!r}: need keys n and p once each, got {', '.join(keys)}")
    try:
        return {key: int(val) for key, (_, val) in zip(keys, pairs)}
    except ValueError as exc:
        raise GscError(f"--synthetic {spec!r}: {exc}") from exc


def _solver_options(args, nu="native") -> SolveOptions:
    """SolveOptions from args; every command builds it first, to check --eps, --max-iter, --out."""
    if args.out and args.solver in _FIRST_ORDER:
        raise GscError(f"--out: --solver {args.solver} records no trace to write")
    return SolveOptions(
        nu_choice=_NU_TO_CHOICE[nu],
        step_rule=_STEP_TO_RULE[args.step],
        eps=args.eps,
        max_iter=args.max_iter,
        record_time=not args.deterministic,
    )


def _finish(args, result, margins=None):
    summary = [f"status={result.status}", f"iters={result.iterations}"]
    if result.trace:
        last = result.trace[-1]
        summary += [f"time={last.cum_time:.3f}s", f"f={last.f:.9e}",
                    f"grad_norm={last.grad_norm:.3e}"]
    if margins is not None:
        err = float(np.mean(1.0 - np.sign(margins)) / 2.0)
        summary.append(f"train_error={err:.4f}")
    print("  ".join(summary))
    if "error" in result.extra:
        print(f"error: {result.extra['error']}", file=sys.stderr)
    if args.out:
        fmt = "json" if args.out.endswith(".json") else "csv"
        bench_io.write_trace(result.trace, args.out, fmt)
        print(f"trace written to {args.out}")
    return 0 if result.status == "converged" else 2


def _finish_first_order(args, hist, tail):
    """Print a first-order baseline's summary; converged iff its last hist entry
    meets the stop test (on the simplex max(1, ||x||) = 1, so that is entry <= eps)."""
    status = "converged" if hist and hist[-1][2] <= args.eps else "max_iter"
    print(f"status={status}  iters={len(hist)}  {tail}")
    return 0 if status == "converged" else 2


def _load_classification(args):
    if args.data:
        ds = bench_io.read_libsvm(args.data, normalize=True)
        a, labels = ds.a, ds.labels
    elif args.synthetic:
        dims = _parse_synthetic(args.synthetic)
        a, labels = bench_io.gen_logistic(dims["n"], dims["p"], seed=args.seed)
    else:
        raise GscError("one of --data or --synthetic is required")
    return a, labels


def cmd_fit_logistic(args) -> int:
    opts = _solver_options(args, args.nu)
    a, labels = _load_classification(args)
    if hasattr(a, "multiply"):
        rows = a.multiply(labels[:, None]).tocsr()
    else:
        rows = a
        rows *= labels[:, None]  # in place: the unsigned rows are not used again
    model = models.GlmModel(rows, atoms.logistic(), q_diag=args.gamma)
    x0 = np.zeros(model.dim)
    if args.solver == "newton":
        res = minimize(model, x0, opts)
    elif args.solver == "bfgs":
        res = minimize_qn(model, x0, opts)
    elif args.solver == "fgm":
        mu, lips = model.smoothness_bounds()
        x, hist = bench_io.fast_gradient(model, x0, mu, lips, eps=opts.eps, max_iter=opts.max_iter)
        return _finish_first_order(args, hist, f"f={model.value(x):.9e}")
    else:
        raise GscError(f"--solver {args.solver} is not valid for fit-logistic")
    margins = (rows @ res.x)
    return _finish(args, res, margins=np.asarray(margins).ravel())


def cmd_fit_dwd(args) -> int:
    opts = _solver_options(args, args.nu)
    a, labels = _load_classification(args)
    n = a.shape[0]
    try:
        gammas = tuple(float(s) for s in args.gammas.split(","))
    except ValueError as exc:
        raise GscError(f"--gammas {args.gammas!r}: {exc}") from exc
    dwd = models.DwdModel(a=a, y=labels, c=np.full(n, args.slack_cost), q=args.q, gammas=gammas)
    glm = models.dwd_as_glm(dwd)
    # start at w = 0, mu = 0, xi = 1 (interior for the inverse-power loss)
    x0 = np.concatenate([np.zeros(a.shape[1] + 1), np.ones(n)])
    res = (minimize_qn if args.solver == "bfgs" else minimize)(glm, x0, opts)
    return _finish(args, res)


def cmd_portfolio(args) -> int:
    opts = _solver_options(args)
    if args.data:
        w = np.loadtxt(args.data, delimiter=",")
    elif args.synthetic:
        dims = _parse_synthetic(args.synthetic)
        w = bench_io.gen_portfolio(dims["n"], dims["p"], seed=args.seed)
    else:
        raise GscError("one of --data or --synthetic is required")
    model = models.PortfolioModel(w)
    x0 = np.full(model.dim, 1.0 / model.dim)
    if args.solver == "prox-newton":
        prob = CompositeProblem(model, ProxSpec("simplex"), x0)
        res = minimize_composite(prob, opts)
        code = _finish(args, res)
        x = res.x
    else:
        t0 = time.perf_counter()
        if args.solver == "pg-bb":
            x, hist = bench_io.pg_bb(model, ProxSpec("simplex"), x0, eps=opts.eps,
                                     max_iter=opts.max_iter)
        elif args.solver in ("fw", "fw-ls"):
            x, hist = bench_io.frank_wolfe(model, x0, eps=opts.eps, max_iter=opts.max_iter,
                                           linesearch=args.solver == "fw-ls")
        else:
            raise GscError(f"--solver {args.solver} is not valid for portfolio")
        code = _finish_first_order(args, hist, f"time={time.perf_counter()-t0:.3f}s  "
                                                f"f={model.value(x):.9e}")
    print(f"simplex: sum={x.sum():.12f}  min={x.min():.3e}")
    return code


def cmd_kernels(args) -> int:
    nu, tau = args.nu, args.tau
    print(f"omega({nu}, {tau})         = {kernel.omega(nu, tau):.12g}")
    print(f"omega_bar({nu}, {tau})     = {kernel.omega_bar(nu, tau):.12g}")
    print(f"omega_bar_bar({nu}, {tau}) = {kernel.omega_bar_bar(nu, tau):.12g}")
    if tau >= 0.0:
        lo, hi = kernel.kappa_bounds(nu, tau)
        print(f"kappa_bounds({nu}, {tau})  = ({lo:.12g}, {hi:.12g})")
    if 2.0 <= nu <= 3.0 and 0.0 <= tau < 1.0:
        print(f"r_nu({nu}, {tau})          = {kernel.r_nu(nu, tau):.12g}")
    return 0


def cmd_bench(args) -> int:
    selected = [int(s) for s in args.only.split(",")] if args.only else None
    results = acceptance.run_all(selected)
    print(acceptance.format_table(results))
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gscopt",
        description="Newton-type solvers for generalized self-concordant minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_nu=True):
        p.add_argument("--data", help="input file (LIBSVM text for fits, CSV for portfolio)")
        p.add_argument("--synthetic", help="synthetic size spec, e.g. n=2000,p=100")
        if with_nu:
            p.add_argument("--nu", choices=["2", "3", "native"], default="native")
        p.add_argument("--step", choices=list(_STEP_TO_RULE), default="analytic")
        p.add_argument("--eps", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=500, dest="max_iter")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="trace output path (.csv or .json)")
        p.add_argument("--deterministic", action="store_true",
                       help="zero the timing column for byte-reproducible traces")

    p = sub.add_parser("fit-logistic", help="regularized logistic regression")
    common(p)
    p.add_argument("--gamma", type=float, default=1e-5)
    p.add_argument("--solver", choices=["newton", "bfgs", "fgm"], default="newton")
    p.set_defaults(func=cmd_fit_logistic)

    p = sub.add_parser("fit-dwd", help="distance-weighted discrimination")
    common(p)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--gammas", default="1e-5,1e-5,1e-7",
                   help="comma-separated regularizers for (w, mu, xi)")
    p.add_argument("--slack-cost", type=float, default=0.0, dest="slack_cost",
                   help="uniform linear cost on the slack block (0 disables it)")
    p.add_argument("--solver", choices=["newton", "bfgs"], default="newton")
    p.set_defaults(func=cmd_fit_dwd)

    p = sub.add_parser("portfolio", help="log-utility portfolio over the simplex")
    common(p, with_nu=False)
    p.add_argument("--solver", choices=["prox-newton", "pg-bb", "fw", "fw-ls"],
                   default="prox-newton")
    p.set_defaults(func=cmd_portfolio)

    p = sub.add_parser("kernels", help="print the scalar kernel values")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("bench", help="run the acceptance matrix")
    p.add_argument("--only", help="comma-separated criterion ids, e.g. 1,2,5")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GscError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
