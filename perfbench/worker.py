"""One workload in one process: measure, trace or self-check it.

Started by run.py with the BLAS thread count already pinned in the
environment.  Imports gscopt from the ``src`` directory of the current
working directory (the checkout) and prints one JSON object as the last
line of its standard output.

    python3 perfbench/worker.py --mode measure|trace|selfcheck \\
        --workload NAME --seed N --seconds S --out DIR
    python3 perfbench/worker.py --list          # the workload names, one a line
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

#: set-up samples spread over a run, besides one before the first solve and
#: one after the last
SETUP_SAMPLES = 12
#: one set-up sample repeats the builds until this many seconds have passed
SETUP_SAMPLE_S = 0.2

#: per-layer metrics that are totals per solve, averaged over traced solves
PER_SOLVE = ("models.s", "models.self_s", "atoms.eval.calls", "atoms.eval.s",
             "atoms.eval.elements", "linops.s", "linops.cholesky.s", "linops.lmax.s",
             "prox.s", "prox.subproblems", "prox.matvecs", "quasi_newton.update.s",
             "quasi_newton.linesearch_evals", "kernel.step_size.calls",
             "kernel.step_size.s", "direction.s", "driver.self_s", "driver.guard_halvings")
ORACLE_METRICS = tuple(f"models.{o}.{k}" for o in ("value", "grad", "hessian", "hvp", "feasible")
                       for k in ("calls", "s"))


def import_package():
    """Import gscopt from ./src, and refuse to measure any other copy."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import gscopt
    if not os.path.abspath(gscopt.__file__).startswith(src + os.sep):
        raise SystemExit(f"gscopt imported from {gscopt.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": openblas,
            "python": sys.version.split()[0],
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def setup_sample(wl, insts) -> float:
    """Seconds to build every instance's model objects from its arrays once.

    The builds are repeated back to back for at least SETUP_SAMPLE_S, so
    that a sample of a millisecond set-up is not one timer reading.
    """
    reps = 0
    t0 = perf_counter()
    while True:
        for inst in insts:
            wl.build(inst.arrays)
        reps += 1
        elapsed = perf_counter() - t0
        if elapsed >= SETUP_SAMPLE_S:
            return elapsed / reps


def solve_once(wl, inst, model, opts):
    """(seconds, result or None, error text or None) of one whole solve."""
    t0 = perf_counter()
    try:
        res = wl.solve(model, inst.x0, opts)
    except Exception as exc:  # every raised solve is recorded as a failure
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, res, None


def is_known(inst, error: str) -> bool:
    """Whether a raised solve's error is the instance's known failure."""
    return inst.expected_error is not None and error.startswith(inst.expected_error + ":")


class Tally:
    """Attempted solves, their times and their failures.

    A solve that returned a result failing its check, or that raised
    anything but its instance's known failure, is a wrong output.
    """

    def __init__(self):
        self.times: list[float] = []
        self.failures: Counter = Counter()   # (instance, error, raised, known) -> solves
        self.wrong = 0

    def record(self, wl, inst, seconds, res, error):
        known = False
        if error is None:
            error = wl.check(inst, res)
        else:
            known = is_known(inst, error)
        if error is None:
            self.times.append(seconds)
        else:
            self.wrong += not known
            self.times.append(float("inf"))
            self.failures[inst.label, error, res is None, known] += 1

    def summary(self) -> dict:
        failures = [{"instance": i, "error": e, "raised": r, "known": k, "solves": n}
                    for (i, e, r, k), n in self.failures.items()]
        return {"attempted": len(self.times), "failed": sum(self.failures.values()),
                "wrong_outputs": self.wrong, "failures": failures,
                "solve_s": statistics.median(self.times), "solve_n": len(self.times),
                "solve_times": [t if t < float("inf") else None for t in self.times]}


def measure(wl, seed: int, seconds: float) -> dict:
    """Closed loop of whole solves for `seconds`, with set-up timed in between.

    Set-up is sampled between solves at even intervals of the run, so its
    median sees the same machine conditions as the solves' median.
    """
    from workloads import build, options
    insts = [build(wl, inst) for inst in wl.make_inputs(seed)]
    setup_times = [setup_sample(wl, insts)]
    opts = options()
    tally = Tally()
    start = perf_counter()
    deadline, next_setup = start + seconds, start + seconds / SETUP_SAMPLES
    k = 0
    while k == 0 or perf_counter() < deadline:
        inst = insts[k % len(insts)]
        k += 1
        dt, res, error = solve_once(wl, inst, inst.model, opts)
        tally.record(wl, inst, dt, res, error)
        del res  # a retained result would double the next solve's peak memory
        if perf_counter() >= next_setup:
            setup_times.append(setup_sample(wl, insts))
            next_setup += seconds / SETUP_SAMPLES
    setup_times.append(setup_sample(wl, insts))
    out = tally.summary()
    out["setup_s"] = statistics.median(setup_times)
    out["setup_n"] = len(setup_times)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def traced_solve(wl, model, x0, rec, opts):
    """(result or None, error text or None, per-layer counts) of one traced solve."""
    from spans import Capture, TracedModel, attribute, replay_prox
    from workloads import SIMPLEX
    rec.solve_id += 1
    cap = Capture(wl.driver, rec)
    idx = rec.begin(wl.driver)
    res = error = None
    try:
        res = wl.solve(TracedModel(model, rec, cap), x0, opts)
    except Exception as exc:  # compared with the untraced outcome by the caller
        error = f"{type(exc).__name__}: {exc}"
    finally:
        rec.end(idx)
    layer = attribute(wl.driver, rec.solve_spans(rec.solve_id), raised=res is None)
    if wl.driver == "prox_newton":
        layer += replay_prox(cap.steps, SIMPLEX)
    return res, error, layer


def _iteration_times(trace) -> list[float]:
    cum = [r.cum_time for r in trace]
    return [b - a for a, b in zip([0.0] + cum[:-1], cum)]


def trace_run(wl, seed: int, seconds: float, out_dir: str) -> dict:
    """Alternate untraced and traced solves of each instance for `seconds`."""
    from spans import Recorder, replay_params, replay_step_sizes, with_timed_atom
    from workloads import build, options
    insts = [build(wl, inst) for inst in wl.make_inputs(seed)]
    rec = Recorder()
    timed_models = [with_timed_atom(inst.model, rec) for inst in insts]
    opts = options()
    tally = Tally()
    totals, overhead, iter_times = Counter(), [], []
    drv = Counter()
    traced = 0
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        inst, timed_model = insts[k % len(insts)], timed_models[k % len(insts)]
        k += 1
        dt, res, error = solve_once(wl, inst, inst.model, opts)
        tally.record(wl, inst, dt, res, error)
        if res is not None:
            iter_times += _iteration_times(res.trace)
            drv["iterations"] += res.iterations
            drv["full_steps"] += sum(r.tau == 1.0 for r in res.trace[:-1])
            n_steps, step_s = replay_step_sizes(res.trace, res.params)
            totals["kernel.step_size.calls"] += n_steps
            totals["kernel.step_size.s"] += step_s
        del res

        # a failure of the traced twin is already counted by the untraced solve;
        # its result is dropped at once, like the untraced one above
        layer = traced_solve(wl, timed_model, inst.x0, rec, opts)[2]
        totals += layer
        traced += 1
        overhead.append(layer["solve_s"] - dt)

    m = {name: totals[name] / traced for name in PER_SOLVE + ORACLE_METRICS}
    windows = totals["windows"]
    m["linops.directions"] = windows / traced if wl.driver == "newton" else 0.0
    m["linops.matvecs"] = totals["models.hvp.calls"] / windows if wl.driver == "newton" else 0.0
    m["kernel.params.s"] = statistics.median(
        replay_params(inst.model) for inst in insts for _ in range(3))
    for key in ("iterations", "full_steps"):
        m[f"driver.{key}"] = drv[key] / traced
    iter_times.sort()
    m["driver.iter_s_p50"] = statistics.median(iter_times) if iter_times else 0.0
    # the highest percentile with at least ten samples beyond it; the maximum
    # when there are too few samples for one
    m["driver.iter_s_tail"] = iter_times[max(len(iter_times) - 11, -1)] if iter_times else 0.0
    m["driver.iter_samples"] = len(iter_times)
    m["trace.overhead_s"] = statistics.median(overhead)
    m["trace.coverage"] = 1.0 - totals["driver.self_s"] / totals["solve_s"]
    m["traced_solves"] = traced

    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.json")
    with open(span_file, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "solve", "elements"],
                   "spans": rec.spans}, fh)
    out = tally.summary()
    out["layers"] = m
    out["spans_file"] = span_file
    return out


def selfcheck(wl, seed: int, out_dir: str) -> dict:
    """Counts and record_time=False traces of an untraced and a traced solve per instance."""
    from gscopt.bench_io import write_trace
    from spans import Recorder, with_timed_atom
    from workloads import build, options
    opts = options(record_time=False)
    rec = Recorder()
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for inst in wl.make_inputs(seed):
        build(wl, inst)
        row = {"instance": inst.label}
        _, res, error = solve_once(wl, inst, inst.model, opts)
        row["untraced"] = error or f"{res.status} after {res.iterations} iterations"
        if res is not None:
            path = os.path.join(out_dir, f"{inst.label}-untraced.csv")
            write_trace(res.trace, path)
            row["untraced_trace"] = path
        del res

        res, error, layer = traced_solve(wl, with_timed_atom(inst.model, rec), inst.x0, rec, opts)
        row["traced"] = error or f"{res.status} after {res.iterations} iterations"
        if res is not None:
            path = os.path.join(out_dir, f"{inst.label}-traced.csv")
            write_trace(res.trace, path)
            row["traced_trace"] = path
        row["counts"] = {k: v for k, v in sorted(layer.items())
                         if not (k.endswith(".s") or k.endswith("_s"))}
        rows.append(row)
    return {"instances": rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="print the workload names and exit")
    ap.add_argument("--mode", choices=["measure", "trace", "selfcheck"])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    import_package()
    from workloads import WORKLOADS
    if args.list:
        print("\n".join(WORKLOADS))
        return 0
    if None in (args.mode, args.workload, args.seed, args.out):
        ap.error("--mode, --workload, --seed and --out are required")
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.mode == "measure":
        result = measure(wl, args.seed, args.seconds)
    elif args.mode == "trace":
        result = trace_run(wl, args.seed, args.seconds, args.out)
    else:
        result = selfcheck(wl, args.seed, args.out)
    result["env"] = environment()
    result["driver"] = wl.driver
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
