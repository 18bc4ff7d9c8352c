"""Solver benchmark: seeded whole-solve workloads through gscopt's public API.

Run from the root of a checkout (gscopt is imported from ./src):

    python3 perfbench/run.py --workload logistic-dense --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 20          # every workload
    python3 perfbench/run.py --all --seed 0 --trace 1             # per-layer metrics
    python3 perfbench/run.py --all --selfcheck --seed 0           # determinism checks

Each workload runs in its own child process, in a closed loop with one
client, with BLAS pinned to one thread before numpy is imported.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (the end-to-end metrics of BENCHMARK.json
with --trace 0, the per-layer ones with --trace 1).  See README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench-out"
#: the child's environment, set before numpy is imported: one BLAS thread
CHILD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                    "NUMEXPR_NUM_THREADS")}
#: a child gets this long beyond its measuring time before it is stopped, so
#: that a run of up to 60 s ends within 180 s even when its child hangs
CHILD_GRACE_S = 120.0
#: a self-check child solves every instance twice without a time limit
SELFCHECK_TIMEOUT_S = 900.0

E2E = [("setup_s", "s"), ("solve_s", "s"), ("fail_rate", "ratio"), ("peak_rss_mb", "MB")]


def load_spec() -> dict:
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_commit() -> str:
    if not os.path.exists(".git"):  # git would report an enclosing repository
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def worker(args: list[str], timeout: float) -> list[str]:
    """Run worker.py in a child process; return its standard output lines."""
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return lines


def workload_names() -> list[str]:
    """Every workload, as workloads.py defines them."""
    return worker(["--list"], CHILD_GRACE_S)


def run_worker(mode: str, workload: str, seed: int, seconds: float, out: str) -> dict:
    """Run one workload in a child process and return its JSON result."""
    args = ["--mode", mode, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--out", out]
    timeout = SELFCHECK_TIMEOUT_S if mode == "selfcheck" else seconds + CHILD_GRACE_S
    return json.loads(worker(args, timeout)[-1])


def end_to_end(res: dict) -> dict:
    return {"setup_s": res["setup_s"], "solve_s": res["solve_s"],
            "fail_rate": res["failed"] / res["attempted"], "peak_rss_mb": res["peak_rss_mb"]}


def print_env(res: dict, seed: int, commit: str):
    env = res["env"]
    print(f"# env: blas_threads={env['blas_threads']} nproc={os.cpu_count()} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas='{env['blas']}' "
          f"python={env['python']} commit={commit} seed={seed}")


def print_failures(res: dict):
    print(f"  failed {res['failed']} of {res['attempted']} attempted "
          f"({res['wrong_outputs']} wrong outputs: failed checks or unexpected errors)")
    for f in res["failures"]:
        kind = "known failure" if f["known"] else "failure"
        print(f"  {kind} in {f['solves']} solves: {f['instance']}: {f['error']}")


def print_measure(name: str, res: dict):
    print(f"[{name}] end-to-end (tracing off)")
    values = end_to_end(res)
    for metric, unit in E2E:
        extra = f"  (median of {res['solve_n']} solves)" if metric == "solve_s" else ""
        print(f"  {metric:<12} {values[metric]:.6g} {unit}{extra}")
    print_failures(res)


def print_layers(name: str, driver: str, res: dict):
    m = res["layers"]
    print(f"[{name}] per-layer (traced; per traced solve, {m['traced_solves']:.0f} solves)")
    for key in sorted(m):
        shown = key.replace("driver.", driver + ".", 1)
        print(f"  {shown:<34} {m[key]:.6g}")
    print(f"  untraced solve_s {res['solve_s']:.6g} s over {res['solve_n']} solves; "
          f"spans in {res['spans_file']}")
    print_failures(res)


def result_line(res: dict, names: list[tuple[str, str]], values: dict) -> str:
    metrics = {}
    for name, unit in names:
        v = values[name]
        metrics[name] = {"value": v if math.isfinite(v) else None, "unit": unit}
    return json.dumps({"correct": res["wrong_outputs"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def save(res: dict, name: str, seed: int, trace: int, commit: str):
    os.makedirs(OUT_DIR, exist_ok=True)
    res = dict(res, workload=name, seed=seed, trace=trace, commit=commit,
               nproc=os.cpu_count())
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(res, fh, indent=1)


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict,
                 commit: str) -> tuple[dict, str]:
    from_spec = "per_layer" if trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[from_spec]]
    res = run_worker("trace" if trace else "measure", name, seed, seconds, OUT_DIR)
    save(res, name, seed, trace, commit)
    print_env(res, seed, commit)
    if trace:
        print_layers(name, res["driver"], res)
        values = res["layers"]
    else:
        print_measure(name, res)
        values = end_to_end(res)
    return res, result_line(res, names, values)


def selfcheck(seed: int, workloads: list[str]) -> int:
    """Two same-seed runs: equal counts, byte-identical traces, traced == untraced."""
    problems = []
    for name in workloads:
        runs = []
        for r in (1, 2):
            out = os.path.join(OUT_DIR, "selfcheck", name, f"run{r}")
            runs.append(run_worker("selfcheck", name, seed, 0.0, out)["instances"])
        for a, b in zip(*runs):
            label = f"{name}/{a['instance']}"
            for key in ("untraced", "traced", "counts"):
                if a[key] != b[key]:
                    problems.append(f"{label}: {key} differs between runs: {a[key]} / {b[key]}")
            if a["untraced"] != a["traced"]:
                problems.append(f"{label}: traced outcome {a['traced']} != {a['untraced']}")
            pairs = [(a.get("untraced_trace"), b.get("untraced_trace"), "runs"),
                     (a.get("untraced_trace"), a.get("traced_trace"), "traced/untraced")]
            for p, q, what in pairs:
                if (p is None) != (q is None) or (p and not filecmp.cmp(p, q, shallow=False)):
                    problems.append(f"{label}: traces differ ({what})")
            print(f"[{label}] {a['untraced']}; counts {a['counts']}")
    for p in problems:
        print("SELFCHECK FAILED:", p)
    print(f"selfcheck: {len(problems)} problems over {len(workloads)} workloads, seed {seed}")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gscopt solver benchmark")
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="a workload name (see --all or README.md)")
    which.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--selfcheck", action="store_true",
                    help="check that counts and traces repeat exactly, instead of timing")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "gscopt")):
        print("error: run from the root of a gscopt checkout (no src/gscopt here)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        names = workload_names() if args.all else [args.workload]
        if args.selfcheck:
            return selfcheck(args.seed, names)
        commit = git_commit()
        wrong = 0
        for name in names:
            res, line = run_workload(name, args.seed, seconds, args.trace, spec, commit)
            print(line)
            wrong += res["wrong_outputs"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
