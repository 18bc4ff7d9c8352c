"""Outside-in tracing of whole solves, from the benchmark's own code.

Spans are recorded only around calls the benchmark makes or hands over:

* ``TracedModel`` is a delegating proxy that records a ``models.<oracle>``
  span around every oracle call a driver makes;
* ``timed_atom`` builds a LossAtom whose derivative closures record
  ``atoms.eval`` spans (children of the oracle span that called them) and
  the number of array entries evaluated;
* the driver itself gets one span per solve (``newton``, ``prox_newton``,
  ``quasi_newton``).

Between oracle calls a driver runs linops, prox, kernel and quasi_newton
code.  That time is attributed from the order of the oracle spans (the
windows below), and the modules' public functions are replayed on the
captured inputs to split out Cholesky, lambda_max, prox matvecs and step
sizes.  Replays run in ``replay.*`` spans that every accounting subtracts.
No code of the package is edited or patched.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import numpy as np

from gscopt import GlmModel, LossAtom, kernel, linops
from gscopt.errors import SubproblemError
from gscopt.models import glm_gsc_params
from gscopt.prox import scaled_prox_subproblem

NAME, START, END, PARENT, SOLVE, ELEMENTS = range(6)
ORACLE = ("value", "grad", "hessian", "hvp", "feasible", "check_domain")


class Recorder:
    """In-memory span store: [name, start, end, parent index, solve id, elements]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.solve_id = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.solve_id, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, elements: int = 0) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        span[ELEMENTS] = elements
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.solve_id, 0])

    def solve_spans(self, solve_id: int) -> list[list]:
        return [s for s in self.spans if s[SOLVE] == solve_id]


class TracedModel:
    """Delegating model proxy: every oracle call runs inside a models.* span.

    Oracle methods are looked up on the wrapped model, so the proxy exposes
    ``feasible`` (read by the drivers with getattr) exactly where the model
    does.  ``after(name, args, result)`` sees each completed call; the
    tracer uses it to capture replay inputs.
    """

    def __init__(self, model, rec: Recorder, after=None):
        self._model = model
        self._rec = rec
        self._after = after

    def __getattr__(self, name):
        attr = getattr(self._model, name)
        if name not in ORACLE:
            return attr
        rec, after, span_name = self._rec, self._after, "models." + name

        def call(*args):
            idx = rec.begin(span_name)
            try:
                out = attr(*args)
            finally:
                rec.end(idx)
            if after is not None:
                after(name, args, out)
            return out

        self.__dict__[name] = call
        return call


def timed_atom(atom: LossAtom, rec: Recorder) -> LossAtom:
    """The same atom, with derivative closures that record atoms.eval spans."""

    def timed(fn):
        def call(t):
            idx = rec.begin("atoms.eval")
            try:
                return fn(t)
            finally:
                rec.end(idx, int(np.size(t)))
        return call

    return LossAtom(atom.kind, atom.params, atom.domain,
                    tuple(timed(f) for f in atom._derivs), atom.d2_sup)


def with_timed_atom(model, rec: Recorder):
    """A GLM rebuilt over the same arrays with a timed atom; other models as they are."""
    if not isinstance(model, GlmModel):
        return model
    return GlmModel(model.a, timed_atom(model.atom, rec), b=model.b, weights=model.w,
                    q_diag=model.q_diag, c=model.c, p_dense=model.p_dense)


# ---------------------------------------------------------------------------
# Replays on captured inputs
# ---------------------------------------------------------------------------

class Capture:
    """Oracle hook of one traced solve.

    newton: each dense Hessian is factored again right away with
    linops.newton_direction (Cholesky), timed in a replay.cholesky span;
    holding every Hessian until the solve ends would cost O(iters p^2) memory.
    prox_newton: (x, grad, H) per Hessian are kept for the post-solve replay
    of the subproblems (p is small there).
    """

    def __init__(self, driver: str, rec: Recorder):
        self.driver = driver
        self.rec = rec
        self.grad = None
        self.steps: list[tuple] = []

    def __call__(self, name, args, out):
        if name == "grad":
            self.grad = out
        elif name == "hessian" and self.driver == "newton":
            t0 = perf_counter()
            linops.newton_direction(linops.NewtonSystem(out, self.grad), method="cholesky")
            self.rec.add("replay.cholesky", t0, perf_counter())
        elif name == "hessian" and self.driver == "prox_newton":
            self.steps.append((np.array(args[0]), self.grad, out))


def replay_prox(steps, spec) -> Counter:
    """Re-run each outer iteration's lambda_max and subproblem solves of minimize_composite.

    The inner tolerances follow the driver's schedule; each iteration's
    decrement comes out of the replay itself, so a solve that raised is
    replayed up to the subproblem that failed.  H-matvecs are counted by a
    callable operator.
    """
    out = Counter()
    lam_prev = np.inf
    for x, g, h in steps:
        calls = [0]

        def matvec(v, _h=h):
            calls[0] += 1
            return _h @ v

        t0 = perf_counter()
        l_h = linops.largest_eigenvalue(h, dim=x.size)
        out["linops.lmax.s"] += perf_counter() - t0
        inner_tol = max(1e-12, min(0.1, lam_prev * lam_prev))
        try:
            while True:
                out["prox.subproblems"] += 1
                z = scaled_prox_subproblem(matvec, g, x, spec, tol=inner_tol, l_h=l_h)
                lam_prev = linops.local_norm(h, z - x)
                if not (inner_tol > 1e-12 and inner_tol > 0.1 * lam_prev * lam_prev):
                    break
                inner_tol = max(1e-12, 0.01 * lam_prev * lam_prev)
        except SubproblemError:
            out["prox.failures"] += 1
        finally:
            out["prox.matvecs"] += calls[0]
    return out


def replay_step_sizes(trace, params) -> tuple[int, float]:
    """Time kernel.step_size on every (lambda, beta) a solve recorded."""
    t0 = perf_counter()
    for r in trace:
        kernel.step_size(params.nu, params.m, r.lam, r.beta)
    return len(trace), perf_counter() - t0


def replay_params(model) -> float:
    """Seconds to recompute a GLM's native certificate (0 for other models)."""
    if not isinstance(model, GlmModel):
        return 0.0
    t0 = perf_counter()
    glm_gsc_params(model, "native")
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# Attribution of one solve's spans
# ---------------------------------------------------------------------------

#: the layer that owns the window time between oracle calls, per driver
WINDOW_LAYER = {"newton": "linops.s", "prox_newton": "prox.s",
                "quasi_newton": "quasi_newton.update.s"}


def _duration(span) -> float:
    return span[END] - span[START]


def _windows(driver: str, seq: list[list], end_of_solve: float | None):
    """(start, end, inner spans) of each gap a driver spends outside the oracle.

    newton / prox_newton: from the last oracle span before a direction
    solve (grad or hessian; CG hvps stay inside) to the first feasible
    check of the step, or to the final grad after convergence.
    quasi_newton: from grad(x+) to the next value, which holds bfgs_update;
    only a grad that follows the line search's value calls opens one.
    end_of_solve is given when the solve raised: the direction solve that
    raised runs from the last oracle span to there.
    """
    models = [s for s in seq if s[NAME].startswith("models.")]
    names = [s[NAME] for s in models]
    if end_of_solve is not None and driver != "quasi_newton":
        models.append(["raised", end_of_solve, end_of_solve, -1, -1, 0])
        names.append("raised")
    for j, span in enumerate(models):
        if driver == "quasi_newton":
            opens = (names[j] == "models.value" and j >= 2
                     and names[j - 1] == "models.grad" and names[j - 2] == "models.value")
        else:
            first_check = names[j] == "models.feasible" and names[j - 1] != "models.feasible"
            final_grad = j == len(models) - 1 and names[j] in ("models.grad", "raised")
            opens = j > 0 and (first_check or final_grad)
        if not opens:
            continue
        i = j - 1
        while i > 0 and names[i] == "models.hvp":
            i -= 1
        start, end = models[i][END], span[START]
        yield start, end, [s for s in seq if start <= s[START] and s[END] <= end]


def attribute(driver: str, spans: list[list], raised: bool = False) -> Counter:
    """Per-layer times and counts of one traced solve.

    The driver's span is the root; replay spans are taken out of its
    duration.  Driver self time is what neither an oracle span nor an
    attributed window covers.
    """
    out = Counter()
    root = spans[0]
    if root[NAME] != driver:
        raise ValueError(f"solve spans start with {root[NAME]!r}, not the {driver} span")
    top = [s for s in spans if s is not root and s[NAME] != "atoms.eval"]
    replay = sum(_duration(s) for s in top if s[NAME].startswith("replay."))
    for s in spans:
        name = s[NAME]
        if name.startswith("models."):
            out[name + ".calls"] += 1
            out[name + ".s"] += _duration(s)
            out["models.s"] += _duration(s)
        elif name == "atoms.eval":
            out["atoms.eval.calls"] += 1
            out["atoms.eval.s"] += _duration(s)
            out["atoms.eval.elements"] += s[ELEMENTS]
        elif name == "replay.cholesky":
            out["linops.cholesky.s"] += _duration(s)
    out["models.self_s"] = out["models.s"] - out["atoms.eval.s"]
    names = [s[NAME] for s in top if s[NAME].startswith("models.")]
    for prev, name in zip([""] + names, names):
        if name == "models.feasible" and prev != name:
            out["steps_checked"] += 1
        if driver == "quasi_newton" and name == "models.value" and prev == name:
            out["quasi_newton.linesearch_evals"] += 1
    out["driver.guard_halvings"] = out["models.feasible.calls"] - out["steps_checked"]

    layer = WINDOW_LAYER[driver]
    for start, end, inner in _windows(driver, top, root[END] if raised else None):
        busy = sum(_duration(s) for s in inner
                   if s[NAME] == "models.hvp" or s[NAME].startswith("replay."))
        out[layer] += (end - start) - busy
        out["windows"] += 1
    out["direction.s"] = out[layer]
    solve_s = _duration(root) - replay
    out["solve_s"] = solve_s
    out["driver.self_s"] = solve_s - out["models.s"] - out["direction.s"]
    return out
