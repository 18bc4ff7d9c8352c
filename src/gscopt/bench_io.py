"""Data ingestion, synthetic generators, first-order baselines, and trace files.

PRNG identity: all synthetic generators draw Gaussians by Box-Muller over a
splitmix64 stream (state_i = seed + i * 0x9E3779B97F4A7C15 mod 2^64, output
murmur-style mixed; uniforms from the top 53 bits), so a port in any language
reproduces the same matrices bit-for-bit from the seed alone.

Trace files follow newton.TRACE_SCHEMA, the one table of (file column,
IterRecord field) pairs: it gives the CSV columns (TRACE_COLUMNS) and the
JSON keys, in order.  Floats serialize with 17 significant digits, which
round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import typing
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError
from .kernel import _bisect_increasing
from .models import row_sq_norms
from .newton import TRACE_SCHEMA, IterRecord
from .prox import ProxSpec, prox_apply

PRNG_NAME = "splitmix64+box-muller"

TRACE_COLUMNS = [column for column, _ in TRACE_SCHEMA]


# ---------------------------------------------------------------------------
# LIBSVM text format
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    a: sp.csr_matrix
    labels: np.ndarray
    name: str = ""
    normalized: bool = False

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def p(self):
        return self.a.shape[1]


class LibsvmParseError(ParameterError):
    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_libsvm(path, normalize: bool = False, n_features: int | None = None) -> Dataset:
    """Parse 'label idx:val ...' lines (1-based, ascending indices) into a sparse dataset.

    Binary label sets are mapped onto {-1, +1} (smaller value -> -1); rows are
    l2-normalized when requested.  An empty file yields an n = 0 dataset.
    """
    labels, indptr, indices, data = [], [0], [], []
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                labels.append(float(parts[0]))
            except ValueError:
                raise LibsvmParseError(f"bad label {parts[0]!r}", line_no) from None
            prev = 0
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise LibsvmParseError(f"bad feature token {tok!r}", line_no) from None
                if idx < 1:
                    raise LibsvmParseError(f"index {idx} is not 1-based", line_no)
                if idx <= prev:
                    raise LibsvmParseError(
                        f"indices not strictly ascending ({prev} then {idx})", line_no
                    )
                prev = idx
                indices.append(idx - 1)
                data.append(val)
            indptr.append(len(indices))
    n = len(labels)
    p = n_features if n_features is not None else (max(indices) + 1 if indices else 0)
    a = sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(n, p),
    )
    y = np.asarray(labels)
    uniq = np.unique(y)
    if uniq.size == 2:
        mapped = np.where(y == uniq[0], -1.0, 1.0)
        y = mapped
    if normalize and n:
        norms = np.sqrt(row_sq_norms(a))
        inv = np.where(norms > 0.0, 1.0 / np.maximum(norms, 1e-300), 0.0)
        a.data *= np.repeat(inv, np.diff(a.indptr))
    return Dataset(a=a, labels=y, normalized=normalize)


# ---------------------------------------------------------------------------
# Deterministic synthetic generators
# ---------------------------------------------------------------------------

#: uniform pairs per block of the streamed generators; a generator's working
#: arrays are a few blocks (under 1 MB) whatever the size of its output
_BLOCK = 1 << 13

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """Overwrite the uint64 array out with outputs start, start + 1, ... of the stream of seed.

    The state advance is a plain counter (state_i = seed + i * golden mod 2^64,
    i counted from 1), so any stretch of the stream is computed on its own.
    """
    mix = np.empty_like(out)
    with np.errstate(over="ignore"):
        np.multiply(np.arange(start + 1, start + 1 + out.size, dtype=np.uint64), _GOLDEN, out=out)
        out += np.uint64(seed)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(out, np.uint64(shift), out=mix)
            out ^= mix
            out *= mult
        np.right_shift(out, np.uint64(31), out=mix)
        out ^= mix
    return out


def gaussian_stream(seed: int, count: int) -> np.ndarray:
    """count standard normals via Box-Muller on consecutive uniform pairs.

    Normal 2j is r cos(2 pi u2) and normal 2j+1 is r sin(2 pi u2), with
    r = sqrt(-2 ln u1) from uniforms 2j and 2j+1.  The pairs are made
    _BLOCK at a time and written straight into the output, so memory is the
    output plus one block of working arrays (under 1 MB).  A seed is in [0, 2^64).
    """
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be in [0, 2**64), got {seed}")
    out = np.empty(count)
    pairs = (count + 1) // 2
    bits = np.empty(2 * min(pairs, _BLOCK), dtype=np.uint64)
    u = np.empty(bits.size)
    r, angle, trig = (np.empty(bits.size // 2) for _ in range(3))
    for j in range(0, pairs, _BLOCK):
        m = min(_BLOCK, pairs - j)
        bits, u, r, angle, trig = bits[:2 * m], u[:2 * m], r[:m], angle[:m], trig[:m]
        _splitmix64(seed, 2 * j, bits)
        np.right_shift(bits, np.uint64(11), out=bits)
        np.multiply(bits, 2.0**-53, out=u)  # top 53 bits -> [0, 1)
        np.maximum(u[0::2], 2.0**-53, out=r)  # guard log(0)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        np.multiply(u[1::2], 2.0 * math.pi, out=angle)
        np.cos(angle, out=trig)
        np.multiply(r, trig, out=out[2 * j:2 * (j + m):2])
        np.sin(angle, out=trig)
        odd = out[2 * j + 1:2 * (j + m):2]  # one short when count is odd
        np.multiply(r[:odd.size], trig[:odd.size], out=odd)
    return out


def gen_portfolio(n: int, p: int, seed: int, sigma: float = 0.1, clamp: float = 1e-3) -> np.ndarray:
    """Price-ratio matrix W = 1 + N(0, sigma^2), entries clamped to >= clamp.

    The clamp keeps the portfolio domain valid even for extreme draws (at
    sigma = 0.1 negative entries are ~1e-23 probable, but the guard makes
    positivity certain).  Scaled, shifted and clamped in place, so memory is
    the output plus one gaussian_stream block.
    """
    if n < 1 or p < 1:
        raise ParameterError("gen_portfolio needs n, p >= 1")
    w = gaussian_stream(seed, n * p).reshape(n, p)
    w *= sigma
    w += 1.0
    return np.maximum(w, clamp, out=w)


def gen_logistic(n: int, p: int, seed: int, normalize: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic binary classification rows (optionally unit-norm) and labels.

    The rows, the true x and the label noise are one gaussian_stream; the
    rows are a view of it, normalized in place a block of rows at a time, so
    memory is the output plus one gaussian_stream block.
    """
    if n < 1 or p < 1:
        raise ParameterError("gen_logistic needs n, p >= 1")
    z = gaussian_stream(seed, n * p + p + n)
    a = z[: n * p].reshape(n, p)
    if normalize:
        rows = max(1, 2 * _BLOCK // max(p, 1))
        for i in range(0, n, rows):
            block = a[i:i + rows]
            # the arithmetic of np.linalg.norm(block, axis=1, keepdims=True)
            block /= np.sqrt(np.add.reduce(block * block, axis=1, keepdims=True))
    x_true = z[n * p: n * p + p]
    noise = z[n * p + p:]
    labels = np.sign(a @ x_true + 0.1 * noise)
    labels[labels == 0.0] = 1.0
    return a, labels


# ---------------------------------------------------------------------------
# First-order baselines
# ---------------------------------------------------------------------------

def fast_gradient(model, x0, mu: float, lips: float, eps: float = 1e-6,
                  max_iter: int = 100000) -> tuple[np.ndarray, list]:
    """Accelerated gradient method with the constant momentum for strongly convex f.

    Stops at ||grad f(x)|| <= eps.  Needs 0 < mu <= lips < inf.
    """
    if not (0.0 < mu <= lips < math.inf):
        raise ParameterError("fast_gradient needs 0 < mu <= L < inf")
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    q = math.sqrt(mu / lips)
    theta = (1.0 - q) / (1.0 + q)
    hist = []
    for k in range(max_iter):
        g = model.grad(x)
        gn = float(np.linalg.norm(g))
        hist.append((k, model.value(x), gn))
        if gn <= eps:
            break
        gy = model.grad(y)
        x_new = y - gy / lips
        y = x_new + theta * (x_new - x)
        x = x_new
    return x, hist


def pg_bb(model, prox_spec: ProxSpec, x0, eps: float = 1e-6, max_iter: int = 100000,
          step_bounds=(1e-12, 1e12)) -> tuple[np.ndarray, list]:
    """Projected/proximal gradient with the Barzilai-Borwein step.

    Stops at ||x_{k+1} - x_k|| <= eps max(1, ||x_k||).
    """
    x = np.asarray(x0, dtype=float).copy()
    g = model.grad(x)
    step = 1.0 / max(np.linalg.norm(g), 1.0)
    hist = []
    for k in range(max_iter):
        x_new = prox_apply(prox_spec, x - step * g, step)
        if not model.feasible(x_new):
            step *= 0.5
            continue
        hist.append((k, model.value(x_new), float(np.linalg.norm(x_new - x))))
        if hist[-1][2] <= eps * max(1.0, float(np.linalg.norm(x))):
            return x_new, hist
        g_new = model.grad(x_new)
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 0.0:
            step = float(s @ s) / sy
        step = min(max(step, step_bounds[0]), step_bounds[1])
        x, g = x_new, g_new
    return x, hist


def frank_wolfe(model, x0, eps: float = 1e-4, max_iter: int = 100000,
                linesearch: bool = False) -> tuple[np.ndarray, list]:
    """Frank-Wolfe over the probability simplex; linear oracle is the best vertex.

    Default step 2/(k+2); the linesearch variant minimizes along the segment
    by bisection on the directional derivative.  Stops at
    ||x_{k+1} - x_k|| <= eps max(1, ||x_k||).
    """
    x = np.asarray(x0, dtype=float).copy()
    hist = []
    for k in range(max_iter):
        g = model.grad(x)
        vertex = np.zeros_like(x)
        vertex[int(np.argmin(g))] = 1.0
        d = vertex - x
        if linesearch:
            t = _segment_linesearch(model, x, d)
        else:
            t = 2.0 / (k + 2.0)
        x, x_old = x + t * d, x
        hist.append((k, model.value(x), float(np.linalg.norm(x - x_old))))
        if hist[-1][2] <= eps * max(1.0, float(np.linalg.norm(x_old))):
            break
    return x, hist


def _segment_linesearch(model, x, d):
    """t in [0, 1] minimizing the convex restriction: kernel bisection on its derivative."""
    def dphi(t):
        return float(model.grad(x + t * d) @ d)

    if dphi(0.0) >= 0.0:
        return 0.0
    t_hi = 1.0
    # keep strictly feasible for barrier-type objectives
    while t_hi > 1e-16 and not model.feasible(x + t_hi * d):
        t_hi *= 0.5
    if dphi(t_hi) <= 0.0:
        return t_hi
    return _bisect_increasing(dphi, 0.0, t_hi, t_hi * 2.0**-60)


# ---------------------------------------------------------------------------
# Trace persistence
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_FIELD_TYPES = typing.get_type_hints(IterRecord)
#: (IterRecord field, value -> CSV cell) in column order
_CSV_CELLS = [(name, _fmt if _FIELD_TYPES[name] is float else str) for _, name in TRACE_SCHEMA]


def trace_to_csv(trace: list[IterRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for r in trace:
        writer.writerow([cell(getattr(r, name)) for name, cell in _CSV_CELLS])
    return buf.getvalue()


def write_trace(trace: list[IterRecord], path, fmt: str = "csv") -> None:
    """Persist a solver trace; floats carry 17 significant digits (lossless)."""
    if fmt == "csv":
        text = trace_to_csv(trace)
    elif fmt == "json":
        rows = [{column: getattr(r, name) for column, name in TRACE_SCHEMA} for r in trace]
        text = json.dumps(rows, indent=1) + "\n"
    else:
        raise ParameterError(f"unknown trace format {fmt!r}")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"writing trace to {path}: {exc}") from exc


def read_trace(path, fmt: str = "csv") -> list[IterRecord]:
    """The records of a trace file; a CSV file may omit its header row."""
    if fmt not in ("csv", "json"):
        raise ParameterError(f"unknown trace format {fmt!r}")
    try:
        with open(path, newline="") as fh:
            rows = json.load(fh) if fmt == "json" else list(csv.reader(fh))
    except OSError as exc:
        raise OSError(f"reading trace from {path}: {exc}") from exc
    if fmt == "csv":
        if rows[:1] == [TRACE_COLUMNS]:
            del rows[0]
        rows = [dict(zip(TRACE_COLUMNS, r)) for r in rows]
    return [IterRecord(**{name: _FIELD_TYPES[name](row[column]) for column, name in TRACE_SCHEMA})
            for row in rows]
