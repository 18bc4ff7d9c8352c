"""Data ingestion, generators, baselines, and trace persistence."""

import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gscopt import atoms, models
from gscopt.bench_io import (_BLOCK, TRACE_COLUMNS, LibsvmParseError, fast_gradient,
                             frank_wolfe, gaussian_stream, gen_logistic, gen_portfolio,
                             pg_bb, read_libsvm, read_trace, write_trace)
from gscopt.errors import ParameterError
from gscopt.newton import IterRecord, SolveOptions, minimize
from gscopt.prox import ProxSpec


# ---------------------------------------------------------------------------
# LIBSVM parsing
# ---------------------------------------------------------------------------

def _write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_and_normalize(tmp_path):
    path = _write(tmp_path, "+1 1:0.6 3:0.8\n-1 2:3 4:4\n")
    ds = read_libsvm(path, normalize=True)
    arr = ds.a.toarray()
    assert np.allclose(arr[0], [0.6, 0.0, 0.8, 0.0])
    assert np.allclose(arr[1], [0.0, 0.6, 0.0, 0.8])
    assert set(ds.labels) == {-1.0, 1.0}
    assert np.allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-12)


def test_binary_label_mapping(tmp_path):
    path = _write(tmp_path, "0 1:1\n1 1:2\n0 1:3\n")
    ds = read_libsvm(path)
    assert np.array_equal(ds.labels, [-1.0, 1.0, -1.0])


def test_empty_file(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = read_libsvm(_write(tmp_path, ""))
    assert ds.n == 0 and caught == []


def test_parse_errors(tmp_path):
    with pytest.raises(LibsvmParseError) as err:
        read_libsvm(_write(tmp_path, "+1 1:0.5\n-1 notanumber:1\n"))
    assert err.value.line_no == 2
    with pytest.raises(LibsvmParseError) as err:
        read_libsvm(_write(tmp_path, "+1 3:1 2:5\n"))
    assert err.value.line_no == 1
    with pytest.raises(LibsvmParseError):
        read_libsvm(_write(tmp_path, "+1 0:1\n"))  # not 1-based


def test_roundtrip_random_sparse(tmp_path):
    rng = np.random.default_rng(3)
    n, p = 20, 15
    rows = []
    for i in range(n):
        idx = np.sort(rng.choice(np.arange(1, p + 1), size=rng.integers(1, 6), replace=False))
        vals = rng.normal(size=idx.size)
        rows.append(("+1" if i % 2 else "-1") + "".join(
            f" {j}:{format(v, '.17g')}" for j, v in zip(idx, vals)))
    path = _write(tmp_path, "\n".join(rows) + "\n")
    ds = read_libsvm(path, n_features=p)
    # write back and re-read: identical matrices
    out = []
    arr = ds.a
    for i in range(n):
        row = arr.getrow(i)
        toks = " ".join(f"{j+1}:{format(v, '.17g')}" for j, v in zip(row.indices, row.data))
        out.append(("+1" if ds.labels[i] > 0 else "-1") + " " + toks)
    path2 = _write(tmp_path, "\n".join(out) + "\n", name="again.txt")
    ds2 = read_libsvm(path2, n_features=p)
    assert (ds.a != ds2.a).nnz == 0
    assert np.array_equal(ds.labels, ds2.labels)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_portfolio_deterministic():
    w1 = gen_portfolio(50, 10, seed=7)
    w2 = gen_portfolio(50, 10, seed=7)
    assert w1.tobytes() == w2.tobytes()
    assert gen_portfolio(50, 10, seed=8).tobytes() != w1.tobytes()


def test_gen_portfolio_moments():
    w = gen_portfolio(1000, 100, seed=3)  # n p = 1e5
    assert abs(w.mean() - 1.0) <= 0.01
    assert abs(w.std() - 0.1) <= 0.01
    assert w.min() >= 1e-3


def test_gen_portfolio_validation():
    with pytest.raises(ParameterError):
        gen_portfolio(0, 5, seed=1)


@pytest.mark.parametrize("n, p", [(0, 5), (5, 0), (-1, 3)])
def test_gen_logistic_validation(n, p):
    with pytest.raises(ParameterError, match="gen_logistic needs n, p >= 1"):
        gen_logistic(n, p, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_the_stream_are_refused(seed):
    # the stream's state is seed mod 2^64: a seed it cannot hold is refused, by every
    # generator, rather than raising numpy's OverflowError
    for make in (lambda: gaussian_stream(seed, 4), lambda: gen_portfolio(3, 2, seed=seed),
                 lambda: gen_logistic(3, 2, seed=seed)):
        with pytest.raises(ParameterError, match=r"^seed must be in \[0, 2\*\*64\)"):
            make()
    # the ends of the range are seeds
    assert np.array_equal(gaussian_stream(2**64 - 1, 5), _one_shot_gaussians(2**64 - 1, 5))
    assert np.array_equal(gaussian_stream(0, 5), _one_shot_gaussians(0, 5))


def test_gen_logistic_normalized():
    a, labels = gen_logistic(40, 7, seed=5)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    assert set(np.unique(labels)) <= {-1.0, 1.0}


# The generators stream their output in blocks; each must match the one-shot
# formulas below bit for bit.  Both run on the same machine, since libm and
# SIMD results may differ between machines.

def _one_shot_gaussians(seed, count):
    pairs = (count + 1) // 2
    golden = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + golden * np.arange(1, 2 * pairs + 1, dtype=np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(np.maximum(u[0::2], 2.0**-53)))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * math.pi * u[1::2])
    out[1::2] = r * np.sin(2.0 * math.pi * u[1::2])
    return out[:count]


_SEEDS = [0, 1, 12345, 2**63 - 5]
# a block holds _BLOCK uniform pairs, that is 2 * _BLOCK normals
_COUNTS = [0, 1, 2, 7, 2 * _BLOCK - 2, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 2 * _BLOCK + 2,
           6 * _BLOCK + 3]


@pytest.mark.parametrize("seed", _SEEDS)
def test_gaussian_stream_matches_one_shot(seed):
    for count in _COUNTS:
        assert np.array_equal(gaussian_stream(seed, count), _one_shot_gaussians(seed, count)), count


@pytest.mark.parametrize("n, p", [(1, 1), (40, 7), (3, 2 * _BLOCK + 1), (2000, 33)])
@pytest.mark.parametrize("seed", [5, 2**63 - 5])
def test_generators_match_one_shot(n, p, seed):
    z = _one_shot_gaussians(seed, n * p + p + n)
    a = z[: n * p].reshape(n, p)
    labels = np.sign(a @ z[n * p: n * p + p] + 0.1 * z[n * p + p:])
    labels[labels == 0.0] = 1.0
    got_a, got_labels = gen_logistic(n, p, seed=seed, normalize=False)
    assert np.array_equal(got_a, a) and np.array_equal(got_labels, labels)
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    labels = np.sign(a @ z[n * p: n * p + p] + 0.1 * z[n * p + p:])
    labels[labels == 0.0] = 1.0
    got_a, got_labels = gen_logistic(n, p, seed=seed)
    assert np.array_equal(got_a, a) and np.array_equal(got_labels, labels)
    w = np.maximum(1.0 + 0.1 * _one_shot_gaussians(seed, n * p).reshape(n, p), 1e-3)
    assert np.array_equal(gen_portfolio(n, p, seed=seed), w)


@pytest.mark.parametrize("make", [lambda: gen_logistic(2000, 400, seed=0),
                                  lambda: (gen_portfolio(20000, 50, seed=0),)],
                         ids=["logistic", "portfolio"])
def test_generators_memory_is_output_plus_blocks(make):
    tracemalloc.start()
    try:
        out = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(x.nbytes for x in out)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def _logistic_model(n=300, p=20, seed=5, gamma=1e-5):
    a, labels = gen_logistic(n, p, seed=seed)
    return models.GlmModel(a * labels[:, None], atoms.logistic(), q_diag=gamma)


def test_fast_gradient_slower_than_newton():
    model = _logistic_model()
    x0 = np.zeros(model.dim)
    mu, lips = model.smoothness_bounds()
    x, hist = fast_gradient(model, x0, mu, lips, eps=1e-6)
    assert np.linalg.norm(model.grad(x)) <= 1e-6
    res = minimize(model, x0, SolveOptions(nu_choice="force_2", record_time=False))
    newton_iters = next(r.k for r in res.trace if r.grad_norm <= 1e-6)
    assert len(hist) >= 5 * newton_iters


def test_fast_gradient_needs_constants():
    model = _logistic_model()
    with pytest.raises(ParameterError):
        fast_gradient(model, np.zeros(model.dim), 0.0, 1.0)
    with pytest.raises(ParameterError):
        fast_gradient(model, np.zeros(model.dim), 1.0, np.inf)


def test_frank_wolfe_stays_on_simplex():
    port = models.PortfolioModel(gen_portfolio(40, 8, seed=2))
    x0 = np.full(8, 1.0 / 8.0)
    for ls in (False, True):
        x, hist = frank_wolfe(port, x0, eps=1e-5, linesearch=ls)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        assert x.min() >= -1e-15


def test_pg_bb_matches_prox_newton():
    from gscopt.prox_newton import CompositeProblem, minimize_composite
    port = models.PortfolioModel(gen_portfolio(50, 10, seed=7))
    x0 = np.full(10, 0.1)
    xbb, _ = pg_bb(port, ProxSpec("simplex"), x0, eps=1e-10)
    res = minimize_composite(CompositeProblem(port, ProxSpec("simplex"), x0),
                             SolveOptions(eps=1e-9, record_time=False))
    f_bb, f_pn = port.value(xbb), port.value(res.x)
    assert abs(f_bb - f_pn) <= 1e-6 * (1.0 + abs(f_pn))


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

def _demo_trace():
    model = _logistic_model(n=60, p=5, seed=9)
    trace = minimize(model, np.zeros(5), SolveOptions(record_time=False)).trace
    # damped steps record their certified decrease, full steps and the last record NaN
    assert {math.isnan(r.dec_est) for r in trace} == {False, True}
    return trace


def _fields(trace):
    """Each record's fields as text: floats bit-exact (repr), and NaN the same as NaN."""
    return [repr(dataclasses.astuple(r)) for r in trace]


def test_csv_schema_and_roundtrip(tmp_path):
    trace = _demo_trace()
    path = str(tmp_path / "t.csv")
    write_trace(trace, path, "csv")
    text = Path(path).read_text()
    assert text.splitlines()[0] == "iter,phase,f,grad_norm,lambda,beta,d_k,tau,dec_est,cum_time_s"
    back = read_trace(path, "csv")
    assert _fields(back) == _fields(trace)  # every IterRecord field; floats bit-exact
    # byte-identical rewrite
    path2 = str(tmp_path / "t2.csv")
    write_trace(back, path2, "csv")
    assert Path(path).read_bytes() == Path(path2).read_bytes()
    # a file without its header row reads the same
    path3 = tmp_path / "t3.csv"
    path3.write_text(text.split("\n", 1)[1])
    assert _fields(read_trace(str(path3), "csv")) == _fields(trace)


def test_json_roundtrip_bit_exact(tmp_path):
    trace = _demo_trace()
    path = str(tmp_path / "t.json")
    write_trace(trace, path, "json")
    with open(path) as fh:
        assert all(list(row) == TRACE_COLUMNS for row in json.load(fh))
    # every IterRecord field; floats bit-exact
    assert _fields(read_trace(path, "json")) == _fields(trace)


def test_empty_trace(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_trace([], path, "csv")
    assert Path(path).read_text() == \
        "iter,phase,f,grad_norm,lambda,beta,d_k,tau,dec_est,cum_time_s\n"
    assert read_trace(path, "csv") == []


def test_three_records_four_lines(tmp_path):
    trace = [IterRecord(k, 1.0 / (k + 1), 0.1, 0.2, 0.3, 0.4, 1.0, "damped", 0.0)
             for k in range(3)]
    path = str(tmp_path / "three.csv")
    write_trace(trace, path, "csv")
    assert len(Path(path).read_text().splitlines()) == 4


def test_write_error_carries_path():
    with pytest.raises(OSError) as err:
        write_trace([], "/nonexistent-dir/trace.csv", "csv")
    assert "/nonexistent-dir/trace.csv" in str(err.value)
