"""End-to-end CLI runs through main(argv)."""

import math
import warnings

import numpy as np
import pytest

from gscopt import bench_io, linops, models
from gscopt.errors import NotPositiveDefiniteError
from gscopt.cli import main
from gscopt.newton import SolveOptions, minimize


def test_kernels_output(capsys):
    assert main(["kernels", "--nu", "2", "--tau", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.718281828459" in out   # omega(2, 1) = e - 2
    assert "1.71828182846" in out    # omega_bar(2, 1) = e - 1


def test_kernels_overflow_prints_inf(capsys):
    # (1 - 0.3)^(-2/0.0001) exceeds the float range
    assert main(["kernels", "--nu", "2.0001", "--tau", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "omega(2.0001, 0.3)         = inf" in out
    assert "r_nu(2.0001, 0.3)          = inf" in out


def test_fit_logistic_synthetic(tmp_path, capsys):
    out_path = str(tmp_path / "trace.csv")
    code = main(["fit-logistic", "--synthetic", "n=400,p=30", "--nu", "2",
                 "--gamma", "1e-5", "--eps", "1e-8", "--seed", "5",
                 "--out", out_path, "--deterministic"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status=converged" in out and "train_error=" in out
    trace = bench_io.read_trace(out_path, "csv")
    assert trace and trace[-1].lam <= 1e-8 * max(1.0, trace[0].lam)


def test_inner_failure_prints_the_error_and_exits_2(tmp_path, capsys, monkeypatch):
    def failing_factor(*args):
        raise NotPositiveDefiniteError("Cholesky factorization failed at pivot 1")

    monkeypatch.setattr(linops, "_factor", failing_factor)
    out_path = str(tmp_path / "trace.csv")
    code = main(["fit-logistic", "--synthetic", "n=50,p=5", "--out", out_path,
                 "--deterministic"])
    assert code == 2
    captured = capsys.readouterr()
    assert "status=inner_failure  iters=0" in captured.out
    assert "error: NotPositiveDefiniteError: Cholesky factorization failed" in captured.err
    trace = bench_io.read_trace(out_path, "csv")
    assert len(trace) == 1 and math.isnan(trace[0].lam)


def test_fit_logistic_deterministic_traces(tmp_path):
    for solver in ("newton", "bfgs"):
        args = ["fit-logistic", "--synthetic", "n=200,p=15", "--nu", "2", "--seed", "3",
                "--solver", solver, "--deterministic"]
        p1, p2 = tmp_path / f"{solver}-a.csv", tmp_path / f"{solver}-b.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


def test_fit_logistic_from_file(tmp_path):
    path = tmp_path / "tiny.txt"
    rng = np.random.default_rng(0)
    lines = []
    for i in range(40):
        v = rng.normal(size=3)
        lab = "+1" if v.sum() > 0 else "-1"
        lines.append(f"{lab} 1:{v[0]:.6f} 2:{v[1]:.6f} 3:{v[2]:.6f}")
    path.write_text("\n".join(lines) + "\n")
    assert main(["fit-logistic", "--data", str(path), "--gamma", "1e-4",
                 "--deterministic"]) == 0


def test_portfolio_prox_newton(capsys):
    code = main(["portfolio", "--synthetic", "n=50,p=10", "--solver", "prox-newton",
                 "--seed", "7", "--eps", "1e-9", "--deterministic"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sum=1.000000000000" in out


@pytest.mark.parametrize("text", ["1.01,0.99,1.02\n", "1.01\n0.99\n1.02\n"],
                         ids=["one-row", "one-column"])
def test_portfolio_reads_a_one_row_or_one_column_csv(tmp_path, capsys, text):
    path = tmp_path / "w.csv"
    path.write_text(text)
    assert main(["portfolio", "--data", str(path), "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert "status=converged" in out and "sum=1.000000000000" in out


def test_portfolio_prox_newton_200x20(capsys):
    assert main(["portfolio", "--synthetic", "n=200,p=20"]) == 0
    assert "status=converged" in capsys.readouterr().out


def test_portfolio_first_order_solvers(capsys):
    for solver in ("pg-bb", "fw-ls"):
        code = main(["portfolio", "--synthetic", "n=30,p=6", "--solver", solver,
                     "--seed", "2", "--eps", "1e-5"])
        assert code == 0 and "status=converged" in capsys.readouterr().out


def test_fit_dwd(capsys):
    code = main(["fit-dwd", "--synthetic", "n=50,p=6", "--q", "1",
                 "--gammas", "1e-5,1e-5,1e-7", "--deterministic"])
    assert code == 0
    assert "status=converged" in capsys.readouterr().out


def test_fit_dwd_sparse_file_matches_dense(tmp_path):
    # --data keeps the LIBSVM rows sparse; the solve matches the same rows passed dense
    path, out = tmp_path / "dwd.txt", str(tmp_path / "trace.json")
    rng = np.random.default_rng(9)
    lines = []
    for _ in range(60):
        cols = np.sort(rng.choice(8, size=3, replace=False))
        vals = rng.normal(size=3)
        lab = "+1" if vals.sum() > 0 else "-1"
        lines.append(lab + "".join(f" {j + 1}:{float(v)!r}" for j, v in zip(cols, vals)))
    path.write_text("\n".join(lines) + "\n")
    assert main(["fit-dwd", "--data", str(path), "--deterministic", "--out", out]) == 0
    trace = bench_io.read_trace(out, "json")
    ds = bench_io.read_libsvm(str(path), normalize=True)
    dense = models.dwd_as_glm(models.DwdModel(a=ds.a.toarray(), y=ds.labels, c=np.zeros(60),
                                              q=1.0, gammas=(1e-5, 1e-5, 1e-7)))
    res = minimize(dense, np.concatenate([np.zeros(9), np.ones(60)]),
                   SolveOptions(record_time=False))
    assert len(trace) - 1 == res.iterations > 0
    assert abs(trace[-1].f - res.trace[-1].f) <= 1e-12 * abs(res.trace[-1].f)


def test_exit_codes(capsys, tmp_path):
    # usage/data error -> 1
    assert main(["fit-logistic", "--deterministic"]) == 1
    assert main(["fit-logistic", "--data", "/does/not/exist"]) == 1
    # max_iter -> 2
    code = main(["fit-logistic", "--synthetic", "n=200,p=15", "--nu", "3",
                 "--max-iter", "2", "--deterministic"])
    assert code == 2
    capsys.readouterr()
    code = main(["fit-logistic", "--synthetic", "n=200,p=20", "--solver", "fgm",
                 "--max-iter", "3"])
    assert code == 2 and "status=max_iter  iters=3  " in capsys.readouterr().out
    # the portfolio baselines follow the same contract
    portfolio = ["portfolio", "--synthetic", "n=30,p=6", "--seed", "2", "--eps", "1e-5"]
    assert main(portfolio + ["--solver", "fw"]) == 2  # 2/(k+2) steps: budget runs out
    assert "status=max_iter  iters=500  " in capsys.readouterr().out
    assert main(portfolio + ["--solver", "pg-bb", "--max-iter", "3"]) == 2
    assert main(portfolio + ["--solver", "pg-bb"]) == 0
    assert "status=converged" in capsys.readouterr().out
    # a non-finite tolerance is a usage error
    assert main(["fit-logistic", "--synthetic", "n=50,p=5", "--eps", "nan"]) == 1
    # a non-numeric value is a usage error that names its option
    capsys.readouterr()
    assert main(["portfolio", "--synthetic", "n=50,p=q"]) == 1
    assert capsys.readouterr().err.startswith("error: --synthetic 'n=50,p=q': ")
    assert main(["fit-dwd", "--synthetic", "n=50,p=6", "--gammas", "1e-5,abc,1e-7"]) == 1
    assert capsys.readouterr().err.startswith("error: --gammas '1e-5,abc,1e-7': ")


@pytest.mark.parametrize("args, message", [
    (["fit-logistic", "--synthetic", "n=50"], "need keys n and p once each, got n"),
    (["fit-logistic", "--synthetic", "p=5"], "got p"),
    (["fit-logistic", "--synthetic", "n=50,p=5,x=3"], "got n, p, x"),
    (["fit-logistic", "--synthetic", "n=50,n=60,p=5"], "got n, n, p"),
    (["portfolio", "--synthetic", "n=50,q=5"], "got n, q"),
    (["fit-dwd", "--synthetic", "n=50,p=6", "--gammas", "1e-5,1e-5"],
     "three positive regularizers, got (1e-05, 1e-05)"),
    (["fit-dwd", "--synthetic", "n=50,p=6", "--gammas", "1e-5,1e-5,1e-7,1"],
     "three positive regularizers, got (1e-05, 1e-05, 1e-07, 1.0)"),
    (["fit-dwd", "--synthetic", "n=50,p=6", "--gammas", "1e-5,nan,1e-7"],
     "three positive regularizers, got (1e-05, nan, 1e-07)"),
], ids=["missing-p", "missing-n", "unknown-key", "repeated-key", "portfolio-unknown-key",
        "two-gammas", "four-gammas", "nan-gamma"])
def test_malformed_specs_are_usage_errors(capsys, args, message):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip("\n").endswith(message)


@pytest.mark.parametrize("args, message", [
    (["portfolio", "--synthetic", "n=50,p=10", "--seed", "-1"], "seed must be in [0, 2**64)"),
    (["fit-logistic", "--synthetic", "n=0,p=5"], "gen_logistic needs n, p >= 1"),
    (["fit-logistic", "--synthetic", "n=50,p=5", "--gamma", "inf"], "q_diag must be finite"),
    (["fit-dwd", "--synthetic", "n=50,p=5", "--slack-cost", "nan"], "c must be finite"),
    (["kernels", "--nu", "nan", "--tau", "0.3"], "require nu >= 2, got nan"),
], ids=["negative-seed", "no-rows", "inf-gamma", "nan-slack-cost", "nan-nu"])
@pytest.mark.filterwarnings("error")
def test_refused_inputs_print_one_error_line(capsys, args, message):
    # refused when the data or the model is built, before any solve: one error line,
    # no traceback and no numpy warning
    assert main(args) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and message in out.err
    assert out.err.count("\n") == 1 and "Traceback" not in out.err


def test_empty_data_file_is_a_data_error(tmp_path, capsys):
    # one error line and no warning: an empty LIBSVM file or returns CSV
    path = tmp_path / "empty.txt"
    path.write_text("")
    for command, data in [("fit-logistic", "GLM design"), ("fit-dwd", "GLM design"),
                          ("portfolio", "portfolio returns matrix")]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--data", str(path)]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data} needs a row and a column, got shape (0, ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["fit-logistic", "--synthetic", "n=50,p=5", "--max-iter", "-1"],
    ["fit-logistic", "--synthetic", "n=50,p=5", "--solver", "bfgs", "--eps", "nan"],
    ["fit-logistic", "--synthetic", "n=50,p=5", "--solver", "fgm", "--max-iter", "-1"],
    ["fit-logistic", "--synthetic", "n=50,p=5", "--solver", "fgm", "--eps", "nan"],
    ["fit-dwd", "--synthetic", "n=50,p=5", "--solver", "bfgs", "--eps", "-1"],
    ["portfolio", "--synthetic", "n=30,p=4", "--max-iter", "-1"],
    ["portfolio", "--synthetic", "n=30,p=4", "--solver", "pg-bb", "--eps", "nan",
     "--max-iter", "50"],
    ["portfolio", "--synthetic", "n=30,p=4", "--solver", "fw", "--eps", "-1", "--max-iter", "20"],
    ["portfolio", "--synthetic", "n=30,p=4", "--solver", "fw-ls", "--eps", "inf"],
], ids=["newton-max-iter", "bfgs-eps", "fgm-max-iter", "fgm-eps", "dwd-eps",
        "prox-newton-max-iter", "pg-bb-eps", "fw-eps", "fw-ls-eps"])
def test_every_solver_rejects_a_bad_eps_or_max_iter(capsys, args):
    # checked before any solver runs, the first-order baselines included
    assert main(args) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert "eps must be" in out.err or "max_iter must be" in out.err


@pytest.mark.parametrize("args", [
    ["fit-logistic", "--synthetic", "n=50,p=5", "--solver", "fgm"],
    ["portfolio", "--synthetic", "n=50,p=10", "--solver", "pg-bb"],
    ["portfolio", "--synthetic", "n=50,p=10", "--solver", "fw"],
    ["portfolio", "--synthetic", "n=50,p=10", "--solver", "fw-ls"],
], ids=["fgm", "pg-bb", "fw", "fw-ls"])
def test_first_order_solvers_reject_out(capsys, tmp_path, args):
    # a first-order baseline records no trace, so --out is refused before it solves
    out = tmp_path / "t.csv"
    assert main(args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --out")
    assert not out.exists()


def test_bench_subset(capsys):
    assert main(["bench", "--only", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "criterion  2 [PASS]" in out
    assert "criterion  3 [PASS]" in out
    assert "2/2 criteria passed" in out
