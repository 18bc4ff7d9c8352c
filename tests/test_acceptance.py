"""Acceptance matrix: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines,
or `gscopt bench` for the same table from the CLI.
"""

import sys

import pytest

from gscopt import acceptance, kernel
from gscopt.cli import main


@pytest.mark.parametrize("cid", sorted(acceptance.CRITERIA))
def test_criterion(cid):
    result = acceptance.CRITERIA[cid]()
    print(result.line())
    assert result.passed, result.line()
    assert result.runtime < result.limit


def test_criterion_1_names_its_worst_point(monkeypatch):
    omega, kappa_bounds = kernel.omega, kernel.kappa_bounds

    def bad_omega(nu, tau):
        return omega(nu, tau) * (1.0 + 1e-9 if nu == 2.5 and tau > 0.3 else 1.0)

    def bad_kappa_bounds(nu, t):
        lower, upper = kappa_bounds(nu, t)
        return lower * (1.0 + 2e-11 if nu == 3.0 else 1.0), upper

    monkeypatch.setattr(kernel, "omega", bad_omega)
    monkeypatch.setattr(kernel, "kappa_bounds", bad_kappa_bounds)
    result = acceptance.CRITERIA[1]()
    assert not result.passed
    assert result.detail.startswith("worst rel err 1.00e-09 at omega(nu=2.5, t=0.")


def test_bench_without_mpmath_fails_criterion_1_only(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert main(["bench", "--only", "1,2"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("criterion  1 [FAIL]")
    assert "mpmath" in lines[0] and "[test] extra" in lines[0]
    assert lines[1].startswith("criterion  2 [PASS]")
    assert lines[2] == "1/2 criteria passed"
    assert captured.err == ""
