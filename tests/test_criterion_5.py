"""Acceptance criterion 5 reads each damped step's certified decrease from the
driver's trace (IterRecord.dec_est) and checks the realized decrease against
it within 1e-10 (1 + |f|)."""

import math

import pytest

from gscopt import acceptance
from gscopt.newton import minimize


def _criterion_5_with(monkeypatch, edit):
    """Criterion 5's verdict when edit(rec, nxt) rewrites the first damped record of its
    first solve (nxt is the record after it)."""
    edited = []

    def solve(*args, **kwargs):
        res = minimize(*args, **kwargs)
        if not edited:
            k = next(i for i, r in enumerate(res.trace[:-1]) if r.phase == "damped")
            edit(res.trace[k], res.trace[k + 1])
            edited.append(k)
        return res

    monkeypatch.setattr(acceptance, "minimize", solve)
    result = acceptance.criterion_5()
    assert edited
    return result


def test_criterion_5_fails_a_nan_dec_est(monkeypatch):
    def nan(rec, nxt):
        rec.dec_est = math.nan
    result = _criterion_5_with(monkeypatch, nan)
    assert not result.passed
    assert "dec_est=nan" in result.detail


@pytest.mark.parametrize("excess, passed", [(2.0, False), (0.5, True)])
def test_criterion_5_keeps_its_tolerance(monkeypatch, excess, passed):
    # dec_est above the realized decrease by excess times 1e-10 (1 + |f|)
    def raise_dec_est(rec, nxt):
        rec.dec_est = (rec.f - nxt.f) + excess * 1e-10 * (1.0 + abs(rec.f))
    assert _criterion_5_with(monkeypatch, raise_dec_est).passed is passed
