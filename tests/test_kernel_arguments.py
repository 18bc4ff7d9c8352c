"""Kernel argument checks: a NaN order or distance is refused, never computed through."""

import math

import pytest

from gscopt import kernel
from gscopt.errors import ParameterError


@pytest.mark.parametrize("fn, args", [
    (kernel.omega, (0.3,)),
    (kernel.omega_bar, (0.3,)),
    (kernel.omega_bar_bar, (0.3,)),
    (kernel.kappa_bounds, (0.3,)),
    (kernel.d_nu, (1.0, 1.0, 1.0)),
], ids=["omega", "omega_bar", "omega_bar_bar", "kappa_bounds", "d_nu"])
def test_nan_nu_is_refused(fn, args):
    with pytest.raises(ParameterError, match="require nu >= 2, got nan"):
        fn(math.nan, *args)


@pytest.mark.parametrize("nu", [2.0, 2.5])
@pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
                                  (1.0, 1.0, math.nan)], ids=["m", "dist2", "distx"])
def test_d_nu_refuses_nan_arguments(nu, args):
    with pytest.raises(ParameterError, match="must be nonnegative"):
        kernel.d_nu(nu, *args)


@pytest.mark.parametrize("nu, m, lam, beta", [
    (2.5, math.nan, 1.0, 1.0),
    (2.0, 1.0, 1.0, math.nan),
    (2.5, 1.0, math.nan, 1.0),
    (2.0, 1.0, math.nan, 1.0),
], ids=["m-nu2.5", "beta-nu2", "lam-nu2.5", "lam-nu2"])
def test_step_size_of_nan_input_is_nan(nu, m, lam, beta):
    tau, d_k = kernel.step_size(nu, m, lam, beta)
    assert math.isnan(tau) and math.isnan(d_k)


def test_step_size_keeps_its_refusals_and_full_step_convention():
    with pytest.raises(ParameterError, match="m >= 0 and beta >= 0"):
        kernel.step_size(2.5, -1.0, 1.0, 1.0)
    with pytest.raises(ParameterError, match="m >= 0 and beta >= 0"):
        kernel.step_size(2.0, 1.0, 1.0, -1.0)
    assert kernel.step_size(2.5, 1.0, 0.0, 1.0) == (1.0, 0.0)
    assert kernel.step_size(2.0, 1.0, -1.0, 1.0) == (1.0, 0.0)
