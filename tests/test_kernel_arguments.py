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
