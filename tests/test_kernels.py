"""Argument checks of the Bessel wrappers and the power kernels against the
generic power."""
import math

import numpy as np
import pytest

from gibbslab._core import BACKEND, j0_array, j1_array, j01_arrays, \
    abs_power_mean, weighted_abs_power_sum
from gibbslab.bessel import bessel_j0


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        j0_array(np.array([-1.0]))


@pytest.mark.parametrize("fn", [j0_array, j1_array, j01_arrays])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_argument_rejected(fn, bad):
    with pytest.raises(ValueError):
        fn(np.array([bad]))
    with pytest.raises(ValueError):
        fn(np.array([bad, 1.0]))


def test_scalar_helpers_reject_non_finite():
    with pytest.raises(ValueError):
        bessel_j0(math.inf)
    with pytest.raises(ValueError):
        bessel_j0(math.nan)


def test_power_mean_even_fast_path_matches_generic():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((32, 129))
    for p in (2.0, 4.0, 6.0):
        direct = (np.abs(v) ** p).mean(axis=-1)
        assert np.allclose(abs_power_mean(v, p), direct, rtol=1e-13)
    # non-even exponent goes through the generic path
    direct3 = (np.abs(v) ** 3.0).mean(axis=-1)
    assert np.allclose(abs_power_mean(v, 3.0), direct3, rtol=1e-13)


def test_weighted_power_sum_matches_direct():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((16, 65))
    w = rng.random(65)
    for p in (2.0, 4.0, 5.0):
        direct = (np.abs(v) ** p) @ w
        assert np.allclose(weighted_abs_power_sum(v, w, p), direct,
                           rtol=1e-12)


def test_backend_is_reported():
    assert BACKEND == "numpy"
