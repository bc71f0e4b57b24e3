"""Argument checks of the Bessel wrappers, the power kernels against the
generic power and, byte for byte, against the explicit left-to-right chain,
and the FFT synthesis against its reference formula."""
import math

import numpy as np
import pytest

from gibbslab._core import BACKEND, j0_array, j1_array, j01_arrays, \
    abs_power_mean, weighted_abs_power_sum
from gibbslab.bessel import bessel_j0
from gibbslab.spectral1d import evaluate_coeff_rows


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


@pytest.mark.parametrize("p", [2, 4, 6, 8, 3.0])
def test_power_kernels_with_a_buffer_keep_their_bits(p):
    # out= takes the chain's temporaries (and, for p >= 6, the input)
    rng = np.random.default_rng(int(p))
    v = rng.standard_normal((24, 97))
    weights = rng.random(97)
    assert abs_power_mean(v.copy(), p, out=np.empty_like(v)).tobytes() \
        == abs_power_mean(v, p).tobytes()
    assert weighted_abs_power_sum(v.copy(), weights, p,
                                  out=np.empty_like(v)).tobytes() \
        == weighted_abs_power_sum(v, weights, p).tobytes()


@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_even_power_kernels_equal_the_left_to_right_chain(p):
    rng = np.random.default_rng(p)
    v = rng.standard_normal((24, 97))
    weights = rng.random(97)
    before = v.copy()
    w = v * v
    chain = w
    for _ in range(p // 2 - 1):
        chain = chain * w           # ((w*w)*w)..., a fresh array each time
    assert abs_power_mean(v, p).tobytes() == chain.mean(axis=-1).tobytes()
    assert weighted_abs_power_sum(v, weights, p).tobytes() \
        == (chain @ weights).tobytes()
    assert v.tobytes() == before.tobytes()      # the input is never written


@pytest.mark.parametrize("grid_size", [64, 48])
def test_evaluate_coeff_rows_equals_scaled_irfft(grid_size):
    rng = np.random.default_rng(grid_size)
    n_modes = grid_size // 4
    coeffs = rng.standard_normal((9, n_modes)) \
        + 1j * rng.standard_normal((9, n_modes))
    spec = np.zeros((9, grid_size // 2 + 1), dtype=complex)
    spec[:, 1:n_modes + 1] = coeffs
    reference = grid_size * np.fft.irfft(spec, n=grid_size, axis=-1)
    assert evaluate_coeff_rows(coeffs, grid_size).tobytes() \
        == reference.tobytes()
    # the same bits in caller-owned buffers
    spectrum = np.full((9, n_modes + 1), np.nan, dtype=complex)
    out = np.empty((9, grid_size))
    assert evaluate_coeff_rows(coeffs, grid_size, spectrum=spectrum,
                               out=out) is out
    assert out.tobytes() == reference.tobytes()


@pytest.mark.parametrize("grid_size", [2 ** k for k in range(2, 13)])
def test_power_of_two_transform_equals_scaled_irfft(grid_size):
    # a power-of-two grid skips the 1/M and M scalings, which are exact there
    rng = np.random.default_rng(grid_size)
    n_modes = grid_size // 4
    unit = rng.standard_normal((3, n_modes)) \
        + 1j * rng.standard_normal((3, n_modes))
    for magnitude in 10.0 ** np.arange(-300, 301, 50):
        coeffs = magnitude * unit
        spec = np.zeros((3, n_modes + 1), dtype=complex)
        spec[:, 1:] = coeffs
        reference = grid_size * np.fft.irfft(spec, n=grid_size, axis=-1)
        assert evaluate_coeff_rows(coeffs, grid_size).tobytes() \
            == reference.tobytes(), magnitude
        # the coefficients read in place from the spectrum buffer
        assert evaluate_coeff_rows(spec[:, 1:], grid_size,
                                   spectrum=spec).tobytes() \
            == reference.tobytes(), magnitude


def test_evaluate_coeff_rows_pads_its_spectrum_like_zeros():
    # the transform is given N + 1 frequencies and pads them to M/2 + 1
    # itself, here eight points per period of the top mode
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((5, 32)) + 1j * rng.standard_normal((5, 32))
    spec = np.zeros((5, 129), dtype=complex)
    spec[:, 1:33] = coeffs
    assert evaluate_coeff_rows(coeffs, 256).tobytes() \
        == (256 * np.fft.irfft(spec, n=256, axis=-1)).tobytes()


def test_backend_is_reported():
    assert BACKEND == "numpy"
