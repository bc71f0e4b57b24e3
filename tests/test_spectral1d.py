"""Loop-field construction, projections, norms, and the chi-square law."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbslab.rng import rng_for
from gibbslab.spectral1d import (SpectralField1D, dyadic_project,
                                 evaluate_coeff_rows, gaussian_coeffs,
                                 l2_norm_spectral, lp_norm, sample_loops,
                                 spectral_weights)


def _cosine_field(n=1, amp=0.5, n_modes=8):
    """c_n = c_{-n} = amp: the field amp*2*cos(2 pi n x), a stack of one."""
    coeffs = np.zeros((1, n_modes), dtype=complex)
    coeffs[0, n - 1] = amp
    return SpectralField1D(coeffs)


def _grid(field, grid_size):
    return evaluate_coeff_rows(field.coeffs_pos, grid_size)


def _spectral_energy(field):
    """int_0^1 |u'|^2 = 2 sum (2 pi n)^2 |c_n|^2 of each field."""
    n = np.arange(1, field.coeffs_pos.shape[-1] + 1)
    return 2.0 * np.sum((2.0 * np.pi * n) ** 2 * np.abs(field.coeffs_pos) ** 2,
                        axis=-1)


def test_sampling_is_deterministic():
    a = sample_loops(42, 2, 1)
    b = sample_loops(42, 2, 1)
    assert np.array_equal(a.coeffs_pos, b.coeffs_pos)
    assert not np.array_equal(a.coeffs_pos[0], a.coeffs_pos[1])
    c = sample_loops(43, 2, 1)
    assert not np.array_equal(a.coeffs_pos, c.coeffs_pos)


def test_sampled_field_has_zero_mean():
    f = sample_loops(7, 5, 32)
    assert np.max(np.abs(np.mean(_grid(f, 128), axis=-1))) < 1e-12


def test_h1_chi_square_moments():
    # Dirichlet energy of a gff loop is a chi-square with 2N degrees
    n, n_modes = 100000, 64
    vals = _spectral_energy(sample_loops(3, n, n_modes))
    dof = 2 * n_modes
    assert abs(vals.mean() - dof) < 3 * math.sqrt(2 * dof / n)
    var_tol = 3 * (2 * dof) * math.sqrt(2 / (n - 1) + 12 / (dof * n))
    assert abs(vals.var(ddof=1) - 2 * dof) < var_tol


def test_zero_field_norms_and_projections():
    z = SpectralField1D(np.zeros((1, 8), complex))
    assert l2_norm_spectral(z) == [0.0]
    assert lp_norm(_grid(z, 32), 6.0) == [0.0]
    assert _spectral_energy(z) == [0.0]
    hi = dyadic_project(z, "high", 1)
    assert np.all(hi.coeffs_pos == 0)
    assert np.all(_grid(z, 32) == 0.0)


def test_sampling_rejects_empty_field():
    with pytest.raises(ValueError):
        sample_loops(0, 1, 0)
    with pytest.raises(ValueError, match="at least one sample"):
        sample_loops(0, 0, 8)


def test_field_needs_a_field_axis():
    with pytest.raises(ValueError, match="fields, n_modes"):
        SpectralField1D(np.zeros(8, complex))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_projection_reassembly(seed, k):
    f = sample_loops(seed, 3, 80)
    lo = dyadic_project(f, "low", k - 1)
    hi = dyadic_project(f, "high", k)
    assert np.array_equal(lo.coeffs_pos + hi.coeffs_pos, f.coeffs_pos)
    lo2 = dyadic_project(f, "low", k)
    hi2 = dyadic_project(f, "high", k + 1)
    assert np.array_equal(lo2.coeffs_pos + hi2.coeffs_pos, f.coeffs_pos)


def test_high_projection_annihilates_low_support():
    f = sample_loops(12, 3, 64)
    k = 3
    supported = dyadic_project(f, "low", k)     # support |n| <= 2^k
    killed = dyadic_project(supported, "high", k + 1)
    assert np.all(killed.coeffs_pos == 0.0)


def test_block_parseval_additivity():
    f = sample_loops(13, 3, 100)
    total = l2_norm_spectral(f) ** 2
    acc = 0.0
    for k in range(0, 8):
        acc += l2_norm_spectral(dyadic_project(f, "block", k)) ** 2
    assert np.all(np.abs(acc - total) < 1e-12 * (1 + total))


def test_single_mode_grid_values():
    f = _cosine_field(1, 0.5, 1)
    g = _grid(f, 16)[0]
    x = np.arange(16) / 16
    assert np.allclose(g, np.cos(2 * np.pi * x), atol=1e-14)


def test_evaluate_matches_direct_summation():
    f = sample_loops(5, 3, 32)
    m = 128
    g = _grid(f, m)
    x = np.arange(m) / m
    direct = np.zeros((3, m))
    for i in range(32):
        direct += 2 * (f.coeffs_pos[:, i, None]
                       * np.exp(2j * np.pi * (i + 1) * x)).real
    assert np.max(np.abs(g - direct)) < 1e-10


def test_grid_aliasing_guard():
    f = sample_loops(5, 1, 32)
    with pytest.raises(ValueError):
        _grid(f, 100)


def test_cosine_lp_norms_closed_form():
    # int cos^2 = 1/2, int cos^4 = 3/8, int cos^6 = 5/16 on the unit circle
    f = _cosine_field(1, 0.5, 2)
    g = _grid(f, 64)[0]
    assert abs(lp_norm(g, 2) ** 2 - 0.5) < 1e-14
    assert abs(lp_norm(g, 4) ** 4 - 3.0 / 8.0) < 1e-14
    assert abs(lp_norm(g, 6) ** 6 - 5.0 / 16.0) < 1e-14


def test_parseval_identity_random_fields():
    for n_modes in (16, 64, 256):
        f = sample_loops(21, 5, n_modes)
        a = l2_norm_spectral(f) ** 2
        b = lp_norm(_grid(f, 4 * n_modes), 2) ** 2
        assert np.all(np.abs(a - b) < 1e-10 * (1 + a))


def test_one_cosine_parseval():
    f = _cosine_field(1, 0.5, 4)
    assert abs(l2_norm_spectral(f)[0] - 1 / math.sqrt(2)) < 1e-15


def test_h1_bit_exact_from_gaussians():
    # the weights make the energy the sum of squares of the stored
    # Gaussians, which a projection keeps bit for bit on the kept modes
    f = sample_loops(30, 5, 128)
    blk = dyadic_project(f, "block", 5)
    keep = slice(16, 32)          # block 5: 2^4 < n <= 2^5
    for field in (f, blk):
        sums = np.sum(field.gaussians ** 2, axis=(-2, -1))
        assert np.allclose(_spectral_energy(field), sums, rtol=1e-13, atol=0)
    assert np.sum(blk.gaussians ** 2, axis=(-2, -1)).tobytes() \
        == np.sum(f.gaussians[:, keep] ** 2, axis=(-2, -1)).tobytes()


def test_stack_gives_each_field_its_own_values():
    # the per-field helpers reduce along the last axis only: a stack of
    # fields gives what each field gives alone, bit for bit
    f = sample_loops(36, 5, 32)
    grid = _grid(f, 128)
    for i in range(5):
        one = SpectralField1D(f.coeffs_pos[i:i + 1], f.gaussians[i:i + 1])
        assert l2_norm_spectral(one)[0] == l2_norm_spectral(f)[i]
        assert lp_norm(_grid(one, 128), 6.0)[0] == lp_norm(grid, 6.0)[i]


def test_h1_paper_literal_closed_form():
    # c_1 = c_{-1} = 1/2: u = cos(2 pi x), whose energy is 2 pi^2
    f = SpectralField1D(np.array([[0.5, 0.0]], dtype=complex))
    assert abs(_spectral_energy(f)[0] - 2 * math.pi ** 2) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lp_monotone_in_p(seed):
    g = _grid(sample_loops(seed, 5, 24), 128)
    norms = [lp_norm(g, p) for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]
    for a, b in zip(norms, norms[1:]):
        assert np.all(b >= a * (1 - 1e-12))


@pytest.mark.parametrize("p, message", [
    # True ran as p = 1; inf raised a raw OverflowError, NaN a raw
    # ValueError from the power kernel
    (True, "^p must be a number, got True$"),
    ("6", "^p must be a number, got '6'$"),
    (0.5, "^p must be finite and >= 1, got 0.5$"),
    (math.inf, "^p must be finite and >= 1, got inf$"),
    (math.nan, "^p must be finite and >= 1, got nan$"),
], ids=["bool", "str", "small", "inf", "nan"])
def test_lp_norm_refuses_bad_p(p, message):
    with pytest.raises(ValueError, match=message):
        lp_norm(np.ones((1, 8)), p)


def test_lp_monotone_thousand_fields():
    # the invariant at its stated corpus size
    g = _grid(sample_loops(35, 1000, 24), 128)
    prev = None
    for p in (1.0, 2.0, 3.0, 4.0, 6.0):
        cur = lp_norm(g, p)
        if prev is not None:
            assert np.all(cur >= prev * (1 - 1e-12))
        prev = cur


def test_realness_of_sampled_fields():
    f = sample_loops(33, 10, 40)
    spec = np.zeros((10, 4 * 40), dtype=complex)
    spec[:, 1:41] = f.coeffs_pos
    spec[:, -40:] = np.conj(f.coeffs_pos[:, ::-1])
    vals = spec.shape[1] * np.fft.ifft(spec, axis=-1)
    assert np.max(np.abs(vals.imag)) < 1e-12


def _complex_coeffs(g, weights):
    """The complex expression gaussian_coeffs replaces, as the reference."""
    return weights * (g[..., 0] + 1j * g[..., 1]) / math.sqrt(2.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_modes=st.integers(1, 600),
       rows=st.sampled_from([1, 2, 7, 64, 300]),
       start=st.integers(0, 3), step=st.integers(1, 3))
def test_gaussian_coeffs_match_the_complex_expression(seed, n_modes, rows,
                                                      start, step):
    # byte for byte, on a whole batch, on a strided row slice of it and on
    # a single row without a row axis
    g = rng_for(seed, 0).standard_normal((rows, n_modes, 2))
    w = spectral_weights(n_modes)
    for part in (g, g[start::step], g[0]):
        got = gaussian_coeffs(part, w)
        want = _complex_coeffs(part, w)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
