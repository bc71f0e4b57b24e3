"""Loop-field construction, projections, norms, and the chi-square law."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gibbslab.spectral1d import (GFF, PAPER_LITERAL, SpectralField1D,
                                 dyadic_project, evaluate_grid, h1_seminorm_sq,
                                 l2_norm_spectral, lp_norm, sample_loop)


def _cosine_field(n=1, amp=0.5, n_modes=8):
    """c_n = c_{-n} = amp: the field amp*2*cos(2 pi n x)."""
    coeffs = np.zeros(n_modes, dtype=complex)
    coeffs[n - 1] = amp
    return SpectralField1D(n_modes, coeffs, GFF)


def test_sampling_is_deterministic():
    a = sample_loop(42, 0, 1)
    b = sample_loop(42, 0, 1)
    assert np.array_equal(a.coeffs_pos, b.coeffs_pos)
    c = sample_loop(42, 1, 1)
    assert not np.array_equal(a.coeffs_pos, c.coeffs_pos)


def test_sampled_field_has_zero_mean():
    for stream in range(5):
        f = sample_loop(7, stream, 32)
        assert abs(np.mean(evaluate_grid(f, 128))) < 1e-12


def test_h1_chi_square_moments():
    # Dirichlet energy of a gff loop is a chi-square with 2N degrees
    n, n_modes = 100000, 64
    vals = np.array([h1_seminorm_sq(sample_loop(3, s, n_modes))
                     for s in range(n)])
    dof = 2 * n_modes
    assert abs(vals.mean() - dof) < 3 * math.sqrt(2 * dof / n)
    var_tol = 3 * (2 * dof) * math.sqrt(2 / (n - 1) + 12 / (dof * n))
    assert abs(vals.var(ddof=1) - 2 * dof) < var_tol


def test_zero_field_norms_and_projections():
    z = SpectralField1D(8, np.zeros(8, complex), GFF)
    assert l2_norm_spectral(z) == 0.0
    assert lp_norm(evaluate_grid(z, 32), 6.0) == 0.0
    assert h1_seminorm_sq(z) == 0.0
    hi = dyadic_project(z, "high", 1)
    assert np.all(hi.coeffs_pos == 0)
    assert np.all(evaluate_grid(z, 32) == 0.0)


def test_sampling_rejects_empty_field():
    with pytest.raises(ValueError):
        sample_loop(0, 0, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_projection_reassembly(stream, k):
    f = sample_loop(11, stream, 80)
    lo = dyadic_project(f, "low", k - 1)
    hi = dyadic_project(f, "high", k)
    assert np.array_equal(lo.coeffs_pos + hi.coeffs_pos, f.coeffs_pos)
    lo2 = dyadic_project(f, "low", k)
    hi2 = dyadic_project(f, "high", k + 1)
    assert np.array_equal(lo2.coeffs_pos + hi2.coeffs_pos, f.coeffs_pos)


def test_high_projection_annihilates_low_support():
    f = sample_loop(12, 0, 64)
    k = 3
    supported = dyadic_project(f, "low", k)     # support |n| <= 2^k
    killed = dyadic_project(supported, "high", k + 1)
    assert np.all(killed.coeffs_pos == 0.0)


def test_block_parseval_additivity():
    f = sample_loop(13, 0, 100)
    total = l2_norm_spectral(f) ** 2
    acc = 0.0
    for k in range(0, 8):
        acc += l2_norm_spectral(dyadic_project(f, "block", k)) ** 2
    assert abs(acc - total) < 1e-12 * (1 + total)


def test_single_mode_grid_values():
    f = _cosine_field(1, 0.5, 1)
    g = evaluate_grid(f, 16)
    x = np.arange(16) / 16
    assert np.allclose(g, np.cos(2 * np.pi * x), atol=1e-14)


def test_evaluate_matches_direct_summation():
    f = sample_loop(5, 9, 32)
    m = 128
    g = evaluate_grid(f, m)
    x = np.arange(m) / m
    direct = np.zeros(m)
    for i, c in enumerate(f.coeffs_pos):
        direct += 2 * (c * np.exp(2j * np.pi * (i + 1) * x)).real
    assert np.max(np.abs(g - direct)) < 1e-10


def test_grid_aliasing_guard():
    f = sample_loop(5, 0, 32)
    with pytest.raises(ValueError):
        evaluate_grid(f, 100)


def test_cosine_lp_norms_closed_form():
    # int cos^2 = 1/2, int cos^4 = 3/8, int cos^6 = 5/16 on the unit circle
    f = _cosine_field(1, 0.5, 2)
    g = evaluate_grid(f, 64)
    assert abs(lp_norm(g, 2) ** 2 - 0.5) < 1e-14
    assert abs(lp_norm(g, 4) ** 4 - 3.0 / 8.0) < 1e-14
    assert abs(lp_norm(g, 6) ** 6 - 5.0 / 16.0) < 1e-14


def test_parseval_identity_random_fields():
    for n_modes in (16, 64, 256):
        for stream in range(5):
            f = sample_loop(21, stream, n_modes)
            a = l2_norm_spectral(f) ** 2
            b = lp_norm(evaluate_grid(f, 4 * n_modes), 2) ** 2
            assert abs(a - b) < 1e-10 * (1 + a)


def test_one_cosine_parseval():
    f = _cosine_field(1, 0.5, 4)
    assert abs(l2_norm_spectral(f) - 1 / math.sqrt(2)) < 1e-15


def test_h1_bit_exact_from_gaussians():
    f = sample_loop(30, 4, 128)
    assert h1_seminorm_sq(f) == float(np.sum(f.gaussians ** 2))
    blk = dyadic_project(f, "block", 5)
    keep = slice(16, 32)          # block 5: 2^4 < n <= 2^5
    assert h1_seminorm_sq(blk) == float(np.sum(f.gaussians[keep] ** 2))


def test_h1_paper_literal_closed_form():
    f = SpectralField1D(2, np.array([0.5, 0.0], dtype=complex), PAPER_LITERAL)
    assert abs(h1_seminorm_sq(f) - 2 * math.pi ** 2) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lp_monotone_in_p(stream):
    f = sample_loop(31, stream, 24)
    g = evaluate_grid(f, 128)
    norms = [lp_norm(g, p) for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]
    for a, b in zip(norms, norms[1:]):
        assert b >= a * (1 - 1e-12)


def test_lp_monotone_thousand_fields():
    # batched sweep at the invariant's stated corpus size
    from gibbslab._core import abs_power_mean
    from gibbslab.spectral1d import evaluate_coeff_rows, spectral_weights
    from gibbslab.rng import rng_for

    n_modes, m_grid = 24, 128
    w = spectral_weights(n_modes, GFF)
    g = rng_for(35, 0).standard_normal((1000, n_modes, 2))
    coeffs = w * (g[..., 0] + 1j * g[..., 1]) / np.sqrt(2)
    vals = evaluate_coeff_rows(coeffs, m_grid)
    prev = None
    for p in (1.0, 2.0, 3.0, 4.0, 6.0):
        cur = abs_power_mean(vals, p) ** (1.0 / p)
        if prev is not None:
            assert np.all(cur >= prev * (1 - 1e-12))
        prev = cur


def test_realness_of_sampled_fields():
    for stream in range(10):
        f = sample_loop(33, stream, 40)
        spec = np.zeros(4 * 40, dtype=complex)
        spec[1:41] = f.coeffs_pos
        spec[-40:] = np.conj(f.coeffs_pos[::-1])
        vals = len(spec) * np.fft.ifft(spec)
        assert np.max(np.abs(vals.imag)) < 1e-12
