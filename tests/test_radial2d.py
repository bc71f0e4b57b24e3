"""Disc fields: normalized modes, quadrature, spectral energies, blocks."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gibbslab import radial2d
from gibbslab.radial2d import (RadialField2D, block_l4_expectation,
                               disc_quadrature, evaluate_radial,
                               grad_l2_spectral_sq, radial_basis,
                               radial_lp_norm, sample_radials)
from gibbslab.spectral1d import _window


def test_sampling_deterministic():
    a = sample_radials(9, 4, 32)
    b = sample_radials(9, 4, 32)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_mode_normalization_unit_l2(table200):
    basis = radial_basis(table200, 100)
    coeffs = np.zeros((4, 100))
    for i, n in enumerate((1, 10, 50, 100)):
        coeffs[i, n - 1] = 1.0
    f = RadialField2D(coeffs)
    assert np.all(np.abs(radial_lp_norm(f, 2.0, basis) - 1.0) < 1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300))
@example(1)
@example(300)
def test_disc_quadrature_is_gauss_legendre_on_unit_interval(n):
    q = disc_quadrature(n)
    assert q.count == n
    assert np.all(q.weights > 0.0)
    assert abs(q.weights.sum() - 1.0) < 1e-13
    assert np.all((q.nodes > 0.0) & (q.nodes < 1.0))
    # exact for every monomial r^k with k <= 2n-1. The top moments rest on
    # the few tiny weights next to r = 1, whose relative rounding is far
    # above machine epsilon, so the error is measured against the unit
    # total mass (absolute) rather than against 1/(k+1).
    k = np.arange(2 * n)
    moments = q.weights @ (q.nodes[:, None] ** k[None, :])
    assert np.max(np.abs(moments - 1.0 / (k + 1))) < 1e-13


def test_mode_orthogonality_under_quadrature(table64):
    basis = radial_basis(table64, 30)
    gram = basis.matrix.T * basis.quad.area_weights @ basis.matrix
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3).filter(lambda x: x == 0.0
                                            or abs(x) >= 1e-100),
                min_size=1, max_size=200))
@example([1.0])
@example([0.0] * 199 + [1.0])
def test_parseval_through_the_default_quadrature(table200, coeffs):
    # ||v||_2^2 by quadrature at the default node count against sum a_n^2;
    # the Gram matrix of the modes under that rule is within 1e-12 of the
    # identity up to 200 modes. Parseval is scale-free, so the coefficients
    # skip magnitudes whose squares would underflow to subnormals.
    a = np.array(coeffs)
    basis = radial_basis(table200, len(a))
    quad_sq = radial_lp_norm(RadialField2D(a[None]), 2.0,
                             basis)[0] ** 2
    spectral_sq = float(np.sum(a * a))
    assert abs(quad_sq - spectral_sq) <= 1e-11 * spectral_sq


def test_expected_l2_mass_matches_analytic_sum(table200):
    n_modes, n_samples = 100, 100000
    target = float(np.sum(table200.zeros[:n_modes] ** -2.0))
    vals = np.sum(sample_radials(17, n_samples, n_modes).coeffs ** 2,
                  axis=-1)
    se = vals.std(ddof=1) / math.sqrt(n_samples)
    assert abs(vals.mean() - target) < 3 * se


def test_grad_energy_bit_exact():
    f = sample_radials(5, 3, 64)
    for i in range(3):
        assert grad_l2_spectral_sq(f)[i] == np.sum(f.gaussians[i] ** 2)


def test_single_mode_evaluation(table64):
    basis = radial_basis(table64, 16)
    coeffs = np.zeros((1, 16))
    coeffs[0, 0] = 1.0
    vals = evaluate_radial(RadialField2D(coeffs), basis)
    assert np.allclose(vals[0], basis.matrix[:, 0], atol=0)


def test_zero_field_evaluates_to_zeros(table64):
    basis = radial_basis(table64, 16)
    f = RadialField2D(np.zeros((1, 16)))
    assert np.all(evaluate_radial(f, basis) == 0.0)
    assert radial_lp_norm(f, 3.0, basis) == [0.0]


def test_center_value_closed_form(table64):
    # at r=0 every J0 is 1, so v(0) = sum a_n / (sqrt(pi) |J1(z_n)|)
    n_modes = 16
    f = sample_radials(23, 2, n_modes)
    expected = np.sum(f.coeffs / (math.sqrt(math.pi)
                                  * np.abs(table64.j1_at_zeros[:n_modes])),
                      axis=-1)
    # extrapolate the basis to r=0 via its definition
    from gibbslab._core import j0_array
    e0 = j0_array(np.zeros(n_modes)) / (math.sqrt(math.pi)
                                        * np.abs(table64.j1_at_zeros[:16]))
    assert np.all(np.abs(f.coeffs @ e0 - expected) < 1e-12)


def test_lp_norm_against_dense_trapezoid(table64):
    basis = radial_basis(table64, 4)
    f = RadialField2D(np.array([[1.0, 0.0, 0.0, 0.0]]))
    val = radial_lp_norm(f, 4.0, basis)[0]
    # brute-force oracle: composite trapezoid with 1e6 points
    from gibbslab._core import j0_array
    r = np.linspace(0.0, 1.0, 1000001)
    e1 = j0_array(table64.zeros[0] * r) / (math.sqrt(math.pi)
                                           * abs(table64.j1_at_zeros[0]))
    oracle = (2 * math.pi * np.trapezoid(np.abs(e1) ** 4 * r, r)) ** 0.25
    assert abs(val - oracle) < 1e-8


def test_grad_energy_matches_derivative_quadrature(table64):
    basis = radial_basis(table64, 64)
    dmat = basis.derivative_matrix()
    f = sample_radials(29, 20, 64)
    dv = f.coeffs @ dmat.T
    quad = np.sum(basis.quad.area_weights * dv * dv, axis=-1)
    spec = grad_l2_spectral_sq(f)
    assert np.all(np.abs(quad - spec) < 1e-6 * spec)


def test_block_energy_counts_modes():
    # block j of a sampled field has E[grad^2] = number of modes in block
    n, j = 4000, 4
    keep = _window("block", j, 32)
    vals = np.sum(sample_radials(37, n, 32).gaussians[:, keep] ** 2,
                  axis=-1)
    n_in_block = 2 ** (j - 1)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - n_in_block) < 3 * se


@pytest.mark.parametrize("n_modes", [16, 64, 256])
def test_radial_basis_is_built_in_place(n_modes):
    import tracemalloc

    from gibbslab._core import j0_array
    from gibbslab.bessel import bessel_zeros
    from gibbslab.radial2d import _mode_scales, default_node_count

    table = bessel_zeros(n_modes)
    radial_basis(table, n_modes)            # scipy loaded, caches warm
    tracemalloc.start()
    try:
        matrix = radial_basis(table, n_modes).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = disc_quadrature(default_node_count(table, n_modes)).nodes
    old = j0_array(np.outer(nodes, table.zeros[:n_modes])) \
        * _mode_scales(table, n_modes)[None, :]
    assert matrix.tobytes() == old.tobytes()
    if n_modes == 256:      # below it the quadrature's own arrays weigh in
        assert peak < 2 * matrix.nbytes, peak / matrix.nbytes


def test_short_table_rejected(table64):
    with pytest.raises(ValueError, match="fields, n_modes"):
        RadialField2D(np.zeros(8))
    with pytest.raises(ValueError):
        radial_basis(table64, 65)
    # -3 sliced the zeros from the end, and 0 gave empty fields whose
    # L^p norm read 0.0
    for n_modes in (0, -3):
        with pytest.raises(ValueError,
                           match=f"^n_modes must be >= 1, got {n_modes}$"):
            radial_basis(table64, n_modes)
        with pytest.raises(ValueError,
                           match=f"^n_modes must be >= 1, got {n_modes}$"):
            sample_radials(0, 4, n_modes)
    # a bool or float count failed in the draw with a raw TypeError
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before checking the arguments")

    for n_fields, n_modes, message in (
            (4, True, "n_modes must be an integer, got True"),
            (True, 3, "n_fields must be an integer, got True"),
            (4, 2.0, "n_modes must be an integer, got 2.0")):
        with mock.patch.object(radial2d, "batches", no_draws), \
                pytest.raises(ValueError, match=f"^{message}$"):
            sample_radials(0, n_fields, n_modes)
    assert sample_radials(0, np.int64(4), np.int64(3)).coeffs.tobytes() \
        == sample_radials(0, 4, 3).coeffs.tobytes()
    with pytest.raises(ValueError, match="with n_modes >= 1$"):
        RadialField2D(np.zeros((4, 0)))
    # True ran as one mode, on a basis whose n_modes was True
    for n_modes in (True, 16.0):
        with pytest.raises(ValueError,
                           match=f"^n_modes must be an integer, got "
                                 f"{n_modes}$"):
            radial_basis(table64, n_modes)


@pytest.mark.parametrize("p, message", [
    # True ran as p = 1; inf and NaN escaped from the power kernel
    (True, "^p must be a number, got True$"),
    ("4", "^p must be a number, got '4'$"),
    (0.5, "^p must be finite and >= 1, got 0.5$"),
    (math.inf, "^p must be finite and >= 1, got inf$"),
    (math.nan, "^p must be finite and >= 1, got nan$"),
], ids=["bool", "str", "small", "inf", "nan"])
def test_radial_lp_norm_refuses_bad_p(p, message, table64):
    basis = radial_basis(table64, 16)
    with pytest.raises(ValueError, match=message):
        radial_lp_norm(sample_radials(0, 2, 16), p, basis)


def test_block_l4_scaling_and_noise():
    means = {}
    for j in (3, 4, 5, 6, 7, 8):
        m, se = block_l4_expectation(j, 10000, seed=2)
        means[j] = (m, se)
    ms = [means[j][0] for j in (3, 4, 5, 6, 7, 8)]
    assert all(b < a for a, b in zip(ms, ms[1:]))      # decreasing in j
    scaled = [means[j][0] * 2 ** (j / 2) for j in (3, 4, 5, 6, 7, 8)]
    # the normalized constant converges from below: the drift dies off and
    # the top half of the probed range agrees to better than 20 percent
    incs = [b / a - 1 for a, b in zip(scaled, scaled[1:])]
    assert max(incs[-2:]) < 0.5 * incs[0]
    assert max(scaled[2:]) / min(scaled[2:]) < 1.2
    # doubling the samples roughly halves the variance of the estimator
    _, se1 = block_l4_expectation(4, 5000, seed=3)
    _, se2 = block_l4_expectation(4, 20000, seed=3)
    assert se2 < se1 / 1.6
