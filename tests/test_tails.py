"""Concentration bounds, probes, and schedules."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm as normal_dist

from gibbslab import verify
from gibbslab.rng import rng_for
from gibbslab.spectral1d import SpectralField1D, GFF
from gibbslab.tails import (TailCurve, bernstein_probe, bernstein_ratio,
                            block_norm_samples_2d, block_tail_2d,
                            block_tail_empirical_2d, chi2_tail_bound,
                            chi2_tail_empirical, dyadic_schedule,
                            fernique_probe, gaussian_mgf, gaussian_mgf_mc,
                            gaussian_mgf_quadrature, high_freq_empirical_1d,
                            high_freq_tail_bound, resolvable)


# ------------------------------------------------------------ chi-square tail

def test_bound_value_m1_r3():
    bound, valid = chi2_tail_bound(1, 3.0)
    assert abs(bound - math.exp(-9.0 / 4.0)) < 1e-15
    assert valid


def test_bound_flags_invalid_condition():
    bound, valid = chi2_tail_bound(4, 5.0)     # 5 < 3*sqrt(4) = 6
    assert not valid
    assert bound == math.exp(-25.0 / 4.0)      # still reported


def test_empirical_tail_matches_normal_oracle():
    curve = chi2_tail_empirical(1, [3.0], 10 ** 6, seed=1)
    oracle = 2.0 * (1.0 - normal_dist.cdf(3.0))
    assert abs(curve.empirical[0] - oracle) < 3 * curve.err[0]
    assert curve.empirical[0] <= curve.theoretical[0]


def test_unresolvable_levels_are_flagged_not_confirmed():
    curve = chi2_tail_empirical(16, [12.0], 10 ** 4, seed=2)
    assert not resolvable(curve)[0]
    assert curve.empirical[0] == 0.0


# ------------------------------------------------------------------- MGF

def test_mgf_trivial_and_closed_form():
    assert gaussian_mgf(0.0, 7) == 1.0
    assert abs(gaussian_mgf(0.25, 2) - 2.0) < 1e-15


def test_mgf_divergence_signal():
    assert gaussian_mgf(0.5, 1) == math.inf
    assert gaussian_mgf(0.7, 3) == math.inf


def test_mgf_quadrature_near_divergence():
    got = gaussian_mgf_quadrature(0.49, 2)
    assert abs(got - 1.0 / 0.02) < 1e-10 * (1.0 / 0.02)


def test_mgf_quadrature_grid():
    for c in (0.1, 0.25, 0.3):
        for m in (1, 2, 4, 8):
            exact = gaussian_mgf(c, m)
            assert abs(gaussian_mgf_quadrature(c, m) - exact) < 1e-10 * exact


# float.hex of the quadrature, taken while it still called scipy.stats.chi2
MGF_QUADRATURE_GOLDEN = {(0.3, 1): "0x1.94c583ada5f41p+0",
                         (0.2, 4): "0x1.638e38e38e38ep+1"}


@pytest.mark.parametrize("c, m", sorted(MGF_QUADRATURE_GOLDEN))
def test_mgf_quadrature_golden(c, m):
    assert gaussian_mgf_quadrature(c, m).hex() == MGF_QUADRATURE_GOLDEN[c, m]


def test_verify_normal_oracles_golden():
    # the oracle values of verify's chi-square-tail-lemma (x = 3) and
    # fernique-normal-oracle (x = t sqrt(2/pi), t = 1.5, 2, 3) checks,
    # taken while they called scipy.stats.norm.cdf
    tail = verify.normal_two_sided_tail
    assert float(tail(3.0)).hex() == "0x1.61de1f985b600p-9"
    ts = np.array([1.5, 2.0, 3.0]) * math.sqrt(2 / math.pi)
    assert [float(v).hex() for v in tail(ts)] == [
        "0x1.d9daa3d964c30p-3", "0x1.c4c5f52f292d0p-4", "0x1.114f3ed7857c0p-6"]


def test_mgf_monte_carlo_finite_variance_regime():
    for c, m in ((0.1, 4), (0.2, 8)):
        mc, se = gaussian_mgf_mc(c, m, 300000, seed=5)
        assert abs(mc - gaussian_mgf(c, m)) < 3 * se


# -------------------------------------------------------------- Bernstein

def test_single_frequency_ratio_closed_form(table64):
    # a pure cosine in block j has ratio (5/16)^(1/6) / sqrt(1/2) / 2^(j/3)
    j = 4
    n_modes = 16
    coeffs = np.zeros(n_modes, dtype=complex)
    coeffs[11] = 0.5                      # n = 12 lies in block 4 = (8..16]
    f = SpectralField1D(n_modes, coeffs, GFF)
    expected = (5.0 / 16.0) ** (1 / 6.0) / math.sqrt(0.5) / 2.0 ** (j / 3.0)
    assert abs(bernstein_ratio(f, j, 6.0) - expected) < 1e-12


def test_probe_monotone_in_corpus():
    small = bernstein_probe(4, 6.0, 500, seed=9)
    large = bernstein_probe(4, 6.0, 2000, seed=9)   # superset of trials
    assert large.c_hat >= small.c_hat


def test_probe_stabilizes_across_blocks():
    cs = [bernstein_probe(j, 6.0, 10000, seed=10).c_hat for j in range(3, 9)]
    assert max(cs) / min(cs) < 1.3


# ---------------------------------------------------------------- schedules

@settings(max_examples=25, deadline=None)
@given(st.floats(0.2, 5.0), st.integers(1, 8), st.floats(0.02, 0.16))
def test_schedule_sums_exactly(lam, k, r):
    s = dyadic_schedule(lam, k, r, 6.0)
    assert s.partial_sum_defect() < 1e-12 * lam


def test_schedule_linearity_in_level():
    a = dyadic_schedule(1.0, 3, 1.0 / 12.0, 6.0)
    b = dyadic_schedule(2.0, 3, 1.0 / 12.0, 6.0)
    assert np.max(np.abs(b.values - 2.0 * a.values)) < 1e-12


def test_schedule_reports_minimal_valid_k():
    s = dyadic_schedule(1.0, 1, 1.0 / 12.0, 6.0, bernstein_c=1.0)
    assert s.minimal_valid_k >= 0
    probe = dyadic_schedule(1.0, max(s.minimal_valid_k, 1), 1.0 / 12.0, 6.0)
    assert bool(probe.valid[0]) or s.minimal_valid_k == 0


def test_schedule_rejects_bad_exponent():
    with pytest.raises(ValueError):
        dyadic_schedule(1.0, 2, 0.5, 6.0)    # r >= 1/p
    with pytest.raises(ValueError):
        dyadic_schedule(-1.0, 2, 0.05, 6.0)


# ------------------------------------------------------------ summed bounds

def test_high_freq_bound_log_scaling_in_k():
    # at a level deep in the validity regime, the log of the closure scales
    # by 2^(1+2/p) per unit increase of k
    p, r, c = 6.0, 1.0 / 12.0, 1.0
    b3 = high_freq_tail_bound(3, 50.0, r, p, c)
    b4 = high_freq_tail_bound(4, 50.0, r, p, c)
    ratio = math.log(b4.closed_form) / math.log(b3.closed_form)
    assert abs(ratio - 2.0 ** (1 + 2.0 / p)) < 0.01


def test_high_freq_bound_vanishes_at_large_level():
    vals = [high_freq_tail_bound(3, lam, 1.0 / 12.0, 6.0, 1.0,
                                 require_valid=False).value
            for lam in (10.0, 50.0, 100.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-40


def test_high_freq_bound_rejects_invalid_schedule():
    # the chi-square step's precondition fails at small k and tiny levels
    with pytest.raises(ValueError):
        high_freq_tail_bound(0, 1e-3, 1.0 / 12.0, 6.0, 5.0)
    b = high_freq_tail_bound(0, 1e-3, 1.0 / 12.0, 6.0, 5.0,
                             require_valid=False)
    assert not b.valid


def test_high_freq_empirical_dominated(table64):
    c_hat = max(bernstein_probe(j, 6.0, 3000, seed=11).c_hat
                for j in (3, 4, 5))
    for k in (3, 4, 5):
        curve = high_freq_empirical_1d(k, [1.0], 128, 10 ** 5, seed=12,
                                       bernstein_c=c_hat)
        assert math.isfinite(curve.theoretical[0])
        assert curve.empirical[0] <= curve.theoretical[0] + 3 * curve.err[0]


# ----------------------------------------------------------------- Fernique

def test_fernique_all_below_threshold_gives_sentinel():
    x = np.full(2000, 1.0)
    probe = fernique_probe(x, [1.5, 2.0])
    assert probe.c_hat == math.inf
    assert np.all(probe.empirical == 0.0)


def test_fernique_normal_oracle():
    x = np.abs(rng_for(31, 0).standard_normal(10 ** 5))
    ts = np.array([1.5, 2.0, 3.0])
    probe = fernique_probe(x, ts)
    mean = math.sqrt(2.0 / math.pi)
    oracle = 2.0 * (1.0 - normal_dist.cdf(ts * mean))
    err = np.sqrt(oracle * (1 - oracle) / len(x))
    assert np.all(np.abs(probe.empirical - oracle) < 3 * err)


def test_fernique_block_l4_rate_positive(table64):
    norms = block_norm_samples_2d(5, 10 ** 4, table64, seed=13)
    probe = fernique_probe(norms, [1.5, 2.0, 3.0])
    assert probe.c_hat > 0.0


def test_fernique_input_validation():
    with pytest.raises(ValueError):
        fernique_probe(np.ones(10), [2.0])
    with pytest.raises(ValueError):
        fernique_probe(np.ones(2000), [0.5])


# --------------------------------------------------------------- 2D chain

def test_eps_schedule_sums_to_one():
    k, s = 3, 0.25
    j = np.arange(k, k + 200)
    eps = (1 - 2.0 ** -s) * 2.0 ** (k * s) * 2.0 ** (-j * s)
    assert abs(eps.sum() - 1.0) < 1e-12


def test_block_tail_rejects_bad_eps():
    with pytest.raises(ValueError):
        block_tail_2d(3, 1.0, 1.0, 0.4, eps=[0.3, 0.3])


def test_block_tail_bound_decreasing_in_k():
    vals = [block_tail_2d(k, 2.0, 0.7, 0.45).value for k in (3, 4, 5)]
    assert vals[0] > vals[1] > vals[2]


def test_block_tail_empirical_dominated(table64):
    norms = block_norm_samples_2d(4, 5000, table64, seed=14)
    c_prime = fernique_probe(norms, [1.5, 2.0, 3.0]).c_hat
    from gibbslab.radial2d import block_l4_expectation
    c4 = max(block_l4_expectation(j, 3000, table64, seed=15)[0] * 2 ** (j / 2)
             for j in (3, 4, 5))
    for k in (3, 4):
        curve = block_tail_empirical_2d(k, [1.0, 2.0], 64, 10 ** 5, table64,
                                        seed=16, c_prime=c_prime, c4=c4)
        mask = curve.valid
        assert np.all(curve.empirical[mask]
                      <= curve.theoretical[mask] + 3 * curve.err[mask])


# ---------------------------------------------------------------- TailCurve

def test_curve_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        TailCurve(np.array([1.0, 1.0]), np.zeros(2), np.zeros(2),
                  np.zeros(2), np.zeros(2, dtype=bool))
    c = chi2_tail_empirical(1, [2.0, 3.0], 10 ** 4, seed=17)
    path = tmp_path / "curve.csv"
    c.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "level,empirical,err,theoretical,valid_flag"
    assert len(lines) == 3
