"""Concentration bounds, probes, and schedules."""
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm as normal_dist

from gibbslab import radial2d, tails, verify
from gibbslab.radial2d import block_l4_expectation
from gibbslab.rng import rng_for
from gibbslab.spectral1d import h1_seminorm_sq, sample_loops
from gibbslab.tails import (TailCurve, bernstein_probe,
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


def test_mgf_quadrature_negative_c():
    for c in (-100.0, -1e4):
        for m in (1, 8):
            exact = gaussian_mgf(c, m)
            assert abs(gaussian_mgf_quadrature(c, m) - exact) < 1e-12 * exact
    # c t past the float range is a zero term, without an overflow warning
    assert 0.0 <= gaussian_mgf_quadrature(-1e300, 1) < 1e-100


# float.hex of the quadrature, taken from its exp-sinh rule (step 1/32)
MGF_QUADRATURE_GOLDEN = {(0.3, 1): "0x1.94c583ada5b53p+0",
                         (0.2, 4): "0x1.638e38e38e38fp+1"}
# and of scipy.integrate.quad(limit=400), which the rule replaced
MGF_QUAD_REFERENCE = {(0.3, 1): "0x1.94c583ada5f41p+0",
                      (0.2, 4): "0x1.638e38e38e38ep+1"}


@pytest.mark.parametrize("c, m", sorted(MGF_QUADRATURE_GOLDEN))
def test_mgf_quadrature_golden(c, m):
    got = gaussian_mgf_quadrature(c, m)
    assert got.hex() == MGF_QUADRATURE_GOLDEN[c, m]
    ref = float.fromhex(MGF_QUAD_REFERENCE[c, m])
    assert abs(got - ref) < 1e-12 * ref


MGF_HELPERS = (gaussian_mgf, gaussian_mgf_quadrature,
               lambda c, m: gaussian_mgf_mc(c, m, 1000)[0])


@pytest.mark.parametrize("mgf", MGF_HELPERS)
@pytest.mark.parametrize("c, m", [(math.nan, 1), (math.nan, 8), (0.1, 0),
                                  (0.1, -2), (0.1, 2.0), (0.1, 1.5),
                                  (0.1, True)])
def test_mgf_helpers_reject_bad_arguments(mgf, c, m):
    with pytest.raises(ValueError, match="NaN|integer >= 1"):
        mgf(c, m)


@pytest.mark.parametrize("mgf", MGF_HELPERS)
def test_mgf_helpers_accept_numpy_integers(mgf):
    assert math.isfinite(mgf(0.1, np.int64(4)))


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


def _traced_peak(fn):
    with mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": "1"}):
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def test_mgf_monte_carlo_holds_slices_not_batches():
    # a whole 65,536-row batch of 8 normals is 4 MiB, and its squares 4 more
    assert _traced_peak(lambda: gaussian_mgf_mc(0.1, 8, 200000)) < 4 << 20


def test_streamed_energies_hold_no_corpus():
    # the corpus of 20,000 fields of 64 modes peaked at 59 MiB
    assert _traced_peak(
        lambda: verify._dirichlet_energies(105, 20000, 64)) < 8 << 20


# each tail sampler's traced peak, which whole-batch draws and syntheses set
# at 8.5, 5.8, 3.8 and 16.5 MiB, against its bound
TAIL_SAMPLER_PEAKS = {
    "block-tail-2d": (lambda t: block_tail_empirical_2d(
        3, [1.0, 2.0], 64, 10 ** 4, t, c_prime=0.7, c4=0.45), 2 << 20),
    "high-freq-1d": (lambda t: high_freq_empirical_1d(
        3, [1.0, 2.0], 128, 10 ** 4, bernstein_c=1.0), 3 << 20),
    "bernstein": (lambda t: bernstein_probe(5, 6.0, 2000), 3 << 20),
    "chi2-tail": (lambda t: chi2_tail_empirical(16, [12.0], 10 ** 5),
                  2 << 20),
}


@pytest.mark.parametrize("name", sorted(TAIL_SAMPLER_PEAKS))
def test_tail_samplers_hold_slices_not_batches(name, table64):
    sampler, bound = TAIL_SAMPLER_PEAKS[name]
    sampler(table64)        # the scipy.special import is not the sampler's
    assert _traced_peak(lambda: sampler(table64)) < bound


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, 4095, 4097, 20000])
def test_streamed_energies_are_the_corpus_energies(n, workers):
    with mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": str(workers)}):
        got = verify._dirichlet_energies(105, n, 64)
        want = h1_seminorm_sq(sample_loops(105, n, 64))
    assert got.tobytes() == want.tobytes()


# -------------------------------------------------------------- Bernstein

def test_probe_monotone_in_corpus():
    small = bernstein_probe(4, 6.0, 500, seed=9)
    large = bernstein_probe(4, 6.0, 2000, seed=9)   # superset of trials
    assert large >= small


def test_probe_stabilizes_across_blocks():
    cs = [bernstein_probe(j, 6.0, 10000, seed=10) for j in range(3, 9)]
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


def test_schedule_rejects_bad_exponent():
    with pytest.raises(ValueError):
        dyadic_schedule(1.0, 2, 0.5, 6.0)    # r >= 1/p
    with pytest.raises(ValueError):
        dyadic_schedule(-1.0, 2, 0.05, 6.0)


# ------------------------------------------------------------ summed bounds

def test_high_freq_bound_log_scaling_in_k():
    # at a level deep in the validity regime, the log of the bound scales
    # by 2^(1+2/p) per unit increase of k: there the geometric-tail
    # prefactor is exactly 1, so the bound is its leading-term closure
    p, r, c = 6.0, 1.0 / 12.0, 1.0
    b3, _ = high_freq_tail_bound(3, 50.0, r, p, c)
    b4, _ = high_freq_tail_bound(4, 50.0, r, p, c)
    ratio = math.log(b4) / math.log(b3)
    assert abs(ratio - 2.0 ** (1 + 2.0 / p)) < 0.01


def test_high_freq_bound_vanishes_at_large_level():
    vals = [high_freq_tail_bound(3, lam, 1.0 / 12.0, 6.0, 1.0)[0]
            for lam in (10.0, 50.0, 100.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-40


def test_high_freq_bound_rejects_invalid_schedule():
    # the chi-square step's precondition fails at small k and tiny levels,
    # and the bound says so in its flag
    _, valid = high_freq_tail_bound(0, 1e-3, 1.0 / 12.0, 6.0, 5.0)
    assert not valid


def test_bounds_at_a_level_whose_square_overflows():
    # lam * lam is inf: every summed term is the smallest, exp(-745), and the
    # levels clear every precondition
    value, valid = high_freq_tail_bound(3, 1e200, 1.0 / 12.0, 6.0, 1.0)
    assert value == math.exp(-745.0) and valid
    value, valid = block_tail_2d(3, 1e200, 0.7, 0.45)
    assert value == 60 * math.exp(-745.0) and valid


def test_high_freq_empirical_dominated(table64):
    c_hat = max(bernstein_probe(j, 6.0, 3000, seed=11)
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


def test_block_tail_bound_decreasing_in_k():
    vals = [block_tail_2d(k, 2.0, 0.7, 0.45)[0] for k in (3, 4, 5)]
    assert vals[0] > vals[1] > vals[2]


def test_block_tail_empirical_dominated(table64):
    norms = block_norm_samples_2d(4, 5000, table64, seed=14)
    c_prime = fernique_probe(norms, [1.5, 2.0, 3.0]).c_hat
    c4 = max(block_l4_expectation(j, 3000, table64, seed=15)[0] * 2 ** (j / 2)
             for j in (3, 4, 5))
    for k in (3, 4):
        curve = block_tail_empirical_2d(k, [1.0, 2.0], 64, 10 ** 5, table64,
                                        seed=16, c_prime=c_prime, c4=c4)
        mask = curve.valid
        assert np.all(curve.empirical[mask]
                      <= curve.theoretical[mask] + 3 * curve.err[mask])


# --------------------------------------------------------------- bound goldens

def _bounds(curve):
    return [float(v).hex() for v in curve.theoretical], \
        [int(v) for v in curve.valid]


# float.hex of the bound columns of small curves, taken while the bound
# functions still returned their whole records; the levels run from clamped
# (1.0) through invalid to valid bounds, and 0x1.aea15ebd61239p-1 is the
# probed Bernstein constant of the "bernstein" golden of test_streams.py
HIGH_FREQ_LEVELS = [0.12, 0.16, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0]
HIGH_FREQ_BOUND_GOLDEN = {
    (3, "0x1.0000000000000p+0"): (
        ["0x1.0000000000000p+0"] * 4
        + ["0x1.60bf9a81bfb5fp-2", "0x1.ef16fd7c467a8p-5",
           "0x1.a8ffe5735b2dfp-8", "0x1.8ec12f3089a43p-17",
           "0x1.77c93af2ac2b7p-46"], [0, 0, 0, 0, 0, 0, 1, 1, 1]),
    (4, "0x1.0000000000000p+0"): (
        ["0x1.0000000000000p+0"] * 3
        + ["0x1.471afd1579e77p-1", "0x1.5ceb6346ab788p-5",
           "0x1.9e0b1f6a55cebp-11", "0x1.995c3eb37dc68p-19",
           "0x1.b5b050a31dd02p-42", "0x1.65b7486e4a834p-115"],
        [0, 0, 0, 0, 0, 0, 1, 1, 1]),
    (3, "0x1.aea15ebd61239p-1"): (
        ["0x1.0000000000000p+0"] * 4
        + ["0x1.7ec61f5e17d9ap-3", "0x1.2bce5deff6252p-6",
           "0x1.a60bec8ee9266p-11", "0x1.d4a7137665771p-24",
           "0x1.b0832e65ac85ep-65"], [0, 0, 0, 0, 0, 0, 1, 1, 1]),
    (4, "0x1.aea15ebd61239p-1"): (
        ["0x1.0000000000000p+0"] * 3
        + ["0x1.a379206b8365ap-2", "0x1.71a966dd5812cp-7",
           "0x1.5903c8623fea7p-15", "0x1.121faafe66ce0p-26",
           "0x1.a646465cfb201p-59", "0x1.159500d5eee6ep-162"],
        [0, 0, 0, 0, 0, 1, 1, 1, 1]),
}


@pytest.mark.parametrize("k, c", sorted(HIGH_FREQ_BOUND_GOLDEN))
def test_high_freq_bound_columns_golden(k, c):
    curve = high_freq_empirical_1d(k, HIGH_FREQ_LEVELS, 32, 200, seed=24,
                                   bernstein_c=float.fromhex(c))
    assert _bounds(curve) == HIGH_FREQ_BOUND_GOLDEN[k, c]


BLOCK_TAIL_LEVELS = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
BLOCK_TAIL_BOUND_GOLDEN = {
    2: (["0x1.0000000000000p+0"] * 3
        + ["0x1.dfd3d4279a737p-2", "0x1.0afc03208e602p-8",
           "0x1.9ab13380c7ac3p-33"], [0, 0, 0, 1, 1, 1]),
    3: (["0x1.0000000000000p+0"] * 3
        + ["0x1.57ce1e237a6e7p-4", "0x1.cef8f7958d4bep-17",
           "0x1.495e4ad51c0aep-65"], [0, 0, 1, 1, 1, 1]),
}


@pytest.mark.parametrize("k", sorted(BLOCK_TAIL_BOUND_GOLDEN))
def test_block_tail_bound_columns_golden(k, table64):
    curve = block_tail_empirical_2d(k, BLOCK_TAIL_LEVELS, 32, 200, table64,
                                    seed=33, c_prime=0.7, c4=0.45)
    assert _bounds(curve) == BLOCK_TAIL_BOUND_GOLDEN[k]


# ---------------------------------------------------------------- TailCurve

def test_curve_rejects_repeated_levels():
    with pytest.raises(ValueError):
        TailCurve(np.array([1.0, 1.0]), np.zeros(2), np.zeros(2),
                  np.zeros(2), np.zeros(2, dtype=bool), 100)


# ------------------------------------------------------------ bad arguments

NAN = math.nan
BAD_TAIL_ARGUMENTS = [
    # an empty high window samples the zero field, under every bound
    ("empty-window-1d", lambda t: high_freq_empirical_1d(9, [1.0], 32, 100,
                                                         1.0),
     "k=9 holds no mode at n_modes=32"),
    ("empty-window-2d", lambda t: block_tail_empirical_2d(
        9, [1.0], 32, 100, t, 0.7, 0.45), "k=9 holds no mode at n_modes=32"),
    ("nan-level-curve", lambda t: TailCurve(
        np.array([NAN]), np.zeros(1), np.zeros(1), np.zeros(1),
        np.zeros(1, dtype=bool), 100), "NaN"),
    ("nan-level-chi2", lambda t: chi2_tail_empirical(1, [NAN], 100), "NaN"),
    ("nan-level-1d", lambda t: high_freq_empirical_1d(3, [NAN], 32, 100,
                                                      1.0), "NaN"),
    ("nan-level-2d", lambda t: block_tail_empirical_2d(
        3, [1.0, NAN], 32, 100, t, 0.7, 0.45), "NaN"),
    # float() took True as the level 1.0
    ("bool-level-chi2", lambda t: chi2_tail_empirical(1, [True, 2.0], 100),
     "^levels must be numbers, got True$"),
    ("bool-level-2d", lambda t: block_tail_empirical_2d(
        3, np.array([False, True]), 32, 100, t, 0.7, 0.45),
     "^levels must be numbers, got np.False_$"),
    ("bernstein-c-zero",
     lambda t: high_freq_tail_bound(3, 1.0, 1.0 / 12.0, 6.0, 0.0),
     "bernstein_c must be positive"),
    ("bernstein-c-negative",
     lambda t: high_freq_empirical_1d(3, [1.0], 32, 100, -1.0),
     "bernstein_c must be positive"),
    ("bernstein-c-nan",
     lambda t: high_freq_empirical_1d(3, [1.0], 32, 100, NAN),
     "bernstein_c must be positive"),
    ("bernstein-c-schedule",
     lambda t: dyadic_schedule(1.0, 3, 1.0 / 12.0, 6.0, bernstein_c=0.0),
     "bernstein_c must be positive"),
    ("c4-zero", lambda t: block_tail_2d(3, 1.0, 0.7, 0.0),
     "c_prime and c4 must be positive"),
    ("c4-nan", lambda t: block_tail_empirical_2d(3, [1.0], 32, 100, t, 0.7,
                                                 NAN),
     "c_prime and c4 must be positive"),
    ("c-prime-negative", lambda t: block_tail_2d(3, 1.0, -0.7, 0.45),
     "c_prime and c4 must be positive"),
    ("c-prime-nan", lambda t: block_tail_2d(3, 1.0, NAN, 0.45),
     "c_prime and c4 must be positive"),
    ("one-sample-l4", lambda t: block_l4_expectation(3, 1, t),
     "n_samples >= 2, got 1"),
    # a NaN level passes a "level <= 0" check and makes NaN bounds
    ("nan-level-block-bound", lambda t: block_tail_2d(3, NAN, 1.0, 0.5),
     "lam must be > 0 and not NaN, got nan"),
    ("nan-level-schedule",
     lambda t: dyadic_schedule(NAN, 3, 1.0 / 12.0, 6.0),
     "lam must be > 0 and not NaN, got nan"),
    ("nan-level-high-freq-bound",
     lambda t: high_freq_tail_bound(3, NAN, 1.0 / 12.0, 6.0, 1.0),
     "lam must be > 0 and not NaN, got nan"),
    ("nan-level-chi2-bound", lambda t: chi2_tail_bound(1, NAN),
     "R > 0, not NaN, got M=1 and R=nan"),
    # a bool or non-integer index ran in the bounds: True as 1, 2.5 as a
    # block index of 2.5
    ("bool-dof-chi2-bound", lambda t: chi2_tail_bound(True, 3.0),
     "^M must be an integer, got True$"),
    ("float-dof-chi2-bound", lambda t: chi2_tail_bound(2.5, 3.0),
     "^M must be an integer, got 2.5$"),
    ("bool-k-block-bound", lambda t: block_tail_2d(True, 2.0, 0.7, 0.45),
     "^k must be an integer, got True$"),
    ("float-k-block-bound", lambda t: block_tail_2d(2.5, 2.0, 0.7, 0.45),
     "^k must be an integer, got 2.5$"),
    ("float-k-schedule",
     lambda t: dyadic_schedule(1.0, 2.5, 1.0 / 12.0, 6.0),
     "^k must be an integer, got 2.5$"),
    ("bool-k-high-freq-bound",
     lambda t: high_freq_tail_bound(True, 1.0, 1.0 / 12.0, 6.0, 1.0),
     "^k must be an integer, got True$"),
    # a mean that is not positive made c_hat -0.0, and a NaN one inf
    ("fernique-zero-mean", lambda t: fernique_probe(np.zeros(2000),
                                                    [1.5, 2.0]),
     "the mean norm must be positive, got 0.0"),
    ("fernique-nan-sample", lambda t: fernique_probe(
        np.r_[np.ones(1999), NAN], [1.5, 2.0]),
     "the mean norm must be positive, got nan"),
    ("fernique-nan-t", lambda t: fernique_probe(np.ones(2000), [1.5, NAN]),
     "every t must exceed 1 and not be NaN"),
    # only the inf sample meets x >= t * mean, which made c_hat 3.378
    ("fernique-inf-sample", lambda t: fernique_probe(
        np.r_[np.ones(1999), np.inf], [1.5]),
     "norm samples must be finite, got a mean of inf"),
    # an index or a count that is a bool ran as 1, and a float one failed in
    # the middle of sampling with a numpy TypeError or ran as a float index
    ("bool-index-bernstein", lambda t: bernstein_probe(True, 6.0, 10),
     "^j must be an integer, got True$"),
    ("float-trials-bernstein", lambda t: bernstein_probe(3, 6.0, 10.0),
     "^trials must be an integer, got 10.0$"),
    ("bool-k-1d", lambda t: high_freq_empirical_1d(True, [0.5], 32, 10, 1.0),
     "^k must be an integer, got True$"),
    ("float-modes-1d", lambda t: high_freq_empirical_1d(3, [0.5], 32.0, 10,
                                                        1.0),
     "^n_modes must be an integer, got 32.0$"),
    ("bool-samples-1d", lambda t: high_freq_empirical_1d(3, [0.5], 32, True,
                                                         1.0),
     "^n_samples must be an integer, got True$"),
    ("bool-k-2d", lambda t: block_tail_empirical_2d(
        True, [0.5], 32, 100, t, 0.5, 0.5),
     "^k must be an integer, got True$"),
    ("float-k-2d", lambda t: block_tail_empirical_2d(
        2.5, [0.5], 32, 100, t, 0.5, 0.5), "^k must be an integer, got 2.5$"),
    ("float-samples-2d", lambda t: block_tail_empirical_2d(
        3, [0.5], 32, 100.0, t, 0.5, 0.5),
     "^n_samples must be an integer, got 100.0$"),
    ("bool-index-l4", lambda t: block_l4_expectation(True, 100, t),
     "^j must be an integer, got True$"),
    ("float-samples-l4", lambda t: block_l4_expectation(3, 100.0, t),
     "^n_samples must be an integer, got 100.0$"),
    ("bool-index-block-norms", lambda t: block_norm_samples_2d(True, 100, t),
     "^j must be an integer, got True$"),
    ("bool-dof-chi2", lambda t: chi2_tail_empirical(True, [1.0], 100),
     "^M must be an integer, got True$"),
    ("float-dof-chi2", lambda t: chi2_tail_empirical(2.5, [1.0], 100),
     "^M must be an integer, got 2.5$"),
    ("float-samples-chi2", lambda t: chi2_tail_empirical(1, [1.0], 1e4),
     "^n_samples must be an integer, got 10000.0$"),
    ("bool-dof-mgf-mc", lambda t: gaussian_mgf_mc(0.1, True, 100),
     "^M must be an integer >= 1, got True$"),
    ("float-samples-mgf-mc", lambda t: gaussian_mgf_mc(0.1, 4, 100.0),
     "^n_samples must be an integer, got 100.0$"),
    # a bool c ran as 1 or 0: gaussian_mgf(True, 2) returned inf
    ("bool-c-mgf", lambda t: gaussian_mgf(True, 2),
     "^c must be a number, got True$"),
    ("bool-c-mgf-quadrature", lambda t: gaussian_mgf_quadrature(False, 2),
     "^c must be a number, got False$"),
    ("bool-c-mgf-mc", lambda t: gaussian_mgf_mc(np.True_, 4, 100),
     "^c must be a number, got np.True_$"),
    ("str-c-mgf", lambda t: gaussian_mgf("0.1", 2),
     "^c must be a number, got '0.1'$"),
    # p=True ran as p=1, p=inf raised a raw OverflowError, and p=0.5 drew
    # before lp_norm refused it
    ("bool-p-bernstein", lambda t: bernstein_probe(3, True, 10),
     "^p must be a number, got True$"),
    ("inf-p-bernstein", lambda t: bernstein_probe(3, math.inf, 10),
     "^p must be finite and >= 1, got inf$"),
    ("small-p-bernstein", lambda t: bernstein_probe(3, 0.5, 10),
     "^p must be finite and >= 1, got 0.5$"),
    ("small-p-1d", lambda t: high_freq_empirical_1d(3, [0.5], 32, 10, 1.0,
                                                    p=0.5),
     "^p must be finite and >= 1, got 0.5$"),
    ("nan-p-1d", lambda t: high_freq_empirical_1d(3, [0.5], 32, 10, 1.0,
                                                  p=NAN),
     "^p must be finite and >= 1, got nan$"),
]


@pytest.mark.parametrize("call, message",
                         [pytest.param(call, message, id=name)
                          for name, call, message in BAD_TAIL_ARGUMENTS])
def test_tail_laboratory_rejects_bad_arguments(call, message, table64):
    # with the samplers' driver patched to raise, a refusal that comes
    # after the first draw would fail as an AssertionError
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before checking the arguments")

    with mock.patch.object(tails, "batches", no_draws), \
            mock.patch.object(radial2d, "batches", no_draws), \
            pytest.raises(ValueError, match=message) as info:
        call(table64)
    assert "\n" not in str(info.value)


def test_tail_samplers_take_numpy_integers(table64):
    # the same bits as from Python integers
    i64 = np.int64
    assert bernstein_probe(i64(3), 6.0, i64(20)) \
        == bernstein_probe(3, 6.0, 20)
    assert gaussian_mgf_mc(0.1, i64(4), i64(1000)) \
        == gaussian_mgf_mc(0.1, 4, 1000)
    assert block_l4_expectation(i64(2), i64(200), table64) \
        == block_l4_expectation(2, 200, table64)
    for np_curve, curve in [
            (chi2_tail_empirical(i64(2), [1.0, 2.0], i64(1000)),
             chi2_tail_empirical(2, [1.0, 2.0], 1000)),
            (high_freq_empirical_1d(i64(2), [0.1], i64(16), i64(200), 1.0),
             high_freq_empirical_1d(2, [0.1], 16, 200, 1.0)),
            (block_tail_empirical_2d(i64(2), [0.5], i64(16), i64(200),
                                     table64, 0.7, 0.45),
             block_tail_empirical_2d(2, [0.5], 16, 200, table64, 0.7, 0.45))]:
        assert np_curve.empirical.tobytes() == curve.empirical.tobytes()
        assert np_curve.theoretical.tobytes() == curve.theoretical.tobytes()


# decreasing levels, with the sizes at which each curve sampled for 2.75,
# 1.74 and 0.15 s before TailCurve refused them
DECREASING_LEVELS = {
    "high-freq-1d": lambda t: high_freq_empirical_1d(3, [2.0, 1.0], 128,
                                                     200_000, 1.0),
    "block-2d": lambda t: block_tail_empirical_2d(3, [2.0, 1.0], 64, 100_000,
                                                  t, 0.7, 0.45),
    "chi2": lambda t: chi2_tail_empirical(1, [3.0, 2.0], 2_000_000),
}


@pytest.mark.parametrize("name", sorted(DECREASING_LEVELS))
def test_tail_curves_check_levels_before_sampling(name, table64):
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before checking the levels")

    with mock.patch.object(tails, "batches", no_draws), \
            mock.patch.object(radial2d, "batches", no_draws), \
            pytest.raises(ValueError, match="strictly increasing"):
        DECREASING_LEVELS[name](table64)


def test_an_infinite_fernique_rate_is_legal():
    # fernique_probe returns c_hat = inf when no norm reaches a level
    value, valid = block_tail_2d(3, 2.0, math.inf, 0.45)
    assert value == 60 * math.exp(-745.0) and valid
