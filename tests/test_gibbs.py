"""Partition estimators, tails, layer cake, and the divergence scan."""
import functools
import hashlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

from gibbslab.bessel import bessel_zeros
from gibbslab.gibbs import (EnsembleConfig, _Ensemble1D, _Ensemble2D,
                            _combine_lse, _lse_partial,
                            constrained_tail, constrained_tails,
                            divergence_scan, estimate_partition,
                            estimate_partitions, layer_cake, tail_curve)
from gibbslab.groundstate import solve_ground_state
from gibbslab.radial2d import radial_basis


def test_zero_cutoff_gives_zero():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=0.0, n_modes=8, n_samples=2000,
                         seed=1)
    rep = estimate_partition(cfg)
    assert rep.estimate == 0.0
    assert rep.log_estimate == -math.inf
    assert rep.fraction_inside_cutoff == 0.0


def test_calibration_mode_is_unit_mean():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=math.inf, n_modes=16,
                         n_samples=20000, seed=2, calibration=True)
    rep = estimate_partition(cfg)
    assert abs(rep.estimate - 1.0) <= max(rep.standard_error, 1e-12)
    assert rep.fraction_inside_cutoff == 1.0


def test_low_dimensional_quadrature_oracle():
    # single mode: the Gibbs weight is a function of s = chi-square(2) alone
    def integrand(s):
        return 0.5 * math.exp(-s / 2) * math.exp(3 * s * s / (128 * math.pi ** 4))

    exact, _ = quad(integrand, 0.0, 4 * math.pi ** 2)
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=1,
                         n_samples=10 ** 6, seed=3, grid_size=16)
    rep = estimate_partition(cfg)
    assert abs(rep.estimate - exact) < 3 * rep.standard_error


def test_monotone_in_cutoff_on_matched_draws():
    ests = [rep.estimate for rep in estimate_partitions(
        [EnsembleConfig(dim=1, p=6, cutoff=cutoff, n_modes=16,
                        n_samples=20000, seed=4)
         for cutoff in (0.15, 0.25, 0.4, 1.0)])]
    assert all(b >= a for a, b in zip(ests, ests[1:]))


def test_bit_identical_reports():
    cfg = EnsembleConfig(dim=2, p=4, cutoff=2.0, n_modes=16,
                         n_samples=5000, seed=5)
    a = estimate_partition(cfg)
    b = estimate_partition(cfg)
    assert a.estimate == b.estimate
    assert a.log_estimate == b.log_estimate
    assert a.standard_error == b.standard_error
    assert a.effective_sample_size == b.effective_sample_size


def test_worker_count_does_not_change_results(monkeypatch):
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=32,
                         n_samples=30000, seed=6)
    base = estimate_partition(cfg)
    monkeypatch.setenv("GIBBSLAB_WORKERS", "4")
    multi = estimate_partition(cfg)
    assert base.estimate == multi.estimate
    assert base.log_estimate == multi.log_estimate


def test_resolution_validation_rejected_before_sampling():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=64,
                         n_samples=100, seed=0, grid_size=128)
    with pytest.raises(ValueError):
        estimate_partition(cfg)
    with pytest.raises(ValueError):
        EnsembleConfig(dim=1, p=6, cutoff=-1.0, n_modes=8, n_samples=10)


def test_2d_config_rejects_a_grid_size():
    # the disc's quadrature nodes follow from n_modes; a grid_size there
    # would be recorded in the report's config and change nothing
    with pytest.raises(ValueError) as info:
        EnsembleConfig(dim=2, p=4, cutoff=1.0, n_modes=8, n_samples=500,
                       grid_size=64)
    assert str(info.value) == ("grid_size sets the 1D grid and has no "
                               "meaning with dim=2, got grid_size=64")


def test_nan_cutoff_rejected():
    with pytest.raises(ValueError, match="cutoff"):
        EnsembleConfig(dim=1, p=6, cutoff=math.nan, n_modes=8, n_samples=10)


def test_nan_p_rejected():
    with pytest.raises(ValueError, match="p must be"):
        EnsembleConfig(dim=1, p=math.nan, cutoff=1.0, n_modes=8,
                       n_samples=10)


@pytest.mark.parametrize("field, value, message", [
    ("n_modes", 16.0, "n_modes must be an integer, got 16.0"),
    ("n_modes", True, "n_modes must be an integer, got True"),
    ("n_samples", 1e4, "n_samples must be an integer, got 10000.0"),
    ("n_samples", False, "n_samples must be an integer, got False"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", True, "seed must be an integer, got True"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("grid_size", 64.0, "grid_size must be an integer or None, got 64.0"),
    ("grid_size", True, "grid_size must be an integer or None, got True"),
    ("calibration", "no", "calibration must be True or False, got 'no'"),
    ("p", True, "p must be a number, got True"),
    ("p", "6", "p must be a number, got '6'"),
    ("cutoff", "1", "cutoff must be a number, got '1'"),
    ("cutoff", False, "cutoff must be a number, got False"),
    ("dim", True, "dim must be 1 or 2"),
    # a float dim ran as its integer and its config recorded dim: 1.0
    ("dim", 1.0, "dim must be 1 or 2"),
    ("dim", np.float64(2.0), "dim must be 1 or 2"),
    ("dim", "1", "dim must be 1 or 2"),
])
def test_mistyped_fields_and_negative_seed_rejected(field, value, message):
    fields = dict(dim=1, p=6, cutoff=1.0, n_modes=8, n_samples=10, seed=0)
    with pytest.raises(ValueError) as info:
        EnsembleConfig(**{**fields, field: value})
    assert str(info.value) == message


def test_numpy_scalars_accepted():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=np.int64(8),
                         n_samples=np.int32(10), seed=np.uint8(3),
                         grid_size=np.int64(32), calibration=np.False_)
    assert estimate_partition(cfg) == estimate_partition(
        EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=8, n_samples=10,
                       seed=3, grid_size=32))


def test_2d_soliton_shift_follows_config_p():
    # the 2D ground state exists for p <= 4 only: p=6 must reach the solver
    # and fail there instead of silently shifting onto the p=4 profile
    cfg = EnsembleConfig(dim=2, p=6, cutoff=1.0, n_modes=16, n_samples=100,
                         seed=0, sampler="soliton")
    with pytest.raises(ValueError, match="2D range"):
        estimate_partition(cfg)
    cfg = replace(cfg, p=4.5)
    with pytest.raises(ValueError, match="integer p"):
        estimate_partition(cfg)


# sha256 of the soliton shifts shift(0.95 * 3.0) of cutoff-3.0 ensembles at
# N=64: the 1D sech^(1/2) bump and the 2D p=4 disc ground state
SECH_SHIFT_1D_SHA256 = \
    "61b6e0447d563e1db1e0cb083679c60c09f8ddd5bdba681251f139eec662b2bf"
DISC_SHIFT_2D_SHA256 = \
    "3d0d48c8be0d0b9800bcf7eeda9d08c6dd6242fbf05a07e13aa5a8048d14e180"


def _shift_config(dim, n_modes):
    return EnsembleConfig(dim=dim, p=6 if dim == 1 else 4, cutoff=3.0,
                          n_modes=n_modes, n_samples=1)


def test_sech_shift_1d_golden():
    shift = _Ensemble1D(_shift_config(1, 64)).shift(0.95 * 3.0)
    assert hashlib.sha256(shift.tobytes()).hexdigest() == SECH_SHIFT_1D_SHA256


def test_disc_shift_2d_golden():
    basis = radial_basis(bessel_zeros(64), 64)
    shift = _Ensemble2D(_shift_config(2, 64), basis).shift(0.95 * 3.0)
    assert hashlib.sha256(shift.tobytes()).hexdigest() == DISC_SHIFT_2D_SHA256


@functools.cache
def _basis_256():
    return radial_basis(bessel_zeros(256), 256)


# masses in (0, 10] down to 1e-100: below about 1e-154 the squares in the
# norms below underflow, and below about 1e-300 the shift itself is
# subnormal and loses its digits
MASSES = st.floats(min_value=1e-100, max_value=10.0)


@settings(max_examples=100, deadline=None)
@given(n_modes=st.integers(1, 512), mass=MASSES)
def test_1d_shift_has_the_mass_it_is_given(n_modes, mass):
    ens = _Ensemble1D(_shift_config(1, n_modes))
    theta = ens.shift(mass)
    assert theta.shape == (n_modes, 2)
    # ||u||_2^2 = 2 sum |c_n|^2, c_n = w_n (re theta_n + i im theta_n) / sqrt 2
    norm = math.sqrt(float(np.sum((theta * ens.weights[:, None]) ** 2)))
    assert abs(norm - mass) <= 1e-12 * mass


@settings(max_examples=50, deadline=None)
@given(n_modes=st.integers(1, 256), mass=MASSES)
def test_2d_shift_has_at_most_the_mass_it_is_given(n_modes, mass):
    # the projection onto the disc modes can only lose mass; every N runs
    # on one basis of 256 modes
    basis = _basis_256()
    theta = _Ensemble2D(_shift_config(2, n_modes), basis).shift(mass)
    assert theta.shape == (n_modes,)
    a = theta / basis.table.zeros[:n_modes]
    norm = math.sqrt(float(np.sum(a * a)))
    assert 0 < norm <= mass * (1 + 1e-12)


def test_constrained_tail_level_zero_is_cutoff_probability():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=0.35, n_modes=16,
                         n_samples=20000, seed=7)
    rep = constrained_tail(cfg, 0.0)
    assert rep.estimate == rep.fraction_inside_cutoff


@pytest.mark.parametrize("lam", [-0.5, math.nan])
def test_constrained_tail_rejects_bad_level(lam):
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=8, n_samples=100)
    with pytest.raises(ValueError, match="lam must be >= 0"):
        constrained_tail(cfg, lam)
    with pytest.raises(ValueError, match="lam must be >= 0"):
        constrained_tails(cfg, [0.0, lam])


def test_constrained_tails_rejects_an_empty_level_list():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=8, n_samples=100)
    with mock.patch("gibbslab.rng.batches",
                    side_effect=AssertionError("drew samples")), \
            pytest.raises(ValueError) as info:
        constrained_tails(cfg, [])
    assert str(info.value) == \
        "constrained_tails needs at least one level, got none"


def test_constrained_tail_nonincreasing_in_level():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=16,
                         n_samples=20000, seed=8)
    vals = [rep.estimate
            for rep in constrained_tails(cfg, (0.0, 0.2, 0.4, 0.8))]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_layer_cake_trivial_curve():
    # no inside sample reaches the top level (||u||_4 <= ||u||_inf
    # <= sqrt(2 N) ||u||_2 <= 1.2 < 3), so each scores exactly 1: the layer
    # cake is the inside fraction of the same draws, and its error that of
    # a Bernoulli mean
    cfg = EnsembleConfig(dim=1, p=4, cutoff=0.3, n_modes=8, n_samples=9000,
                         seed=5)
    rec = layer_cake(cfg, [0.0, 3.0])
    q = estimate_partition(replace(cfg, calibration=True)
                           ).fraction_inside_cutoff
    assert 0.0 < q < 1.0
    assert rec.estimate == q
    assert rec.stderr == math.sqrt((q - q * q) / cfg.n_samples)
    assert not rec.inconclusive


def _quadrature_weights(lams):
    """Trapezoid weight times lam^3 exp(lam^4 / 4) at each level (p = 4)."""
    dl = np.diff(lams)
    trap_w = np.concatenate([dl, [0.0]]) / 2 + np.concatenate([[0.0], dl]) / 2
    return trap_w * lams ** 3 * np.exp(lams ** 4 / 4)


@pytest.mark.parametrize("sampler", ["plain", "tilted"])
def test_layer_cake_is_the_quadrature_of_the_tails(sampler):
    # the one-pass score sums to P(A) + sum_i c_i P(||u||_p > lam_i, A) over
    # the tail probabilities of the same draws
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16, n_samples=9000,
                         seed=6, sampler=sampler)
    lams = np.concatenate([[0.0], np.linspace(0.05, 1.6, 32)])
    emp = np.array([rep.estimate for rep in constrained_tails(cfg, lams)])
    expected = emp[0] + float(np.sum(_quadrature_weights(lams) * emp))
    assert abs(layer_cake(cfg, lams).estimate - expected) <= 1e-12 * expected


def test_layer_cake_truncation_flag_follows_the_last_bin():
    # the flag is set when lam^(p-1) exp(lam^p/p) P(||u||_p > lam, A) d lam
    # at the last level exceeds 1% of the integral; sweeping the top level
    # across that point must flip it exactly where the tails say
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16, n_samples=4096,
                         seed=7)
    flags = []
    for top in np.linspace(0.5, 0.8, 16):
        lams = np.concatenate([[0.0], np.linspace(0.05, top, 16)])
        emp = np.array([rep.estimate for rep in constrained_tails(cfg, lams)])
        c = _quadrature_weights(lams)
        last = 2 * c[-1] * emp[-1]          # c[-1] has half the bin width
        expected = last > 1e-2 * float(np.sum(c * emp))
        assert layer_cake(cfg, lams).inconclusive == expected
        flags.append(expected)
    assert flags[0] and not flags[-1]


@pytest.mark.parametrize("estimator, name", [
    (lambda cfg, lams: constrained_tails(cfg, lams), "constrained_tails"),
    (lambda cfg, lams: constrained_tail(cfg, lams[1]), "constrained_tails"),
    (tail_curve, "constrained_tails"),
    (layer_cake, "layer_cake")],
    ids=["constrained_tails", "constrained_tail", "tail_curve", "layer_cake"])
def test_tail_estimators_refuse_calibration(estimator, name):
    # they read no replaced Gibbs exponent, and returned the same numbers
    # with calibration on or off; they refuse it before any draw
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16, n_samples=8192,
                         seed=123, calibration=True)
    with mock.patch("gibbslab.rng.batches",
                    side_effect=AssertionError("drew samples")), \
            pytest.raises(ValueError) as info:
        estimator(cfg, [0.0, 0.5, 1.0])
    assert str(info.value) == \
        f"{name} has no calibration mode, got calibration=True"


# float() took True as the level 1.0: constrained_tails(cfg, [True]) gave
# 0.0 and layer_cake(cfg, [False, True]) an estimate of 1.0
@pytest.mark.parametrize("estimator, lams, message", [
    (constrained_tails, [True],
     "constrained_tails levels must be numbers, got True"),
    (lambda cfg, lams: constrained_tail(cfg, lams[0]), [True],
     "constrained_tails levels must be numbers, got True"),
    (tail_curve, [np.True_],
     "constrained_tails levels must be numbers, got np.True_"),
    (layer_cake, [False, True], "layer cake levels must be numbers, got "
                                "False"),
    (layer_cake, [0.0, "1.5"], "layer cake levels must be numbers, got "
                               "'1.5'")],
    ids=["constrained_tails", "constrained_tail", "tail_curve", "layer_cake",
         "layer_cake-string"])
def test_tail_estimators_refuse_levels_that_are_not_numbers(estimator, lams,
                                                            message):
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=8, n_samples=100)
    with mock.patch("gibbslab.rng.batches",
                    side_effect=AssertionError("drew samples")), \
            pytest.raises(ValueError) as info:
        estimator(cfg, lams)
    assert str(info.value) == message


# a bad later level is refused before the first level draws its samples
@pytest.mark.parametrize("lams, message", [
    ([0.0, np.True_], "constrained_tails levels must be numbers, got "
                      "np.True_"),
    ([0.0, -1.0], "lam must be >= 0, got -1.0"),
    ([0.0, math.nan], "lam must be >= 0, got nan")],
    ids=["bool", "negative", "nan"])
def test_tail_curve_checks_every_level_before_sampling(lams, message):
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=8, n_samples=100)
    with mock.patch("gibbslab.rng.batches",
                    side_effect=AssertionError("drew samples")), \
            pytest.raises(ValueError) as info:
        tail_curve(cfg, lams)
    assert str(info.value) == message


def test_layer_cake_requires_zero_level():
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=8, n_samples=100)
    with pytest.raises(ValueError, match=r"^layer cake levels must start at "
                                         r"0\.0 \(giving P\(A\)\), got "
                                         r"0\.5$"):
        layer_cake(cfg, [0.5, 1.0])


@pytest.mark.parametrize("lams, message", [
    ([0.0], "layer cake needs at least two levels, got 1"),
    ([0.0, 0.5, math.nan], "layer cake levels must be finite, got nan"),
    ([0.0, math.inf], "layer cake levels must be finite, got inf"),
    ([0.0, 0.5, 0.5], "layer cake levels must be strictly increasing"),
    ([0.0, 0.8, 0.4], "layer cake levels must be strictly increasing"),
    ([0.0, 1.0, 8.0],
     "lam^(p-1) exp(lam^p/p) overflows at level 8.0 for p=4"),
], ids=["one-level", "nan", "inf", "repeated", "decreasing", "overflow"])
def test_layer_cake_rejects_bad_levels(lams, message):
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=8, n_samples=100)
    with pytest.raises(ValueError) as info:
        layer_cake(cfg, lams)
    assert str(info.value) == message


def test_layer_cake_cross_validates_direct_estimate():
    # five times the direct side's samples keeps the reconstruction's
    # error below 1.60e-5, the level this test was set at
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16,
                         n_samples=250000, seed=9)
    lams = np.concatenate([[0.0], np.linspace(0.05, 1.6, 32)])
    rec = layer_cake(cfg, lams)
    direct = estimate_partition(
        EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16, n_samples=50000,
                       seed=10))
    combined = math.hypot(rec.stderr, direct.standard_error)
    assert abs(rec.estimate - direct.estimate) <= 3 * combined
    assert not rec.inconclusive


def test_layer_cake_flags_premature_truncation():
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16,
                         n_samples=20000, seed=11)
    lams = np.concatenate([[0.0], np.linspace(0.05, 0.5, 8)])
    rec = layer_cake(cfg, lams)        # stops where the tail is still heavy
    assert rec.inconclusive


def test_constrained_tail_resolvable_window():
    # The stretched-exponential regime of this tail sits at probabilities
    # below e^-60 (mass saturation under the cutoff), so it is unreachable by
    # direct Monte Carlo; at resolvable levels the decay is the Gaussian-regime
    # one with an effective exponent far below the asymptotic 4p/(p-2) = 6.
    # Deeper levels come back as exact zeros: unresolvable, not confirmation.
    gs = solve_ground_state(1, 6)
    cfg = EnsembleConfig(dim=1, p=6, cutoff=0.5 * gs.mass, n_modes=32,
                         n_samples=10 ** 6, seed=99)
    lams = np.arange(0.5, 0.91, 0.05)
    *reps, deep = constrained_tails(cfg, [*lams, 2.0])   # one pass
    probs = np.array([rep.estimate for rep in reps])
    assert np.all(np.diff(probs) < 0)
    assert probs[0] > 1e-1 and probs[-1] < 1e-4
    slope = np.polyfit(np.log(lams), np.log(-np.log(probs)), 1)[0]
    assert 1.5 < slope < 4.5
    assert deep.estimate == 0.0


def test_subcritical_scan_is_stable():
    cfg = EnsembleConfig(dim=1, p=4, cutoff=2.0, n_modes=16,
                         n_samples=20000, seed=12, sampler="soliton")
    v, = divergence_scan([cfg], [16, 32, 64, 128])
    assert v.verdict == "stable"


def test_scan_rejects_unsorted_schedule():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=16, n_samples=100,
                         seed=0)
    with pytest.raises(ValueError):
        divergence_scan([cfg], [32, 16])


@pytest.mark.parametrize("schedule, bad", [
    ([16.7, 32.2], "16.7"), ([True, 32], "True"), (["16", "32"], "'16'"),
    ([16, np.float64(32.0)], "np.float64(32.0)")])
def test_scan_rejects_a_non_integer_schedule(schedule, bad):
    # int() made them N = 16, 32 (or 1, 32) and ran
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=16, n_samples=100,
                         seed=0)
    with mock.patch("gibbslab.gibbs._estimate_levels",
                    side_effect=AssertionError("set up the scan")), \
            pytest.raises(ValueError) as info:
        divergence_scan([cfg], schedule)
    assert str(info.value) == \
        f"the schedule n_schedule holds {bad}, which is not an integer"


def test_scan_accepts_numpy_integers():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=16, n_samples=100,
                         seed=0)
    assert divergence_scan([cfg], np.array([16, 32])) == \
        divergence_scan([cfg], [16, 32])


@pytest.mark.parametrize("dim", [1, 2])
def test_scan_rejects_an_empty_schedule(dim):
    # it raised IndexError in 1D and max()'s ValueError in 2D
    cfg = EnsembleConfig(dim=dim, p=4, cutoff=1.0, n_modes=16, n_samples=100,
                         seed=0)
    with pytest.raises(ValueError, match="schedule n_schedule is empty"):
        divergence_scan([cfg], [])


def test_scan_rejects_a_set_grid_size():
    # the scan grids each N with 4 N points, so it refuses a grid of its own
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=16, n_samples=100,
                         seed=0, grid_size=64)
    with pytest.raises(ValueError, match="got grid_size=64$"):
        divergence_scan([cfg], [16, 32])


def test_importance_sampler_consistency():
    gs = solve_ground_state(1, 6)
    reports = []
    for sampler, seed in (("plain", 13), ("tilted", 14), ("soliton", 15)):
        cfg = EnsembleConfig(dim=1, p=6, cutoff=0.5 * gs.mass, n_modes=32,
                             n_samples=50000, seed=seed, sampler=sampler)
        reports.append(estimate_partition(cfg))
    assert all(r.effective_sample_size > 100 for r in reports[:2])
    for other in reports[1:]:
        dev = abs(reports[0].estimate - other.estimate) / math.hypot(
            reports[0].standard_error, other.standard_error)
        assert dev < 3.0


def test_report_json_embeds_config(tmp_path):
    import json

    from gibbslab.cli import main

    assert main(["partition", "--dim", "1", "--p", "6", "--cutoff", "1.0",
                 "--n-modes", "8", "--samples", "1000", "--seed", "16",
                 "--out-dir", str(tmp_path)]) == 0
    rec = json.loads((tmp_path / "partition.json").read_text())
    assert rec["config"]["n_modes"] == 8
    assert rec["config"]["seed"] == 16
    assert rec["n_samples"] == 1000


def test_overflowing_estimates_keep_finite_logs():
    gs = solve_ground_state(1, 6)
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.5 * gs.mass, n_modes=64,
                         n_samples=4000, seed=17, sampler="soliton")
    rep = estimate_partition(cfg)
    assert math.isfinite(rep.log_estimate)
    assert rep.log_estimate > 100.0
    assert rep.estimate == math.inf


# worst deviation from logsumexp seen over 20,000 random splits: 1.1e-13 for
# the sum and 2.3e-13 for the sum of squares, about one ulp at 700 and 1400
@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-700.0, 700.0), st.just(-math.inf)),
                min_size=1, max_size=300),
       st.integers(1, 300))
@example([-math.inf] * 5, 2)
@example([700.0, -700.0, 700.0], 1)
def test_combine_lse_matches_logsumexp(weights, batch_size):
    lw = np.array(weights)
    parts = [lw[i:i + batch_size] for i in range(0, len(lw), batch_size)]
    # -inf marks a draw outside the cutoff
    m, s1, s2, inside = _combine_lse(
        [_lse_partial(part, np.isfinite(part), 1.0) for part in parts])
    assert inside == int(np.isfinite(lw).sum())
    if not np.isfinite(lw).any():
        assert s1 == 0.0
        return
    assert abs(m + math.log(s1) - logsumexp(lw)) <= 1e-12
    assert abs(2 * m + math.log(s2) - logsumexp(2 * lw)) <= 1e-12


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_lse_partial_rejects_an_overflowed_exponent_inside(bad):
    expo = np.array([0.0, bad])
    with pytest.raises(ValueError, match="inside the cutoff 2.0 has the "
                                         "Gibbs exponent"):
        _lse_partial(expo, np.array([True, True]), 2.0)
    # outside the cutoff the sample carries no weight
    assert _lse_partial(expo, np.array([True, False]), 2.0) \
        == (0.0, 1.0, 1.0, 1)


@pytest.mark.parametrize("dim, p", [(1, 6), (2, 4)])
def test_overflowing_gibbs_weight_raises(dim, p):
    # the soliton rows sit at 0.95 of the cutoff, where |u|^p overflows
    cfg = EnsembleConfig(dim=dim, p=p, cutoff=1e150, n_modes=8,
                         n_samples=100, sampler="soliton")
    with pytest.raises(ValueError, match=r"inside the cutoff 1e\+150 has "
                                         "the Gibbs exponent inf"):
        estimate_partition(cfg)


@pytest.mark.parametrize("dim, p", [(1, 6), (2, 4)])
def test_soliton_shift_of_infinite_energy_fails_before_sampling(dim, p):
    cfg = EnsembleConfig(dim=dim, p=p, cutoff=1e200, n_modes=8,
                         n_samples=100, sampler="soliton")
    with mock.patch("gibbslab.gibbs._batched",
                    side_effect=AssertionError("sampled")):
        with pytest.raises(ValueError, match=r"soliton shift at the cutoff "
                                             r"1e\+200 has energy inf"):
            estimate_partition(cfg)
