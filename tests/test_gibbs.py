"""Partition estimators, tails, layer cake, and the divergence scan."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

from gibbslab.bessel import bessel_zeros
from gibbslab.gibbs import (EnsembleConfig, _combine_lse, constrained_tail,
                            constrained_tails, divergence_scan,
                            estimate_partition, layer_cake_reconstruct,
                            tail_curve)
from gibbslab.groundstate import solve_ground_state
from gibbslab.radial2d import radial_basis
from gibbslab.tails import TailCurve


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
    ests = []
    for cutoff in (0.15, 0.25, 0.4, 1.0):
        cfg = EnsembleConfig(dim=1, p=6, cutoff=cutoff, n_modes=16,
                             n_samples=20000, seed=4)
        ests.append(estimate_partition(cfg).estimate)
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


def test_basis_with_too_few_modes_rejected():
    basis = radial_basis(bessel_zeros(8), 8)
    cfg = EnsembleConfig(dim=2, p=4, cutoff=1.0, n_modes=16, n_samples=100)
    with pytest.raises(ValueError, match="basis holds 8 modes, fewer than"):
        estimate_partition(cfg, basis)


def test_nan_cutoff_rejected():
    with pytest.raises(ValueError, match="cutoff"):
        EnsembleConfig(dim=1, p=6, cutoff=math.nan, n_modes=8, n_samples=10)


def test_nan_p_rejected():
    with pytest.raises(ValueError, match="p must be"):
        EnsembleConfig(dim=1, p=math.nan, cutoff=1.0, n_modes=8,
                       n_samples=10)


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
        tail_curve(cfg, [0.0, lam])


def test_constrained_tail_nonincreasing_in_level():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=16,
                         n_samples=20000, seed=8)
    vals = [rep.estimate
            for rep in constrained_tails(cfg, (0.0, 0.2, 0.4, 0.8))]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_layer_cake_trivial_curve():
    # a tail that is identically zero beyond level 0 reconstructs P(A)
    q = 0.37
    curve = TailCurve(np.array([0.0, 0.5, 1.0]), np.array([q, 0.0, 0.0]),
                      np.zeros(3), np.full(3, math.nan),
                      np.zeros(3, dtype=bool), {"independent_levels": True})
    rec = layer_cake_reconstruct(curve, 4.0)
    assert abs(rec.estimate - q) < q * 0.05 + 1e-12
    assert rec.estimate >= q                      # nonnegative integrand


def test_layer_cake_requires_zero_level():
    curve = TailCurve(np.array([0.5, 1.0]), np.array([0.1, 0.0]),
                      np.zeros(2), np.full(2, math.nan),
                      np.zeros(2, dtype=bool))
    with pytest.raises(ValueError):
        layer_cake_reconstruct(curve, 4.0)


def test_layer_cake_cross_validates_direct_estimate():
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=16,
                         n_samples=50000, seed=9)
    lams = np.concatenate([[0.0], np.linspace(0.05, 1.6, 32)])
    curve = tail_curve(cfg, lams)
    rec = layer_cake_reconstruct(curve, 4.0)
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
    curve = tail_curve(cfg, lams)      # stops where the tail is still heavy
    rec = layer_cake_reconstruct(curve, 4.0)
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
    v = divergence_scan(cfg, [16, 32, 64, 128])
    assert v.verdict == "stable"


def test_scan_rejects_unsorted_schedule():
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=16, n_samples=100,
                         seed=0)
    with pytest.raises(ValueError):
        divergence_scan(cfg, [32, 16])


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


def test_report_json_embeds_config():
    import json

    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=8, n_samples=1000,
                         seed=16)
    rep = estimate_partition(cfg)
    rec = json.loads(rep.to_json())
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


def _lse_partial(lw):
    """One batch's (max, sum_exp, sum_exp_sq, n_inside), built as the batch
    function of estimate_partition builds it; -inf marks a rejected draw."""
    m = float(np.max(lw))
    inside = int(np.isfinite(lw).sum())
    if not math.isfinite(m):
        return (-math.inf, 0.0, 0.0, inside)
    e = np.exp(lw - m)
    return (m, float(e.sum()), float((e * e).sum()), inside)


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
    m, s1, s2, inside = _combine_lse(
        [_lse_partial(lw[i:i + batch_size])
         for i in range(0, len(lw), batch_size)])
    assert inside == int(np.isfinite(lw).sum())
    if not np.isfinite(lw).any():
        assert s1 == 0.0
        return
    assert abs(m + math.log(s1) - logsumexp(lw)) <= 1e-12
    assert abs(2 * m + math.log(s2) - logsumexp(2 * lw)) <= 1e-12
