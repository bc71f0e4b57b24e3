"""Stream layout of the Monte Carlo samplers.

The golden values are float.hex digests of small runs of every sampler whose
stream layout is fixed (batch i on stream offset + i, fixed batch sizes); a
refactor of the sampling code must reproduce them bit for bit. The worker
test runs every sampler with one and with two worker threads on inputs large
enough for several batches, and requires identical results. The disc block
norms are pinned by every 500th of their 5000 values (all three batches); the
worker test compares all of them. The one-pass tail levels and the row
slices of the synthesis must leave every bit of these results in place,
and the one-pass layer cake is pinned the same way.
The field corpora share the estimators' layout, and property tests pin
that: a corpus is a prefix of any larger one, is the same on one and two
workers, and holds the Gaussian rows of a plain estimate. Scoring several
cutoffs from one pass over the draws must give each the report of its own
call.
"""
import contextlib
import functools
import math
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gibbslab import gibbs, rng
from gibbslab.bessel import bessel_zeros
from gibbslab.gibbs import (BATCH_SIZE, EnsembleConfig, constrained_tail,
                            constrained_tails, estimate_partition,
                            estimate_partitions, layer_cake, tail_curve)
from gibbslab.radial2d import (block_l4_expectation, radial_basis,
                               sample_radials)
from gibbslab.rng import rng_for, worker_count
from gibbslab.spectral1d import sample_loops
from gibbslab.tails import (bernstein_probe, block_norm_samples_2d,
                            block_tail_empirical_2d, chi2_tail_empirical,
                            gaussian_mgf_mc, high_freq_empirical_1d)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _report(rep):
    return _hex([rep.estimate, rep.log_estimate, rep.standard_error,
                 rep.effective_sample_size, rep.fraction_inside_cutoff])


def _config(dim, sampler, seed):
    if dim == 1:
        return EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=16,
                              n_samples=6000, seed=seed, sampler=sampler)
    return EnsembleConfig(dim=2, p=4, cutoff=2.0, n_modes=16,
                          n_samples=6000, seed=seed, sampler=sampler)


def _curve(curve):
    return _hex(curve.empirical) + _hex(curve.err)


def _layer_cake(cfg):
    rec = layer_cake(cfg, [0.0, 0.3, 0.6, 0.9, 1.2, 1.5])
    return _hex([rec.estimate, rec.stderr])


def _table():
    return bessel_zeros(64)


def _block_norms_2d():
    return block_norm_samples_2d(3, 5000, _table(), seed=32)


SAME_LAYOUT = {
    "partition-1d-plain":
        lambda: _report(estimate_partition(_config(1, "plain", 11))),
    "partition-1d-tilted":
        lambda: _report(estimate_partition(_config(1, "tilted", 12))),
    "partition-1d-soliton":
        lambda: _report(estimate_partition(_config(1, "soliton", 13))),
    "partition-2d-plain":
        lambda: _report(estimate_partition(_config(2, "plain", 14))),
    "partition-2d-tilted":
        lambda: _report(estimate_partition(_config(2, "tilted", 15))),
    "partition-2d-soliton":
        lambda: _report(estimate_partition(_config(2, "soliton", 16))),
    "constrained-tail-1d":
        lambda: _report(constrained_tail(_config(1, "tilted", 17), 0.4,
                                         stream_offset=3)),
    "constrained-tail-2d":
        lambda: _report(constrained_tail(_config(2, "plain", 18), 0.6)),
    "layer-cake-1d":
        lambda: _layer_cake(_config(1, "tilted", 19)),
    "chi2-tail":
        lambda: _curve(chi2_tail_empirical(2, [2.0, 3.0], 70000, seed=21)),
    "gaussian-mgf":
        lambda: _hex(gaussian_mgf_mc(0.1, 4, 70000, seed=22)),
    "bernstein":
        lambda: _hex([bernstein_probe(3, 6.0, 700, seed=23).c_hat]),
    "high-freq-1d":
        lambda: _curve(high_freq_empirical_1d(3, [0.12, 0.16], 32, 3000,
                                              seed=24)),
    "block-norms-2d": lambda: _hex(_block_norms_2d()[::500]),
    "block-tail-2d":
        lambda: _curve(block_tail_empirical_2d(2, [0.25, 0.5, 1.0], 32, 5000,
                                               _table(), seed=33)),
    "block-l4-2d":
        lambda: _hex(block_l4_expectation(3, 5000, _table(), seed=34)),
}

GOLDEN = {
    "bernstein": [
        "0x1.aea15ebd61239p-1",
    ],
    "block-l4-2d": [
        "0x1.bf0d6579787c5p-4",
        "0x1.6775af8bae595p-11",
    ],
    "block-norms-2d": [
        "0x1.4fa6796ceadd7p-3",
        "0x1.17d239ec264b6p-4",
        "0x1.ccbeae00a4baap-4",
        "0x1.8208f896183edp-5",
        "0x1.0c605044cb305p-3",
        "0x1.d4d5c1043c646p-5",
        "0x1.2979a134dd47ep-4",
        "0x1.9aedcdc39b0e2p-4",
        "0x1.3f74db82d0898p-3",
        "0x1.e26e9fa04eef6p-4",
    ],
    "block-tail-2d": [
        "0x1.35dcc63f14120p-2",
        "0x1.54c985f06f694p-9",
        "0x0.0p+0",
        "0x1.a9c3f105f3df4p-8",
        "0x1.7993e06d8ac9ep-11",
        "0x1.a36e2eb1c432dp-13",
    ],
    "chi2-tail": [
        "0x1.1758e219652bdp-3",
        "0x1.607d746289be2p-7",
        "0x1.540f2152f5fe8p-10",
        "0x1.98d66c8171367p-12",
    ],
    "constrained-tail-1d": [
        "0x1.62d786bca67cdp-2",
        "-0x1.0f4f0498ebdd6p+0",
        "0x1.09cec41dd641ep-7",
        "0x1.5dd2a6ae52cb7p+10",
        "0x1.fd70a3d70a3d7p-1",
    ],
    "constrained-tail-2d": [
        "0x1.a37fa89e60f05p-3",
        "-0x1.95e72bc2ddef9p+0",
        "0x1.557486a36c1f6p-8",
        "0x1.3340000000000p+10",
        "0x1.0000000000000p+0",
    ],
    "gaussian-mgf": [
        "0x1.8fcee1d7f0d43p+0",
        "0x1.24d32786fdf13p-9",
    ],
    "high-freq-1d": [
        "0x1.c0da740da740ep-1",
        "0x1.03c131d5acb6fp-2",
        "0x1.89703d54fa9c9p-8",
        "0x1.044ed5a8167ddp-7",
    ],
    "layer-cake-1d": [
        "0x1.0158743392a42p+0",
        "0x1.696fe492702eep-7",
    ],
    "partition-1d-plain": [
        "0x1.00528f1d22495p+0",
        "0x1.4a073ffbe2000p-10",
        "0x1.4aea381b11390p-15",
        "0x1.76ff1b1d612b1p+12",
        "0x1.0000000000000p+0",
    ],
    "partition-1d-soliton": [
        "0x1.0017c16658c9ep+0",
        "0x1.7c04c40fd8000p-12",
        "0x1.a6e9cfd381e11p-7",
        "0x1.773df78efc146p+11",
        "0x1.8fb38a94d242ep-1",
    ],
    "partition-1d-tilted": [
        "0x1.01ac9f53840f6p+0",
        "0x1.ab3a0f836f000p-8",
        "0x1.6c05768e52c6cp-7",
        "0x1.b14e9744df24bp+11",
        "0x1.fc3ece2a53491p-1",
    ],
    "partition-2d-plain": [
        "0x1.08e2472cb8c0ep+0",
        "0x1.177697d5ad400p-5",
        "0x1.d56a1b29b758dp-10",
        "0x1.7061504929b3dp+12",
        "0x1.0000000000000p+0",
    ],
    "partition-2d-soliton": [
        "0x1.07e4523653f85p+0",
        "0x1.f173928bf6400p-6",
        "0x1.b763bc3688f00p-7",
        "0x1.7428e646ca451p+11",
        "0x1.a1b4e81b4e81bp-1",
    ],
    "partition-2d-tilted": [
        "0x1.08e5ebdb68070p+0",
        "0x1.17e743e695400p-5",
        "0x1.28bad51efb111p-7",
        "0x1.00ef74a9c3fa9p+12",
        "0x1.faf72015d867cp-1",
    ],
}


@pytest.mark.parametrize("name", sorted(SAME_LAYOUT))
def test_same_layout_results_are_golden(name):
    assert SAME_LAYOUT[name]() == GOLDEN[name]


def _tail_curve_1d():
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=8, n_samples=5000,
                         seed=31)
    return _curve(tail_curve(cfg, [0.0, 0.5, 1.0]))


WORKER_SAMPLERS = {
    **SAME_LAYOUT,
    "tail-curve": _tail_curve_1d,
    "layer-cake-2d":
        lambda: _layer_cake(replace(_config(2, "soliton", 20),
                                    n_samples=9000)),
    "block-norms-2d": lambda: _hex(_block_norms_2d()),
}


@pytest.mark.parametrize("name", sorted(WORKER_SAMPLERS))
def test_worker_count_does_not_change_samplers(name, monkeypatch):
    monkeypatch.setenv("GIBBSLAB_WORKERS", "1")
    one = WORKER_SAMPLERS[name]()
    monkeypatch.setenv("GIBBSLAB_WORKERS", "2")
    two = WORKER_SAMPLERS[name]()
    assert one == two


@pytest.mark.parametrize("name, cfg, lam, offset", [
    ("constrained-tail-1d", _config(1, "tilted", 17), 0.4, 3),
    ("constrained-tail-2d", _config(2, "plain", 18), 0.6, 0),
])
def test_constrained_tails_match_golden_per_level_calls(name, cfg, lam,
                                                        offset):
    lams = [0.0, lam, 0.2, 1.0]
    reps = constrained_tails(cfg, lams, stream_offset=offset)
    assert _report(reps[1]) == GOLDEN[name]
    assert [_report(r) for r in reps] == [
        _report(constrained_tail(cfg, x, stream_offset=offset))
        for x in lams]


@functools.cache
def _wide_basis():
    # more modes than the configs use, as in a divergence scan
    return radial_basis(bessel_zeros(64), 64)


def _sliced_config(dim, sampler, n_samples):
    """A config of 37 modes and the basis to run it on."""
    if dim == 1:
        return EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=37,
                              n_samples=n_samples, seed=41,
                              sampler=sampler), None
    return EnsembleConfig(dim=2, p=4, cutoff=2.0, n_modes=37,
                          n_samples=n_samples, seed=42,
                          sampler=sampler), _wide_basis()


@contextlib.contextmanager
def _budget(rows, width, workers):
    """The synthesis slice budget set to `rows` rows of grid values (None:
    each batch whole) and the worker count set to `workers`."""
    budget = rows * width if rows else 1 << 62
    with mock.patch.object(rng, "SYNTH_BUDGET", budget), \
            mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": str(workers)}):
        yield


def _sliced_run(dim, sampler, n_samples, rows, workers):
    """The per-row synthesis of the last batch, then the partition and
    two-level tail digests, under _budget(rows, ..., workers)."""
    cfg, basis = _sliced_config(dim, sampler, n_samples)
    ens, = gibbs._make_ensembles([cfg], basis)
    g = ens.draw(rng_for(cfg.seed, 0), n_samples % BATCH_SIZE or BATCH_SIZE)
    g, _ = gibbs._apply_proposal(ens, g)
    with _budget(rows, ens.width, workers):
        per_row = np.concatenate(gibbs._synthesize(ens, g)).tobytes()
        tails = constrained_tails(cfg, [0.0, 0.4], basis, stream_offset=2)
        return [per_row, _report(estimate_partition(cfg, basis))] \
            + [_report(r) for r in tails]


@functools.cache
def _whole_batches(dim, sampler, n_samples):
    return _sliced_run(dim, sampler, n_samples, None, 1)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), sampler=st.sampled_from(gibbs.SAMPLERS),
       n_samples=st.sampled_from([4096, 5003, 9000]),
       rows=st.integers(0, 12).flatmap(
           lambda k: st.integers(1 << k, (2 << k) - 1)),
       workers=st.sampled_from([1, 2]))
@example(dim=2, sampler="soliton", n_samples=5003, rows=99, workers=2)
def test_synthesis_slices_do_not_change_results(dim, sampler, n_samples,
                                                rows, workers):
    # a budget of `rows` rows, log-uniform from 1 to 8191, gives slices from
    # the 64-row floor up to a whole 4096-row batch; 5003 and 9000 samples
    # end on a short batch (907 and 808 rows)
    assert _sliced_run(dim, sampler, n_samples, rows, workers) \
        == _whole_batches(dim, sampler, n_samples)


@pytest.mark.parametrize("rows", [64, 100, 1024])
def test_high_freq_slices_do_not_change_counts(rows):
    # 128 modes on a 512-point grid, in 2048- and 452-row batches
    def run(budget):
        with mock.patch.object(rng, "SYNTH_BUDGET", budget):
            return _curve(high_freq_empirical_1d(3, [0.1, 0.13, 0.16], 128,
                                                 2500, seed=25))

    assert run(rows * 512) == run(1 << 62)


@settings(max_examples=300, deadline=None)
@given(n_rows=st.integers(1, 9000), width=st.integers(1, 1 << 13),
       budget=st.one_of(st.none(), st.integers(1, 1 << 21)))
@example(n_rows=BATCH_SIZE, width=2048, budget=None)   # 1D at N=512
def test_row_slices_tile_the_batch(n_rows, width, budget):
    # budget None is the default SYNTH_BUDGET
    budget = rng.SYNTH_BUDGET if budget is None else budget
    with mock.patch.object(rng, "SYNTH_BUDGET", budget):
        bounds = rng.row_slices(n_rows, width)
    starts = [lo for lo, _ in bounds]
    stops = [hi for _, hi in bounds]
    assert starts == [0] + stops[:-1] and stops[-1] == n_rows
    assert all(lo < hi for lo, hi in bounds)
    if n_rows * width <= budget:
        assert bounds == [(0, n_rows)]      # the batch goes through whole
    for lo, hi in bounds[:-1]:
        rows = hi - lo
        assert rows >= 64 and rows & (rows - 1) == 0
        assert rows == stops[0]             # one slice size per batch
    assert all((hi - lo) * width <= max(budget, 64 * width)
               for lo, hi in bounds)


def _full_report(rep):
    return _hex([rep.estimate, rep.log_estimate, rep.standard_error,
                 rep.log_std_error, rep.effective_sample_size,
                 rep.fraction_inside_cutoff]) + [rep.config]


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), sampler=st.sampled_from(gibbs.SAMPLERS),
       n_samples=st.sampled_from([4096, 5003, 9000]),
       rows=st.integers(0, 12).flatmap(
           lambda k: st.integers(1 << k, (2 << k) - 1)),
       workers=st.sampled_from([1, 2]))
@example(dim=2, sampler="soliton", n_samples=5003, rows=99, workers=2)
@example(dim=1, sampler="soliton", n_samples=9000, rows=300, workers=1)
def test_one_pass_cutoffs_match_per_cutoff_calls(dim, sampler, n_samples,
                                                 rows, workers):
    # the slice budgets of the property above; under the soliton sampler a
    # slice may straddle the half of a batch that is shifted
    cfg, basis = _sliced_config(dim, sampler, n_samples)
    cutoffs = [0.0, 0.5 * cfg.cutoff, cfg.cutoff, 3.0 * cfg.cutoff]
    if sampler != "soliton":
        cutoffs.append(math.inf)
    cfgs = [replace(cfg, cutoff=k) for k in cutoffs]
    ens, = gibbs._make_ensembles([cfg], basis)
    with _budget(rows, ens.width, workers):
        together = estimate_partitions(cfgs, basis)
        alone = [estimate_partition(c, basis) for c in cfgs]
    assert [_full_report(r) for r in together] \
        == [_full_report(r) for r in alone]


def test_one_pass_rejects_an_empty_list():
    with pytest.raises(ValueError, match="^need at least one config$"):
        estimate_partitions([])


@pytest.mark.parametrize("name, value", [
    ("dim", 2), ("p", 4), ("n_modes", 8), ("n_samples", 99), ("seed", 1),
    ("sampler", "tilted"), ("grid_size", 128), ("calibration", True)])
def test_one_pass_rejects_configs_differing_beyond_cutoff(name, value):
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=16, n_samples=100)
    with pytest.raises(ValueError, match=rf"^configs must differ only in "
                                         rf"cutoff, got different values "
                                         rf"of {name}$"):
        estimate_partitions([cfg, replace(cfg, cutoff=2.0, **{name: value})])


def _corpus(dim, seed, n_fields, workers=1):
    """Gaussian rows of a field corpus of 6 modes."""
    with mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": str(workers)}):
        if dim == 1:
            return sample_loops(seed, n_fields, 6).gaussians
        return sample_radials(seed, n_fields, 6, _table()).gaussians


_DIMS = st.sampled_from([1, 2])
_SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=25, deadline=None)
@given(dim=_DIMS, seed=_SEEDS, n=st.integers(1, 2 * BATCH_SIZE + 1),
       extra=st.integers(0, BATCH_SIZE + 1))
@example(dim=1, seed=0, n=BATCH_SIZE, extra=1)
@example(dim=2, seed=0, n=BATCH_SIZE - 1, extra=2)
def test_corpus_is_a_prefix_of_a_larger_one(dim, seed, n, extra):
    assert np.array_equal(_corpus(dim, seed, n),
                          _corpus(dim, seed, n + extra)[:n])


@settings(max_examples=15, deadline=None)
@given(dim=_DIMS, seed=_SEEDS, n=st.integers(1, 3 * BATCH_SIZE))
@example(dim=1, seed=0, n=2 * BATCH_SIZE + 1)
def test_corpus_is_the_same_on_one_and_two_workers(dim, seed, n):
    assert np.array_equal(_corpus(dim, seed, n, workers=1),
                          _corpus(dim, seed, n, workers=2))


def _plain_estimator_rows(dim, seed, n_samples):
    """The Gaussian rows estimate_partition draws, in stream order."""
    cfg = EnsembleConfig(dim=dim, p=6 if dim == 1 else 4, cutoff=1.0,
                         n_modes=6, n_samples=n_samples, seed=seed)
    rows = []
    apply_proposal = gibbs._apply_proposal

    def spy(ens, g):
        rows.append(g.copy())
        return apply_proposal(ens, g)

    with mock.patch.object(gibbs, "_apply_proposal", spy), \
            mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": "1"}):
        estimate_partition(cfg)
    return np.concatenate(rows)


@settings(max_examples=15, deadline=None)
@given(dim=_DIMS, seed=_SEEDS, n=st.integers(1, 2 * BATCH_SIZE + 1))
@example(dim=1, seed=7, n=BATCH_SIZE + 1)
@example(dim=2, seed=7, n=2 * BATCH_SIZE + 1)
def test_corpus_holds_the_plain_estimator_rows(dim, seed, n):
    assert np.array_equal(_corpus(dim, seed, n),
                          _plain_estimator_rows(dim, seed, n))


@pytest.mark.parametrize("text", ["abc", "0", "-1", "1.5"])
def test_bad_worker_count_rejected(text, monkeypatch):
    monkeypatch.setenv("GIBBSLAB_WORKERS", text)
    with pytest.raises(ValueError, match="GIBBSLAB_WORKERS"):
        worker_count()


@pytest.mark.parametrize("sampler", [
    lambda: chi2_tail_empirical(1, [1.0], 0),
    lambda: bernstein_probe(3, 6.0, 0),
    lambda: block_l4_expectation(3, 0, _table()),
])
def test_empty_sample_count_rejected(sampler):
    with pytest.raises(ValueError, match="at least one sample"):
        sampler()
