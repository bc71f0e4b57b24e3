"""Stream layout of the Monte Carlo samplers.

The golden values are float.hex digests of small runs of every sampler whose
stream layout is fixed (batch i on stream offset + i, fixed batch sizes); a
refactor of the sampling code must reproduce them bit for bit. The worker
test runs every sampler with one and with two worker threads on inputs large
enough for several batches, and requires identical results. The disc block
norms are pinned by every 500th of their 5000 values (all three batches); the
worker test compares all of them, and sha256 goldens pin every value of the
disc norms and chi-square counts of the tail laboratory on one and two
workers, which their row slices, from the default floor of 64 rows up to
1024, must leave in place. The
one-pass tail levels and the row slices of the synthesis must leave every
bit of these results in place, and the one-pass layer cake is pinned the
same way.
The field corpora share the estimators' layout, and property tests pin
that: a corpus is a prefix of any larger one, is the same on one and two
workers, and holds the Gaussian rows of a plain estimate. Scoring several
cutoffs from one pass over the draws must give each the report of its own
call. The partition estimators synthesize only the rows inside a cutoff;
tests count those rows and require each kept row bit-identical to a
synthesis of every row.
The estimators read each batch in slices from one pass over its stream;
tests/_oracles.py keeps the whole-batch draw, proposal and synthesis as
their reference, and sha256 goldens pin every row of the partition configs
above. A scan reads each stream once for its whole schedule, so a property
requires each of its levels to match its own estimate, another that the
reads of a Tape under any interleaving are slices of one whole draw, a third
that rng.slices hands every reader its row slices of one whole draw in the
order of their first value on the stream, and a tracemalloc bound that a
batch holds slices rather than the whole batch. Another bound holds a scan
to one Gibbs exponent and one inside flag per row and cutoff, a golden 2D
soliton scan runs in slices of 128 rows, and a golden 2D p=6 estimate
pins the power chain that cannot run in place. A 1D estimator's row floor
is 16 rows, the 2D one's 64: a 1D scan to N=2048 gives every sampler the
reports of 64-row slices, and a tracemalloc bound holds its soliton scan to
the memory of 16-row slices.
"""
import contextlib
import functools
import hashlib
import math
import os
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from gibbslab import gibbs, radial2d, rng
from gibbslab.bessel import bessel_zeros
from gibbslab.gibbs import (BATCH_SIZE, EnsembleConfig, constrained_tail,
                            constrained_tails, divergence_scan,
                            estimate_partition, estimate_partitions,
                            layer_cake, tail_curve)
from gibbslab.groundstate import solve_ground_state
from gibbslab.radial2d import (block_l4_expectation, radial_basis,
                               sample_radials)
from gibbslab.rng import rng_for, worker_count
from gibbslab.spectral1d import _window, gaussian_coeffs, sample_loops, \
    spectral_weights
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
    # an even p >= 6 takes |v|^p through a second buffer
    "partition-2d-plain-p6":
        lambda: _report(estimate_partition(EnsembleConfig(
            dim=2, p=6, cutoff=2.0, n_modes=32, n_samples=BATCH_SIZE,
            seed=3))),
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
        lambda: _hex([bernstein_probe(3, 6.0, 700, seed=23)]),
    "high-freq-1d":
        lambda: _curve(high_freq_empirical_1d(3, [0.12, 0.16], 32, 3000,
                                              seed=24, bernstein_c=1.0)),
    "block-norms-2d": lambda: _hex(_block_norms_2d()[::500]),
    "block-tail-2d":
        lambda: _curve(block_tail_empirical_2d(2, [0.25, 0.5, 1.0], 32, 5000,
                                               _table(), seed=33, c_prime=0.7,
                                               c4=0.45)),
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
    "partition-2d-plain-p6": [
        "0x1.0a5df6ebf6dc4p+0",
        "0x1.4534503755600p-5",
        "0x1.c4d9520de064fp-7",
        "0x1.293a8923e6ed2p+11",
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


# sha256 of the per-row (log weight, int |u|^p, ||u||_2^2) of both batches
# of each partition config of SAME_LAYOUT, every row synthesized: the
# reports above sum the rows, and a 1-ulp change of one row can leave them
# in place
ROW_GOLDEN = {
    "partition-1d-plain":
        "55a3a74a4d6118eec95bb071468ffbb663170da887a0c702bb654f70f03c449b",
    "partition-1d-tilted":
        "01fc826c4335329c816a1ecdf6f595733e03caae1e0ea207780dd90278443069",
    "partition-1d-soliton":
        "72dd60986aadef01181094210fb3a0cce41e03556c6afd842e85e06ac691bc8d",
    "partition-2d-plain":
        "8df764186b7c35f5debca3ed1f9a4ad0e6690299b1ea733cbfe79bafecd85448",
    "partition-2d-tilted":
        "77a8f4af0c7ee407ae232f76228b5361264819b7d2350abc7949df17cec419a3",
    "partition-2d-soliton":
        "5f6e49bfb4a9aa0eb6cb08125897fe221ad33c15566a121b2b96c9cdddcbd469",
}


def _row_digest(cfg, rows_of_batch):
    """sha256 of rows_of_batch(ens, gen, b), the per-row arrays of a
    batch, over the batches of cfg."""
    ens, = gibbs._make_ensembles([cfg])
    h = hashlib.sha256()
    for stream, start in enumerate(range(0, cfg.n_samples, BATCH_SIZE)):
        b = min(BATCH_SIZE, cfg.n_samples - start)
        for values in rows_of_batch(ens, rng_for(cfg.seed, stream), b):
            h.update(values.tobytes())
    return h.hexdigest()


def _pipeline_rows(ens, gen, b, ksq=math.inf):
    """The batch's per-row (log weight, int |u|^p, ||u||_2^2), its slices
    from gibbs._batch_slices joined."""
    parts = [(log_w, power.copy(), l2sq.copy())  # valid until the next slice
             for *_, log_w, power, l2sq in gibbs._batch_slices(
                 [[ens]], gen, b, [[ksq]], rng.Workspace())]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _oracle_rows(ens, gen, b):
    g, log_w = _oracles.apply_proposal(ens, _oracles.draw_batch(ens, gen, b))
    return (log_w, *_oracles.synthesize(ens, g))


@pytest.mark.parametrize("name, seed", [
    ("partition-1d-plain", 11), ("partition-1d-tilted", 12),
    ("partition-1d-soliton", 13), ("partition-2d-plain", 14),
    ("partition-2d-tilted", 15), ("partition-2d-soliton", 16)])
def test_rows_of_each_batch_are_golden(name, seed):
    # the configs and seeds of the partition entries of SAME_LAYOUT
    _, dim, sampler = name.split("-")
    cfg = _config(int(dim[0]), sampler, seed)
    assert _row_digest(cfg, _pipeline_rows) == ROW_GOLDEN[name]
    assert _row_digest(cfg, _oracle_rows) == ROW_GOLDEN[name]


def _tail_curve_1d():
    cfg = EnsembleConfig(dim=1, p=4, cutoff=1.0, n_modes=8, n_samples=5000,
                         seed=31)
    return [h for rep in tail_curve(cfg, [0.0, 0.5, 1.0])
            for h in _report(rep)]


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


def _sha(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _chi2_full():
    curve = chi2_tail_empirical(16, [6.0, 12.0], 200003, seed=2)
    return _sha(np.concatenate([curve.empirical, curve.err]))


# The tail samplers' full outputs, each with the row width its row slices
# see: the disc norms at 16 and 64 modes on 83 and 234 quadrature nodes
# (3001 and 4097 samples end on batches of 953 and 1 rows), the probe on its
# 8 * 2^j-point grid and the chi-square on its 16 degrees of freedom
TAIL_SAMPLERS = {
    "block-norms-2d": (
        lambda: _sha(block_norm_samples_2d(4, 3001, _table(), seed=113)),
        83),
    "disc-l4-high": (
        lambda: _sha(radial2d._disc_l4_norms(_window("high", 3, 64), 4097,
                                             _table(), 7)), 234),
    **{f"bernstein-{j}": (
        functools.partial(lambda j: bernstein_probe(j, 6.0, 1300,
                                                    seed=4).hex(), j),
        8 * 2 ** j) for j in (3, 5, 7)},
    "chi2-tail-full": (_chi2_full, 16),
}

# sha256 of every value of the disc norms and of the chi-square curve's
# empirical and err columns, and float.hex of the probes, taken while these
# samplers drew and synthesized whole batches; a sparse golden such as
# block-norms-2d above misses a last-bit change of one product row
TAIL_GOLDEN = {
    "bernstein-3": "0x1.aea15ebd6123ap-1",
    "bernstein-5": "0x1.aca72c2d86f87p-1",
    "bernstein-7": "0x1.ac88a9158e90dp-1",
    "block-norms-2d":
        "22f75d21303ab59268f4ff91856a1bc489e54f6a6dc00c2decbb4bfc3d2e7956",
    "chi2-tail-full":
        "c4dbaf9b0879229902525d430f7b5b02f513a0ff060567c97dcdbd5ba09279bb",
    "disc-l4-high":
        "a4b55e65ff81f5c4ee82ff1fc34f146e59e14538a837449861a930357e0ddd66",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(TAIL_SAMPLERS))
def test_tail_sampler_outputs_are_golden(name, workers):
    with mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": str(workers)}):
        assert TAIL_SAMPLERS[name][0]() == TAIL_GOLDEN[name]


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
def _budget(rows, width, workers, arrays=2):
    """The synthesis slice budget set to `rows` rows of `arrays` grid-sized
    arrays (None: each batch whole) and the worker count set to
    `workers`."""
    budget = rows * width * arrays if rows else 1 << 62
    with mock.patch.object(rng, "SYNTH_BUDGET", budget), \
            mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": str(workers)}):
        yield


def _sliced_run(dim, sampler, n_samples, rows, workers, rows_of_batch):
    """The per-row synthesis of rows_of_batch (every row synthesized) on
    stream 0 in a batch of the last batch's size, then the partition and
    two-level tail digests, under _budget(rows, ..., workers)."""
    cfg, basis = _sliced_config(dim, sampler, n_samples)
    ens, = gibbs._make_ensembles([cfg], basis)
    b = n_samples % BATCH_SIZE or BATCH_SIZE
    with _budget(rows, ens.width, workers, ens.grid_arrays):
        per_row = np.concatenate(
            rows_of_batch(ens, rng_for(cfg.seed, 0), b)).tobytes()
        tails = constrained_tails(cfg, [0.0, 0.4], basis, stream_offset=2)
        return [per_row, _report(estimate_partition(cfg, basis))] \
            + [_report(r) for r in tails]


@functools.cache
def _whole_batches(dim, sampler, n_samples):
    """_sliced_run with each batch whole, its rows from the oracle."""
    return _sliced_run(dim, sampler, n_samples, None, 1, _oracle_rows)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), sampler=st.sampled_from(gibbs.SAMPLERS),
       n_samples=st.sampled_from([4096, 5003, 9000]),
       rows=st.integers(0, 12).flatmap(
           lambda k: st.integers(1 << k, (2 << k) - 1)),
       workers=st.sampled_from([1, 2]))
@example(dim=2, sampler="soliton", n_samples=5003, rows=99, workers=2)
@example(dim=2, sampler="soliton", n_samples=5003, rows=128, workers=2)
def test_synthesis_slices_do_not_change_results(dim, sampler, n_samples,
                                                rows, workers):
    # a budget of `rows` rows, log-uniform from 1 to 8191, gives slices from
    # the row floor (16 rows in 1D, 64 in 2D) up to a whole 4096-row batch;
    # 5003 and 9000 samples
    # end on a short batch (907 and 808 rows)
    assert _sliced_run(dim, sampler, n_samples, rows, workers,
                       _pipeline_rows) \
        == _whole_batches(dim, sampler, n_samples)


@pytest.mark.parametrize("rows", [64, 100, 1024])
def test_high_freq_slices_do_not_change_counts(rows):
    # 128 modes on a 512-point grid, in 2048- and 452-row batches
    def run(budget):
        with mock.patch.object(rng, "SYNTH_BUDGET", budget):
            return _curve(high_freq_empirical_1d(3, [0.1, 0.13, 0.16], 128,
                                                 2500, seed=25,
                                                 bernstein_c=1.0))

    assert run(rows * 512 * 2) == run(1 << 62)     # two arrays of 512 points


@functools.cache
def _unsliced(name):
    with _budget(None, 1, 1):
        return TAIL_SAMPLERS[name][0]()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [64, 128, 1024])
@pytest.mark.parametrize("name", sorted(TAIL_SAMPLERS))
def test_tail_sampler_slices_do_not_change_results(name, rows, workers):
    # slices of `rows` rows against each batch whole on one worker
    sampler, width = TAIL_SAMPLERS[name]
    with _budget(rows, width, workers):
        assert sampler() == _unsliced(name)


@settings(max_examples=300, deadline=None)
@given(n_rows=st.integers(1, 9000), width=st.integers(1, 1 << 13),
       arrays=st.integers(1, 3), floor=st.sampled_from([16, 64]),
       budget=st.one_of(st.none(), st.integers(1, 1 << 22)))
@example(n_rows=BATCH_SIZE, width=8192, arrays=2, floor=16,
         budget=None)                                           # 1D, N=2048
@example(n_rows=BATCH_SIZE, width=837, arrays=1, floor=64,
         budget=None)                                           # 2D, N=256
def test_row_slices_tile_the_batch(n_rows, width, arrays, floor, budget):
    # budget None is the default SYNTH_BUDGET
    budget = rng.SYNTH_BUDGET if budget is None else budget
    with mock.patch.object(rng, "SYNTH_BUDGET", budget):
        bounds = rng.row_slices(n_rows, width, arrays, floor)
    starts = [lo for lo, _ in bounds]
    stops = [hi for _, hi in bounds]
    assert starts == [0] + stops[:-1] and stops[-1] == n_rows
    assert all(lo < hi for lo, hi in bounds)
    held = width * arrays                   # grid values a slice row holds
    if n_rows * held <= budget:
        assert bounds == [(0, n_rows)]      # the batch goes through whole
    for lo, hi in bounds[:-1]:
        rows = hi - lo
        assert rows >= floor and rows & (rows - 1) == 0
        assert rows == stops[0]             # one slice size per batch
        assert 2 * rows * held > budget     # the largest that fits
    assert all((hi - lo) * held <= max(budget, floor * held)
               for lo, hi in bounds)


@pytest.mark.parametrize("dim, p, n_modes, rows", [
    (1, 6, 2048, 16), (1, 6, 512, 32), (1, 6, 16, 1024), (1, 6, 4, 4096),
    (2, 4, 1024, 64), (2, 6, 512, 64), (2, 4, 256, 128), (2, 2.5, 256, 128),
    (2, 6, 256, 64), (2, 4, 64, 512)])
def test_estimator_slice_heights(dim, p, n_modes, rows):
    # a 2D slice takes |v|^p over its grid values, so it holds one
    # grid-sized array and is twice as tall as one that holds two: all but
    # an even p >= 6, whose power chain needs a second buffer. A 1D slice
    # holds two, and its floor of 16 rows binds only at N=2048; the 2D
    # floor of 64 binds from N=512 (p=6) or N=1024 (p=4)
    cfg = EnsembleConfig(dim=dim, p=p, cutoff=1.0, n_modes=n_modes,
                         n_samples=BATCH_SIZE)
    ens, = gibbs._make_ensembles([cfg])
    lo, hi = rng.row_slices(BATCH_SIZE, ens.width, ens.grid_arrays,
                            ens.row_floor)[0]
    assert (lo, hi) == (0, rows)


def _full_report(rep):
    return _hex([rep.estimate, rep.log_estimate, rep.standard_error,
                 rep.log_std_error, rep.effective_sample_size,
                 rep.fraction_inside_cutoff])


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
    with _budget(rows, ens.width, workers, ens.grid_arrays):
        together = estimate_partitions(cfgs, basis)
        alone = [estimate_partition(c, basis) for c in cfgs]
    assert [_full_report(r) for r in together] \
        == [_full_report(r) for r in alone]


def _verdict_hex(v):
    return (_hex([(r.log_estimate, r.log_std_error, r.fraction_inside_cutoff)
                  for r in v.reports]) + _hex([v.slope, v.slope_error])
            + [v.verdict])


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([1, 2]), sampler=st.sampled_from(gibbs.SAMPLERS),
       schedule=st.sampled_from([(16, 24, 40), (8, 16), (12, 20, 36, 64)]),
       n_samples=st.sampled_from([700, BATCH_SIZE, 5003]),
       workers=st.sampled_from([1, 2]))
@example(dim=1, sampler="soliton", schedule=(16, 24, 40), n_samples=5003,
         workers=2)
@example(dim=2, sampler="soliton", schedule=(12, 20, 36, 64), n_samples=5003,
         workers=1)
def test_each_scan_level_matches_its_own_estimate(dim, sampler, schedule,
                                                  n_samples, workers):
    # a scan reads each stream once for the whole schedule; levels that are
    # not powers of two put their slices across each other's, and 700 and
    # 5003 samples end on a short batch
    cfg, _ = _sliced_config(dim, sampler, n_samples)
    cfgs = [replace(cfg, n_modes=schedule[0], cutoff=k)
            for k in (0.5 * cfg.cutoff, cfg.cutoff)]
    basis = None
    if dim == 2:
        basis = radial_basis(bessel_zeros(max(schedule)), max(schedule))
    with mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": str(workers)}):
        verdicts = divergence_scan(cfgs, schedule)
        by_n = [estimate_partitions([replace(c, n_modes=n) for c in cfgs],
                                    basis) for n in schedule]
    for i, v in enumerate(verdicts):
        alone = gibbs._verdict([reps[i] for reps in by_n])
        assert _verdict_hex(v) == _verdict_hex(alone)


# A 2D soliton scan at N = 128 and 256, in slices of more than 64 rows of
# the N = 256 basis's 837 nodes: (log estimate, log error, fraction inside)
# per N, then the slope, its error and the verdict, at cutoffs 2 and 4
SCAN_2D_GOLDEN = [
    ["0x1.0f8eb8a88bd00p-5", "0x1.6e7a64d80ae59p-7", "0x1.c790000000000p-1",
     "0x1.16bdb6fae5700p-5", "0x1.6f21078990e71p-7", "0x1.cba0000000000p-1",
     "0x1.4ba36a4434f25p-10", "0x1.7630e0bde855bp-6", "stable"],
    ["0x1.084f994f8f0dap+14", "0x1.fff7fff00036dp-1", "0x1.fe00000000000p-1",
     "0x1.d88f8c5b2d9d3p+15", "0x1.fff7fff00836fp-1", "0x1.fe50000000000p-1",
     "0x1.eb19dab24d860p+15", "0x1.0523c730e7aa4p+1", "diverging"],
]


@pytest.mark.parametrize("workers", [1, 2])
def test_2d_soliton_scan_is_golden(workers):
    cfg = EnsembleConfig(dim=2, p=4, cutoff=2.0, n_modes=128,
                         n_samples=2 * BATCH_SIZE, seed=5, sampler="soliton")
    with mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": str(workers)}):
        verdicts = divergence_scan([cfg, replace(cfg, cutoff=4.0)],
                                   [128, 256])
    assert [_verdict_hex(v) for v in verdicts] == SCAN_2D_GOLDEN


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 600), min_size=1, max_size=4),
       data=st.data())
def test_tape_reads_are_slices_of_one_whole_draw(lengths, data):
    whole = rng_for(5, 2).standard_normal(max(lengths))
    tape = rng.Tape(rng_for(5, 2), lengths)
    pos = [0] * len(lengths)
    while any(at < n for at, n in zip(pos, lengths)):
        i = data.draw(st.sampled_from(
            [i for i, (at, n) in enumerate(zip(pos, lengths)) if at < n]))
        n = data.draw(st.integers(1, lengths[i] - pos[i]))
        assert tape.read(i, n).tobytes() \
            == whole[pos[i]:pos[i] + n].tobytes()
        pos[i] += n
    with pytest.raises(ValueError, match="cannot read 1"):
        tape.read(0, 1)


@settings(max_examples=100, deadline=None)
@given(readers=st.lists(st.tuples(
           st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple),
           st.integers(1, 300), st.just(2), st.sampled_from([16, 64])),
           min_size=1, max_size=3),
       b=st.integers(1, 700), budget=st.integers(1, 1 << 12))
@example(readers=[((4, 2), 64, 2, 16), ((3,), 100, 2, 64)], b=700,
         budget=4096)
def test_slices_read_each_reader_from_one_whole_draw(readers, b, budget):
    # row shapes of 1 to 25 normals, widths and floors that give slices of
    # 16 rows and more, and batches that end on a short slice
    with mock.patch.object(rng, "SYNTH_BUDGET", budget):
        got = [(i, lo, hi, g.copy())        # g is valid until the next slice
               for i, lo, hi, g in rng.slices(rng_for(5, 3), b, readers)]
        bounds = [rng.row_slices(b, *reader[1:]) for reader in readers]
    sizes = [math.prod(shape) for shape, *_ in readers]
    whole = rng_for(5, 3).standard_normal(b * max(sizes))
    for i, (shape, *_) in enumerate(readers):
        mine = [(lo, hi, g) for j, lo, hi, g in got if j == i]
        assert [(lo, hi) for lo, hi, _ in mine] == bounds[i]
        assert all(g.shape == (hi - lo, *shape) for lo, hi, g in mine)
        assert np.concatenate([g.ravel() for _, _, g in mine]).tobytes() \
            == whole[:b * sizes[i]].tobytes()
    firsts = [lo * sizes[i] for i, lo, _, _ in got]
    assert firsts == sorted(firsts)


def test_a_scan_holds_one_exponent_and_one_flag_per_row():
    # the 1D benchmark scan's configs: 2 cutoffs at 6 levels of a 4096-row
    # batch. Its (log weight, int |u|^p, ||u||_2^2) rows were 1.2 MB of
    # float64, and an exponent and an inside flag per row are 0.44 MB; the
    # whole scan peaked at 6.2 MB with the three rows, and at 5.5 MB with
    # 64-row slices at N=512, whose two grid arrays were 2 MB (2.9 MB with
    # the 32 rows that fit the budget)
    mass = solve_ground_state(1, 6).mass
    cfgs = [EnsembleConfig(dim=1, p=6, cutoff=r * mass, n_modes=16,
                           n_samples=2 * BATCH_SIZE, seed=1,
                           sampler="soliton") for r in (0.5, 1.5)]
    schedule = [16, 32, 64, 128, 256, 512]
    with mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": "1"}):
        divergence_scan(cfgs, schedule[:2])     # lazy imports, caches warm
        tracemalloc.start()
        try:
            divergence_scan(cfgs, schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 3.6e6, peak


def _scan_to_2048(sampler, floor=None):
    """The verdicts of a 1D scan at N = 512, 1024 and 2048 of two cutoffs
    and 600 samples, with the 1D row floor set to floor (None: as it is)."""
    mass = solve_ground_state(1, 6).mass
    cfgs = [EnsembleConfig(dim=1, p=6, cutoff=r * mass, n_modes=16,
                           n_samples=600, seed=1, sampler=sampler)
            for r in (0.5, 1.5)]
    floor = gibbs._Ensemble1D.row_floor if floor is None else floor
    with mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": "1"}), \
            mock.patch.object(gibbs._Ensemble1D, "row_floor", floor):
        return divergence_scan(cfgs, [512, 1024, 2048])


@pytest.mark.parametrize("sampler", gibbs.SAMPLERS)
def test_1d_row_floor_leaves_reports_in_place(sampler):
    # at N = 2048 the 1D floor binds: slices of 16 rows of 8192 points
    # against 64, and 32 and 16 rows at N = 512 and 1024 against 64; each
    # row is synthesized on its own, and the soliton's matrix-vector product
    # keeps its bits from 4-row slices up
    def bits(verdicts):
        return [(_verdict_hex(v), [_full_report(r) for r in v.reports])
                for v in verdicts]
    assert bits(_scan_to_2048(sampler)) \
        == bits(_scan_to_2048(sampler, floor=64))


def test_a_1d_scan_to_2048_holds_16_row_slices():
    # its slices of 64 rows at N = 2048 hold two 4 MB grid arrays, and the
    # scan peaked at 17.7 MB; with 16 rows it peaks at 4.8 MB
    _scan_to_2048("soliton")                   # lazy imports, caches warm
    tracemalloc.start()
    try:
        _scan_to_2048("soliton")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7e6, peak


def test_a_batch_holds_slices_not_the_whole_batch():
    # one 1D soliton estimate at N=512: the draws of its 4096-row batch
    # alone are 32 MiB, and holding the batch whole peaks at 48 MiB
    cfg = EnsembleConfig(dim=1, p=6, cutoff=1.0, n_modes=512,
                         n_samples=BATCH_SIZE, seed=71, sampler="soliton")
    cfgs = [cfg, replace(cfg, cutoff=1.5)]
    with mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": "1"}):
        tracemalloc.start()
        try:
            estimate_partitions(cfgs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8 << 20


def _synthesis_counts(cfgs, basis=None):
    """(rows given to evaluate_coeff_rows, calls of weighted_abs_power_sum)
    while estimate_partitions(cfgs, basis) runs in 1024-row slices."""
    rows, calls = [], []
    evaluate, power_sum = gibbs.evaluate_coeff_rows, \
        gibbs.weighted_abs_power_sum

    def count_rows(coeffs, width, **buffers):
        rows.append(len(coeffs))
        return evaluate(coeffs, width, **buffers)

    def count_calls(vals, weights, p, **buffers):
        calls.append(len(vals))
        return power_sum(vals, weights, p, **buffers)

    ens = gibbs._make_ensembles(cfgs[:1], basis)[0]
    with mock.patch.object(gibbs, "evaluate_coeff_rows", count_rows), \
            mock.patch.object(gibbs, "weighted_abs_power_sum", count_calls), \
            _budget(1024, ens.width, 1, ens.grid_arrays):
        estimate_partitions(cfgs, basis)
    return sum(rows), len(calls)


def _l2sq_1d(g):
    """||u||_2^2 of rows of 1D Gaussians, as the estimator computes it."""
    c = gaussian_coeffs(g, spectral_weights(g.shape[1]))
    return 2.0 * np.sum(np.abs(c) ** 2, axis=1)


@pytest.mark.parametrize("sampler", gibbs.SAMPLERS)
def test_only_rows_inside_a_cutoff_are_synthesized(sampler):
    # two full batches in 1024-row slices, so the shifted half of a soliton
    # batch is two whole slices: the unshifted rows are synthesized once,
    # up to the largest cutoff, and each cutoff's shifted rows up to its own;
    # at these cutoffs every half holds rows inside and rows outside
    cfg = EnsembleConfig(dim=1, p=6, cutoff=0.3, n_modes=16,
                         n_samples=2 * BATCH_SIZE, seed=51, sampler=sampler)
    cfgs = [cfg, replace(cfg, cutoff=0.5)]
    ksqs = [c.cutoff * c.cutoff for c in cfgs]
    ensembles = gibbs._make_ensembles(cfgs)
    half = BATCH_SIZE // 2
    expected = everything = 0
    for stream in range(2):
        g = _oracles.draw_batch(ensembles[0], rng_for(cfg.seed, stream),
                                BATCH_SIZE)
        if sampler == "soliton":
            expected += np.sum(_l2sq_1d(g[:half]) <= max(ksqs))
            for ens, ksq in zip(ensembles, ksqs):
                expected += np.sum(_l2sq_1d(g[half:] + ens.theta) <= ksq)
            everything += half + len(cfgs) * half
        else:
            g, _ = _oracles.apply_proposal(ensembles[0], g)
            expected += np.sum(_l2sq_1d(g) <= max(ksqs))
            everything += BATCH_SIZE
    assert 0 < expected < everything
    assert _synthesis_counts(cfgs) == (expected, 0)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), sampler=st.sampled_from(gibbs.SAMPLERS),
       n_rows=st.sampled_from([907, BATCH_SIZE]),
       rows=st.sampled_from([64, 100, 1024, None]),
       share=st.floats(0.0, 1.0))
def test_rows_kept_are_bit_identical_to_a_full_synthesis(dim, sampler,
                                                         n_rows, rows, share):
    # int |u|^p of a row inside the bound does not depend on which other
    # rows are synthesized: packed 1D rows, or whole 2D slices only
    cfg, basis = _sliced_config(dim, sampler, BATCH_SIZE)
    ens, = gibbs._make_ensembles([cfg], basis)
    with _budget(rows, ens.width, 1, ens.grid_arrays):
        _, full, l2sq = _oracle_rows(ens, rng_for(cfg.seed, 0), n_rows)
        ksq = float(np.quantile(l2sq, share))
        _, kept, l2sq_kept = _pipeline_rows(ens, rng_for(cfg.seed, 0),
                                            n_rows, ksq)
    inside = l2sq <= ksq
    assert l2sq_kept.tobytes() == l2sq.tobytes()
    assert kept[inside].tobytes() == full[inside].tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("change", [{"calibration": True}, {"cutoff": 0.0}])
def test_no_row_is_synthesized_when_none_can_weigh(dim, change):
    # the calibration exponent reads no |u|^p, and a zero cutoff keeps no row
    cfg, basis = _sliced_config(dim, "soliton", BATCH_SIZE + 5)
    assert _synthesis_counts([replace(cfg, **change)], basis) == (0, 0)


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


class _RecordingGenerator:
    """A Generator whose standard_normal draws are appended to draws."""

    def __init__(self, gen, draws):
        self._gen = gen
        self._draws = draws

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self._draws.append(out.copy())
        return out


def _plain_estimator_rows(dim, seed, n_samples):
    """The Gaussian rows estimate_partition draws, in stream order."""
    cfg = EnsembleConfig(dim=dim, p=6 if dim == 1 else 4, cutoff=1.0,
                         n_modes=6, n_samples=n_samples, seed=seed)
    draws = []
    rng_for_stream = rng.rng_for

    def spy(seed, stream):
        return _RecordingGenerator(rng_for_stream(seed, stream), draws)

    with mock.patch.object(rng, "rng_for", spy), \
            mock.patch.dict(os.environ, {"GIBBSLAB_WORKERS": "1"}):
        estimate_partition(cfg)
    return np.concatenate(draws).reshape(
        (n_samples, 6, 2) if dim == 1 else (n_samples, 6))


@settings(max_examples=15, deadline=None)
@given(dim=_DIMS, seed=_SEEDS, n=st.integers(1, 2 * BATCH_SIZE + 1))
@example(dim=1, seed=7, n=BATCH_SIZE + 1)
@example(dim=2, seed=7, n=2 * BATCH_SIZE + 1)
def test_corpus_holds_the_plain_estimator_rows(dim, seed, n):
    assert np.array_equal(_corpus(dim, seed, n),
                          _plain_estimator_rows(dim, seed, n))


@pytest.mark.parametrize("seed, stream, message", [
    # int() truncated 1.5 and True to 1, and drew seed 1's stream
    (1.5, 0, "^seed must be an integer, got 1.5$"),
    (True, 0, "^seed must be an integer, got True$"),
    (1, 2.0, "^stream must be an integer, got 2.0$"),
    (1, False, "^stream must be an integer, got False$"),
    (-1, 0, "nonnegative"),
], ids=["float-seed", "bool-seed", "float-stream", "bool-stream",
        "negative-seed"])
def test_bad_stream_keys_rejected(seed, stream, message):
    with pytest.raises(ValueError, match=message):
        rng_for(seed, stream)


def test_streams_take_numpy_integers():
    assert np.array_equal(
        rng_for(np.int64(5), np.uint32(2)).standard_normal(8),
        rng_for(5, 2).standard_normal(8))


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
