"""Counter-based, splittable random streams and the one Monte Carlo driver.

Every Monte Carlo draw in the package is a pure function of (seed, stream):
stream k of seed s is the Philox generator keyed by SeedSequence(s, spawn_key=(k,)).
Streams have one layout: every sampler goes through batches(), where batch i
draws from stream offset + i (the offset lets one seed feed several
independent runs, through the stream_offset of gibbs.constrained_tail).
The field corpora and the partition estimators put BATCH_SIZE samples on
each stream, so a corpus of n fields holds the Gaussian rows a plain
estimate of n samples draws.

GIBBSLAB_WORKERS sets how many threads run the batches. batches() returns
the batch results in stream order and callers reduce them in that order, so
every result is bit-identical for any worker count.

A batch is drawn whole but synthesized in the row slices of row_slices(),
of about SYNTH_BUDGET grid values each, so that the spectrum, the grid and
the |u|^p chain of a slice stay in cache; a batch that fits the budget goes
through whole. Every row is reduced on its own, so slicing changes no result
bit. The rows of a slice are a power of two, at least 64: OpenBLAS computes
the last rows of a 2D matrix product whose row count is not a multiple of its
4-row kernel with another kernel that rounds differently (slices of 7 or 626
rows moved power_mean by up to 4e-15 relative), and with power-of-two slices
those rows are the same ones as in the whole batch.
"""
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BATCH_SIZE = 4096       # samples per stream, for the fields and the estimators
SYNTH_BUDGET = 1 << 19  # grid values per synthesis slice (4 MB)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for the given (seed, stream) pair."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative integers")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def worker_count() -> int:
    """Worker threads from GIBBSLAB_WORKERS (default 1)."""
    text = os.environ.get("GIBBSLAB_WORKERS", "1")
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(
            f"GIBBSLAB_WORKERS must be a positive integer, got {text!r}")
    return int(text)


def batches(seed: int, n_samples: int, batch_size: int, fn,
            stream_offset: int = 0) -> list:
    """[fn(rng, start, b)] over the batches of n_samples, in stream order.

    Batch i covers samples start = i * batch_size onward, holds
    b = min(batch_size, n_samples - start) of them and draws from
    rng_for(seed, stream_offset + i).
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    n_batches = (n_samples + batch_size - 1) // batch_size

    def job(i):
        start = i * batch_size
        return fn(rng_for(seed, stream_offset + i), start,
                  min(batch_size, n_samples - start))

    workers = worker_count()
    if workers == 1:
        return [job(i) for i in range(n_batches)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(job, range(n_batches)))


def row_slices(n_rows: int, width: int) -> list:
    """[(start, stop)] row bounds of the synthesis slices of a batch of
    n_rows rows of width grid values each (see the module docstring)."""
    if n_rows * width <= SYNTH_BUDGET:
        return [(0, n_rows)]
    rows = max(SYNTH_BUDGET // width, 64)
    rows = 1 << (rows.bit_length() - 1)        # a power of two
    return [(i, min(i + rows, n_rows)) for i in range(0, n_rows, rows)]
