"""Counter-based, splittable random streams and the one Monte Carlo driver.

Every Monte Carlo draw in the package is a pure function of (seed, stream):
stream k of seed s is the Philox generator keyed by SeedSequence(s, spawn_key=(k,)).
Streams have one layout: every sampler goes through batches(), where batch i
draws from stream offset + i (the offset lets one seed feed several
independent runs, e.g. the levels of a tail curve). The field corpora and
the partition estimators put BATCH_SIZE samples on each stream, so a corpus
of n fields holds the Gaussian rows a plain estimate of n samples draws.

GIBBSLAB_WORKERS sets how many threads run the batches. batches() returns
the batch results in stream order and callers reduce them in that order, so
every result is bit-identical for any worker count.
"""
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BATCH_SIZE = 4096       # samples per stream, for the fields and the estimators


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
