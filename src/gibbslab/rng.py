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
every result is bit-identical for any worker count. With one worker the
batches run in the calling thread, and concurrent.futures is not loaded.

Every sampler reads a batch from its stream with slices(), in the row
slices of row_slices(), and keeps its slice-sized arrays in a Workspace, so
that the draws, the spectrum, the grid and the |u|^p chain of a slice stay
in cache; a batch that fits the budget goes through whole. Only the field
corpora, which their callers hold whole, and the Bernstein probe, whose two
draws fix its stream, draw whole batches. The budget, SYNTH_BUDGET = 2^17
grid values (1 MB of float64), counts every grid-sized array a slice holds:
a slice of rows of width values that holds k such arrays is the largest
power of two of rows that keeps rows * width * k within the budget, and at
least the reader's row floor. Most slices hold two, the grid values and
their powers, so each array is 512 KB: a 1D estimator slice is 32 rows of
2048 points at N=512 and 16 rows of 4096 at N=1024, and only at N=2048
does its floor of 16 rows bind, two 1 MB arrays of 8192 points. A 2D
estimator slice (gibbs) takes |v|^p in place over its grid values and holds
one (two for an even p >= 6, whose power chain cannot run in place; see
_core), so it is 128 rows of the 837 nodes at N=256. The tail laboratory's
samplers count two arrays per slice. The two arrays of a slice, 1 MB
together within the budget and 2 MB at a 1D slice of 16 rows at N=2048,
fit the 2 MiB per-core L2 of a 2-CPU Xeon (lscpu: 4 MiB over 2 instances);
two 4 MB arrays spilled out of it, and fresh 1D threshold scans ran about
10% slower. Every row is reduced on its own, so slicing changes no result
bit.
The rows of a slice are a power of two, at least ROW_FLOOR = 64 unless the
reader sets its own floor: OpenBLAS computes the last rows of a 2D matrix
product whose row count is not a multiple of its 4-row kernel with another
kernel that rounds differently (slices of 7 or 626 rows moved power_mean by
up to 4e-15 relative), and with power-of-two slices those rows are the same
ones as in the whole batch. The soliton weights' matrix-vector products keep
their bits the same way, from slices of 4 rows up; single rows do not. The
matrix products of a 2D synthesis keep the floor of 64, as a 16-row floor
slowed a 2D p=4 N=1024 estimate by about 18%. A 1D estimator synthesizes
each row on its own, by an inverse FFT and a power chain, and its only
product across rows is that matrix-vector product, so it reads with a floor
of 16 rows, which keeps its slices within the budget up to N=1024 and a
scan to N=2048 in about a quarter of the memory of 64-row slices.

A batch of n rows of m normals each is the first n * m values of its
stream, so a batch at a smaller truncation level is a prefix of the batch at
a larger one. A Tape lets several readers share one pass over a stream: a
threshold scan reads every level of a batch from one draw, and a worker
holds the values between its slowest and its furthest reader rather than a
whole batch. Consecutive standard_normal(out=...) draws continue one
another, so every read is bit for bit that slice of one whole draw.

The partition estimators synthesize |u|^p only on the rows of a slice that
lie inside a cutoff, 1D rows packed and 2D slices whole (see gibbs).
"""
import math
import os
import threading

import numpy as np

from ._core import _check_integers

BATCH_SIZE = 4096       # samples per stream, for the fields and the estimators
SYNTH_BUDGET = 1 << 17  # grid values a synthesis slice holds (1 MB, in L2)
ROW_FLOOR = 64          # the fewest rows of a slice, unless a reader sets it


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for the given (seed, stream) pair."""
    _check_integers(seed=seed, stream=stream)
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative integers")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
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
    # imported here: concurrent.futures loads logging, which one worker
    # does not need
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(job, range(n_batches)))


def row_slices(n_rows: int, width: int, arrays: int = 2,
               floor: int = ROW_FLOOR) -> list:
    """[(start, stop)] row bounds of the synthesis slices of a batch of
    n_rows rows of width grid values each, a slice holding arrays
    grid-sized arrays and at least floor rows, a power of two (see the
    module docstring)."""
    per_row = width * arrays
    if n_rows * per_row <= SYNTH_BUDGET:
        return [(0, n_rows)]
    rows = max(SYNTH_BUDGET // per_row, floor)
    rows = 1 << (rows.bit_length() - 1)        # a power of two
    return [(i, min(i + rows, n_rows)) for i in range(0, n_rows, rows)]


class Tape:
    """One random stream read front to back by several readers, reader i
    from the start of the stream up to lengths[i] values.

    The stream is drawn forward only as far as the furthest read, and a
    value is dropped once every reader that has not reached its length is
    past it, so the tape holds the values between the slowest reader and the
    furthest draw."""

    def __init__(self, gen: np.random.Generator, lengths):
        self._gen = gen
        self._lengths = list(lengths)
        self._pos = [0] * len(self._lengths)
        self._buf = np.empty(0)
        self._start = 0         # stream position of self._buf[0]
        self._end = 0           # stream position drawn up to

    def read(self, reader: int, n: int) -> np.ndarray:
        """The next n values of the stream for reader, as a view that is
        valid until the next read."""
        lo = self._pos[reader]
        hi = lo + n
        if n < 1 or hi > self._lengths[reader]:
            raise ValueError(f"reader {reader} at {lo} of "
                             f"{self._lengths[reader]} cannot read {n}")
        keep = min(pos for pos, length in zip(self._pos, self._lengths)
                   if pos < length)
        self._pos[reader] = hi
        if hi > self._end:
            if hi - self._start > len(self._buf):
                # move the values still to be read to the front, into a
                # larger buffer if they and the new draw do not fit
                live = self._buf[keep - self._start:self._end - self._start]
                if hi - keep > len(self._buf):
                    self._buf = np.empty(max(hi - keep, 2 * len(self._buf)))
                self._buf[:len(live)] = live
                self._start = keep
            self._gen.standard_normal(
                out=self._buf[self._end - self._start:hi - self._start])
            self._end = hi
        return self._buf[lo - self._start:hi - self._start]


def slices(gen: np.random.Generator, b: int, readers):
    """(i, lo, hi, g) for the row slices of a batch of b rows of every reader
    of readers, a (row_shape, width), (row_shape, width, arrays) or
    (row_shape, width, arrays, floor) tuple: rows lo:hi of reader i's
    normals g, of shape (hi - lo, *row_shape), read from the stream of gen
    through one Tape in the slices of row_slices(b, width, arrays, floor),
    in the order of their first value on the stream. g is valid until the
    next slice, and a reader alone on its stream may overwrite it."""
    sizes = [math.prod(reader[0]) for reader in readers]
    tape = Tape(gen, [b * size for size in sizes])
    for _, i, lo, hi in sorted(
            (lo * size, i, lo, hi)
            for i, (reader, size) in enumerate(zip(readers, sizes))
            for lo, hi in row_slices(b, *reader[1:])):
        yield i, lo, hi, tape.read(i, (hi - lo) * sizes[i]).reshape(
            (hi - lo, *readers[i][0]))


class Workspace(threading.local):
    """The slice-sized arrays of one pass, a set for each thread that runs
    its batches. Each name holds one buffer, grown to the largest request,
    that every slice views at its own shape: allocating such arrays afresh
    for every slice, or for every batch, made the heap shrink after each and
    fault its pages in again for the next. A pass makes its own workspace,
    so no buffer outlives the call that made it."""

    def __init__(self):
        self._buffers = {}

    def __call__(self, name, shape, dtype=float):
        size = math.prod(shape) * np.dtype(dtype).itemsize // 8
        buf = self._buffers.get(name)
        if buf is None or len(buf) < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].view(dtype).reshape(shape)
