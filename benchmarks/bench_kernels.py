"""Benchmark the compiled power kernels against the NumPy fallback.

J0/J1 are scipy's for every backend, so only the |v|^p reductions differ.

Run:  python benchmarks/bench_kernels.py
"""
import time

import numpy as np

from gibbslab._core import _kernels_py

try:
    from gibbslab._core import _kernels as compiled
except ImportError:
    compiled = None


def bench(label, fn, *args, repeat=5):
    fn(*args)                               # warm up
    best = min(_timed(fn, *args) for _ in range(repeat))
    print(f"  {label:14s} {best * 1e3:9.2f} ms")
    return best


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((4096, 2048))
    w = rng.random(2048)

    backends = [("numpy", _kernels_py)]
    if compiled is not None:
        backends.append(("cython", compiled))
    else:
        print("compiled backend not built; benchmarking the fallback only")

    results = {}
    for name, mod in backends:
        print(f"{name}:")
        results[name, "pow6 mean"] = bench("pow6 mean", mod.abs_power_mean,
                                           v, 6.0)
        results[name, "pow4 wsum"] = bench("pow4 wsum",
                                           mod.weighted_abs_power_sum,
                                           v, w, 4.0)

    if compiled is not None:
        print("speedups (numpy / cython):")
        for key in ("pow6 mean", "pow4 wsum"):
            ratio = results["numpy", key] / results["cython", key]
            print(f"  {key:14s} {ratio:6.2f}x")


if __name__ == "__main__":
    main()
