"""Span tracer for the benchmark's traced runs.

    python perfbench/spans.py OUT.json CLI-ARGS...

runs ``gibbslab.cli.main(CLI-ARGS)`` with tracing on and writes the
aggregated spans and counts to OUT.json; the exit status is the CLI's.

Nothing in ``src/`` is edited. The tracer rebinds the public functions of
each gibbslab module, in every gibbslab namespace that imported them, to
wrappers that open a span around the call and read the counts the call
takes or returns. Two private hooks are needed to follow the Monte Carlo
work into worker threads: ``gibbs._batched`` becomes a ``pool.batches`` span
(its self time is what the calling thread waits for the pool), and the batch
function it is handed becomes a ``gibbs.batch`` span on whichever thread runs
it. Generators returned by ``rng_for`` are proxied so that each draw is a
``rng.draw`` span.

Each thread keeps its own span stack, so a span's parent is the innermost
open span of the same thread. A span's self time is its duration minus the
durations of its children; children nest inside their parent on one clock,
so a negative self time means a span was given the wrong parent.
"""
import json
import math
import sys
import threading
import time
from collections import defaultdict

# A span kind is "<module>.<what>"; the module part groups self times.
_PUBLIC = {
    "rng": {"rng_for": "rng.stream"},
    "spectral1d": {"evaluate_coeff_rows": "spectral1d.synth"},
    "_core": {"abs_power_mean": "core.power",
              "weighted_abs_power_sum": "core.power",
              "j0_array": "core.j0", "j1_array": "core.j0",
              "j01_arrays": "core.j0"},
    "bessel": {"bessel_zeros": "bessel.zeros"},
    "radial2d": {"radial_basis": "radial2d.basis",
                 "disc_quadrature": "radial2d.quad"},
    "groundstate": {"solve_ground_state": "groundstate.solve"},
    "gibbs": {"estimate_partition": "gibbs.estimate",
              "constrained_tail": "gibbs.estimate",
              "tail_curve": "gibbs.tail_curve",
              "divergence_scan": "gibbs.scan"},
    "verify": {"run_all": "verify.run_all"},
}


class Tracer:
    """Per-thread span stacks, aggregated per span kind as spans close."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.inclusive_s = defaultdict(float)  # outermost spans of a kind
        self.self_s = defaultdict(float)
        self.min_self_s = {}
        self.counts = defaultdict(float)
        self.reports = []                      # (is_partition, n, inside, ess)
        self.checks = []                       # verify CheckResults

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, kind, fn, after=None):
        """fn inside a span of the given kind; after(result, args, kwargs)
        may record counts and replace the result."""
        def traced(*args, **kwargs):
            stack = self._stack()
            outermost = all(frame[0] != kind for frame in stack)
            frame = [kind, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self._close(kind, dur, dur - frame[1], outermost)
            return out if after is None else after(out, args, kwargs)
        return traced

    def _close(self, kind, dur, self_dur, outermost):
        with self._lock:
            self.calls[kind] += 1
            if outermost:
                self.inclusive_s[kind] += dur
            self.self_s[kind] += self_dur
            if self_dur < self.min_self_s.get(kind, math.inf):
                self.min_self_s[kind] = self_dur

    def add(self, name, amount):
        with self._lock:
            self.counts[name] += amount

    def dump(self):
        return {"calls": dict(self.calls),
                "inclusive_s": dict(self.inclusive_s),
                "self_s": dict(self.self_s),
                "min_self_s": dict(self.min_self_s),
                "counts": dict(self.counts),
                "reports": self.reports,
                "checks": [(c.name, c.seconds) for c in self.checks]}


class _TimedGenerator:
    """A numpy Generator whose method calls are rng.draw spans."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        return self._tracer.wrap("rng.draw", attr) if callable(attr) else attr


def _hooks(tracer):
    """after() callbacks by traced function name: they read the counts."""
    def stream(gen, args, kwargs):
        tracer.add("rng.streams", 1)
        return _TimedGenerator(gen, tracer)

    def synth(vals, args, kwargs):
        coeffs = args[0]
        tracer.add("spectral1d.synth_rows", math.prod(coeffs.shape[:-1]))
        tracer.add("spectral1d.synth_bytes", coeffs.nbytes + vals.nbytes)
        return vals

    def power(out, args, kwargs):
        tracer.add("core.power_bytes",
                   sum(getattr(a, "nbytes", 0) for a in args))
        return out

    def zeros(table, args, kwargs):
        tracer.add("bessel.zeros_computed", table.count)
        return table

    def report(partition):
        def record(rep, args, kwargs):
            tracer.reports.append((partition, rep.n_samples,
                                   rep.fraction_inside_cutoff,
                                   rep.effective_sample_size))
            return rep
        return record

    def checks(results, args, kwargs):
        tracer.checks.extend(results)
        return results

    return {"rng_for": stream, "evaluate_coeff_rows": synth,
            "abs_power_mean": power, "weighted_abs_power_sum": power,
            "bessel_zeros": zeros, "estimate_partition": report(True),
            "constrained_tail": report(False), "run_all": checks}


def install(tracer):
    """Rebind the traced functions in every loaded gibbslab module."""
    from gibbslab import cli, gibbs, verify  # noqa: F401  (load them all)

    hooks = _hooks(tracer)
    targets = {}
    for mod_name, fns in _PUBLIC.items():
        mod = sys.modules[f"gibbslab.{mod_name}"]
        for fn_name, kind in fns.items():
            fn = getattr(mod, fn_name)
            targets[id(fn)] = tracer.wrap(kind, fn, hooks.get(fn_name))
    for fn_name, fn in vars(sys.modules["gibbslab.tails"]).items():
        if (not fn_name.startswith("_") and not isinstance(fn, type)
                and getattr(fn, "__module__", "") == "gibbslab.tails"):
            targets[id(fn)] = tracer.wrap(f"tails.{fn_name}", fn)

    for name, mod in list(sys.modules.items()):
        if name == "gibbslab" or name.startswith("gibbslab."):
            for attr, value in list(vars(mod).items()):
                if id(value) in targets:
                    setattr(mod, attr, targets[id(value)])

    batched = gibbs._batched

    def traced_batched(cfg, ens, fn, stream_offset=0):
        return batched(cfg, ens, tracer.wrap("gibbs.batch", fn),
                       stream_offset)

    gibbs._batched = tracer.wrap("pool.batches", traced_batched)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from gibbslab import cli

    rc = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
