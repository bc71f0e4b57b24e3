"""gibbslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/selftest.py                 # harness self-test, toy size

Run from the root of a checkout; the package is imported from ./src. Each
workload is the public CLI (``python -m gibbslab.cli``) in a fresh process,
with BLAS/OpenMP threads at 1 and GIBBSLAB_WORKERS set per workload:

    scan-1d  threshold-scan --dim 1 --p 6 --ratios 0.5,1.5, schedule 16..512,
             8192 samples, soliton sampler, 1 worker. The plain
             single-threaded baseline: FFT synthesis, the |u|^p power kernel
             and the draws, with almost no set-up. A set-up change must leave
             it unmoved.
    scan-2d  the same with --dim 2 --p 4, schedule 16..256, 2 workers. Set-up
             (2D ground state, bessel_zeros, radial_basis, rebuilt for each
             ratio) is a large share; the rest is matmul synthesis and the
             weighted power kernel on the worker pool.
    verify   gibbslab verify, 2 workers, seeds pinned by the suite. Many
             small estimates, small Bessel tables rebuilt repeatedly and ~9e4
             per-sample Philox streams in tails.py that ignore the worker
             count. A change that speeds up large batches can slow this one.

The scans are smaller than acceptance 08/09 (1e5 samples) so that each run
holds several fresh processes, whose median damps the host's noise; scan-2d
stops at N=256 because its set-up at N=512 alone takes ~11 s per process.
--seed is the scans' --seed.

--trace 0 measures, per run: pairs of a set-up process and a workload process
until --seconds is spent (at least MIN_REPS pairs).
It reports medians of wall_s, setup_s, cpu_s (user+system of the workload
process) and peak_rss_mb (its high-water mark). --trace 1 alternates
untraced and traced (perfbench/spans.py) workload processes and reports the
per-module metrics; trace.overhead_s is the traced minus the untraced median
wall time.

Every workload process is checked: exit status 0, scan verdicts (ratio 0.5
stable, 1.5 diverging) or all verify checks passing, and a digest of what it
wrote, which must be the same for every process of the run (traced ones
included). Traced runs also check that the counts repeat exactly and that no
span has a negative self time. Each failed check counts against error_rate =
failed / attempted. The last line of stdout is the JSON result.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = {
    "scan-1d": {"workers": 1, "dim": 1, "p": 6,
                "schedule": (16, 32, 64, 128, 256, 512), "samples": 8192},
    "scan-2d": {"workers": 2, "dim": 2, "p": 4,
                "schedule": (16, 32, 64, 128, 256), "samples": 8192},
    "verify": {"workers": 2},
}
# two batches per N, so that the self-test also runs the worker pool
TOY = {"schedule": (16, 32, 64), "samples": 8192}
EXPECTED_VERDICTS = {"0.5": "stable", "1.5": "diverging"}
VERIFY_CHECKS = (
    "spectral-realness", "spectral-parseval", "projection-algebra",
    "lp-monotone-in-p", "dirichlet-chi-square-law", "bessel-table-invariants",
    "disc-mode-orthonormality", "gradient-parseval-2d", "ground-state-1d",
    "ground-state-2d", "gns-minimality", "disc-gns-saturation",
    "mgf-identity", "chi-square-tail-lemma", "dyadic-schedule-exactness",
    "high-freq-tail-domination", "block-tail-2d-domination",
    "fernique-normal-oracle", "estimator-calibration",
    "estimator-determinism", "estimator-monotone-in-cutoff",
    "importance-consistency", "layer-cake-consistency",
    "kernel-backend-parity")
MIN_REPS = 3          # set-up + workload process pairs per --trace 0 run
MIN_PAIRS = 2         # untraced + traced process pairs per --trace 1 run
HARD_LIMIT_S = 165    # no process starts, and none runs, past this


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Run:
    """One benchmark run of one workload: its processes and their checks."""

    def __init__(self, root, name, seed, toy, work):
        self.root = root
        self.name = name
        self.spec = dict(WORKLOADS[name], **(TOY if toy else {}))
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.digest = None
        workers = min(self.spec["workers"], len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", GIBBSLAB_WORKERS=str(workers))
        self.start = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.start

    def spawn(self, argv, tag):
        """Run one child to completion; wall, cpu and peak RSS are its own."""
        rundir = self.work / tag
        rundir.mkdir(parents=True)
        left = HARD_LIMIT_S - self.elapsed()
        if left <= 0:
            raise HarnessError(f"time limit reached before {tag}")
        with open(rundir / "stdout", "wb") as out, \
                open(rundir / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=rundir,
                                    env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(left, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:       # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        return {"dir": rundir, "rc": os.waitstatus_to_exitcode(status),
                "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": (rundir / "stdout").read_text(errors="replace")}

    def record(self, tag, problems, detail=""):
        self.attempted += 1
        self.failed += bool(problems)
        state = "FAIL " + "; ".join(problems) if problems else "ok"
        print(" ".join(filter(None, (f"{self.name} {tag}:", detail, state))))

    # ---------------------------------------------------------- processes

    def environment(self):
        res = self.spawn([str(HERE / "setup_probe.py"), "--env"], "env")
        if res["rc"] != 0:
            raise HarnessError(f"gibbslab does not import from {self.root}/src"
                               f": {(res['dir'] / 'stderr').read_text()}")
        env = json.loads(res["stdout"].strip().splitlines()[-1])
        src = (self.root / "src").resolve()
        if not Path(env["gibbslab_file"]).resolve().is_relative_to(src):
            raise HarnessError(f"gibbslab imported from "
                               f"{env['gibbslab_file']}, not {src}")
        env["git_commit"] = git_commit(self.root)
        return env

    def setup(self, i):
        spec = self.spec
        res = self.spawn([str(HERE / "setup_probe.py"), self.name,
                          str(spec.get("dim", 0)), str(spec.get("p", 0)),
                          str(max(spec.get("schedule", (0,))))], f"setup{i}")
        self.record(f"setup{i}", [] if res["rc"] == 0
                    else [f"exit {res['rc']}"], f"{res['wall']:.3f}s")
        return res["wall"]

    def cli_args(self, out_dir):
        if self.name == "verify":
            return ["verify"]
        spec = self.spec
        return ["threshold-scan",
                "--dim", str(spec["dim"]), "--p", str(spec["p"]),
                "--ratios", ",".join(EXPECTED_VERDICTS),
                "--schedule", ",".join(map(str, spec["schedule"])),
                "--samples", str(spec["samples"]), "--sampler", "soliton",
                "--seed", str(self.seed), "--out-dir", str(out_dir)]

    def workload(self, tag, traced=False):
        out_dir = self.work / tag / "out"
        trace_path = self.work / tag / "trace.json"
        entry = ([str(HERE / "spans.py"), str(trace_path)] if traced
                 else ["-m", "gibbslab.cli"])
        res = self.spawn(entry + self.cli_args(out_dir), tag)
        problems, digest = self.check(res, out_dir)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"digest {digest[:12]} != {self.digest[:12]}")
        res["trace"] = None
        if traced and res["rc"] == 0:
            res["trace"] = json.loads(trace_path.read_text())
            worst = min(res["trace"]["min_self_s"].values())
            if worst < -1e-9:
                problems.append(f"negative self time {worst:.3g}s")
        self.record(tag, problems,
                    f"wall {res['wall']:.3f}s cpu {res['cpu']:.3f}s "
                    f"rss {res['rss_mb']:.1f}MB digest {digest[:12]}")
        return res

    def check(self, res, out_dir):
        """Correctness of one workload process, and the digest of what it
        wrote (verify writes nothing; its report is digested instead)."""
        problems = [] if res["rc"] == 0 else [f"exit {res['rc']}"]
        h = hashlib.sha256()
        if self.name == "verify":
            lines = res["stdout"].splitlines()
            passed = tuple(ln.split()[1] for ln in lines
                           if ln.startswith("PASS "))
            total = len(VERIFY_CHECKS)
            if passed != VERIFY_CHECKS or \
                    f"{total}/{total} checks passed" not in lines:
                problems.append(f"{len(passed)}/{total} expected checks pass")
            # ground-state-1d reports its own run time; mask it
            h.update(re.sub(r"\d+\.\d+s$", "<t>", res["stdout"],
                            flags=re.M).encode())
            return problems, h.hexdigest()
        files = sorted(out_dir.glob("*")) if out_dir.is_dir() else []
        for f in files:
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
        verdicts = {}
        if (out_dir / "verdicts.csv").is_file():
            for row in (out_dir / "verdicts.csv").read_text().splitlines()[1:]:
                cells = row.split(",")
                verdicts[cells[0]] = cells[2]
        if verdicts != EXPECTED_VERDICTS:
            problems.append(f"verdicts {verdicts}")
        return problems, h.hexdigest()


def git_commit(root):
    """HEAD of the checkout, read from .git without leaving it."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def summary(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} q1={q1:.4g} q3={q3:.4g} "
            f"min={min(values):.4g} max={max(values):.4g}")


def measure(run, seconds):
    """--trace 0: end-to-end metrics."""
    setups, reps = [], []
    # one set-up process before each workload process, so that both series
    # see the same drift of the host
    while len(reps) < MIN_REPS or run.elapsed() + statistics.median(
            s + r["wall"] for s, r in zip(setups, reps)) <= seconds:
        setups.append(run.setup(len(setups)))
        reps.append(run.workload(f"rep{len(reps)}"))
    series = {"wall_s": [r["wall"] for r in reps], "setup_s": setups,
              "cpu_s": [r["cpu"] for r in reps],
              "peak_rss_mb": [r["rss_mb"] for r in reps]}
    return ({k: statistics.median(v) for k, v in series.items()},
            {k: summary(v) for k, v in series.items()})


def measure_traced(run, seconds):
    """--trace 1: per-module metrics from traced processes."""
    plain, traced = [], []
    while len(traced) < MIN_PAIRS or run.elapsed() + statistics.median(
            p["wall"] + t["wall"] for p, t in zip(plain, traced)) <= seconds:
        # alternate which goes first, so that drift cancels in the overhead
        for series in (plain, traced) if len(traced) % 2 == 0 \
                else (traced, plain):
            is_traced = series is traced
            tag = f"{'traced' if is_traced else 'plain'}{len(series)}"
            series.append(run.workload(tag, traced=is_traced))
    dumps = [t["trace"] for t in traced if t["trace"] is not None]
    if not dumps:
        return {}, {}
    counts = [(d["calls"], d["counts"], d["reports"],
               [name for name, _ in d["checks"]]) for d in dumps]
    run.record("trace-counts", [] if all(c == counts[0] for c in counts)
               else ["counts differ between traced processes"],
               f"{len(dumps)} traced processes")
    traced_walls = [t["wall"] for t in traced]
    plain_walls = [p["wall"] for p in plain]
    metrics = layer_metrics(dumps)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls))
    return metrics, {"trace.overhead_s": f"traced {summary(traced_walls)}; "
                                         f"untraced {summary(plain_walls)}"}


def layer_metrics(dumps):
    first = dumps[0]

    def med(fn):
        return statistics.median(fn(d) for d in dumps)

    def incl(kind):
        return med(lambda d: d["inclusive_s"].get(kind, 0.0))

    def self_time(module):
        return med(lambda d: sum(v for k, v in d["self_s"].items()
                                 if k.split(".")[0] == module))

    def count(name):
        return first["counts"].get(name, 0)

    def calls(*kinds):
        return sum(first["calls"].get(k, 0) for k in kinds)

    power_s = incl("core.power")
    estimate_s = incl("gibbs.estimate")
    reports = first["reports"]
    samples = sum(r[1] for r in reports)
    ess = [r[3] / r[1] for r in reports if r[0]]
    m = {
        "rng.streams": count("rng.streams"),
        "rng.stream_s": incl("rng.stream"),
        "rng.draw_s": incl("rng.draw"),
        "spectral1d.synth_s": incl("spectral1d.synth"),
        "spectral1d.synth_rows": count("spectral1d.synth_rows"),
        "spectral1d.synth_bytes": count("spectral1d.synth_bytes"),
        "core.power_s": power_s,
        "core.power_bytes": count("core.power_bytes"),
        "core.power_gbps": (count("core.power_bytes") / power_s / 1e9
                            if power_s > 0 else 0.0),
        "core.j0_s": incl("core.j0"),
        "bessel.zeros_s": incl("bessel.zeros"),
        "bessel.zeros_calls": calls("bessel.zeros"),
        "bessel.zeros_computed": count("bessel.zeros_computed"),
        "radial2d.basis_s": incl("radial2d.basis"),
        "radial2d.quad_s": incl("radial2d.quad"),
        "radial2d.basis_calls": calls("radial2d.basis"),
        "groundstate.solve_s": incl("groundstate.solve"),
        "groundstate.solve_calls": calls("groundstate.solve"),
        "gibbs.estimate_s": estimate_s,
        "gibbs.self_s": self_time("gibbs"),
        "gibbs.estimates": calls("gibbs.estimate"),
        "gibbs.samples": samples,
        "gibbs.samples_per_s": samples / estimate_s if estimate_s else 0.0,
        "gibbs.inside_fraction": (sum(r[1] * r[2] for r in reports) / samples
                                  if samples else 0.0),
        "gibbs.ess_per_sample": min(ess) if ess else 0.0,
        "pool.wait_s": self_time("pool"),
        "tails.self_s": self_time("tails"),
        "tails.calls": sum(v for k, v in first["calls"].items()
                           if k.startswith("tails.")),
        "cli.self_s": self_time("cli"),
    }
    for name in VERIFY_CHECKS:
        m[f"verify.{name}_s"] = med(
            lambda d: sum(s for n, s in d["checks"] if n == name))
    return m


def run_workload(root, name, args, declared):
    work = root / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(root, name, args.seed, args.toy, work)
        print(f"{name}: seed {args.seed}, {args.seconds} s, trace "
              f"{args.trace}{', toy size' if args.toy else ''}")
        print("env " + json.dumps(run.environment(), sort_keys=True))
        values, details = (measure_traced if args.trace else measure)(
            run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if values and set(values) != set(declared):
        raise HarnessError(f"metrics {sorted(set(values) ^ set(declared))} "
                           f"differ from BENCHMARK.json")
    for metric, unit in declared.items():
        if metric in values:
            print(f"metric {name} {metric} {values[metric]:.6g} {unit} "
                  f"{details.get(metric, '')}".rstrip())
    print(f"metric {name} error_rate {run.failed / run.attempted:.6g} ratio "
          f"failed={run.failed} attempted={run.attempted}")
    print(f"digest {name} {run.digest}")
    return run, {k: {"value": values[k], "unit": u}
                 for k, u in declared.items() if k in values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload (default: run_seconds "
                         "in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="scan schedule 16,32,64 (harness self-test)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = Path.cwd()
    try:
        if not (root / "src" / "gibbslab" / "__init__.py").is_file():
            raise HarnessError(f"no gibbslab sources under {root}/src; run "
                               "from the root of a checkout")
        bench = json.loads((root / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        declared = {m["name"]: m["unit"] for m in
                    bench["per_layer" if args.trace else "end_to_end"]}
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            run, metrics = run_workload(root, name, args, declared)
            result["attempted"] += run.attempted
            result["failed"] += run.failed
            prefix = f"{name}." if args.workload == "all" else ""
            result["metrics"].update({prefix + k: v
                                      for k, v in metrics.items()})
        result["correct"] = result["failed"] == 0
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
