"""Command-line front end.

Commands: ground-state, threshold-scan, tail-scan, bessel-table, partition,
verify. Every run writes its outputs under --out-dir only, embeds the
resolved configuration and the package version in a JSON sidecar, and is
reproducible byte-for-byte from that sidecar. Options resolve with the
precedence CLI > config file > built-in defaults. Config files are flat
key=value lines whose keys are the option names, written with - or _, and
a value from a file goes through the same parser as the same value given as
a flag. GIBBSLAB_WORKERS sets the Monte Carlo worker count. A domain error
(an out-of-range, empty, missing or conflicting option, an unreadable or
malformed config file or one that sets a key twice, or a bad
GIBBSLAB_WORKERS) ends with a one-line message and exit status 2, as
argparse's usage errors do. A command computes its results before it
creates --out-dir, so a failed run writes nothing.
"""
import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__, gibbs, rng, spectral1d, tails, verify
from .bessel import bessel_zeros
from .groundstate import solve_ground_state
from .radial2d import block_l4_expectation


def _int_or_none(text):
    try:
        return int(text)
    except ValueError:
        return None


def _even_p(text):
    v = _int_or_none(text)
    if v is None or v <= 2 or v % 2:
        raise argparse.ArgumentTypeError(
            f"p must be an even integer greater than 2, got {text!r}")
    return v


def _dim(text):
    v = _int_or_none(text)
    if v not in (1, 2):
        raise argparse.ArgumentTypeError(f"dim must be 1 or 2, got {text!r}")
    return v


def _sampler(text):
    if text not in gibbs.SAMPLERS:
        raise argparse.ArgumentTypeError(
            f"sampler must be one of {', '.join(gibbs.SAMPLERS)}, "
            f"got {text!r}")
    return text


def _bool(text):
    """Config-file boolean; on the command line the option is a bare flag."""
    low = text.lower()
    if low not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(
            f"expected 1/true/yes or 0/false/no, got {text!r}")
    return low in ("1", "true", "yes")


def _parsed(convert, text, form):
    """convert(text), or the error that names the expected form; a flag and
    a config file value give the same text."""
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {form}, got {text!r}") from None


def _int(text):
    return _parsed(int, text, "an integer")


def _float(text):
    return _parsed(float, text, "a number")


def _int_list(text):
    return _parsed(lambda t: [int(v) for v in t.split(",") if v], text,
                   "comma-separated integers")


def _float_list(text):
    return _parsed(lambda t: [float(v) for v in t.split(",") if v], text,
                   "comma-separated numbers")


def _read_config_file(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"config file {path}: {exc.strerror}") from None
    vals = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        k, v = line.split("=", 1)
        k = k.strip().replace("-", "_")
        if k in vals:
            raise ValueError(f"config key {k!r} is set more than once")
        vals[k] = v.strip()
    return vals


# the lowest value of each integer option that has one; _resolve checks it on
# values from a config file and from the command line alike
_AT_LEAST = {"seed": 0, "samples": 1, "bernstein_trials": 1, "n_modes": 1,
             "count": 1}


def _resolve(args, options):
    """Effective options: CLI beats config file beats defaults."""
    parsers = {name: parse for name, parse, _ in options}
    out = {name: default for name, _, default in options}
    if args.config:
        for k, v in _read_config_file(args.config).items():
            if k not in parsers:
                raise ValueError(f"unknown config key {k!r}")
            try:
                out[k] = parsers[k](v)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {k!r}: {exc}") from None
    for k in out:
        if getattr(args, k) is not None:
            out[k] = getattr(args, k)
    for k, v in out.items():
        if v == []:
            item = "N" if k == "schedule" else "value"
            raise ValueError(f"{k} must list at least one {item}")
        if k in _AT_LEAST and v < _AT_LEAST[k]:
            raise ValueError(f"--{k.replace('_', '-')} must be >= "
                             f"{_AT_LEAST[k]}, got {v}")
    return out


def _cutoff(flag, ratio, mass):
    """The cutoff ratio * mass of a --ratio(s) value; a finite ratio whose
    cutoff overflows would silently run without a cutoff."""
    cutoff = ratio * mass
    if math.isinf(cutoff) and not math.isinf(ratio):
        raise ValueError(f"{flag} {ratio!r} times the critical mass "
                         f"{mass:.6g} overflows to an infinite cutoff")
    return cutoff


def _write_sidecar(path: Path, command: str, options: dict):
    rec = {"command": command, "version": __version__,
           "options": {k: (repr(v) if isinstance(v, float) and math.isinf(v)
                           else v) for k, v in options.items()}}
    path.write_text(json.dumps(rec, indent=2, default=str))


# ------------------------------------------------------------------ commands

def _cmd_ground_state(opts, out):
    gs = solve_ground_state(opts["dim"], opts["p"])
    out.mkdir(parents=True, exist_ok=True)
    gs.to_csv(out / "profile.csv")
    summary = gs.summary()
    summary.update({"j_min": gs.j_min, "sharp_constant": gs.sharp_constant,
                    "mass_error_bar": gs.mass_error_bar,
                    "version": __version__, "options": opts})
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"dim={gs.dim} p={gs.p}  mass={gs.mass:.12g}  "
          f"gns_constant={gs.gns_constant:.12g}")
    return 0


def _cmd_threshold_scan(opts, out):
    schedule = opts["schedule"]
    for n in schedule:
        if n < 1:
            raise ValueError(f"--schedule values must be >= 1, got {n}")
    for a, b in zip(schedule, schedule[1:]):
        if b <= a:
            raise ValueError(
                f"--schedule must be increasing, got {b} after {a}")
    files = [f"scan_ratio_{ratio:g}.csv" for ratio in opts["ratios"]]
    seen = {}
    for ratio, name in zip(opts["ratios"], files):
        if not ratio >= 0:
            raise ValueError(f"ratios must be nonnegative, got {ratio}")
        if name in seen:
            raise ValueError(f"--ratios {seen[name]!r} and {ratio!r} would "
                             f"both write {name}")
        seen[name] = ratio
    gs = solve_ground_state(opts["dim"], opts["p"])   # never hard-coded
    cfgs = [gibbs.EnsembleConfig(
        dim=opts["dim"], p=opts["p"],
        cutoff=_cutoff("--ratios", ratio, gs.mass),
        n_modes=schedule[0], n_samples=opts["samples"],
        seed=opts["seed"], sampler=opts["sampler"])
        for ratio in opts["ratios"]]              # every ratio checked first
    rows = list(zip(opts["ratios"], [cfg.cutoff for cfg in cfgs],
                    gibbs.divergence_scan(cfgs, schedule)))
    out.mkdir(parents=True, exist_ok=True)
    for name, (_, _, v) in zip(files, rows):
        with open(out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["N", "n_samples", "log_estimate", "stderr",
                        "fraction_inside_cutoff"])
            for (n, le, err, frac) in v.scan_rows():
                w.writerow([n, opts["samples"], f"{le:.12g}", f"{err:.12g}",
                            f"{frac:.12g}"])
    with open(out / "verdicts.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ratio", "cutoff", "verdict", "slope", "slope_error"])
        for ratio, cutoff, v in rows:
            w.writerow([f"{ratio:g}", f"{cutoff:.12g}", v.verdict,
                        f"{v.slope:.6g}", f"{v.slope_error:.6g}"])
    _write_sidecar(out / "threshold_scan.config.json", "threshold-scan",
                   {**opts, "critical_mass": gs.mass})
    for ratio, cutoff, v in rows:
        print(f"ratio {ratio:<5g} K={cutoff:.6g}  verdict={v.verdict} "
              f"(slope {v.slope:.4g} +- {v.slope_error:.2g})")
    return 0


# dyadic blocks whose L4 expectation sets the 2D tail constant C4; block j
# spans modes 2^(j-1)+1 .. 2^j, so --n-modes must reach 2^5 in dim 2
_C4_BLOCKS = (3, 4, 5)


def _cmd_tail_scan(opts, out):
    lambdas = opts["lambdas"]
    for lam in lambdas:
        if not 0 < lam < math.inf:
            raise ValueError(f"lambdas must be finite and positive, got {lam}")
    for a, b in zip(lambdas, lambdas[1:]):
        if b <= a:
            raise ValueError(
                f"--lambdas must be increasing, got {b!r} after {a!r}")
    stem = "high_freq_tail" if opts["dim"] == 1 else "block_tail"
    files = [f"{stem}_k{k}.csv" for k in opts["k_list"]]
    seen = {}
    for k, name in zip(opts["k_list"], files):
        if name in seen:
            raise ValueError(f"--k-list {seen[name]} and {k} would both "
                             f"write {name}")
        seen[name] = k
        lowest = 1 if opts["dim"] == 1 else 0   # dim 1 probes block k >= 1
        if k < lowest:
            raise ValueError(f"k_list levels must be >= {lowest} in dim "
                             f"{opts['dim']}, got {k}")
        # the samplers' own window rule: an empty window samples a zero field
        if not spectral1d._window("high", k, opts["n_modes"]).any():
            raise ValueError(f"k_list level {k} has an empty high-frequency "
                             f"window at n_modes {opts['n_modes']}")
    if opts["dim"] == 2 and opts["p"] != 4:
        raise ValueError(f"the 2D block tails are L4 norms: p must be 4 in "
                         f"dim 2, got {opts['p']}")
    if opts["dim"] == 2 and opts["n_modes"] < 2 ** _C4_BLOCKS[-1]:
        raise ValueError(
            f"n_modes must be at least {2 ** _C4_BLOCKS[-1]} in dim 2, the "
            f"top mode of the block-{_C4_BLOCKS[-1]} L4 probe, "
            f"got {opts['n_modes']}")
    if opts["dim"] == 1:
        c_hat = max(tails.bernstein_probe(j, opts["p"],
                                          opts["bernstein_trials"],
                                          seed=opts["seed"])
                    for j in opts["k_list"])
        curves = [tails.high_freq_empirical_1d(
            k, lambdas, opts["n_modes"], opts["samples"],
            p=opts["p"], seed=opts["seed"], bernstein_c=c_hat)
            for k in opts["k_list"]]
        extra = {"bernstein_c_hat": c_hat}
    else:
        table = bessel_zeros(opts["n_modes"])
        norms = tails.block_norm_samples_2d(4, 3000, table,
                                            seed=opts["seed"] + 1)
        c_prime = tails.fernique_probe(norms, [1.5, 2.0, 3.0]).c_hat
        c4 = max(block_l4_expectation(j, 2000, table,
                                      seed=opts["seed"] + 2)[0] * 2 ** (j / 2)
                 for j in _C4_BLOCKS)
        curves = [tails.block_tail_empirical_2d(
            k, lambdas, opts["n_modes"], opts["samples"], table,
            seed=opts["seed"], c_prime=c_prime, c4=c4)
            for k in opts["k_list"]]
        extra = {"fernique_c_prime": c_prime, "block_l4_c4": c4}
    out.mkdir(parents=True, exist_ok=True)
    for name, curve in zip(files, curves):
        curve.to_csv(out / name)
    _write_sidecar(out / "tail_scan.config.json", "tail-scan",
                   {**opts, **extra})
    print(f"tail curves written to {out}")
    return 0


def _cmd_bessel_table(opts, out):
    table = bessel_zeros(opts["count"])
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "bessel_zeros.csv")
    _write_sidecar(out / "bessel_table.config.json", "bessel-table", opts)
    print(f"{table.count} zeros written; z_1 = {table.zeros[0]:.15g}")
    return 0


def _cmd_partition(opts, out):
    cutoff = opts["cutoff"]
    for k in ("cutoff", "ratio"):
        if opts[k] is not None and math.isnan(opts[k]):
            raise ValueError(f"--{k} must be a number, got nan")
    if cutoff is not None and opts["ratio"] is not None:
        raise ValueError("--cutoff and --ratio are mutually exclusive")
    if cutoff is None:
        if opts["ratio"] is None:
            raise ValueError("provide either --cutoff or --ratio")
        if opts["ratio"] < 0:
            raise ValueError(f"ratio must be nonnegative, got {opts['ratio']}")
        gs = solve_ground_state(opts["dim"], opts["p"])
        cutoff = _cutoff("--ratio", opts["ratio"], gs.mass)
    cfg = gibbs.EnsembleConfig(
        dim=opts["dim"], p=opts["p"], cutoff=cutoff, n_modes=opts["n_modes"],
        n_samples=opts["samples"], seed=opts["seed"], sampler=opts["sampler"],
        calibration=opts["calibration"])
    rep = gibbs.estimate_partition(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "partition.json").write_text(rep.to_json())
    print(f"log_estimate={rep.log_estimate:.6g}  "
          f"stderr(rel)={rep.log_std_error:.3g}  "
          f"ess={rep.effective_sample_size:.1f}  "
          f"inside={rep.fraction_inside_cutoff:.4f}")
    return 0


def _cmd_verify(args):
    results = verify.run_all(inject_fault=args.inject_fault)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}s}  {r.measured}")
    failures = sum(not r.passed for r in results)
    if args.junit:
        Path(args.junit).parent.mkdir(parents=True, exist_ok=True)
        Path(args.junit).write_text(verify.junit_xml(results))
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# command -> (function, help, options); each option is (name, parser,
# default), its flag is --name with _ written as -, and a _bool option is a
# bare flag
_DIM_P = [("dim", _dim, 1), ("p", _even_p, 6)]
_COMMANDS = {
    "ground-state": (_cmd_ground_state, "solve the ground-state problem",
                     _DIM_P),
    "threshold-scan": (
        _cmd_threshold_scan, "divergence scans across cutoff ratios",
        _DIM_P + [("ratios", _float_list, [0.25, 0.5, 0.75, 0.9, 1.1, 1.5]),
                  ("schedule", _int_list, [16, 32, 64, 128, 256, 512]),
                  ("samples", _int, 100000), ("seed", _int, 0),
                  ("sampler", _sampler, "soliton")]),
    "tail-scan": (
        _cmd_tail_scan, "tail curves against their bounds",
        _DIM_P + [("n_modes", _int, 128), ("samples", _int, 100000),
                  ("seed", _int, 0), ("k_list", _int_list, [3, 4, 5]),
                  ("lambdas", _float_list,
                   [round(0.25 * i, 4) for i in range(1, 13)]),
                  ("bernstein_trials", _int, 5000)]),
    "bessel-table": (_cmd_bessel_table, "export the J0 zero table",
                     [("count", _int, 100)]),
    "partition": (
        _cmd_partition, "single partition-function estimate at --cutoff K, "
                        "or at --ratio r (K = r times the critical mass)",
        _DIM_P + [("cutoff", _float, None), ("ratio", _float, None),
                  ("n_modes", _int, 64), ("samples", _int, 100000),
                  ("seed", _int, 0), ("sampler", _sampler, "plain"),
                  ("calibration", _bool, False)]),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="gibbslab",
        description="Desk-scale lab for mass-cutoff Gibbs ensembles",
        epilog="Environment: GIBBSLAB_WORKERS sets the Monte Carlo worker "
               "count (default 1).")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key=value option file")
        p.add_argument("--out-dir", default="runs",
                       help="output directory (nothing is written elsewhere)")
        for name, parse, _ in options:
            flag = "--" + name.replace("_", "-")
            if parse is _bool:
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=parse)

    p = sub.add_parser("verify", help="run the pinned invariant suite")
    p.add_argument("--junit", help="write a JUnit XML report here")
    p.add_argument("--inject-fault", choices=verify.FAULTS,
                   help="deliberately break an internal identity (the suite "
                        "must then fail)")

    args = ap.parse_args(argv)
    try:
        rng.worker_count()
        if args.command == "verify":
            return _cmd_verify(args)
        fn, _, options = _COMMANDS[args.command]
        return fn(_resolve(args, options), Path(args.out_dir))
    except ValueError as exc:
        print(f"{ap.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
