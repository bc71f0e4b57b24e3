"""Command-line front end.

Commands: ground-state, threshold-scan, tail-scan, bessel-table, partition,
verify. Every run writes its outputs under --out-dir only, embeds the
resolved configuration and the package version in a JSON sidecar, and is
reproducible byte-for-byte from that sidecar. This is the only module that
writes files: every CSV goes through _write_csv, every JSON file through
_write_json, which writes a non-finite float as its repr ("inf", "nan"),
and verify's JUnit XML report through _write_junit, and each makes the
directory it writes into. The result classes of the other modules hold
data only: a threshold scan's rows are its verdicts' reports, one per N,
printed as they are. tail-scan and verify import the modules they run,
tails and verify, when they start, and no other command loads them; the
--inject-fault choices are verify.FAULTS written out here, so that building
the parser does not load verify. Options resolve with the precedence
CLI > config file > built-in defaults. Config files are flat
key=value lines whose keys are the option names, written with - or _, and
a value from a file goes through the same parser as the same value given as
a flag. GIBBSLAB_WORKERS sets the Monte Carlo worker count. A domain error
(an out-of-range, empty, missing or conflicting option, an unreadable or
malformed config file or one that sets a key twice, a --ratios value of 0,
whose cutoff holds no sample, or a bad GIBBSLAB_WORKERS) ends with a
one-line message and exit status 2, as argparse's usage errors do. So
does an output path that a run could not write, checked before any work:
an --out-dir that exists as a non-directory or sits under one, or a
--junit path that is a directory or sits under a non-directory. A
command computes its results before it creates --out-dir, so a failed run
writes nothing.
"""
import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, gibbs, rng, spectral1d
from .bessel import bessel_zeros
from .groundstate import solve_ground_state


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


def _check_output_path(flag, path: Path, is_dir):
    """Refuse a path that a run could not write: one that exists as a
    directory when it should be a file or the other way round, or one whose
    nearest existing ancestor is not a directory."""
    if path.exists():
        if path.is_dir() != is_dir:
            what = "is not a directory" if is_dir else "is a directory"
            raise ValueError(f"{flag} {path} {what}")
        return
    up = next(a for a in path.parents if a.exists())
    if not up.is_dir():
        raise ValueError(f"{flag} {path} is under {up}, which is not a "
                         f"directory")


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _json_ready(value):
    """value with every non-finite float in it, at any depth, replaced by
    its repr ("inf", "-inf", "nan"), which JSON has no number for."""
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_ready(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def _write_json(path: Path, record: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_json_ready(record), indent=2))


def _write_sidecar(path: Path, command: str, options: dict):
    _write_json(path, {"command": command, "version": __version__,
                       "options": options})


def _write_junit(path: Path, results):
    """verify's results as a JUnit XML report: one testcase per check, with
    its measured text as system-out and, if it failed, as the message of
    its failure."""
    # imported here, as scipy is, so that no other command pays to load it
    from xml.etree import ElementTree

    suite = ElementTree.Element(
        "testsuite", name="gibbslab-verify", tests=str(len(results)),
        failures=str(sum(not r.passed for r in results)))
    for r in results:
        case = ElementTree.SubElement(suite, "testcase", name=r.name,
                                      time=f"{r.seconds:.3f}")
        if not r.passed:
            ElementTree.SubElement(case, "failure", message=r.measured)
        ElementTree.SubElement(case, "system-out").text = r.measured
    ElementTree.indent(suite)
    path.parent.mkdir(parents=True, exist_ok=True)
    ElementTree.ElementTree(suite).write(path, encoding="utf-8",
                                         xml_declaration=True)


# ------------------------------------------------------------------ commands

def _cmd_ground_state(opts, out):
    gs = solve_ground_state(opts["dim"], opts["p"])
    _write_csv(out / "profile.csv", ["x", "phi"],
               ([f"{x:.12g}", f"{v:.15g}"]
                for x, v in zip(gs.grid, gs.profile)))
    _write_json(out / "summary.json", {
        "dim": gs.dim, "p": gs.p, "mass": gs.mass, "grad_norm": gs.grad_norm,
        "gns_constant": gs.gns_constant, "residual_max": gs.residual_max,
        "j_min": gs.j_min, "sharp_constant": gs.sharp_constant,
        "mass_error_bar": gs.mass_error_bar, "version": __version__,
        "options": opts})
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
        if ratio == 0:
            raise ValueError(f"--ratios {ratio!r} is a cutoff of 0, which "
                             f"holds no sample")
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
    for name, (_, _, v) in zip(files, rows):
        _write_csv(out / name, ["N", "n_samples", "log_estimate", "stderr",
                                "fraction_inside_cutoff"],
                   ([rep.n_modes, rep.n_samples, f"{rep.log_estimate:.12g}",
                     f"{rep.log_std_error:.12g}",
                     f"{rep.fraction_inside_cutoff:.12g}"]
                    for rep in v.reports))
    _write_csv(out / "verdicts.csv",
               ["ratio", "cutoff", "verdict", "slope", "slope_error"],
               ([f"{ratio:g}", f"{cutoff:.12g}", v.verdict, f"{v.slope:.6g}",
                 f"{v.slope_error:.6g}"] for ratio, cutoff, v in rows))
    _write_sidecar(out / "threshold_scan.config.json", "threshold-scan",
                   {**opts, "critical_mass": gs.mass})
    for ratio, cutoff, v in rows:
        # an empty cutoff has no slope to fit: say so, not "nan +- nan"
        note = ("no sample inside the cutoff at any N"
                if all(rep.fraction_inside_cutoff == 0 for rep in v.reports)
                else f"slope {v.slope:.4g} +- {v.slope_error:.2g}")
        print(f"ratio {ratio:<5g} K={cutoff:.6g}  verdict={v.verdict} "
              f"({note})")
    return 0


def _cmd_tail_scan(opts, out):
    from . import tails

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
    top = tails._C4_BLOCKS[-1]
    if opts["dim"] == 2 and opts["n_modes"] < 2 ** top:
        raise ValueError(
            f"n_modes must be at least {2 ** top} in dim 2, the top mode of "
            f"the block-{top} L4 probe, got {opts['n_modes']}")
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
        c_prime, c4 = tails.disc_tail_constants(table, opts["seed"] + 1)
        curves = [tails.block_tail_empirical_2d(
            k, lambdas, opts["n_modes"], opts["samples"], table,
            seed=opts["seed"], c_prime=c_prime, c4=c4)
            for k in opts["k_list"]]
        extra = {"fernique_c_prime": c_prime, "block_l4_c4": c4}
    for name, c in zip(files, curves):
        _write_csv(out / name,
                   ["level", "empirical", "err", "theoretical", "valid_flag"],
                   ([f"{lam:.12g}", f"{e:.12g}", f"{err:.12g}", f"{t:.12g}",
                     int(ok)] for lam, e, err, t, ok in zip(
                         c.levels, c.empirical, c.err, c.theoretical,
                         c.valid)))
    _write_sidecar(out / "tail_scan.config.json", "tail-scan",
                   {**opts, **extra})
    print(f"tail curves written to {out}")
    return 0


def _cmd_bessel_table(opts, out):
    table = bessel_zeros(opts["count"])
    _write_csv(out / "bessel_zeros.csv", ["n", "z_n", "j1_at_z_n"],
               ([n, f"{z:.15g}", f"{j1:.15g}"] for n, (z, j1) in enumerate(
                   zip(table.zeros, table.j1_at_zeros), 1)))
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
    _write_json(out / "partition.json", {**asdict(rep), "config": asdict(cfg)})
    print(f"log_estimate={rep.log_estimate:.6g}  "
          f"stderr(rel)={rep.log_std_error:.3g}  "
          f"ess={rep.effective_sample_size:.1f}  "
          f"inside={rep.fraction_inside_cutoff:.4f}")
    return 0


def _cmd_verify(args):
    from . import verify

    results = verify.run_all(inject_fault=args.inject_fault)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}s}  {r.measured}")
    failures = sum(not r.passed for r in results)
    if args.junit:
        _write_junit(Path(args.junit), results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# verify.FAULTS, named here so that building the parser does not load verify
_FAULTS = ("j1-normalization",)

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
    p.add_argument("--inject-fault", choices=_FAULTS,
                   help="deliberately break an internal identity (the suite "
                        "must then fail)")

    args = ap.parse_args(argv)
    try:
        rng.worker_count()
        if args.command == "verify":
            if args.junit:
                _check_output_path("--junit", Path(args.junit), is_dir=False)
            return _cmd_verify(args)
        fn, _, options = _COMMANDS[args.command]
        out = Path(args.out_dir)
        _check_output_path("--out-dir", out, is_dir=True)
        return fn(_resolve(args, options), out)
    except ValueError as exc:
        print(f"{ap.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
