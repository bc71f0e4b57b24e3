"""Command-line front end.

Commands: ground-state, threshold-scan, tail-scan, bessel-table, partition,
verify. Every run writes its outputs under --out-dir only, embeds the
resolved configuration and the package version in a JSON sidecar, and is
reproducible byte-for-byte from that sidecar. Options resolve with the
precedence CLI > config file > built-in defaults; config files are flat
key=value lines. GIBBSLAB_WORKERS sets the Monte Carlo worker count. A
domain error (an out-of-range or missing option, an unreadable or malformed
config file, or a bad GIBBSLAB_WORKERS) ends with a one-line message and exit
status 2, as argparse's usage errors do.
"""
import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import __version__, gibbs, rng, tails, verify
from .bessel import bessel_zeros
from .groundstate import solve_ground_state
from .radial2d import block_l4_expectation


def _even_p(text):
    v = int(text)
    if v <= 2 or v % 2:
        raise argparse.ArgumentTypeError(
            f"p must be an even integer greater than 2, got {text}")
    return v


def _int_list(text):
    return [int(t) for t in text.split(",") if t]


def _float_list(text):
    return [float(t) for t in text.split(",") if t]


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
        vals[k.strip().replace("-", "_")] = v.strip()
    return vals


def _resolve(args, defaults, parsers):
    """Effective options: CLI beats config file beats defaults."""
    file_vals = {}
    if getattr(args, "config", None):
        raw = _read_config_file(args.config)
        for k, v in raw.items():
            if k not in defaults:
                raise ValueError(f"unknown config key {k!r}")
            try:
                file_vals[k] = parsers.get(k, str)(v)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {k!r}: {exc}") from None
    out = dict(defaults)
    out.update(file_vals)
    for k in defaults:
        cli_val = getattr(args, k, None)
        if cli_val is not None:
            out[k] = cli_val
    return out


def _outdir(args):
    d = Path(args.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_sidecar(path: Path, command: str, options: dict):
    rec = {"command": command, "version": __version__,
           "options": {k: (repr(v) if isinstance(v, float) and math.isinf(v)
                           else v) for k, v in options.items()}}
    path.write_text(json.dumps(rec, indent=2, default=str))


# ------------------------------------------------------------------ commands

def _cmd_ground_state(args):
    opts = _resolve(args, {"dim": 1, "p": 6}, {"dim": int, "p": _even_p})
    out = _outdir(args)
    gs = solve_ground_state(opts["dim"], opts["p"])
    gs.to_csv(out / "profile.csv")
    summary = gs.summary()
    summary.update({"j_min": gs.j_min, "sharp_constant": gs.sharp_constant,
                    "mass_error_bar": gs.mass_error_bar,
                    "version": __version__, "options": opts})
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"dim={gs.dim} p={gs.p}  mass={gs.mass:.12g}  "
          f"gns_constant={gs.gns_constant:.12g}")
    return 0


def _cmd_threshold_scan(args):
    defaults = {"dim": 1, "p": 6,
                "ratios": [0.25, 0.5, 0.75, 0.9, 1.1, 1.5],
                "schedule": [16, 32, 64, 128, 256, 512],
                "samples": 100000, "seed": 0, "sampler": "soliton"}
    parsers = {"dim": int, "p": _even_p, "ratios": _float_list,
               "schedule": _int_list, "samples": int, "seed": int,
               "sampler": str}
    opts = _resolve(args, defaults, parsers)
    if not opts["schedule"]:
        raise ValueError("schedule must list at least one N")
    out = _outdir(args)
    gs = solve_ground_state(opts["dim"], opts["p"])   # never hard-coded
    rows = []
    for ratio in opts["ratios"]:
        cfg = gibbs.EnsembleConfig(
            dim=opts["dim"], p=opts["p"], cutoff=ratio * gs.mass,
            n_modes=opts["schedule"][0], n_samples=opts["samples"],
            seed=opts["seed"], sampler=opts["sampler"])
        v = gibbs.divergence_scan(cfg, opts["schedule"])
        rows.append((ratio, ratio * gs.mass, v))
        scan_path = out / f"scan_ratio_{ratio:g}.csv"
        with open(scan_path, "w", newline="") as fh:
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


def _cmd_tail_scan(args):
    defaults = {"dim": 1, "p": 6, "n_modes": 128, "samples": 100000,
                "seed": 0, "k_list": [3, 4, 5],
                "lambdas": [round(0.25 * i, 4) for i in range(1, 13)],
                "bernstein_trials": 5000}
    parsers = {"dim": int, "p": _even_p, "n_modes": int, "samples": int,
               "seed": int, "k_list": _int_list, "lambdas": _float_list,
               "bernstein_trials": int}
    opts = _resolve(args, defaults, parsers)
    out = _outdir(args)
    if opts["dim"] == 1:
        c_hat = max(tails.bernstein_probe(j, opts["p"],
                                          opts["bernstein_trials"],
                                          seed=opts["seed"]).c_hat
                    for j in opts["k_list"])
        for k in opts["k_list"]:
            curve = tails.high_freq_empirical_1d(
                k, opts["lambdas"], opts["n_modes"], opts["samples"],
                p=opts["p"], seed=opts["seed"], bernstein_c=c_hat)
            curve.to_csv(out / f"high_freq_tail_k{k}.csv")
        extra = {"bernstein_c_hat": c_hat}
    else:
        table = bessel_zeros(opts["n_modes"])
        norms = tails.block_norm_samples_2d(4, 3000, table,
                                            seed=opts["seed"] + 1)
        c_prime = tails.fernique_probe(norms, [1.5, 2.0, 3.0]).c_hat
        c4 = max(block_l4_expectation(j, 2000, table,
                                      seed=opts["seed"] + 2)[0] * 2 ** (j / 2)
                 for j in (3, 4, 5))
        for k in opts["k_list"]:
            curve = tails.block_tail_empirical_2d(
                k, opts["lambdas"], opts["n_modes"], opts["samples"], table,
                seed=opts["seed"], c_prime=c_prime, c4=c4)
            curve.to_csv(out / f"block_tail_k{k}.csv")
        extra = {"fernique_c_prime": c_prime, "block_l4_c4": c4}
    _write_sidecar(out / "tail_scan.config.json", "tail-scan",
                   {**opts, **extra})
    print(f"tail curves written to {out}")
    return 0


def _cmd_bessel_table(args):
    opts = _resolve(args, {"count": 100}, {"count": int})
    out = _outdir(args)
    table = bessel_zeros(opts["count"])
    table.to_csv(out / "bessel_zeros.csv")
    _write_sidecar(out / "bessel_table.config.json", "bessel-table", opts)
    print(f"{table.count} zeros written; z_1 = {table.zeros[0]:.15g}")
    return 0


def _cmd_partition(args):
    defaults = {"dim": 1, "p": 6, "cutoff": math.nan, "ratio": math.nan,
                "n_modes": 64, "samples": 100000, "seed": 0,
                "sampler": "plain", "calibration": False}
    parsers = {"dim": int, "p": _even_p, "cutoff": float, "ratio": float,
               "n_modes": int, "samples": int, "seed": int, "sampler": str,
               "calibration": lambda s: s.lower() in ("1", "true", "yes")}
    opts = _resolve(args, defaults, parsers)
    out = _outdir(args)
    cutoff = opts["cutoff"]
    if math.isnan(cutoff):
        if math.isnan(opts["ratio"]):
            raise ValueError("provide either --cutoff or --ratio")
        gs = solve_ground_state(opts["dim"], opts["p"])
        cutoff = opts["ratio"] * gs.mass
    cfg = gibbs.EnsembleConfig(
        dim=opts["dim"], p=opts["p"], cutoff=cutoff, n_modes=opts["n_modes"],
        n_samples=opts["samples"], seed=opts["seed"], sampler=opts["sampler"],
        calibration=opts["calibration"])
    rep = gibbs.estimate_partition(cfg)
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="gibbslab",
        description="Desk-scale lab for mass-cutoff Gibbs ensembles",
        epilog="Environment: GIBBSLAB_WORKERS sets the Monte Carlo worker "
               "count (default 1).")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value option file")
        p.add_argument("--out-dir", default="runs",
                       help="output directory (nothing is written elsewhere)")

    p = sub.add_parser("ground-state", help="solve the ground-state problem")
    common(p)
    p.add_argument("--dim", type=int, choices=(1, 2))
    p.add_argument("--p", type=_even_p)
    p.set_defaults(fn=_cmd_ground_state)

    p = sub.add_parser("threshold-scan",
                       help="divergence scans across cutoff ratios")
    common(p)
    p.add_argument("--dim", type=int, choices=(1, 2))
    p.add_argument("--p", type=_even_p)
    p.add_argument("--ratios", type=_float_list)
    p.add_argument("--schedule", type=_int_list)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sampler", choices=gibbs.SAMPLERS)
    p.set_defaults(fn=_cmd_threshold_scan)

    p = sub.add_parser("tail-scan", help="tail curves against their bounds")
    common(p)
    p.add_argument("--dim", type=int, choices=(1, 2))
    p.add_argument("--p", type=_even_p)
    p.add_argument("--n-modes", dest="n_modes", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k-list", dest="k_list", type=_int_list)
    p.add_argument("--lambdas", type=_float_list)
    p.add_argument("--bernstein-trials", dest="bernstein_trials", type=int)
    p.set_defaults(fn=_cmd_tail_scan)

    p = sub.add_parser("bessel-table", help="export the J0 zero table")
    common(p)
    p.add_argument("--count", type=int)
    p.set_defaults(fn=_cmd_bessel_table)

    p = sub.add_parser("partition", help="single partition-function estimate")
    common(p)
    p.add_argument("--dim", type=int, choices=(1, 2))
    p.add_argument("--p", type=_even_p)
    p.add_argument("--cutoff", type=float)
    p.add_argument("--ratio", type=float,
                   help="cutoff as a multiple of the critical mass")
    p.add_argument("--n-modes", dest="n_modes", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sampler", choices=gibbs.SAMPLERS)
    p.add_argument("--calibration", action="store_const", const=True)
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("verify", help="run the pinned invariant suite")
    p.add_argument("--junit", help="write a JUnit XML report here")
    p.add_argument("--inject-fault", choices=verify.FAULTS,
                   help="deliberately break an internal identity (the suite "
                        "must then fail)")
    p.set_defaults(fn=_cmd_verify)

    args = ap.parse_args(argv)
    try:
        rng.worker_count()
        return args.fn(args)
    except ValueError as exc:
        print(f"{ap.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
