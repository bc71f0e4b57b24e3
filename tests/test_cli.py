"""Command-line behavior: files, determinism, config precedence, verify."""
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from gibbslab.cli import main


def run_cli(args):
    return main(args)


ROOT = Path(__file__).resolve().parents[1]


def run_python(args, env=None, **kwargs):
    """subprocess.run of a fresh interpreter with args (text output
    captured), the repository's src first on its PYTHONPATH and
    RuntimeWarnings as errors, as pyproject's pythonpath and filterwarnings
    make them in this process; env is os.environ by default."""
    env = {**(os.environ if env is None else env),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


def test_ground_state_outputs(tmp_path):
    out = tmp_path / "gs"
    assert run_cli(["ground-state", "--dim", "1", "--p", "6",
                    "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["mass"] ** 2 - math.sqrt(3) * math.pi) < 1e-8
    assert summary["residual_max"] < 1e-8
    assert summary["version"]
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "x,phi"
    assert len(lines) > 1000


def test_malformed_p_exits_2():
    proc = run_python(["-m", "gibbslab.cli", "ground-state",
                       "--dim", "1", "--p", "5"])
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


# config files the error cases below name; missing.cfg is never written
CONFIGS = {"bad-p.cfg": "p = 5\n", "malformed.cfg": "count 25\n",
           "unknown-key.cfg": "banana = 1\n", "dim-3.cfg": "dim = 3\n",
           "bad-sampler.cfg": "sampler = bogus\n",
           "bad-bool.cfg": "calibration = ture\ncutoff = 1.0\n",
           "neg-seed.cfg": "seed = -1\n", "no-samples.cfg": "samples = 0\n",
           "nan-cutoff.cfg": "cutoff = nan\n", "float-p.cfg": "p = 4.0\n",
           "dim-x.cfg": "dim = x\n", "bad-schedule.cfg": "schedule = 16,a\n",
           "bad-ratios.cfg": "ratios = 0.5,x\n",
           "float-samples.cfg": "samples = 1.5\n",
           "count-twice.cfg": "count = 5\ncount = 7\n",
           "n-modes-twice.cfg": "n-modes = 8\nn_modes = 16\n",
           "empty-samples.cfg": "samples =\n"}


DOMAIN_ERRORS = [
    (["bessel-table", "--count", "0"], "1", "count must be >= 1"),
    (["partition", "--dim", "2", "--p", "6", "--ratio", "0.5",
      "--sampler", "soliton"], "1", "p <= 4"),
    (["partition", "--dim", "1", "--p", "6", "--cutoff", "1.0",
      "--n-modes", "8", "--samples", "100"], "abc", "GIBBSLAB_WORKERS"),
    (["bessel-table", "--config", "missing.cfg"], "1",
     "No such file or directory"),
    (["ground-state", "--config", "bad-p.cfg"], "1",
     "p must be an even integer greater than 2"),
    (["threshold-scan", "--schedule", ""], "1",
     "schedule must list at least one N"),
    (["bessel-table", "--config", "malformed.cfg"], "1",
     "malformed config line"),
    (["bessel-table", "--config", "unknown-key.cfg"], "1",
     "unknown config key 'banana'"),
    (["partition", "--dim", "1", "--p", "6"], "1",
     "provide either --cutoff or --ratio"),
    (["threshold-scan", "--ratios", ""], "1",
     "ratios must list at least one value"),
    (["tail-scan", "--dim", "1", "--k-list", ""], "1",
     "k_list must list at least one value"),
    (["tail-scan", "--dim", "2", "--p", "4", "--k-list", ""], "1",
     "k_list must list at least one value"),
    (["tail-scan", "--lambdas", ""], "1",
     "lambdas must list at least one value"),
    (["threshold-scan", "--schedule", "32,16", "--samples", "100"], "1",
     "schedule must be increasing"),
    (["ground-state", "--config", "dim-3.cfg"], "1",
     "config key 'dim': dim must be 1 or 2, got '3'"),
    (["threshold-scan", "--config", "bad-sampler.cfg"], "1",
     "config key 'sampler': sampler must be one of"),
    (["partition", "--config", "bad-bool.cfg"], "1",
     "config key 'calibration': expected 1/true/yes or 0/false/no"),
    (["tail-scan", "--dim", "2", "--p", "6"], "1",
     "p must be 4 in dim 2, got 6"),
    (["partition", "--dim", "1", "--p", "6", "--cutoff", "1.0",
      "--ratio", "0.5"], "1", "--cutoff and --ratio are mutually exclusive"),
    (["tail-scan", "--dim", "2", "--p", "4", "--lambdas", "nan,0.5"], "1",
     "lambdas must be finite and positive, got nan"),
    (["tail-scan", "--dim", "2", "--p", "4", "--lambdas=-1"], "1",
     "lambdas must be finite and positive, got -1.0"),
    (["tail-scan", "--dim", "1", "--lambdas", "0.5,inf"], "1",
     "lambdas must be finite and positive, got inf"),
    (["tail-scan", "--dim", "1", "--lambdas", "nan,0.5"], "1",
     "lambdas must be finite and positive, got nan"),
    (["tail-scan", "--dim", "1", "--lambdas", "0.5,0"], "1",
     "lambdas must be finite and positive, got 0.0"),
    (["tail-scan", "--dim", "2", "--p", "4", "--n-modes", "31"], "1",
     "n_modes must be at least 32 in dim 2"),
    (["tail-scan", "--dim", "2", "--p", "4", "--n-modes", "32", "--k-list",
      "7", "--samples", "500", "--lambdas", "0.5"], "1",
     "k_list level 7 has an empty high-frequency window at n_modes 32"),
    (["tail-scan", "--dim", "1", "--n-modes", "16", "--k-list", "6"], "1",
     "k_list level 6 has an empty high-frequency window at n_modes 16"),
    (["tail-scan", "--dim", "1", "--n-modes", "2"], "1",
     "k_list level 3 has an empty high-frequency window at n_modes 2"),
    (["threshold-scan", "--ratios", "-0.5"], "1",
     "ratios must be nonnegative, got -0.5"),
    (["threshold-scan", "--ratios", "0.5,nan"], "1",
     "ratios must be nonnegative, got nan"),
    (["partition", "--dim", "1", "--p", "6", "--ratio", "-0.5"], "1",
     "ratio must be nonnegative, got -0.5"),
    (["threshold-scan", "--ratios", "inf", "--schedule", "16,32",
      "--samples", "100"], "1",
     "the soliton sampler needs a finite cutoff, got cutoff=inf"),
    (["partition", "--dim", "1", "--p", "6", "--ratio", "inf",
      "--sampler", "soliton"], "1",
     "the soliton sampler needs a finite cutoff, got cutoff=inf"),
    (["partition", "--dim", "2", "--p", "4", "--cutoff", "inf",
      "--sampler", "soliton"], "1",
     "the soliton sampler needs a finite cutoff, got cutoff=inf"),
    (["tail-scan", "--dim", "1", "--n-modes", "16", "--k-list", "0"], "1",
     "k_list levels must be >= 1 in dim 1, got 0"),
    (["tail-scan", "--dim", "1", "--n-modes", "16", "--k-list=3,-1"], "1",
     "k_list levels must be >= 1 in dim 1, got -1"),
    (["tail-scan", "--dim", "2", "--p", "4", "--k-list=-1"], "1",
     "k_list levels must be >= 0 in dim 2, got -1"),
    (["threshold-scan", "--seed=-1"], "1", "--seed must be >= 0, got -1"),
    (["tail-scan", "--config", "neg-seed.cfg"], "1",
     "--seed must be >= 0, got -1"),
    (["partition", "--ratio", "0.5", "--samples", "0"], "1",
     "--samples must be >= 1, got 0"),
    (["threshold-scan", "--config", "no-samples.cfg"], "1",
     "--samples must be >= 1, got 0"),
    (["tail-scan", "--bernstein-trials", "0"], "1",
     "--bernstein-trials must be >= 1, got 0"),
    (["tail-scan", "--dim", "1", "--n-modes", "0"], "1",
     "--n-modes must be >= 1, got 0"),
    (["partition", "--ratio", "0.5", "--n-modes=-4"], "1",
     "--n-modes must be >= 1, got -4"),
    (["bessel-table", "--count=-3"], "1", "--count must be >= 1, got -3"),
    (["threshold-scan", "--ratios", "0.5,0.5000001", "--schedule", "16,32",
      "--samples", "100"], "1",
     "--ratios 0.5 and 0.5000001 would both write scan_ratio_0.5.csv"),
    (["threshold-scan", "--ratios", "0.25,0.5,0.25"], "1",
     "--ratios 0.25 and 0.25 would both write scan_ratio_0.25.csv"),
    (["threshold-scan", "--schedule", "0,16"], "1",
     "--schedule values must be >= 1, got 0"),
    (["threshold-scan", "--schedule", "16,16,32"], "1",
     "--schedule must be increasing, got 16 after 16"),
    (["tail-scan", "--dim", "1", "--n-modes", "16", "--k-list", "3,3"], "1",
     "--k-list 3 and 3 would both write high_freq_tail_k3.csv"),
    (["tail-scan", "--dim", "2", "--p", "4", "--k-list", "4,3,4"], "1",
     "--k-list 4 and 4 would both write block_tail_k4.csv"),
    (["tail-scan", "--dim", "1", "--n-modes", "16", "--lambdas", "0.5,0.5"],
     "1", "--lambdas must be increasing, got 0.5 after 0.5"),
    (["tail-scan", "--dim", "2", "--p", "4", "--lambdas", "0.5,1,0.75"], "1",
     "--lambdas must be increasing, got 0.75 after 1.0"),
    (["partition", "--dim", "1", "--p", "6", "--cutoff", "nan",
      "--ratio", "0.5"], "1", "--cutoff must be a number, got nan"),
    (["partition", "--dim", "1", "--p", "6", "--ratio", "nan",
      "--cutoff", "1.0"], "1", "--ratio must be a number, got nan"),
    (["partition", "--config", "nan-cutoff.cfg", "--ratio", "0.5"], "1",
     "--cutoff must be a number, got nan"),
    (["partition", "--dim", "1", "--p", "6", "--cutoff", "nan"], "1",
     "--cutoff must be a number, got nan"),
    (["ground-state", "--config", "float-p.cfg"], "1",
     "config key 'p': p must be an even integer greater than 2, got '4.0'"),
    (["ground-state", "--config", "dim-x.cfg"], "1",
     "config key 'dim': dim must be 1 or 2, got 'x'"),
    (["threshold-scan", "--config", "bad-schedule.cfg"], "1",
     "config key 'schedule': expected comma-separated integers, got '16,a'"),
    (["threshold-scan", "--config", "bad-ratios.cfg"], "1",
     "config key 'ratios': expected comma-separated numbers, got '0.5,x'"),
    (["threshold-scan", "--config", "float-samples.cfg"], "1",
     "config key 'samples': expected an integer, got '1.5'"),
    (["bessel-table", "--config", "count-twice.cfg"], "1",
     "config key 'count' is set more than once"),
    (["partition", "--config", "n-modes-twice.cfg"], "1",
     "config key 'n_modes' is set more than once"),
    (["threshold-scan", "--config", "empty-samples.cfg"], "1",
     "config key 'samples': expected an integer, got ''"),
    (["threshold-scan", "--sampler", "plain", "--ratios", "1e308",
      "--schedule", "16,32", "--samples", "100"], "1",
     "--ratios 1e+308 times the critical mass"),
    (["threshold-scan", "--ratios", "0.5,1e308", "--schedule", "16,32",
      "--samples", "100"], "1",
     "--ratios 1e+308 times the critical mass"),
    (["partition", "--dim", "1", "--p", "6", "--ratio", "1e308",
      "--samples", "100"], "1",
     "--ratio 1e+308 times the critical mass"),
    (["partition", "--dim", "2", "--p", "4", "--ratio", "1e308",
      "--sampler", "soliton", "--samples", "100"], "1",
     "--ratio 1e+308 times the critical mass"),
    (["partition", "--dim", "1", "--cutoff", "1e150", "--sampler", "soliton",
      "--samples", "100", "--n-modes", "8"], "1",
     "a sample inside the cutoff 1e+150 has the Gibbs exponent inf"),
    (["threshold-scan", "--dim", "1", "--ratios", "0.5,1e100", "--schedule",
      "16,32,64", "--samples", "2000"], "1",
     "a sample inside the cutoff 2.33268"),
    (["partition", "--dim", "1", "--cutoff", "1e200", "--sampler", "soliton",
      "--samples", "100", "--n-modes", "8"], "1",
     "the soliton shift at the cutoff 1e+200 has energy inf"),
    (["partition", "--dim", "2", "--p", "4", "--cutoff", "1e200",
      "--sampler", "soliton", "--samples", "100", "--n-modes", "8"], "1",
     "the soliton shift at the cutoff 1e+200 has energy inf"),
    (["threshold-scan", "--ratios", "0.5,0"], "1",
     "--ratios 0.0 is a cutoff of 0, which holds no sample"),
    # output paths a run could not write, refused before any work: in the
    # run's working directory afile is a file and adir a directory
    (["bessel-table", "--count", "5", "--out-dir", "afile"], "1",
     "--out-dir afile is not a directory"),
    (["threshold-scan", "--dim", "1", "--ratios", "0.5", "--schedule",
      "16,32", "--samples", "2000", "--out-dir", "afile/x"], "1",
     "--out-dir afile/x is under afile, which is not a directory"),
    (["ground-state", "--out-dir", "afile/x/y"], "1",
     "--out-dir afile/x/y is under afile, which is not a directory"),
    (["verify", "--junit", "adir"], "1", "--junit adir is a directory"),
    (["verify", "--junit", "afile/report.xml"], "1",
     "--junit afile/report.xml is under afile, which is not a directory"),
]


def _error_case_args(tmp_path, args):
    """args with the config files written and named by path, afile and adir
    made in tmp_path, and the --out-dir that a failed run must not create
    unless args name their own or run verify, which has none."""
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    if args[0] == "verify" or "--out-dir" in args:
        return args
    return args + ["--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("args, workers, message", DOMAIN_ERRORS)
def test_domain_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch,
                                            args, workers, message):
    args = _error_case_args(tmp_path, args)
    monkeypatch.setenv("GIBBSLAB_WORKERS", workers)
    monkeypatch.chdir(tmp_path)
    returncode = main(args)
    stderr = capsys.readouterr().err
    assert returncode == 2
    assert len(stderr.splitlines()) == 1
    assert message in stderr
    assert not (tmp_path / "out").exists()      # a failed run writes nothing
    assert sorted(p.name for p in tmp_path.rglob("*")) == \
        sorted([*CONFIGS, "afile", "adir"])


# the module entry point and the worker count read from the environment of
# a fresh interpreter, on three of the cases above
@pytest.mark.parametrize("args, workers, message",
                         [DOMAIN_ERRORS[i] for i in (0, 2, 3)])
def test_domain_errors_exit_2_from_the_module(tmp_path, args, workers,
                                              message):
    args = _error_case_args(tmp_path, args)
    proc = run_python(["-m", "gibbslab.cli", *args],
                      env={**os.environ, "GIBBSLAB_WORKERS": workers})
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert message in proc.stderr
    assert not (tmp_path / "out").exists()      # a failed run writes nothing


# a malformed typed flag is an argparse usage error: usage, then one error
# line naming the flag and the expected form, and exit status 2
TYPED_FLAG_ERRORS = [
    (["ground-state", "--p", "4.0"],
     "argument --p: p must be an even integer greater than 2, got '4.0'"),
    (["ground-state", "--dim", "x"],
     "argument --dim: dim must be 1 or 2, got 'x'"),
    (["threshold-scan", "--schedule", "16,a"],
     "argument --schedule: expected comma-separated integers, got '16,a'"),
    (["threshold-scan", "--ratios", "0.5,x"],
     "argument --ratios: expected comma-separated numbers, got '0.5,x'"),
    (["tail-scan", "--k-list", "3,4.5"],
     "argument --k-list: expected comma-separated integers, got '3,4.5'"),
    (["threshold-scan", "--samples", "1.5"],
     "argument --samples: expected an integer, got '1.5'"),
    (["partition", "--cutoff", "x"],
     "argument --cutoff: expected a number, got 'x'"),
]


@pytest.mark.parametrize("args, message", TYPED_FLAG_ERRORS)
def test_typed_flag_errors_name_the_expected_form(tmp_path, capsys, args,
                                                  message):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out-dir", str(tmp_path / "out")])
    stderr = capsys.readouterr().err
    assert exc.value.code == 2
    assert stderr.splitlines()[-1].endswith(message)
    assert "invalid" not in stderr
    assert not (tmp_path / "out").exists()


def test_bessel_table_command(tmp_path):
    out = tmp_path / "bt"
    assert run_cli(["bessel-table", "--count", "30",
                    "--out-dir", str(out)]) == 0
    lines = (out / "bessel_zeros.csv").read_text().splitlines()
    assert len(lines) == 31
    assert lines[0] == "n,z_n,j1_at_z_n"
    n, z, _ = lines[1].split(",")
    assert n == "1"
    assert abs(float(z) - 2.404825557695773) < 1e-14
    assert len(z.replace(".", "").replace("-", "").lstrip("0")) >= 15
    sidecar = json.loads((out / "bessel_table.config.json").read_text())
    assert sidecar["options"]["count"] == 30
    assert sidecar["command"] == "bessel-table"


def test_partition_command_and_reproducibility(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["partition", "--dim", "1", "--p", "6", "--cutoff", "1.0",
            "--n-modes", "16", "--samples", "5000", "--seed", "7"]
    assert run_cli(args + ["--out-dir", str(a)]) == 0
    assert run_cli(args + ["--out-dir", str(b)]) == 0
    ra = json.loads((a / "partition.json").read_text())
    rb = json.loads((b / "partition.json").read_text())
    assert ra == rb
    assert ra["config"]["n_modes"] == 16
    assert ra["config"]["seed"] == 7
    assert ra["n_samples"] == 5000


def test_threshold_scan_acceptance_pattern(tmp_path):
    out = tmp_path / "scan"
    assert run_cli(["threshold-scan", "--dim", "1", "--p", "6",
                    "--ratios", "0.25,0.5,1.5",
                    "--schedule", "16,32,64,128",
                    "--samples", "20000", "--seed", "3",
                    "--out-dir", str(out)]) == 0
    rows = (out / "verdicts.csv").read_text().splitlines()[1:]
    verdicts = {float(r.split(",")[0]): r.split(",")[2] for r in rows}
    assert verdicts[0.25] == "stable"
    assert verdicts[0.5] == "stable"
    assert verdicts[1.5] == "diverging"
    # ratio column reproduces the input grid exactly
    assert sorted(verdicts) == [0.25, 0.5, 1.5]
    scan = (out / "scan_ratio_0.5.csv").read_text().splitlines()
    assert scan[0] == "N,n_samples,log_estimate,stderr,fraction_inside_cutoff"
    assert len(scan) == 5


def test_scan_rows_carry_their_reports_errors(tmp_path):
    # no sample lies inside 0.02 times the critical mass: every row's stderr
    # is its report's own 0, not the 1e-9 floor of the slope fit
    assert run_cli(["threshold-scan", "--dim", "1", "--p", "6", "--ratios",
                    "0.02", "--sampler", "plain", "--schedule", "16,32,64",
                    "--samples", "4096", "--seed", "3",
                    "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "scan_ratio_0.02.csv").read_text().splitlines()[1:] \
        == ["16,4096,-inf,0,0", "32,4096,-inf,0,0", "64,4096,-inf,0,0"]


def test_scan_says_when_no_sample_is_inside_a_cutoff(tmp_path, capsys):
    # 0.02 and a noisy scan both read inconclusive with a nan slope in
    # verdicts.csv; the printed line of the empty cutoff says why
    assert run_cli(["threshold-scan", "--dim", "1", "--p", "6", "--ratios",
                    "0.02,0.5", "--sampler", "plain", "--schedule",
                    "16,32,64", "--samples", "4096", "--seed", "3",
                    "--out-dir", str(tmp_path)]) == 0
    empty, filled = capsys.readouterr().out.splitlines()
    assert empty.startswith("ratio 0.02 ")
    assert empty.endswith("verdict=inconclusive "
                          "(no sample inside the cutoff at any N)")
    assert filled.startswith("ratio 0.5 ")
    assert "no sample" not in filled and "(slope " in filled
    verdicts = (tmp_path / "verdicts.csv").read_text().splitlines()
    assert verdicts[1].split(",")[2:] == ["inconclusive", "nan", "nan"]


@pytest.mark.parametrize("dim, p", [(1, 6), (2, 4)])
def test_scan_rows_are_their_partition_commands(tmp_path, dim, p):
    # each row of a scan is the report that partition writes for its N and
    # cutoff with the same samples, seed and sampler; the cutoff is passed
    # as the repr of ratio times the critical mass, so it keeps every bit
    common = ["--dim", str(dim), "--p", str(p), "--samples", "2048",
              "--seed", "3", "--sampler", "soliton"]
    scan = tmp_path / "scan"
    assert run_cli(["threshold-scan", *common, "--ratios", "0.5,1.5",
                    "--schedule", "16,32", "--out-dir", str(scan)]) == 0
    sidecar = json.loads((scan / "threshold_scan.config.json").read_text())
    mass = sidecar["options"]["critical_mass"]
    for ratio in ("0.5", "1.5"):
        rows = (scan / f"scan_ratio_{ratio}.csv").read_text().splitlines()
        assert len(rows) == 3
        for row in rows[1:]:
            n = row.split(",")[0]
            out = tmp_path / f"partition_{ratio}_{n}"
            assert run_cli(["partition", *common, "--n-modes", n,
                            "--cutoff", repr(float(ratio) * mass),
                            "--out-dir", str(out)]) == 0
            rep = json.loads((out / "partition.json").read_text())
            assert row == (f"{rep['n_modes']},{rep['n_samples']},"
                           f"{rep['log_estimate']:.12g},"
                           f"{rep['log_std_error']:.12g},"
                           f"{rep['fraction_inside_cutoff']:.12g}")


def test_tail_scan_outputs_sorted_and_rerunnable(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    args = ["tail-scan", "--dim", "1", "--p", "6", "--n-modes", "64",
            "--samples", "5000", "--seed", "5", "--k-list", "3,4",
            "--lambdas", "0.5,1.0,1.5", "--bernstein-trials", "1000"]
    assert run_cli(args + ["--out-dir", str(out1)]) == 0
    assert run_cli(args + ["--out-dir", str(out2)]) == 0
    c1 = (out1 / "high_freq_tail_k3.csv").read_bytes()
    c2 = (out2 / "high_freq_tail_k3.csv").read_bytes()
    assert c1 == c2                       # identical bytes on rerun
    header, *lines = c1.decode().splitlines()
    assert header == "level,empirical,err,theoretical,valid_flag"
    assert len(lines) == 3                # one row per level
    levels = [float(l.split(",")[0]) for l in lines]
    assert levels == sorted(levels)
    # theoretical column dominates the empirical one wherever it is defined
    for line in lines:
        _, emp, err, theo, _ = line.split(",")
        if theo:
            assert float(emp) <= float(theo) + 3 * float(err)


def test_tail_scan_2d_takes_level_zero(tmp_path):
    # in dim 2 level 0 is the whole spectrum, a valid window
    out = tmp_path / "t"
    assert run_cli(["tail-scan", "--dim", "2", "--p", "4", "--n-modes", "32",
                    "--samples", "500", "--k-list", "0", "--lambdas", "0.5",
                    "--out-dir", str(out)]) == 0
    assert (out / "block_tail_k0.csv").is_file()


@pytest.mark.parametrize("args, name", [
    (["--dim", "1", "--bernstein-trials", "500"], "high_freq_tail_k3.csv"),
    (["--dim", "2", "--p", "4"], "block_tail_k3.csv")])
def test_tail_scan_bounds_a_level_whose_square_overflows(tmp_path, args,
                                                         name):
    # the smallest bound, exp(-745) per summed term, and valid
    assert run_cli(["tail-scan", *args, "--lambdas", "0.5,1e200", "--k-list",
                    "3", "--n-modes", "32", "--samples", "2000",
                    "--out-dir", str(tmp_path)]) == 0
    level, _, _, bound, valid = \
        (tmp_path / name).read_text().splitlines()[-1].split(",")
    assert level == "1e+200" and 0 < float(bound) < 1e-320 and valid == "1"


# sha256 of every file of two toy tail scans, taken while the bound
# functions still returned their whole records; the levels run from clamped
# through invalid to valid bounds
TAIL_SCAN_GOLDEN = {
    "1d": (["--dim", "1", "--n-modes", "32", "--samples", "2000",
            "--bernstein-trials", "500", "--k-list", "3,4",
            "--lambdas", "0.1,0.2,5,20,50", "--seed", "3"], {
        "high_freq_tail_k3.csv":
            "033380b2079e6cdff417df46ea46fd4757bb6c77c2f18c63f9e7f93d9128340a",
        "high_freq_tail_k4.csv":
            "f86045d5827d2b58c50c097bad3656bab43cc455779a193a1f17cc9e354eb61d",
        "tail_scan.config.json":
            "a637fa88981afd071f68b9f88ed13c8ae380b5bdce2d8cb8ee941ec3329c6cea"}),
    "2d": (["--dim", "2", "--p", "4", "--n-modes", "32", "--samples", "2000",
            "--k-list", "2,3", "--lambdas", "0.25,0.5,1,2,4", "--seed", "3"], {
        "block_tail_k2.csv":
            "27697f92bf130facfb7089b85682d4fcccdd5f3852a1a5cd7bd45a318f2ebff9",
        "block_tail_k3.csv":
            "2cadadcc31d13e1d6dfc38c2761627015b8fd5008e2d11a7485d7bce2a36f3dc",
        "tail_scan.config.json":
            "11e5cea856632baa012cb0827d926fa46012f15073061c98024176185e17a86b"}),
}


@pytest.mark.parametrize("name", sorted(TAIL_SCAN_GOLDEN))
def test_tail_scan_outputs_golden(tmp_path, name):
    args, digests = TAIL_SCAN_GOLDEN[name]
    assert run_cli(["tail-scan", *args, "--out-dir", str(tmp_path)]) == 0
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()} == digests


# sha256 of every file each command writes, taken before the result
# classes lost their own writers: both ground-state dimensions, the zero
# table, a partition estimate with a finite, an infinite and a calibration
# cutoff and one whose estimate and error are inf, and toy 1D and 2D
# threshold scans; the 1D scan's verdicts and sidecar were re-pinned when
# its refused ratio 0 was dropped, and the 2D scan's ratio 1.5 file when
# its N = 16 level stopped running on the N = 32 basis
_PARTITION = ["partition", "--dim", "1", "--p", "6", "--n-modes", "16",
              "--samples", "5000", "--seed", "7"]
OUTPUT_GOLDEN = {
    "ground-state-1d": (["ground-state", "--dim", "1", "--p", "6"], {
        "profile.csv":
            "03b9e130fbc84172848d857368d70031830cfaa546ae296c2ddab1d8fa4baff4",
        "summary.json":
            "2f13080b5a061d4916a635408d8a6310f518810b762fd5ca2ecc3edc741091a9"}),
    "ground-state-2d": (["ground-state", "--dim", "2", "--p", "4"], {
        "profile.csv":
            "d32064a2a0eed281f0844ab95fda12ebe950238fa701725cf431901ffa1a200f",
        "summary.json":
            "084de6984a4fe16f2c5b6dca1d4af4bd2a5d6fa392332827f384987a08b85872"}),
    "bessel-table": (["bessel-table", "--count", "40"], {
        "bessel_table.config.json":
            "62e935665786363429159d999ec9f4be42972b7fdf618daf9d08a7775dacaebe",
        "bessel_zeros.csv":
            "9e1b16b9f17003ca87f4acea90c4954cb5b9564b21dc211161165035b48f107f"}),
    "partition-cutoff": (_PARTITION + ["--cutoff", "1.0"], {
        "partition.json":
            "a930e4f2f494c56b7ef5df60137d0de347a894af339e7750f1f0640ad63a6a6d"}),
    "partition-no-cutoff": (_PARTITION + ["--cutoff", "inf"], {
        "partition.json":
            "4edb252c72251ba6d5e56c23db1beb25ff02c120248aeaf45da27b4635ed2560"}),
    "partition-calibration": (_PARTITION + ["--cutoff", "1.0",
                                            "--calibration"], {
        "partition.json":
            "ce96d843627cb5365dcff9d375cad89bedade13d6237bc850760a00f0cd6465e"}),
    "partition-infinite-estimate": (["partition", "--dim", "1", "--p", "6",
                                     "--ratio", "3", "--n-modes", "64",
                                     "--samples", "8192", "--sampler",
                                     "soliton", "--seed", "2"], {
        "partition.json":
            "c7d45f6a9930e987853a2472bcc2077682ab5330a52daee287560b3e7b174024"}),
    "threshold-scan-1d": (["threshold-scan", "--dim", "1", "--p", "6",
                           "--ratios", "0.5,1.5", "--schedule", "16,32",
                           "--samples", "4096", "--seed", "3"], {
        "scan_ratio_0.5.csv":
            "aabae84c775eef295c8d62cc9e9434f4c6d64773000973b34504a44ec27736b1",
        "scan_ratio_1.5.csv":
            "cff9d74b08340604ad267d84e58d0c2a6c339011abf2705c23c762139891fa56",
        "threshold_scan.config.json":
            "8bfc3af30ceae82d2188ddd9776e0e3de1a9081ca6d0ba8a07d07e2181149e00",
        "verdicts.csv":
            "ab7f2bcf8557f7b69bb6aeada207b78865973eb772fc5ca63ddfd7192fc45afd"}),
    "threshold-scan-2d": (["threshold-scan", "--dim", "2", "--p", "4",
                           "--ratios", "0.5,1.5", "--schedule", "16,32",
                           "--samples", "2048", "--seed", "3"], {
        "scan_ratio_0.5.csv":
            "7fc16dbcbcb81be23f9d48b5d488bd398f76743a66b8e14fc27a5dd736105ba9",
        "scan_ratio_1.5.csv":
            "a46174eca607285e79b4cee29ad8b6a2a073246c14d45d4ee6600e0bcf300b56",
        "threshold_scan.config.json":
            "2ace4ac54e136af25aa38287c393a93da974c62633c3d2f29d98710ee2eac99e",
        "verdicts.csv":
            "7a13d17f7c4041fe4337c9534c50abd7400942cde22cc47e7a37ab2623337b38"}),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_GOLDEN))
def test_command_outputs_golden(tmp_path, name):
    args, digests = OUTPUT_GOLDEN[name]
    assert run_cli([*args, "--out-dir", str(tmp_path)]) == 0
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()} == digests


# ------------------------------------------------------- the process entry
# python -m gibbslab.cli and the installed gibbslab script run cli.run,
# which freezes the heap before it exits with main's status

def test_module_entry_writes_the_golden_bytes(tmp_path):
    # a frozen exit must not cut a file short
    args, digests = OUTPUT_GOLDEN["threshold-scan-2d"]
    proc = run_python(["-m", "gibbslab.cli", *args,
                       "--out-dir", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()} == digests


@pytest.mark.parametrize("args, status", [
    (["bessel-table", "--count", "3", "--out-dir", "out"], 0),
    (["verify", "--inject-fault", "j1-normalization"], 1),
    (["bessel-table", "--count", "0", "--out-dir", "out"], 2)],
    ids=["ok", "failed-check", "domain-error"])
def test_module_entry_runs_atexit_handlers_and_keeps_the_status(
        tmp_path, args, status):
    code = """
import atexit, runpy
atexit.register(print, "atexit handler ran")
runpy.run_module("gibbslab.cli", run_name="__main__")
"""
    proc = run_python(["-c", code, *args], cwd=tmp_path)
    assert proc.returncode == status, proc.stderr
    assert proc.stdout.splitlines()[-1] == "atexit handler ran"


def test_in_process_main_leaves_the_heap_unfrozen(tmp_path):
    before = gc.get_freeze_count()
    assert main(["bessel-table", "--count", "3",
                 "--out-dir", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


def test_installed_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    import ast
    import importlib

    from gibbslab import cli

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    module, _, name = project["scripts"]["gibbslab"].partition(":")
    script = getattr(importlib.import_module(module), name)
    # the one call of cli.py's `if __name__ == "__main__":` block
    block, = [node for node in ast.parse(Path(cli.__file__).read_text()).body
              if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    stmt, = block.body
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
    assert not stmt.value.args and not stmt.value.keywords
    assert script is getattr(cli, stmt.value.func.id)


def test_json_outputs_write_non_finite_floats_as_strings(tmp_path):
    # an infinite ratio inside the sidecar's list was written as the
    # non-standard JSON token Infinity
    assert run_cli(["threshold-scan", "--ratios", "0.5,inf", "--sampler",
                    "plain", "--schedule", "16,32", "--samples", "2048",
                    "--out-dir", str(tmp_path)]) == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    sidecar = json.loads((tmp_path / "threshold_scan.config.json").read_text(),
                         parse_constant=refuse)
    assert sidecar["options"]["ratios"] == [0.5, "inf"]


def test_config_file_precedence(tmp_path):
    cfgfile = tmp_path / "opts.cfg"
    cfgfile.write_text("count = 25\n")
    out = tmp_path / "bt"
    # file value overrides the default, CLI overrides the file
    assert run_cli(["bessel-table", "--config", str(cfgfile),
                    "--out-dir", str(out)]) == 0
    assert len((out / "bessel_zeros.csv").read_text().splitlines()) == 26
    out2 = tmp_path / "bt2"
    assert run_cli(["bessel-table", "--config", str(cfgfile), "--count", "10",
                    "--out-dir", str(out2)]) == 0
    assert len((out2 / "bessel_zeros.csv").read_text().splitlines()) == 11


def test_config_file_and_flags_give_identical_outputs(tmp_path):
    opts = {"dim": "1", "p": "6", "n-modes": "32", "samples": "2000",
            "seed": "5", "k-list": "3,4", "lambdas": "0.5,1.0",
            "bernstein-trials": "500"}
    cfgfile = tmp_path / "opts.cfg"
    cfgfile.write_text("".join(f"{k.replace('-', '_')} = {v}\n"
                               for k, v in opts.items()))
    flags = [a for k, v in opts.items() for a in (f"--{k}", v)]
    by_flag, by_file = tmp_path / "flags", tmp_path / "file"
    assert run_cli(["tail-scan", *flags, "--out-dir", str(by_flag)]) == 0
    assert run_cli(["tail-scan", "--config", str(cfgfile),
                    "--out-dir", str(by_file)]) == 0
    names = sorted(f.name for f in by_flag.iterdir())
    assert names == sorted(f.name for f in by_file.iterdir())
    for name in names:
        assert (by_flag / name).read_bytes() == (by_file / name).read_bytes()


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "opts.cfg"
    cfgfile.write_text("banana = 1\n")
    assert run_cli(["bessel-table", "--config", str(cfgfile),
                    "--out-dir", str(tmp_path / "x")]) == 2


def test_partition_ratio_path(tmp_path):
    out = tmp_path / "pr"
    assert run_cli(["partition", "--dim", "1", "--p", "6", "--ratio", "0.5",
                    "--n-modes", "16", "--samples", "2000", "--seed", "1",
                    "--out-dir", str(out)]) == 0
    rec = json.loads((out / "partition.json").read_text())
    assert 1.16 < float(rec["config"]["cutoff"]) < 1.17


def _junit_report(tmp_path, results):
    from gibbslab.cli import _write_junit

    path = tmp_path / "report" / "verify.xml"
    _write_junit(path, results)
    return path.read_text()


def test_verify_junit_report(tmp_path):
    from gibbslab.verify import CheckResult

    results = [CheckResult("alpha", True, "fine", 0.1),
               CheckResult("beta", False, "broke < badly >", 0.2)]
    xml = _junit_report(tmp_path, results)
    assert 'tests="2"' in xml and 'failures="1"' in xml
    assert "&lt; badly &gt;" in xml
    # every check, passing or failing, carries its measured string
    cases = ElementTree.fromstring(xml.encode()).findall("testcase")
    assert [c.findtext("system-out") for c in cases] == [
        "fine", "broke < badly >"]
    assert [c.find("failure") is None for c in cases] == [True, False]
    # a quote or a newline in a failure message stays well-formed XML
    measured = ['raised KeyError: "a"', "first line\nsecond line"]
    xml = _junit_report(tmp_path, [CheckResult(f"c{i}", False, m, 0.1)
                                   for i, m in enumerate(measured)])
    cases = ElementTree.fromstring(xml.encode()).findall("testcase")
    assert [c.find("failure").get("message") for c in cases] == measured
    assert [c.findtext("system-out") for c in cases] == measured


def test_verify_command_reports_an_injected_fault(tmp_path, capsys):
    path = tmp_path / "verify.xml"
    assert main(["verify", "--inject-fault", "j1-normalization",
                 "--junit", str(path)]) == 1
    suite = ElementTree.parse(path).getroot()
    failed = {c.get("name") for c in suite.iter("testcase")
              if c.find("failure") is not None}
    assert "gradient-parseval-2d" in failed
    assert suite.get("failures") == str(len(failed))
    assert "FAIL  gradient-parseval-2d" in capsys.readouterr().out


# sha256 of verify's "name measured" lines, one per check, with the run time
# of ground-state-1d and the quadrature defect of mgf-identity masked; taken
# before the chi-square-law corpus was streamed and the samplers sliced
VERIFY_REPORT_SHA256 = \
    "a2d875d03a1bf1748509f9792fe5dc3501bb0f20034e01f9eccfe186b61cf748"


def test_verify_report_golden():
    from gibbslab import verify

    lines = []
    for r in verify.run_all():
        measured = r.measured
        if r.name == "ground-state-1d":
            measured = re.sub(r", \d+\.\d+s$", ", <t>", measured)
        if r.name == "mgf-identity":
            measured = re.sub(r"quadrature defect \S+$",
                              "quadrature defect <d>", measured)
        lines.append(f"{r.name} {measured}")
    assert len(lines) == 24
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == VERIFY_REPORT_SHA256, "\n".join(lines)


def test_commands_write_only_inside_out_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only_here"
    run_cli(["ground-state", "--dim", "1", "--p", "4", "--out-dir", str(out)])
    assert list(workdir.iterdir()) == []
    assert (out / "summary.json").exists()


def test_only_the_cli_writes_files():
    # every output file's format lives in cli.py: no other module of the
    # package imports csv, json or xml, opens a file or makes a directory
    import ast

    found = []
    for path in sorted((ROOT / "src" / "gibbslab").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found += [f"{where} imports {m}" for m in modules
                      if m.split(".")[0] in ("csv", "json", "xml")]
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name in ("open", "write_text", "write_bytes", "mkdir"):
                    found.append(f"{where} calls {name}")
    assert found == []


def test_argument_checks_live_in_core():
    # what counts as an integer, a real or a valid p is decided in _core
    # alone: no other module imports numbers, and the modules below gibbs
    # import gibbs nowhere, at module level or inside a function
    import ast

    below_gibbs = ("tails", "radial2d", "spectral1d", "bessel", "rng",
                   "groundstate")
    found = []
    for path in sorted((ROOT / "src" / "gibbslab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # "from . import gibbs" names the module as an alias
                base = ("gibbslab." if node.level else "") \
                    + (node.module or "")
                base = base.rstrip(".")
                modules = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            if path.name != "_core.py":
                found += [f"{where} imports numbers" for m in modules
                          if m.split(".")[0] == "numbers"]
            if path.stem in below_gibbs:
                found += [f"{where} imports gibbs" for m in modules
                          if m == "gibbslab.gibbs"]
    assert found == []


def test_no_public_gibbs_function_takes_a_basis():
    # every 2D estimate builds the disc basis of its own N; a basis handed
    # in from outside could run a level on another N's quadrature
    import inspect

    from gibbslab import gibbs

    takes = [name for name, fn in vars(gibbs).items()
             if inspect.isfunction(fn) and not name.startswith("_")
             and fn.__module__ == gibbs.__name__
             and "basis" in inspect.signature(fn).parameters]
    assert takes == []


def test_no_disc_field_or_sampler_takes_a_bessel_table():
    # a disc field and its samplers read z_1..z_N from bessel_zeros(N); a
    # table handed in could only be refused for being too short
    import dataclasses
    import inspect

    from gibbslab import radial2d, tails
    from gibbslab.bessel import BesselTable

    def takes_table(module, allowed=()):
        return [name for name, fn in vars(module).items()
                if inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == module.__name__ and name not in allowed
                and any(q.name == "table" or q.annotation is BesselTable
                        for q in inspect.signature(fn).parameters.values())]

    assert takes_table(radial2d, ("radial_basis", "default_node_count")) == []
    assert takes_table(tails) == []
    assert "table" not in [f.name for f in
                           dataclasses.fields(radial2d.RadialField2D)]


# scipy subpackages beyond scipy.special; scipy.integrate and
# scipy.interpolate each pull in scipy.optimize, and scipy.stats all three.
# A 1D command loads no scipy at all, and a 2D command scipy.special and
# scipy.linalg only.
UNUSED_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.integrate",
                "scipy.interpolate", "scipy.linalg")


def test_cli_loads_only_the_scipy_it_runs(tmp_path):
    code = f"""
import sys

def loaded():
    return [m for m in {UNUSED_SCIPY!r} if m in sys.modules]

def any_scipy():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

import gibbslab
assert any_scipy() == [], f"on import gibbslab: {{any_scipy()}}"
import gibbslab.cli
assert any_scipy() == [], f"on import gibbslab.cli: {{any_scipy()}}"
assert gibbslab.cli.main([
    "threshold-scan", "--dim", "1", "--p", "6", "--ratios", "0.5",
    "--schedule", "16,32", "--samples", "500", "--seed", "1",
    "--out-dir", {str(tmp_path / "scan")!r}]) == 0
assert any_scipy() == [], f"after a 1D scan: {{any_scipy()}}"
assert gibbslab.cli.main([
    "ground-state", "--dim", "1", "--p", "4",
    "--out-dir", {str(tmp_path / "gs1d")!r}]) == 0
assert any_scipy() == [], f"after a 1D ground state: {{any_scipy()}}"
assert gibbslab.cli.main([
    "partition", "--dim", "1", "--p", "6", "--ratio", "0.5",
    "--n-modes", "16", "--samples", "500", "--sampler", "soliton",
    "--out-dir", {str(tmp_path / "part1d")!r}]) == 0
assert any_scipy() == [], f"after a 1D partition: {{any_scipy()}}"
assert gibbslab.cli.main([
    "tail-scan", "--dim", "1", "--n-modes", "16", "--samples", "200",
    "--bernstein-trials", "100", "--k-list", "3", "--lambdas", "0.5",
    "--out-dir", {str(tmp_path / "tail1d")!r}]) == 0
assert any_scipy() == [], f"after a 1D tail scan: {{any_scipy()}}"
assert gibbslab.cli.main([
    "partition", "--dim", "1", "--p", "6",
    "--out-dir", {str(tmp_path / "error")!r}]) == 2
assert any_scipy() == [], f"after a domain error: {{any_scipy()}}"
assert gibbslab.cli.main([
    "threshold-scan", "--dim", "2", "--p", "4", "--ratios", "0.5",
    "--schedule", "16,32", "--samples", "500", "--seed", "1",
    "--out-dir", {str(tmp_path / "scan2d")!r}]) == 0
assert loaded() == ["scipy.linalg"], f"after a 2D scan: {{loaded()}}"
assert gibbslab.cli.main([
    "ground-state", "--dim", "2", "--p", "4",
    "--out-dir", {str(tmp_path / "gs2d")!r}]) == 0
assert loaded() == ["scipy.linalg"], f"after a 2D ground state: {{loaded()}}"
from gibbslab import tails
tails.gaussian_mgf_quadrature(0.3, 1)
assert loaded() == ["scipy.linalg"], f"after the MGF quadrature: {{loaded()}}"
"""
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_binds(tmp_path):
    # perfbench/spans.py rebinds package functions by name (and the private
    # gibbs._batched); a deleted or renamed one fails it before the run
    proc = run_python(
        [str(ROOT / "perfbench" / "spans.py"), str(tmp_path / "trace.json"),
         "bessel-table", "--count", "5", "--out-dir", str(tmp_path / "out")],
        cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["calls"]["bessel.zeros"] == 1
    # it also rebinds every public function of tails, which the CLI imports
    # only when tail-scan runs; the spans must still be counted
    proc = run_python(
        [str(ROOT / "perfbench" / "spans.py"), str(tmp_path / "tails.json"),
         "tail-scan", "--dim", "1", "--n-modes", "16", "--samples", "200",
         "--bernstein-trials", "100", "--k-list", "3", "--lambdas", "0.5",
         "--out-dir", str(tmp_path / "tails")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads((tmp_path / "tails.json").read_text())["calls"]
    assert calls.get("tails.bernstein_probe") == 1
    assert calls.get("tails.high_freq_empirical_1d") == 1


# every name the package exported when all of them were imported with it,
# by the module that defines it
PACKAGE_NAMES = {
    "_core": ["BACKEND"],
    "bessel": ["BesselTable", "bessel_j0", "bessel_zeros"],
    "gibbs": ["DivergenceVerdict", "EnsembleConfig", "EstimatorReport",
              "LayerCakeResult", "constrained_tail", "divergence_scan",
              "estimate_partition", "layer_cake", "tail_curve"],
    "groundstate": ["GroundState", "disc_gns_check", "gns_functional",
                    "profile_function", "solve_ground_state"],
    "radial2d": ["DiscQuadrature", "RadialBasis", "RadialField2D",
                 "block_l4_expectation", "disc_quadrature", "evaluate_radial",
                 "grad_l2_spectral_sq", "radial_basis", "radial_lp_norm",
                 "sample_radials"],
    "rng": ["rng_for"],
    "spectral1d": ["SpectralField1D", "dyadic_project", "evaluate_coeff_rows",
                   "l2_norm_spectral", "lp_norm", "sample_loops"],
    "tails": ["DyadicSchedule", "FerniqueProbe", "TailCurve",
              "bernstein_probe", "block_norm_samples_2d", "block_tail_2d",
              "block_tail_empirical_2d", "chi2_tail_bound",
              "chi2_tail_empirical", "dyadic_schedule", "fernique_probe",
              "gaussian_mgf", "gaussian_mgf_mc", "gaussian_mgf_quadrature",
              "high_freq_empirical_1d", "high_freq_tail_bound"],
}


def test_cli_loads_only_the_modules_it_runs(tmp_path):
    # the scans, estimates and ground states never run tails or verify, and
    # one worker runs its batches without concurrent.futures (which scipy,
    # and so every 2D run, loads); the package namespace still holds every
    # name it had, tails' ones loaded on use
    code = f"""
import sys

def loaded():
    return [m for m in ("gibbslab.tails", "gibbslab.verify",
                        "concurrent.futures") if m in sys.modules
            and (m != "concurrent.futures" or "scipy" not in sys.modules)]

import gibbslab
assert loaded() == [], f"on import gibbslab: {{loaded()}}"
import gibbslab.cli
assert loaded() == [], f"on import gibbslab.cli: {{loaded()}}"
for dim, p in ((1, 6), (2, 4)):
    for args in (["threshold-scan", "--ratios", "0.5", "--schedule", "16,32",
                  "--samples", "500"],
                 ["partition", "--ratio", "0.5", "--n-modes", "16",
                  "--samples", "500", "--sampler", "soliton"],
                 ["ground-state"]):
        assert gibbslab.cli.main(args + [
            "--dim", str(dim), "--p", str(p),
            "--out-dir", {str(tmp_path)!r} + f"/{{dim}}-{{args[0]}}"]) == 0
        assert loaded() == [], f"after {{dim}}D {{args[0]}}: {{loaded()}}"
assert gibbslab.cli.main([
    "tail-scan", "--dim", "1", "--n-modes", "16", "--samples", "200",
    "--bernstein-trials", "100", "--k-list", "3", "--lambdas", "0.5",
    "--out-dir", {str(tmp_path / "tail1d")!r}]) == 0
assert loaded() == ["gibbslab.tails"], f"after a tail scan: {{loaded()}}"
import importlib
for module, names in {PACKAGE_NAMES!r}.items():
    mod = importlib.import_module("gibbslab." + module)
    for name in names:
        assert getattr(gibbslab, name) is getattr(mod, name), name
assert "gibbslab.verify" not in sys.modules
"""
    env = {**os.environ, "GIBBSLAB_WORKERS": "1"}
    proc = run_python(["-c", code], env=env)
    assert proc.returncode == 0, proc.stderr


def test_inject_fault_choices_are_verify_faults():
    from gibbslab import cli, verify

    assert cli._FAULTS == verify.FAULTS
    proc = run_python(["-m", "gibbslab.cli", "verify", "--inject-fault",
                       "no-such-fault"])
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_benchmark_tracer_targets_exist():
    # every function the tracer binds by name, read from perfbench/spans.py
    # without running it; the traced benchmark is the only other caller that
    # would notice one go
    import importlib
    import importlib.util

    import gibbslab
    from gibbslab import gibbs

    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{name}" for mod, names in spans._PUBLIC.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"gibbslab.{mod}"), name, None))]
    assert missing == []
    assert callable(gibbs._batched)
    assert isinstance(gibbslab.BACKEND, str)      # perfbench's setup probe


# the worker pool and BLAS thread settings of the thread table: one worker
# with BLAS threads unset, two workers with one BLAS thread, two workers
# with BLAS threads unset
THREAD_SETTINGS = {"1-worker": ("1", None), "2-workers-1-blas": ("2", "1"),
                   "2-workers": ("2", None)}
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")


def test_scans_are_byte_identical_across_thread_settings(tmp_path):
    # toy 1D and 2D soliton scans, two batches per N so that two workers
    # share them, and verify, each thread setting in a fresh interpreter;
    # the schedule 16,24,40 puts the levels' slices across each other's in
    # the one pass of a scan
    code = """
import sys
from gibbslab.cli import main
for dim, p in ((1, 6), (2, 4)):
    for schedule in ("16,32", "16,24,40"):
        assert main(["threshold-scan", "--dim", str(dim), "--p", str(p),
                     "--ratios", "0.5,1.5", "--schedule", schedule,
                     "--samples", "8192", "--seed", "3",
                     "--out-dir", f"{sys.argv[1]}/{dim}d-{schedule}"]) == 0
assert main(["verify"]) == 0
"""
    outputs = {}
    for name, (workers, blas) in THREAD_SETTINGS.items():
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
        env.update(GIBBSLAB_WORKERS=workers)
        if blas is not None:
            env.update(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        proc = run_python(["-c", code, str(tmp_path / name)], env=env)
        assert proc.returncode == 0, proc.stderr
        outputs[name] = {str(f.relative_to(tmp_path / name)): f.read_bytes()
                         for f in sorted((tmp_path / name).rglob("*"))
                         if f.is_file()}
        # the scans print their verdicts, and ground-state-1d of verify
        # its own run time, which is masked
        outputs[name]["stdout"] = re.sub(r"\d+\.\d+s$", "<t>", proc.stdout,
                                         flags=re.M)
    # per dim and schedule two scan files, the verdicts and the sidecar
    assert len(outputs["1-worker"]) == 2 * 2 * 4 + 1
    assert "24/24 checks passed" in outputs["1-worker"]["stdout"]
    for name in THREAD_SETTINGS:
        assert outputs[name] == outputs["1-worker"], name
