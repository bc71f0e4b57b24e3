"""Command-line behavior: files, determinism, config precedence, verify."""
import json
import math
import os
import subprocess
import sys

import pytest

from gibbslab.cli import main


def run_cli(args):
    return main(args)


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
    proc = subprocess.run(
        [sys.executable, "-m", "gibbslab.cli", "ground-state",
         "--dim", "1", "--p", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


# config files the error cases below name; missing.cfg is never written
CONFIGS = {"bad-p.cfg": "p = 5\n", "malformed.cfg": "count 25\n",
           "unknown-key.cfg": "banana = 1\n"}


@pytest.mark.parametrize("args, workers, message", [
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
])
def test_domain_errors_exit_2_with_one_line(tmp_path, args, workers,
                                            message):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    proc = subprocess.run(
        [sys.executable, "-m", "gibbslab.cli", *args,
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True,
        env={**os.environ, "GIBBSLAB_WORKERS": workers})
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert message in proc.stderr


def test_bessel_table_command(tmp_path):
    out = tmp_path / "bt"
    assert run_cli(["bessel-table", "--count", "30",
                    "--out-dir", str(out)]) == 0
    lines = (out / "bessel_zeros.csv").read_text().splitlines()
    assert len(lines) == 31
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
    lines = c1.decode().splitlines()[1:]
    levels = [float(l.split(",")[0]) for l in lines]
    assert levels == sorted(levels)
    # theoretical column dominates the empirical one wherever it is defined
    for line in lines:
        _, emp, err, theo, _ = line.split(",")
        if theo:
            assert float(emp) <= float(theo) + 3 * float(err)


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


def test_verify_junit_report(tmp_path):
    from gibbslab.verify import CheckResult, junit_xml

    results = [CheckResult("alpha", True, "fine", 0.1),
               CheckResult("beta", False, "broke < badly >", 0.2)]
    xml = junit_xml(results)
    assert 'tests="2"' in xml and 'failures="1"' in xml
    assert "&lt; badly &gt;" in xml


def test_commands_write_only_inside_out_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only_here"
    run_cli(["ground-state", "--dim", "1", "--p", "4", "--out-dir", str(out)])
    assert list(workdir.iterdir()) == []
    assert (out / "summary.json").exists()
