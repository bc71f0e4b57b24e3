"""Harness self-test at toy size.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload untraced and traced at
toy size (scan schedule 16,32,64 with 8192 samples; verify is pinned by its
suite) and checks that each metric in BENCHMARK.json is printed with its
unit for each workload, that error_rate is 0 and that the result is correct.
Exits 1 with the list of problems otherwise.
"""
import json
import re
import subprocess
import sys
from pathlib import Path


def problems_in(trace, bench):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed",
         "1", "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"trace {trace}: {result['failed']} of "
                        f"{result['attempted']} operations failed")
    declared = bench["per_layer" if trace else "end_to_end"]
    for workload in (w["name"] for w in bench["workloads"]):
        for m in declared:
            line = re.compile(rf"metric {re.escape(workload)} "
                              rf"{re.escape(m['name'])} \S+ "
                              rf"{re.escape(m['unit'])}( |$)")
            printed = result["metrics"].get(f"{workload}.{m['name']}", {})
            if not any(line.match(ln) for ln in lines) or \
                    printed.get("unit") != m["unit"]:
                problems.append(f"trace {trace}: {workload} {m['name']} "
                                f"not printed with unit {m['unit']}")
        if f"metric {workload} error_rate 0 ratio" not in proc.stdout:
            problems.append(f"trace {trace}: {workload} error_rate is not 0")
    return problems


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    problems = problems_in(0, bench) + problems_in(1, bench)
    for p in problems:
        print(p)
    print("selftest " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
