"""Tiny-size smoke run of the benchmark.

    python3 perfbench/smoke.py [--workload NAME ...] [--seconds 2]

For every workload in BENCHMARK.json (or the ones named), runs ``run.py`` at
a tiny size with ``--trace 0`` and ``--trace 1`` and checks that the last
line has exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; that every metric BENCHMARK.json names is printed with its
unit, and no other; that the run is correct with ``failed_frac`` 0.  Then
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def check_run(spec: dict, workload: str, trace: int, seconds: int) -> list[str]:
    cmd = [*spec["command"], "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: not correct: {[l for l in lines if l.startswith('failure')]}")
    if result.get("failed") != 0 or not any(l.startswith("failed_frac 0.0000 ") for l in lines):
        problems.append(f"{where}: failed_frac is not 0")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        problems.append(f"{where}: metric names or units differ: {diff}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return problems


def check_bare(spec: dict) -> list[str]:
    """The benchmark must fail, printing no result, without the sources."""
    bare = Path(".perfbench_out") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=200)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark ran without the sources"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            found = check_run(spec, workload, trace, args.seconds)
            print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
            problems += found
    problems += check_bare(spec)
    print(f"bare directory: {'FAIL' if problems and problems[-1].startswith('bare') else 'ok'}")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
