#!/usr/bin/env python3
"""Self-test of the survey benchmark.

Runs every workload named in BENCHMARK.json on a tiny web, untraced and
traced, and fails unless each run exits 0, every output check passes, the
result line has exactly the contract's keys, every metric BENCHMARK.json
names is printed with its unit, and the run record carries the seed, thread
count, core count, commit and rustc version.

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RECORD_KEYS = {"seed", "nproc", "git_commit", "rustc", "shape"}


def check_run(bench, workload, trace):
    key = "per_layer" if trace else "end_to_end"
    argv = bench["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    problems = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        problems.append(f"exit status {proc.returncode}: {proc.stderr.strip()[-500:]}")
    if len(lines) < 2:
        return problems + ["expected a run record and a result line on stdout"]
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"output checks failed: {record.get('problems')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in bench[key]}
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: {m!r}, expected a number in {unit}")
    missing = RECORD_KEYS - set(record)
    if missing:
        problems.append(f"run record lacks {sorted(missing)}")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failed = False
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(bench, w["name"], trace)
            status = "ok" if not problems else "FAILED"
            print(f"{w['name']:20s} trace={trace}  {status}", flush=True)
            for p in problems:
                print(f"    {p}")
            failed |= bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
