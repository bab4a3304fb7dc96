#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

    python3 perfbench/smoke_test.py

For every workload, runs ``run.py --tiny`` with ``--trace 0`` and
``--trace 1`` at a seed other than the pinned one, and checks that the run
succeeds, that every metric BENCHMARK.json declares prints with its unit
(and no other), that the traced digests equal the untraced ones, and that
they equal the digests of the files the ``obstaclesim`` command writes for
the same config and seed. Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SEED = 7

sys.path[:0] = [SRC, BENCH]
import workloads  # noqa: E402


def run(workload: str, trace: int):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    digests = {}
    printed = {}
    for line in lines[:-1]:
        kind, *rest = line.split(" ")
        if kind == "digest":
            digests[rest[1]] = rest[2]
        elif kind == "metric":
            printed[rest[0]] = rest[2]
    return result, digests, printed


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for name in workloads.WORKLOADS:
        want_digests = workloads.cli_digests(
            workloads.WORKLOADS[name].tiny(), SEED,
            os.path.join(ROOT, ".perfbench_out", "smoke"), SRC)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, digests, printed = run(name, trace)
            units = {m["name"]: m["unit"] for m in bench[section]}
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert {n: m["unit"] for n, m in result["metrics"].items()} == units, name
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()), result
            assert {n: u for n, u in printed.items() if n != "error_rate"} == units, name
            assert printed["error_rate"] == "ratio", printed
            assert digests == want_digests, (name, trace, digests, want_digests)
            print(f"ok {name} trace={trace}: {len(units)} metrics, digests match the CLI")
    return 0


if __name__ == "__main__":
    sys.exit(main())
