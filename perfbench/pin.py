#!/usr/bin/env python3
"""Write digests.json: the full-size digests of the first chunks at the pinned seed.

    python3 perfbench/pin.py

The digests come from files the ``obstaclesim`` command itself writes
(``records.csv`` per sweep cell, ``ordering.csv``), run in fresh processes,
so ``run.py`` at the pinned seed checks its in-process outputs against the
CLI's. Re-pin only for a change that alters records on purpose.
"""
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

sys.path[:0] = [SRC, BENCH]
import workloads  # noqa: E402


def main() -> int:
    pins = {
        name: workloads.cli_digests(w, workloads.PINNED_SEED,
                                    os.path.join(ROOT, ".perfbench_out", "pin"), SRC,
                                    chunks=workloads.PINNED_CHUNKS)
        for name, w in workloads.WORKLOADS.items()
    }
    with open(os.path.join(BENCH, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
