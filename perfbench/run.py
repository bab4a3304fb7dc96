#!/usr/bin/env python3
"""obstaclesim benchmark: one workload, one process, ``--jobs 1``, closed loop.

    python3 perfbench/run.py --workload sweep-uniform --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. After an untimed warm-up, a workload runs in passes (see
workloads.py) until the next pass would end after ``--seconds``; at least
one pass runs (exactly one with ``--tiny``). Sweep passes are successive
chunks of new scenes, so a run pools the latencies of many distinct
replications.

``--trace 0`` reports the end-to-end metrics: setup time (median over fresh
processes), replications per second of the timed phase, per-replication
latency at p50 and p90 over every replication of the run, and peak RSS.
Every time is taken at the reference machine speed: a fixed kernel
(calib.py) samples the machine's speed during each measurement, and the
measured time is divided by how much slower than its reference the kernel
ran there. The raw figures are printed as ``info raw``.
``--trace 1`` alternates untraced and traced passes of chunk 0, the traced
ones recording spans around the calls into each module (spans.py), and
reports the per-layer metrics plus ``trace.overhead``: the median traced
pass over the median untraced pass, minus 1.

Human-readable lines come first: the manifest, the digests, each metric
with its unit and ``error_rate``. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Any failed output check makes the exit code 1. The full result
and, when traced, the spans are written under ``.perfbench_out/``.
"""
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "obstaclesim", "__init__.py")):
    _fail(f"no obstaclesim sources under {SRC}; run from a source checkout")
sys.path.insert(0, SRC)

import numpy  # noqa: E402

import obstaclesim  # noqa: E402
from obstaclesim import (  # noqa: E402
    RngStream,
    StraussParams,
    StraussPlacement,
    geometry,
    sample_strauss,
    stream_index,
)

if not os.path.abspath(obstaclesim.__file__).startswith(SRC + os.sep):
    _fail(f"imported obstaclesim from {obstaclesim.__file__}, not from {SRC}")

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    """One digest over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "obstaclesim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def manifest(wl, args) -> dict:
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "params": wl.params(),
        "rationale": wl.rationale(),
    }


SETUP_CHILD = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import obstaclesim
from workloads import warm_up
warm_up({grid!r})
print("ready", flush=True)
"""


def measure_setup(repeats: int) -> tuple:
    """Wall times from starting a fresh interpreter until it is ready to
    replicate, and the same at the reference speed, which the speedometer
    samples in this process while it waits for the child."""
    code = SETUP_CHILD.format(src=SRC, bench=BENCH, grid=workloads.GRID)
    times, normalized = [], []
    meter = calib.Speedometer()
    meter.start()
    try:
        for _ in range(repeats):
            first = meter.mark()[0]
            elapsed = _setup_once(code)
            times.append(elapsed)
            normalized.append(elapsed / meter.speed_between(first, meter.mark()[0]))
    finally:
        meter.stop()
    return times, normalized


def _setup_once(code: str) -> float:
    """Wall time from starting one fresh interpreter until it prints ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=120)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"setup process exited {rc} without becoming ready")
    return elapsed


def check_digests(wl, args, passes, failures: list) -> dict:
    """A label's digest must repeat on every pass that has it, and match its
    pin at the pinned seed; chunk 0 always runs, so some pins are checked."""
    digests: dict = {}
    for k, p in enumerate(passes):
        for label, digest in p.digests.items():
            if digests.setdefault(label, digest) != digest:
                failures.append(f"pass {k} digest {label} differs from an earlier pass")
    if args.seed == workloads.PINNED_SEED and not args.tiny:
        with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)[wl.name]
        for label, got in digests.items():
            if label in pinned and got != pinned[label]:
                failures.append(f"digest {label}: {got} != pinned {pinned[label]}")
        if not set(pinned) & set(digests):
            failures.append("no digest of this run is pinned")
    return digests


def quantile(samples: list, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_run(wl, args) -> tuple:
    """Passes over successive chunks; every replication is one latency sample.

    Pooling many distinct replications averages out what one scene costs
    more than another, and the speedometer takes out the swings in speed of
    a shared machine, so the figures repeat across runs and seeds.
    """
    passes = []
    meter = calib.Speedometer()
    start = time.perf_counter()
    meter.start()
    try:
        while True:
            p = wl.run_pass(args.seed, OUT, chunk=len(passes), meter=meter)
            passes.append(p)
            if args.tiny or time.perf_counter() - start + p.wall_s > args.seconds:
                break
    finally:
        meter.stop()
    lat_s, units, speeds = [], [], []
    for p in passes:
        if not p.latencies_s:  # a failed pass; its failures are reported
            continue
        lat_s += p.latencies_s
        units += [p.units / len(p.latencies_s)] * len(p.latencies_s)
        speeds += [meter.speed_between(a, b) for a, b in p.ticks]
    norm_ms = [x / f * 1e3 for x, f in zip(lat_s, speeds)]
    lat_ms = [x * 1e3 for x in lat_s]

    def figures(ms: list) -> dict:
        if not ms:
            return {"reps_per_s": 0.0, "rep_ms_p50": 0.0, "rep_ms_p90": 0.0}
        busy_s = sum(x * u for x, u in zip(ms, units)) / 1e3
        return {"reps_per_s": sum(units) / busy_s,
                "rep_ms_p50": statistics.median(ms),
                "rep_ms_p90": quantile(ms, 90)}

    info = {
        "passes": len(passes),
        "latency_samples": len(lat_ms),
        "raw": figures(lat_ms),
        "speed_p10_p50_p90": (statistics.quantiles(speeds, n=10, method="inclusive")
                              [::4] if len(speeds) > 1 else speeds),
    }
    return passes, figures(norm_ms), info


def traced_run(wl, args) -> tuple:
    """Untraced and traced passes in turn, until the next pair would overrun."""
    tracer = spans.Tracer()
    for _ in range(3):
        tracer.call("geometry.build_lattice", geometry.build_lattice, *workloads.GRID)

    def call(fn, argv):
        return tracer.call("cli.main", fn, argv, starts_rep=True)

    # Every pass runs chunk 0, so the exact counts repeat whatever the number
    # of passes, and traced and untraced passes do the same work.
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(wl.run_pass(args.seed, OUT))
        tracer.install()
        try:
            traced.append(wl.run_pass(args.seed, OUT, call=call))
        finally:
            tracer.uninstall()
        pair_s = untraced[-1].wall_s + traced[-1].wall_s
        if args.tiny or time.perf_counter() - start + pair_s > args.seconds:
            break
    metrics = tracer.layer_metrics(sum(p.wall_s for p in traced))
    metrics["trace.overhead"] = (statistics.median(p.wall_s for p in traced)
                                 / statistics.median(p.wall_s for p in untraced) - 1.0)
    metrics["pointproc.strauss_accept_ratio"], per_cell = strauss_accept(wl, args.seed)
    span_path = os.path.join(OUT, f"{wl.name}-seed{args.seed}.spans.csv")
    tracer.write(span_path)
    info = {"pairs": len(traced), "spans": len(tracer.spans),
            "span_file": os.path.relpath(span_path, ROOT),
            "strauss_accept_ratio_per_cell": per_cell}
    return untraced + traced, metrics, info


def strauss_accept(wl, seed: int) -> tuple:
    """Accepted over proposed Metropolis moves of each Strauss cell's rep 0
    in chunk 0.

    Taken from an untimed ``sample_strauss`` call with ``trace=``, on the
    same placement stream ``build_scene`` uses; 0 when no cell is Strauss.
    """
    accepted = proposed = 0
    per_cell = {}
    for cell in getattr(wl, "cells", ()):
        p = cell.placement
        if not isinstance(p, StraussPlacement):
            continue
        cfg = cell.config(1, workloads.chunk_seed(seed, 0))
        trace: dict = {}
        sample_strauss(
            StraussParams(n=cfg.composition.total, d=p.d, gamma=p.gamma,
                          burn_in_sweeps=p.burn_in),
            cfg.insertion,
            RngStream(cfg.master_seed, stream_index(cfg.cell_key(), 0, "placement")),
            trace=trace,
        )
        acc = sum(1 for prop in trace["proposals"] if prop[4])
        per_cell[cell.label] = acc / len(trace["proposals"])
        accepted += acc
        proposed += len(trace["proposals"])
    return (accepted / proposed if proposed else 0.0), per_cell


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: one small pass, one setup probe")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = wl.tiny()
    os.makedirs(OUT, exist_ok=True)
    man = manifest(wl, args)
    print("manifest " + json.dumps(man, sort_keys=True))

    failures: list = []
    metrics: dict = {}
    setup_raw: list = []
    if not args.trace:
        setup_raw, setup = measure_setup(1 if args.tiny else SETUP_REPEATS)
        metrics["setup_s"] = statistics.median(setup)
    workloads.warm_up()
    wl.warm(args.seed, OUT)
    run = traced_run if args.trace else timed_run
    passes, measured, info = run(wl, args)
    metrics.update(measured)
    if setup_raw:
        info["raw"]["setup_s"] = statistics.median(setup_raw)
    for p in passes:
        failures.extend(p.failures)
    digests = check_digests(wl, args, passes, failures)
    attempted = sum(p.attempted for p in passes)
    run_level = len(failures) > sum(len(p.failures) for p in passes)
    # a digest that does not repeat or match its pin condemns every operation
    failed = attempted if run_level else sum(p.failed for p in passes)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        failures.append(f"metrics not measured: {missing}")

    for label, digest in sorted(digests.items()):
        print(f"digest {wl.name} {label} {digest}")
    for msg in failures:
        print(f"FAILED {msg}")
    for key, value in sorted(info.items()):
        print(f"info {key} {json.dumps(value)}")
    result_metrics = {n: {"value": metrics[n], "unit": u} for n, u in units.items()
                      if n in metrics}
    for name, m in result_metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric error_rate {failed / attempted!r} ratio")
    correct = not failures and failed == 0
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"manifest": man, "digests": digests, "failures": failures,
                   "info": info, "error_rate": failed / attempted,
                   "metrics": result_metrics}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
