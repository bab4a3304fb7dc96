"""The benchmark's workloads: inputs, one timed pass, and output checks.

A workload runs in passes. A sweep pass is one ``run_sweep`` call over fixed
cells and reps with ``jobs=1``; pass ``j`` of a run over seed ``s`` is
*chunk* ``j``, whose configs carry ``master_seed = s * CHUNK_STRIDE + j``, so
every pass replicates new scenes and a run's latencies pool many distinct
ones. An ordering pass is one ``obstaclesim ordering --seed s`` command run
in-process through ``cli.main``, the same command every pass. Every pass is
a closed loop: the next replication starts when the last one ends. The
workload seed reaches the program only as ``master_seed`` / ``--seed``.

Outputs are checked after each pass, outside its timing:

* sweeps: every record balances its books, ``C == walk_length + n_dis * c``,
  and the SHA-256 of each cell's records, rendered exactly as the
  ``records.csv`` that ``obstaclesim sweep`` writes for that cell;
* ordering: every verdict in ``ordering.csv`` holds, and its SHA-256.

A digest is labelled by what it covers (``<chunk>/<cell>`` for sweeps,
``ordering.csv``). A label seen on two passes must have the same digest both
times and, at the pinned seed and full size, equal the value in
``digests.json``, which holds the first ``PINNED_CHUNKS`` chunks.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from obstaclesim import (
    ExperimentConfig,
    FalseOnly,
    Mixed,
    SensorModel,
    StraussPlacement,
    UniformPlacement,
    build_scene,
    cli,
    run_replication,
    run_sweep,
)

GRID = (101, 101)

#: the seed at which digests.json pins every full-size digest
PINNED_SEED = 0
#: sweep chunks pinned in digests.json; later chunks are checked for balance
PINNED_CHUNKS = 8
#: chunk j of a run over seed s uses master_seed s * CHUNK_STRIDE + j
CHUNK_STRIDE = 1_000_000


def chunk_seed(seed: int, chunk: int) -> int:
    """The ``master_seed`` of sweep chunk ``chunk`` of a run over ``seed``."""
    return seed * CHUNK_STRIDE + chunk


#: the columns of records.csv, in order: every SweepRecord field but wall_time
RECORD_FIELDS = (
    "placement", "gamma", "d", "kappa", "r0", "composition",
    "n_T", "n_F", "rep", "seed", "C", "n_dis", "walk_length",
)

ORDERING_RATIOS = "0.333333,1,3"
ORDERING_BLUNT_BETA = "3,5"
#: sampling-experiment calls per ordering command: composition, ratio and
#: the two sensor-fidelity experiments
ORDERING_EXPERIMENTS = 4


def warm_up(grid: Tuple[int, int] = GRID) -> None:
    """Untimed scene build that fills the lattice cache for ``grid``."""
    build_scene(UniformPlacement(), 0, 80, SensorModel(2.0, 6.0), grid=grid)


def _csv_field(v) -> str:
    """One records.csv field, formatted as the CLI formats it."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def records_csv(records) -> bytes:
    """The bytes ``obstaclesim sweep`` writes to records.csv for ``records``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    for r in records:
        writer.writerow([_csv_field(getattr(r, f)) for f in RECORD_FIELDS])
    return buf.getvalue().encode("utf-8")


@dataclass
class PassResult:
    """One pass: its wall time, its work, and the outcome of its checks."""

    wall_s: float  # the whole pass, speedometer samples included
    units: int  # replications completed (ordering: coupled replications)
    attempted: int  # operations: replications (ordering: commands)
    failed: int
    #: per-replication latencies (ordering: one, the mean), less the time
    #: the speedometer took during them
    latencies_s: List[float]
    digests: Dict[str, str]
    failures: List[str] = field(default_factory=list)
    #: for each latency, the speedometer samples [first, last) taken during it
    ticks: List[Tuple[int, int]] = field(default_factory=list)


def _mark(meter) -> Tuple[int, float]:
    return meter.mark() if meter is not None else (0, 0.0)


@dataclass(frozen=True)
class SweepCell:
    label: str
    placement: object
    composition: object
    cost: float = 5.0

    def config(self, reps: int, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            placement=self.placement,
            composition=self.composition,
            cost=self.cost,
            reps=reps,
            master_seed=seed,
        )

    def ini(self, reps: int, seed: int) -> str:
        """A config file that makes ``obstaclesim sweep`` run this cell."""
        p, c = self.placement, self.composition
        lines = ["[scene]", f"cost = {self.cost!r}", "[placement]", f"kind = {p.kind}"]
        if isinstance(p, StraussPlacement):
            lines += [f"gamma = {p.gamma!r}", f"d = {p.d!r}", f"burn_in = {p.burn_in}"]
        lines += ["[composition]", f"kind = {c.kind}", f"n_false = {c.n_F}"]
        if c.kind == "mixed":
            lines.append(f"n_true = {c.n_T}")
        lines += ["[run]", f"reps = {reps}", f"seed = {seed}", "jobs = 1"]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    """A named input set, with the rationale recorded in every manifest."""

    name: str
    why: str
    loads: str
    bypasses: str
    cost_on_seed: str

    def rationale(self) -> Dict[str, str]:
        return {"why": self.why, "loads": self.loads, "bypasses": self.bypasses,
                "cost_on_seed": self.cost_on_seed}


@dataclass(frozen=True)
class SweepWorkload(Workload):
    cells: Tuple[SweepCell, ...] = ()
    reps: int = 1  # per cell and pass

    def params(self) -> Dict:
        return {
            "grid": list(GRID),
            "reps_per_cell_per_chunk": self.reps,
            "chunk_master_seed": f"seed * {CHUNK_STRIDE} + chunk",
            "jobs": 1,
            "cells": [{"label": c.label, "config": c.config(self.reps, 0).cell_key()}
                      for c in self.cells],
        }

    def tiny(self) -> "SweepWorkload":
        return replace(self, reps=1)

    def warm(self, seed: int, out_dir: str) -> None:
        """One untimed replication, so lazy first-call costs stay out of timing."""
        run_replication(self.cells[0].config(1, chunk_seed(seed, 0)), 0)

    def run_pass(self, seed: int, out_dir: str, chunk: int = 0, call=None,
                 meter=None) -> PassResult:
        """``meter``, a running ``calib.Speedometer`` when given, brackets
        each replication's latency."""
        configs = [c.config(self.reps, chunk_seed(seed, chunk)) for c in self.cells]
        total = len(configs) * self.reps
        latencies: List[float] = []
        ticks: List[Tuple[int, int]] = []
        start = [0.0, _mark(meter)]

        def progress(done: int, n: int) -> None:
            mark, now = _mark(meter), time.perf_counter()
            latencies.append(now - start[0] - (mark[1] - start[1][1]))
            ticks.append((start[1][0], mark[0]))
            start[:] = [now, mark]

        t0 = start[0] = time.perf_counter()
        try:
            records = run_sweep(configs, jobs=1, progress=progress)
        except Exception as exc:  # a failed replication fails the pass
            wall = time.perf_counter() - t0
            return PassResult(wall, 0, total, total, [], {},
                              [f"run_sweep raised {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
        failures: List[str] = []
        digests = {}
        unbalanced = 0
        for k, cell in enumerate(self.cells):
            part = records[k * self.reps:(k + 1) * self.reps]
            digests[f"{chunk}/{cell.label}"] = hashlib.sha256(records_csv(part)).hexdigest()
            for r in part:
                if r.C != r.walk_length + r.n_dis * cell.cost:
                    unbalanced += 1
                    failures.append(
                        f"{cell.label} rep {r.rep}: C={r.C!r} != "
                        f"{r.walk_length!r} + {r.n_dis}*{cell.cost!r}"
                    )
        return PassResult(wall, total, total, unbalanced, latencies, digests, failures, ticks)

    def cli_runs(self, seed: int, out_dir: str, chunks: int):
        for j in range(chunks):
            for k, cell in enumerate(self.cells):
                ini = os.path.join(out_dir, f"chunk{j}-cell{k}.ini")
                with open(ini, "w", encoding="utf-8") as fh:
                    fh.write(cell.ini(self.reps, chunk_seed(seed, j)))
                out = os.path.join(out_dir, f"chunk{j}-cell{k}")
                yield f"{j}/{cell.label}", ["sweep", "--config", ini, "--out", out], \
                    os.path.join(out, "records.csv")


@dataclass(frozen=True)
class OrderingWorkload(Workload):
    """A pass is one ``obstaclesim ordering`` command, run through ``cli.main``."""

    reps: int = 200  # fewer lets a verdict fail by chance

    def params(self) -> Dict:
        return {
            "grid": list(GRID),
            "reps": self.reps,
            "ratios": ORDERING_RATIOS,
            "blunt_beta": ORDERING_BLUNT_BETA,
        }

    def tiny(self) -> "OrderingWorkload":
        return self  # already a second or less per pass

    def _argv(self, seed: int, out_dir: str, out: str) -> List[str]:
        ini = os.path.join(out_dir, "ordering.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(f"[ordering]\nratios = {ORDERING_RATIOS}\n"
                     f"blunt_beta = {ORDERING_BLUNT_BETA}\n")
        return ["ordering", "--config", ini, "--out", out,
                "--reps", str(self.reps), "--seed", str(seed)]

    def warm(self, seed: int, out_dir: str) -> None:
        """One untimed command, so lazy first-call costs stay out of timing."""
        self.run_pass(seed, out_dir)

    def run_pass(self, seed: int, out_dir: str, chunk: int = 0,
                 call: Optional[Callable] = None, meter=None) -> PassResult:
        """``call(cli.main, argv)``, when given, runs the command; every
        pass runs the same command, whatever its ``chunk``. ``meter``, a
        running ``calib.Speedometer`` when given, brackets the command."""
        cmd_out = os.path.join(out_dir, "ordering-out")
        argv = self._argv(seed, out_dir, cmd_out)
        csv_path = os.path.join(cmd_out, "ordering.csv")
        with contextlib.suppress(FileNotFoundError):
            os.remove(csv_path)
        mark0, t0 = _mark(meter), time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = call(cli.main, argv) if call else cli.main(argv)
        except Exception as exc:
            rc = f"{type(exc).__name__}: {exc}"
        mark1, wall = _mark(meter), time.perf_counter() - t0
        busy = wall - (mark1[1] - mark0[1])
        coupled = self.reps * ORDERING_EXPERIMENTS
        if rc != 0:
            return PassResult(wall, 0, 1, 1, [], {}, [f"exit {rc}"])
        with open(csv_path, "rb") as fh:
            data = fh.read()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        failing = [r["experiment"] for r in rows if r["holds"] != "true"]
        digests = {"ordering.csv": hashlib.sha256(data).hexdigest()}
        if len(rows) != 7 or failing:
            return PassResult(wall, 0, 1, 1, [], digests,
                              [f"{len(rows)} verdict rows, failing: {failing}"])
        return PassResult(wall, coupled, 1, 0, [busy / coupled], digests, [],
                          [(mark0[0], mark1[0])])

    def cli_runs(self, seed: int, out_dir: str, chunks: int):
        out = os.path.join(out_dir, "ordering-cli")
        yield "ordering.csv", self._argv(seed, out_dir, out), \
            os.path.join(out, "ordering.csv")


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="sweep-uniform",
            why="default uniform cell: disk-edge incidence and the first plan "
                "dominate; the placement sampler is nearly free",
            loads="geometry.index_edge_disks (~66% of wall), traversal.shortest_path "
                  "(~19%), ~1.2 plans per walk",
            bypasses="pointproc Strauss sampler, ordering",
            cost_on_seed="~0.18 s per replication at the reference speed (~5.4 reps/s)",
            reps=8,
            cells=(SweepCell("uniform", UniformPlacement(), FalseOnly(80)),),
        ),
        SweepWorkload(
            name="sweep-strauss",
            why="the four Strauss cells of acceptance criterion 7 with equal reps: "
                "the Metropolis sampler dominates, acceptance 0.03 to 1.0",
            loads="pointproc.sample_strauss (~75-85% of wall)",
            bypasses="ordering; incidence and Dijkstra are a small share",
            cost_on_seed="~0.71 s per replication at the reference speed (~1.4 reps/s)",
            reps=1,
            cells=tuple(
                SweepCell(f"g={g!r},d={d!r}", StraussPlacement(gamma=g, d=d, burn_in=500),
                          FalseOnly(80))
                for g, d in ((0.0, 7.0), (1.0, 7.0), (0.0, 2.0), (0.0, 13.0))
            ),
        ),
        SweepWorkload(
            name="sweep-dense-replan",
            why="mixed 40 true / 120 false at cost 0.5: many small-change replans "
                "per walk, blockers make edges impassable",
            loads="traversal.shortest_path (~45% of wall), ~9.6 plans per walk",
            bypasses="pointproc Strauss sampler, ordering",
            cost_on_seed="~0.42 s per replication at the reference speed (~2.3 reps/s)",
            reps=4,
            cells=(SweepCell("mixed", UniformPlacement(), Mixed(n_T=40, n_F=120),
                             cost=0.5),),
        ),
        OrderingWorkload(
            name="ordering",
            why="obstaclesim ordering with ratios and blunt_beta: all four sampling "
                "experiments plus the analytic check; no incidence, no traversal",
            loads="sensor.beta_variates, pointproc.sample_uniform, ordering's "
                  "fixed-path code, sensor.beta_cdf",
            bypasses="geometry.index_edge_disks, traversal",
            cost_on_seed="~0.65 ms per coupled replication at the reference speed",
            reps=200,
        ),
    )
}


def cli_digests(w: Workload, seed: int, out_dir: str, src: str,
                chunks: int = 1) -> Dict[str, str]:
    """The same digests, taken from files the ``obstaclesim`` command writes.

    Runs ``python3 -m obstaclesim sweep`` once per cell of each of the first
    ``chunks`` chunks (or ``ordering`` once) in a fresh process on the
    sources under ``src``.
    """
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(out_dir, exist_ok=True)
    digests = {}
    for label, argv, path in w.cli_runs(seed, out_dir, chunks):
        subprocess.run([sys.executable, "-m", "obstaclesim", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600)
        with open(path, "rb") as fh:
            digests[label] = hashlib.sha256(fh.read()).hexdigest()
    return digests
