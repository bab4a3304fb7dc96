"""Spans recorded from outside the program, and the per-layer metrics.

``Tracer.install`` replaces module-level names that obstaclesim looks up at
call time (``traversal.shortest_path``, ``montecarlo.build_scene``, ...) with
wrappers that record a span around the call and return the wrapped result
unchanged. A span is (name, start, end, parent, replication id, count); the
count is an exact figure read off the result, such as the incidence pairs of
a scene. Spans stay in memory until ``write`` saves them at the end of a run.

A layer's self time is its span's duration minus the durations of its direct
child spans.
"""
from __future__ import annotations

import csv
import functools
import math
import statistics
import time
from typing import Callable, Dict, List, Optional

from obstaclesim import cli, montecarlo, ordering, sensor, traversal


def _finite_labels(result) -> int:
    dist = result[0]
    return len(dist) - dist.count(math.inf)


def _incidence_pairs(incidence) -> int:
    return sum(map(len, incidence))


# (module, attribute, span name, count read off the result, starts a replication)
TARGETS = (
    (montecarlo, "run_replication", "montecarlo.run_replication", None, True),
    (montecarlo, "build_scene", "montecarlo.build_scene", None, False),
    (montecarlo, "sample_uniform", "pointproc.sample", None, False),
    (montecarlo, "sample_strauss", "pointproc.sample", None, False),
    (montecarlo, "assign_marks", "sensor.assign_marks", None, False),
    (montecarlo, "Scene", "traversal.scene_init", None, False),
    (montecarlo, "rd_traverse", "traversal.rd_traverse", lambda r: r.n_dis, False),
    (traversal, "index_edge_disks", "geometry.index_edge_disks", _incidence_pairs, False),
    (traversal, "shortest_path", "traversal.shortest_path", _finite_labels, False),
    (sensor, "beta_variates", "sensor.beta_variates", None, False),
    (ordering, "beta_variates", "sensor.beta_variates", None, False),
    (cli, "coupled_composition_samples", "ordering.experiment", None, False),
    (cli, "ratio_sweep_samples", "ordering.experiment", None, False),
    (cli, "sensor_fidelity_samples", "ordering.experiment", None, False),
    (cli, "dominates_st", "ordering.dominates_st", None, False),
    (cli, "beta_cdf", "sensor.beta_cdf", None, False),
)

NAME, START, END, PARENT, REP, COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._rep = -1
        self._saved: List[tuple] = []

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable],
              starts_rep: bool) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_rep:
                self._rep += 1
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._rep, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(result)
            return result

        return wrapper

    def call(self, name: str, fn: Callable, *args, starts_rep: bool = False):
        """Run ``fn(*args)`` inside a span of the benchmark's own."""
        return self._wrap(fn, name, None, starts_rep)(*args)

    def install(self) -> None:
        for module, attr, name, count, starts_rep in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count, starts_rep))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "rep", "count"])
            for k, s in enumerate(self.spans):
                writer.writerow([k, s[NAME], repr(s[START]), repr(s[END]),
                                 s[PARENT], s[REP], "" if s[COUNT] is None else s[COUNT]])

    # ---------- per-layer metrics ----------

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics from the recorded spans; 0 where a layer never ran.

        ``wall_s`` is the wall time of the traced work; ``trace.coverage`` is
        the share of it that top-level spans, and so the self times of all
        spans, account for.
        """
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        kids: Dict[int, List[int]] = {}
        by_name: Dict[str, List[int]] = {}
        for k, s in enumerate(spans):
            by_name.setdefault(s[NAME], []).append(k)
            if s[PARENT] >= 0:
                kids.setdefault(s[PARENT], []).append(k)
        child = [sum(dur[j] for j in kids.get(k, ())) for k in range(len(spans))]

        def ids(name):
            return by_name.get(name, [])

        def p50_ms(name, self_time=False):
            vals = [dur[k] - (child[k] if self_time else 0.0) for k in ids(name)]
            return statistics.median(vals) * 1e3 if vals else 0.0

        def mean_count(name):
            vals = [spans[k][COUNT] for k in ids(name)]
            return sum(vals) / len(vals) if vals else 0.0

        def per_rep_median(values_by_rep):
            return statistics.median(values_by_rep.values()) if values_by_rep else 0.0

        def sum_by_rep(name, value):
            out: Dict[int, float] = {}
            for k in ids(name):
                out[spans[k][REP]] = out.get(spans[k][REP], 0.0) + value(k)
            return out

        def ordering_self(k):
            inner = sum(dur[j] for j in kids.get(k, ())
                        if spans[j][NAME].startswith(("pointproc.", "sensor.")))
            return dur[k] - inner

        walks = len(ids("traversal.rd_traverse"))
        top = sum(dur[k] for k, s in enumerate(spans)
                  if s[PARENT] < 0 and s[NAME] != "geometry.build_lattice")
        return {
            "geometry.build_lattice_ms": p50_ms("geometry.build_lattice"),
            "geometry.index_edge_disks_ms": p50_ms("geometry.index_edge_disks"),
            "geometry.incidence_pairs": mean_count("geometry.index_edge_disks"),
            "pointproc.sample_ms": p50_ms("pointproc.sample"),
            "sensor.assign_marks_ms": p50_ms("sensor.assign_marks"),
            "sensor.beta_variates_ms": p50_ms("sensor.beta_variates"),
            "sensor.beta_cdf_ms": per_rep_median(
                sum_by_rep("sensor.beta_cdf", lambda k: dur[k])) * 1e3,
            "traversal.scene_init_ms": p50_ms("traversal.scene_init", self_time=True),
            "traversal.rd_traverse_ms": p50_ms("traversal.rd_traverse"),
            "traversal.rd_traverse_self_ms": p50_ms("traversal.rd_traverse", self_time=True),
            "traversal.shortest_path_ms": p50_ms("traversal.shortest_path"),
            "traversal.replans_per_walk":
                len(ids("traversal.shortest_path")) / walks if walks else 0.0,
            "traversal.n_dis_per_walk": mean_count("traversal.rd_traverse"),
            "traversal.labelled_per_replan": mean_count("traversal.shortest_path"),
            "montecarlo.build_scene_self_ms": p50_ms("montecarlo.build_scene", self_time=True),
            "montecarlo.run_replication_ms": p50_ms("montecarlo.run_replication"),
            "ordering.experiment_s": per_rep_median(
                sum_by_rep("ordering.experiment", lambda k: dur[k])),
            "ordering.self_s": per_rep_median(sum_by_rep("ordering.experiment", ordering_self)),
            "ordering.dominates_st_ms": p50_ms("ordering.dominates_st"),
            "cli.self_s": per_rep_median(sum_by_rep("cli.main", lambda k: dur[k] - child[k])),
            "trace.coverage": top / wall_s if wall_s > 0 else 0.0,
        }
