"""The benchmark's tracer must still find every name it wraps.

``perfbench/spans.py`` replaces module-level names of the package (its
``TARGETS``) with timing wrappers, looked up at call time. A refactor that
removes, renames or stops calling one of them through its module breaks the
benchmark; these tests catch that in the unit suite. They also pin what
the benchmark reads off the program: the planner's result types, which its
per-layer counts assume, and the modules a run imports, which its peak RSS
counts.
"""
import importlib
import math
import os
import subprocess
import sys
from collections import Counter

from obstaclesim.geometry import build_lattice
from obstaclesim.montecarlo import ExperimentConfig, FalseOnly, Mixed, UniformPlacement
from obstaclesim.pointproc import Window

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans")


def test_tracer_installs_and_uninstalls(monkeypatch):
    spans = _spans(monkeypatch)
    originals = [getattr(module, attr) for module, attr, *_ in spans.TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, attr, *_), fn in zip(spans.TARGETS, originals):
            assert getattr(module, attr) is not fn, attr
    finally:
        tracer.uninstall()
    for (module, attr, *_), fn in zip(spans.TARGETS, originals):
        assert getattr(module, attr) is fn, attr


SMALL_CELL = dict(
    grid=(21, 21), source=(10, 20), target=(10, 1),
    insertion=Window(4.0, 16.0, 4.0, 16.0), radius=1.5, reps=1,
)


def test_replication_spans_reach_every_stage(monkeypatch):
    spans = _spans(monkeypatch)
    cfg = ExperimentConfig(UniformPlacement(), FalseOnly(2), **SMALL_CELL)
    tracer = spans.Tracer()
    try:
        tracer.install()
        from obstaclesim import montecarlo

        montecarlo.run_replication(cfg, 0)
    finally:
        tracer.uninstall()
    names = {s[spans.NAME] for s in tracer.spans}
    assert names >= {
        "montecarlo.run_replication",
        "montecarlo.build_scene",
        "pointproc.sample",
        "sensor.assign_marks",
        "sensor.beta_variates",
        "traversal.scene_init",
        "geometry.index_edge_disks",
        "traversal.rd_traverse",
        "traversal.shortest_path",
    }


def test_traced_planner_count_is_its_finite_labels(monkeypatch):
    # the span count reads dist.count(inf): the planner must return lists
    spans = _spans(monkeypatch)
    g = build_lattice(21, 21)
    tracer = spans.Tracer()
    try:
        tracer.install()
        from obstaclesim import traversal

        dist, pred = traversal.shortest_path(g, g.edge_length, 430, 10)
    finally:
        tracer.uninstall()
    assert type(dist) is list and type(pred) is list
    (span,) = [s for s in tracer.spans if s[spans.NAME] == "traversal.shortest_path"]
    assert span[spans.COUNT] == sum(map(math.isfinite, dist)) < g.n_vertices


def test_traced_incidence_is_grouped_by_disk(monkeypatch):
    # the span count is read off the result of index_edge_disks: a 2-tuple of
    # disk_ptr (n_disks + 1 entries) and edge_ids (one per disk-edge pair)
    spans = _spans(monkeypatch)
    from obstaclesim import traversal

    results = []
    index = traversal.index_edge_disks

    def recording(*args):
        results.append(index(*args))
        return results[-1]

    monkeypatch.setattr(traversal, "index_edge_disks", recording)
    cfg = ExperimentConfig(UniformPlacement(), FalseOnly(5), **SMALL_CELL)
    tracer = spans.Tracer()
    try:
        tracer.install()
        scene = cfg.scene(0)
    finally:
        tracer.uninstall()
    assert [s[spans.NAME] for s in tracer.spans].count("geometry.index_edge_disks") == 1
    (result,) = results
    assert type(result) is tuple and len(result) == 2
    disk_ptr, edge_ids = result
    assert disk_ptr.size == len(scene.obstacles) + 1
    assert edge_ids.size == disk_ptr[-1] > 0
    assert disk_ptr is scene.disk_ptr and edge_ids is scene.inc_edge


def test_every_replan_goes_through_the_traced_planner(monkeypatch):
    # the benchmark times replans by wrapping traversal.shortest_path: each
    # walk plans once per disambiguation plus once for its last leg, always
    # through that name and towards the scene's target
    from obstaclesim import traversal

    goals = []
    planner = traversal.shortest_path

    def counting(graph, weights, src, goal=None):
        goals.append(goal)
        return planner(graph, weights, src, goal)

    monkeypatch.setattr(traversal, "shortest_path", counting)
    cell = dict(SMALL_CELL, reps=12)
    cfg = ExperimentConfig(UniformPlacement(), Mixed(n_T=8, n_F=24), cost=0.5, **cell)
    n_dis = 0
    for rep in range(cfg.reps):
        scene = cfg.scene(rep)
        goals.clear()
        result = traversal.rd_traverse(scene)
        assert goals == [scene.t] * (result.n_dis + 1), f"rep {rep}"
        n_dis += result.n_dis
    assert n_dis >= cfg.reps


def _fresh_python(code: str) -> str:
    """Stripped stdout of ``code`` run in a new interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return out.stdout.strip()


def test_a_run_imports_no_scipy():
    # scipy is a test dependency only; importing it at run time adds ~33 MB
    # of resident memory to every benchmark workload
    code = (
        "import sys\n"
        "import obstaclesim.cli\n"
        "from obstaclesim.montecarlo import (\n"
        "    ExperimentConfig, FalseOnly, UniformPlacement, run_replication)\n"
        "from obstaclesim.pointproc import Window\n"
        f"cfg = ExperimentConfig(UniformPlacement(), FalseOnly(2), **{SMALL_CELL!r})\n"
        "run_replication(cfg, 0)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    out = _fresh_python(code)
    assert out == "[]"


def test_import_leaves_the_process_pool_out():
    # ProcessPoolExecutor pulls in multiprocessing, socket and logging (~15 ms
    # per process); only run_sweep with jobs > 1 imports it
    code = (
        "import sys\n"
        "import obstaclesim\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    out = _fresh_python(code)
    assert out == "False"


def test_ordering_spans_reach_every_layer(monkeypatch, tmp_path):
    # the ordering workload times the experiments, the dominance checks and
    # the analytic CDF grid through the names cmd_ordering calls in cli
    spans = _spans(monkeypatch)
    cfg = tmp_path / "c.ini"
    cfg.write_text("[ordering]\nratios = 0.5,2\nblunt_beta = 3,5\n", encoding="utf-8")
    tracer = spans.Tracer()
    try:
        tracer.install()
        from obstaclesim import cli

        argv = ["ordering", "--config", str(cfg), "--out", str(tmp_path / "out"),
                "--reps", "20"]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    counts = Counter(s[spans.NAME] for s in tracer.spans)
    # 4 experiments of 20 replications; 3 + 2 + 2 + 2 variants per replication
    assert counts == {
        "ordering.experiment": 4,
        "ordering.dominates_st": 5,
        "sensor.beta_cdf": 2 * 1001,
        "sensor.beta_variates": 20 * (3 + 2 + 2 + 2),
        "pointproc.sample": 4 * 20,
    }
