"""The benchmark's tracer must still find every name it wraps.

``perfbench/spans.py`` replaces module-level names of the package (its
``TARGETS``) with timing wrappers, looked up at call time. A refactor that
removes, renames or stops calling one of them through its module breaks the
benchmark; these tests catch that in the unit suite.
"""
import importlib
import os

from obstaclesim.montecarlo import ExperimentConfig, FalseOnly, UniformPlacement
from obstaclesim.pointproc import Window

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


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


def test_replication_spans_reach_every_stage(monkeypatch):
    spans = _spans(monkeypatch)
    cfg = ExperimentConfig(
        UniformPlacement(), FalseOnly(2), grid=(21, 21), source=(10, 20),
        target=(10, 1), insertion=Window(4.0, 16.0, 4.0, 16.0), radius=1.5,
        reps=1,
    )
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
