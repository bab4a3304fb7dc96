import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from obstaclesim import montecarlo
from obstaclesim.montecarlo import (
    DEFAULT_INSERTION,
    ExperimentConfig,
    FalseOnly,
    MaternPlacement,
    Mixed,
    StraussPlacement,
    SweepCellError,
    SweepRecord,
    TrueOnly,
    UniformPlacement,
    build_obstacles,
    build_scene,
    draw_stages,
    placement_key,
    run_replication,
    run_sweep,
    stream_index,
    summarize,
)
from obstaclesim.pointproc import RngStream, Window
from obstaclesim.sensor import SensorModel
from obstaclesim.traversal import InfeasibleSceneError


def record(C, n_dis=0, walk_length=None, rep=0, gamma=None, placement="uniform"):
    return SweepRecord(
        placement=placement,
        gamma=gamma,
        d=None,
        kappa=None,
        r0=None,
        composition="falseonly",
        n_T=0,
        n_F=1,
        rep=rep,
        seed=0,
        C=C,
        n_dis=n_dis,
        walk_length=C if walk_length is None else walk_length,
    )

# endpoints that would wrap to another vertex, fall off the lattice or coincide
BAD_LATTICES = [
    (dict(source=(-1, 100)), "source -1,100 lies outside the 101x101 grid"),
    (dict(source=(101, 50)), "source 101,50 lies outside"),
    (dict(target=(50, 101)), "target 50,101 lies outside"),
    (dict(source=(50, 1)), "same vertex"),
    (dict(grid=(1, 5), source=(0, 4), target=(0, 0)), "at least 2x2"),
    (dict(insertion=Window(200.0, 300.0, 200.0, 300.0)),
     r"insertion window 200.0,300.0,200.0,300.0 shares no point with the 101x101 grid"),
    (dict(insertion=Window(-9.0, -0.5, 10.0, 90.0)), "insertion window"),
]
BAD_LATTICE_IDS = ["wrap-x", "wrap-row", "target-off-grid", "same-vertex", "grid-1x5",
                   "insertion-off-grid", "insertion-left-of-grid"]
# windows that share at least a point with the 101x101 grid [0, 100]x[0, 100]
OVERLAPPING_WINDOWS = [Window(90.0, 300.0, 90.0, 300.0), Window(-5.0, 0.0, -5.0, 0.0)]
# the wording of the one field rule for radius, cost and insertion bounds
RADIUS_RULE = r"radius must be finite, > 0 and at most 2\*\*200"
COST_RULE = "cost must be finite and > 0"
INSERTION_RULE = r"insertion bounds must be at most 2\*\*200 in magnitude"


class TestStreamIndex:
    def test_deterministic(self):
        assert stream_index("cell", 3, "marks") == stream_index("cell", 3, "marks")

    def test_sensitive_to_every_part(self):
        base = stream_index("cell", 3, "marks")
        assert stream_index("cell", 4, "marks") != base
        assert stream_index("cell", 3, "status") != base
        assert stream_index("other", 3, "marks") != base

    def test_fits_64_bits(self):
        v = stream_index("x")
        assert 0 <= v < 2**64


class TestPlacementsAndCompositions:
    def test_kinds(self):
        assert UniformPlacement().kind == "uniform"
        assert StraussPlacement(gamma=0.5, d=7.0).kind == "strauss"
        assert MaternPlacement(kappa=4, r0=10.0).kind == "matern"

    @pytest.mark.parametrize(
        "cls, kw, match",
        [
            (StraussPlacement, dict(gamma=2.0, d=7.0), "gamma"),
            (StraussPlacement, dict(gamma=0.5, d=0.0), "d must"),
            (StraussPlacement, dict(gamma=0.5, d=7.0, burn_in=-1), "burn_in"),
            (MaternPlacement, dict(kappa=0, r0=2.5), "kappa"),
            (MaternPlacement, dict(kappa=4, r0=-1.0), "r0"),
        ],
        ids=["strauss-gamma", "strauss-d", "strauss-burn_in", "matern-kappa", "matern-r0"],
    )
    def test_bad_parameters_rejected_at_construction(self, cls, kw, match):
        with pytest.raises(ValueError, match=match):
            cls(**kw)

    def test_placement_keys_distinguish_parameters(self):
        a = placement_key(StraussPlacement(gamma=0.5, d=7.0))
        b = placement_key(StraussPlacement(gamma=0.5, d=9.0))
        assert a != b
        assert placement_key(UniformPlacement()) == "uniform"

    def test_composition_counts(self):
        f = FalseOnly(3)
        assert (f.n_T, f.n_F, f.total, f.kind) == (0, 3, 3, "falseonly")
        t = TrueOnly(4)
        assert (t.n_T, t.n_F, t.total, t.kind) == (4, 0, 4, "trueonly")
        m = Mixed(n_T=2, n_F=3)
        assert (m.total, m.kind) == (5, "mixed")


class TestExperimentConfig:
    def test_defaults_match_headline_setting(self):
        cfg = ExperimentConfig(UniformPlacement(), FalseOnly(40))
        assert cfg.grid == (101, 101)
        assert cfg.source == (50, 100) and cfg.target == (50, 1)
        assert cfg.radius == 4.5 and cfg.cost == 5.0
        assert cfg.reps == 100

    def test_empty_composition_accepted(self):
        cfg = ExperimentConfig(UniformPlacement(), FalseOnly(0), reps=1)
        assert len(cfg.scene(0).obstacles) == 0
        rec = run_replication(cfg, 0)
        assert rec.C == rec.walk_length == 99.0 and rec.n_dis == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(UniformPlacement(), Mixed(n_T=-1, n_F=5))

    def test_zero_reps_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(UniformPlacement(), FalseOnly(4), reps=0)

    def test_class_length_mismatch_rejected(self):
        # a one-value tuple is a class list, not a scalar to broadcast
        for radius, cost in (((3.0, 4.5), (3.0, 5.0, 7.0)), ((3.0,), (1.0, 2.0))):
            with pytest.raises(ValueError, match="differ"):
                ExperimentConfig(UniformPlacement(), FalseOnly(4), radius=radius, cost=cost)

    @pytest.mark.parametrize("key", ["radius", "cost"])
    def test_empty_class_tuple_rejected(self, key):
        # an empty tuple used to pass here and fail every replication later
        with pytest.raises(ValueError, match=f"{key} needs at least one class"):
            ExperimentConfig(UniformPlacement(), FalseOnly(3), reps=1, **{key: ()})

    def test_matern_kappa_above_count_rejected(self):
        with pytest.raises(ValueError, match="kappa must be <= n"):
            ExperimentConfig(MaternPlacement(kappa=5, r0=2.5), FalseOnly(4))
        # an empty field places no cluster
        ExperimentConfig(MaternPlacement(kappa=5, r0=2.5), FalseOnly(0))

    @pytest.mark.parametrize(
        "kw",
        [dict(radius=0.0), dict(radius=(3.0, -1.0)), dict(cost=-5.0), dict(cost=(2.0, 0.0)),
         dict(radius=math.nan), dict(cost=(2.0, math.inf)), dict(radius=1e80)],
        ids=["radius", "radius-class", "cost", "cost-class", "radius-nan", "cost-inf",
             "radius-above-2**200"],
    )
    def test_nonpositive_radius_or_cost_rejected(self, kw):
        with pytest.raises(ValueError, match=RADIUS_RULE if "radius" in kw else COST_RULE):
            ExperimentConfig(UniformPlacement(), FalseOnly(4), **kw)

    @pytest.mark.parametrize("kw, match", BAD_LATTICES, ids=BAD_LATTICE_IDS)
    def test_bad_lattice_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(UniformPlacement(), FalseOnly(4), **kw)

    def test_insertion_beyond_2_200_rejected(self):
        # every replication of such a cell used to fail on a centre past 2**200
        with pytest.raises(ValueError, match=INSERTION_RULE):
            ExperimentConfig(UniformPlacement(), FalseOnly(4),
                             insertion=Window(10.0, 90.0, 10.0, 1e300))

    def test_scalar_broadcast_over_classes_allowed(self):
        cfg = ExperimentConfig(
            UniformPlacement(), FalseOnly(4), radius=(3.0, 4.5), cost=5.0
        )
        assert "r=3.0|4.5" in cfg.cell_key()

    def test_equal_configs_give_equal_records(self):
        # an int and a float of one value key the same streams
        shape = dict(grid=(21, 21), source=(10, 20), target=(10, 1),
                     insertion=Window(4.0, 16.0, 4.0, 16.0), reps=1)
        cases = (
            (dict(placement=StraussPlacement(gamma=0, d=7, burn_in=5), radius=2, cost=5),
             dict(placement=StraussPlacement(gamma=0.0, d=7.0, burn_in=5),
                  radius=2.0, cost=5.0)),
            (dict(placement=MaternPlacement(kappa=2, r0=3), radius=(1, 2), cost=3),
             dict(placement=MaternPlacement(kappa=2, r0=3.0), radius=(1.0, 2.0),
                  cost=3.0)),
        )
        for ints, floats in cases:
            a = ExperimentConfig(composition=Mixed(2, 4), **ints, **shape)
            b = ExperimentConfig(composition=Mixed(2, 4), **floats, **shape)
            assert a == b and a.cell_key() == b.cell_key()
            assert run_replication(a, 0) == run_replication(b, 0)

    def test_cell_key_ignores_reps_and_seed(self):
        a = ExperimentConfig(UniformPlacement(), FalseOnly(4), reps=5, master_seed=1)
        b = ExperimentConfig(UniformPlacement(), FalseOnly(4), reps=9, master_seed=2)
        assert a.cell_key() == b.cell_key()

    def test_cell_key_separates_radius_and_composition(self):
        base = ExperimentConfig(UniformPlacement(), FalseOnly(4))
        assert base.cell_key() != ExperimentConfig(
            UniformPlacement(), FalseOnly(4), radius=6.0
        ).cell_key()
        assert base.cell_key() != ExperimentConfig(
            UniformPlacement(), Mixed(n_T=2, n_F=2)
        ).cell_key()

    def test_cell_key_text(self):
        cfg = ExperimentConfig(StraussPlacement(gamma=0.3, d=7.0), Mixed(5, 5))
        assert cfg.cell_key() == (
            "placement=strauss:g=0.3,d=7.0,burn=500;comp=mixed:nT=5,nF=5;"
            "r=4.5;c=5.0;beta=2.0,6.0;grid=101x101;s=50,100;t=50,1;"
            "ins=10.0,90.0,10.0,90.0"
        )

    def test_scene_is_build_scene_of_the_cell(self):
        cfg = ExperimentConfig(
            UniformPlacement(), Mixed(2, 3), radius=(1.0, 1.5), cost=(3.0, 5.0),
            grid=(21, 21), source=(10, 20), target=(10, 1),
            insertion=Window(4.0, 16.0, 4.0, 16.0), master_seed=4,
        )
        manual = build_scene(
            UniformPlacement(), 2, 3, SensorModel(2.0, 6.0),
            radius=(1.0, 1.5), cost=(3.0, 5.0),
            grid=(21, 21), source=(10, 20), target=(10, 1),
            insertion=Window(4.0, 16.0, 4.0, 16.0), master_seed=4,
            cell_key=cfg.cell_key(), rep=3,
        )
        scene = cfg.scene(3)
        assert scene.obstacles == manual.obstacles
        assert (scene.s, scene.t) == (manual.s, manual.t)


class TestBuildScene:
    def test_deterministic(self):
        kw = dict(grid=(21, 21), source=(10, 20), target=(10, 1),
                  insertion=Window(4.0, 16.0, 4.0, 16.0), radius=1.5,
                  cell_key="det", rep=2, master_seed=7)
        s1 = build_scene(UniformPlacement(), 2, 3, SensorModel(2, 6), **kw)
        s2 = build_scene(UniformPlacement(), 2, 3, SensorModel(2, 6), **kw)
        assert s1.obstacles == s2.obstacles
        assert (s1.s, s1.t) == (s2.s, s2.t)

    def test_rep_changes_scene(self):
        kw = dict(grid=(21, 21), source=(10, 20), target=(10, 1),
                  insertion=Window(4.0, 16.0, 4.0, 16.0), radius=1.5,
                  cell_key="det", master_seed=7)
        s1 = build_scene(UniformPlacement(), 0, 5, SensorModel(2, 6), rep=0, **kw)
        s2 = build_scene(UniformPlacement(), 0, 5, SensorModel(2, 6), rep=1, **kw)
        assert s1.obstacles.x.tolist() != s2.obstacles.x.tolist()

    def test_shared_cell_key_couples_compositions(self):
        # same placement/status streams: identical centers, nested true sets
        kw = dict(grid=(21, 21), source=(10, 20), target=(10, 1),
                  insertion=Window(4.0, 16.0, 4.0, 16.0), radius=1.5,
                  cell_key="couple", rep=5, master_seed=3)
        scenes = {
            n_T: build_scene(UniformPlacement(), n_T, 20 - n_T,
                             SensorModel(2, 6), **kw)
            for n_T in (0, 8, 20)
        }
        first = scenes[0].obstacles
        for s in scenes.values():
            assert np.array_equal(s.obstacles.x, first.x)
            assert np.array_equal(s.obstacles.y, first.y)
        true_sets = {
            n_T: set(np.flatnonzero(s.obstacles.true).tolist())
            for n_T, s in scenes.items()
        }
        assert true_sets[0] == set()
        assert len(true_sets[8]) == 8 and len(true_sets[20]) == 20
        assert true_sets[8] <= true_sets[20]

    def test_class_draws_shared_across_compositions(self):
        kw = dict(grid=(21, 21), source=(10, 20), target=(10, 1),
                  insertion=Window(4.0, 16.0, 4.0, 16.0),
                  radius=(1.0, 1.5), cost=(3.0, 5.0),
                  cell_key="couple-classes", rep=1, master_seed=3)
        a = build_scene(UniformPlacement(), 0, 12, SensorModel(2, 6), **kw)
        b = build_scene(UniformPlacement(), 6, 6, SensorModel(2, 6), **kw)
        assert np.array_equal(a.obstacles.r, b.obstacles.r)
        assert np.array_equal(a.obstacles.c, b.obstacles.c)
        for r, c in zip(a.obstacles.r.tolist(), a.obstacles.c.tolist()):
            assert (r, c) in ((1.0, 3.0), (1.5, 5.0))

    def test_scene_shape(self):
        s = build_scene(
            UniformPlacement(), 1, 2, SensorModel(2, 6),
            grid=(21, 21), source=(10, 20), target=(10, 1),
            insertion=Window(4.0, 16.0, 4.0, 16.0), radius=1.5,
            cell_key="shape", rep=0,
        )
        assert len(s.obstacles) == 3
        assert s.s == 20 * 21 + 10
        assert s.t == 1 * 21 + 10
        assert s.obstacles.p.shape == (3,)

    @pytest.mark.parametrize("kw, match", BAD_LATTICES, ids=BAD_LATTICE_IDS)
    def test_bad_lattice_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            build_scene(UniformPlacement(), 0, 4, SensorModel(2, 6), **kw)

    @pytest.mark.parametrize("window", OVERLAPPING_WINDOWS, ids=["partial", "corner"])
    def test_partly_overlapping_window_accepted(self, window):
        scene = build_scene(UniformPlacement(), 0, 4, SensorModel(2, 6), insertion=window)
        assert len(scene.obstacles) == 4
        cfg = ExperimentConfig(UniformPlacement(), FalseOnly(4), insertion=window, reps=1)
        assert run_replication(cfg, 0).C >= 99.0

    @pytest.mark.parametrize("key", ["radius", "cost"])
    def test_empty_class_tuple_rejected_by_build_obstacles(self, key):
        with pytest.raises(ValueError, match=f"{key} needs at least one class"):
            build_obstacles(UniformPlacement(), 0, 3, SensorModel(2, 6), **{key: ()})

    @pytest.mark.parametrize(
        "counts, kw, match",
        [((0, 3), dict(radius=1e80), RADIUS_RULE), ((0, 3), dict(cost=(2.0, 0.0)), COST_RULE),
         ((0, 3), dict(insertion=Window(-1e300, 90.0, 10.0, 90.0)), INSERTION_RULE),
         ((-1, 5), {}, "composition counts must be >= 0, got n_T=-1"),
         ((2, -1), {}, "composition counts must be >= 0, got n_F=-1")],
        ids=["radius-above-2**200", "cost-class", "insertion-beyond-2**200", "negative-true",
             "negative-false"],
    )
    def test_bad_field_rejected_before_any_draw(self, monkeypatch, counts, kw, match):
        # a negative true count used to slice the permutation from its end
        def no_draw(*args):
            raise AssertionError("a field was drawn")

        monkeypatch.setattr(montecarlo, "draw_stages", no_draw)
        with pytest.raises(ValueError, match=match):
            build_obstacles(UniformPlacement(), *counts, SensorModel(2, 6), **kw)

    def test_obstacles_do_not_depend_on_the_lattice(self):
        kw = dict(insertion=Window(4.0, 16.0, 4.0, 16.0), radius=(1.0, 1.5),
                  cost=(3.0, 5.0), cell_key="lattice-free", rep=2, master_seed=5)
        field = build_obstacles(UniformPlacement(), 3, 4, SensorModel(2, 6), **kw)
        for grid, source, target in (((21, 21), (10, 20), (10, 1)),
                                     ((31, 25), (0, 0), (30, 24))):
            scene = build_scene(UniformPlacement(), 3, 4, SensorModel(2, 6),
                                grid=grid, source=source, target=target, **kw)
            assert scene.obstacles == field


class TestDrawStages:
    @pytest.mark.parametrize(
        "placement",
        [UniformPlacement(), StraussPlacement(gamma=0.3, d=7.0, burn_in=5),
         MaternPlacement(kappa=2, r0=6.0)],
        ids=["uniform", "strauss", "matern"],
    )
    def test_a_range_draws_what_the_one_rep_calls_draw(self, placement):
        args = (placement, 12, DEFAULT_INSERTION, 17, "stages")
        batch = draw_stages(*args, range(3, 8))
        assert len(batch) == 5
        for rep, (xs, ys, perm, status, marks) in zip(range(3, 8), batch):
            ((xs1, ys1, perm1, status1, marks1),) = draw_stages(*args, range(rep, rep + 1))
            for a, b in ((xs, xs1), (ys, ys1), (perm, perm1)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            # the status generator past the permutation, as a fresh stream has it
            fresh = RngStream(17, stream_index("stages", rep, "status")).generator()
            fresh.permutation(12)
            for gen in (status, status1):
                assert str(gen.bit_generator.state) == str(fresh.bit_generator.state)
            assert marks == marks1 == RngStream(17, stream_index("stages", rep, "marks"))
            assert np.array_equal(marks.generator().random(6), marks1.generator().random(6))

    def test_no_reps(self):
        assert draw_stages(UniformPlacement(), 5, DEFAULT_INSERTION, 0, "none", range(0)) == []


class TestRunReplication:
    def test_deterministic_record(self):
        cfg = ExperimentConfig(
            UniformPlacement(), FalseOnly(3),
            grid=(21, 21), source=(10, 20), target=(10, 1),
            insertion=Window(4.0, 16.0, 4.0, 16.0), radius=1.5, reps=2,
        )
        assert run_replication(cfg, 1) == run_replication(cfg, 1)

    def test_single_false_obstacle_default_scene(self):
        cfg = ExperimentConfig(UniformPlacement(), FalseOnly(1), reps=30)
        records = [run_replication(cfg, rep) for rep in range(30)]
        for r in records:
            assert r.C >= 99.0
            assert r.C == pytest.approx(r.walk_length + 5.0 * r.n_dis, rel=1e-12)
        assert any(r.C == 99.0 for r in records)

    def test_record_fields(self):
        cfg = ExperimentConfig(
            StraussPlacement(gamma=0.4, d=6.0, burn_in=20), Mixed(2, 3),
            grid=(21, 21), source=(10, 20), target=(10, 1),
            insertion=Window(4.0, 16.0, 4.0, 16.0), radius=1.5,
        )
        r = run_replication(cfg, 7)
        assert r.placement == "strauss"
        assert (r.gamma, r.d) == (0.4, 6.0)
        assert (r.kappa, r.r0) == (None, None)
        assert (r.composition, r.n_T, r.n_F, r.rep) == ("mixed", 2, 3, 7)
        assert r.seed == stream_index(cfg.cell_key(), 7, "placement")


class TestRunSweep:
    def small_config(self, reps=3, seed=0):
        return ExperimentConfig(
            UniformPlacement(), FalseOnly(2),
            grid=(21, 21), source=(10, 20), target=(10, 1),
            insertion=Window(4.0, 16.0, 4.0, 16.0), radius=1.5,
            reps=reps, master_seed=seed,
        )

    def test_rep_order(self):
        cfg = self.small_config(reps=3)
        records = run_sweep([cfg])
        assert [r.rep for r in records] == [0, 1, 2]
        assert records == [run_replication(cfg, i) for i in range(3)]

    def test_multiple_configs_keep_config_order(self):
        a = self.small_config(reps=2, seed=0)
        b = self.small_config(reps=2, seed=99)
        records = run_sweep([a, b])
        assert [r.rep for r in records] == [0, 1, 0, 1]
        assert records[:2] == [run_replication(a, i) for i in range(2)]
        assert records[2:] == [run_replication(b, i) for i in range(2)]

    def test_parallel_matches_serial(self):
        cfg = self.small_config(reps=4)
        assert run_sweep([cfg], jobs=2) == run_sweep([cfg], jobs=1)

    @pytest.mark.parametrize(
        "reps, jobs, workers", [(3, 500, [3]), (3, 2, [2]), (1, 500, [])],
        ids=["capped", "below-cap", "one-task-serial"],
    )
    def test_jobs_start_at_most_one_worker_per_task(self, monkeypatch, reps, jobs, workers):
        # a process pool starts all max_workers at its first submit, so the
        # count is read off a stand-in pool that runs the tasks in-process
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        cfg = self.small_config(reps=reps)
        serial = run_sweep([cfg])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        assert run_sweep([cfg], jobs=jobs) == serial
        assert started == workers

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([])

    @pytest.mark.parametrize(
        "first, second",
        [
            # [composition] n_false = 5,5
            (dict(composition=FalseOnly(5)), dict(composition=FalseOnly(5))),
            # [placement] d = 7,7.0
            (dict(placement=StraussPlacement(gamma=0.0, d=7, burn_in=5)),
             dict(placement=StraussPlacement(gamma=0.0, d=7.0, burn_in=5))),
            # n_total = 10 at frac_true 0.5 and 0.52: both round to 5 true
            (dict(composition=Mixed(n_T=round(0.5 * 10), n_F=5)),
             dict(composition=Mixed(n_T=round(0.52 * 10), n_F=5))),
        ],
        ids=["n_false", "strauss-d", "frac_true"],
    )
    def test_duplicate_cell_rejected_before_any_replication(self, monkeypatch, first, second):
        # a repeated cell would run the same replications twice and count
        # one sample as two
        other = self.small_config()
        a, b = replace(other, **first), replace(other, **second)
        assert a.cell_key() == b.cell_key() != other.cell_key()
        monkeypatch.setattr(montecarlo, "run_replication", pytest.fail)
        with pytest.raises(ValueError, match="duplicate sweep cell") as err:
            run_sweep([a, other, b])
        assert a.cell_key() in str(err.value)

    def test_progress_callback(self):
        seen = []
        run_sweep([self.small_config(reps=3)],
                  progress=lambda i, n: seen.append((i, n)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_infeasible_cell_is_named(self):
        # corridor-wide true obstacle: disambiguation reveals a hard wall
        cfg = ExperimentConfig(
            UniformPlacement(), TrueOnly(1),
            grid=(3, 21), source=(1, 20), target=(1, 0),
            insertion=Window(0.9, 1.1, 8.0, 12.0), radius=1.3,
            reps=1,
        )
        with pytest.raises(SweepCellError) as err:
            run_sweep([cfg])
        assert err.value.cell_key == cfg.cell_key()
        assert err.value.rep == 0
        assert isinstance(err.value.cause, InfeasibleSceneError)


class TestSummarize:
    def test_single_record(self):
        rows = summarize([record(104.5, n_dis=1)], group_by=("placement",))
        (row,) = rows
        assert row.mean_C == 104.5
        assert row.var_C == 0.0
        assert row.range_C == 0.0
        assert row.count == 1
        assert row.mean_n_dis == 1.0

    def test_two_records(self):
        rows = summarize(
            [record(100.0, rep=0), record(110.0, rep=1)], group_by=("placement",)
        )
        (row,) = rows
        assert row.mean_C == 105.0
        assert row.var_C == 25.0
        assert (row.min_C, row.max_C, row.range_C) == (100.0, 110.0, 10.0)

    def test_grouping_pools_cells(self):
        recs = [
            record(100.0, gamma=0.0, placement="strauss", rep=0),
            record(102.0, gamma=0.0, placement="strauss", rep=1),
            record(120.0, gamma=1.0, placement="strauss", rep=0),
            record(99.0, placement="uniform", rep=0),
        ]
        rows = summarize(recs, group_by=("placement", "gamma"))
        cells = {row.cell: row for row in rows}
        assert cells[("strauss", 0.0)].mean_C == 101.0
        assert cells[("strauss", 0.0)].count == 2
        assert cells[("strauss", 1.0)].mean_C == 120.0
        assert cells[("uniform", None)].count == 1
        assert len(rows) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], group_by=("placement",))
