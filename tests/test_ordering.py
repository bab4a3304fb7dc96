import math

import numpy as np
import pytest

from obstaclesim.geometry import (
    Disk,
    Point2,
    build_lattice,
    lattice_vertex,
    segment_disk_intersects,
)
from obstaclesim.ordering import (
    Ecdf,
    _FixedPath,
    coupled_composition_samples,
    default_column_path,
    dominates_st,
    lemma1_mc_check,
    ratio_sweep_samples,
    sensor_fidelity_samples,
    true_count_for_ratio,
)
from obstaclesim.pointproc import Window
from obstaclesim.sensor import SensorModel


class TestEcdf:
    def test_evaluate(self):
        f = Ecdf.from_samples([3.0, 1.0, 2.0])
        ts = [0.5, 1.0, 1.5, 2.5, 3.0, 9.0]
        want = [0.0, 1 / 3, 1 / 3, 2 / 3, 1.0, 1.0]
        assert list(f.evaluate(ts)) == pytest.approx(want)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ecdf.from_samples([])


class TestDominatesSt:
    def test_shifted_samples_dominate(self):
        rep = dominates_st([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert rep.dominance_holds
        assert rep.max_violation <= 0.0
        assert rep.mean_x < rep.mean_y

    def test_reflexive(self):
        x = [1.0, 5.0, 2.5, 2.5]
        rep = dominates_st(x, x)
        assert rep.dominance_holds
        assert rep.max_violation == 0.0

    def test_reversed_pair_fails_maximally(self):
        rep = dominates_st([5.0], [1.0])
        assert not rep.dominance_holds
        assert rep.max_violation == 1.0

    def test_violation_exactly_tol_holds(self):
        # F_Y - F_X = 7/50 - 6/50 = 0.02 exactly; the float ECDF difference
        # rounds to 0.020000000000000018, which must not decide the verdict
        x = [0.0] * 6 + [100.0] * 44
        y = [0.0] * 7 + [100.0] * 43
        rep = dominates_st(x, y, tol=0.02)
        assert rep.dominance_holds
        assert rep.max_violation == 7 / 50 - 6 / 50
        assert not dominates_st(x, [0.0] * 8 + [100.0] * 42, tol=0.02).dominance_holds
        # unequal sample sizes: 8/100 - 3/50 = 0.02 exactly
        rep = dominates_st([0.0] * 3 + [9.0] * 47, [0.0] * 8 + [9.0] * 92, tol=0.02)
        assert rep.dominance_holds

    def test_violation_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rep = dominates_st(rng.normal(size=40), rng.normal(size=60))
            assert -1.0 <= rep.max_violation <= 1.0

    def test_dominance_orders_means_and_medians(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=500)
        y = x + rng.uniform(0.0, 0.5, size=500)  # pathwise >=, so st >=
        rep = dominates_st(x, y)
        assert rep.dominance_holds
        assert rep.mean_x <= rep.mean_y
        assert rep.median_x <= rep.median_y

    def test_labels_and_counts_recorded(self):
        rep = dominates_st([1.0, 2.0], [3.0], label_x="lo", label_y="hi")
        assert (rep.label_x, rep.label_y) == ("lo", "hi")
        assert (rep.n_x, rep.n_y) == (2, 1)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            dominates_st([1.0], [2.0], tol=-0.1)

    def test_tolerance_makes_near_ties_pass(self):
        rep = dominates_st([1.0, 2.0, 3.0, 4.0], [0.9, 2.0, 3.0, 4.1], tol=0.25)
        assert rep.max_violation == pytest.approx(0.25)
        assert rep.dominance_holds


class TestDefaultColumnPath:
    def test_default_runs_down_column_50(self):
        path = default_column_path()
        assert len(path) == 100
        assert path[0] == lattice_vertex(101, 50, 100)
        assert path[-1] == lattice_vertex(101, 50, 1)
        steps = {a - b for a, b in zip(path, path[1:])}
        assert steps == {101}  # one row down per step

    def test_custom_grid(self):
        path = default_column_path(grid=(21, 21), x=10, y_from=20, y_to=1)
        assert path[0] == lattice_vertex(21, 10, 20)
        assert path[-1] == lattice_vertex(21, 10, 1)


class TestFixedPath:
    def test_edge_hits_match_scalar_predicate(self):
        # the broadcast hit count equals the scalar predicate summed over edges
        g = build_lattice(21, 21)
        path = [lattice_vertex(21, 10, 20 - k) for k in range(12)]
        path += [lattice_vertex(21, 10 + k, 9 - k) for k in range(1, 6)]
        rng = np.random.default_rng(8)
        px, py = rng.uniform(4, 16, 60), rng.uniform(0, 20, 60)
        for r in (0.5, 1.0, 2.7):
            hits = _FixedPath(g, path).edge_hits(px, py, r)
            want = [
                sum(
                    segment_disk_intersects(
                        g.points[a], g.points[b], Disk(Point2(x, y), r)
                    )
                    for a, b in zip(path, path[1:])
                )
                for x, y in zip(px, py)
            ]
            assert hits.tolist() == want


class TestCoupledComposition:
    def test_obstacles_clear_of_path_give_baseline_weight(self):
        # insertion window at least 10 units from column x=50: no disk with
        # r=4.5 can reach the path, so every variant weighs exactly 99
        w_f, w_m, w_t = coupled_composition_samples(
            10, reps=5, insertion=Window(60.0, 90.0, 10.0, 90.0)
        )
        for arr in (w_f, w_m, w_t):
            assert arr.shape == (5,)
            assert np.all(arr == 99.0)

    def test_sample_means_are_ordered(self):
        w_f, w_m, w_t = coupled_composition_samples(20, reps=400)
        assert w_f.mean() < w_m.mean() < w_t.mean()

    def test_deterministic(self):
        a = coupled_composition_samples(8, reps=6)
        b = coupled_composition_samples(8, reps=6)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_dominance_at_moderate_reps(self):
        w_f, w_m, w_t = coupled_composition_samples(20, reps=800)
        assert dominates_st(w_f, w_m, tol=0.05).dominance_holds
        assert dominates_st(w_m, w_t, tol=0.05).dominance_holds


class TestTrueCountForRatio:
    def test_reference_values(self):
        assert true_count_for_ratio(0.0, 40) == 0
        assert true_count_for_ratio(1 / 3, 40) == 10
        assert true_count_for_ratio(1.0, 40) == 20
        assert true_count_for_ratio(3.0, 40) == 30
        assert true_count_for_ratio(math.inf, 40) == 40

    def test_rounding(self):
        assert true_count_for_ratio(1.0, 5) == 2  # 2.5 rounds to even

    def test_invalid(self):
        with pytest.raises(ValueError):
            true_count_for_ratio(-0.5, 40)
        with pytest.raises(ValueError):
            true_count_for_ratio(float("nan"), 40)


class TestRatioSweep:
    def test_extreme_ratios_reproduce_compositions_bitwise(self):
        w_f, _, w_t = coupled_composition_samples(10, reps=8)
        by_ratio = ratio_sweep_samples(10, [0.0, math.inf], reps=8)
        assert np.array_equal(by_ratio[0.0], w_f)
        assert np.array_equal(by_ratio[math.inf], w_t)

    def test_means_increase_with_ratio(self):
        ratios = [1 / 3, 1.0, 3.0]
        out = ratio_sweep_samples(24, ratios, reps=300)
        means = [out[r].mean() for r in ratios]
        assert means[0] < means[1] < means[2]

    def test_empty_ratios_rejected(self):
        with pytest.raises(ValueError):
            ratio_sweep_samples(10, [])


class TestSensorFidelity:
    def test_identical_models_tie_exactly(self):
        w_sharp, w_blunt = sensor_fidelity_samples(
            SensorModel(2, 6), SensorModel(2, 6), "falseonly", 10, reps=6
        )
        assert np.array_equal(w_sharp, w_blunt)

    def test_misordered_models_rejected(self):
        with pytest.raises(ValueError):
            sensor_fidelity_samples(
                SensorModel(3, 5), SensorModel(2, 6), "falseonly", 10, reps=2
            )

    def test_bad_composition_rejected(self):
        with pytest.raises(ValueError):
            sensor_fidelity_samples(
                SensorModel(2, 6), SensorModel(3, 5), "mixed", 10, reps=2
            )

    def test_false_fields_favor_the_sharper_sensor(self):
        w_sharp, w_blunt = sensor_fidelity_samples(
            SensorModel(2, 6), SensorModel(3, 5), "falseonly", 20, reps=800
        )
        assert dominates_st(w_sharp, w_blunt, tol=0.05).dominance_holds
        assert w_sharp.mean() < w_blunt.mean()

    def test_true_fields_reverse_the_direction(self):
        w_sharp, w_blunt = sensor_fidelity_samples(
            SensorModel(2, 6), SensorModel(3, 5), "trueonly", 20, reps=800
        )
        assert dominates_st(w_blunt, w_sharp, tol=0.05).dominance_holds
        assert w_blunt.mean() < w_sharp.mean()


class TestLemma1McCheck:
    def test_single_summand(self):
        rep = lemma1_mc_check([((2.0, 6.0), (6.0, 2.0))], reps=2000)
        assert rep.dominance_holds

    def test_identical_pair_ties_exactly(self):
        rep = lemma1_mc_check([((2.0, 6.0), (2.0, 6.0))], reps=500, tol=0.0)
        assert rep.dominance_holds
        assert rep.max_violation <= 0.0

    def test_five_summands(self):
        pairs = [
            ((2.0, 6.0), (6.0, 2.0)),
            ((2.0, 6.0), (3.0, 5.0)),
            ((1.0, 3.0), (3.0, 1.0)),
            ((2.0, 2.0), (3.0, 2.0)),
            ((1.0, 1.0), (2.0, 1.0)),
        ]
        rep = lemma1_mc_check(pairs, reps=2000)
        assert rep.dominance_holds
        assert rep.mean_x < rep.mean_y

    def test_misordered_pair_rejected_before_sampling(self):
        with pytest.raises(ValueError, match="not"):
            lemma1_mc_check([((6.0, 2.0), (2.0, 6.0))], reps=10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lemma1_mc_check([], reps=10)
