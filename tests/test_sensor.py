import math

import numpy as np
import pytest
import scipy.special

from obstaclesim.pointproc import RngStream
from obstaclesim.sensor import (
    MARK_EPS,
    ObstacleError,
    Obstacles,
    SensorModel,
    assign_marks,
    beta_cdf,
    beta_variates,
    mark_shapes,
)

#: a valid two-obstacle field, one keyword per array
FIELD = dict(x=[0.0, 1.0], y=[0.0, 2.0], r=[1.0, 0.5], c=[5.0, 3.0], p=[0.25, 0.75],
             true=[False, True])


class TestStatusAndKnowledge:
    def test_obstacle_validation(self):
        # one rejected value after another, each in obstacle 1 of a valid field
        cases = [
            ("x", math.nan), ("x", math.inf), ("y", -math.inf),
            ("r", 0.0), ("r", -1.0), ("r", math.inf),
            ("c", 0.0), ("c", -2.0), ("c", math.inf), ("c", math.nan),
            ("p", 0.0), ("p", 1.0), ("p", MARK_EPS / 2), ("p", math.nan),
        ]
        for name, bad in cases:
            values = list(FIELD[name])
            values[1] = bad
            with pytest.raises(ObstacleError) as info:
                Obstacles(**dict(FIELD, **{name: values}))
            assert info.value.index == 1, (name, bad)
            assert str(info.value).startswith("obstacle 1: "), (name, bad)

    @pytest.mark.parametrize(
        "name, bad", [("true", [0, 1]), ("true", [None, True]), ("p", [0.5]),
                      ("x", [[0.0, 1.0]])],
    )
    def test_obstacle_arrays_validation(self, name, bad):
        with pytest.raises(ValueError):
            Obstacles(**dict(FIELD, **{name: bad}))

    def test_obstacles_are_read_only_copies(self):
        xs = np.array(FIELD["x"])
        field = Obstacles(**dict(FIELD, x=xs))
        xs[0] = 7.0
        assert field.x.tolist() == FIELD["x"]
        with pytest.raises(ValueError):
            field.c[0] = 1.0
        with pytest.raises(AttributeError):
            field.p = np.array([0.5, 0.5])
        assert field.true.dtype == bool
        assert (field.x[1], field.y[1], field.r[1]) == (1.0, 2.0, 0.5)
        assert field == Obstacles(**FIELD)
        assert field != Obstacles(**dict(FIELD, c=[5.0, 3.5]))
        empty = Obstacles((), (), (), (), (), ())
        assert len(empty) == 0 and empty.true.dtype == bool


class TestSensorModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SensorModel(0.0, 6.0)
        with pytest.raises(ValueError):
            SensorModel(2.0, -1.0)

    def test_non_discriminating_warns(self):
        with pytest.warns(UserWarning):
            SensorModel(6.0, 2.0)
        with pytest.warns(UserWarning):
            SensorModel(3.0, 3.0)

    def test_discriminating_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SensorModel(2.0, 6.0)


class TestBetaSampling:
    def test_uniform_special_case_ks(self):
        gen = RngStream(11).generator()
        x = np.sort(beta_variates(1.0, 1.0, gen, size=100_000))
        n = len(x)
        grid_hi = np.arange(1, n + 1) / n
        grid_lo = np.arange(0, n) / n
        ks = max(np.max(grid_hi - x), np.max(x - grid_lo))
        assert ks <= 0.01

    def test_means(self):
        gen = RngStream(12).generator()
        low = beta_variates(2.0, 6.0, gen, size=100_000)
        high = beta_variates(6.0, 2.0, gen, size=100_000)
        assert abs(low.mean() - 0.25) < 0.005
        assert abs(high.mean() - 0.75) < 0.005

    def test_vector_shapes(self):
        gen = RngStream(13).generator()
        a = np.array([2.0, 6.0, 1.0])
        b = np.array([6.0, 2.0, 1.0])
        out = beta_variates(a, b, gen)
        assert out.shape == (3,)

    def test_extreme_shapes_stay_clamped(self):
        gen = RngStream(14).generator()
        x = beta_variates(1e-3, 1.0, gen, size=10_000)
        assert x.min() >= MARK_EPS
        y = beta_variates(1.0, 1e-3, gen, size=10_000)
        assert y.max() <= 1.0 - MARK_EPS


class TestAssignMarks:
    def test_empty(self):
        marks = assign_marks(np.zeros(0, dtype=bool), SensorModel(2, 6), RngStream(0))
        assert marks.size == 0

    def test_all_false_mean(self):
        marks = assign_marks(np.zeros(10_000, dtype=bool), SensorModel(2, 6), RngStream(21))
        assert abs(marks.mean() - 0.25) < 0.015

    def test_true_marks_run_higher(self):
        true = np.arange(1000) % 2 == 0
        marks = assign_marks(true, SensorModel(2, 6), RngStream(22))
        assert marks[true].mean() > marks[~true].mean()

    def test_one_mark_per_obstacle_in_range(self):
        true = np.array([False, True, True])
        marks = assign_marks(true, SensorModel(2, 6), RngStream(23))
        assert marks.shape == (3,) and marks.dtype == np.float64
        assert np.all((marks >= MARK_EPS) & (marks <= 1.0 - MARK_EPS))

    def test_reproducible(self):
        true = np.zeros(40, dtype=bool)
        m1 = assign_marks(true, SensorModel(2, 6), RngStream(24, 2))
        m2 = assign_marks(true, SensorModel(2, 6), RngStream(24, 2))
        assert m1.tolist() == m2.tolist()

    @pytest.mark.parametrize(
        "kind, sizes",
        [("empty", (0,)), ("all-false", (1, 2, 40, 333)), ("all-true", (1, 2, 40, 333)),
         ("mixed", (2, 40, 333))],
    )
    def test_equals_a_draw_with_per_draw_shapes(self, kind, sizes):
        # a single-status field gets scalar shapes; its marks must be those
        # of per-draw shape arrays, Beta(a, b) for false and Beta(b, a) for true
        model = SensorModel(2.0, 6.0)
        for seed in (0, 7, 31):
            for n in sizes:
                true = {
                    "empty": np.zeros(0, dtype=bool),
                    "all-false": np.zeros(n, dtype=bool),
                    "all-true": np.ones(n, dtype=bool),
                    "mixed": np.arange(n) % 3 == 0,
                }[kind]
                stream = RngStream(seed, n)
                a = np.where(true, model.b, model.a)
                b = np.where(true, model.a, model.b)
                want = beta_variates(a, b, stream.generator())
                got = assign_marks(true, model, stream)
                assert got.tobytes() == want.tobytes(), (seed, n)
                scalar = kind != "mixed"
                assert [np.ndim(v) == 0 for v in mark_shapes(true, model)] == [scalar] * 2


class TestBetaCdf:
    def test_uniform_is_identity(self):
        assert beta_cdf(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_median(self):
        assert beta_cdf(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_endpoints(self):
        assert beta_cdf(2.0, 6.0, 0.0) == 0.0
        assert beta_cdf(2.0, 6.0, 1.0) == 1.0

    def test_monotone_in_x(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [beta_cdf(2.0, 6.0, float(x)) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_reflection_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b = rng.uniform(0.2, 12.0, size=2)
            x = float(rng.uniform(0.0, 1.0))
            lhs = beta_cdf(float(a), float(b), x)
            rhs = 1.0 - beta_cdf(float(b), float(a), 1.0 - x)
            assert abs(lhs - rhs) <= 1e-10

    def test_sharper_false_marks_sit_lower(self):
        # Beta(2,6) mass sits left of Beta(6,2): its CDF is pointwise >=
        for x in np.linspace(0.0, 1.0, 201):
            assert beta_cdf(2.0, 6.0, float(x)) >= beta_cdf(6.0, 2.0, float(x))

    def test_against_scipy(self):
        rng = np.random.default_rng(32)
        cases = [(rng.uniform(0.1, 20.0), rng.uniform(0.1, 20.0), rng.uniform(0, 1))
                 for _ in range(500)]
        cases += [
            (0.01, 0.01, 0.5),
            (50.0, 0.5, 0.99),
            (0.5, 50.0, 0.01),
            (100.0, 100.0, 0.5),
        ]
        for a, b, x in cases:
            mine = beta_cdf(float(a), float(b), float(x))
            ref = float(scipy.special.betainc(a, b, x))
            assert abs(mine - ref) <= 1e-10, (a, b, x)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            beta_cdf(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            beta_cdf(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            beta_cdf(1.0, 1.0, 1.1)
