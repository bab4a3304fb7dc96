import math

import numpy as np
import pytest

from _oracle import (
    Disk,
    Point2,
    disk,
    edge_points,
    seed_sequence_generator,
    segment_disk_intersects,
)
from obstaclesim.geometry import build_lattice, lattice_vertex
from obstaclesim.montecarlo import (
    DEFAULT_COST,
    DEFAULT_GRID,
    DEFAULT_INSERTION,
    DEFAULT_RADIUS,
    MaternPlacement,
    StraussPlacement,
    UniformPlacement,
    _lattice,
    build_obstacles,
    draw_stages,
    placement_key,
    stream_index,
)
from obstaclesim import montecarlo, ordering, pointproc
from obstaclesim.ordering import (
    _CHUNK_OBSTACLES,
    Ecdf,
    _FixedPath,
    _run_variants,
    coupled_composition_samples,
    default_column_path,
    dominates_st,
    ratio_sweep_samples,
    sensor_fidelity_samples,
    true_count_for_ratio,
)
from obstaclesim.pointproc import RngStream, Window
from obstaclesim.sensor import MARK_EPS, SensorModel

# the bent path of a 21x21 lattice: down column 10, then five diagonal steps
BENT_PATH = [lattice_vertex(21, 10, 20 - k) for k in range(12)] + [
    lattice_vertex(21, 10 + k, 9 - k) for k in range(1, 6)
]


def _path_segments(graph, path):
    """The segments of a path's steps, from ``graph.segments()``, as column
    vectors (a step's edge once per step), and the path length."""
    eids = graph.edge_ids(path[:-1], path[1:])
    return graph.segments().take(eids[:, None]), float(sum(graph.edge_length[eids].tolist()))


def _oracle_coupled_rep(
    segs, length, n_o, placement, variants, insertion, cost, radius, master_seed, cell, rep
):
    """The coupled replication before it was made lean: status and marks
    generators keyed through SeedSequence, a fresh marks generator per
    variant, the Point2 round trip, the full disk-edge hit matrix over the
    path's steps (``_path_segments``), the Beta draw through np.any/np.clip
    and one weight sum per variant. _run_variants must give its weights bit
    for bit."""
    place_stream = RngStream(master_seed, stream_index(cell, rep, "placement"))
    status_index = stream_index(cell, rep, "status")
    marks_index = stream_index(cell, rep, "marks")
    xs, ys = placement.sample(n_o, insertion, place_stream)
    pts = [Point2(float(x), float(y)) for x, y in zip(xs, ys)]
    px = np.array([p.x for p in pts])
    py = np.array([p.y for p in pts])
    hits = segs.disk_hits(px[None, :], py[None, :], radius).sum(axis=0)
    perm = seed_sequence_generator(master_seed, status_index).permutation(n_o)
    out = {}
    for label, n_true, sensor in variants:
        true_mask = np.zeros(n_o, dtype=bool)
        true_mask[perm[:n_true]] = True
        a_arr = np.where(true_mask, sensor.b, sensor.a)
        b_arr = np.where(true_mask, sensor.a, sensor.b)
        gen = seed_sequence_generator(master_seed, marks_index)
        g1 = gen.gamma(a_arr, 1.0)
        g2 = gen.gamma(b_arr, 1.0)
        p = g1 / (g1 + g2)
        assert not np.any(~np.isfinite(p))
        marks = np.clip(p, MARK_EPS, 1.0 - MARK_EPS)
        w = length + 0.5 * float(np.sum(hits * (cost / (1.0 - marks))))
        out[label] = (frozenset(int(i) for i in perm[:n_true]), marks, w)
    return px, py, perm, out


def _oracle_run_variants(
    n_o, placement, variants, reps, path, *, grid=DEFAULT_GRID,
    insertion=DEFAULT_INSERTION, cost=DEFAULT_COST, radius=DEFAULT_RADIUS,
    master_seed=0, tag="ordering",
):
    graph = _lattice(grid)
    if path is None:
        path = default_column_path(grid)
    segs, length = _path_segments(graph, path)
    labels = [v[0] for v in variants]
    cell = (
        f"{tag}/n={n_o}/{placement_key(placement)}/r={radius}/c={cost}"
        f"/path={len(path)}:{path[0]}-{path[-1]}"
    )
    samples = {lab: [] for lab in labels}
    for rep in range(reps):
        _, _, _, out = _oracle_coupled_rep(
            segs, length, n_o, placement, variants, insertion, cost, radius,
            master_seed, cell, rep,
        )
        for lab in labels:
            samples[lab].append(out[lab][2])
    return {lab: np.array(vals) for lab, vals in samples.items()}


def _variant_sets(n_o):
    sharp, blunt = SensorModel(2.0, 6.0), SensorModel(3.0, 5.0)
    ratios = (0.0, 1 / 3, 1.0, 3.0, math.inf)
    return {
        "composition": [
            ("falseonly", 0, sharp), ("mixed", n_o // 2, sharp), ("trueonly", n_o, sharp)
        ],
        "ratio": [(f"rho={rho}", true_count_for_ratio(rho, n_o), sharp) for rho in ratios],
        "fidelity-falseonly": [("sharp", 0, sharp), ("blunt", 0, blunt)],
        "fidelity-trueonly": [("sharp", n_o, sharp), ("blunt", n_o, blunt)],
    }


class TestEcdf:
    def test_evaluate(self):
        f = Ecdf.from_samples([3.0, 1.0, 2.0])
        ts = [0.5, 1.0, 1.5, 2.5, 3.0, 9.0]
        want = [0.0, 1 / 3, 1 / 3, 2 / 3, 1.0, 1.0]
        assert list(f.evaluate(ts)) == pytest.approx(want)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ecdf.from_samples([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Ecdf.from_samples([1.0, math.nan, 2.0])

    def test_infinities_accepted(self):
        f = Ecdf.from_samples([math.inf, 1.0, -math.inf])
        assert list(f.evaluate([-math.inf, 0.0, 1.0, 9.0, math.inf])) == pytest.approx(
            [1 / 3, 1 / 3, 2 / 3, 2 / 3, 1.0]
        )


class TestDominatesSt:
    def test_shifted_samples_dominate(self):
        rep = dominates_st([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert rep.holds
        assert rep.max_violation <= 0.0
        assert rep.mean_x < rep.mean_y

    def test_reflexive(self):
        x = [1.0, 5.0, 2.5, 2.5]
        rep = dominates_st(x, x)
        assert rep.holds
        assert rep.max_violation == 0.0

    def test_reversed_pair_fails_maximally(self):
        rep = dominates_st([5.0], [1.0])
        assert not rep.holds
        assert rep.max_violation == 1.0

    def test_violation_exactly_tol_holds(self):
        # F_Y - F_X = 7/50 - 6/50 = 0.02 exactly; the float ECDF difference
        # rounds to 0.020000000000000018, which must not decide the verdict
        x = [0.0] * 6 + [100.0] * 44
        y = [0.0] * 7 + [100.0] * 43
        rep = dominates_st(x, y, tol=0.02)
        assert rep.holds
        assert rep.max_violation == 7 / 50 - 6 / 50
        assert not dominates_st(x, [0.0] * 8 + [100.0] * 42, tol=0.02).holds
        # unequal sample sizes: 8/100 - 3/50 = 0.02 exactly
        rep = dominates_st([0.0] * 3 + [9.0] * 47, [0.0] * 8 + [9.0] * 92, tol=0.02)
        assert rep.holds

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
        assert rep.holds
        assert rep.mean_x <= rep.mean_y
        assert rep.median_x <= rep.median_y

    def test_labels_and_counts_recorded(self):
        rep = dominates_st([1.0, 2.0], [3.0], label_x="lo", label_y="hi")
        assert (rep.label_x, rep.label_y) == ("lo", "hi")
        assert (rep.n_x, rep.n_y) == (2, 1)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            dominates_st([1.0], [2.0], tol=-0.1)

    def test_nan_tol_rejected(self):
        # a NaN tolerance would make every "exact <= tol" verdict False
        with pytest.raises(ValueError, match="tol must be >= 0"):
            dominates_st([1.0], [1.0], tol=math.nan)

    @pytest.mark.parametrize("x, y", [([5.0, 6.0], [math.nan, math.nan]),
                                      ([5.0, math.nan], [6.0, 7.0])])
    def test_nan_sample_rejected(self, x, y):
        # NaNs sort last and no ECDF counts them: a verdict would be wrong
        with pytest.raises(ValueError, match="NaN in sample"):
            dominates_st(x, y)

    def test_infinite_samples_ordered(self):
        rep = dominates_st([1.0, 2.0], [2.0, math.inf])
        assert rep.holds and rep.mean_y == math.inf
        assert not dominates_st([math.inf], [1.0]).holds

    def test_tolerance_makes_near_ties_pass(self):
        rep = dominates_st([1.0, 2.0, 3.0, 4.0], [0.9, 2.0, 3.0, 4.1], tol=0.25)
        assert rep.max_violation == pytest.approx(0.25)
        assert rep.holds


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


def _scalar_hits(g, path, px, py, r):
    """Per disk, the scalar predicate summed over the path's steps, each
    edge asked in the graph's orientation."""
    ends = [edge_points(g, k) for k in g.edge_ids(path[:-1], path[1:]).tolist()]
    return [
        sum(segment_disk_intersects(a, b, Disk(Point2(x, y), r)) for a, b in ends)
        for x, y in zip(px, py)
    ]


class TestFixedPath:
    def test_edge_hits_match_scalar_predicate(self):
        g = build_lattice(21, 21)
        rng = np.random.default_rng(8)
        px, py = rng.uniform(4, 16, 60), rng.uniform(0, 20, 60)
        for r in (0.5, 1.0, 2.7):
            hits = _FixedPath(g, BENT_PATH).hits(px, py, r)
            assert hits.tolist() == _scalar_hits(g, BENT_PATH, px, py, r)

    def test_an_edge_taken_twice_counts_twice(self):
        # down the column, back up one step and down again: the edge between
        # rows 15 and 14 is taken three times, the length counts each step
        g = build_lattice(21, 21)
        path = [lattice_vertex(21, 10, y) for y in (20, 19, 18, 17, 16, 15, 14, 15, 14, 13)]
        fixed = _FixedPath(g, path)
        assert fixed.length == 9.0
        assert sorted(fixed.mult.tolist()) == [1] * 6 + [3]
        rng = np.random.default_rng(9)
        px, py = rng.uniform(6, 14, 80), rng.uniform(10, 22, 80)
        for r in (0.5, 1.0, 2.7):
            hits = fixed.hits(px, py, r)
            assert hits.tolist() == _scalar_hits(g, path, px, py, r)
            assert hits.max() >= 3

    @pytest.mark.parametrize("r", [2.7, 3.3, 4.5])
    def test_edge_hits_at_and_just_beyond_r_from_the_box(self, r):
        # centres along each side of the path's bounding box, exactly r out
        # and 1..4 ulps beyond: rounding in disk_hits counts some centres
        # beyond r as hits, so the box must be widened past r
        g = build_lattice(21, 21)
        fixed = _FixedPath(g, BENT_PATH)
        x0, x1, y0, y1 = 10.0, 15.0, 4.0, 20.0
        px, py = [], []
        for t in np.linspace(0.0, 1.0, 41):
            xm, ym = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
            for x, y, dx, dy in ((x0 - r, ym, -1, 0), (x1 + r, ym, 1, 0),
                                 (xm, y0 - r, 0, -1), (xm, y1 + r, 0, 1)):
                for _ in range(5):
                    px.append(x)
                    py.append(y)
                    x = np.nextafter(x, dx * np.inf) if dx else x
                    y = np.nextafter(y, dy * np.inf) if dy else y
        px, py = np.array(px), np.array(py)
        segs, _ = _path_segments(g, BENT_PATH)
        full = segs.disk_hits(px[None, :], py[None, :], r).sum(axis=0)
        assert fixed.hits(px, py, r).tolist() == full.tolist()
        beyond = (px < x0 - r) | (px > x1 + r) | (py < y0 - r) | (py > y1 + r)
        assert (full[beyond] > 0).any()


class TestRunVariantsOracle:
    @pytest.mark.parametrize("kind", ["uniform", "strauss", "matern"])
    @pytest.mark.parametrize(
        "path, opts",
        [
            (None, {}),  # the default column path on 101x101
            (BENT_PATH, dict(grid=(21, 21), insertion=Window(2.0, 18.0, 0.0, 20.0),
                             radius=2.7, cost=1.5)),
        ],
        ids=["column", "bent"],
    )
    def test_weights_match_oracle_bitwise(self, kind, path, opts):
        for n_o in (0, 1, 7, 80):
            placement = {
                "uniform": UniformPlacement(),
                "strauss": StraussPlacement(gamma=0.3, d=7.0, burn_in=10),
                "matern": MaternPlacement(kappa=min(3, max(n_o, 1)), r0=6.0),
            }[kind]
            for name, variants in _variant_sets(n_o).items():
                args = (n_o, placement, variants, 12, path)
                got = _run_variants(*args, master_seed=11, tag=name, **opts)
                want = _oracle_run_variants(*args, master_seed=11, tag=name, **opts)
                assert list(got) == list(want)
                for lab in want:
                    assert got[lab].dtype == want[lab].dtype
                    assert np.array_equal(got[lab], want[lab]), (n_o, name, lab)

    def test_duplicate_labels_rejected(self):
        s = SensorModel(2.0, 6.0)
        with pytest.raises(ValueError, match="duplicate"):
            _run_variants(5, UniformPlacement(), [("a", 0, s), ("a", 5, s)], 2, None)

    @pytest.mark.parametrize("n_o", [80, _CHUNK_OBSTACLES + 1], ids=["many", "one"])
    def test_one_past_a_chunk_boundary_matches_oracle_bitwise(self, n_o):
        # 80 obstacles: a full chunk of reps and one more; more obstacles
        # than a chunk holds: one replication per chunk
        reps = max(1, _CHUNK_OBSTACLES // n_o) + 1
        variants = _variant_sets(n_o)["composition"]
        args = (n_o, UniformPlacement(), variants, reps, None)
        got = _run_variants(*args, master_seed=5, tag="chunk")
        want = _oracle_run_variants(*args, master_seed=5, tag="chunk")
        for lab in want:
            assert np.array_equal(got[lab], want[lab]), lab
        assert got["trueonly"][-1] > 99.0


    @pytest.mark.parametrize("kind", ["uniform", "strauss", "matern"])
    def test_weights_are_those_of_the_built_fields(self, kind, monkeypatch):
        # a coupled variant of (cell, rep) weighs the field build_obstacles
        # makes for (cell, rep) with the variant's counts and sensor: one
        # placement, one truth permutation and one mark rule for both
        placement = {
            "uniform": UniformPlacement(),
            "strauss": StraussPlacement(gamma=0.3, d=7.0, burn_in=10),
            "matern": MaternPlacement(kappa=3, r0=6.0),
        }[kind]
        n_o, seed = 40, 13
        path = default_column_path()
        fixed = _FixedPath(_lattice(DEFAULT_GRID), path)
        g = _lattice(DEFAULT_GRID)
        ends = [edge_points(g, k) for k in g.edge_ids(path[:-1], path[1:]).tolist()]
        cells = set()

        def draw(*args):  # the cell key every replication is drawn under
            cells.add(args[4])
            return draw_stages(*args)

        monkeypatch.setattr(ordering, "draw_stages", draw)
        runs = [
            (variants, _run_variants(n_o, placement, variants, 3, path, master_seed=seed,
                                     tag="coupling"))
            for variants in _variant_sets(n_o).values()
        ]
        (cell,) = cells  # the variant sets differ only in labels and counts
        hit = False
        for rep in range(3):
            hits = None
            for variants, out in runs:
                weights = [out[label][rep] for label, _, _ in variants]
                for (label, n_true, sensor), w in zip(variants, weights):
                    obs = build_obstacles(
                        placement, n_true, n_o - n_true, sensor, master_seed=seed,
                        cell_key=cell, rep=rep,
                    )
                    if hits is None:
                        hits = np.array([
                            sum(segment_disk_intersects(a, b, disk(obs, k))
                                for a, b in ends)
                            for k in range(n_o)
                        ])
                        hit |= bool(hits.any())
                    want = fixed.length + 0.5 * float(np.sum(hits * (obs.c / (1.0 - obs.p))))
                    assert w == want, (rep, label)
        assert hit


class TestKeyedStreams:
    def test_no_seed_sequence_and_one_key_pass_per_chunk(self, monkeypatch):
        # the coupled replications and the built fields key every Philox
        # from stream_keys, one call per chunk of replications (or per
        # field), and never build a SeedSequence
        def no_seed_sequence(*args, **kwargs):
            raise AssertionError("a SeedSequence was built")

        philox, stream_keys, key_passes = np.random.Philox, pointproc.stream_keys, []

        def keyed_philox(seed):
            assert isinstance(seed, pointproc._Key)
            return philox(seed)

        def counted_keys(*args):
            key_passes.append(len(args[1]))
            return stream_keys(*args)

        want = _oracle_run_variants(
            80, UniformPlacement(), _variant_sets(80)["ratio"], 60, None, tag="keys"
        )
        monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
        monkeypatch.setattr(np.random, "Philox", keyed_philox)
        for module in (pointproc, montecarlo):
            monkeypatch.setattr(module, "stream_keys", counted_keys)
        got = _run_variants(80, UniformPlacement(), _variant_sets(80)["ratio"], 60, None,
                            tag="keys")
        per_chunk = _CHUNK_OBSTACLES // 80
        assert key_passes == [3 * per_chunk, 3 * (60 - per_chunk)]
        for lab in want:
            assert np.array_equal(got[lab], want[lab]), lab
        key_passes.clear()
        build_obstacles(UniformPlacement(), 3, 5, SensorModel(2.0, 6.0), rep=4)
        assert key_passes == [3]


def _no_draw(*args):
    raise AssertionError("a replication was drawn")


class TestBadInputRejected:
    # a bad radius, cost or path is refused before any replication is drawn

    @pytest.mark.parametrize("radius", [-4.5, 0.0, math.nan, math.inf, 1e80])
    def test_bad_radius(self, radius, monkeypatch):
        monkeypatch.setattr(ordering, "draw_stages", _no_draw)
        with pytest.raises(ValueError, match=r"radius must be finite, > 0 and at most 2\*\*200"):
            coupled_composition_samples(10, reps=2, radius=radius)

    @pytest.mark.parametrize("cost", [-5.0, 0.0, math.nan, math.inf])
    def test_bad_cost(self, cost, monkeypatch):
        monkeypatch.setattr(ordering, "draw_stages", _no_draw)
        with pytest.raises(ValueError, match="cost must be finite and > 0"):
            ratio_sweep_samples(10, [1.0], reps=2, cost=cost)

    def test_default_path_off_a_small_grid(self, monkeypatch):
        monkeypatch.setattr(ordering, "draw_stages", _no_draw)
        with pytest.raises(ValueError, match="leaves the 21x21 grid"):
            coupled_composition_samples(10, reps=2, grid=(21, 21))

    def test_path_vertex_off_the_grid(self, monkeypatch):
        monkeypatch.setattr(ordering, "draw_stages", _no_draw)
        path = [lattice_vertex(21, 10, 20), lattice_vertex(21, 10, 19), 21 * 21]
        with pytest.raises(ValueError, match=r"path step \(409, 441\) is not an edge"):
            sensor_fidelity_samples(
                SensorModel(2, 6), SensorModel(3, 5), "falseonly", 10, reps=2,
                path=path, grid=(21, 21),
            )

    def test_path_step_between_non_adjacent_vertices(self, monkeypatch):
        monkeypatch.setattr(ordering, "draw_stages", _no_draw)
        path = [lattice_vertex(21, 10, 20), lattice_vertex(21, 10, 18)]
        with pytest.raises(ValueError, match=r"path step \(388, 430\) is not an edge"):
            coupled_composition_samples(10, reps=2, path=path, grid=(21, 21))

    def test_column_wrapping_past_the_grid_edge(self):
        # x = 30 on a 21-wide grid would be a column at x = 9, shifted a row
        with pytest.raises(ValueError, match="leaves the 21x40 grid"):
            default_column_path(grid=(21, 40), x=30, y_from=30, y_to=1)


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

    def test_equal_radius_and_cost_give_equal_samples(self):
        # 4 == 4.0: one stream key, so the same coupled samples
        placement = StraussPlacement(gamma=0, d=7, burn_in=5)
        a = coupled_composition_samples(8, placement, reps=4, radius=4, cost=2)
        b = coupled_composition_samples(
            8, StraussPlacement(gamma=0.0, d=7.0, burn_in=5), reps=4, radius=4.0, cost=2.0
        )
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_dominance_at_moderate_reps(self):
        w_f, w_m, w_t = coupled_composition_samples(20, reps=800)
        assert dominates_st(w_f, w_m, tol=0.05).holds
        assert dominates_st(w_m, w_t, tol=0.05).holds


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

    @pytest.mark.parametrize("ratios", [[1.0, 1.0], [1, 2.0, 1.0], [0.0, -0.0]])
    def test_duplicate_ratios_rejected(self, ratios):
        # equal ratios would share one label and one result key
        with pytest.raises(ValueError, match="duplicate"):
            ratio_sweep_samples(10, ratios, reps=2)


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
        assert dominates_st(w_sharp, w_blunt, tol=0.05).holds
        assert w_sharp.mean() < w_blunt.mean()

    def test_true_fields_reverse_the_direction(self):
        w_sharp, w_blunt = sensor_fidelity_samples(
            SensorModel(2, 6), SensorModel(3, 5), "trueonly", 20, reps=800
        )
        assert dominates_st(w_blunt, w_sharp, tol=0.05).holds
        assert w_blunt.mean() < w_sharp.mean()

