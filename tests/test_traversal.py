import math
import re
from heapq import heappop, heappush

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from _oracle import Point2, disk, edge_points, per_edge, segment_disk_intersects
from _replay import replay_and_check
from obstaclesim import geometry, traversal

from obstaclesim.geometry import GeometricGraph, build_lattice, lattice_vertex
from obstaclesim.montecarlo import (
    ExperimentConfig,
    FalseOnly,
    MaternPlacement,
    Mixed,
    StraussPlacement,
    UniformPlacement,
)
from obstaclesim.pointproc import Window
from obstaclesim.sensor import Obstacles
from obstaclesim.traversal import (
    InfeasibleSceneError,
    Scene,
    extract_path,
    rd_traverse,
    shortest_path,
)

BIG = build_lattice(101, 101)  # shared: scenes never write to their graph


def _dijkstra_oracle(graph, weights, src, goal=None):
    """The planner before its goal-directed search: plain Dijkstra.

    Vertices leave the queue in (distance, id) order; the predecessor of a
    vertex is the smallest-id neighbour attaining its final distance; with
    ``goal`` the search stops once the goal is finalized. The adjacency is
    built here from the edge endpoints, not read from the planner's layout.
    """
    w = np.asarray(weights, dtype=np.float64).tolist()
    n = graph.n_vertices
    adjacent = [[] for _ in range(n)]  # (neighbour, edge id), in edge-id order
    for k, (a, b) in enumerate(zip(graph.edge_u.tolist(), graph.edge_v.tolist())):
        adjacent[a].append((b, k))
        adjacent[b].append((a, k))
    dist = [math.inf] * n
    pred = [-1] * n
    done = bytearray(n)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        du, u = heappop(heap)
        if done[u]:
            continue
        done[u] = 1
        if u == goal:
            break
        for v, k in adjacent[u]:
            if done[v]:
                continue
            wk = w[k]
            if wk == math.inf:
                continue
            nd = du + wk
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
            elif nd == dv and u < pred[v]:
                pred[v] = u
    return dist, pred


def labelled(dist) -> int:
    return len(dist) - dist.count(math.inf)


def unit_edge_graph():
    return GeometricGraph([0, 1], [0, 0], [0], [1], [1.0])


# ---------- scalar oracle for the edge-weight rule ----------


def edge_disks(scene: Scene):
    """Each edge's disk ids, ascending, from the scene's incidence."""
    return per_edge(scene.graph, (scene.disk_ptr, scene.inc_edge))


def edge_weights(scene: Scene, know=None, on_edge=None) -> list:
    """Weight of every edge when each disk's knowledge code is ``know[disk]``
    (every disk ambiguous when ``know`` is None); ``on_edge`` is
    :func:`edge_disks` of the scene, computed here when not given."""
    obs = scene.obstacles
    premium = [c / (1.0 - p) for c, p in zip(obs.c.tolist(), obs.p.tolist())]
    if on_edge is None:
        on_edge = edge_disks(scene)

    def weight(length, disks):
        risk = 0.0
        for did in disks:
            code = traversal._AMBIGUOUS if know is None else know[did]
            if code == traversal._KNOWN_TRUE:
                return math.inf
            if code == traversal._AMBIGUOUS:
                risk += premium[did]
        return length + 0.5 * risk

    return [weight(*args) for args in zip(scene.graph.edge_length.tolist(), on_edge)]


def edge_weight(scene: Scene, edge_id: int, know=None) -> float:
    """Weight of one edge (see :func:`edge_weights`)."""
    return edge_weights(scene, know)[edge_id]


def path_weight(scene: Scene, path) -> float:
    """Sum of edge weights along a vertex sequence, every disk ambiguous."""
    weights = edge_weights(scene)
    total = 0.0
    for a, b in zip(path, path[1:]):
        try:
            eid = scene.graph.edge_ids([a], [b])[0]
        except KeyError:
            raise ValueError(f"vertices {a} and {b} are not adjacent") from None
        total += weights[eid]
    return total


def obstacle(center, r, true, p, c=5.0):
    """One obstacle, true or false, as a row for :func:`field`."""
    return (center.x, center.y, r, c, p, true)


def field(*rows):
    """The obstacle field of the given :func:`obstacle` rows, in order."""
    return Obstacles(*(zip(*rows) if rows else [()] * 6))


NONE = field()


def reveals(result):
    """(obstacle id, revealed "T"/"F") of each reveal of a walk, in order."""
    return [(a[2], a[3]) for a in result.actions if a[0] == "disambiguate"]


def edge_scene(*rows):
    return Scene(graph=unit_edge_graph(), obstacles=field(*rows), s=0, t=1)


class TestEdgeWeight:
    def test_no_obstacles(self):
        assert edge_weight(edge_scene(), 0) == 1.0

    def test_one_ambiguous(self):
        obs = [obstacle(Point2(0.5, 0), 0.3, False, 0.5)]
        assert edge_weight(edge_scene(*obs), 0) == pytest.approx(6.0, abs=0)

    def test_two_ambiguous(self):
        obs = [
            obstacle(Point2(0.3, 0), 0.2, False, 0.2),
            obstacle(Point2(0.7, 0), 0.2, True, 0.8),
        ]
        # 1 + 0.5*(5/0.8 + 5/0.2) = 1 + 0.5*31.25
        assert edge_weight(edge_scene(*obs), 0) == pytest.approx(16.625, rel=1e-12)

    def test_known_true_blocks(self):
        scene = edge_scene(obstacle(Point2(0.5, 0), 0.3, True, 0.5))
        assert edge_weight(scene, 0, [traversal._KNOWN_TRUE]) == math.inf

    def test_known_false_contributes_nothing(self):
        scene = edge_scene(obstacle(Point2(0.5, 0), 0.3, False, 0.5))
        assert edge_weight(scene, 0, [traversal._KNOWN_FALSE]) == 1.0


class TestPathWeight:
    def test_straight_baseline(self):
        path = [lattice_vertex(101, 50, y) for y in range(100, 0, -1)]
        scene = Scene(graph=BIG, obstacles=NONE, s=path[0], t=path[-1])
        assert path_weight(scene, path) == 99.0

    def test_reduces_to_length_sum(self):
        path = [
            lattice_vertex(4, 0, 0),
            lattice_vertex(4, 1, 1),
            lattice_vertex(4, 2, 1),
            lattice_vertex(4, 3, 2),
        ]
        scene = Scene(graph=build_lattice(4, 4), obstacles=NONE, s=path[0], t=path[-1])
        assert path_weight(scene, path) == pytest.approx(1.0 + 2.0 * math.sqrt(2))

    def test_crossing_disk_counts_edges(self):
        g = build_lattice(9, 3)
        obs = (obstacle(Point2(4.0, 1.0), 1.2, False, 0.6, c=4.0),)
        path = [lattice_vertex(9, i, 1) for i in range(9)]
        scene = Scene(graph=g, obstacles=field(*obs), s=path[0], t=path[-1])
        eids = [g.edge_ids([a], [b])[0] for a, b in zip(path, path[1:])]
        on_edge = edge_disks(scene)
        k = sum(1 for e in eids if on_edge[e])
        assert k >= 2
        expected = 8.0 + k * 0.5 * 4.0 / 0.4
        assert path_weight(scene, path) == pytest.approx(expected, rel=1e-12)

    def test_non_adjacent_rejected(self):
        scene = Scene(graph=build_lattice(4, 4), obstacles=NONE, s=0, t=15)
        with pytest.raises(ValueError):
            path_weight(scene, [0, 5, 15])


class TestShortestPath:
    def test_baseline_distance(self):
        g = BIG
        dist, pred = shortest_path(g, g.edge_length.tolist(),
                                   lattice_vertex(101, 50, 100))
        assert dist[lattice_vertex(101, 50, 1)] == pytest.approx(99.0, abs=1e-12)

    def test_chebyshev_style_corner(self):
        g = BIG
        dist, _ = shortest_path(g, g.edge_length.tolist(),
                                lattice_vertex(101, 50, 100))
        want = 50.0 + 50.0 * math.sqrt(2)
        assert dist[lattice_vertex(101, 0, 0)] == pytest.approx(want, rel=1e-12)

    def test_negative_weight_rejected(self):
        g = build_lattice(3, 3)
        w = g.edge_length.tolist()
        w[0] = -0.5
        with pytest.raises(ValueError, match=r"^edge 0 \(0,1\): weight -0.5 "):
            shortest_path(g, w, 0)

    @pytest.mark.parametrize("goal", [None, 8])
    def test_weight_below_its_base_length_rejected(self, goal):
        # unit weights fall short of the lattice's diagonals: the bound's
        # inputs come from the base lengths, so such weights are refused
        g = build_lattice(3, 3)
        k = int(np.flatnonzero(g.edge_length > 1.0)[0])
        with pytest.raises(ValueError, match=rf"^edge {k} \(0,4\): weight 1.0 is not at least"):
            shortest_path(g, [1.0] * g.n_edges, 0, goal)
        w = g.edge_length.copy()
        w[k] = np.nextafter(w[k], 0.0)
        with pytest.raises(ValueError, match=rf"^edge {k} "):
            shortest_path(g, w, 0, goal)
        w[k] = math.inf  # impassable stays allowed
        assert shortest_path(g, w, 0, goal)[0][8] == pytest.approx(2.0 + math.sqrt(2))

    def test_nan_weight_rejected(self):
        g = build_lattice(3, 3)
        w = g.edge_length.tolist()
        w[2] = float("nan")
        with pytest.raises(ValueError, match=r"^edge 2 \(0,4\): weight nan "):
            shortest_path(g, w, 0)

    @pytest.mark.parametrize("goal", [None, 8])
    def test_minus_inf_weight_rejected(self, goal):
        # -inf is no finite weight, but it is below the base length all the same
        g = build_lattice(3, 3)
        w = g.edge_length.tolist()
        w[0] = -math.inf
        with pytest.raises(ValueError, match=r"^edge 0 \(0,1\): weight -inf "):
            shortest_path(g, w, 0, goal)

    def test_first_bad_edge_is_reported(self):
        g = build_lattice(3, 3)
        w = g.edge_length.tolist()
        w[3] = -math.inf
        w[1] = math.nan
        w[5] = 0.5
        with pytest.raises(ValueError, match=r"^edge 1 .* weight nan "):
            shortest_path(g, w, 0, 8)

    def test_weight_count_checked(self):
        g = build_lattice(3, 3)
        with pytest.raises(ValueError):
            shortest_path(g, [1.0] * (g.n_edges - 1), 0)

    def test_source_checked(self):
        g = build_lattice(3, 3)
        with pytest.raises(ValueError, match="source"):
            shortest_path(g, g.edge_length, 99)

    def test_infinite_edges_impassable(self):
        # diamond with both routes cut: target unreachable
        g = GeometricGraph([0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 1, 2], [1, 2, 3, 3], [1.0] * 4)
        inf = math.inf
        w = [1.0, 1.0, inf, inf]
        dist, pred = shortest_path(g, w, 0)
        assert dist[3] == inf
        assert extract_path(pred, 0, 3) == []

    def test_tie_breaks_to_smallest_predecessor(self):
        g = GeometricGraph([0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 1, 2], [1, 2, 3, 3], [1.0] * 4)
        dist, pred = shortest_path(g, [1.0, 1.0, 1.0, 1.0], 0)
        assert dist[3] == 2.0
        assert pred[3] == 1

    def test_against_scipy_dijkstra(self):
        rng = np.random.default_rng(77)
        g = build_lattice(6, 6)
        rows, cols = g.edge_u, g.edge_v
        for _ in range(20):
            w = g.edge_length * rng.uniform(1.0, 4.0, size=g.n_edges)
            mat = scipy.sparse.coo_matrix(
                (w, (rows, cols)), shape=(g.n_vertices, g.n_vertices)
            )
            ref = scipy.sparse.csgraph.dijkstra(mat, directed=False, indices=0)
            dist, _ = shortest_path(g, w, 0)
            np.testing.assert_allclose(dist, ref, rtol=1e-12, atol=1e-12)

    def test_extract_path_walks_predecessors(self):
        g = GeometricGraph(range(4), [0] * 4, range(3), range(1, 4), [1.0] * 3)
        dist, pred = shortest_path(g, g.edge_length.tolist(), 0)
        assert extract_path(pred, 0, 3) == [0, 1, 2, 3]
        assert extract_path(pred, 0, 0) == [0]


def random_network(rng) -> GeometricGraph:
    """Random planar graph; edge lengths run from 0.2x to 2x the Euclidean
    distance, and rounded coordinates give coincident and collinear nodes."""
    n = int(rng.integers(2, 40))
    xy = rng.uniform(0.0, 10.0, size=(n, 2))
    if rng.random() < 0.3:
        xy = np.round(xy)
    pairs = set()
    if rng.random() < 0.8:  # a spanning chain; without it parts may be cut off
        order = rng.permutation(n).tolist()
        pairs.update((min(a, b), max(a, b)) for a, b in zip(order, order[1:]))
    for _ in range(int(rng.integers(1, 3 * n + 1))):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    us, vs, lengths = [], [], []
    for a, b in sorted(pairs):
        euclid = math.hypot(*(xy[a] - xy[b]))
        us.append(a)
        vs.append(b)
        lengths.append((euclid or 1.0) * float(rng.uniform(0.2, 2.0)))
    return GeometricGraph(xy[:, 0], xy[:, 1], us, vs, lengths)


def rebased(g: GeometricGraph, length) -> GeometricGraph:
    """``g`` with the base lengths ``length``."""
    return GeometricGraph(g.x, g.y, g.edge_u, g.edge_v, length)


def weight_case(kind, g, rng):
    """A graph and edge weights of one kind, each weight at least its base
    length: risk on top of the base lengths of ``g``, or a case the
    planner's margin test must handle, on ``g`` or on ``g`` with other base
    lengths."""
    m = g.n_edges
    base = np.array(g.edge_length)
    if not m:  # a random network may have no edge
        return g, base
    risk = base + np.where(rng.random(m) < 0.4, rng.uniform(0.0, 30.0, m), 0.0)
    if kind == "base":
        return g, base
    if kind == "risk":
        return g, risk
    if kind == "ties":  # small integers: many equal-distance predecessors
        ties = rng.integers(1, 4, m).astype(np.float64)
        return rebased(g, ties), ties
    if kind == "blocked":
        return g, np.where(rng.random(m) < 0.25, math.inf, risk)
    if kind == "tiny":
        k = int(rng.integers(m))
        base[k] = risk[k] = 1e-300
        return rebased(g, base), risk
    if kind == "huge":
        risk[int(rng.integers(m))] = 1e30
        return g, risk
    if kind == "x1e12":
        return g, risk * 1e12
    if kind == "x1e-9":
        return rebased(g, base * 1e-9), risk * 1e-9
    if kind == "+1e15":
        return g, risk + 1e15
    raise AssertionError(kind)


WEIGHT_KINDS = ("base", "risk", "ties", "blocked", "tiny", "huge", "x1e12", "x1e-9", "+1e15")


def _outcome(scene):
    try:
        return rd_traverse(scene)
    except InfeasibleSceneError as exc:
        return str(exc)


def _plans(outcome) -> int:
    """Plans a walk made: one per reveal plus its last (or failed) one."""
    if isinstance(outcome, str):
        return int(re.search(r"after (\d+) disambiguations", outcome)[1]) + 1
    return outcome.n_dis + 1


def with_twins(scene: Scene) -> Scene:
    """``scene`` on its lattice plus a twin of every 7th vertex that has a
    right neighbour: a vertex at the same point, joined to it by an edge of
    zero extent and to its right neighbour. Both twin edges weigh 0.25, so
    shortest routes cut through the twins, and every disk over a twinned
    vertex meets a zero-extent edge."""
    g = scene.graph
    twin_of = np.arange(0, g.n_vertices, 7)
    twin_of = twin_of[g.x[twin_of] < g.x.max()]
    twin = g.n_vertices + np.arange(twin_of.size)
    graph = GeometricGraph(
        np.append(g.x, g.x[twin_of]), np.append(g.y, g.y[twin_of]),
        np.concatenate((g.edge_u, twin_of, twin)),
        np.concatenate((g.edge_v, twin, twin_of + 1)),
        np.append(g.edge_length, np.full(2 * twin_of.size, 0.25)),
    )
    return Scene(graph=graph, obstacles=scene.obstacles, s=scene.s, t=scene.t)


WALK_SHAPE = dict(
    grid=(41, 41), source=(20, 40), target=(20, 1),
    insertion=Window(5.0, 35.0, 5.0, 35.0), radius=2.5, reps=20, master_seed=3,
)


class TestGoalDirected:
    """With a goal, shortest_path runs A*; the extracted path must be the
    Dijkstra oracle's, bit for bit."""

    def test_goal_checked(self):
        g = build_lattice(3, 3)
        for goal in (-1, 9, 99):
            with pytest.raises(ValueError, match="goal"):
                shortest_path(g, g.edge_length, 0, goal)

    def test_random_graphs_match_oracle(self):
        rng = np.random.default_rng(2024)
        faster = 0
        for case in range(3000):
            if case % 2:
                g = random_network(rng)
            else:
                g = build_lattice(int(rng.integers(2, 11)), int(rng.integers(2, 11)))
            kind = WEIGHT_KINDS[case % len(WEIGHT_KINDS)]
            g, w = weight_case(kind, g, rng)
            for _ in range(2):
                src = int(rng.integers(g.n_vertices))
                goal = src if rng.random() < 0.05 else int(rng.integers(g.n_vertices))
                dist, pred = shortest_path(g, w, src, goal)
                want_dist, want_pred = _dijkstra_oracle(g, w, src, goal)
                where = f"case {case} ({kind}), {src} -> {goal}"
                assert dist[goal] == want_dist[goal], where
                path = extract_path(pred, src, goal)
                assert path == extract_path(want_pred, src, goal), where
                assert [pred[v] for v in path] == [want_pred[v] for v in path], where
                faster += labelled(dist) < labelled(want_dist)
        assert faster > 1000  # the goal bound was active, not always 0

    @pytest.mark.parametrize("kind", ["tiny", "huge"])
    def test_unprovable_margin_is_dijkstra(self, kind):
        g, w = weight_case(kind, build_lattice(12, 12), np.random.default_rng(5))
        assert traversal._bound(g, 143, traversal._plan_inputs(g, w)[1]) is None
        assert shortest_path(g, w, 0, 143) == _dijkstra_oracle(g, w, 0, 143)

    def test_tiny_edge_of_zero_extent_is_dijkstra(self):
        # a 1e-300 edge between coincident nodes leaves the least ratio at 1,
        # so only the margin test can turn the goal bound off
        lat = build_lattice(12, 12)
        g = GeometricGraph(
            np.append(lat.x, lat.x[0]), np.append(lat.y, lat.y[0]),
            np.append(lat.edge_u, 0), np.append(lat.edge_v, 144),
            np.append(lat.edge_length, 1e-300),
        )
        assert g.planar().least_ratio == 1.0
        w = g.edge_length
        assert traversal._bound(g, 143, traversal._plan_inputs(g, w)[1]) is None
        assert shortest_path(g, w, 144, 143) == _dijkstra_oracle(g, w, 144, 143)

    def test_no_usable_edge_is_dijkstra(self):
        # coincident vertices: every edge has zero Euclidean extent
        g = GeometricGraph([1, 1, 1], [1, 1, 1], [0, 1], [1, 2], [2.0, 3.0])
        assert shortest_path(g, [2.0, 3.0], 0, 2) == _dijkstra_oracle(g, [2.0, 3.0], 0, 2)

    def test_goal_bound_active_on_default_lattice(self):
        # an over-strict margin test would fall back to Dijkstra everywhere
        # and still pass every equality test above
        w = BIG.edge_length
        s, t = lattice_vertex(101, 50, 100), lattice_vertex(101, 50, 1)
        dist, pred = shortest_path(BIG, w, s, t)
        want_dist, want_pred = _dijkstra_oracle(BIG, w, s, t)
        assert extract_path(pred, s, t) == extract_path(want_pred, s, t)
        assert labelled(dist) * 4 < labelled(want_dist)

    @pytest.mark.parametrize(
        "placement, composition, cost, twins",
        [
            (UniformPlacement(), FalseOnly(60), 1.0, False),
            (UniformPlacement(), Mixed(n_T=20, n_F=60), 0.5, False),
            (MaternPlacement(kappa=6, r0=3.0), Mixed(n_T=15, n_F=45), 0.5, False),
            (UniformPlacement(), Mixed(n_T=20, n_F=60), 0.5, True),
        ],
        ids=["uniform", "mixed", "matern", "twins"],
    )
    def test_walks_match_oracle(self, monkeypatch, placement, composition, cost, twins):
        # each walk must plan through the oracle once per plan: a walk that
        # planned around traversal.shortest_path would compare with itself
        cell = ExperimentConfig(placement, composition, cost=cost, **WALK_SHAPE)
        calls = []

        def oracle(graph, weights, src, goal=None):
            calls.append(goal)
            return _dijkstra_oracle(graph, weights, src, goal)

        for rep in range(cell.reps):
            scene = with_twins(cell.scene(rep)) if twins else cell.scene(rep)
            got = _outcome(scene)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(traversal, "shortest_path", oracle)
                want = _outcome(scene)
            assert got == want, f"rep {rep}"
            assert calls == [scene.t] * _plans(want), f"rep {rep}"

    @pytest.mark.parametrize(
        "placement, composition, shape",
        [
            (UniformPlacement(), FalseOnly(80), {}),
            (UniformPlacement(), Mixed(n_T=40, n_F=120), dict(cost=0.5)),
            (StraussPlacement(gamma=0.0, d=7.0), FalseOnly(80), {}),
        ],
        ids=["uniform", "dense", "strauss"],
    )
    def test_graph_constants_are_the_planned_weights_minima(
        self, monkeypatch, placement, composition, shape
    ):
        # on default-lattice walks the bound's constants equal the least
        # weight and the least weight per unit of extent of every plan's
        # weights, the inputs of a bound built from the weights, so such
        # searches pop the same vertices as one
        planner = traversal.shortest_path
        plans = []

        def checked(graph, weights, src, goal=None):
            seg = graph.segments()
            w = np.asarray(weights)
            geo = graph.planar()
            assert float(w.min()) == geo.least_length
            extent = geometry.octile_norm(seg.bx - seg.ax, seg.by - seg.ay)
            assert float((w / extent).min()) == geo.least_ratio
            plans.append(goal)
            return planner(graph, weights, src, goal)

        monkeypatch.setattr(traversal, "shortest_path", checked)
        cell = ExperimentConfig(placement, composition, reps=4, **shape)
        for rep in range(cell.reps):
            _outcome(cell.scene(rep))
        assert len(plans) >= cell.reps


def recompute(scene: Scene, know):
    """Weights and ambiguous-disk counts of every edge of ``scene`` when each
    disk's knowledge code is ``know[disk]``, from a fresh engine's full pass."""
    fresh = traversal._WeightEngine(scene)
    fresh.know[:] = know
    disk = np.repeat(np.arange(len(know)), np.diff(fresh.disk_ptr))
    return fresh._weigh(fresh.base, fresh.inc_edge, disk, scene.graph.n_edges)


def check_planner_inputs(engine, scene):
    """Check the planner's inputs a planned walk's engine holds against
    fresh ones; return the goal bound they give."""
    g = scene.graph
    slot_w, total = traversal._plan_inputs(g, engine.w)
    assert engine.slot_w.tobytes() == slot_w.tobytes()
    bound = traversal._bound(g, scene.t, engine.total)
    assert bound == traversal._bound(g, scene.t, total)
    return bound


def check_every_reveal(monkeypatch, scenes):
    """Walk each scene, checking after every reveal the weights against a
    full recompute and the scalar oracle, and the planner's inputs the
    engine holds against fresh ones; returns, per reveal, the revealed code,
    whether another still-ambiguous disk meets one of its edges, and whether
    the goal bound is in use."""
    reveal = traversal._WeightEngine.reveal
    seen = []

    def checked(engine, disk_id, code):
        reveal(engine, disk_id, code)
        w, n_amb = recompute(scene, engine.know)
        assert np.array_equal(engine.w, w), f"reveal {disk_id}"
        assert np.array_equal(engine.n_amb, n_amb), f"reveal {disk_id}"
        scalar = edge_weights(scene, engine.know.tolist(), on_edge)
        assert engine.w.tolist() == scalar, f"reveal {disk_id}"
        bound = check_planner_inputs(engine, scene)
        own = engine.inc_edge[engine.disk_ptr[disk_id] : engine.disk_ptr[disk_id + 1]]
        seen.append((code, bool(engine.n_amb[own].any()), bound is not None))

    with monkeypatch.context() as m:
        m.setattr(traversal._WeightEngine, "reveal", checked)
        for scene in scenes:
            on_edge = edge_disks(scene)
            _outcome(scene)
    return seen


class TestWeightEngine:
    """The walk's weights are patched per reveal; after every reveal they
    must equal a full recompute, bit for bit."""

    @pytest.mark.parametrize(
        "placement, composition, shape",
        [
            (UniformPlacement(), FalseOnly(60), dict(cost=1.0)),
            (UniformPlacement(), Mixed(n_T=20, n_F=60), dict(cost=0.5)),
            (MaternPlacement(kappa=6, r0=3.0), Mixed(n_T=15, n_F=45), dict(cost=0.5)),
            (UniformPlacement(), Mixed(n_T=20, n_F=60),
             dict(radius=(1.5, 2.5, 3.5), cost=(0.25, 0.5, 2.0))),
        ],
        ids=["uniform", "mixed", "matern", "classes"],
    )
    def test_matches_full_recompute(self, monkeypatch, placement, composition, shape):
        kw = dict(WALK_SHAPE, **shape, reps=15)
        cell = ExperimentConfig(placement, composition, **kw)
        scenes = [cell.scene(rep) for rep in range(cell.reps)]
        seen = check_every_reveal(monkeypatch, scenes)
        assert len(seen) >= cell.reps
        assert sum(bounded for _, _, bounded in seen) > len(seen) // 2
        if composition.n_T:
            assert (traversal._KNOWN_TRUE, True, True) in seen

    def test_zero_extent_edges(self, monkeypatch):
        # the least ratio skips the twins' edges of zero extent, which
        # reveals re-weigh
        cell = ExperimentConfig(UniformPlacement(), Mixed(n_T=20, n_F=60), cost=0.5,
                                **dict(WALK_SHAPE, reps=15))
        scenes = [with_twins(cell.scene(rep)) for rep in range(cell.reps)]
        seen = check_every_reveal(monkeypatch, scenes)
        assert sum(bounded for _, _, bounded in seen) > len(seen) // 2
        touched = 0
        for scene in scenes:
            seg = scene.graph.segments()
            zero = geometry.octile_norm(seg.bx - seg.ax, seg.by - seg.ay) == 0.0
            ptr = scene.disk_ptr
            for did in (a[2] for a in rd_traverse(scene).actions if a[0] == "disambiguate"):
                touched += zero[scene.inc_edge[ptr[did] : ptr[did + 1]]].any()
        assert touched >= cell.reps

    def test_short_edge_walks_match_oracle(self, monkeypatch):
        # three short edges of unit extent set the least length and ratio:
        # one under a cheap true disk, one free, one under a false disk. The
        # walks cross the disks' edges with the goal bound in use, and must
        # plan as the Dijkstra oracle does
        lat = build_lattice(9, 5)
        length = lat.edge_length.copy()

        def v(i, j):
            return lattice_vertex(9, i, j)

        short = lat.edge_ids([v(4, 2), v(6, 3), v(2, 1)], [v(5, 2), v(7, 3), v(3, 1)])
        length[short] = (0.01, 0.03, 0.005)
        g = GeometricGraph(lat.x, lat.y, lat.edge_u, lat.edge_v, length)
        assert (g.planar().least_length, g.planar().least_ratio) == (0.005, 0.005)
        obs = (
            obstacle(Point2(4.5, 2.0), 0.3, True, 0.5, c=0.01),
            obstacle(Point2(2.5, 1.0), 0.3, False, 0.5, c=0.05),
        )
        for s, t in ((0, v(8, 4)), (v(0, 2), v(8, 2)), (v(0, 1), v(8, 3))):
            scene = Scene(graph=g, obstacles=field(*obs), s=s, t=t)
            engine = traversal._WeightEngine(scene)
            assert traversal._bound(g, t, engine.total) is not None
            got = rd_traverse(scene)
            assert reveals(got) == [(1, "F"), (0, "T")]
            with monkeypatch.context() as m:
                m.setattr(traversal, "shortest_path", _dijkstra_oracle)
                assert rd_traverse(scene) == got

    def test_true_reveal_next_to_ambiguous_disks(self, monkeypatch):
        # the cheap true disk on the straight route is entered first; the
        # ambiguous disk below it shares the edges of their overlap
        g = build_lattice(21, 21)
        obs = (
            obstacle(Point2(10, 12), 2.5, True, 0.5, c=0.1),
            obstacle(Point2(10, 9), 2.5, False, 0.5, c=0.1),
        )
        scene = Scene(graph=g, obstacles=field(*obs),
                      s=lattice_vertex(21, 10, 20), t=lattice_vertex(21, 10, 0))
        seen = check_every_reveal(monkeypatch, [scene])
        assert seen[0] == (traversal._KNOWN_TRUE, True, True)
        res = rd_traverse(scene)
        assert reveals(res)[0] == (0, "T")
        replay_and_check(scene, res)


class TestOctileBound:
    """The goal bound in the octile norm is consistent on the default lattice."""

    @staticmethod
    def weights(kind):
        if kind == "base":
            return BIG.edge_length
        # a risk-weighted mixed scene midway: its true disks known (+inf
        # edges) and every third false disk cleared
        scene = ExperimentConfig(UniformPlacement(), Mixed(n_T=40, n_F=120),
                                 cost=0.5, reps=1).scene(0)
        engine = traversal._WeightEngine(scene)
        for k, true in enumerate(scene.obstacles.true.tolist()):
            if true:
                engine.reveal(k, traversal._KNOWN_TRUE)
            elif k % 3 == 0:
                engine.reveal(k, traversal._KNOWN_FALSE)
        return engine.w

    @pytest.mark.parametrize("kind", ["base", "mixed"])
    def test_consistent_across_every_edge(self, kind):
        # h(u) - h(v) <= (1 - 2**-16) * w_e holds exactly for the exact norm;
        # at base weights it is tight along straight runs to the goal, so the
        # float h may exceed it by its own rounding, a few ulps of max h
        w = self.weights(kind)
        u, v = BIG.edge_u, BIG.edge_v
        _, total = traversal._plan_inputs(BIG, w)
        for goal in (lattice_vertex(101, 50, 1), 0, lattice_vertex(101, 37, 62)):
            c, reach = traversal._bound(BIG, goal, total)
            h = c * np.array(reach)
            limit = (1.0 - 2**-16) * w + 4 * np.spacing(h.max())
            assert np.all(h[u] - h[v] <= limit) and np.all(h[v] - h[u] <= limit)
        if kind == "mixed":
            assert np.isinf(w).any()

    def test_octile_is_the_lattice_distance(self):
        # at base weights the bound misses the true distance only by 1 - 2**-16
        goal = lattice_vertex(101, 37, 62)
        reach, reach_max = BIG.planar().goal_reach(goal)
        dist, _ = shortest_path(BIG, BIG.edge_length, goal)
        np.testing.assert_allclose(reach, dist, rtol=1e-13)
        assert reach_max == max(reach)

    def test_goal_distances_built_once_per_goal_and_read_only(self, monkeypatch):
        g = build_lattice(21, 21)
        geo = g.planar()
        built = []
        octile = geometry.octile_norm
        monkeypatch.setattr(
            geometry, "octile_norm", lambda dx, dy: built.append(1) or octile(dx, dy)
        )
        w = g.edge_length
        for src in (430, 0, 220):
            shortest_path(g, w, src, 10)
        assert len(built) == 1
        reach, _ = geo.goal_reach(10)
        assert geo.goal_reach(10)[0] is reach
        shortest_path(g, w, 430, 20)
        assert len(built) == 2
        assert type(reach) is tuple
        with pytest.raises(TypeError):
            reach[0] = 0.0


class TestSceneValidation:
    def test_equal_endpoints(self):
        g = build_lattice(3, 3)
        with pytest.raises(InfeasibleSceneError):
            Scene(graph=g, obstacles=NONE, s=4, t=4)

    def test_endpoint_off_graph(self):
        g = build_lattice(3, 3)
        with pytest.raises(InfeasibleSceneError):
            Scene(graph=g, obstacles=NONE, s=0, t=9)

    def test_endpoint_inside_disk(self):
        g = build_lattice(5, 5)
        o = obstacle(Point2(0.2, 0.2), 1.0, False, 0.5)
        with pytest.raises(InfeasibleSceneError):
            Scene(graph=g, obstacles=field(o), s=0, t=24)

    def test_obstacles_must_be_a_field(self):
        with pytest.raises(TypeError, match="Obstacles"):
            Scene(graph=build_lattice(3, 3), obstacles=(), s=0, t=8)

    @pytest.mark.parametrize("ulps", [0, 4])
    def test_endpoint_on_the_closed_disk_boundary(self, ulps):
        # the source sits exactly r = 5 from the centre (3-4-5, no rounding):
        # inside the closed disk; with r a few ulps short it is outside
        g = build_lattice(20, 20)
        r = 5.0
        for _ in range(ulps):
            r = float(np.nextafter(r, 0.0))
        obs = field(obstacle(Point2(3.0, 4.0), r, False, 0.5))
        t = lattice_vertex(20, 19, 19)
        if ulps:
            assert Scene(graph=g, obstacles=obs, s=0, t=t).obstacles == obs
        else:
            with pytest.raises(InfeasibleSceneError, match="source vertex 0 .* obstacle 0"):
                Scene(graph=g, obstacles=obs, s=0, t=t)

    def test_endpoint_check_names_the_first_obstacle(self):
        g = build_lattice(5, 5)
        obs = field(
            obstacle(Point2(2, 2), 0.5, False, 0.5),
            obstacle(Point2(4, 4), 0.5, True, 0.5),
            obstacle(Point2(4, 4), 1.5, False, 0.5),
        )
        with pytest.raises(InfeasibleSceneError, match="target vertex 24 .* obstacle 1$"):
            Scene(graph=g, obstacles=obs, s=0, t=24)


class TestRdTraverse:
    def test_zero_obstacles_straight(self):
        g = BIG
        scene = Scene(
            graph=g, obstacles=NONE,
            s=lattice_vertex(101, 50, 100), t=lattice_vertex(101, 50, 1),
        )
        res = rd_traverse(scene)
        assert res.total_cost == 99.0
        assert res.n_dis == 0
        assert res.distance == 99.0
        assert len(res.walk) == 100
        xs = {float(g.x[v]) for v in res.walk}
        assert xs == {50.0}

    def test_confident_true_obstacle_takes_detour(self):
        # risk 0.5*5/0.1 = 25 per crossing edge dwarfs the short detour
        g = BIG
        obs = (obstacle(Point2(50, 50), 4.5, True, 0.9),)
        scene = Scene(
            graph=g, obstacles=field(*obs),
            s=lattice_vertex(101, 50, 100), t=lattice_vertex(101, 50, 1),
        )
        res = rd_traverse(scene)
        assert res.n_dis == 0
        assert reveals(res) == [] and res.spent == 0.0
        assert res.total_cost > 99.0
        assert res.total_cost == res.distance
        for eid in g.edge_ids(res.walk[:-1], res.walk[1:]).tolist():
            a, b = edge_points(g, eid)
            assert not segment_disk_intersects(a, b, disk(scene.obstacles, 0))

    def test_forced_disambiguation_of_false_wall(self):
        # disk spans the whole 3-column corridor: no way around
        g = build_lattice(3, 21)
        obs = (obstacle(Point2(1, 10), 1.2, False, 0.5, c=2.0),)
        scene = Scene(
            graph=g, obstacles=field(*obs),
            s=lattice_vertex(3, 1, 20), t=lattice_vertex(3, 1, 0),
        )
        res = rd_traverse(scene)
        assert res.n_dis == 1
        assert reveals(res) == [(0, "F")]
        assert res.spent == 2.0
        assert res.total_cost == pytest.approx(res.distance + 2.0)
        # cheapest plan hugs a side column (2 risky edges, not 4), so the
        # walk is 18 axis steps plus two diagonals
        assert res.distance == pytest.approx(18.0 + 2.0 * math.sqrt(2))
        replay_and_check(scene, res)

    def test_premium_that_rounds_away_still_stops_the_walk(self):
        # the premium 0.5 * 1e-20 / (1 - 0.5) is lost in every base length it
        # is added to, so no weight shows the disk: the engine's count of
        # ambiguous disks per edge, not the weight, makes an edge risky, and
        # the walk reveals the true disk before it would cross it
        g = build_lattice(21, 21)
        scene = Scene(
            graph=g, obstacles=field(obstacle(Point2(10, 10), 2.0, True, 0.5, c=1e-20)),
            s=lattice_vertex(21, 10, 20), t=lattice_vertex(21, 10, 0),
        )
        engine = traversal._WeightEngine(scene)
        met = np.flatnonzero(engine.n_amb)
        assert met.size > 0
        assert np.array_equal(np.asarray(engine)[met], g.edge_length[met])
        res = rd_traverse(scene)
        assert res.n_dis == 1
        assert [a for a in res.actions if a[0] == "disambiguate"] == [
            ("disambiguate", lattice_vertex(21, 10, 13), 0, "T")
        ]
        assert res.distance == pytest.approx(14.0 + 6.0 * math.sqrt(2), rel=1e-12)
        replay_and_check(scene, res)

    def test_scenes_sharing_a_graph_keep_their_own_incidence(self):
        # scene A's true disk sits on the straight route; building scene B
        # on the same graph must not change what A's walk knows about it
        g = build_lattice(11, 11)
        s, t = lattice_vertex(11, 5, 10), lattice_vertex(11, 5, 0)
        a = Scene(
            graph=g, s=s, t=t,
            obstacles=field(obstacle(Point2(5, 5), 1.5, True, 0.5)),
        )
        before = rd_traverse(a)
        Scene(
            graph=g, s=s, t=t,
            obstacles=field(obstacle(Point2(1, 2), 0.5, False, 0.5)),
        )
        after = rd_traverse(a)
        assert after == before
        assert after.n_dis == 0
        assert after.distance == pytest.approx(6.0 + 4.0 * math.sqrt(2), rel=1e-12)
        replay_and_check(a, after)

    def test_true_wall_is_infeasible(self):
        g = build_lattice(3, 21)
        obs = (obstacle(Point2(1, 10), 1.2, True, 0.5, c=2.0),)
        scene = Scene(
            graph=g, obstacles=field(*obs),
            s=lattice_vertex(3, 1, 20), t=lattice_vertex(3, 1, 0),
        )
        with pytest.raises(InfeasibleSceneError, match="unreachable"):
            rd_traverse(scene)

    def test_disambiguation_order_by_entry_point(self):
        # both disks sit on the single edge; nearer entry goes first
        g = GeometricGraph([0, 10], [0, 0], [0], [1], [10.0])
        obs = (
            obstacle(Point2(7, 0), 1.0, False, 0.5, c=1.0),
            obstacle(Point2(3, 0), 1.0, False, 0.5, c=1.0),
        )
        scene = Scene(graph=g, obstacles=field(*obs), s=0, t=1)
        res = rd_traverse(scene)
        assert reveals(res) == [(1, "F"), (0, "F")]
        assert res.walk == (0, 1)
        assert res.total_cost == pytest.approx(12.0)
        replay_and_check(scene, res)

    @pytest.mark.parametrize("swap", [False, True], ids=["0-left", "0-right"])
    def test_tangent_disk_is_revealed_in_either_node_order(self, swap):
        # disk 0 touches the edge from below at x = 0.1; whether the rounded
        # test counts it depends on the segment's direction, so the edge is
        # asked about in the graph's orientation, by the incidence and by the
        # stop rule alike. From (1, 0), disk 1 is entered first (t = 0.3),
        # then the tangent disk (t = 0.9): C = 1 + 2 * 1
        xs = [1.0, 0.0] if swap else [0.0, 1.0]
        g = GeometricGraph(xs, [0.0, 0.0], [0], [1], [1.0])
        obs = field(
            obstacle(Point2(0.1, -0.7), 0.7, False, 0.3, c=1.0),
            obstacle(Point2(0.5, 0.0), 0.2, False, 0.3, c=1.0),
        )
        s = xs.index(1.0)
        scene = Scene(graph=g, obstacles=obs, s=s, t=1 - s)
        res = rd_traverse(scene)
        assert reveals(res) == [(1, "F"), (0, "F")]
        assert res.total_cost == 3.0
        replay_and_check(scene, res)

    def test_entry_tie_broken_by_id(self):
        g = GeometricGraph([0, 10], [0, 0], [0], [1], [10.0])
        obs = (
            obstacle(Point2(5, 0), 1.0, False, 0.5, c=1.0),
            obstacle(Point2(5, 0), 1.0, False, 0.5, c=1.0),
        )
        scene = Scene(graph=g, obstacles=field(*obs), s=0, t=1)
        res = rd_traverse(scene)
        assert reveals(res) == [(0, "F"), (1, "F")]

    def test_revealed_true_on_only_route_raises(self):
        g = GeometricGraph([0, 10], [0, 0], [0], [1], [10.0])
        obs = (obstacle(Point2(5, 0), 1.0, True, 0.5, c=1.0),)
        scene = Scene(graph=g, obstacles=field(*obs), s=0, t=1)
        with pytest.raises(InfeasibleSceneError):
            rd_traverse(scene)

    def test_all_false_cost_identity(self):
        # every disambiguation reveals False, so C = distance + n_dis * c
        rng = np.random.default_rng(5)
        g0 = build_lattice(21, 21)
        for _ in range(10):
            centers = rng.uniform(4, 16, size=(6, 2))
            obs = tuple(
                obstacle(Point2(*map(float, c)), 2.0, False,
                    float(rng.uniform(0.55, 0.95)), c=5.0,
                )
                for i, c in enumerate(centers)
            )
            scene = Scene(
                graph=g0, obstacles=field(*obs),
                s=lattice_vertex(21, 10, 20), t=lattice_vertex(21, 10, 0),
            )
            res = rd_traverse(scene)
            assert res.total_cost == pytest.approx(res.distance + 5.0 * res.n_dis)
            replay_and_check(scene, res)

    def test_deterministic(self):
        g0 = build_lattice(21, 21)
        rng = np.random.default_rng(9)
        centers = rng.uniform(4, 16, size=(8, 2))
        statuses = (rng.random(8) < 0.4).tolist()
        obs = tuple(
            obstacle(Point2(*map(float, c)), 2.2, st,
                          float(rng.uniform(0.2, 0.9)))
            for i, (c, st) in enumerate(zip(centers, statuses))
        )

        def run():
            scene = Scene(
                graph=g0, obstacles=field(*obs),
                s=lattice_vertex(21, 10, 20), t=lattice_vertex(21, 10, 0),
            )
            return rd_traverse(scene)

        assert run() == run()

    def test_safety_replay_random_scenes(self):
        rng = np.random.default_rng(41)
        g0 = build_lattice(15, 15)
        done = 0
        attempts = 0
        while done < 50 and attempts < 400:
            attempts += 1
            k = int(rng.integers(1, 9))
            centers = rng.uniform(2.5, 11.5, size=(k, 2))
            s_pt, t_pt = Point2(7, 14), Point2(7, 0)
            if any(
                (c[0] - p.x) ** 2 + (c[1] - p.y) ** 2 <= 1.5**2
                for c in centers
                for p in (s_pt, t_pt)
            ):
                continue
            obs = tuple(
                obstacle(Point2(*map(float, c)), 1.5,
                    bool(rng.random() < 0.35),
                    float(rng.uniform(0.1, 0.9)),
                    c=float(rng.choice([3.0, 5.0, 7.0])),
                )
                for i, c in enumerate(centers)
            )
            scene = Scene(
                graph=g0, obstacles=field(*obs),
                s=lattice_vertex(15, 7, 14), t=lattice_vertex(15, 7, 0),
            )
            res = rd_traverse(scene)
            assert res.n_dis <= len(obs)
            replay_and_check(scene, res)
            done += 1
        assert done == 50

    def test_dense_walks_replay(self):
        # a dense mixed field stops before edges several ambiguous disks
        # meet, so the replay's stop check compares entry parameters
        cell = ExperimentConfig(UniformPlacement(), Mixed(n_T=40, n_F=120), cost=0.5, reps=8)
        n_dis = 0
        for rep in range(cell.reps):
            scene = cell.scene(rep)
            res = rd_traverse(scene)
            replay_and_check(scene, res)
            n_dis += res.n_dis
        assert n_dis > 4 * cell.reps
