import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _oracle import (
    Disk,
    Point2,
    edge_points,
    entry_parameter,
    per_edge,
    point,
    segment_disk_intersects,
)
from obstaclesim import geometry
from obstaclesim.geometry import (
    GeometricGraph,
    Segments,
    build_lattice,
    index_edge_disks,
    lattice_vertex,
)
from obstaclesim.sensor import ObstacleError, Obstacles
from obstaclesim.traversal import Scene

SQRT2 = math.sqrt(2.0)


def _arrays(disks):
    """The centre and radius arrays ``(cx, cy, r)`` of a list of disks."""
    return (
        np.array([d.center.x for d in disks], dtype=np.float64),
        np.array([d.center.y for d in disks], dtype=np.float64),
        np.array([d.radius for d in disks], dtype=np.float64),
    )


def _incidence_oracle(graph, disks):
    """Full-pass incidence: every disk against every edge, no bucket index;
    ``(disk_ptr, edge_ids)`` with each disk's edges ascending."""
    segs = graph.segments()
    hit_edges = [
        np.flatnonzero(segs.disk_hits(d.center.x, d.center.y, d.radius)) for d in disks
    ]
    disk_ptr = np.zeros(len(disks) + 1, dtype=np.int64)
    if not hit_edges:
        return disk_ptr, np.zeros(0, dtype=np.int64)
    np.cumsum([e.size for e in hit_edges], out=disk_ptr[1:])
    return disk_ptr, np.concatenate(hit_edges)


def _default_disks(rng, n, radius=4.5, width=101, height=101):
    return [
        Disk(Point2(float(x), float(y)), radius)
        for x, y in zip(rng.uniform(0, width - 1, n), rng.uniform(0, height - 1, n))
    ]


def _obstacle(x, y, r):
    return Obstacles([x], [y], [r], [1.0], [0.5], [False])


def test_point_rejects_non_finite():
    # the package's points are graph vertices and obstacle centres
    with pytest.raises(ValueError, match="non-finite"):
        GeometricGraph([math.nan, 1.0], [0.0, 0.0], [0], [1], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        GeometricGraph([0.0, 1.0], [0.0, math.inf], [0], [1], [1.0])
    with pytest.raises(ObstacleError, match="centre must be finite"):
        _obstacle(math.nan, 0.0, 1.0)


def test_disk_rejects_bad_radius():
    # the package's disks are obstacles
    for r in (0.0, -1.0, 1e80):
        with pytest.raises(ObstacleError, match="radius"):
            _obstacle(0.0, 0.0, r)


def test_magnitudes_past_the_bound_rejected():
    # past MAX_COORD the squared terms of disk_hits can overflow: an edge
    # from (0, 0) to (1e80, 0) would not meet the disk at (5e79, 1), r = 2
    big = 1e80
    assert big > geometry.MAX_COORD
    with pytest.raises(ValueError, match=r"coordinates \(1e\+80, 0.0\) exceed 2\*\*200"):
        GeometricGraph([0.0, big], [0.0, 0.0], [0], [1], [big])
    with pytest.raises(ObstacleError, match="centre must be finite and at most 2"):
        _obstacle(0.0, -big, 1.0)


@pytest.mark.parametrize("far", [1e60, geometry.MAX_COORD])
def test_far_edge_keeps_its_hit_up_to_the_bound(far):
    g = GeometricGraph([0.0, far], [0.0, 0.0], [0], [1], [far])
    disk = (np.array([far / 2]), np.array([1.0]), np.array([2.0]))
    ptr, ids = index_edge_disks(g, *disk)
    assert ptr.tolist() == [0, 1] and ids.tolist() == [0]
    # the obstacle field's and the incidence's bounds are the graph's
    assert len(_obstacle(far, -far, far)) == 1


class TestBuildLattice:
    def test_default_grid_counts(self):
        g = build_lattice(101, 101)
        assert g.n_vertices == 10201
        assert g.n_edges == 40200

    def test_smallest_cell(self):
        g = build_lattice(2, 2)
        assert g.n_vertices == 4
        assert g.n_edges == 6
        lengths = sorted(g.edge_length.tolist())
        assert lengths == [1.0, 1.0, 1.0, 1.0, SQRT2, SQRT2]

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(1, 5)
        with pytest.raises(ValueError):
            build_lattice(5, 0)

    def test_degrees_partition(self):
        g = build_lattice(6, 5)
        degs = np.bincount(np.append(g.edge_u, g.edge_v), minlength=g.n_vertices).tolist()
        assert set(degs) == {3, 5, 8}
        assert degs.count(3) == 4  # corners
        assert degs.count(5) == 2 * (6 - 2) + 2 * (5 - 2)  # open boundary
        assert degs.count(8) == (6 - 2) * (5 - 2)  # interior

    def test_edge_lengths_unit_or_diagonal(self):
        g = build_lattice(7, 4)
        for u, v, length in zip(g.edge_u, g.edge_v, g.edge_length):
            du = abs(g.x[u] - g.x[v])
            dv = abs(g.y[u] - g.y[v])
            if du + dv == 1:
                assert length == 1.0
            else:
                assert (du, dv) == (1, 1)
                assert length == SQRT2

    def test_edge_count_formula_vs_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            w = int(rng.integers(2, 21))
            h = int(rng.integers(2, 21))
            g = build_lattice(w, h)
            assert g.n_edges == (w - 1) * h + w * (h - 1) + 2 * (w - 1) * (h - 1)
            # explicit neighborhood enumeration
            want = set()
            for j in range(h):
                for i in range(w):
                    for di, dj in ((1, 0), (0, 1), (1, 1), (-1, 1)):
                        ii, jj = i + di, j + dj
                        if 0 <= ii < w and 0 <= jj < h:
                            a = lattice_vertex(w, i, j)
                            b = lattice_vertex(w, ii, jj)
                            want.add((min(a, b), max(a, b)))
            got = set(zip(g.edge_u.tolist(), g.edge_v.tolist()))
            assert got == want

    def test_vertex_coordinates_row_major(self):
        g = build_lattice(4, 3)
        vid = lattice_vertex(4, 2, 1)
        assert (g.x[vid], g.y[vid]) == (2.0, 1.0)


class TestGeometricGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GeometricGraph([0, 1], [0, 0], [0], [0], [1.0])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            GeometricGraph([0, 1], [0, 0], [0, 1], [1, 0], [1.0, 1.0])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            GeometricGraph([0, 1], [0, 0], [0], [1], [0.0])

    def test_rejects_missing_vertex(self):
        with pytest.raises(ValueError):
            GeometricGraph([0], [0], [0], [1], [1.0])

    def test_edge_index_symmetric(self):
        g = build_lattice(3, 3)
        assert g.edge_ids([0], [1]) == g.edge_ids([1], [0])
        with pytest.raises(KeyError):
            g.edge_ids([0], [8])

    def test_base_lengths_built_once_and_read_only(self):
        g = build_lattice(3, 3)
        lengths = g.edge_length
        assert lengths.tolist() == [length for _, _, length in _loop_lattice(3, 3)[1]]
        with pytest.raises(ValueError):
            lengths[0] = 1.0


def _loop_lattice(width, height):
    """The per-edge lattice loop the array build replaced: (points, edges)."""
    points = [(float(i), float(j)) for j in range(height) for i in range(width)]
    edges = []
    for j in range(height):
        for i in range(width):
            v = j * width + i
            if i + 1 < width:
                edges.append((v, v + 1, 1.0))
            if j + 1 < height:
                edges.append((v, v + width, 1.0))
                if i + 1 < width:
                    edges.append((v, v + width + 1, SQRT2))
                if i > 0:
                    edges.append((v, v + width - 1, SQRT2))
    return points, edges


def _loop_graph(points, edges):
    """The per-edge constructor loop the array graph replaced.

    Returns ``(edges, indptr, vertex, edge)``, the cleaned (u < v) edge list
    and the CSR adjacency lists, or raises the loop's ValueError.
    """
    for x, y in points:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite coordinates ({x}, {y})")
    n = len(points)
    cleaned, seen = [], {}
    for k, (u, v, length) in enumerate(edges):
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) references missing vertex")
        if not (length > 0.0 and math.isfinite(length)):
            raise ValueError(f"edge ({u},{v}) has length {length}; lengths must be finite and > 0")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u},{v}) repeats edge {seen[u, v]}")
        seen[u, v] = k
        cleaned.append((u, v, float(length)))
    deg = [0] * n
    for u, v, _ in cleaned:
        deg[u] += 1
        deg[v] += 1
    indptr = [0] * (n + 1)
    for i in range(n):
        indptr[i + 1] = indptr[i] + deg[i]
    vert = [0] * (2 * len(cleaned))
    eidx = [0] * (2 * len(cleaned))
    cursor = indptr[:-1].copy()
    for k, (u, v, _) in enumerate(cleaned):
        vert[cursor[u]], eidx[cursor[u]] = v, k
        cursor[u] += 1
        vert[cursor[v]], eidx[cursor[v]] = u, k
        cursor[v] += 1
    return cleaned, indptr, vert, eidx


def _slots(g):
    """A graph's adjacency as the loop oracle's (indptr, vertex, edge) lists,
    after checking that each vertex's neighbour tuple spans its slots."""
    start = g._adj_start
    assert [len(nb) for nb in g._adj] == [b - a for a, b in zip(start, start[1:])]
    return start, [v for nb in g._adj for v in nb], g._slot_edge.tolist()


def _array_graph(points, edges):
    """GeometricGraph of (x, y) points and (u, v, length) edges."""
    x, y = zip(*points) if points else ((), ())
    u, v, length = zip(*edges) if edges else ((), (), ())
    return GeometricGraph(x, y, u, v, length)


class TestArrayGraph:
    """The array graph against the per-edge loops it replaced."""

    @pytest.mark.parametrize("w, h", [(2, 2), (3, 5), (7, 4), (101, 101)])
    def test_lattice_matches_loop_oracle(self, w, h):
        points, edges = _loop_lattice(w, h)
        want_edges, indptr, vert, eidx = _loop_graph(points, edges)
        for g in (build_lattice(w, h), _array_graph(points, edges)):
            assert g.x.dtype == g.y.dtype == g.edge_length.dtype == np.float64
            assert g.edge_u.dtype == g.edge_v.dtype == np.int64
            assert list(zip(g.x.tolist(), g.y.tolist())) == points
            got = zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_length.tolist())
            assert list(got) == want_edges
            assert _slots(g) == (indptr, vert, eidx)
            assert type(g._adj) is tuple and all(type(nb) is tuple for nb in g._adj)
            assert type(g._adj_start) is list and g._slot_edge.dtype == np.int64

    def test_either_orientation_is_stored_low_high(self):
        points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        edges = [(1, 0, 1.0), (2, 1, SQRT2), (0, 2, 1.0)]
        g = _array_graph(points, edges)
        assert g.edge_u.tolist() == [0, 1, 0]
        assert g.edge_v.tolist() == [1, 2, 2]
        assert _slots(g) == _loop_graph(points, edges)[1:]

    def test_lattice_retains_at_most_5_5_mb(self):
        # the planner's adjacency is a large share of what a lattice holds, so
        # its layout shows in every worker's RSS: the 101x101 lattice retains
        # ~3.95 MB with a neighbour tuple per vertex, both slot maps and no
        # second edge index (~4.6 MB with a sorted pair-key index as well),
        # ~8.7 MB with a (vertex, edge) tuple per slot
        build_lattice(3, 3)
        tracemalloc.start()
        try:
            g = build_lattice(101, 101)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.n_vertices == 101 * 101
        assert retained <= 5.5e6

    def test_lattice_and_its_caches_retain_at_most_6_mb(self):
        # what every sweep process holds once its first scene is built: the
        # 101x101 lattice with its segment endpoints, bucket index and
        # planner geometry retains ~5.64 MB (~7.26 MB with a sorted pair-key
        # index and the segments' b - a and |b - a|² kept as well)
        build_lattice(3, 3).planar()
        tracemalloc.start()
        try:
            g = build_lattice(101, 101)
            g.segments(), g.edge_grid(), g.planar()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.edge_grid().order.size == g.n_edges
        assert retained <= 6.0e6

    BAD_EDGES = (
        (2, 2, 1.0),  # self-loop
        (0, 4, 1.0),  # missing vertex
        (-1, 1, 1.0),
        (1, 0, 0.0),  # non-positive or non-finite length
        (2, 3, -1.0),
        (0, 3, math.inf),
        (1, 3, math.nan),
        (0, 1, 1.0),  # a duplicate, once a copy came first
        (1, 0, 1.0),
        (3, 2, 1.0),
    )

    def test_each_bad_input_class_gives_the_loop_message(self):
        points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        good = [(0, 1, 1.0), (2, 3, 1.0)]
        for bad in self.BAD_EDGES:
            edges = good + [bad]
            with pytest.raises(ValueError) as want:
                _loop_graph(points, edges)
            with pytest.raises(ValueError) as got:
                _array_graph(points, edges)
            assert str(got.value) == str(want.value)
        for x, y in ((math.inf, 0.0), (0.0, math.nan), (-math.inf, math.inf)):
            bad_points = points[:2] + [(x, y)] + points[3:]
            with pytest.raises(ValueError, match=r"non-finite coordinates \(") as got:
                _array_graph(bad_points, good)
            with pytest.raises(ValueError) as want:
                _loop_graph(bad_points, good)
            assert str(got.value) == str(want.value)

    def test_several_bad_edges_report_the_first_in_input_order(self):
        rng = np.random.default_rng(15)
        points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        pool = [(0, 1, 1.0), (2, 3, 1.0), (1, 2, SQRT2), (3, 1, 1.0)] + list(self.BAD_EDGES)
        for _ in range(300):
            picks = rng.integers(0, len(pool), int(rng.integers(1, 9)))
            edges = [pool[k] for k in picks]
            try:
                want = _loop_graph(points, edges)
            except ValueError as exc:
                with pytest.raises(geometry.EdgeError) as got:
                    _array_graph(points, edges)
                assert str(got.value) == str(exc)
                # the error carries the position of the first bad edge: the
                # loop accepts every shorter prefix
                k, first = got.value.index, got.value.first
                _loop_graph(points, edges[:k])
                # and the position of its pair's first copy
                pairs = [sorted(e[:2]) for e in edges]
                assert pairs.index(pairs[k]) == first
                with pytest.raises(ValueError):
                    _loop_graph(points, edges[: k + 1])
            else:
                g = _array_graph(points, edges)
                assert list(zip(g.edge_u.tolist(), g.edge_v.tolist(),
                                g.edge_length.tolist())) == want[0]

    @pytest.mark.parametrize("w, h", [(2, 2), (7, 4), (101, 101)])
    def test_edge_ids_agree_with_edge_index(self, w, h):
        g = build_lattice(w, h)
        ids = np.arange(g.n_edges)
        np.testing.assert_array_equal(g.edge_ids(g.edge_u, g.edge_v), ids)
        np.testing.assert_array_equal(g.edge_ids(g.edge_v, g.edge_u), ids)
        for k, u, v in zip(ids.tolist(), g.edge_u.tolist(), g.edge_v.tolist()):
            assert g.edge_ids([u], [v]) == g.edge_ids([v], [u]) == k

    def test_non_edges_raise_key_error(self):
        # criterion 12's network: a direct edge (0, 1) and a detour 0-2-3-4-1
        network = GeometricGraph([0, 10, 0, 5, 10], [0, 0, 4, 4, 4], [0, 0, 2, 3, 4],
                                 [1, 2, 3, 4, 1], [10.0, 4.0, 5.0, 5.0, 4.0])
        # ``wrap`` neighbours the last vertex, so (-1, wrap) would find an
        # edge if a negative id wrapped round; (-1, n + 1) would alias the
        # edge (0, 1) under a pair key lo * n + hi
        for g, far, wrap in ((build_lattice(4, 3), (0, 9), 10), (network, (0, 3), 3)):
            n = g.n_vertices
            for u, v in (far, (2, 2), (-1, wrap), (wrap, -1), (-1, 0), (0, n), (n, 0),
                         (-1, n + 1), (-n - 1, 0)):
                with pytest.raises(KeyError) as got:
                    g.edge_ids([u], [v])
                assert got.value.args == ((min(u, v), max(u, v)),)
            with pytest.raises(KeyError):
                g.edge_ids([0, 0], [1, far[1]])
        empty = GeometricGraph([0.0, 1.0], [0.0, 0.0], [], [], [])
        with pytest.raises(KeyError):
            empty.edge_ids([0], [1])

    def test_arrays_are_read_only(self):
        g = build_lattice(3, 3)
        for a in (g.x, g.y, g.edge_u, g.edge_v, g.edge_length):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_point_is_the_vertex(self):
        g = build_lattice(4, 3)
        v = lattice_vertex(4, 3, 2)
        assert (g.x[v], g.y[v]) == (3.0, 2.0)

    def test_segments_run_from_the_smaller_y_then_x(self):
        # every direction, in both id orders, plus coincident endpoints
        xs = [0.0, 1.0, 1.0, 0.0, -1.0, 0.0, 3.0, 3.0]
        ys = [0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 3.0, 3.0]
        us = [0, 2, 0, 4, 5, 0, 7]
        vs = [1, 0, 3, 0, 0, 6, 6]
        g = GeometricGraph(xs, ys, us, vs, [1.0] * len(us))
        seg = g.segments()
        got = list(zip(seg.ax.tolist(), seg.ay.tolist(), seg.bx.tolist(), seg.by.tolist()))
        assert got == [
            (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0, 1.0),
            (0.0, 0.0, -1.0, 1.0), (0.0, -1.0, 0.0, 0.0), (0.0, 0.0, 3.0, 3.0),
            (3.0, 3.0, 3.0, 3.0),
        ]
        assert [edge_points(g, k) for k in range(g.n_edges)] == [
            (Point2(a, b), Point2(c, d)) for a, b, c, d in got
        ]
        # the lattice's segments run edge_u -> edge_v
        lat = build_lattice(6, 5)
        seg = lat.segments()
        u, v = lat.edge_u, lat.edge_v
        assert np.array_equal(seg.ax, lat.x[u]) and np.array_equal(seg.ay, lat.y[u])
        assert np.array_equal(seg.bx, lat.x[v]) and np.array_equal(seg.by, lat.y[v])


def hits(a, b, d) -> bool:
    """``Segments.disk_hits`` on the one segment a -> b; the scalar oracle
    must give the same answer."""
    got = bool(Segments(a.x, a.y, b.x, b.y).disk_hits(d.center.x, d.center.y, d.radius))
    assert got == segment_disk_intersects(a, b, d)
    return got


def entry(a, b, d) -> float:
    """``Segments.entry`` on the one pair; the scalar oracle must give the
    same bits."""
    got = float(Segments(a.x, a.y, b.x, b.y).entry(d.center.x, d.center.y, d.radius))
    assert got.hex() == entry_parameter(a, b, d).hex()
    return got


def stop_entry(a, b, d):
    """The walk's rule for one disk on edge a -> b: its entry parameter if
    the predicate counts it, else None."""
    return entry(a, b, d) if hits(a, b, d) else None


class TestSegmentDiskIntersects:
    """The package's one predicate, Segments.disk_hits, on single pairs."""

    def test_center_on_segment(self):
        assert hits(Point2(0, 0), Point2(1, 0), Disk(Point2(0.5, 0), 0.45))

    def test_clearly_disjoint(self):
        assert not hits(Point2(0, 0), Point2(1, 0), Disk(Point2(0, 2), 1.0))

    def test_tangent_counts(self):
        # distance from segment y=0 to center (0.5, 1) is exactly 1
        assert hits(Point2(0, 0), Point2(1, 0), Disk(Point2(0.5, 1), 1.0))

    def test_endpoint_contact(self):
        assert hits(Point2(0, 0), Point2(1, 0), Disk(Point2(2, 0), 1.0))
        assert not hits(Point2(0, 0), Point2(1, 0), Disk(Point2(2.001, 0), 1.0))

    def test_degenerate_segment_is_its_point(self):
        # a zero-extent edge (coincident vertices) meets the disks its point is in
        p = Point2(1, 1)
        assert hits(p, p, Disk(Point2(0, 0), 1.5))
        assert not hits(p, p, Disk(Point2(0, 0), 1.0))

    def test_symmetry_in_endpoints(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = Point2(*rng.uniform(-5, 5, 2))
            b = Point2(*rng.uniform(-5, 5, 2))
            if (a.x, a.y) == (b.x, b.y):
                continue
            d = Disk(Point2(*rng.uniform(-5, 5, 2)), float(rng.uniform(0.1, 3)))
            assert hits(a, b, d) == hits(b, a, d)

    def test_default_radius_always_hits_lattice_edges(self):
        # radius 4.5 disk anywhere in the insertion window covers at least
        # one lattice vertex, hence intersects its incident edges
        g = build_lattice(101, 101)
        rng = np.random.default_rng(3)
        disks = [
            Disk(Point2(float(x), float(y)), 4.5)
            for x, y in zip(rng.uniform(10, 90, 25), rng.uniform(10, 90, 25))
        ]
        incidence = per_edge(g, index_edge_disks(g, *_arrays(disks)))
        hit_disks = set()
        for eid_list in incidence:
            hit_disks.update(eid_list)
        assert hit_disks == set(range(len(disks)))


class TestEntryParameter:
    """Segments.entry, the walk's entry rule, against the scalar oracle."""

    def test_interior_entry(self):
        t = entry(Point2(0, 0), Point2(2, 0), Disk(Point2(1, 0), 0.5))
        assert t == 0.25

    def test_start_inside_is_zero(self):
        assert entry(Point2(0, 0), Point2(2, 0), Disk(Point2(0, 0), 1)) == 0.0

    def test_disjoint_is_none(self):
        assert stop_entry(Point2(0, 0), Point2(1, 0), Disk(Point2(5, 5), 1)) is None

    def test_result_in_unit_interval_and_on_boundary(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            a = Point2(*rng.uniform(-4, 4, 2))
            b = Point2(*rng.uniform(-4, 4, 2))
            if (a.x, a.y) == (b.x, b.y):
                continue
            d = Disk(Point2(*rng.uniform(-4, 4, 2)), float(rng.uniform(0.2, 2.5)))
            t = stop_entry(a, b, d)
            if t is None:
                continue
            assert 0.0 <= t <= 1.0
            px = a.x + t * (b.x - a.x)
            py = a.y + t * (b.y - a.y)
            dist = math.hypot(px - d.center.x, py - d.center.y)
            # entry point sits on (or inside, when clamped at t=0) the disk
            assert dist <= d.radius + 1e-9

    def test_equivalence_with_intersection_predicate(self):
        # the walk's rule (predicate, then entry) is the scalar rule gated
        # by the scalar predicate, pair for pair and bit for bit
        rng = np.random.default_rng(29)
        for _ in range(2000):
            a = Point2(*rng.uniform(-6, 6, 2))
            b = Point2(*rng.uniform(-6, 6, 2))
            if (a.x, a.y) == (b.x, b.y):
                continue
            d = Disk(Point2(*rng.uniform(-6, 6, 2)), float(rng.uniform(0.05, 4)))
            want = entry_parameter(a, b, d) if segment_disk_intersects(a, b, d) else None
            assert stop_entry(a, b, d) == want

    @pytest.mark.parametrize(
        "a, b, d, t",
        [
            # tangent below the edge at x = 0.1; rounding puts it on either
            # side of r depending on the direction
            ((0, 0), (1, 0), ((0.1, -0.7), 0.7), 0.1),
            ((1, 0), (0, 0), ((0.1, -0.7), 0.7), 0.9),
            ((0, 0), (1, 0), ((0.5, 1), 1.0), 0.5),  # exact tangency
            ((1, 0), (0, 0), ((0.5, 1), 1.0), 0.5),
            ((0, 0), (1, 0), ((2, 0), 1.0), 1.0),  # grazes the end point
            ((0, 0), (1, 1), ((0.5, -0.5), math.sqrt(0.5)), 0.0),  # grazes the start
            ((0, 0), (2, 0), ((0.25, 0.1), 0.5), 0.0),  # starts inside
            ((0, 0), (2, 0), ((2, 0.25), 0.5), 1 - math.sqrt(0.1875) / 2),  # ends inside
            ((0, 0), (4, 0), ((2, 0.6), 1.0), 0.3),  # crosses
            ((0, 0), (4, 0), ((2, 0), 1.0), 0.25),
        ],
        ids=["tangent-ab", "tangent-ba", "exact-ab", "exact-ba", "end-graze",
             "start-graze", "start-inside", "end-inside", "chord", "diameter"],
    )
    def test_contact_cases_match_the_oracle(self, a, b, d, t):
        a, b, d = Point2(*a), Point2(*b), Disk(Point2(*d[0]), d[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = entry(a, b, d)
        assert got == pytest.approx(t, abs=1e-6)

    def test_zero_length_segment_is_zero(self):
        p = Point2(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seg = Segments(p.x, p.y, p.x, p.y)
            t = seg.entry(np.array([0.0, 1.0, 5.0]), np.array([0.0, 1.5, 5.0]), 1.0)
        assert t.tolist() == [0.0, 0.0, 0.0]
        assert entry(p, p, Disk(Point2(5.0, 5.0), 1.0)) == 0.0

    def test_random_lattice_edge_pairs_match_the_oracle(self):
        # one array call over thousands of (edge, disk) pairs, in the graph's
        # orientation and reversed, equals the oracle pair by pair; integer
        # and half-integer centres give exact tangencies and grazes
        g = build_lattice(12, 9)
        rng = np.random.default_rng(31)
        n = 4000
        k = rng.integers(0, g.n_edges, n)
        seg = g.segments().take(k)
        cx = seg.ax + np.round(rng.uniform(-2, 2, n) * 2) / 2
        cy = seg.ay + np.round(rng.uniform(-2, 2, n) * 2) / 2
        cx[::2] += rng.uniform(-0.5, 0.5, n // 2)
        r = rng.choice([0.5, 1.0, math.sqrt(0.5), 1.5, 0.7], n)
        back = Segments(seg.bx, seg.by, seg.ax, seg.ay)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [seg.entry(cx, cy, r), back.entry(cx, cy, r)]
            mask = seg.disk_hits(cx, cy, r)
        ends = [edge_points(g, e) for e in k.tolist()]
        disks = [Disk(Point2(x, y), rr) for x, y, rr in zip(cx.tolist(), cy.tolist(), r.tolist())]
        want = np.array([entry_parameter(a, b, d) for (a, b), d in zip(ends, disks)])
        want_back = np.array([entry_parameter(b, a, d) for (a, b), d in zip(ends, disks)])
        assert got[0].tobytes() == want.tobytes()
        assert got[1].tobytes() == want_back.tobytes()
        assert mask.tolist() == [
            segment_disk_intersects(a, b, d) for (a, b), d in zip(ends, disks)
        ]
        assert n // 4 < mask.sum() < n - n // 4


class TestIndexEdgeDisks:
    def test_empty_disk_list(self):
        g = build_lattice(3, 3)
        ptr, ids = index_edge_disks(g, *_arrays([]))
        assert ptr.tolist() == [0]
        assert ids.size == 0

    def test_single_disk_on_2x2(self):
        # disk ((0.5,0), 0.45): hits the bottom edge (distance 0) and both
        # diagonals (distance 0.5/sqrt2 ~ 0.354); misses the verticals
        # (nearest endpoints at distance 0.5) and the top edge (distance 1)
        g = build_lattice(2, 2)
        incidence = per_edge(g, index_edge_disks(g, *_arrays([Disk(Point2(0.5, 0), 0.45)])))
        hit = {k for k, ids in enumerate(incidence) if ids == [0]}
        expected = set(g.edge_ids([0, 0, 1], [1, 3, 2]).tolist())
        assert hit == expected
        assert all(not ids for k, ids in enumerate(incidence) if k not in expected)

    def test_disk_covering_vertex_hits_all_incident_edges(self):
        g = build_lattice(5, 5)
        center = point(g, lattice_vertex(5, 2, 2))
        incidence = per_edge(g, index_edge_disks(g, *_arrays([Disk(center, 0.3)])))
        hit = {k for k, ids in enumerate(incidence) if ids}
        start = g._adj_start[lattice_vertex(5, 2, 2)]
        stop = g._adj_start[lattice_vertex(5, 2, 2) + 1]
        incident = set(g._slot_edge[start:stop].tolist())
        assert len(incident) == 8
        assert incident <= hit

    def test_matches_scalar_predicate_exactly(self):
        # the vectorized index and the scalar predicate must agree bitwise
        g = build_lattice(8, 6)
        rng = np.random.default_rng(41)
        disks = [
            Disk(Point2(*rng.uniform(0, 7, 2)), float(rng.uniform(0.1, 3.0)))
            for _ in range(30)
        ]
        incidence = per_edge(g, index_edge_disks(g, *_arrays(disks)))
        for k in range(g.n_edges):
            a, b = edge_points(g, k)
            expect = [did for did, dd in enumerate(disks) if segment_disk_intersects(a, b, dd)]
            assert incidence[k] == expect

    @pytest.mark.parametrize(
        "cx, cy, r",
        [
            ([5.0], [5.0], [-1.5]),
            ([5.0], [5.0], [0.0]),
            ([5.0], [5.0], [math.nan]),
            ([5.0], [5.0], [math.inf]),
            ([math.nan], [5.0], [1.5]),
            ([5.0], [-math.inf], [1.5]),
            ([5.0], [5.0, 6.0], [1.5]),
            ([5.0, 6.0], [5.0], [1.5, 1.5]),
            ([5.0], [5.0], [1.5, 1.5]),
            ([[5.0]], [[5.0]], [[1.5]]),
            ([5.0], [5.0], [1e80]),
            ([-1e80], [5.0], [1.5]),
        ],
        ids=["negative-r", "zero-r", "nan-r", "inf-r", "nan-cx", "inf-cy",
             "long-cy", "long-cx", "long-r", "2-d", "huge-r", "huge-cx"],
    )
    def test_rejects_bad_disk_arrays(self, cx, cy, r, monkeypatch):
        g = build_lattice(11, 11)

        def no_work(*args):
            raise AssertionError("the bucket index was queried")

        monkeypatch.setattr(geometry.EdgeGrid, "candidate_rows", no_work)
        with pytest.raises(ValueError):
            index_edge_disks(g, *(np.array(a, dtype=np.float64) for a in (cx, cy, r)))

    def test_incidence_sorted_by_disk_id(self):
        g = build_lattice(4, 4)
        center = point(g, lattice_vertex(4, 1, 1))
        disks = [Disk(center, 2.0), Disk(center, 1.0)]
        ptr, ids = index_edge_disks(g, *_arrays(disks))
        assert ptr[0] == 0 and ptr[-1] == ids.size and (np.diff(ptr) > 0).all()
        incidence = per_edge(g, (ptr, ids))
        # the smaller disk lies inside the larger: every edge it meets has both
        assert {k for k, d in enumerate(incidence) if 1 in d} <= {
            k for k, d in enumerate(incidence) if d == [0, 1]
        }
        # the scene holds the same incidence
        scene = Scene(
            graph=g,
            obstacles=Obstacles(*_arrays(disks), [5.0, 5.0], [0.5, 0.5], [False, False]),
            s=lattice_vertex(4, 3, 3),
            t=lattice_vertex(4, 3, 0),
        )
        assert per_edge(g, (scene.disk_ptr, scene.inc_edge)) == incidence


LATTICE_KINDS = ("default", "integer", "half", "off", "cover", "band", "tiny", "huge")
NETWORK_KINDS = ("random", "collinear", "long", "coincident", "far", "band", "tiny")
#: where the "far" networks sit
FAR = (1e4, -1e4)


def _ulps(rng, v):
    """``v`` or one of its two float neighbours."""
    return float(np.nextafter(v, v + int(rng.integers(-1, 2))))


def _band_disks(rng, graph, n):
    """Disks placed on the edges of the bucket grid's candidate spans.

    Each disk's top or bottom (``cy ± r``) lies on the edge of a row band
    ``[y0 + j*cell, y0 + j*cell + cell + pad_y]`` (see
    EdgeGrid.candidate_rows), or one ulp to either side of it. Its centre is
    on a cell boundary, or its side ``cx ± r`` is, or neither, again give or
    take an ulp.
    """
    grid = graph.edge_grid()
    c = grid.cell
    disks = []
    for _ in range(n):
        r = float(rng.choice([0.125, 0.5, 1.0, 2.5, 7.0])) * c
        lo = grid.y0 + int(rng.integers(-1, grid.ny + 1)) * c
        edge = (lo, lo + (c + grid.pad_y))[int(rng.integers(2))]
        cy = _ulps(rng, edge + float(rng.choice([-r, r])))
        col = grid.x0 + int(rng.integers(-1, grid.nx + 2)) * c
        cx = (col, col - r, col + r, col + float(rng.uniform(0, c)))[int(rng.integers(4))]
        disks.append(Disk(Point2(_ulps(rng, cx), cy), r))
    return disks


def _tiny_disks(rng, graph, n):
    """Disks far smaller than a cell, centred on or an ulp off the graph's
    edges: at an end, the midpoint or a random point of a random edge."""
    seg = graph.segments()
    disks = []
    for _ in range(n):
        k = int(rng.integers(0, graph.n_edges))
        t = (0.0, 0.5, float(rng.random()))[int(rng.integers(3))]
        cx = _ulps(rng, seg.ax[k] + t * (seg.bx[k] - seg.ax[k]))
        cy = _ulps(rng, seg.ay[k] + t * (seg.by[k] - seg.ay[k]))
        r = float(rng.choice([2.0**-40, 1e-9, 1e-6, 1e-3])) * graph.edge_grid().cell
        disks.append(Disk(Point2(cx, cy), r))
    return disks


def _lattice_disks(rng, kind, w, h):
    """Random disks of one kind on a w x h lattice (see TestBucketedIncidence)."""
    n = int(rng.integers(0, 30))
    if kind in ("band", "tiny"):
        g = build_lattice(w, h)
        return (_band_disks if kind == "band" else _tiny_disks)(rng, g, n)
    if kind == "huge":  # radii past the lattice's extent, centres anywhere near it
        return [
            Disk(Point2(*rng.uniform(-2 * w, 3 * w, 2)), float(rng.uniform(1, 3) * (w + h)))
            for _ in range(n)
        ]
    if kind == "default":
        return _default_disks(rng, n, 4.5, w, h)
    if kind == "integer":  # integer centers and radii: exact tangencies
        return [
            Disk(
                Point2(float(rng.integers(-2, w + 2)), float(rng.integers(-2, h + 2))),
                float(rng.integers(1, 5)),
            )
            for _ in range(n)
        ]
    if kind == "half":  # cell centers, r = sqrt(0.5): touches the four corners
        return [
            Disk(
                Point2(rng.integers(0, w) + 0.5, rng.integers(0, h) + 0.5), math.sqrt(0.5)
            )
            for _ in range(n)
        ]
    if kind == "off":  # overhanging the lattice or wholly outside it
        return [
            Disk(
                Point2(*rng.uniform(-3 * w, 4 * w, 2)),
                float(rng.uniform(0.01, 2 * w)),
            )
            for _ in range(n)
        ]
    assert kind == "cover"  # one disk covering everything, among small ones
    return [Disk(Point2(*rng.uniform(0, w, 2)), float(10 * (w + h)))] + _default_disks(
        rng, n, 1.0, w, h
    )


def _random_network(rng, kind):
    """Random network of one kind (see TestBucketedIncidence)."""
    nv = int(rng.integers(2, 40))
    xs = rng.uniform(-20, 20, nv)
    ys = np.full(nv, 3.0) if kind == "collinear" else rng.uniform(-20, 20, nv)
    if kind == "far":
        xs, ys = xs + FAR[0], ys + FAR[1]
    if kind == "long":
        xs[0], ys[0] = 1e4, -3e3
    if kind == "coincident":
        xs[1], ys[1] = xs[0], ys[0]
    pairs = {(0, nv - 1)} if kind in ("long", "coincident") else set()
    if kind == "coincident":
        pairs.add((0, 1))  # zero-length segment, explicit length 1
    for u, v in rng.integers(0, nv, (int(rng.integers(1, 3 * nv)), 2)):
        if u != v:
            pairs.add((int(min(u, v)), int(max(u, v))))
    u, v = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
    return GeometricGraph(xs, ys, u, v, np.ones(u.size))


def _network_disks(rng, kind, graph):
    """Random disks for a network of one kind (see TestBucketedIncidence)."""
    n = int(rng.integers(0, 30))
    if kind in ("band", "tiny"):
        return (_band_disks if kind == "band" else _tiny_disks)(rng, graph, n)
    ox, oy = FAR if kind == "far" else (0.0, 0.0)
    disks = []
    for _ in range(n):
        cx, cy = rng.uniform(-25, 25, 2)
        disks.append(Disk(Point2(cx + ox, cy + oy), float(rng.uniform(0.05, 8))))
    return disks


class TestBucketedIncidence:
    """index_edge_disks (bucketed) against the full-pass oracle, disk for disk:
    the same pointer, and each disk's edges the oracle's once each."""

    @staticmethod
    def assert_same(graph, disks):
        ptr, ids = index_edge_disks(graph, *_arrays(disks))
        want_ptr, want_ids = _incidence_oracle(graph, disks)
        assert ptr.dtype == want_ptr.dtype and ids.dtype == want_ids.dtype
        np.testing.assert_array_equal(ptr, want_ptr)
        # (disk, edge) keys: sorting them sorts each disk's edges in place
        disk = np.repeat(np.arange(len(disks)), np.diff(ptr))
        key, want_key = disk * graph.n_edges + ids, disk * graph.n_edges + want_ids
        np.testing.assert_array_equal(np.sort(key), want_key)

    def test_default_lattice_matches_oracle(self):
        g = build_lattice(101, 101)
        rng = np.random.default_rng(5)
        for n in (0, 1, 80, 160):
            self.assert_same(g, _default_disks(rng, n))
        self.assert_same(g, _lattice_disks(rng, "off", 101, 101))

    @pytest.mark.parametrize("seed, kind", enumerate(LATTICE_KINDS))
    def test_lattices_match_oracle(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            w, h = (int(v) for v in rng.integers(2, 30, 2))
            g = build_lattice(w, h)
            self.assert_same(g, _lattice_disks(rng, kind, w, h))

    @pytest.mark.parametrize("seed, kind", enumerate(NETWORK_KINDS, start=100))
    def test_networks_match_oracle(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            g = _random_network(rng, kind)
            self.assert_same(g, _network_disks(rng, kind, g))

    def test_collinear_network_is_one_grid_row(self):
        rng = np.random.default_rng(9)
        assert _random_network(rng, "collinear").edge_grid().ny == 1

    def test_hit_past_the_rounded_bounding_box_is_kept(self):
        # cx + r rounds to just below 3.0, yet the exact predicate counts the
        # vertical edge x = 3 as touched: only the margin on r keeps it
        cx, r = -3.8400000000000003, 6.84
        assert cx + r < 3.0
        g = build_lattice(5, 2)
        vertical = g.edge_ids([lattice_vertex(5, 3, 0)], [lattice_vertex(5, 3, 1)])[0]
        disk = Disk(Point2(cx, 0.5), r)
        assert segment_disk_intersects(point(g, 3), point(g, 8), disk)
        assert per_edge(g, index_edge_disks(g, *_arrays([disk])))[vertical] == [0]
        self.assert_same(g, [disk])

    def test_cancellation_hit_beside_a_long_edge_is_kept(self):
        # the disk is ~1e-4 from the edge, 1e5 radii away, but the predicate's
        # cross-multiplied interior test cancels terms of ~1e15 and counts the
        # pair; the candidate margin must cover that square-root error, which
        # is far above 2**-30 of the coordinate magnitudes
        delta, length = 6.733576891590598e-06, 1e4
        cx, cy, r = -9.625966633336776e-05, 5024.298213583255, 1e-09
        g = GeometricGraph([0.0, delta], [0.0, length], [0], [1], [length])
        disk = Disk(Point2(cx, cy), r)
        assert segment_disk_intersects(*edge_points(g, 0), disk)
        assert cx + r + 2.0**-30 * (abs(cx) + abs(cy) + r + delta + 2 * length) < 0.0
        assert per_edge(g, index_edge_disks(g, *_arrays([disk]))) == [[0]]
        self.assert_same(g, [disk])

    def test_zero_length_segment_is_indexed(self):
        g = GeometricGraph([2, 2, 5], [2, 2, 2], [0, 0], [1, 2], [1.0, 3.0])
        for x, want in ((2, [[0], [0]]), (4, [[], [0]])):
            assert per_edge(g, index_edge_disks(g, *_arrays([Disk(Point2(x, 3), 1.0)]))) == want

    def test_grid_built_once_lazily_and_shared_by_scenes(self, monkeypatch):
        built = []

        class CountingGrid(geometry.EdgeGrid):
            def __init__(self, segs):
                built.append(segs)
                super().__init__(segs)

        monkeypatch.setattr(geometry, "EdgeGrid", CountingGrid)
        g = build_lattice(11, 11)
        assert g._edge_grid is None
        s, t = lattice_vertex(11, 5, 10), lattice_vertex(11, 5, 0)

        def scene(center):
            obstacle = Obstacles([center.x], [center.y], [1.5], [5.0], [0.5], [False])
            return Scene(graph=g, obstacles=obstacle, s=s, t=t)

        a = scene(Point2(5, 5))
        grid = g._edge_grid
        assert isinstance(grid, CountingGrid)
        b = scene(Point2(2, 3))
        assert g.edge_grid() is grid
        assert len(built) == 1
        middle = g.edge_ids([lattice_vertex(11, 5, 5)], [lattice_vertex(11, 5, 6)])[0]
        assert per_edge(g, (a.disk_ptr, a.inc_edge))[middle] == [0]
        assert per_edge(g, (b.disk_ptr, b.inc_edge))[middle] == []

    def test_candidates_are_a_small_fraction_of_all_pairs(self):
        # the bucket index, not a full pass, decides what the predicate sees
        g = build_lattice(101, 101)
        disks = _default_disks(np.random.default_rng(17), 80)
        _, start, stop = g.edge_grid().candidate_rows(*_arrays(disks))
        candidates = int((stop - start).sum())
        assert candidates < 0.05 * 80 * g.n_edges
        # the per-row spans follow the circle: few candidates miss
        assert candidates < 1.6 * index_edge_disks(g, *_arrays(disks))[1].size
