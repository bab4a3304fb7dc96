import math

import numpy as np
import pytest

from obstaclesim import geometry
from obstaclesim.geometry import (
    Disk,
    GeometricGraph,
    Point2,
    build_lattice,
    entry_parameter,
    index_edge_disks,
    lattice_vertex,
    segment_disk_intersects,
)
from obstaclesim.sensor import Obstacles
from obstaclesim.traversal import Scene

SQRT2 = math.sqrt(2.0)


def per_edge(incidence):
    """CSR incidence (edge_ptr, disk_ids) as one list of disk ids per edge."""
    ptr, ids = incidence
    return [ids[ptr[k]:ptr[k + 1]].tolist() for k in range(len(ptr) - 1)]


def _arrays(disks):
    """The centre and radius arrays ``(cx, cy, r)`` of a list of disks."""
    return (
        np.array([d.center.x for d in disks], dtype=np.float64),
        np.array([d.center.y for d in disks], dtype=np.float64),
        np.array([d.radius for d in disks], dtype=np.float64),
    )


def _incidence_oracle(graph, disks):
    """Full-pass incidence: every disk against every edge, no bucket index."""
    ne = graph.n_edges
    segs = graph.segments()
    hit_edges = [
        np.flatnonzero(segs.disk_hits(d.center.x, d.center.y, d.radius)) for d in disks
    ]
    edge_ptr = np.zeros(ne + 1, dtype=np.int64)
    if not hit_edges:
        return edge_ptr, np.zeros(0, dtype=np.int64)
    edge_ids = np.concatenate(hit_edges)
    disk_ids = np.repeat(np.arange(len(disks)), [e.size for e in hit_edges])
    order = np.argsort(edge_ids, kind="stable")
    np.cumsum(np.bincount(edge_ids, minlength=ne), out=edge_ptr[1:])
    return edge_ptr, disk_ids[order]


def _default_disks(rng, n, radius=4.5, width=101, height=101):
    return [
        Disk(Point2(float(x), float(y)), radius)
        for x, y in zip(rng.uniform(0, width - 1, n), rng.uniform(0, height - 1, n))
    ]


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, math.inf)


def test_disk_rejects_bad_radius():
    with pytest.raises(ValueError):
        Disk(Point2(0, 0), 0.0)
    with pytest.raises(ValueError):
        Disk(Point2(0, 0), -1.0)


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
    cleaned, seen = [], set()
    for u, v, length in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) references missing vertex")
        if not (length > 0.0 and math.isfinite(length)):
            raise ValueError(f"edge ({u},{v}) has non-positive length {length}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
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
            assert g._adj_indptr == indptr
            assert g._adj_vertex == vert
            assert g._adj_edge == eidx
            assert type(g._adj_indptr) is type(g._adj_vertex) is type(g._adj_edge) is list

    def test_either_orientation_is_stored_low_high(self):
        points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        edges = [(1, 0, 1.0), (2, 1, SQRT2), (0, 2, 1.0)]
        g = _array_graph(points, edges)
        assert g.edge_u.tolist() == [0, 1, 0]
        assert g.edge_v.tolist() == [1, 2, 2]
        assert (g._adj_vertex, g._adj_edge) == _loop_graph(points, edges)[2:]

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
                with pytest.raises(ValueError) as got:
                    _array_graph(points, edges)
                assert str(got.value) == str(exc)
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
        g = build_lattice(4, 3)
        # (-1, n + 1) has the pair key of the edge (0, 1)
        for u, v in ((0, 9), (3, 3), (-1, 0), (0, g.n_vertices), (-1, g.n_vertices + 1)):
            with pytest.raises(KeyError):
                g.edge_ids([u], [v])
        with pytest.raises(KeyError):
            g.edge_ids([0, 0], [1, 9])
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
        assert g.point(lattice_vertex(4, 3, 2)) == Point2(3.0, 2.0)


class TestSegmentDiskIntersects:
    def test_center_on_segment(self):
        assert segment_disk_intersects(
            Point2(0, 0), Point2(1, 0), Disk(Point2(0.5, 0), 0.45)
        )

    def test_clearly_disjoint(self):
        assert not segment_disk_intersects(
            Point2(0, 0), Point2(1, 0), Disk(Point2(0, 2), 1.0)
        )

    def test_tangent_counts(self):
        # distance from segment y=0 to center (0.5, 1) is exactly 1
        assert segment_disk_intersects(
            Point2(0, 0), Point2(1, 0), Disk(Point2(0.5, 1), 1.0)
        )

    def test_endpoint_contact(self):
        assert segment_disk_intersects(
            Point2(0, 0), Point2(1, 0), Disk(Point2(2, 0), 1.0)
        )
        assert not segment_disk_intersects(
            Point2(0, 0), Point2(1, 0), Disk(Point2(2.001, 0), 1.0)
        )

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            segment_disk_intersects(Point2(1, 1), Point2(1, 1), Disk(Point2(0, 0), 1))

    def test_symmetry_in_endpoints(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = Point2(*rng.uniform(-5, 5, 2))
            b = Point2(*rng.uniform(-5, 5, 2))
            if (a.x, a.y) == (b.x, b.y):
                continue
            d = Disk(Point2(*rng.uniform(-5, 5, 2)), float(rng.uniform(0.1, 3)))
            assert segment_disk_intersects(a, b, d) == segment_disk_intersects(b, a, d)

    def test_default_radius_always_hits_lattice_edges(self):
        # radius 4.5 disk anywhere in the insertion window covers at least
        # one lattice vertex, hence intersects its incident edges
        g = build_lattice(101, 101)
        rng = np.random.default_rng(3)
        disks = [
            Disk(Point2(float(x), float(y)), 4.5)
            for x, y in zip(rng.uniform(10, 90, 25), rng.uniform(10, 90, 25))
        ]
        incidence = per_edge(index_edge_disks(g, *_arrays(disks)))
        hit_disks = set()
        for eid_list in incidence:
            hit_disks.update(eid_list)
        assert hit_disks == set(range(len(disks)))


class TestEntryParameter:
    def test_interior_entry(self):
        t = entry_parameter(Point2(0, 0), Point2(2, 0), Disk(Point2(1, 0), 0.5))
        assert t == 0.25

    def test_start_inside_is_zero(self):
        assert entry_parameter(Point2(0, 0), Point2(2, 0), Disk(Point2(0, 0), 1)) == 0.0

    def test_disjoint_is_none(self):
        assert entry_parameter(Point2(0, 0), Point2(1, 0), Disk(Point2(5, 5), 1)) is None

    def test_result_in_unit_interval_and_on_boundary(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            a = Point2(*rng.uniform(-4, 4, 2))
            b = Point2(*rng.uniform(-4, 4, 2))
            if (a.x, a.y) == (b.x, b.y):
                continue
            d = Disk(Point2(*rng.uniform(-4, 4, 2)), float(rng.uniform(0.2, 2.5)))
            t = entry_parameter(a, b, d)
            if t is None:
                continue
            assert 0.0 <= t <= 1.0
            px = a.x + t * (b.x - a.x)
            py = a.y + t * (b.y - a.y)
            dist = math.hypot(px - d.center.x, py - d.center.y)
            # entry point sits on (or inside, when clamped at t=0) the disk
            assert dist <= d.radius + 1e-9

    def test_equivalence_with_intersection_predicate(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            a = Point2(*rng.uniform(-6, 6, 2))
            b = Point2(*rng.uniform(-6, 6, 2))
            if (a.x, a.y) == (b.x, b.y):
                continue
            d = Disk(Point2(*rng.uniform(-6, 6, 2)), float(rng.uniform(0.05, 4)))
            assert (entry_parameter(a, b, d) is not None) == segment_disk_intersects(
                a, b, d
            )


class TestIndexEdgeDisks:
    def test_empty_disk_list(self):
        g = build_lattice(3, 3)
        ptr, ids = index_edge_disks(g, *_arrays([]))
        assert ptr.tolist() == [0] * (g.n_edges + 1)
        assert ids.size == 0

    def test_single_disk_on_2x2(self):
        # disk ((0.5,0), 0.45): hits the bottom edge (distance 0) and both
        # diagonals (distance 0.5/sqrt2 ~ 0.354); misses the verticals
        # (nearest endpoints at distance 0.5) and the top edge (distance 1)
        g = build_lattice(2, 2)
        incidence = per_edge(index_edge_disks(g, *_arrays([Disk(Point2(0.5, 0), 0.45)])))
        hit = {k for k, ids in enumerate(incidence) if ids == [0]}
        expected = set(g.edge_ids([0, 0, 1], [1, 3, 2]).tolist())
        assert hit == expected
        assert all(not ids for k, ids in enumerate(incidence) if k not in expected)

    def test_disk_covering_vertex_hits_all_incident_edges(self):
        g = build_lattice(5, 5)
        center = g.point(lattice_vertex(5, 2, 2))
        incidence = per_edge(index_edge_disks(g, *_arrays([Disk(center, 0.3)])))
        hit = {k for k, ids in enumerate(incidence) if ids}
        start = g._adj_indptr[lattice_vertex(5, 2, 2)]
        stop = g._adj_indptr[lattice_vertex(5, 2, 2) + 1]
        incident = set(g._adj_edge[start:stop])
        assert incident <= hit

    def test_matches_scalar_predicate_exactly(self):
        # the vectorized index and the scalar predicate must agree bitwise
        g = build_lattice(8, 6)
        rng = np.random.default_rng(41)
        disks = [
            Disk(Point2(*rng.uniform(0, 7, 2)), float(rng.uniform(0.1, 3.0)))
            for _ in range(30)
        ]
        incidence = per_edge(index_edge_disks(g, *_arrays(disks)))
        for k, (u, v) in enumerate(zip(g.edge_u, g.edge_v)):
            expect = [
                did
                for did, dd in enumerate(disks)
                if segment_disk_intersects(g.point(u), g.point(v), dd)
            ]
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
        ],
        ids=["negative-r", "zero-r", "nan-r", "inf-r", "nan-cx", "inf-cy",
             "long-cy", "long-cx", "long-r", "2-d"],
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
        center = g.point(lattice_vertex(4, 1, 1))
        disks = [Disk(center, 2.0), Disk(center, 1.0)]
        incidence = per_edge(index_edge_disks(g, *_arrays(disks)))
        for ids in incidence:
            assert ids == sorted(ids)


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
        cx = _ulps(rng, seg.ax[k] + t * seg.abx[k])
        cy = _ulps(rng, seg.ay[k] + t * seg.aby[k])
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
    """index_edge_disks (bucketed) against the full-pass oracle, array for array."""

    @staticmethod
    def assert_same(graph, disks):
        ptr, ids = index_edge_disks(graph, *_arrays(disks))
        want_ptr, want_ids = _incidence_oracle(graph, disks)
        assert ptr.dtype == want_ptr.dtype and ids.dtype == want_ids.dtype
        np.testing.assert_array_equal(ptr, want_ptr)
        np.testing.assert_array_equal(ids, want_ids)

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
        assert segment_disk_intersects(g.point(3), g.point(8), disk)
        assert per_edge(index_edge_disks(g, *_arrays([disk])))[vertical] == [0]
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
        assert segment_disk_intersects(g.point(0), g.point(1), disk)
        assert cx + r + 2.0**-30 * (abs(cx) + abs(cy) + r + delta + 2 * length) < 0.0
        assert per_edge(index_edge_disks(g, *_arrays([disk]))) == [[0]]
        self.assert_same(g, [disk])

    def test_zero_length_segment_is_indexed(self):
        g = GeometricGraph([2, 2, 5], [2, 2, 2], [0, 0], [1, 2], [1.0, 3.0])
        for x, want in ((2, [[0], [0]]), (4, [[], [0]])):
            assert per_edge(index_edge_disks(g, *_arrays([Disk(Point2(x, 3), 1.0)]))) == want

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
        assert a.disks_on_edge(middle).tolist() == [0]
        assert b.disks_on_edge(middle).size == 0

    def test_candidates_are_a_small_fraction_of_all_pairs(self):
        # the bucket index, not a full pass, decides what the predicate sees
        g = build_lattice(101, 101)
        disks = _default_disks(np.random.default_rng(17), 80)
        _, start, stop = g.edge_grid().candidate_rows(*_arrays(disks))
        candidates = int((stop - start).sum())
        assert candidates < 0.05 * 80 * g.n_edges
        # the per-row spans follow the circle: few candidates miss
        assert candidates < 1.6 * index_edge_disks(g, *_arrays(disks))[1].size
