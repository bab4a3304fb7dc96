import math

import numpy as np
import pytest

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

SQRT2 = math.sqrt(2.0)


def per_edge(incidence):
    """CSR incidence (edge_ptr, disk_ids) as one list of disk ids per edge."""
    ptr, ids = incidence
    return [ids[ptr[k]:ptr[k + 1]].tolist() for k in range(len(ptr) - 1)]


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
        lengths = sorted(length for _, _, length in g.edges)
        assert lengths == [1.0, 1.0, 1.0, 1.0, SQRT2, SQRT2]

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(1, 5)
        with pytest.raises(ValueError):
            build_lattice(5, 0)

    def test_degrees_partition(self):
        g = build_lattice(6, 5)
        degs = [g.degree(v) for v in range(g.n_vertices)]
        assert set(degs) == {3, 5, 8}
        assert degs.count(3) == 4  # corners
        assert degs.count(5) == 2 * (6 - 2) + 2 * (5 - 2)  # open boundary
        assert degs.count(8) == (6 - 2) * (5 - 2)  # interior

    def test_edge_lengths_unit_or_diagonal(self):
        g = build_lattice(7, 4)
        for u, v, length in g.edges:
            du = abs(g.points[u].x - g.points[v].x)
            dv = abs(g.points[u].y - g.points[v].y)
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
            got = {(u, v) for u, v, _ in g.edges}
            assert got == want

    def test_vertex_coordinates_row_major(self):
        g = build_lattice(4, 3)
        vid = lattice_vertex(4, 2, 1)
        assert (g.points[vid].x, g.points[vid].y) == (2.0, 1.0)


class TestGeometricGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GeometricGraph([Point2(0, 0), Point2(1, 0)], [(0, 0, 1.0)])

    def test_rejects_duplicate_edge(self):
        pts = [Point2(0, 0), Point2(1, 0)]
        with pytest.raises(ValueError):
            GeometricGraph(pts, [(0, 1, 1.0), (1, 0, 1.0)])

    def test_rejects_nonpositive_length(self):
        pts = [Point2(0, 0), Point2(1, 0)]
        with pytest.raises(ValueError):
            GeometricGraph(pts, [(0, 1, 0.0)])

    def test_rejects_missing_vertex(self):
        with pytest.raises(ValueError):
            GeometricGraph([Point2(0, 0)], [(0, 1, 1.0)])

    def test_edge_index_symmetric(self):
        g = build_lattice(3, 3)
        assert g.edge_index(0, 1) == g.edge_index(1, 0)
        with pytest.raises(KeyError):
            g.edge_index(0, 8)

    def test_base_lengths_built_once_and_read_only(self):
        g = build_lattice(3, 3)
        lengths = g.base_lengths()
        assert g.base_lengths() is lengths
        assert lengths.tolist() == [length for _, _, length in g.edges]
        with pytest.raises(ValueError):
            lengths[0] = 1.0


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
        incidence = per_edge(index_edge_disks(g, disks))
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
        ptr, ids = index_edge_disks(g, [])
        assert ptr.tolist() == [0] * (g.n_edges + 1)
        assert ids.size == 0

    def test_single_disk_on_2x2(self):
        # disk ((0.5,0), 0.45): hits the bottom edge (distance 0) and both
        # diagonals (distance 0.5/sqrt2 ~ 0.354); misses the verticals
        # (nearest endpoints at distance 0.5) and the top edge (distance 1)
        g = build_lattice(2, 2)
        incidence = per_edge(index_edge_disks(g, [Disk(Point2(0.5, 0), 0.45)]))
        hit = {k for k, ids in enumerate(incidence) if ids == [0]}
        expected = {g.edge_index(0, 1), g.edge_index(0, 3), g.edge_index(1, 2)}
        assert hit == expected
        assert all(not ids for k, ids in enumerate(incidence) if k not in expected)

    def test_disk_covering_vertex_hits_all_incident_edges(self):
        g = build_lattice(5, 5)
        center = g.points[lattice_vertex(5, 2, 2)]
        incidence = per_edge(index_edge_disks(g, [Disk(center, 0.3)]))
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
        incidence = per_edge(index_edge_disks(g, disks))
        for k, (u, v, _) in enumerate(g.edges):
            expect = [
                did
                for did, dd in enumerate(disks)
                if segment_disk_intersects(g.points[u], g.points[v], dd)
            ]
            assert incidence[k] == expect

    def test_incidence_sorted_by_disk_id(self):
        g = build_lattice(4, 4)
        center = g.points[lattice_vertex(4, 1, 1)]
        incidence = per_edge(index_edge_disks(g, [Disk(center, 2.0), Disk(center, 1.0)]))
        for ids in incidence:
            assert ids == sorted(ids)
