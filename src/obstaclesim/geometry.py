"""Planar primitives, 8-adjacency lattices, and segment-disk incidence.

Graphs keep their vertices and edges as arrays (:class:`GeometricGraph`);
obstacle disks reach the incidence index as centre and radius arrays. The
scalar predicates on :class:`Disk` give the entry rule of the traversal and
are the reference the vectorized test matches. All comparisons against
disk radii are done on squared distances with the inequality
cross-multiplied, so there is no epsilon anywhere and results are
bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Point2:
    """A point in the plane (grid units)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


@dataclass(frozen=True)
class Disk:
    """A closed disk: center plus strictly positive radius."""

    center: Point2
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"disk radius must be > 0, got {self.radius}")


class GeometricGraph:
    """Undirected graph with planar vertex coordinates and positive edge lengths.

    The graph is read-only arrays: float64 vertex coordinates ``x``, ``y``
    (vertex ids are 0..n-1) and, per edge id, int64 endpoints ``edge_u <
    edge_v`` and a float64 ``edge_length``. The constructor takes endpoints
    in either orientation and reports the first bad edge in input order: a
    self-loop, a missing vertex, a non-positive or non-finite length, then a
    repeated pair. Apart from its lazily filled caches the graph is never
    mutated, so many scenes can share one graph. The caches are the segment
    arrays (:meth:`segments`), the uniform-grid bucket index of the edges
    (:meth:`edge_grid`) and the octile geometry of the goal-directed planner
    (:meth:`planar`). Each scene keeps its own disk-edge incidence (see
    ``traversal.Scene``).
    """

    __slots__ = (
        "x", "y", "edge_u", "edge_v", "edge_length", "_key_order", "_sorted_keys",
        "_adj_indptr", "_adj_vertex", "_adj_edge", "_segments", "_edge_grid", "_planar",
    )

    def __init__(self, x, y, edge_u, edge_v, edge_length):
        x, y = (np.array(a, dtype=np.float64) for a in (x, y))
        u, v = (np.array(a, dtype=np.int64) for a in (edge_u, edge_v))
        length = np.array(edge_length, dtype=np.float64)
        if not (x.ndim == u.ndim == 1 and x.shape == y.shape
                and u.shape == v.shape == length.shape):
            raise ValueError("vertex and edge arrays must be 1-D and of matching lengths")
        finite = np.isfinite(x) & np.isfinite(y)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"non-finite coordinates ({float(x[i])}, {float(y[i])})")
        n = x.size
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * n + hi  # distinct for distinct valid pairs
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        # the later copies of a pair; a stable sort keeps the first copy first
        dup = np.zeros(u.size, dtype=bool)
        dup[order[1:][sorted_keys[1:] == sorted_keys[:-1]]] = True
        bad = (u == v) | (lo < 0) | (hi >= n) | ~((length > 0.0) & (length < math.inf)) | dup
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(_edge_problem(n, int(u[k]), int(v[k]), float(length[k])))
        for a in (x, y, lo, hi, length):
            a.flags.writeable = False
        self.x, self.y = x, y
        self.edge_u, self.edge_v, self.edge_length = lo, hi, length
        # a sentinel above every pair key: a search never runs off the end
        self._key_order = order
        self._sorted_keys = np.append(sorted_keys, np.iinfo(np.int64).max)
        # CSR adjacency: each edge listed at both ends, a vertex's entries in
        # edge-id order; plain lists are the fastest scalar reads in the planner
        ends = np.stack((lo, hi), axis=1).ravel()
        slot = np.argsort(ends, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
        self._adj_indptr = indptr.tolist()
        self._adj_vertex = np.stack((hi, lo), axis=1).ravel()[slot].tolist()
        self._adj_edge = (slot >> 1).tolist()
        self._segments = None  # built lazily for vectorized incidence
        self._edge_grid = None  # built lazily for incidence queries
        self._planar = None  # built lazily for the goal-directed planner

    # ---------- structure ----------

    @property
    def n_vertices(self) -> int:
        return self.x.size

    @property
    def n_edges(self) -> int:
        return self.edge_u.size

    def point(self, v: int) -> Point2:
        """Vertex ``v`` as a :class:`Point2`."""
        return Point2(float(self.x[v]), float(self.y[v]))

    def edge_ids(self, us: Sequence[int], vs: Sequence[int]) -> np.ndarray:
        """Ids of the edges joining ``us[i]`` and ``vs[i]``; KeyError if one is absent."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        n = self.n_vertices
        key = lo * n + hi
        pos = np.searchsorted(self._sorted_keys, key)
        found = (self._sorted_keys[pos] == key) & (lo >= 0) & (hi < n) & (lo != hi)
        if not found.all():
            i = int(np.argmin(found))
            raise KeyError((int(lo[i]), int(hi[i])))
        return self._key_order[pos]

    def segments(self) -> "Segments":
        """The edge segments as arrays, built once and cached."""
        if self._segments is None:
            u, v = self.edge_u, self.edge_v
            self._segments = Segments(self.x[u], self.y[u], self.x[v], self.y[v])
        return self._segments

    def edge_grid(self) -> "EdgeGrid":
        """The uniform-grid bucket index of the edges, built once and cached."""
        if self._edge_grid is None:
            self._edge_grid = EdgeGrid(self.segments())
        return self._edge_grid

    def planar(self) -> "Planar":
        """The octile geometry of the goal-directed planner, built once."""
        if self._planar is None:
            self._planar = Planar(self)
        return self._planar


def _edge_problem(n: int, u: int, v: int, length: float) -> str:
    """Why edge (u, v, length) of a graph on n vertices is rejected."""
    if u == v:
        return f"self-loop at vertex {u}"
    if not (0 <= u < n and 0 <= v < n):
        return f"edge ({u},{v}) references missing vertex"
    if not (length > 0.0 and math.isfinite(length)):
        return f"edge ({u},{v}) has non-positive length {length}"
    return f"duplicate edge ({min(u, v)},{max(u, v)})"


def octile_norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise ``max(|dx|, |dy|) + (sqrt2 - 1) * min(|dx|, |dy|)``.

    The octile norm is the exact shortest-path length between lattice
    points on an 8-adjacency lattice, and a norm on the whole plane.
    """
    ax, ay = np.abs(dx), np.abs(dy)
    return np.maximum(ax, ay) + (SQRT2 - 1.0) * np.minimum(ax, ay)


class Planar:
    """A graph's geometry in the octile norm (:func:`octile_norm`).

    ``x`` and ``y`` are the vertex coordinate arrays; ``edge`` holds the ids
    of the edges of positive extent and ``extent`` their octile extents.
    :meth:`goal_reach` gives every vertex's octile distance to a goal. It
    caches only the last goal asked for, so the replans of one walk, which
    share their goal, build the distances once.
    """

    __slots__ = ("x", "y", "edge", "extent", "_goal")

    def __init__(self, graph: GeometricGraph):
        self.x, self.y = graph.x, graph.y
        seg = graph.segments()
        extent = octile_norm(seg.abx, seg.aby)
        self.edge = np.flatnonzero(extent > 0.0)
        self.extent = extent[self.edge]
        self._goal: Optional[Tuple[int, Tuple[float, ...], float]] = None

    def goal_reach(self, goal: int) -> Tuple[Tuple[float, ...], float]:
        """``(reach, reach_max)``: each vertex's octile distance to ``goal``,
        as a read-only tuple, and the largest of them."""
        cached = self._goal
        if cached is None or cached[0] != goal:
            reach = octile_norm(self.x - self.x[goal], self.y - self.y[goal])
            cached = (goal, tuple(reach.tolist()), float(reach.max()))
            self._goal = cached  # one assignment: readers never see a mix
        return cached[1], cached[2]


class Segments:
    """Segment endpoint arrays a -> b plus the derived b - a and |b - a|^2."""

    __slots__ = ("ax", "ay", "bx", "by", "abx", "aby", "ab2")

    def __init__(self, ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray):
        self.ax, self.ay, self.bx, self.by = ax, ay, bx, by
        self.abx = bx - ax
        self.aby = by - ay
        self.ab2 = self.abx * self.abx + self.aby * self.aby

    def take(self, idx: np.ndarray) -> "Segments":
        """The segments at positions ``idx``, with bitwise-equal derived arrays."""
        return Segments(self.ax[idx], self.ay[idx], self.bx[idx], self.by[idx])

    def disk_hits(self, cx, cy, r: Union[float, np.ndarray]) -> np.ndarray:
        """Boolean mask: which segments meet the closed disk of radius r at (cx, cy).

        Centers and radii may be scalars or arrays; they broadcast against
        the segment arrays, so per-pair arrays of centers and radii test one
        (disk, segment) pair per element. The arithmetic is elementwise and
        mirrors segment_disk_intersects term for term, so the mask is bitwise
        consistent with the scalar predicate however the inputs are shaped.
        """
        acx = cx - self.ax
        acy = cy - self.ay
        tnum = acx * self.abx + acy * self.aby
        r2 = r * r
        at_a = acx * acx + acy * acy <= r2
        bcx = cx - self.bx
        bcy = cy - self.by
        at_b = bcx * bcx + bcy * bcy <= r2
        interior = (acx * acx + acy * acy) * self.ab2 - tnum * tnum <= r2 * self.ab2
        return np.where(tnum <= 0.0, at_a, np.where(tnum >= self.ab2, at_b, interior))


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over the pairs (s, c), no Python loop."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


#: relative margin on disk radii in EdgeGrid.candidate_rows (see there)
_MARGIN = 2.0**-20


class EdgeGrid:
    """Uniform-grid bucket index of a graph's edge segments.

    Each edge sits in the grid cell of its bounding box's min corner; the
    edges are sorted by row-major cell id (``order``) with the CSR pointer
    ``cell_ptr`` over cells. The cell size is the median edge extent (the
    larger side of an edge's bounding box), raised where needed so the grid
    has at most ~3 cells per edge, and 1 when every edge has zero length.
    """

    __slots__ = ("x0", "y0", "cell", "nx", "ny", "pad_x", "pad_y", "cell_ptr", "order")

    def __init__(self, segs: Segments):
        ne = segs.ax.size
        x_lo = np.minimum(segs.ax, segs.bx)
        y_lo = np.minimum(segs.ay, segs.by)
        ext_x = np.maximum(segs.ax, segs.bx) - x_lo
        ext_y = np.maximum(segs.ay, segs.by) - y_lo
        self.x0 = self.y0 = self.pad_x = self.pad_y = cell = span_x = span_y = 0.0
        if ne:
            self.x0, self.y0 = float(x_lo.min()), float(y_lo.min())
            span_x, span_y = float(x_lo.max()) - self.x0, float(y_lo.max()) - self.y0
            self.pad_x, self.pad_y = float(ext_x.max()), float(ext_y.max())
            cell = float(np.partition(np.maximum(ext_x, ext_y), ne // 2)[ne // 2])
            # cap the cell count: area / cell^2 <= ne and each span / cell <= ne
            cell = max(cell, math.sqrt(span_x * span_y / ne), max(span_x, span_y) / ne)
        self.cell = cell if cell > 0.0 else 1.0
        self.nx = int(span_x / self.cell) + 1
        self.ny = int(span_y / self.cell) + 1
        ix = np.clip(np.floor((x_lo - self.x0) / self.cell), 0, self.nx - 1)
        iy = np.clip(np.floor((y_lo - self.y0) / self.cell), 0, self.ny - 1)
        cell_id = (iy * self.nx + ix).astype(np.int64)
        self.order = np.argsort(cell_id, kind="stable")
        self.cell_ptr = np.zeros(self.nx * self.ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell_id, minlength=self.nx * self.ny), out=self.cell_ptr[1:])

    def candidate_rows(
        self, cx: np.ndarray, cy: np.ndarray, r: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate edges of each disk as contiguous slices of ``order``.

        Returns ``(row_ptr, start, stop)``: disk i's candidates are the
        positions ``start[j]:stop[j]`` for j in ``row_ptr[i]:row_ptr[i + 1]``,
        one slice per grid row. Rounding is monotone and the pads are >= 0,
        so a low row or column index never exceeds its high one plus one:
        no disk has a negative row count, and ``stop >= start``.

        An edge is filed under the cell of its min corner, so the points of
        an edge in grid row j have y in the band ``[Y_j, Y_j + cell + pad_y]``,
        ``Y_j = y0 + j * cell``, and its min corner lies at most ``pad_x``
        left of each of its points. A disk meets the band only if its gap
        ``dy`` from ``cy`` to the band is at most ``r``, and then only at x
        within ``cx ± sqrt(r² − dy²)``; the row's slice is that x-span,
        widened on the low side by ``pad_x``. The rows are those whose band
        ``cy ± r`` meets.

        All of this is done with ``r' = r + m``, where the margin is ``m =
        2⁻²⁰ · M`` and ``M = |cx| + |cy| + r + pad_x + pad_y + |x0| + |y0| +
        cell`` bounds every magnitude involved. With ε = 2⁻⁵³ that is why no
        hit is dropped:

        - *The exact predicate* (:meth:`Segments.disk_hits`) is computed in
          floats, and its cross-multiplied interior test cancels terms of size
          ``|ac|²·|ab|²``. It can count a pair whose true distance D satisfies
          ``D² ≤ r²(1 + 3ε) + 8ε·|ac|²`` with ``|ac| ≤ D + |ab|``, where ``|ab|
          ≤ pad_x + pad_y``. Rounding of its inputs moves the centre by at
          most ``3ε·M``. So ``D ≤ r + 2⁻²⁴·M``: a square-root, not a
          relative, error, and a margin of ``2⁻³⁰·M`` would not cover it.
        - *The span arithmetic*: the band ends, ``dy``, ``r'² − dy²``, the
          square root and the span ends each round by at most a few ``ε·M``.
          Against the margin, ``r'² − dy²`` stays at least the hit's
          ``(px − cx)²`` plus ``m·r'/4``. Then the computed half-width
          exceeds ``|px − cx|`` by at least ``m/8``, which is far above these
          roundings. So the computed span contains ``[px − pad_x, px]``, and
          with it the edge's min corner.
        - *The cell arithmetic* is the same float expression ``floor((v −
          origin) / cell)`` for the query bounds and for the filed corners.
          Rounding is monotone, so a bound at or below a corner (or at or
          above it) gives a cell index at or below (or at or above) that
          corner's cell.
        """
        c = self.cell
        pad_x, pad_y = self.pad_x, self.pad_y
        m = _MARGIN * (
            np.abs(cx) + np.abs(cy) + r + (pad_x + pad_y + abs(self.x0) + abs(self.y0) + c)
        )
        rr = r + m
        iy_lo = np.clip(np.floor((cy - rr - pad_y - self.y0) / c), 0, self.ny)
        iy_hi = np.clip(np.floor((cy + rr - self.y0) / c), -1, self.ny - 1)
        iy_lo, iy_hi = iy_lo.astype(np.int64), iy_hi.astype(np.int64)
        n_rows = iy_hi - iy_lo + 1
        row_ptr = np.zeros(n_rows.size + 1, dtype=np.int64)
        np.cumsum(n_rows, out=row_ptr[1:])
        row_disk = np.repeat(np.arange(n_rows.size), n_rows)
        iy = ragged_arange(iy_lo, n_rows)
        rx, ry, rr = cx[row_disk], cy[row_disk], rr[row_disk]
        band_lo = self.y0 + iy * c
        dy = np.maximum(np.maximum(band_lo - ry, ry - (band_lo + (c + pad_y))), 0.0)
        half = np.sqrt(np.maximum(rr * rr - dy * dy, 0.0))
        ix_lo = np.clip(np.floor((rx - half - pad_x - self.x0) / c), 0, self.nx)
        ix_hi = np.clip(np.floor((rx + half - self.x0) / c), -1, self.nx - 1)
        row_base = iy * self.nx
        start = self.cell_ptr[row_base + ix_lo.astype(np.int64)]
        stop = self.cell_ptr[row_base + ix_hi.astype(np.int64) + 1]
        return row_ptr, start, stop


def lattice_vertex(width: int, i: int, j: int) -> int:
    """Vertex id of integer point (i, j) on a lattice built by build_lattice."""
    return j * width + i


def build_lattice(width: int, height: int) -> GeometricGraph:
    """8-adjacency integer lattice: unit axis edges plus both cell diagonals.

    Vertex ids are row-major: (i, j) -> j*width + i with 0 <= i < width,
    0 <= j < height. Corner vertices have degree 3, edge vertices 5,
    interior vertices 8.
    """
    if width < 2 or height < 2:
        raise ValueError(f"lattice dimensions must be >= 2, got {width}x{height}")
    i = np.tile(np.arange(width), height)
    j = np.repeat(np.arange(height), width)
    # per vertex, in this order: right, down, down-right, down-left
    right, down = i + 1 < width, j + 1 < height
    keep = np.stack((right, down, down & right, down & (i > 0)), axis=1).ravel()
    u = np.repeat(np.arange(width * height), 4)[keep]
    v = u + np.tile([1, width, width + 1, width - 1], width * height)[keep]
    length = np.tile([1.0, 1.0, SQRT2, SQRT2], width * height)[keep]
    return GeometricGraph(i.astype(np.float64), j.astype(np.float64), u, v, length)


# ---------- segment / disk predicates ----------


def _check_segment(a: Point2, b: Point2) -> None:
    if a.x == b.x and a.y == b.y:
        raise ValueError(f"degenerate segment at ({a.x}, {a.y})")


def segment_disk_intersects(a: Point2, b: Point2, d: Disk) -> bool:
    """True iff the closed disk meets the closed segment [a, b].

    Minimum squared distance from the segment to the center is compared to
    the squared radius. The interior case is cross-multiplied by |b-a|^2 so
    no division occurs.
    """
    _check_segment(a, b)
    abx = b.x - a.x
    aby = b.y - a.y
    acx = d.center.x - a.x
    acy = d.center.y - a.y
    ab2 = abx * abx + aby * aby
    tnum = acx * abx + acy * aby
    r2 = d.radius * d.radius
    if tnum <= 0.0:  # nearest point is a
        return acx * acx + acy * acy <= r2
    if tnum >= ab2:  # nearest point is b
        bcx = d.center.x - b.x
        bcy = d.center.y - b.y
        return bcx * bcx + bcy * bcy <= r2
    # nearest point interior: dist^2 * ab2 = |ac|^2*ab2 - tnum^2
    return (acx * acx + acy * acy) * ab2 - tnum * tnum <= r2 * ab2


def entry_parameter(a: Point2, b: Point2, d: Disk) -> Optional[float]:
    """Smallest t in [0,1] with a + t*(b-a) inside the closed disk, or None.

    Guaranteed to return a value exactly when segment_disk_intersects is
    true for the same inputs: the same predicate gates the computation, and
    tangency-rounding in the quadratic falls back to the clamped foot of the
    perpendicular.
    """
    if not segment_disk_intersects(a, b, d):
        return None
    acx = d.center.x - a.x
    acy = d.center.y - a.y
    r2 = d.radius * d.radius
    c0 = acx * acx + acy * acy - r2
    if c0 <= 0.0:  # a already inside
        return 0.0
    abx = b.x - a.x
    aby = b.y - a.y
    ab2 = abx * abx + aby * aby
    tnum = acx * abx + acy * aby
    disc = tnum * tnum - ab2 * c0
    if disc > 0.0:
        t = (tnum - math.sqrt(disc)) / ab2
    else:
        # tangent contact (or rounding ate the discriminant): entry at the
        # projection of the center onto the segment
        t = tnum / ab2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return t


#: most candidate pairs evaluated at once (a disk with more runs alone)
_PAIR_BLOCK = 1 << 13


def index_edge_disks(
    graph: GeometricGraph, cx: np.ndarray, cy: np.ndarray, r: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Disk-edge incidence in CSR form: (edge_ptr, disk_ids).

    Disk i is the closed disk of centre ``(cx[i], cy[i])`` and radius
    ``r[i]``, three 1-D float64 arrays of one length with finite centres and
    finite radii > 0 (ValueError otherwise, before any work). The ids of the
    disks meeting edge k are ``disk_ids[edge_ptr[k]:edge_ptr[k + 1]]``,
    ascending; ``edge_ptr`` has n_edges + 1 entries. The graph is only read.

    Two stages. The graph's cached bucket index (:meth:`GeometricGraph.edge_grid`)
    yields, per disk, a superset of the edges it can meet: per grid row, one
    contiguous slice of the cell-sorted edges over the x-span where the disk,
    its radius raised by a small margin, meets the row's band
    (:meth:`EdgeGrid.candidate_rows` shows why no hit falls outside). The
    exact predicate, Segments.disk_hits, then tests every candidate (disk,
    edge) pair elementwise, so each pair gets the same bits as the scalar
    predicate and the result equals a full pass of every disk over every
    edge. Pairs are evaluated in blocks of consecutive disks holding at most
    ``_PAIR_BLOCK`` pairs, or one disk's candidates (at most n_edges) when
    that alone is more, so the temporaries stay bounded by
    O(max(_PAIR_BLOCK, n_edges)) elements whatever the number of disks. A
    hit is kept as the int64 key ``edge * 2**b + disk``, with ``2**b > n -
    1``; each edge lies in one grid cell, so a disk's candidates hold it at
    most once and the keys are distinct. One sort of them orders the hits by
    edge and, within an edge, by disk id, and the low b bits give the ids.
    """
    cx, cy, r = (np.asarray(a, dtype=np.float64) for a in (cx, cy, r))
    if not (cx.ndim == cy.ndim == r.ndim == 1 and cx.shape == cy.shape == r.shape):
        raise ValueError("disk centre and radius arrays must be 1-D and of one length")
    if not (np.isfinite(cx).all() and np.isfinite(cy).all()):
        raise ValueError("disk centres must be finite")
    if not ((r > 0.0) & (r < math.inf)).all():
        raise ValueError("disk radii must be finite and > 0")
    ne = graph.n_edges
    edge_ptr = np.zeros(ne + 1, dtype=np.int64)
    n = cx.size
    if not n:
        return edge_ptr, np.zeros(0, dtype=np.int64)
    segs = graph.segments()
    grid = graph.edge_grid()
    row_ptr, start, stop = grid.candidate_rows(cx, cy, r)
    row_len = stop - start
    row_disk = np.repeat(np.arange(n), np.diff(row_ptr))
    pair_ptr = np.concatenate(([0], np.cumsum(row_len)))[row_ptr]
    bits = (n - 1).bit_length()
    hit_keys = []
    d0 = 0
    while d0 < n:
        d1 = int(np.searchsorted(pair_ptr, pair_ptr[d0] + _PAIR_BLOCK, side="right")) - 1
        d1 = max(d1, d0 + 1)
        rows = slice(row_ptr[d0], row_ptr[d1])
        edge = grid.order[ragged_arange(start[rows], row_len[rows])]
        who = np.repeat(row_disk[rows], row_len[rows])
        hit = segs.take(edge).disk_hits(cx[who], cy[who], r[who])
        hit_keys.append((edge[hit] << bits) | who[hit])
        d0 = d1
    keys = np.sort(np.concatenate(hit_keys))
    np.cumsum(np.bincount(keys >> bits, minlength=ne), out=edge_ptr[1:])
    return edge_ptr, keys & ((1 << bits) - 1)
