"""8-adjacency lattices, planar graphs as arrays, and segment-disk incidence.

Graphs keep their vertices and edges as arrays (:class:`GeometricGraph`);
obstacle disks reach the incidence index and the traversal's entry rule as
centre and radius arrays. :meth:`Segments.disk_hits` is the one
disk-segment predicate, and :meth:`Segments.entry` the entry parameter
along a segment. All comparisons against disk radii are done on squared
distances with the inequality cross-multiplied, so there is no epsilon
anywhere and results are bit-reproducible.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

SQRT2 = math.sqrt(2.0)

#: the largest magnitude of a coordinate or radius that graphs, obstacle
#: fields and the incidence accept. Below it every term of the disk-segment
#: test stays finite: with centres, points and radii within 2**200, the
#: largest product ``|ac|² · |ab|²`` is at most 2**806, far below the float64
#: maximum of ~2**1024; from ~2**254 on it can overflow and drop hits.
MAX_COORD = 2.0**200


def coord_problem(x: float, y: float) -> str:
    """Why the point (x, y) is rejected: non-finite, or beyond MAX_COORD."""
    if math.isfinite(x) and math.isfinite(y):
        return f"coordinates ({x}, {y}) exceed 2**200 in magnitude"
    return f"non-finite coordinates ({x}, {y})"


class GeometricGraph:
    """Undirected graph with planar vertex coordinates and positive edge lengths.

    The graph is read-only arrays: float64 vertex coordinates ``x``, ``y``
    (vertex ids are 0..n-1) and, per edge id, int64 endpoints ``edge_u <
    edge_v`` and a float64 ``edge_length``. The constructor rejects the
    first vertex with a coordinate that is not finite or exceeds
    ``MAX_COORD`` in magnitude. It takes endpoints in either orientation
    and reports the first bad edge in input order, as an :class:`EdgeError`
    carrying its position: a self-loop, a missing vertex, a length that is
    not finite and > 0, then a repeated pair (with its first copy's
    position). The one edge index is the planner's slot adjacency, which
    :meth:`edge_ids` also reads. Apart from its lazily filled caches the
    graph is never mutated, so many scenes can share one graph. The caches
    are the segment endpoints (:meth:`segments`), the uniform-grid bucket
    index of the edges (:meth:`edge_grid`) and the octile geometry of the
    goal-directed planner (:meth:`planar`). Each scene keeps its own
    disk-edge incidence (see ``traversal.Scene``).
    """

    __slots__ = (
        "x", "y", "edge_u", "edge_v", "edge_length", "_adj", "_adj_start", "_slot_edge",
        "_edge_slot", "_segments", "_edge_grid", "_planar",
    )

    def __init__(self, x, y, edge_u, edge_v, edge_length):
        x, y = (np.array(a, dtype=np.float64) for a in (x, y))
        u, v = (np.array(a, dtype=np.int64) for a in (edge_u, edge_v))
        length = np.array(edge_length, dtype=np.float64)
        if not (x.ndim == u.ndim == 1 and x.shape == y.shape
                and u.shape == v.shape == length.shape):
            raise ValueError("vertex and edge arrays must be 1-D and of matching lengths")
        bounded = (np.abs(x) <= MAX_COORD) & (np.abs(y) <= MAX_COORD)  # NaN fails too
        if not bounded.all():
            i = int(np.argmin(bounded))
            raise ValueError(coord_problem(float(x[i]), float(y[i])))
        n = x.size
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * n + hi  # distinct for distinct valid pairs
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        # the later copies of a pair; a stable sort keeps the first copy first
        dup = np.zeros(u.size, dtype=bool)
        dup[order[1:][sorted_keys[1:] == sorted_keys[:-1]]] = True
        missing = (lo < 0) | (hi >= n)
        bad = (u == v) | missing | ~((length > 0.0) & (length < math.inf)) | dup
        if bad.any():
            k = int(np.argmax(bad))
            a, b = int(u[k]), int(v[k])
            if a != b and missing[k]:
                raise EdgeError(k, f"edge ({a},{b}) references missing vertex", k)
            # a repeat's first copy heads the pair's run of sorted keys
            first = int(order[np.searchsorted(sorted_keys, key[k])]) if dup[k] else k
            raise EdgeError(k, edge_problem(a, b, float(length[k]), f"edge {first}"), first)
        for a in (x, y, lo, hi, length):
            a.flags.writeable = False
        self.x, self.y = x, y
        self.edge_u, self.edge_v, self.edge_length = lo, hi, length
        # adjacency in slots: each edge listed at both ends, vertex u's slots
        # in edge-id order from _adj_start[u]. _adj[u] is the tuple of their
        # neighbours, which share one int object per vertex id, and
        # _slot_edge the int64 slot -> edge id map; the planner reads its
        # weights in slot order (see traversal.shortest_path). _edge_slot is
        # the inverse, an int32 (n_edges, 2) map of each edge to its two
        # slots, through which a walk patches its slot-order weights
        ends = np.stack((lo, hi), axis=1).ravel()
        slot = np.argsort(ends, kind="stable")
        start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=start[1:])
        ids = np.array(range(n), dtype=object)
        nbr = ids[np.stack((hi, lo), axis=1).ravel()[slot]].tolist()
        start = start.tolist()
        self._adj = tuple([tuple(nbr[a:b]) for a, b in zip(start, start[1:])])
        self._adj_start = start
        self._slot_edge = slot >> 1
        self._slot_edge.flags.writeable = False
        edge_slot = np.empty(slot.size, dtype=np.int32)
        edge_slot[slot] = np.arange(slot.size, dtype=np.int32)
        self._edge_slot = edge_slot.reshape(-1, 2)
        self._edge_slot.flags.writeable = False
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

    def edge_ids(self, us: Sequence[int], vs: Sequence[int]) -> np.ndarray:
        """Ids of the edges joining ``us[i]`` and ``vs[i]``; KeyError if one is absent.

        Each pair is looked up in the planner's slot adjacency: v's position
        in u's neighbour tuple, from u's first slot. The range check keeps a
        negative u from wrapping to the end of the tuple; a v off the graph,
        or equal to u, is in no neighbour tuple.
        """
        adj, start = self._adj, self._adj_start
        n = len(adj)
        slots = []
        for u, v in zip(us, vs):
            try:
                if not 0 <= u < n:
                    raise ValueError
                slots.append(start[u] + adj[u].index(v))
            except ValueError:
                raise KeyError((int(min(u, v)), int(max(u, v)))) from None
        return self._slot_edge.take(slots)

    def segments(self) -> "Segments":
        """The edge segments as arrays by edge id, built once and cached.

        Each segment runs from the endpoint with the smaller (y, x) to the
        other one, and from ``edge_u`` to ``edge_v`` when the endpoints
        coincide. So the orientation is a function of the edge's points, not
        of the vertex ids; on :func:`build_lattice` it is ``edge_u ->
        edge_v``.
        """
        if self._segments is None:
            x, y, u, v = self.x, self.y, self.edge_u, self.edge_v
            flip = (y[v] < y[u]) | ((y[v] == y[u]) & (x[v] < x[u]))
            a, b = np.where(flip, v, u), np.where(flip, u, v)
            self._segments = Segments(x[a], y[a], x[b], y[b])
        return self._segments

    def edge_grid(self) -> "EdgeGrid":
        """The uniform-grid bucket index of the edges, built once and cached."""
        if self._edge_grid is None:
            self._edge_grid = EdgeGrid(self.segments())
        return self._edge_grid

    def planar(self) -> "Planar":
        """The octile geometry and bound constants of the goal-directed
        planner, built once."""
        if self._planar is None:
            self._planar = Planar(self)
        return self._planar


class EdgeError(ValueError):
    """An invalid edge of a graph's input; ``index`` is its position there,
    and ``first`` the position of its pair's first copy: ``index`` itself
    unless the edge repeats an earlier one."""

    def __init__(self, index: int, problem: str, first: int):
        super().__init__(problem)
        self.index = index
        self.first = first


def edge_problem(u: int, v: int, length: float, first: str) -> str:
    """Why edge (u, v, length), whose endpoints exist, is rejected: a
    self-loop, a length that is not finite and > 0, else a repeat of the
    pair's first copy, which ``first`` names."""
    if u == v:
        return f"self-loop at vertex {u}"
    if not (length > 0.0 and math.isfinite(length)):
        return f"edge ({u},{v}) has length {length}; lengths must be finite and > 0"
    return f"duplicate edge ({min(u, v)},{max(u, v)}) repeats {first}"


def octile_norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise ``max(|dx|, |dy|) + (sqrt2 - 1) * min(|dx|, |dy|)``.

    The octile norm is the exact shortest-path length between lattice
    points on an 8-adjacency lattice, and a norm on the whole plane.
    """
    ax, ay = np.abs(dx), np.abs(dy)
    return np.maximum(ax, ay) + (SQRT2 - 1.0) * np.minimum(ax, ay)


class Planar:
    """A graph's geometry in the octile norm (:func:`octile_norm`), and the
    two constants of the goal-directed planner's bound.

    ``x`` and ``y`` are the vertex coordinate arrays. ``least_length`` is
    the least base length (+inf without edges) and ``least_ratio`` the least
    base length per unit of octile extent over the edges of positive extent
    (+inf when there is none). Every weight the planner accepts is at least
    its edge's base length, so these bound every weight from below, and
    every weight per unit of extent (see ``traversal.shortest_path``).
    :meth:`goal_reach` gives every vertex's octile distance to a goal. It
    caches only the last goal asked for, so the replans of one walk, which
    share their goal, build the distances once.
    """

    __slots__ = ("x", "y", "least_length", "least_ratio", "_goal")

    def __init__(self, graph: GeometricGraph):
        self.x, self.y = graph.x, graph.y
        seg = graph.segments()
        extent = octile_norm(seg.bx - seg.ax, seg.by - seg.ay)
        far = extent > 0.0
        length = graph.edge_length
        self.least_length = float(length.min()) if length.size else math.inf
        self.least_ratio = float((length[far] / extent[far]).min()) if far.any() else math.inf
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
    """Segment endpoint arrays a -> b.

    The arrays may be of any shapes that broadcast, scalars included. The
    predicates derive b - a and |b - a|² from them, with the same float
    operations wherever they are asked, so a pair's bits do not depend on
    how the segments were gathered.
    """

    __slots__ = ("ax", "ay", "bx", "by")

    def __init__(self, ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray):
        self.ax, self.ay, self.bx, self.by = ax, ay, bx, by

    def take(self, idx) -> "Segments":
        """The segments at positions ``idx``."""
        return Segments(self.ax[idx], self.ay[idx], self.bx[idx], self.by[idx])

    def _ab(self):
        """``(b - a)`` by coordinate, and ``|b - a|²``."""
        abx = self.bx - self.ax
        aby = self.by - self.ay
        return abx, aby, abx * abx + aby * aby

    def disk_hits(self, cx, cy, r: Union[float, np.ndarray]) -> np.ndarray:
        """Boolean mask: which segments meet the closed disk of radius r at (cx, cy).

        Centers and radii may be scalars or arrays; they broadcast against
        the segment arrays, so per-pair arrays of centers and radii test one
        (disk, segment) pair per element. The nearest point of the segment
        to the centre is a, b or the foot of the perpendicular; its squared
        distance is compared with r², the interior case cross-multiplied by
        |b - a|², so no division occurs. The arithmetic is elementwise, so a
        pair gets the same bits however the inputs are shaped.

        A tangent disk meets the segment: the test is ``<=``. At an exact
        tangency the rounded distance can fall on either side of r, and
        which side can depend on the segment's orientation. So it is asked
        about an edge only in the orientation of
        :meth:`GeometricGraph.segments`, and only by
        :func:`index_edge_disks`. The walk's stop rule reads the scene's
        incidence, and the ordering experiments' fixed path indexes its own
        edges with :func:`index_edge_disks`, so all see the same answer for
        the same disk and edge.
        """
        abx, aby, ab2 = self._ab()
        acx = cx - self.ax
        acy = cy - self.ay
        tnum = acx * abx + acy * aby
        r2 = r * r
        ac2 = acx * acx + acy * acy
        at_a = ac2 <= r2
        bcx = cx - self.bx
        bcy = cy - self.by
        at_b = bcx * bcx + bcy * bcy <= r2
        interior = ac2 * ab2 - tnum * tnum <= r2 * ab2
        return np.where(tnum <= 0.0, at_a, np.where(tnum >= ab2, at_b, interior))

    def entry(self, cx, cy, r: Union[float, np.ndarray]) -> np.ndarray:
        """The least t in [0, 1] with a + t(b - a) in the closed disk, per pair.

        Broadcasts as :meth:`disk_hits` does. t is 0 when a lies in the disk
        or the segment has zero length. Otherwise t is the smaller root of
        |a + t(b - a) - c|² = r², ``(tnum - sqrt(max(disc, 0))) / |b - a|²``,
        clamped to [0, 1]: where rounding makes the discriminant negative,
        as it may at a tangency, that is the foot of the perpendicular. The
        value is meaningful only for pairs that :meth:`disk_hits` counts.
        """
        abx, aby, ab2 = self._ab()
        acx = cx - self.ax
        acy = cy - self.ay
        c0 = acx * acx + acy * acy - r * r
        tnum = acx * abx + acy * aby
        disc = tnum * tnum - ab2 * c0
        point = ab2 == 0.0
        t = (tnum - np.sqrt(np.maximum(disc, 0.0))) / np.where(point, 1.0, ab2)
        t = np.where(t < 0.0, 0.0, np.minimum(t, 1.0))
        return np.where((c0 <= 0.0) | point, 0.0, t)


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


#: most candidate pairs evaluated at once (a disk with more runs alone)
_PAIR_BLOCK = 1 << 13


def index_edge_disks(
    graph: GeometricGraph, cx: np.ndarray, cy: np.ndarray, r: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Disk-edge incidence grouped by disk: (disk_ptr, edge_ids).

    Disk i is the closed disk of centre ``(cx[i], cy[i])`` and radius
    ``r[i]``, three 1-D float64 arrays of one length with finite centres and
    finite radii > 0, all at most ``MAX_COORD`` in magnitude (ValueError
    otherwise, before any work). The ids of the
    edges meeting disk i are ``edge_ids[disk_ptr[i]:disk_ptr[i + 1]]``, each
    edge once, in the order the candidate pass finds them (by grid row, then
    by grid cell; not ascending); ``disk_ptr`` has n_disks + 1 entries. So
    the (disk, edge) pairs run in ascending disk id. The graph is only read.

    Two stages. The graph's cached bucket index (:meth:`GeometricGraph.edge_grid`)
    yields, per disk, a superset of the edges it can meet: per grid row, one
    contiguous slice of the cell-sorted edges over the x-span where the disk,
    its radius raised by a small margin, meets the row's band
    (:meth:`EdgeGrid.candidate_rows` shows why no hit falls outside). Each
    edge lies in one grid cell, so a disk's candidates hold it at most once.
    The exact predicate, Segments.disk_hits, then tests every candidate
    (disk, edge) pair elementwise on the graph's segments, so each pair gets
    the bits of a test of that disk against every edge, and the result
    holds, disk for disk, the edges such a full pass finds. Pairs are
    evaluated in blocks of consecutive disks holding at most ``_PAIR_BLOCK``
    pairs, or one disk's candidates (at most n_edges) when that alone is
    more, so the temporaries stay bounded by O(max(_PAIR_BLOCK, n_edges))
    elements whatever the number of disks. The hits are kept in candidate
    order, so no sort is needed.
    """
    cx, cy, r = (np.asarray(a, dtype=np.float64) for a in (cx, cy, r))
    if not (cx.ndim == cy.ndim == r.ndim == 1 and cx.shape == cy.shape == r.shape):
        raise ValueError("disk centre and radius arrays must be 1-D and of one length")
    if not ((np.abs(cx) <= MAX_COORD).all() and (np.abs(cy) <= MAX_COORD).all()):
        raise ValueError("disk centres must be finite and at most 2**200 in magnitude")
    if not ((r > 0.0) & (r <= MAX_COORD)).all():
        raise ValueError("disk radii must be finite, > 0 and at most 2**200")
    n = cx.size
    disk_ptr = np.zeros(n + 1, dtype=np.int64)
    if not n:
        return disk_ptr, np.zeros(0, dtype=np.int64)
    segs = graph.segments()
    grid = graph.edge_grid()
    row_ptr, start, stop = grid.candidate_rows(cx, cy, r)
    row_len = stop - start
    row_disk = np.repeat(np.arange(n), np.diff(row_ptr))
    pair_ptr = np.concatenate(([0], np.cumsum(row_len)))[row_ptr]
    hit_edges = []
    d0 = 0
    while d0 < n:
        d1 = int(np.searchsorted(pair_ptr, pair_ptr[d0] + _PAIR_BLOCK, side="right")) - 1
        d1 = max(d1, d0 + 1)
        rows = slice(row_ptr[d0], row_ptr[d1])
        edge = grid.order[ragged_arange(start[rows], row_len[rows])]
        who = np.repeat(row_disk[rows], row_len[rows])
        hit = np.flatnonzero(segs.take(edge).disk_hits(cx[who], cy[who], r[who]))
        hit_edges.append(edge[hit])
        # the block's hits before each of its disk boundaries
        bounds = pair_ptr[d0 + 1 : d1 + 1] - pair_ptr[d0]
        disk_ptr[d0 + 1 : d1 + 1] = disk_ptr[d0] + np.searchsorted(hit, bounds)
        d0 = d1
    return disk_ptr, np.concatenate(hit_edges)
