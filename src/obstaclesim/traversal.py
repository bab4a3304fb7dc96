"""Edge weights, shortest paths, and the reset-disambiguation traversal.

An edge's weight is its base length plus half the summed risk premium
c(x)/(1-p(x)) of every still-ambiguous obstacle disk meeting it; an edge
meeting a known-true disk is impassable (+inf). The traversing agent follows
the current minimum-weight path, pauses in front of any edge that meets an
ambiguous disk, pays to disambiguate the nearest such disk, and replans from
where it stands. The traversed route is a walk: vertices may repeat.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import GeometricGraph, entry_parameter, index_edge_disks, ragged_arange
from .pointproc import Window
from .sensor import Obstacles

INF = math.inf

# what a walk knows of each disk
_AMBIGUOUS = 0
_KNOWN_TRUE = 1
_KNOWN_FALSE = 2


class InfeasibleSceneError(Exception):
    """Target unreachable under current knowledge, or scene invariants broken."""


@dataclass(frozen=True)
class Scene:
    """Immutable traversal instance: graph, obstacle field, endpoints.

    Construction checks the basic invariants (distinct endpoints on the
    graph, both outside every closed obstacle disk) and indexes the scene's
    own disk-edge incidence in CSR form: the ids of the disks meeting edge k
    are ``inc_disk[inc_ptr[k]:inc_ptr[k + 1]]``, ascending (see
    :meth:`disks_on_edge`). The shared graph is not written.
    """

    graph: GeometricGraph
    obstacles: Obstacles
    s: int
    t: int
    window: Optional[Window] = None
    inc_ptr: np.ndarray = field(init=False, repr=False, compare=False)
    inc_disk: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.graph
        n = g.n_vertices
        if not (0 <= self.s < n and 0 <= self.t < n):
            raise InfeasibleSceneError(f"endpoints ({self.s}, {self.t}) off the graph")
        if self.s == self.t:
            raise InfeasibleSceneError("source equals target")
        obs = self.obstacles
        if not isinstance(obs, Obstacles):
            raise TypeError(f"obstacles must be an Obstacles field, got {type(obs).__name__}")
        for name, vid in (("source", self.s), ("target", self.t)):
            dx = g.x[vid] - obs.x
            dy = g.y[vid] - obs.y
            inside = np.flatnonzero(dx * dx + dy * dy <= obs.r * obs.r)
            if inside.size:
                raise InfeasibleSceneError(
                    f"{name} vertex {vid} lies inside obstacle {inside[0]}"
                )
        inc_ptr, inc_disk = index_edge_disks(g, obs.x, obs.y, obs.r)
        object.__setattr__(self, "inc_ptr", inc_ptr)
        object.__setattr__(self, "inc_disk", inc_disk)

    def disks_on_edge(self, edge_id: int) -> np.ndarray:
        """Ids of the obstacle disks meeting edge ``edge_id``, ascending."""
        return self.inc_disk[self.inc_ptr[edge_id] : self.inc_ptr[edge_id + 1]]


@dataclass(frozen=True)
class TraversalResult:
    """Walk, distance, disambiguation cost, and total cost C.

    ``actions`` is the walk's one log: ("move", u, v, edge_id) and
    ("disambiguate", vertex, obstacle_id, revealed "T"/"F") tuples in
    occurrence order, so the exact knowledge state at every step can be
    replayed. ``spent`` sums the costs paid for the ``n_dis`` reveals in
    that order, and ``total_cost = distance + spent``.
    """

    walk: Tuple[int, ...]
    distance: float
    spent: float
    total_cost: float
    n_dis: int
    actions: Tuple[Tuple, ...] = field(default=(), repr=False)


# ---------- weights ----------


class _WeightEngine:
    """A walk's edge weights, kept current as the walk reveals disks.

    ``w`` is a C-contiguous float64 array: edge k weighs its base length plus
    half the summed premium ``contrib`` of the still-ambiguous disks meeting
    it, or +inf once a disk known to be true meets it. ``know`` holds each
    disk's knowledge code, every disk ambiguous when the walk starts, and
    ``n_amb`` each edge's count of ambiguous disks.

    The constructor needs no knowledge codes: at walk start every disk is
    ambiguous, so ``w`` is the base length plus half of one bincount of
    ``contrib`` over all incidence pairs, which sums each edge's premiums
    from 0.0 in ascending disk id, and ``n_amb`` is each edge's incidence
    count. :meth:`reveal` recomputes only the edges meeting the revealed
    disk, with the same bincount over their remaining ambiguous disks in the
    same order. So every weight is bit-identical to a full recompute under
    the current knowledge.
    """

    def __init__(self, scene: Scene):
        graph = scene.graph
        self.inc_ptr = scene.inc_ptr
        self.inc_disk = scene.inc_disk
        self.inc_edge = np.repeat(np.arange(graph.n_edges), np.diff(scene.inc_ptr))
        obs = scene.obstacles
        self.contrib = obs.c / (1.0 - obs.p)
        self.base = graph.edge_length
        self.know = np.zeros(len(obs), dtype=np.int8)
        risk = np.bincount(
            self.inc_edge, weights=self.contrib[self.inc_disk], minlength=graph.n_edges
        )
        self.w = self.base + 0.5 * risk
        self.n_amb = np.diff(self.inc_ptr)

    def _weigh(
        self, base: np.ndarray, row: np.ndarray, disk: np.ndarray, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Weights and ambiguous-disk counts of n edges with base lengths
        ``base``, given their (edge row, disk id) pairs in CSR order."""
        codes = self.know[disk]
        amb = codes == _AMBIGUOUS
        amb_row = row[amb]
        risk = np.bincount(amb_row, weights=self.contrib[disk[amb]], minlength=n)
        w = base + 0.5 * risk
        w[np.bincount(row[codes == _KNOWN_TRUE], minlength=n) > 0] = INF
        return w, np.bincount(amb_row, minlength=n)

    def reveal(self, disk_id: int, code: int) -> None:
        """Record disk ``disk_id`` as ``code`` and re-weigh the edges it meets."""
        self.know[disk_id] = code
        edges = self.inc_edge[self.inc_disk == disk_id]
        starts = self.inc_ptr[edges]
        counts = self.inc_ptr[edges + 1] - starts
        pairs = ragged_arange(starts, counts)
        row = np.repeat(np.arange(edges.size), counts)
        self.w[edges], self.n_amb[edges] = self._weigh(
            self.base[edges], row, self.inc_disk[pairs], edges.size
        )


# ---------- shortest paths ----------

# The goal bound is (1 - _SHRINK) * kappa * |p_v - p_goal| in the octile norm,
# used only while _SHRINK * w_min > _ROUNDING * F (see shortest_path).
_SHRINK = 2.0**-16
_ROUNDING = 2.0**-40


def _goal_bound(
    graph: GeometricGraph, weights: np.ndarray, finite: np.ndarray, goal: int
) -> Optional[Tuple[float, Sequence[float]]]:
    """``(c, reach)`` of the lower bound ``h(v) = c * reach[v]`` on the
    distance to ``goal``; None if the bound is not provably safe.

    ``finite`` holds the finite entries of ``weights``. ``reach`` is the
    graph's cached octile distance of each vertex to ``goal``
    (:meth:`Planar.goal_reach`) and ``c = (1 - _SHRINK) * kappa``, with
    ``kappa`` the least ratio of weight to octile extent over finite-weight
    edges of positive extent. None when no such edge exists, a weight is
    zero, or the margin test of :func:`shortest_path` fails.
    """
    geo = graph.planar()
    if geo.edge.size == 0 or finite.size == 0:
        return None
    w_min = float(finite.min())
    # on a lattice every edge has positive extent: divide without the gather
    w = weights if geo.edge.size == weights.size else weights[geo.edge]
    kappa = float((w / geo.extent).min())
    if not (w_min > 0.0 and math.isfinite(kappa)):
        return None
    c = (1.0 - _SHRINK) * kappa
    reach, reach_max = geo.goal_reach(goal)
    scale = float(finite.sum()) + c * reach_max
    if not (math.isfinite(scale) and _SHRINK * w_min > _ROUNDING * scale):
        return None
    return c, reach


def shortest_path(
    graph: GeometricGraph,
    weights: Union[Sequence[float], np.ndarray],
    src: int,
    goal: Optional[int] = None,
) -> Tuple[List[float], List[int]]:
    """Shortest paths from ``src``: (distance, predecessor) lists.

    Weights are a per-edge sequence of values >= 0; +inf marks an impassable
    edge. Ties are resolved deterministically: the predecessor of a vertex is
    the smallest-id neighbour attaining its final distance among those
    finalized before it.

    Without ``goal`` this is Dijkstra: vertices leave the queue in
    (distance, id) order and every reachable vertex is finalized. With
    ``goal`` the search is A* (Hart, Nilsson & Raphael, 1968): the queue key
    is ``f = g + h(v)``, popped in (f, id) order, and the search stops once
    the goal is finalized. Only ``dist[goal]`` and the predecessor chain back
    to ``src`` are then final; other entries may be tentative or unset.

    The bound ``h`` (see :func:`_goal_bound`) is built from the weights
    passed in, not from base lengths, since callers may pass any weights:
    ``h(v) = (1 - eps) * kappa * |p_v - p_goal|`` with ``eps = 2**-16``,
    ``|.|`` the octile norm ``max(|dx|, |dy|) + (sqrt2 - 1) * min(|dx|, |dy|)``
    and ``kappa = min w_e/|e|`` over finite-weight edges of positive extent
    ``|e|``. On the 8-adjacency lattice the octile norm is the exact
    base-length distance, so at base weights ``h`` falls short of the true
    distance only by the factor ``1 - eps``. Since ``|.|`` is a norm, the
    triangle inequality gives
    ``h(u) - h(v) <= (1 - eps) * w_e`` across every edge, so each edge keeps
    a consistency margin of at least ``eps * w_min`` (in exact arithmetic;
    the rounding of ``h`` is part of the rounding error below). Let F be the sum of
    the finite weights plus the largest ``h``: it bounds every reachable
    distance and every key compared before the goal is popped. While
    ``eps * w_min > 2**-40 * F``, the margin exceeds the rounding error of
    ``f`` (a few units of ``2**-53 * F`` per edge) thousands of times over.
    Two things then hold. Every tying predecessor ``u`` of a vertex ``v``
    (``dist[u] + w == dist[v]`` in floats) has a strictly smaller ``f``, so
    it is finalized, and relaxes ``v``, before ``v`` is popped. And every
    vertex of a shortest path to a popped vertex is popped before it, so each
    vertex is finalized with Dijkstra's float distance. Hence every vertex
    the extracted path depends on gets Dijkstra's distance and canonical
    predecessor, and the path equals Dijkstra's bit for bit.

    ``h`` is applied when a vertex is pushed, as the product
    ``c * reach[v]`` with ``c = (1 - eps) * kappa`` and ``reach`` the
    graph's cached octile distances to the goal. The weights are read
    through a memoryview, without a copy, and are not written.

    When the margin cannot be shown, ``h`` is 0 and the search is exactly
    the Dijkstra above: for ``goal=None``, a zero weight, no finite-weight
    edge of positive extent, or a smallest weight below ``2**-24 * F`` (a
    1e-300 edge, or one weight of 1e30 among weights near 1).
    """
    ne = graph.n_edges
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (ne,):
        raise ValueError(f"expected {ne} weights, got shape {weights.shape}")
    if np.isnan(weights).any():
        raise ValueError("edge weights must not be NaN")
    finite = weights[np.isfinite(weights)]
    if finite.size and float(finite.min()) < 0.0:
        raise ValueError(f"edge weights must be >= 0, got {float(finite.min())}")
    n = graph.n_vertices
    if not 0 <= src < n:
        raise ValueError(f"source {src} off the graph")
    if goal is not None and not 0 <= goal < n:
        raise ValueError(f"goal {goal} off the graph")
    bound = None if goal is None else _goal_bound(graph, weights, finite, goal)
    c, reach = (0.0, [0.0] * n) if bound is None else bound
    w = memoryview(np.ascontiguousarray(weights))
    dist: List[float] = [INF] * n
    pred: List[int] = [-1] * n
    done = bytearray(n)
    indptr = graph._adj_indptr
    nbrs = graph._adj_vertex
    eids = graph._adj_edge
    dist[src] = 0.0
    heap: List[Tuple[float, int]] = [(c * reach[src], src)]
    pop = heappop
    push = heappush
    while heap:
        u = pop(heap)[1]
        if done[u]:
            continue
        done[u] = 1
        if u == goal:
            break
        du = dist[u]
        for k in range(indptr[u], indptr[u + 1]):
            v = nbrs[k]
            if done[v]:
                continue
            wk = w[eids[k]]
            if wk == INF:
                continue
            nd = du + wk
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = u
                push(heap, (nd + c * reach[v], v))
            elif nd == dv and u < pred[v]:
                pred[v] = u
    return dist, pred


def extract_path(pred: Sequence[int], src: int, dst: int) -> List[int]:
    """Vertex sequence src..dst from a predecessor array; [] if unreached."""
    if dst != src and pred[dst] < 0:
        return []
    out = [dst]
    v = dst
    while v != src:
        v = pred[v]
        out.append(v)
    out.reverse()
    return out


# ---------- reset-disambiguation traversal ----------


def rd_traverse(scene: Scene) -> TraversalResult:
    """Walk from scene.s to scene.t, disambiguating ahead of risky edges.

    Loop: take the minimum-weight path from the current vertex under current
    knowledge (the weights are patched per reveal, see :class:`_WeightEngine`)
    and follow it over edges free of ambiguous disks. In front of the first
    risky edge, stop (its length is not paid), disambiguate the ambiguous
    disk with the smallest entry parameter along that edge (ties to the
    smaller obstacle id), pay its cost, then replan from the same vertex.
    Terminates at the target or raises InfeasibleSceneError if the target is
    cut off under current knowledge.
    """
    graph = scene.graph
    obs = scene.obstacles
    true = obs.true.tolist()
    cost = obs.c.tolist()
    engine = _WeightEngine(scene)
    know = engine.know
    n_amb = engine.n_amb
    base = graph.edge_length
    cur = scene.s
    walk = [cur]
    traveled = 0.0
    paid: List[float] = []
    actions: List[Tuple] = []
    while cur != scene.t:
        dist, pred = shortest_path(graph, engine.w, cur, goal=scene.t)
        if dist[scene.t] == INF:
            raise InfeasibleSceneError(
                f"target {scene.t} unreachable from {cur} "
                f"after {len(paid)} disambiguations"
            )
        path = extract_path(pred, cur, scene.t)
        eids = graph.edge_ids(path[:-1], path[1:])
        for a, b, eid, length in zip(path, path[1:], eids.tolist(), base[eids].tolist()):
            if n_amb[eid]:
                ambiguous = [
                    did for did in scene.disks_on_edge(eid).tolist()
                    if know[did] == _AMBIGUOUS
                ]
                pa, pb = graph.point(a), graph.point(b)
                target = min(
                    ambiguous,
                    key=lambda did: (entry_parameter(pa, pb, obs.disk(did)), did),
                )
                engine.reveal(target, _KNOWN_TRUE if true[target] else _KNOWN_FALSE)
                paid.append(cost[target])
                actions.append(("disambiguate", a, target, "T" if true[target] else "F"))
                break  # replan from 'a' (== cur)
            walk.append(b)
            traveled += length
            actions.append(("move", a, b, eid))
            cur = b
    spent = sum(paid, 0.0)
    return TraversalResult(
        walk=tuple(walk),
        distance=traveled,
        spent=spent,
        total_cost=traveled + spent,
        n_dis=len(paid),
        actions=tuple(actions),
    )
