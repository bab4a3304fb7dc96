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

from .geometry import GeometricGraph, Segments, index_edge_disks
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
    own disk-edge incidence grouped by disk, as
    :func:`~obstaclesim.geometry.index_edge_disks` returns it: the ids of the
    edges meeting disk i are ``inc_edge[disk_ptr[i]:disk_ptr[i + 1]]``, so
    the (disk, edge) pairs run in ascending disk id. The shared graph is not
    written. A scene holds no view window of its own: a rendering takes the
    graph's node bounding box.
    """

    graph: GeometricGraph
    obstacles: Obstacles
    s: int
    t: int
    disk_ptr: np.ndarray = field(init=False, repr=False, compare=False)
    inc_edge: np.ndarray = field(init=False, repr=False, compare=False)

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
        disk_ptr, inc_edge = index_edge_disks(g, obs.x, obs.y, obs.r)
        object.__setattr__(self, "disk_ptr", disk_ptr)
        object.__setattr__(self, "inc_edge", inc_edge)


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
    ``n_amb`` each edge's count of ambiguous disks. Under
    ``np.asarray(engine, dtype=np.float64)`` the engine is ``w``, so it can
    be passed to :func:`shortest_path`, or to any planner that takes
    per-edge weights, in their place.

    The scene's (disk, edge) pairs run in ascending disk id, so a bincount
    over them by edge sums each edge's premiums from 0.0 in ascending disk
    id. The constructor needs no knowledge codes: at walk start every disk is
    ambiguous, so ``w`` is the base length plus half of one such bincount of
    ``contrib`` over all pairs, and ``n_amb`` is one bincount of the pairs'
    edges. :meth:`reveal` recomputes only the edges meeting the revealed
    disk, with the same bincount over their remaining ambiguous disks in the
    same order. So every weight is bit-identical to a full recompute under
    the current knowledge.

    The engine also holds the planner's inputs for its walk, built with the
    weights by :func:`_plan_inputs`, as a plain-weights :func:`shortest_path`
    call builds them: ``slot_w``, the weights in the graph's slot order, and
    ``total``, the sum of the finite weights. A reveal writes the two slots
    of each edge it re-weighs, so a replan makes no pass over all edges.
    ``total`` keeps the walk-start value: see :func:`_bound` for why the
    margin test still holds. The goal bound's other inputs are constants of
    the graph (:class:`~obstaclesim.geometry.Planar`): every weight is a base
    length plus a premium that is never negative, or +inf.

    :meth:`pairs_on` is the engine's one edge -> disk lookup: a reveal reads
    the pairs on the revealed disk's edges through it, and the walk's stop
    the pairs on the risky edge.
    """

    def __init__(self, scene: Scene):
        self.graph = scene.graph
        ne = self.graph.n_edges
        self.disk_ptr = scene.disk_ptr
        self.inc_edge = scene.inc_edge
        obs = scene.obstacles
        self.contrib = obs.c / (1.0 - obs.p)
        self.base = self.graph.edge_length
        self.know = np.zeros(len(obs), dtype=np.int8)
        # each pair's premium (the pairs run disk by disk), summed per edge;
        # one expression, so its temporaries are freed before the gather below
        self.w = self.base + 0.5 * np.bincount(
            self.inc_edge, weights=self.contrib.repeat(np.diff(self.disk_ptr)), minlength=ne
        )
        self.n_amb = np.bincount(self.inc_edge, minlength=ne)
        # scratch of pairs_on: a mask of the asked edges (all False between
        # calls) and their edge -> row map (read only where masked)
        self._on = np.zeros(ne, dtype=bool)
        self._row = np.empty(ne, dtype=np.int64)
        self.slot_w, self.total = _plan_inputs(self.graph, self.w)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.w, dtype=dtype, copy=copy)

    def _weigh(
        self, base: np.ndarray, row: np.ndarray, disk: np.ndarray, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Weights and ambiguous-disk counts of n edges with base lengths
        ``base``, given their (edge row, disk id) pairs in ascending disk id."""
        codes = self.know[disk]
        amb = codes == _AMBIGUOUS
        amb_row = row[amb]
        risk = np.bincount(amb_row, weights=self.contrib[disk[amb]], minlength=n)
        w = base + 0.5 * risk
        w[np.bincount(row[codes == _KNOWN_TRUE], minlength=n) > 0] = INF
        return w, np.bincount(amb_row, minlength=n)

    def pairs_on(self, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(row, disk)`` of every incidence pair on the distinct edge ids
        ``edges``: the position of the pair's edge in ``edges`` and the
        pair's disk id, in ascending disk id."""
        self._on[edges] = True
        pairs = np.flatnonzero(self._on[self.inc_edge])
        self._on[edges] = False
        self._row[edges] = np.arange(edges.size)
        disk = np.searchsorted(self.disk_ptr, pairs, side="right") - 1
        return self._row[self.inc_edge[pairs]], disk

    def reveal(self, disk_id: int, code: int) -> None:
        """Record disk ``disk_id`` as ``code`` and re-weigh the edges it meets."""
        self.know[disk_id] = code
        edges = self.inc_edge[self.disk_ptr[disk_id] : self.disk_ptr[disk_id + 1]]
        if not edges.size:
            return
        new, self.n_amb[edges] = self._weigh(self.base[edges], *self.pairs_on(edges), edges.size)
        self.w[edges] = new
        self.slot_w[self.graph._edge_slot[edges]] = new[:, None]


# ---------- shortest paths ----------

# The goal bound is (1 - _SHRINK) * least_ratio * |p_v - p_goal| in the octile
# norm, used only while _SHRINK * least_length > _ROUNDING * F (see
# shortest_path).
_SHRINK = 2.0**-16
_ROUNDING = 2.0**-40


def _bound(
    graph: GeometricGraph, goal: int, total: float
) -> Optional[Tuple[float, Sequence[float]]]:
    """``(c, reach)`` of the lower bound ``h(v) = c * reach[v]`` on the
    distance to ``goal``; None if the bound is not provably safe.

    ``total`` is the sum of the finite weights. ``reach`` is the graph's
    cached octile distance of each vertex to ``goal``
    (:meth:`Planar.goal_reach`) and ``c = (1 - _SHRINK) * least_ratio``, the
    graph's least base length per unit of octile extent. None when the
    graph has no edge of positive extent, or the margin test of
    :func:`shortest_path` fails on the graph's least base length.

    ``total`` need only be at least the sum of the finite weights: the
    margin test compares the least length with ``F = total + c *
    max(reach)``, and a larger F only makes it stricter, while the proof in
    :func:`shortest_path` uses F solely as an upper bound on distances and
    keys. So a walk may keep the ``total`` of its start. A reveal only
    lowers finite weights (a false disk drops a premium, and float addition
    of fewer nonnegative terms in the same order is never larger) or makes
    them +inf, which drops them from the sum; a later sum, rounded with its
    own pairwise grouping, can exceed the first only by rounding of relative
    size ``2**-53 * log2(n_edges)``, far inside the factor of thousands by
    which the margin exceeds the rounding error of the keys.
    """
    geo = graph.planar()
    if not math.isfinite(geo.least_ratio):
        return None
    c = (1.0 - _SHRINK) * geo.least_ratio
    reach, reach_max = geo.goal_reach(goal)
    scale = total + c * reach_max
    if not (math.isfinite(scale) and _SHRINK * geo.least_length > _ROUNDING * scale):
        return None
    return c, reach


def _plan_inputs(graph: GeometricGraph, w: np.ndarray) -> Tuple[np.ndarray, float]:
    """The planner's inputs for the weights ``w``: ``(slot_w, total)``, the
    weights in the graph's slot order and the sum of the finite weights."""
    total = float(w[np.isfinite(w)].sum())
    # gathered last, once the temporaries above are freed: gathered first,
    # the copy raised a sweep's peak RSS by ~0.6 MB
    return w[graph._slot_edge], total


def _prepare(
    graph: GeometricGraph, weights, src: int, goal: Optional[int]
) -> Tuple[memoryview, Optional[Tuple[float, Sequence[float]]]]:
    """Check the arguments of :func:`shortest_path`; return the weights in
    slot order and the goal bound (None without a goal or a provable
    margin), from the inputs a walk's engine holds or built afresh."""
    if isinstance(weights, _WeightEngine) and weights.graph is graph:
        slot_w, total = weights.slot_w, weights.total
    else:
        ne = graph.n_edges
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (ne,):
            raise ValueError(f"expected {ne} weights, got shape {weights.shape}")
        low = ~(weights >= graph.edge_length)  # NaN is low too
        if low.any():
            k = int(np.argmax(low))
            raise ValueError(
                f"edge {k} ({graph.edge_u[k]},{graph.edge_v[k]}): weight {weights[k]} "
                f"is not at least its base length {graph.edge_length[k]}"
            )
        slot_w, total = _plan_inputs(graph, weights)
    n = graph.n_vertices
    if not 0 <= src < n:
        raise ValueError(f"source {src} off the graph")
    if goal is not None and not 0 <= goal < n:
        raise ValueError(f"goal {goal} off the graph")
    bound = None if goal is None else _bound(graph, goal, total)
    return memoryview(slot_w), bound


def shortest_path(
    graph: GeometricGraph,
    weights: Union[Sequence[float], np.ndarray, _WeightEngine],
    src: int,
    goal: Optional[int] = None,
) -> Tuple[List[float], List[int]]:
    """Shortest paths from ``src``: (distance, predecessor) lists.

    Weights are a per-edge sequence, each at least its edge's base length
    (``graph.edge_length``); +inf marks an impassable edge. A weight that is
    NaN or below its base length, -inf included, is a ValueError naming the
    first such edge. Every weight of a walk is a base length plus a premium
    that is never negative. Ties are resolved deterministically: the predecessor of a vertex is
    the smallest-id neighbour attaining its final distance among those
    finalized before it. A walk passes its :class:`_WeightEngine` as the
    weights (see below).

    Without ``goal`` this is Dijkstra: vertices leave the queue in
    (distance, id) order and every reachable vertex is finalized. With
    ``goal`` the search is A* (Hart, Nilsson & Raphael, 1968): the queue key
    is ``f = g + h(v)``, popped in (f, id) order, and the search stops once
    the goal is finalized. Only ``dist[goal]`` and the predecessor chain back
    to ``src`` are then final; other entries may be tentative or unset.

    The bound ``h`` (see :func:`_bound`) is built from constants of the
    graph (:class:`~obstaclesim.geometry.Planar`), which hold for any
    weights the call accepts: ``h(v) = (1 - eps) * ratio * |p_v - p_goal|``
    with ``eps = 2**-16``, ``|.|`` the octile norm ``max(|dx|, |dy|) +
    (sqrt2 - 1) * min(|dx|, |dy|)`` and ``ratio = min base(e)/|e|`` over
    edges of positive extent ``|e|``. On the 8-adjacency lattice the octile
    norm is the exact base-length distance, so at base weights ``h`` falls
    short of the true distance only by the factor ``1 - eps``. Since
    ``|.|`` is a norm, the triangle inequality gives ``h(u) - h(v) <= (1 -
    eps) * ratio * |e| <= (1 - eps) * base(e) <= (1 - eps) * w_e`` across
    every edge, so each edge keeps a consistency margin of at least ``eps *
    least``, where ``least`` is the least base length, a lower bound on
    every weight (in exact arithmetic; the rounding of ``h`` is part of the
    rounding error below). Let F be the sum of the finite weights plus the
    largest ``h``: it bounds every reachable distance and every key
    compared before the goal is popped. While ``eps * least > 2**-40 *
    F``, the margin exceeds the rounding error of
    ``f`` (a few units of ``2**-53 * F`` per edge) thousands of times over.
    Two things then hold. Every tying predecessor ``u`` of a vertex ``v``
    (``dist[u] + w == dist[v]`` in floats) has a strictly smaller ``f``, so
    it is finalized, and relaxes ``v``, before ``v`` is popped. And every
    vertex of a shortest path to a popped vertex is popped before it, so each
    vertex is finalized with Dijkstra's float distance. Hence every vertex
    the extracted path depends on gets Dijkstra's distance and canonical
    predecessor, and the path equals Dijkstra's bit for bit.

    ``h`` is applied when a vertex is pushed, as the product
    ``c * reach[v]`` with ``c = (1 - eps) * ratio`` and ``reach`` the
    graph's cached octile distances to the goal. The search reads the
    weights in the graph's adjacency slot order, so a relaxation reads the
    neighbour tuple of ``u`` and the weights at consecutive slots. Plain
    weights are not written: one gather puts a copy in slot order. A
    walk's engine keeps that copy current between plans and holds its
    walk-start finite-weight sum, so a replan makes no pass over all edges.

    A relaxation tests neither ``done[v]`` before its comparisons nor
    ``w == inf``; the results are those of a search that skips both. An
    infinite weight gives ``nd = inf``, which lowers no distance and ties
    only an unreached ``v``, whose ``pred`` is still -1 and so is never
    replaced. A finalized ``v`` never gets ``nd < dist[v]``: Dijkstra pops
    in nondecreasing distance and ``du + w >= du`` in floats, and with the
    bound every popped vertex holds Dijkstra's float distance (above),
    which no edge can undercut. So only a tie can reach a finalized ``v``,
    and the tie branch tests ``done[v]``.

    When the margin cannot be shown, ``h`` is 0 and the search is exactly
    the Dijkstra above: for ``goal=None``, no edge of positive extent, or a
    least base length below ``2**-24 * F`` (a 1e-300 edge, or one weight of
    1e30 among weights near 1).
    """
    w, bound = _prepare(graph, weights, src, goal)  # w in slot order
    n = graph.n_vertices
    c, reach = (0.0, [0.0] * n) if bound is None else bound
    dist: List[float] = [INF] * n
    pred: List[int] = [-1] * n
    done = bytearray(n)
    nbrs = graph._adj
    start = graph._adj_start
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
        k = start[u]
        for v in nbrs[u]:
            nd = du + w[k]
            k += 1
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                pred[v] = u
                push(heap, (nd + c * reach[v], v))
            elif nd == dv and u < pred[v] and not done[v]:
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
    knowledge (the weights and their slot-order copy are patched per reveal,
    see :class:`_WeightEngine`)
    and follow it over edges free of ambiguous disks. In front of the first
    risky edge, stop (its length is not paid), disambiguate the ambiguous
    disk with the smallest entry parameter along that edge, measured from
    the vertex the walk stands on (ties to the smaller obstacle id), pay its
    cost, then replan from the same vertex. The candidates are the
    still-ambiguous disks the scene's incidence pairs with the edge, read
    through :meth:`_WeightEngine.pairs_on`, so they are the disks that made
    the edge risky.
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
        dist, pred = shortest_path(graph, engine, cur, scene.t)
        if dist[scene.t] == INF:
            raise InfeasibleSceneError(
                f"target {scene.t} unreachable from {cur} "
                f"after {len(paid)} disambiguations"
            )
        path = extract_path(pred, cur, scene.t)
        eids = graph.edge_ids(path[:-1], path[1:])
        for a, b, eid, length in zip(path, path[1:], eids.tolist(), base[eids].tolist()):
            if n_amb[eid]:
                _, hit = engine.pairs_on(np.array([eid]))
                hit = hit[know[hit] == _AMBIGUOUS]
                step = Segments(graph.x[a], graph.y[a], graph.x[b], graph.y[b])
                # argmin takes the first least t: ids ascend, so ties go low
                t = step.entry(obs.x[hit], obs.y[hit], obs.r[hit])
                target = int(hit[np.argmin(t)])
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
