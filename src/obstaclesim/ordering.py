"""Empirical checks of the stochastic-ordering results on fixed-path weights.

The comparisons here hold the traversed path fixed and look at the planning
weight W = L + 0.5 * sum_x k_x * c/(1-p_x), where k_x counts the path edges
the obstacle disk meets. Scenes are coupled: within one replication every
compared scenario shares the same obstacle centers (bitwise) and the same
mark-source stream, and truth labels are nested prefixes of one permutation,
mirroring the partition arguments the theory uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import GeometricGraph, index_edge_disks, lattice_vertex
from .montecarlo import (
    DEFAULT_COST,
    DEFAULT_GRID,
    DEFAULT_INSERTION,
    DEFAULT_RADIUS,
    DEFAULT_SENSOR,
    Placement,
    UniformPlacement,
    _lattice,
    _radius_cost_classes,
    draw_stages,
    placement_key,
)
from .pointproc import Window
from .sensor import SensorModel, beta_variates, mark_shapes


@dataclass(frozen=True)
class Ecdf:
    """Empirical CDF: F(t) = (#values <= t) / n."""

    values: np.ndarray  # sorted ascending
    n: int

    @classmethod
    def from_samples(cls, samples) -> "Ecdf":
        arr = np.sort(np.asarray(samples, dtype=np.float64))
        if arr.size == 0:
            raise ValueError("empty sample")
        if np.isnan(arr[-1]):  # the sort puts NaNs last
            raise ValueError("NaN in sample")
        return cls(values=arr, n=arr.size)

    def evaluate(self, ts) -> np.ndarray:
        return np.searchsorted(self.values, ts, side="right") / self.n


@dataclass(frozen=True)
class OrderingReport:
    label_x: str
    label_y: str
    holds: bool
    max_violation: float
    n_x: int
    n_y: int
    mean_x: float
    mean_y: float
    median_x: Optional[float]  # None for an analytic (sampling-free) verdict
    median_y: Optional[float]
    tol: float


def dominates_st(
    x_samples,
    y_samples,
    tol: float = 0.0,
    label_x: str = "X",
    label_y: str = "Y",
) -> OrderingReport:
    """Test X <=_st Y on samples: F_X(t) >= F_Y(t) - tol over the merged support.

    max_violation is max_t (F_Y(t) - F_X(t)); dominance holds iff it is <= tol.
    The verdict is taken from the integer ECDF counts with one division, so a
    violation of exactly tol holds; the reported max_violation is the
    difference of the two float ECDFs and may differ from it by rounding.
    """
    if not tol >= 0:  # NaN fails too
        raise ValueError(f"tol must be >= 0, got {tol}")
    fx = Ecdf.from_samples(x_samples)
    fy = Ecdf.from_samples(y_samples)
    grid = np.concatenate([fx.values, fy.values])
    grid.sort(kind="mergesort")
    cx = np.searchsorted(fx.values, grid, side="right")
    cy = np.searchsorted(fy.values, grid, side="right")
    violation = float(np.max(cy / fy.n - cx / fx.n))  # Ecdf.evaluate's floats
    exact = int(np.max(cy * fx.n - cx * fy.n)) / (fx.n * fy.n)
    return OrderingReport(
        label_x=label_x,
        label_y=label_y,
        holds=exact <= tol,
        max_violation=violation,
        n_x=fx.n,
        n_y=fy.n,
        mean_x=float(fx.values.mean()),
        mean_y=float(fy.values.mean()),
        median_x=float(np.median(fx.values)),
        median_y=float(np.median(fy.values)),
        tol=tol,
    )


# ---------- fixed-path weight machinery ----------


def default_column_path(
    grid: Tuple[int, int] = DEFAULT_GRID,
    x: int = 50,
    y_from: int = 100,
    y_to: int = 1,
) -> List[int]:
    """The straight source-to-target column of the ordering experiments."""
    w, h = grid
    if not (0 <= x < w and 0 <= y_from < h and 0 <= y_to < h):
        raise ValueError(f"column x={x}, y={y_from}..{y_to} leaves the {w}x{h} grid")
    step = -1 if y_to < y_from else 1
    return [lattice_vertex(w, x, y) for y in range(y_from, y_to + step, step)]


class _FixedPath:
    """A path's length, and how many of its steps each of a batch of disks meets.

    The path's distinct edges make a small graph on the path's own vertices
    whose ``segments()`` are ``graph``'s, point for point and in the same
    orientation. So ``geometry.index_edge_disks`` on it gives each (disk,
    edge) pair the bits of :meth:`Segments.disk_hits` on ``graph``. ``mult``
    counts the path's steps along each of those edges.
    """

    def __init__(self, graph: GeometricGraph, path: Sequence[int]):
        if len(path) < 2:
            raise ValueError("path needs at least two vertices")
        try:
            eids = graph.edge_ids(path[:-1], path[1:])
        except KeyError as exc:  # a vertex off the graph, or non-adjacent ones
            raise ValueError(f"path step {exc.args[0]} is not an edge of the graph") from None
        self.length = float(sum(graph.edge_length[eids].tolist()))
        edges, self.mult = np.unique(eids, return_counts=True)
        verts = np.unique(path)  # ascending: segments() breaks ties as on graph
        u, v = (np.searchsorted(verts, ends[edges]) for ends in (graph.edge_u, graph.edge_v))
        self.graph = GeometricGraph(graph.x[verts], graph.y[verts], u, v, graph.edge_length[edges])
        xs, ys = self.graph.x.tolist(), self.graph.y.tolist()
        x0, x1, y0, y1 = self.box = (min(xs), max(xs), min(ys), max(ys))
        # the margin's scale: rounding in disk_hits is relative to the
        # coordinates and to the segment lengths, both bounded by this
        self.scale = max(map(abs, self.box)) + max(x1 - x0, y1 - y0)
        self.key = f"{len(path)}:{path[0]}-{path[-1]}"

    def hits(self, px: np.ndarray, py: np.ndarray, r: float) -> np.ndarray:
        """Per disk of radius r at (px[i], py[i]), the path steps it meets.

        A disk farther than ``r`` from the path's bounding box meets no edge.
        The box is widened by ``r`` plus a relative margin of 1e-6, far more
        than the rounding in :meth:`Segments.disk_hits`, so every disk the
        full test could count goes to the one incidence query; the rest keep
        a count of zero, in place, so the counts line up with the disks.
        The prefilter is for speed only: without it ``ordering.csv`` is the
        same, but a 200-rep ``obstaclesim ordering`` with ratios 0.5,1,2 and
        ``blunt_beta = 3,5`` took 133-173 ms per command, not 97-123 ms (the
        median of each of 3 rounds, 2 vCPUs under KVM).
        """
        x0, x1, y0, y1 = self.box
        pad = r + 1e-6 * (r + self.scale)
        near = np.flatnonzero(
            (px >= x0 - pad) & (px <= x1 + pad) & (py >= y0 - pad) & (py <= y1 + pad)
        )
        disk_ptr, edges = index_edge_disks(self.graph, px[near], py[near], np.full(near.size, r))
        steps = np.concatenate(([0], np.cumsum(self.mult[edges])))
        hits = np.zeros(px.size, dtype=np.int64)
        hits[near] = steps[disk_ptr[1:]] - steps[disk_ptr[:-1]]
        return hits


#: obstacles drawn at once: a chunk of replications holds at most this many
#: (or one replication), so memory stays bounded for any n_o and reps
_CHUNK_OBSTACLES = 1 << 12


def _run_variants(
    n_o: int,
    placement: Placement,
    variants: Sequence[Tuple[str, int, SensorModel]],
    reps: int,
    path: Optional[Sequence[int]],
    *,
    grid: Tuple[int, int] = DEFAULT_GRID,
    insertion: Window = DEFAULT_INSERTION,
    cost: float = DEFAULT_COST,
    radius: float = DEFAULT_RADIUS,
    master_seed: int = 0,
    tag: str = "ordering",
) -> Dict[str, np.ndarray]:
    """Each variant's fixed-path weights W over ``reps`` coupled replications.

    ``variants`` holds (label, n_true, sensor model). A replication's
    variants share its placement and permutation, and each W is that of the
    field ``montecarlo.build_obstacles`` makes for the same cell and rep,
    whose stages (:func:`draw_stages`) and mark rule it shares. A chunk of
    replications (``_CHUNK_OBSTACLES``) draws its stages with one
    :func:`draw_stages` call, which derives all their stream keys in one
    pass; one :meth:`_FixedPath.hits` call counts the path hits of all its
    disks. Each replication's marks generator draws the marks of every
    variant from its saved ``bit_generator.state``, so each gets the stream
    a fresh generator would give, bit for bit, into a (variant, rep,
    obstacle) array. The chunk's weights are then one array pass: a sum
    along the contiguous last axis gives each row the bits of its 1-D sum.
    Before any draw, a radius or cost that breaks the cell rule of
    ``montecarlo._radius_cost_classes`` or a path off ``grid`` is a ValueError.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    labels = [v[0] for v in variants]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate variant labels in {labels}")
    # floats, so that equal values key equal streams
    ((radius, cost),) = _radius_cost_classes(float(radius), float(cost))
    fixed = _FixedPath(_lattice(grid), default_column_path(grid) if path is None else path)
    cell = f"{tag}/n={n_o}/{placement_key(placement)}/r={radius}/c={cost}/path={fixed.key}"
    weights = np.empty((len(variants), reps))
    per_chunk = max(1, _CHUNK_OBSTACLES // max(n_o, 1))
    for lo in range(0, reps, per_chunk):
        hi = min(lo + per_chunk, reps)
        stages = draw_stages(placement, n_o, insertion, master_seed, cell, range(lo, hi))
        px, py = (np.concatenate([s[k] for s in stages]) for k in (0, 1))
        hits = fixed.hits(px, py, radius).reshape(len(stages), n_o)
        marks = np.empty((len(variants), len(stages), n_o))
        for i, (_, _, perm, _, marks_stream) in enumerate(stages):
            marks_gen = marks_stream.generator()
            marks_start = marks_gen.bit_generator.state
            for j, (_, n_true, sensor) in enumerate(variants):
                true = np.zeros(n_o, dtype=bool)
                true[perm[:n_true]] = True
                marks_gen.bit_generator.state = marks_start
                marks[j, i] = beta_variates(*mark_shapes(true, sensor), marks_gen, size=n_o)
        weights[:, lo:hi] = fixed.length + 0.5 * (hits * (cost / (1.0 - marks))).sum(axis=-1)
    return dict(zip(labels, weights))


# ---------- the ordering experiments ----------


def coupled_composition_samples(
    n_o: int,
    placement: Placement = UniformPlacement(),
    sensor: SensorModel = DEFAULT_SENSOR,
    reps: int = 10_000,
    path: Optional[Sequence[int]] = None,
    **kwargs,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupled fixed-path weights for all-false / half-true / all-true fields.

    Per replication one placement and one mark-source stream are drawn; the
    three scenarios relabel the same points (marks redrawn per status from
    the correct Beta). Returns (W_false, W_mixed, W_true).
    """
    variants = [
        ("falseonly", 0, sensor),
        ("mixed", n_o // 2, sensor),
        ("trueonly", n_o, sensor),
    ]
    out = _run_variants(n_o, placement, variants, reps, path, tag="coupled", **kwargs)
    return out["falseonly"], out["mixed"], out["trueonly"]


def true_count_for_ratio(rho: float, n_o: int) -> int:
    """n_T = round(rho * n_o / (1 + rho)); rho=inf means all true."""
    if rho != rho or rho < 0:
        raise ValueError(f"ratio must be >= 0, got {rho}")
    if math.isinf(rho):
        return n_o
    n_t = round(rho * n_o / (1.0 + rho))
    if not 0 <= n_t <= n_o:
        raise ValueError(f"ratio {rho} not realizable with n_o={n_o}")
    return n_t


def ratio_sweep_samples(
    n_o: int,
    ratios: Sequence[float],
    placement: Placement = UniformPlacement(),
    sensor: SensorModel = DEFAULT_SENSOR,
    reps: int = 10_000,
    path: Optional[Sequence[int]] = None,
    **kwargs,
) -> Dict[float, np.ndarray]:
    """Coupled fixed-path weights across true:false ratios.

    Truth labels are prefixes of one shared permutation, so the true set for
    a smaller ratio is nested inside the true set for a larger one.
    """
    if not ratios:
        raise ValueError("need at least one ratio")
    if len(set(ratios)) != len(ratios):
        raise ValueError(f"duplicate ratios in {list(ratios)}")
    variants = [(f"rho={rho}", true_count_for_ratio(rho, n_o), sensor) for rho in ratios]
    # same "coupled" tag as the composition triple: rho=0 reproduces the
    # all-false samples bitwise, rho=inf the all-true ones
    out = _run_variants(n_o, placement, variants, reps, path, tag="coupled", **kwargs)
    return {rho: out[f"rho={rho}"] for rho in ratios}


def sensor_fidelity_samples(
    sharp: SensorModel,
    blunt: SensorModel,
    composition: str,
    n_o: int,
    placement: Placement = UniformPlacement(),
    reps: int = 10_000,
    path: Optional[Sequence[int]] = None,
    **kwargs,
) -> Tuple[np.ndarray, np.ndarray]:
    """Coupled fixed-path weights under two sensor models.

    ``sharp`` must have a < a' and b > b' relative to ``blunt`` (more
    concentrated marks). ``composition`` is "falseonly" or "trueonly".
    Returns (W_sharp, W_blunt). Note the direction that is provable differs
    by composition: sharp <=_st blunt on all-false fields, blunt <=_st sharp
    on all-true fields (sharper sensors mark true obstacles closer to 1,
    inflating the fixed-path risk premium).
    """
    if not (sharp.a <= blunt.a and sharp.b >= blunt.b):
        raise ValueError(
            f"expected a <= a' and b >= b', got ({sharp.a},{sharp.b}) vs "
            f"({blunt.a},{blunt.b})"
        )
    if composition not in ("falseonly", "trueonly"):
        raise ValueError(f"composition must be falseonly|trueonly, got {composition}")
    n_true = n_o if composition == "trueonly" else 0
    variants = [("sharp", n_true, sharp), ("blunt", n_true, blunt)]
    out = _run_variants(
        n_o, placement, variants, reps, path, tag=f"fidelity-{composition}", **kwargs
    )
    return out["sharp"], out["blunt"]

