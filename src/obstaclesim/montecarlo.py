"""Deterministic Monte Carlo harness over placements, compositions, sensors.

Every replication is a pure function of (config cell, replication index,
master seed): placement, status labels, and sensor marks each draw from their
own derived sub-stream, so scenes can be coupled across configurations that
share some of the stages. Records come back in canonical (config, rep) order
no matter how many workers ran them.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import MAX_COORD, GeometricGraph, build_lattice, lattice_vertex
from .pointproc import (
    Coords,
    MaternParams,
    RngStream,
    StraussParams,
    Window,
    sample_matern,
    sample_strauss,
    sample_uniform,
    stream_keys,
)
from .sensor import Obstacles, SensorModel, assign_marks
from .traversal import Scene, rd_traverse

DEFAULT_GRID = (101, 101)
DEFAULT_SOURCE = (50, 100)
DEFAULT_TARGET = (50, 1)
DEFAULT_INSERTION = Window(10.0, 90.0, 10.0, 90.0)
DEFAULT_RADIUS = 4.5
DEFAULT_COST = 5.0
DEFAULT_SENSOR = SensorModel(2.0, 6.0)


def stream_index(*parts) -> int:
    """Stable 64-bit sub-stream index from string-able parts (SHA-256)."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


# ---------- placements ----------


@dataclass(frozen=True)
class UniformPlacement:
    kind = "uniform"

    def sample(self, n: int, w: Window, rng: RngStream) -> Coords:
        return sample_uniform(n, w, rng)


@dataclass(frozen=True)
class StraussPlacement:
    gamma: float
    d: float
    burn_in: int = 500
    kind = "strauss"

    def __post_init__(self) -> None:
        # floats, so that equal placements key equal streams ("d=7.0" either way)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "d", float(self.d))
        self.params(1)  # the field rules; any n > 0 passes them

    def params(self, n: int) -> StraussParams:
        """The sampler parameters for ``n`` points; ValueError if invalid."""
        return StraussParams(n=n, d=self.d, gamma=self.gamma, burn_in_sweeps=self.burn_in)

    def sample(self, n: int, w: Window, rng: RngStream) -> Coords:
        if n == 0:
            return np.empty(0), np.empty(0)
        return sample_strauss(self.params(n), w, rng)


@dataclass(frozen=True)
class MaternPlacement:
    kappa: int
    r0: float
    kind = "matern"

    def __post_init__(self) -> None:
        object.__setattr__(self, "r0", float(self.r0))  # as StraussPlacement
        self.params(self.kappa)  # the field rules; kappa <= n is checked per cell

    def params(self, n: int) -> MaternParams:
        """The sampler parameters for ``n`` points; ValueError if invalid."""
        return MaternParams(kappa=self.kappa, r0=self.r0, n=n)

    def sample(self, n: int, w: Window, rng: RngStream) -> Coords:
        if n == 0:
            return np.empty(0), np.empty(0)
        return sample_matern(self.params(n), w, rng)


Placement = Union[UniformPlacement, StraussPlacement, MaternPlacement]


# ---------- compositions ----------


@dataclass(frozen=True)
class FalseOnly:
    n_F: int
    kind = "falseonly"

    @property
    def n_T(self) -> int:
        return 0

    @property
    def total(self) -> int:
        return self.n_F


@dataclass(frozen=True)
class TrueOnly:
    n_T: int
    kind = "trueonly"

    @property
    def n_F(self) -> int:
        return 0

    @property
    def total(self) -> int:
        return self.n_T


@dataclass(frozen=True)
class Mixed:
    n_T: int
    n_F: int
    kind = "mixed"

    @property
    def total(self) -> int:
        return self.n_T + self.n_F


Composition = Union[FalseOnly, TrueOnly, Mixed]


# ---------- config ----------


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return "|".join(str(x) for x in v)
    return str(v)


def placement_key(p: Placement) -> str:
    if isinstance(p, StraussPlacement):
        return f"strauss:g={p.gamma},d={p.d},burn={p.burn_in}"
    if isinstance(p, MaternPlacement):
        return f"matern:k={p.kappa},r0={p.r0}"
    return "uniform"


@dataclass(frozen=True)
class ExperimentConfig:
    """One parameter cell: placement, composition, sensor, scene shape, reps."""

    placement: Placement
    composition: Composition
    sensor: SensorModel = DEFAULT_SENSOR
    cost: Union[float, Tuple[float, ...]] = DEFAULT_COST
    radius: Union[float, Tuple[float, ...]] = DEFAULT_RADIUS
    grid: Tuple[int, int] = DEFAULT_GRID
    source: Tuple[int, int] = DEFAULT_SOURCE
    target: Tuple[int, int] = DEFAULT_TARGET
    insertion: Window = DEFAULT_INSERTION
    reps: int = 100
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        for name in ("radius", "cost"):
            value = getattr(self, name)
            # floats, so that equal cells have equal keys ("r=5.0" either way)
            value = tuple(map(float, value)) if isinstance(value, tuple) else float(value)
            object.__setattr__(self, name, value)
        comp = self.composition
        _field_classes(
            self.placement, comp.n_T, comp.n_F, self.radius, self.cost, self.insertion
        )
        _check_lattice_cell(self.grid, self.source, self.target, self.insertion)

    def cell_key(self) -> str:
        """Canonical cell id, the key of every stage stream of the cell.

        Excludes reps and master_seed so extending a sweep or re-seeding does
        not silently re-key existing replications.
        """
        comp, ins = self.composition, self.insertion
        return ";".join(
            [
                f"placement={placement_key(self.placement)}",
                f"comp={comp.kind}:nT={comp.n_T},nF={comp.n_F}",
                f"r={_fmt(self.radius)}",
                f"c={_fmt(self.cost)}",
                f"beta={self.sensor.a},{self.sensor.b}",
                f"grid={self.grid[0]}x{self.grid[1]}",
                f"s={self.source[0]},{self.source[1]}",
                f"t={self.target[0]},{self.target[1]}",
                f"ins={ins.xmin},{ins.xmax},{ins.ymin},{ins.ymax}",
            ]
        )

    def scene(self, rep: int) -> Scene:
        """The scene of replication ``rep`` of this cell."""
        return build_scene(
            self.placement,
            self.composition.n_T,
            self.composition.n_F,
            self.sensor,
            cost=self.cost,
            radius=self.radius,
            grid=self.grid,
            source=self.source,
            target=self.target,
            insertion=self.insertion,
            master_seed=self.master_seed,
            cell_key=self.cell_key(),
            rep=rep,
        )


@dataclass(frozen=True)
class SweepRecord:
    """One Monte Carlo replication, flattened for CSV emission: the fields
    are the ``records.csv`` columns in order, and those before ``rep`` name
    the cell, the ``summary.csv`` cell columns."""

    placement: str
    gamma: Optional[float]
    d: Optional[float]
    kappa: Optional[int]
    r0: Optional[float]
    composition: str
    n_T: int
    n_F: int
    rep: int
    seed: int
    C: float
    n_dis: int
    walk_length: float


@dataclass(frozen=True)
class SummaryRow:
    """One cell's summary; the fields after ``cell`` are the ``summary.csv``
    columns that follow the cell's, in order."""

    cell: Tuple
    count: int
    mean_C: float
    var_C: float
    min_C: float
    max_C: float
    range_C: float
    mean_n_dis: float


class SweepCellError(RuntimeError):
    """A replication failed; carries the cell identity for reporting."""

    def __init__(self, cell_key: str, rep: int, cause: Exception):
        super().__init__(f"cell [{cell_key}] rep {rep} failed: {cause}")
        self.cell_key = cell_key
        self.rep = rep
        self.cause = cause


# ---------- scene construction ----------

_LATTICE_CACHE: Dict[Tuple[int, int], GeometricGraph] = {}


def _lattice(grid: Tuple[int, int]) -> GeometricGraph:
    """The process-wide lattice for ``grid``; scenes share it and never write it."""
    g = _LATTICE_CACHE.get(grid)
    if g is None:
        g = build_lattice(*grid)
        _LATTICE_CACHE[grid] = g
    return g


def _check_lattice_cell(
    grid: Tuple[int, int],
    source: Tuple[int, int],
    target: Tuple[int, int],
    insertion: Window,
) -> None:
    """Raise ValueError unless ``grid`` is at least 2x2, holds two distinct
    endpoints and shares at least one point with the ``insertion`` window."""
    w, h = grid
    if w < 2 or h < 2:
        raise ValueError(f"grid must be at least 2x2, got {w}x{h}")
    for name, (i, j) in (("source", source), ("target", target)):
        if not (0 <= i < w and 0 <= j < h):
            raise ValueError(f"{name} {i},{j} lies outside the {w}x{h} grid")
    if tuple(source) == tuple(target):
        raise ValueError(f"source and target are the same vertex {i},{j}")
    _check_window_meets(insertion, Window(0, w - 1, 0, h - 1), f"{w}x{h} grid")


def _check_window_meets(insertion: Window, box: Window, name: str) -> None:
    """Raise ValueError unless ``insertion`` shares at least one point with
    ``box``, the ``name`` it is checked against."""
    ins = insertion
    if ins.xmin > box.xmax or ins.xmax < box.xmin or ins.ymin > box.ymax or ins.ymax < box.ymin:
        raise ValueError(
            f"insertion window {ins.xmin},{ins.xmax},{ins.ymin},{ins.ymax} shares "
            f"no point with the {name} [{box.xmin}, {box.xmax}]x[{box.ymin}, {box.ymax}]"
        )


def _radius_cost_classes(
    radius: Union[float, Tuple[float, ...]], cost: Union[float, Tuple[float, ...]]
) -> Tuple[Tuple[float, float], ...]:
    """Paired (radius, cost) classes; two scalars give one class.

    The one rule for a cell's classes: a radius is finite, > 0 and at most
    ``MAX_COORD`` (2**200), a cost finite and > 0. A one-value side is
    paired with every class of the other side; two tuples must have the
    same length, and neither may be empty.
    """
    r_tup = isinstance(radius, tuple)
    c_tup = isinstance(cost, tuple)
    radii = tuple(map(float, radius if r_tup else (radius,)))
    costs = tuple(map(float, cost if c_tup else (cost,)))
    if not (radii and costs):
        raise ValueError(f"{'radius' if not radii else 'cost'} needs at least one class")
    for v in radii:
        if not 0.0 < v <= MAX_COORD:
            raise ValueError(f"radius must be finite, > 0 and at most 2**200, got {v}")
    for v in costs:
        if not 0.0 < v < math.inf:
            raise ValueError(f"cost must be finite and > 0, got {v}")
    if r_tup and c_tup and len(radii) != len(costs):
        raise ValueError(
            f"radius classes ({len(radii)}) and cost classes ({len(costs)}) differ"
        )
    k = max(len(radii), len(costs))
    radii = radii * k if len(radii) == 1 else radii
    costs = costs * k if len(costs) == 1 else costs
    return tuple(zip(radii, costs))


def _field_classes(
    placement: Placement,
    n_T: int,
    n_F: int,
    radius: Union[float, Tuple[float, ...]],
    cost: Union[float, Tuple[float, ...]],
    insertion: Window,
) -> Tuple[Tuple[float, float], ...]:
    """The :func:`_radius_cost_classes` of a field of ``n_T`` true and ``n_F``
    false obstacles; ValueError if a count is < 0, an ``insertion`` bound is
    beyond ``MAX_COORD`` in magnitude (no centre may be), or a Matern
    placement has more clusters than the field has obstacles."""
    if min(n_T, n_F) < 0:
        raise ValueError("composition counts must be >= 0")
    classes = _radius_cost_classes(radius, cost)
    ins = insertion
    if max(abs(ins.xmin), abs(ins.xmax), abs(ins.ymin), abs(ins.ymax)) > MAX_COORD:
        raise ValueError(
            "insertion bounds must be at most 2**200 in magnitude, "
            f"got {ins.xmin},{ins.xmax},{ins.ymin},{ins.ymax}"
        )
    if n_T + n_F > 0 and isinstance(placement, MaternPlacement):
        placement.params(n_T + n_F)  # kappa <= n
    return classes


def stage_streams(
    master_seed: int, cell_key: str, reps: Sequence[int]
) -> List[Tuple[RngStream, RngStream, RngStream]]:
    """Per rep of ``reps``, the placement, status and marks streams of that
    replication of a cell; stage s draws from the stream keyed by
    hash(cell_key, rep, s). One :func:`pointproc.stream_keys` pass derives
    the Philox keys of all of them."""
    stages = ("placement", "status", "marks")
    indices = [stream_index(cell_key, rep, stage) for rep in reps for stage in stages]
    keys = stream_keys(master_seed, indices)
    streams = [RngStream(master_seed, i, key) for i, key in zip(indices, keys)]
    return list(zip(streams[0::3], streams[1::3], streams[2::3]))


def draw_stages(
    placement: Placement, n: int, insertion: Window, master_seed: int, cell_key: str,
    reps: Sequence[int],
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.random.Generator, RngStream]]:
    """Per rep of ``reps``, ``(xs, ys, perm, status, marks)``: the
    placement, then the truth permutation (its first n_T entries are the
    true obstacles), the status generator past it, and the unused marks
    stream. The permutation is drawn whatever the composition, so fields of
    one cell key and rep that differ only in their true count share their
    placement and nest their true sets. A range of reps draws what the
    one-rep calls draw, rep by rep.
    """
    out = []
    for place, status, marks in stage_streams(master_seed, cell_key, reps):
        xs, ys = placement.sample(n, insertion, place)
        gen = status.generator()
        out.append((xs, ys, gen.permutation(n), gen, marks))
    return out


def build_obstacles(
    placement: Placement,
    n_T: int,
    n_F: int,
    sensor: SensorModel,
    *,
    cost: Union[float, Tuple[float, ...]] = DEFAULT_COST,
    radius: Union[float, Tuple[float, ...]] = DEFAULT_RADIUS,
    insertion: Window = DEFAULT_INSERTION,
    master_seed: int = 0,
    cell_key: str = "adhoc",
    rep: int = 0,
) -> Obstacles:
    """Place, label and mark one obstacle field: after :func:`draw_stages`,
    the status stream draws one radius/cost class index per obstacle (of one
    class when radius and cost are scalars) and the marks stream the marks."""
    classes = np.array(_field_classes(placement, n_T, n_F, radius, cost, insertion))
    n = n_T + n_F
    ((xs, ys, perm, gen_status, marks),) = draw_stages(
        placement, n, insertion, master_seed, cell_key, range(rep, rep + 1)
    )
    true = np.zeros(n, dtype=bool)
    true[perm[:n_T]] = True
    r, c = classes[gen_status.integers(0, len(classes), size=n)].T
    return Obstacles(xs, ys, r, c, assign_marks(true, sensor, marks), true)


def build_scene(
    placement: Placement,
    n_T: int,
    n_F: int,
    sensor: SensorModel,
    *,
    cost: Union[float, Tuple[float, ...]] = DEFAULT_COST,
    radius: Union[float, Tuple[float, ...]] = DEFAULT_RADIUS,
    grid: Tuple[int, int] = DEFAULT_GRID,
    source: Tuple[int, int] = DEFAULT_SOURCE,
    target: Tuple[int, int] = DEFAULT_TARGET,
    insertion: Window = DEFAULT_INSERTION,
    master_seed: int = 0,
    cell_key: str = "adhoc",
    rep: int = 0,
) -> Scene:
    """The :func:`build_obstacles` field on the cached ``grid`` lattice."""
    _check_lattice_cell(grid, source, target, insertion)
    obstacles = build_obstacles(
        placement,
        n_T,
        n_F,
        sensor,
        cost=cost,
        radius=radius,
        insertion=insertion,
        master_seed=master_seed,
        cell_key=cell_key,
        rep=rep,
    )
    w = grid[0]
    return Scene(
        graph=_lattice(grid),
        obstacles=obstacles,
        s=lattice_vertex(w, *source),
        t=lattice_vertex(w, *target),
    )


# ---------- replication and sweep ----------


def run_replication(config: ExperimentConfig, rep_index: int) -> SweepRecord:
    """Build the scene for (config, rep_index), traverse it, emit one record."""
    scene = config.scene(rep_index)
    result = rd_traverse(scene)
    p = config.placement
    return SweepRecord(
        placement=p.kind,
        **{name: getattr(p, name, None) for name in ("gamma", "d", "kappa", "r0")},
        composition=config.composition.kind,
        n_T=config.composition.n_T,
        n_F=config.composition.n_F,
        rep=rep_index,
        seed=stream_index(config.cell_key(), rep_index, "placement"),
        C=result.total_cost,
        n_dis=result.n_dis,
        walk_length=result.distance,
    )


def _sweep_task(args: Tuple[ExperimentConfig, int]) -> SweepRecord:
    config, rep = args
    try:
        return run_replication(config, rep)
    except Exception as exc:  # surfaced with its cell by run_sweep
        raise SweepCellError(config.cell_key(), rep, exc) from exc


def run_sweep(
    configs: Sequence[ExperimentConfig],
    jobs: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[SweepRecord]:
    """All (config, rep) replications in canonical order.

    ``jobs`` > 1 fans the pure replication tasks over worker processes; the
    gathered records are identical to a serial run, order included. Two
    configs of one cell key and master seed would count the same
    replications twice: ValueError, before any runs.
    """
    if not configs:
        raise ValueError("run_sweep needs at least one config")
    keys = [(cfg.cell_key(), cfg.master_seed) for cfg in configs]
    for i, (key, seed) in enumerate(keys):
        if (key, seed) in keys[:i]:
            raise ValueError(f"duplicate sweep cell [{key}] (seed {seed})")
    tasks = [(cfg, rep) for cfg in configs for rep in range(cfg.reps)]
    total = len(tasks)
    records: List[SweepRecord] = []
    if jobs <= 1:
        for i, task in enumerate(tasks):
            records.append(_sweep_task(task))
            if progress is not None:
                progress(i + 1, total)
    else:
        # imported here: it pulls in multiprocessing, which --jobs 1 never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, total // (jobs * 4))
            for i, rec in enumerate(pool.map(_sweep_task, tasks, chunksize=chunk)):
                records.append(rec)
                if progress is not None:
                    progress(i + 1, total)
    return records


def summarize(
    records: Sequence[SweepRecord], group_by: Sequence[str]
) -> List[SummaryRow]:
    """Per-cell mean/variance/min/max/range of C and mean disambiguation count.

    Variance is the population variance (a single-record cell reports 0).
    """
    if not records:
        raise ValueError("summarize needs at least one record")
    groups: Dict[Tuple, List[SweepRecord]] = {}
    for r in records:
        key = tuple(getattr(r, name) for name in group_by)
        groups.setdefault(key, []).append(r)

    def _order(key: Tuple):
        return tuple((v is None, v) for v in key)

    rows: List[SummaryRow] = []
    for key in sorted(groups, key=_order):
        cs = np.array([r.C for r in groups[key]])
        rows.append(
            SummaryRow(
                cell=key,
                count=len(cs),
                mean_C=float(cs.mean()),
                var_C=float(cs.var()),
                min_C=float(cs.min()),
                max_C=float(cs.max()),
                range_C=float(cs.max() - cs.min()),
                mean_n_dis=float(np.mean([r.n_dis for r in groups[key]])),
            )
        )
    return rows
