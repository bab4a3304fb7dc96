"""Command-line front end: simulate, sweep, ordering, network.

Configuration is a sectioned key=value file (UTF-8, ``#`` comments). One
table, ``_SCHEMA``, lists every key with its parser and default, and
``_READS`` lists the keys each command reads. A given key that is unknown, or
that the command does not read, is a config error, checked before any input
file is read or any output written, so a typo or a misplaced key never runs
a different experiment. All CSV output uses dot-decimal formatting and
``\\n`` line ends, and is byte-identical for a given (config, seed)
regardless of --jobs.

Exit codes: 0 success, 1 replication failure, 2 config error, 3 infeasible
scene, 4 I/O error.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import math
import os
import sys
from dataclasses import astuple, fields
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .geometry import MAX_COORD, EdgeError, GeometricGraph, coord_problem, edge_problem
from .montecarlo import (
    DEFAULT_COST,
    DEFAULT_GRID,
    DEFAULT_INSERTION,
    DEFAULT_RADIUS,
    DEFAULT_SENSOR,
    DEFAULT_SOURCE,
    DEFAULT_TARGET,
    ExperimentConfig,
    FalseOnly,
    MaternPlacement,
    Mixed,
    StraussPlacement,
    SweepCellError,
    SummaryRow,
    SweepRecord,
    TrueOnly,
    UniformPlacement,
    _check_window_meets,
    build_obstacles,
    run_sweep,
    stream_index,
    summarize,
)
from .ordering import (
    OrderingReport,
    coupled_composition_samples,
    dominates_st,
    ratio_sweep_samples,
    sensor_fidelity_samples,
)
from .pointproc import RngStream, Window
from .sensor import ObstacleError, Obstacles, SensorModel, assign_marks, beta_cdf
from .traversal import InfeasibleSceneError, Scene, TraversalResult, rd_traverse


class ConfigError(Exception):
    """Malformed or contradictory run configuration."""


# ---------- value parsers ----------


def _as_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {text!r}") from None


def _as_float(text: str, key: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: value must be finite, got {text!r}")
    return v


def _seq(element, count: int = 0, sep: str = ","):
    """Parser of ``sep``-separated ``element`` values into a tuple: exactly
    ``count`` of them, or one or more when ``count`` is 0."""

    def parse(text: str, key: str) -> tuple:
        parts = text.lower().split(sep)
        if (len(parts) != count) if count else not text.strip():
            raise ConfigError(
                f"{key}: expected {count or 'one or more'} values separated by "
                f"{sep!r}, got {text!r}"
            )
        return tuple(element(p.strip(), key) for p in parts)

    return parse


def _as_window(text: str, key: str) -> Window:
    vals = _seq(_as_float, 4)(text, key)
    try:
        return Window(*vals)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _as_str(text: str, key: str) -> str:
    return text.strip()


# The one key table: section -> key -> (parser, default).
_SCHEMA = {
    "scene": {
        "grid": (_seq(_as_int, 2, "x"), DEFAULT_GRID),
        "source": (_seq(_as_int, 2), DEFAULT_SOURCE),
        "target": (_seq(_as_int, 2), DEFAULT_TARGET),
        "radius": (_seq(_as_float), (DEFAULT_RADIUS,)),
        "cost": (_seq(_as_float), (DEFAULT_COST,)),
        "beta": (_seq(_as_float, 2), astuple(DEFAULT_SENSOR)),
        "insertion": (_as_window, DEFAULT_INSERTION),
    },
    "placement": {
        "kind": (_as_str, "uniform"),
        "gamma": (_seq(_as_float), (0.0,)),
        "d": (_seq(_as_float), (7.0,)),
        "burn_in": (_as_int, 500),
        "kappa": (_seq(_as_int), (8,)),
        "r0": (_seq(_as_float), (2.5,)),
    },
    "composition": {
        "kind": (_as_str, "falseonly"),
        "n_false": (_seq(_as_int), (40,)),
        "n_true": (_seq(_as_int), (40,)),
        "n_total": (_seq(_as_int), (80,)),
        "frac_true": (_seq(_as_float), (0.5,)),
    },
    "run": {
        "reps": (_as_int, 100),
        "seed": (_as_int, 0),
        "jobs": (_as_int, 1),
    },
    "ordering": {
        "n_obstacles": (_as_int, 40),
        "reps": (_as_int, 10_000),
        "tol": (_as_float, 0.02),
        "ratios": (_seq(_as_float), None),
        "blunt_beta": (_seq(_as_float, 2), None),
    },
    "network": {
        "source": (_as_int, None),
        "target": (_as_int, None),
        "obstacles": (_as_str, None),
    },
}


def _keys(section: str, *keys: str) -> FrozenSet[Tuple[str, str]]:
    """``(section, key)`` pairs of ``keys``, or of the whole section if none."""
    return frozenset((section, key) for key in keys or _SCHEMA[section])


_CELL_READS = _keys("scene") | _keys("placement") | _keys("composition") | _keys("run", "seed")
_NETWORK_READS = _keys("network") | _keys("scene", "beta") | _keys("run", "seed")

# The keys each command reads; any other given key is a config error.
_READS = {
    "simulate": _CELL_READS,
    "sweep": _CELL_READS | _keys("run", "reps", "jobs"),
    "ordering": (
        _keys("scene", "beta") | _keys("placement") | _keys("ordering") | _keys("run", "seed")
    ),
    "network": _NETWORK_READS,
    # [composition] given and no [network] obstacles table
    "network generating obstacles": (
        _NETWORK_READS
        | _keys("scene", "radius", "cost", "insertion")
        | _keys("placement")
        | _keys("composition")
    ),
}


class RunConfig:
    """Parsed config: resolved values plus the set of explicitly-given keys."""

    def __init__(self, values: Dict[str, Dict], explicit: set, base_dir: str):
        self.values = values
        self.explicit = explicit  # {(section, key)}
        self.base_dir = base_dir  # for resolving relative file references

    def get(self, section: str, key: str):
        return self.values[section][key]

    def given(self, section: str, key: str) -> bool:
        return (section, key) in self.explicit


def load_config(path: Optional[str]) -> RunConfig:
    """Parse and validate a config file; None means all defaults."""
    values = {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in _SCHEMA.items()
    }
    explicit: set = set()
    base_dir = "."
    if path is not None:
        parser = configparser.ConfigParser(
            # no section name can hold a line break, so [DEFAULT] is an
            # ordinary, unknown section rather than defaults for every other
            default_section="\n",
            interpolation=None,
            delimiters=("=",),
            comment_prefixes=("#",),
            inline_comment_prefixes=("#",),
        )
        parser.optionxform = str  # keep key case; schema is lowercase-only
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        base_dir = os.path.dirname(os.path.abspath(path))
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(
                    f"{path}: unknown section [{section}] "
                    f"(known: {', '.join(sorted(_SCHEMA))})"
                )
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(
                        f"{path}: unknown key {key!r} in [{section}] "
                        f"(known: {', '.join(sorted(_SCHEMA[section]))})"
                    )
                values[section][key] = _SCHEMA[section][key][0](raw, f"[{section}] {key}")
                explicit.add((section, key))
    cfg = RunConfig(values, explicit, base_dir)
    _validate(cfg)
    return cfg


_PLACEMENTS = {cls.kind: cls for cls in (UniformPlacement, StraussPlacement, MaternPlacement)}

# section -> kind -> the keys that kind takes; a placement's keys are its fields
_KIND_KEYS = {
    "placement": {
        kind: tuple(f.name for f in fields(cls)) for kind, cls in _PLACEMENTS.items()
    },
    "composition": {
        "falseonly": ("n_false",),
        "trueonly": ("n_true",),
        "mixed": ("n_true", "n_false", "n_total", "frac_true"),
    },
}


def _composition_given(cfg: RunConfig, *keys: str) -> bool:
    """Whether any of the ``[composition]`` ``keys`` is given."""
    return any(cfg.given("composition", key) for key in keys)


def _validate(cfg: RunConfig) -> None:
    for section, kinds in _KIND_KEYS.items():
        kind = cfg.get(section, "kind")
        if kind not in kinds:
            raise ConfigError(f"[{section}] kind must be {'|'.join(kinds)}, got {kind!r}")
        for key in _SCHEMA[section]:
            if key != "kind" and cfg.given(section, key) and key not in kinds[kind]:
                raise ConfigError(f"[{section}] {key} does not apply to kind={kind}")
    # only mixed takes both forms, and one form at a time
    by_frac = _composition_given(cfg, "n_total", "frac_true")
    if by_frac and _composition_given(cfg, "n_true", "n_false"):
        raise ConfigError(
            "[composition] mixed takes either n_total+frac_true or n_true+n_false, not both"
        )
    a, b = cfg.get("scene", "beta")
    if not (a > 0 and b > 0):
        raise ConfigError(f"[scene] beta shapes must be > 0, got {a},{b}")


def _check_reads(cfg: RunConfig, command: str, hint: str = "") -> None:
    """Reject, by name, the first given key that ``command`` does not read."""
    for section, keys in _SCHEMA.items():
        for key in keys:
            if cfg.given(section, key) and (section, key) not in _READS[command]:
                raise ConfigError(f"[{section}] {key} is not read by {command}{hint}")


def _flag_or(
    cfg: RunConfig, flag: Optional[int], section: str, key: str, least: Optional[int] = None
) -> int:
    """The command-line ``flag`` if given, else ``[section] key``; at least ``least``."""
    value = cfg.get(section, key) if flag is None else flag
    if least is not None and value < least:
        raise ConfigError(f"[{section}] {key} must be >= {least}, got {value}")
    return value


def _placements(cfg: RunConfig) -> List:
    """One placement per combination of the listed values of its fields."""
    cls = _PLACEMENTS[cfg.get("placement", "kind")]
    values = [cfg.get("placement", key) for key in _KIND_KEYS["placement"][cls.kind]]
    try:
        return [
            cls(*combo)
            for combo in itertools.product(*(v if isinstance(v, tuple) else (v,) for v in values))
        ]
    except ValueError as exc:
        raise ConfigError(f"[placement] {exc}") from None


def _compositions(cfg: RunConfig) -> List:
    kind = cfg.get("composition", "kind")
    # the defaults of the keys that kind does not take are >= 0
    counts = {key: cfg.get("composition", key) for key in ("n_true", "n_false", "n_total")}
    for key, values in counts.items():
        if min(values) < 0:
            raise ConfigError(f"[composition] {key} must be >= 0, got {min(values)}")
    if kind == "falseonly":
        return [FalseOnly(n_F=n) for n in counts["n_false"]]
    if kind == "trueonly":
        return [TrueOnly(n_T=n) for n in counts["n_true"]]
    if _composition_given(cfg, "n_true", "n_false"):
        return [Mixed(n_T=t, n_F=f) for t in counts["n_true"] for f in counts["n_false"]]
    comps = []
    for total in counts["n_total"]:
        for frac in cfg.get("composition", "frac_true"):
            if not 0.0 <= frac <= 1.0:
                raise ConfigError(f"[composition] frac_true {frac} outside [0, 1]")
            n_t = round(frac * total)
            comps.append(Mixed(n_T=n_t, n_F=total - n_t))
    return comps


def _cell_error(exc: ValueError) -> ConfigError:
    """``exc`` as a config error, under the section of the key it starts with."""
    msg = str(exc)
    for section in ("scene", "placement"):
        if msg.split(" ", 1)[0] in _SCHEMA[section]:
            return ConfigError(f"[{section}] {msg}")
    return ConfigError(msg)


def _one_or_all(values: Tuple) -> Union[float, Tuple]:
    """A one-value list as its value, a longer one as the class tuple."""
    return values if len(values) > 1 else values[0]


def _fields(cfg: RunConfig) -> List[Tuple]:
    """Every (placement, composition) pair of the config, in cell order."""
    return list(itertools.product(_placements(cfg), _compositions(cfg)))


def _single(cells: List, command: str):
    """The one cell of ``cells``; a config error naming ``command`` otherwise."""
    if len(cells) != 1:
        raise ConfigError(f"{command} needs a single parameter cell, got {len(cells)} cells")
    return cells[0]


def _expand_cells(cfg: RunConfig, seed: int, reps: int) -> List[ExperimentConfig]:
    shape = dict(
        sensor=SensorModel(*cfg.get("scene", "beta")),
        radius=_one_or_all(cfg.get("scene", "radius")),
        cost=_one_or_all(cfg.get("scene", "cost")),
        grid=cfg.get("scene", "grid"),
        source=cfg.get("scene", "source"),
        target=cfg.get("scene", "target"),
        insertion=cfg.get("scene", "insertion"),
        reps=reps,
        master_seed=seed,
    )
    try:
        return [ExperimentConfig(p, comp, **shape) for p, comp in _fields(cfg)]
    except ValueError as exc:
        raise _cell_error(exc) from None


# ---------- formatting ----------


def _g(v: float) -> str:
    return "%g" % v


def _cell(v) -> str:
    """One CSV field: shortest round-trip decimal, empty for None."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # float() first: numpy scalars repr differently
    return str(v)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_traversal(
    out: str, scene: Scene, result: TraversalResult, svg: Optional[str]
) -> None:
    """``obstacles.csv``, ``walk.csv`` and, if ``svg`` names it, the scene plot."""
    out = _ensure_outdir(out)
    _write_obstacles_csv(os.path.join(out, "obstacles.csv"), scene)
    _write_walk_csv(os.path.join(out, "walk.csv"), scene, result)
    if svg is not None:
        _svg_scene(os.path.join(out, svg), scene, result.walk)


def _write_obstacles_csv(path: str, scene: Scene) -> None:
    obs = scene.obstacles
    rows = zip(
        range(len(obs)),
        obs.x.tolist(),
        obs.y.tolist(),
        obs.r.tolist(),
        ["T" if t else "F" for t in obs.true.tolist()],
        obs.p.tolist(),
        obs.c.tolist(),
    )
    _write_csv(path, ["id", "x", "y", "r", "status", "p", "c"], list(rows))


def _write_walk_csv(path: str, scene: Scene, result: TraversalResult) -> None:
    xs, ys = scene.graph.x.tolist(), scene.graph.y.tolist()
    rows: List[Tuple] = []
    cum = 0.0
    cur = scene.s
    rows.append((0, cur, xs[cur], ys[cur], cum, ""))
    for step, action in enumerate(result.actions, start=1):
        if action[0] == "move":
            _, _, v, eid = action
            cum += float(scene.graph.edge_length[eid])
            cur = v
            event = ""
        else:
            _, vtx, oid, revealed = action
            event = (
                f"disambiguate obstacle={oid} revealed={revealed} "
                f"cost={_g(scene.obstacles.c[oid])}"
            )
        rows.append((step, cur, xs[cur], ys[cur], cum, event))
    _write_csv(path, ["step", "vertex", "x", "y", "cum_distance", "event"], rows)


def _svg_scene(path: str, scene: Scene, walk: Sequence[int]) -> None:
    """Scene rendering: one walk polyline, one circle per obstacle, s/t rects.

    True obstacles are solid red, false ones dashed grey; the y axis is
    flipped so larger y is up, as in the plane; the view is the graph's node
    bounding box.
    """
    xs, ys, window = scene.graph.x.tolist(), scene.graph.y.tolist(), _node_bbox(scene.graph)
    pad = max(2.0, 0.03 * max(window.xmax - window.xmin, window.ymax - window.ymin))

    def sx(x: float) -> float:
        return x - window.xmin + pad

    def sy(y: float) -> float:
        return window.ymax - y + pad

    w = window.xmax - window.xmin + 2 * pad
    h = window.ymax - window.ymin + 2 * pad
    sw = max(w, h) / 300.0  # stroke width in world units
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_g(w)} {_g(h)}" '
        f'width="720" height="{_g(720 * h / w)}">',
    ]
    obs = scene.obstacles
    for x, y, r, true in zip(*(a.tolist() for a in (obs.x, obs.y, obs.r, obs.true))):
        cx, cy = sx(x), sy(y)
        if true:
            style = f'stroke="#c62828" stroke-width="{_g(2 * sw)}" fill="#c62828" fill-opacity="0.15"'
        else:
            style = (
                f'stroke="#616161" stroke-width="{_g(2 * sw)}" fill="none" '
                f'stroke-dasharray="{_g(6 * sw)} {_g(4 * sw)}"'
            )
        lines.append(
            f'<circle cx="{_g(cx)}" cy="{_g(cy)}" r="{_g(r)}" {style}/>'
        )
    walk_pts = " ".join(f"{_g(sx(xs[v]))},{_g(sy(ys[v]))}" for v in walk)
    lines.append(
        f'<polyline points="{walk_pts}" fill="none" stroke="#1565c0" '
        f'stroke-width="{_g(3 * sw)}"/>'
    )
    m = max(4 * sw, 0.6)
    for vid, color in ((scene.s, "#2e7d32"), (scene.t, "#000000")):
        px, py = sx(xs[vid]), sy(ys[vid])
        lines.append(
            f'<rect x="{_g(px - m)}" y="{_g(py - m)}" width="{_g(2 * m)}" '
            f'height="{_g(2 * m)}" fill="{color}"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _ensure_outdir(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


# ---------- commands ----------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _check_reads(cfg, "simulate")
    seed = _flag_or(cfg, args.seed, "run", "seed")
    scene = _single(_expand_cells(cfg, seed, 1), "simulate").scene(0)
    result = rd_traverse(scene)
    _write_traversal(args.out, scene, result, "scene.svg" if args.svg else None)
    print(
        f"distance={_g(result.distance)}, disambiguation={_g(result.spent)}, "
        f"total={_g(result.total_cost)}"
    )
    return 0


_RECORD_FIELDS = tuple(f.name for f in fields(SweepRecord))
_CELL_FIELDS = _RECORD_FIELDS[: _RECORD_FIELDS.index("rep")]
_SUMMARY_HEADER = (*_CELL_FIELDS, *[f.name for f in fields(SummaryRow)][1:])


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _check_reads(cfg, "sweep")
    seed = _flag_or(cfg, args.seed, "run", "seed")
    reps = _flag_or(cfg, args.reps, "run", "reps", least=1)
    jobs = _flag_or(cfg, args.jobs, "run", "jobs", least=1)
    cells = _expand_cells(cfg, seed, reps)
    total = sum(c.reps for c in cells)
    tick = max(1, total // 20)

    def progress(done: int, n: int) -> None:
        if done % tick == 0 or done == n:
            print(f"sweep: {done}/{n} replications", file=sys.stderr)

    try:
        records = run_sweep(cells, jobs=jobs, progress=progress)
    except ValueError as exc:  # replication failures come as SweepCellError
        raise ConfigError(str(exc)) from None
    out = _ensure_outdir(args.out)
    rec_path = os.path.join(out, "records.csv")
    _write_csv(rec_path, _RECORD_FIELDS, [astuple(r) for r in records])
    rows = summarize(records, _CELL_FIELDS)
    sum_path = os.path.join(out, "summary.csv")
    _write_csv(sum_path, _SUMMARY_HEADER, [[*row.cell, *astuple(row)[1:]] for row in rows])
    print(f"wrote {len(records)} records to {rec_path}")
    print(f"wrote {len(rows)} summary rows to {sum_path}")
    return 0


_ORDERING_HEADER = ("experiment", *(f.name for f in fields(OrderingReport)))


def cmd_ordering(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _check_reads(cfg, "ordering")
    seed = _flag_or(cfg, args.seed, "run", "seed")
    reps = _flag_or(cfg, args.reps, "ordering", "reps", least=1)
    tol = cfg.get("ordering", "tol")
    n_o = cfg.get("ordering", "n_obstacles")
    ratios = cfg.get("ordering", "ratios")
    blunt_beta = cfg.get("ordering", "blunt_beta")
    a, b = cfg.get("scene", "beta")
    if n_o < 0:
        raise ConfigError(f"[ordering] n_obstacles must be >= 0, got {n_o}")
    if tol < 0:
        raise ConfigError(f"[ordering] tol must be >= 0, got {_g(tol)}")
    if ratios is not None and min(ratios) < 0:
        raise ConfigError(f"[ordering] ratios must be >= 0, got {_g(min(ratios))}")
    if ratios is not None and len(set(ratios)) != len(ratios):
        raise ConfigError(
            f"[ordering] ratios must be distinct, got {','.join(map(_g, ratios))}"
        )
    if blunt_beta is not None:
        ba, bb = blunt_beta
        if not (a <= ba and 0 < bb <= b):
            raise ConfigError(
                f"[ordering] blunt_beta {_g(ba)},{_g(bb)} must be positive and no "
                f"sharper than [scene] beta {_g(a)},{_g(b)} (a <= a', b >= b')"
            )
    placement = _single(_placements(cfg), "ordering")
    if n_o > 0 and isinstance(placement, MaternPlacement):
        try:
            placement.params(n_o)  # kappa <= n
        except ValueError as exc:
            raise ConfigError(f"[placement] {exc} ([ordering] n_obstacles = {n_o})") from None
    sensor = SensorModel(a, b)
    rows: List[List] = []
    texts: List[str] = []

    def add(experiment: str, report: OrderingReport, note: str = "") -> None:
        rows.append([experiment, *astuple(report)])
        verdict = "holds" if report.holds else "FAILS"
        suffix = f" [{note}]" if note else ""
        texts.append(
            f"{experiment}: {report.label_x} <=st {report.label_y}: {verdict} "
            f"(max violation {_g(report.max_violation)}){suffix}"
        )

    # analytic marks dominance on a CDF grid (no sampling)
    grid = [i / 1000.0 for i in range(1001)]
    viol = max(beta_cdf(b, a, x) - beta_cdf(a, b, x) for x in grid)
    add(
        "marks-analytic",
        OrderingReport(
            label_x=f"beta({_g(a)},{_g(b)})",
            label_y=f"beta({_g(b)},{_g(a)})",
            holds=viol <= 1e-10,
            max_violation=viol,
            n_x=0,
            n_y=0,
            mean_x=a / (a + b),
            mean_y=b / (a + b),
            median_x=None,
            median_y=None,
            tol=1e-10,
        ),
    )

    w_f, w_m, w_t = coupled_composition_samples(
        n_o, placement, sensor, reps, master_seed=seed
    )
    add("composition", dominates_st(w_f, w_m, tol, "falseonly", "mixed"))
    add("composition", dominates_st(w_m, w_t, tol, "mixed", "trueonly"))

    if ratios is not None:
        ordered = sorted(ratios)
        by_rho = ratio_sweep_samples(
            n_o, ordered, placement, sensor, reps, master_seed=seed
        )
        for lo, hi in zip(ordered, ordered[1:]):
            add(
                "ratio",
                dominates_st(
                    by_rho[lo], by_rho[hi], tol, f"rho={_g(lo)}", f"rho={_g(hi)}"
                ),
            )

    if blunt_beta is not None:
        blunt = SensorModel(*blunt_beta)
        lab_sharp = f"beta({_g(a)},{_g(b)})"
        lab_blunt = f"beta({_g(blunt.a)},{_g(blunt.b)})"
        sharp_f, blunt_f = sensor_fidelity_samples(
            sensor, blunt, "falseonly", n_o, placement, reps, master_seed=seed
        )
        add(
            "sensor-falseonly",
            dominates_st(
                sharp_f, blunt_f, tol, f"falseonly {lab_sharp}", f"falseonly {lab_blunt}"
            ),
        )
        sharp_t, blunt_t = sensor_fidelity_samples(
            sensor, blunt, "trueonly", n_o, placement, reps, master_seed=seed
        )
        add(
            "sensor-trueonly",
            dominates_st(
                blunt_t, sharp_t, tol, f"trueonly {lab_blunt}", f"trueonly {lab_sharp}"
            ),
            note="sharper marks raise all-true path weights",
        )

    out = _ensure_outdir(args.out)
    path = os.path.join(out, "ordering.csv")
    _write_csv(path, _ORDERING_HEADER, rows)
    for line in texts:
        print(line)
    print(f"wrote {len(rows)} ordering rows to {path}")
    return 0


# ---------- network mode ----------


def _read_csv_rows(path: str, n_min: int, n_max: int, what: str):
    """Yield (line_number, fields); blank rows are skipped, and a non-numeric
    first non-blank row is a header."""
    first = True
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not f.strip() for f in row):
                continue
            fields = [f.strip() for f in row]
            if first:
                first = False
                try:
                    float(fields[0])
                except ValueError:
                    continue  # header row
            if not n_min <= len(fields) <= n_max:
                raise ConfigError(
                    f"{what} line {lineno}: expected {n_min}"
                    + (f"-{n_max}" if n_max != n_min else "")
                    + f" fields, got {len(fields)}"
                )
            yield lineno, fields


def _read_network(nodes_path: str, edges_path: str):
    ids: List[int] = []
    xs: List[float] = []
    ys: List[float] = []
    index: Dict[int, int] = {}
    for lineno, f in _read_csv_rows(nodes_path, 3, 3, "nodes"):
        try:
            nid, x, y = int(f[0]), float(f[1]), float(f[2])
        except ValueError:
            raise ConfigError(f"nodes line {lineno}: bad number in {f!r}") from None
        if not (abs(x) <= MAX_COORD and abs(y) <= MAX_COORD):
            raise ConfigError(f"nodes line {lineno}: {coord_problem(x, y)}")
        if nid in index:
            raise ConfigError(f"nodes line {lineno}: duplicate id {nid}")
        index[nid] = len(ids)
        ids.append(nid)
        xs.append(x)
        ys.append(y)
    if len(ids) < 2:
        raise ConfigError(f"{nodes_path}: need at least two nodes")
    us: List[int] = []
    vs: List[int] = []
    lengths: List[float] = []
    lines: List[int] = []
    for lineno, f in _read_csv_rows(edges_path, 2, 3, "edges"):
        try:
            u_id, v_id = int(f[0]), int(f[1])
        except ValueError:
            raise ConfigError(f"edges line {lineno}: bad node id in {f!r}") from None
        for nid in (u_id, v_id):
            if nid not in index:
                raise ConfigError(f"edges line {lineno}: unknown node id {nid}")
        u, v = index[u_id], index[v_id]
        if len(f) == 3:
            try:
                length = float(f[2])
            except ValueError:
                raise ConfigError(
                    f"edges line {lineno}: bad length {f[2]!r}"
                ) from None
        else:
            length = math.hypot(xs[u] - xs[v], ys[u] - ys[v])
        us.append(u)
        vs.append(v)
        lengths.append(length)
        lines.append(lineno)
    try:
        graph = GeometricGraph(xs, ys, us, vs, lengths)
    except EdgeError as exc:
        k = exc.index
        problem = edge_problem(ids[us[k]], ids[vs[k]], lengths[k], f"line {lines[exc.first]}")
        raise ConfigError(f"edges line {lines[k]}: {problem}") from None
    return graph, ids, index


def _read_network_obstacles(path: str, sensor: SensorModel, seed: int) -> Obstacles:
    """Manual obstacle table x,y,r,status,c with optional trailing mark p."""
    cols: List[list] = [[] for _ in range(6)]  # x, y, r, c, true, p
    lines: List[int] = []
    n_fields = None
    for lineno, f in _read_csv_rows(path, 5, 6, "obstacles"):
        if n_fields is None:
            n_fields = len(f)
        elif len(f) != n_fields:
            raise ConfigError(
                f"obstacles line {lineno}: mixed 5- and 6-field rows"
            )
        try:
            row = [float(f[0]), float(f[1]), float(f[2]), float(f[4])]
        except ValueError:
            raise ConfigError(f"obstacles line {lineno}: bad number in {f!r}") from None
        if f[3] not in ("T", "F"):
            raise ConfigError(
                f"obstacles line {lineno}: status must be T or F, got {f[3]!r}"
            )
        row.append(f[3] == "T")
        if len(f) == 6:
            try:
                row.append(float(f[5]))
            except ValueError:
                raise ConfigError(f"obstacles line {lineno}: bad mark {f[5]!r}") from None
        for col, value in zip(cols, row):
            col.append(value)
        lines.append(lineno)
    x, y, r, c, true, p = cols
    if n_fields != 6:
        p = assign_marks(true, sensor, RngStream(seed, stream_index("network", "marks")))
    try:
        return Obstacles(x, y, r, c, p, true)
    except ObstacleError as exc:
        raise ConfigError(f"obstacles line {lines[exc.index]}: {exc.problem}") from None


def _node_bbox(graph: GeometricGraph) -> Window:
    """Node bounding box, padded along any degenerate (collinear) axis by
    half the larger extent (at least 1), and by at least one ulp, within
    ``MAX_COORD``, so it is a valid window for every graph."""
    xs, ys = graph.x.tolist(), graph.y.tolist()
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    bounds = []
    for lo, hi in ((min(xs), max(xs)), (min(ys), max(ys))):
        if hi <= lo:
            lo = max(min(lo - span / 2, math.nextafter(lo, -math.inf)), -MAX_COORD)
            hi = min(max(hi + span / 2, math.nextafter(hi, math.inf)), MAX_COORD)
        bounds += (lo, hi)
    return Window(*bounds)


def cmd_network(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    obstacles_path = cfg.get("network", "obstacles")
    generated = obstacles_path is None and _composition_given(cfg, *_SCHEMA["composition"])
    if generated:
        _check_reads(cfg, "network generating obstacles")
    elif obstacles_path is not None:
        _check_reads(cfg, "network", " next to [network] obstacles")
    else:
        _check_reads(cfg, "network", " (to generate obstacles, give [composition] kind)")
    seed = _flag_or(cfg, args.seed, "run", "seed")
    s_id = cfg.get("network", "source")
    t_id = cfg.get("network", "target")
    if s_id is None or t_id is None:
        raise ConfigError("network mode needs [network] source and target node ids")
    if s_id == t_id:
        raise ConfigError(f"[network] source and target are the same node {s_id}")
    graph, ids, index = _read_network(args.nodes, args.edges)
    for nid in (s_id, t_id):
        if nid not in index:
            raise ConfigError(f"[network] node id {nid} not in {args.nodes}")
    sensor = SensorModel(*cfg.get("scene", "beta"))
    if obstacles_path is not None:
        if not os.path.isabs(obstacles_path):
            obstacles_path = os.path.join(cfg.base_dir, obstacles_path)
        obstacles = _read_network_obstacles(obstacles_path, sensor, seed)
    elif generated:
        placement, comp = _single(_fields(cfg), "network")
        box = _node_bbox(graph)
        insertion = cfg.get("scene", "insertion") if cfg.given("scene", "insertion") else box
        try:
            _check_window_meets(insertion, box, "node bounding box")
            obstacles = build_obstacles(
                placement,
                comp.n_T,
                comp.n_F,
                sensor,
                cost=_one_or_all(cfg.get("scene", "cost")),
                radius=_one_or_all(cfg.get("scene", "radius")),
                insertion=insertion,
                master_seed=seed,
                cell_key="network",
                rep=0,
            )
        except ValueError as exc:
            raise _cell_error(exc) from None
    else:
        obstacles = Obstacles((), (), (), (), (), ())
    scene = Scene(graph=graph, obstacles=obstacles, s=index[s_id], t=index[t_id])
    result = rd_traverse(scene)
    _write_traversal(args.out, scene, result, "network.svg" if args.svg else None)
    print(
        f"total={_g(result.total_cost)} ({_g(result.distance)} path + "
        f"{_g(result.spent)} disambiguation)"
    )
    return 0


# ---------- entry point ----------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstaclesim",
        description=(
            "Obstacle-field traversal laboratory: lattice scenes, spatial "
            "point-process placements, sensor marks, and replan-on-reveal "
            "navigation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, svg: bool = False) -> None:
        p.add_argument("--config", default=None, help="config file (key=value sections)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        if svg:
            p.add_argument("--svg", action="store_true", help="also write an SVG plot")

    p_sim = sub.add_parser("simulate", help="one scene, one traversal, CSV + SVG")
    common(p_sim, svg=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="replicated Monte Carlo grid, records CSV")
    common(p_sweep)
    p_sweep.add_argument("--reps", type=int, default=None, help="override [run] reps")
    p_sweep.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes; output bytes do not depend on this",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_ord = sub.add_parser("ordering", help="stochastic dominance checks, CSV report")
    common(p_ord)
    p_ord.add_argument(
        "--reps", type=int, default=None, help="override [ordering] reps"
    )
    p_ord.set_defaults(func=cmd_ordering)

    p_net = sub.add_parser("network", help="traverse a user-supplied street network")
    p_net.add_argument("nodes", help="nodes CSV: id,x,y")
    p_net.add_argument("edges", help="edges CSV: u,v[,length]")
    common(p_net, svg=True)
    p_net.set_defaults(func=cmd_network)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleSceneError as exc:
        print(f"infeasible scene: {exc}", file=sys.stderr)
        return 3
    except SweepCellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
