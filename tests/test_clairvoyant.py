"""The clairvoyant lower bound, and the default window's disk-free strips.

A walk never crosses a disk that is not known to be false, so it avoids
every true disk, and its length is at least C*: the shortest s-t path over
the base lengths with +inf on every edge that the scene's incidence pairs
with a true disk. The two sums add the same lengths in different orders, so
they are compared with a relative slack of a few ulps.
"""
import itertools
import math

import numpy as np
import pytest

from obstaclesim.geometry import GeometricGraph, lattice_vertex
from obstaclesim.montecarlo import (
    ExperimentConfig,
    FalseOnly,
    MaternPlacement,
    Mixed,
    StraussPlacement,
    TrueOnly,
    UniformPlacement,
)
from obstaclesim.pointproc import RngStream
from obstaclesim.sensor import Obstacles, SensorModel, assign_marks
from obstaclesim.traversal import InfeasibleSceneError, Scene, rd_traverse, shortest_path
from test_golden import EDGES, NODES

SLACK = 1.0 - 4 * 2.0**-53


def clairvoyant(scene: Scene) -> float:
    """C*: the shortest s-t distance avoiding every true disk's edges."""
    obs = scene.obstacles
    blocked = scene.inc_edge[np.repeat(obs.true, np.diff(scene.disk_ptr))]
    weights = scene.graph.edge_length.copy()
    weights[blocked] = math.inf
    dist, _ = shortest_path(scene.graph, weights, scene.s, scene.t)
    return dist[scene.t]


def check_bound(scene: Scene) -> float:
    """Walk the scene; its distance is at least C*, and it ends at the
    target exactly when C* is finite. Returns walk / C* (nan if infeasible)."""
    c_star = clairvoyant(scene)
    if c_star == math.inf:
        with pytest.raises(InfeasibleSceneError):
            rd_traverse(scene)
        return math.nan
    walk = rd_traverse(scene).distance
    assert walk >= c_star * SLACK, (walk, c_star)
    return walk / c_star


PLACEMENTS = {
    "uniform": UniformPlacement(),
    "strauss": StraussPlacement(gamma=0.0, d=5.5, burn_in=100),
    "matern": MaternPlacement(kappa=8, r0=2.5),
}
COMPOSITIONS = {
    "false80": FalseOnly(80),
    "mixed36-84": Mixed(36, 84),
    "mixed84-36": Mixed(84, 36),
    "true120": TrueOnly(120),
}


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_lattice_walks_are_at_least_the_clairvoyant_cost(placement):
    ratios = []
    for composition in COMPOSITIONS.values():
        cell = ExperimentConfig(PLACEMENTS[placement], composition, cost=0.5, reps=3)
        ratios += [check_bound(cell.scene(rep)) for rep in range(cell.reps)]
    # the default window leaves disk-free strips, so every scene is feasible
    assert not any(math.isnan(q) for q in ratios)
    assert min(ratios) >= SLACK


def _street_grid() -> GeometricGraph:
    """The golden network cases' 4x4 street grid; node ids are vertex ids."""
    xy = [[float(v) for v in row.split(",")[1:]] for row in NODES.splitlines()[1:]]
    uv = [[int(v) for v in row.split(",")] for row in EDGES.splitlines()[1:]]
    x, y = zip(*xy)
    u, v = zip(*uv)
    length = [math.hypot(x[a] - x[b], y[a] - y[b]) for a, b in uv]
    return GeometricGraph(x, y, u, v, length)


# the golden network cases' obstacle table: x, y, r, c
STREET_DISKS = ((15, 5, 3, 2), (25, 15, 4, 3), (5, 25, 2, 1), (30, 0, 3, 1), (0, 30, 3, 1),
                (15, 15, 8, 2.5))


def test_street_grid_walks_are_at_least_the_clairvoyant_cost():
    # every truth assignment of the golden obstacle table, with seeded marks
    g = _street_grid()
    x, y, r, c = (list(col) for col in zip(*STREET_DISKS))
    feasible = 0
    for k, true in enumerate(itertools.product((False, True), repeat=len(STREET_DISKS))):
        marks = assign_marks(list(true), SensorModel(2.0, 6.0), RngStream(7, k))
        scene = Scene(graph=g, obstacles=Obstacles(x, y, r, c, marks, list(true)), s=0, t=15)
        feasible += not math.isnan(check_bound(scene))
    assert 0 < feasible < 2 ** len(STREET_DISKS)


@pytest.mark.parametrize("true", [False, True])
def test_detour_network_walk_is_at_least_the_clairvoyant_cost(true):
    # criterion 12's network: a direct edge with one disk on it, and a detour
    x, y = [0, 10, 0, 5, 10], [0, 0, 4, 4, 4]
    uv = [(0, 1), (0, 2), (2, 3), (3, 4), (4, 1)]
    length = [math.hypot(x[a] - x[b], y[a] - y[b]) for a, b in uv]
    g = GeometricGraph(x, y, *zip(*uv), length)
    scene = Scene(graph=g, obstacles=Obstacles([5], [0], [1], [2], [0.3], [true]), s=0, t=1)
    assert check_bound(scene) >= SLACK
    assert clairvoyant(scene) == (18.0 if true else 10.0)


# the shortest s-t route of the default lattice over edges between strip
# vertices: those with x <= 5, x >= 95, y <= 5 or y >= 95
STRIP_ROUTE = 182.5563491861041


def test_default_window_strips_keep_the_target_reachable():
    # centres lie in 10..90 and r = 4.5 < 5, so no disk reaches a strip
    # vertex, nor an edge between two of them; the strips join s to t
    cell = ExperimentConfig(UniformPlacement(), TrueOnly(1500), radius=4.5, reps=1,
                            master_seed=3)
    scene = cell.scene(0)
    g = scene.graph
    strip = (g.x <= 5) | (g.x >= 95) | (g.y <= 5) | (g.y >= 95)
    both = strip[g.edge_u] & strip[g.edge_v]
    assert both.sum() > 0 and not both[scene.inc_edge].any()
    # the shortest route over strip edges alone bounds C*
    route = np.where(both, g.edge_length, math.inf)
    assert shortest_path(g, route, scene.s, scene.t)[0][scene.t] == STRIP_ROUTE
    assert clairvoyant(scene) <= STRIP_ROUTE
    width = cell.grid[0]
    assert (scene.s, scene.t) == (lattice_vertex(width, 50, 100), lattice_vertex(width, 50, 1))
