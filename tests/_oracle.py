"""Scalar geometry oracles, incidence helpers and the stream oracle for
the tests.

The package asks whether a disk meets a segment, and where a walk enters
it, with array methods (``Segments.disk_hits`` and ``Segments.entry``).
Here are the same rules for one (segment, disk) pair in plain Python
floats, written out branch by branch: the reference those methods must
match bit for bit. ``seed_sequence_generator`` builds a stream as numpy's
SeedSequence keys it, which ``pointproc.RngStream`` must match.
"""
import math
from typing import NamedTuple

import numpy as np

MASK64 = (1 << 64) - 1


class Point2(NamedTuple):
    x: float
    y: float


class Disk(NamedTuple):
    center: Point2
    radius: float


def point(graph, v) -> Point2:
    """Vertex ``v`` of ``graph``."""
    return Point2(float(graph.x[v]), float(graph.y[v]))


def disk(obstacles, k) -> Disk:
    """The closed disk of obstacle ``k``."""
    return Disk(Point2(float(obstacles.x[k]), float(obstacles.y[k])), float(obstacles.r[k]))


def edge_points(graph, edge_id):
    """The end points ``(a, b)`` of an edge, oriented as the graph's
    ``segments()`` orients it: from the smaller (y, x), ids breaking ties."""
    u, v = int(graph.edge_u[edge_id]), int(graph.edge_v[edge_id])
    a, b = point(graph, u), point(graph, v)
    if (b.y, b.x) < (a.y, a.x):
        a, b = b, a
    return a, b


def segment_disk_intersects(a: Point2, b: Point2, d: Disk) -> bool:
    """True iff the closed disk meets the closed segment [a, b].

    Minimum squared distance from the segment to the center is compared to
    the squared radius. The interior case is cross-multiplied by |b-a|^2 so
    no division occurs.
    """
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


def entry_parameter(a: Point2, b: Point2, d: Disk) -> float:
    """Smallest t in [0,1] with a + t*(b-a) inside the closed disk, for a
    disk that meets the segment (for one that does not, the clamped foot of
    the perpendicular); 0 when a is inside or the segment has zero length."""
    acx = d.center.x - a.x
    acy = d.center.y - a.y
    r2 = d.radius * d.radius
    c0 = acx * acx + acy * acy - r2
    if c0 <= 0.0:  # a already inside
        return 0.0
    abx = b.x - a.x
    aby = b.y - a.y
    ab2 = abx * abx + aby * aby
    if ab2 == 0.0:
        return 0.0
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


def per_edge(graph, incidence):
    """Disk-grouped incidence (disk_ptr, edge_ids) of ``graph`` as one list
    of disk ids per edge, ascending (a repeated pair shows up twice)."""
    ptr, ids = incidence
    lists = [[] for _ in range(graph.n_edges)]
    for d in range(len(ptr) - 1):
        for edge in ids[ptr[d]:ptr[d + 1]].tolist():
            lists[edge].append(d)
    return lists


def seed_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """The SeedSequence that keys stream ``index`` of master seed ``seed``."""
    return np.random.SeedSequence(entropy=seed & MASK64, spawn_key=(index,))


def seed_sequence_generator(seed: int, index: int) -> np.random.Generator:
    """Stream ``index`` of master seed ``seed``, built through SeedSequence."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, index)))
