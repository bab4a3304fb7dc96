"""The replay oracle of a traversal: re-walk its action log from scratch."""
import numpy as np

from _oracle import disk, edge_points, entry_parameter, point, segment_disk_intersects


def replay_and_check(scene, result) -> None:
    """Re-walk ``result.actions`` with an independent knowledge ledger.

    Each move is checked with the scalar segment_disk_intersects against
    every obstacle, not with the scene's incidence index, on the edge's
    segment as the graph orients it (``edge_points``), whichever way the
    walk runs: a walk may cross only disks it has revealed false. Each
    reveal must name a disk not yet revealed, at the vertex the walk stands
    on, with its true status, and obey the stop rule (``check_stop``). The
    books must balance exactly: the distance re-summed from the moves, the
    cost re-summed from the reveals in order, and C as their sum.
    """
    g = scene.graph
    obs = scene.obstacles
    know = ["?"] * len(obs)
    walk = [scene.s]
    dist = 0.0
    paid = []
    for act in result.actions:
        if act[0] == "move":
            _, u, v, eid = act
            assert walk[-1] == u
            assert g.edge_ids([u], [v]) == eid
            a, b = edge_points(g, eid)
            for k in range(len(obs)):
                if segment_disk_intersects(a, b, disk(obs, k)):
                    assert know[k] == "F", "crossed a disk not known to be false"
            walk.append(v)
            dist += float(g.edge_length[eid])
        else:
            _, vertex, oid, revealed = act
            assert walk[-1] == vertex
            assert know[oid] == "?", "disambiguated an already-revealed disk"
            assert revealed == ("T" if obs.true[oid] else "F")
            check_stop(scene, know, vertex, oid)
            know[oid] = revealed
            paid.append(float(obs.c[oid]))
    assert tuple(walk) == result.walk
    assert walk[0] == scene.s and walk[-1] == scene.t
    assert result.n_dis == len(paid)
    assert result.distance == dist
    assert result.spent == sum(paid, 0.0)
    assert result.total_cost == result.distance + result.spent
    assert type(result.spent) is float


def check_stop(scene, know, a, k) -> None:
    """Disk ``k``, revealed at vertex ``a`` under the ledger ``know``, is the
    stop rule's pick on some edge e = (a, b): it meets e and, among the
    still-ambiguous disks meeting e, has the least (entry parameter from a
    towards b, id). Each test is the scalar oracle's, on e as the graph
    orients it."""
    g = scene.graph
    obs = scene.obstacles
    for e in np.flatnonzero((g.edge_u == a) | (g.edge_v == a)).tolist():
        b = int(g.edge_v[e] if g.edge_u[e] == a else g.edge_u[e])
        ends = edge_points(g, e)
        if not segment_disk_intersects(*ends, disk(obs, k)):
            continue
        pa, pb = point(g, a), point(g, b)
        first = min(
            (entry_parameter(pa, pb, disk(obs, j)), j)
            for j in range(len(obs))
            if know[j] == "?" and segment_disk_intersects(*ends, disk(obs, j))
        )
        if first[1] == k:
            return
    raise AssertionError(f"disk {k} is not the first ambiguous disk on an edge at {a}")
