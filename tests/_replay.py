"""The replay oracle of a traversal: re-walk its action log from scratch."""
from _oracle import disk, edge_points, segment_disk_intersects


def replay_and_check(scene, result) -> None:
    """Re-walk ``result.actions`` with an independent knowledge ledger.

    Each move is checked with the scalar segment_disk_intersects against
    every obstacle, not with the scene's incidence index, on the edge's
    segment as the graph orients it (``edge_points``), whichever way the
    walk runs: a walk may cross only disks it has revealed false. Each
    reveal must name a disk not yet revealed, at the vertex the walk stands
    on, with its true status. The books must balance exactly: the distance
    re-summed from the moves, the cost re-summed from the reveals in order,
    and C as their sum.
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
            know[oid] = revealed
            paid.append(float(obs.c[oid]))
    assert tuple(walk) == result.walk
    assert walk[0] == scene.s and walk[-1] == scene.t
    assert result.n_dis == len(paid)
    assert result.distance == dist
    assert result.spent == sum(paid, 0.0)
    assert result.total_cost == result.distance + result.spent
    assert type(result.spent) is float
