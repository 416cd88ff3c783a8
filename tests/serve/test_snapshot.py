"""ConnectivitySnapshot over a degree reducer vs a BFS oracle."""

import random

from repro.core.degree import DegreeReducer
from repro.serve.snapshot import ConnectivitySnapshot


def _components(n, edges):
    adj = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    c = 0
    for s in range(n):
        if comp[s] != -1:
            continue
        stack = [s]
        comp[s] = c
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if comp[y] == -1:
                    comp[y] = c
                    stack.append(y)
        c += 1
    return comp, c


def test_snapshot_matches_bfs_oracle():
    rng = random.Random(11)
    n = 64
    for trial in range(8):
        eng = DegreeReducer(n, max_edges=4 * n)
        live = {}
        # random inserts (cycles included) and a few deletes, so the view
        # reads a forest that has both grown and been cut
        for _ in range(2 * n):
            u, v = rng.sample(range(n), 2)
            eid = eng.insert_edge(u, v, rng.random())
            live[eid] = (u, v)
        for eid in rng.sample(sorted(live), n // 2):
            eng.delete_edge(eid)
            del live[eid]
        snap = ConnectivitySnapshot(n, eng, epoch=trial)
        comp, count = _components(n, list(live.values()))
        assert snap.epoch == trial
        assert snap.component_count() == count
        for _ in range(200):
            u, v = rng.sample(range(n), 2)
            assert snap.connected(u, v) == (comp[u] == comp[v])
        assert all(snap.connected(x, x) for x in range(0, n, 7))


def test_empty_snapshot():
    snap = ConnectivitySnapshot(5, DegreeReducer(5), epoch=0)
    assert snap.component_count() == 5
    assert not snap.connected(0, 4)
    assert snap.connected(2, 2)
