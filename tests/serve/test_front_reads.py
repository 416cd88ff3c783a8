"""Front-level reads against a BFS oracle.

``connected`` and ``component_count`` on the serving fronts read the
root engine's Euler lists through one view per epoch.  These tests drive
every front configuration through batches that grow the sparsification
tree and fold it back, and check each read against BFS over the applied
edges.  They also check that reads charge nothing and change nothing,
that deferred reads see the last applied epoch, and that reads after a
backend rebuild, a batch recovery or a restore come from the new engine.
"""

from __future__ import annotations

import random

import pytest

from repro.core import compiled
from repro.persist import restore
from repro.resilience import recover
from repro.resilience.checks import state_fingerprint
from repro.resilience.errors import CorruptionError
from repro.serve.batched import BatchedMSF
from repro.serve.clustered import ClusterMSF

N = 16


def _components(n, edges):
    """Component label per vertex, and the component count, by BFS."""
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


def _check_reads(front, edges):
    comp, count = _components(front.n, edges)
    assert front.component_count() == count
    for u in range(front.n):
        for v in range(front.n):
            assert front.connected(u, v) == (comp[u] == comp[v]), (u, v)


#: (sparsify, engine, backend); the parallel engine is scalar-only
BATCHED = [(s, e, b) for s in (True, False)
           for e in ("sequential", "parallel")
           for b in ("scalar", "compiled")
           if not (e == "parallel" and b == "compiled")]
FRONTS = [f"batched-{s}-{e}-{b}" for s, e, b in BATCHED] + ["cluster"]


def _make(name, **kw):
    if name == "cluster":
        return ClusterMSF(N, pool_size=2, processes=False, **kw)
    _b, sparsify, engine, backend = name.split("-")
    if backend == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")
    return BatchedMSF(N, sparsify=sparsify == "True", engine=engine,
                      backend=backend, max_edges=4 * N, **kw)


def _counters(front):
    if isinstance(front, ClusterMSF):
        return [eng.core.ops for _k, eng in front._coord.merge.engines()]
    return list(front._op_counters())


def _root_core(front):
    if isinstance(front, ClusterMSF):
        return front._coord.merge.root.engine.core
    impl = front._impl
    return (impl.root.engine if front.sparsified else impl).core


@pytest.mark.parametrize("name", FRONTS)
def test_reads_match_bfs_after_every_batch(name):
    """Grow past the sparsification tree's ``2n`` switch, then fold
    back, reading every pair after every batch."""
    rng = random.Random(f"front-reads/{name}")
    front = _make(name, batch_size=5)
    live: dict[int, tuple[int, int]] = {}
    try:
        _check_reads(front, [])
        for step in range(160):
            grow = step < 100
            target = 3 * N if grow else N // 2
            if live and (len(live) > target
                         or rng.random() < (0.1 if grow else 0.3)):
                eid = rng.choice(sorted(live))
                del live[eid]
                front.delete_edge(eid)
            else:
                u, v = rng.randrange(N), rng.randrange(N)
                live[front.insert_edge(u, v, rng.randrange(50))] = (u, v)
            if step % 5 == 4:
                front.flush()
                _check_reads(front, live.values())
        assert front.self_check("full") == []
    finally:
        front.close()


@pytest.mark.parametrize("name", ["batched-True-sequential-scalar",
                                  "batched-False-parallel-scalar",
                                  "cluster"])
def test_read_burst_charges_and_changes_nothing(name):
    rng = random.Random(7)
    front = _make(name, batch_size=8)
    try:
        for _ in range(24):
            front.insert_edge(rng.randrange(N // 2), rng.randrange(N // 2),
                              rng.random())
        front.flush()
        charged = [c.grand_total() for c in _counters(front)]
        fingerprint = state_fingerprint(front)
        # vertices N//2.. never hosted an edge, so a lazy core has not
        # built them; a read must not build them either
        built = list(_root_core(front).vertices)
        for _ in range(300):
            front.connected(rng.randrange(N), rng.randrange(N))
        front.component_count()
        assert [c.grand_total() for c in _counters(front)] == charged
        assert state_fingerprint(front) == fingerprint
        assert list(_root_core(front).vertices) == built
        with pytest.raises(IndexError):           # a gadget id, not a vertex
            front.connected(0, N)
    finally:
        front.close()


@pytest.mark.parametrize("name", ["batched-True-sequential-scalar",
                                  "cluster"])
def test_deferred_reads_answer_the_last_applied_epoch(name):
    front = _make(name, batch_size=100, consistency="deferred")
    try:
        e01 = front.insert_edge(0, 1, 1.0)
        front.insert_edge(2, 3, 1.0)
        assert not front.connected(0, 1)          # nothing applied yet
        assert front.component_count() == N
        front.flush()
        assert front.connected(0, 1) and front.component_count() == N - 2
        front.insert_edge(1, 2, 1.0)
        front.delete_edge(e01)
        assert front.pending_ops == 2
        assert front.connected(0, 1) and not front.connected(0, 3)
        assert front.component_count() == N - 2
        front.flush()
        assert not front.connected(0, 1) and front.connected(1, 3)
        assert front.component_count() == N - 2
    finally:
        front.close()


def _bridged_front():
    """Vertices 0-1-2 joined by the front's only edges; returns the
    front and the eid of the bridge 1-2."""
    front = BatchedMSF(N, sparsify=False, batch_size=8)
    front.insert_edge(0, 1, 1.0)
    bridge = front.insert_edge(1, 2, 2.0)
    front.flush()
    assert front.connected(0, 2)                  # builds this epoch's view
    return front, bridge


def test_read_after_rebuild_backend_uses_the_rebuilt_engine():
    front, bridge = _bridged_front()
    old = front._impl
    recover.rebuild_backend(front)
    old.delete_edge(bridge)                       # the old engine now differs
    assert front.connected(0, 2)
    assert front.component_count() == N - 2


def test_read_after_recover_batch_uses_the_rebuilt_engine():
    front, bridge = _bridged_front()
    old = front._impl
    # white-box: a poisoned op the submit path would have refused
    front._pending.append(("ins", 999, 0, 9999, 1.0))
    front._pending.append(("ins", 1000, 3, 4, 1.0))
    front._pending_ins.add(1000)
    with pytest.raises(CorruptionError):
        front.flush()
    assert front._impl is not old
    old.delete_edge(bridge)
    assert front.connected(0, 2) and front.connected(3, 4)
    assert front.component_count() == N - 3


@pytest.mark.parametrize("kind", ["batched", "cluster"])
def test_read_after_restore_uses_the_restored_engine(kind, tmp_path):
    rng = random.Random(3)
    if kind == "cluster":
        front = ClusterMSF(N, pool_size=2, processes=False, batch_size=4,
                           durability="wal", durable_dir=str(tmp_path),
                           snapshot_every=3)
    else:
        front = BatchedMSF(N, batch_size=4, durability="wal",
                           durable_dir=str(tmp_path), snapshot_every=3)
    live: list[int] = []
    try:
        for _ in range(30):
            if live and rng.random() < 0.3:
                front.delete_edge(live.pop(rng.randrange(len(live))))
            else:
                live.append(front.insert_edge(rng.randrange(N),
                                              rng.randrange(N), rng.random()))
        front.flush()
        edges = [(u, v) for u, v, _w in front._edges.values()]
        _check_reads(front, edges)
        fingerprint = state_fingerprint(front)
    finally:
        front.close()
    kw = {"processes": False} if kind == "cluster" else {}
    restored, _report = restore(str(tmp_path), **kw)
    try:
        assert state_fingerprint(restored) == fingerprint
        _check_reads(restored, edges)
    finally:
        restored.close()
