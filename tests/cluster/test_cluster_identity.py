"""Determinism contract: ClusterMSF == serial BatchedMSF at every pool size.

Bit-identical final forests, eid streams, read results and (per the
fold argument in ``cluster/coordinator.py``) ``msf_weight``, across
churn, query-mix and worker-mix workloads.  Inline workers
(``processes=False``) carry the sweep; one process-pool case guards the
real IPC path.
"""

import random

import pytest

from repro.resilience.checks import state_fingerprint
from repro.serve import BatchedMSF, ClusterMSF
from repro.workloads import OpStream, churn, drive, query_mix, worker_mix

N = 64
BATCH = 32


def serial_ref(ops):
    ref = BatchedMSF(N, pool_size=1, batch_size=BATCH)
    stream = drive(ref, ops)
    ref.flush()
    return ref, stream


def cluster_run(ops, pool, **kw):
    kw.setdefault("processes", False)
    c = ClusterMSF(N, pool_size=pool, batch_size=BATCH, **kw)
    stream = drive(c, ops)
    c.flush()
    return c, stream


WORKLOADS = {
    "churn": lambda: churn(N, 500, seed=11, p_delete=0.4),
    "query_mix": lambda: query_mix(N, 500, seed=12, read_ratio=0.5),
    "worker_mix": lambda: worker_mix(N, 500, seed=13, shards=4,
                                     cross_fraction=0.1),
}


@pytest.mark.parametrize("pool", [1, 2, 4])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bit_identical_to_serial_path(workload, pool):
    ops = list(WORKLOADS[workload]())
    ref, sref = serial_ref(ops)
    c, sc = cluster_run(ops, pool)
    try:
        assert sc.eids == sref.eids            # identical eid streams
        assert sc.results == sref.results      # identical read answers
        assert c.msf_ids() == ref.msf_ids()
        assert c.msf_weight() == ref.msf_weight()   # bitwise, not approx
        assert c.edge_count() == ref.edge_count()
        assert state_fingerprint(c) == state_fingerprint(ref)
        assert c.self_check("full") == []
    finally:
        c.close()


def test_process_pool_matches_serial_path():
    ops = list(worker_mix(N, 400, seed=21, shards=2, cross_fraction=0.1))
    ref, sref = serial_ref(ops)
    c, sc = cluster_run(ops, 2, processes=True)
    try:
        assert sc.results == sref.results
        assert c.msf_ids() == ref.msf_ids()
        assert c.msf_weight() == ref.msf_weight()
        assert state_fingerprint(c) == state_fingerprint(ref)
        assert c.self_check("full") == []
    finally:
        c.close()


def test_deferred_consistency_reads_last_epoch():
    c = ClusterMSF(N, pool_size=2, processes=False, batch_size=8,
                   consistency="deferred")
    try:
        eids = [c.insert_edge(i, i + 1, float(i)) for i in range(6)]
        assert c.pending_ops == 6          # no flush forced by the reads
        assert c.connected(0, 5) is False  # pre-batch epoch
        c.flush()
        assert c.connected(0, 5) is True
        c.delete_edge(eids[2])
        assert c.connected(0, 5) is True   # stale until the next flush
        c.flush()
        assert c.connected(0, 5) is False
    finally:
        c.close()


def test_cancellation_never_reaches_workers():
    c = ClusterMSF(N, pool_size=2, processes=False, batch_size=64)
    try:
        eid = c.insert_edge(1, 2, 5.0)
        c.delete_edge(eid)                 # annihilates in the buffer
        c.flush()
        assert c._coord.stats["ops_routed"] == 0
        assert c.stats["ops_cancelled"] == 2
    finally:
        c.close()


def test_self_loops_are_registry_only():
    c = ClusterMSF(N, pool_size=2, processes=False)
    try:
        eid = c.insert_edge(3, 3, 7.0)
        c.flush()
        assert c.edge_count() == 1
        assert c.msf_ids() == set()
        assert c.msf_weight() == 0.0
        assert c._coord.stats["ops_loops"] == 1
        assert c._coord.stats["ops_shard"] == 0
        c.delete_edge(eid)
        c.flush()
        assert c.edge_count() == 0
    finally:
        c.close()


def test_facade_validation_matches_batched():
    with pytest.raises(ValueError):
        ClusterMSF(N, consistency="bogus")
    with pytest.raises(ValueError):
        ClusterMSF(N, batch_size=0)
    c = ClusterMSF(N, pool_size=2, processes=False)
    try:
        with pytest.raises(ValueError):
            c.insert_edge(-1, 3, 1.0)
        with pytest.raises(KeyError):
            c.delete_edge(999)
    finally:
        c.close()


def test_cross_shard_edges_live_in_merge_tree():
    c = ClusterMSF(N, pool_size=2, processes=False)
    try:
        c.insert_edge(0, 1, 1.0)             # shard 0
        c.insert_edge(40, 41, 1.0)           # shard 1
        cross = c.insert_edge(0, 40, 1.0)    # cross-shard
        c.flush()
        assert c._coord.stats["ops_boundary"] == 1
        # one merge tree holds both shard forests and the raw cross edge
        assert c._coord.merge.edges[cross] == (0, 40, 1.0)
        assert c._coord.merge.edge_count() == 3
        assert c.component_count() == N - 3  # 0-1-40-41 one component
        assert len(c.msf_ids()) == 3
    finally:
        c.close()


@pytest.mark.parametrize("pool", [2, 3])
def test_dense_cross_traffic_grows_and_folds_the_merge_tree(pool):
    """More than 2n live cross-shard edges grow the merge tree; draining
    below n folds it back.  Every flush matches the serial path."""
    n = 48
    # ~150 cross-shard inserts and no deletes, then random deletes down
    # to n // 4 live edges
    ops = list(worker_mix(n, 220, shards=pool, cross_fraction=0.75,
                          read_ratio=0.1, p_delete=0.0, max_live=10 * n,
                          seed=pool))
    live = [i for i, op in enumerate(ops) if op[0] == "ins"]
    random.Random(pool).shuffle(live)
    ops += [("del", ref) for ref in live[n // 4:]]
    ref = BatchedMSF(n, pool_size=1, batch_size=BATCH)
    c = ClusterMSF(n, pool_size=pool, batch_size=BATCH, processes=False)
    sref, sc = OpStream(ref), OpStream(c)
    grew = False
    try:
        for start in range(0, len(ops), 16):
            for op in ops[start:start + 16]:
                sref.apply(op)
                sc.apply(op)
            ref.flush()
            c.flush()
            assert sc.eids == sref.eids
            assert c.msf_ids() == ref.msf_ids()
            assert c.msf_weight() == ref.msf_weight()   # bitwise
            assert state_fingerprint(c) == state_fingerprint(ref)
            grew |= not c._coord.merge.flat
        assert sc.results == sref.results
        assert grew
        assert c._coord.merge.flat and c._coord.merge.migration is None
        assert c.self_check("full") == []
    finally:
        c.close()
