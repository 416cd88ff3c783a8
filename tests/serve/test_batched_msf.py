"""BatchedMSF differential gates.

The serving front must be *observationally identical* to the plain
facade: same forest, same weight, same answers -- for every batch size,
every (inert) pool size, and both backing engines.  Deferred mode is gated
against an explicit lagged oracle (updates apply in blocks, reads see
the last applied block).
"""

import math

import pytest

from repro import BatchedMSF, ClusterMSF, DynamicMSF
from repro.core.sparsify import SparsifiedMSF
from repro.workloads import churn, drive, query_mix


def _forest(engine):
    return {(u, v, w) for u, v, w, _eid in engine.msf_edges()}


def _weights_close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# differential vs naive one-at-a-time application
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_strong_mode_matches_facade_read_for_read(batch_size):
    n, ops = 48, list(query_mix(48, 300, read_ratio=0.5, seed=2))
    naive = drive(DynamicMSF(n, sparsify=True), ops)
    served = drive(BatchedMSF(n, batch_size=batch_size, pool_size=1), ops)
    assert len(served.results) == len(naive.results)
    for got, want in zip(served.results, naive.results):
        if isinstance(want, bool):
            assert got == want
        else:
            assert _weights_close(got, want)
    served.target.flush()
    assert _forest(served.target) == _forest(naive.target)
    assert _weights_close(served.target.msf_weight(), naive.target.msf_weight())
    assert served.target.edge_count() == naive.target.edge_count()
    assert served.target.erew_violations() == 0


@pytest.mark.parametrize("pool", [1, 2, 4])
def test_pool_sizes_bit_identical(pool):
    """Any pool size must equal the serial facade: forest, weight, and the
    per-node elementary-op fingerprints of the sparsification tree."""
    n, ops = 40, list(churn(40, 220, seed=9))
    base = DynamicMSF(n, sparsify=True)
    drive(base, ops)
    served = BatchedMSF(n, batch_size=16, pool_size=pool)
    drive(served, ops)
    served.flush()
    assert _forest(served) == _forest(base)
    assert served.msf_ids() == base.msf_ids()
    assert _weights_close(served.msf_weight(), base.msf_weight())
    # the determinism gate: every engine in the tree did the *same work*
    assert served._impl.ops_by_node() is not None
    ref = BatchedMSF(n, batch_size=16, pool_size=1)
    drive(ref, ops)
    ref.flush()
    assert served._impl.ops_by_node() == ref._impl.ops_by_node()


def test_parallel_engine_pool_sizes_bit_identical():
    """PRAM depth/work per tree node is pool-size independent too."""
    n, ops = 24, list(churn(24, 40, seed=4))
    fronts = []
    for pool in (1, 3):
        f = BatchedMSF(n, engine="parallel", batch_size=8, pool_size=pool)
        drive(f, ops)
        f.flush()
        fronts.append(f)
    a, b = fronts
    assert _forest(a) == _forest(b)
    assert _weights_close(a.msf_weight(), b.msf_weight())
    assert a._impl.depth_work_by_node() == b._impl.depth_work_by_node()
    assert a._impl.ops_by_node() == b._impl.ops_by_node()
    assert a.erew_violations() == 0 and b.erew_violations() == 0
    assert a.parallel_cost_of_last_update() == b.parallel_cost_of_last_update()


def test_pool_size_starts_no_threads(monkeypatch):
    """``pool_size`` is inert: a front built with a large one flushes
    without starting a thread and ends where ``pool_size=1`` ends."""
    import threading

    n, ops = 40, list(churn(40, 220, p_delete=0.45, seed=9))
    ref = BatchedMSF(n, batch_size=16, pool_size=1)
    drive(ref, ops)
    ref.flush()

    def no_threads(self):
        raise AssertionError("a flush started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    served = BatchedMSF(n, batch_size=16, pool_size=4)
    drive(served, ops)
    served.flush()
    assert served.stats["batches"] > 1
    assert served._impl.ops_by_node() == ref._impl.ops_by_node()
    assert served.msf_ids() == ref.msf_ids()


@pytest.mark.parametrize("bad", [0, -1, True, 2.0, "2"])
def test_pool_size_must_be_none_or_positive_int(bad):
    with pytest.raises(ValueError, match="pool_size"):
        BatchedMSF(8, pool_size=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("front_kind", ["batched", "cluster"])
def test_non_finite_weight_rejected_at_submit(front_kind, bad):
    """A non-finite weight raises at submit, before an eid is drawn --
    it never reaches a batch, so no recovery runs."""
    if front_kind == "batched":
        front = BatchedMSF(8, batch_size=4)
    else:
        front = ClusterMSF(8, pool_size=2, processes=False, batch_size=4)
    try:
        front.insert_edge(0, 1, 1.0)
        front.flush()
        submitted = front.stats["ops_submitted"]
        next_eid = front._next_eid
        for u, v in ((0, 1), (2, 3), (4, 4)):  # parallel, fresh, self-loop
            with pytest.raises(ValueError, match="finite"):
                front.insert_edge(u, v, bad)
        front.flush()
        assert front.stats["ops_submitted"] == submitted
        assert front.stats["recoveries"] == 0
        assert front.insert_edge(2, 3, 2.0) == next_eid
        assert front.msf_weight() == 3.0
    finally:
        if front_kind == "cluster":
            front.close()


def _small_front(kind):
    if kind == "tree":
        return SparsifiedMSF(8)
    if kind == "batched":
        return BatchedMSF(8, batch_size=4)
    if kind == "cluster":
        return ClusterMSF(8, pool_size=2, processes=False, batch_size=4)
    return DynamicMSF(8, sparsify=(kind == "sparsified"))


@pytest.mark.parametrize("bad", ["1.5", None, 1 + 0j, True])
@pytest.mark.parametrize("kind", ["flat", "sparsified", "tree", "batched",
                                  "cluster"])
def test_non_real_weight_rejected_at_every_front(kind, bad):
    """Every insert path runs one weight check before converting the
    weight: a string, ``None``, a complex number or a bool raises
    ``ValueError`` and changes nothing, not even the next edge id."""
    front, twin = _small_front(kind), _small_front(kind)
    try:
        for f in (front, twin):
            f.insert_edge(0, 1, 1.0)
        for u, v in ((0, 1), (2, 3), (4, 4)):  # parallel, fresh, self-loop
            with pytest.raises(ValueError, match="real number"):
                front.insert_edge(u, v, bad)
        assert front.insert_edge(2, 3, 2.0) == twin.insert_edge(2, 3, 2.0)
        assert front.msf_weight() == twin.msf_weight() == 3.0
        assert front.edge_count() == twin.edge_count() == 2
    finally:
        for f in (front, twin):
            if kind == "cluster":
                f.close()


@pytest.mark.parametrize("front_kind", ["batched", "cluster"])
def test_bad_endpoint_rejected_at_submit(front_kind):
    """A bad vertex (out of range, bool, float, string) raises
    ``ValueError`` at submit, before an eid is drawn -- it never reaches
    a batch, where it would surface as a ``CorruptionError`` after a
    recovery run."""
    if front_kind == "batched":
        front = BatchedMSF(8, batch_size=4)
    else:
        front = ClusterMSF(8, pool_size=2, processes=False, batch_size=4)
    try:
        front.insert_edge(0, 1, 1.0)
        front.flush()
        submitted = front.stats["ops_submitted"]
        next_eid = front._next_eid
        for u, v in ((0, 8), (-1, 2), (True, 2), (0.0, 2), (0.5, 2),
                     (1, "2")):
            with pytest.raises(ValueError, match="endpoints"):
                front.insert_edge(u, v, 2.0)
        front.flush()
        assert front.stats["ops_submitted"] == submitted
        assert front.stats["recoveries"] == 0
        assert front.insert_edge(2, 3, 2.0) == next_eid
        assert front.msf_weight() == 3.0
    finally:
        if front_kind == "cluster":
            front.close()


def test_degree_reducer_backend_matches_facade():
    """sparsify=False routes through the DegreeReducer; same contract."""
    n, ops = 32, list(churn(32, 150, seed=5))
    base = DynamicMSF(n, max_edges=4 * n)
    drive(base, ops)
    served = BatchedMSF(n, sparsify=False, max_edges=4 * n, batch_size=16)
    drive(served, ops)
    served.flush()
    assert _forest(served) == _forest(base)
    assert _weights_close(served.msf_weight(), base.msf_weight())
    assert served.erew_violations() == 0
    assert served.parallel_cost_of_last_update()["measured"] is False


# ---------------------------------------------------------------------------
# deferred consistency vs the lagged oracle
# ---------------------------------------------------------------------------

def _lagged_oracle(n, ops, batch_size):
    eng = DynamicMSF(n, sparsify=True)
    eids, results, buffered = {}, [], []
    for i, op in enumerate(ops):
        if op[0] in ("ins", "del"):
            buffered.append((i, op))
            if len(buffered) >= batch_size:
                for j, b in buffered:
                    if b[0] == "ins":
                        eids[j] = eng.insert_edge(b[1], b[2], b[3])
                    else:
                        eng.delete_edge(eids.pop(b[1]))
                buffered.clear()
        elif op[0] == "conn":
            results.append(eng.connected(op[1], op[2]))
        else:
            results.append(eng.msf_weight())
    return results


@pytest.mark.parametrize("pool", [1, 2])
def test_deferred_mode_matches_lagged_oracle(pool):
    n, bs = 40, 16
    ops = list(query_mix(n, 400, read_ratio=0.7, seed=13))
    served = BatchedMSF(n, batch_size=bs, pool_size=pool,
                        consistency="deferred")
    stream = drive(served, ops)
    want = _lagged_oracle(n, ops, bs)
    assert len(stream.results) == len(want)
    for got, exp in zip(stream.results, want):
        if isinstance(exp, bool):
            assert got == exp
        else:
            assert _weights_close(got, exp)
    # flush() is the explicit read-your-writes barrier
    served.flush()
    naive = DynamicMSF(n, sparsify=True)
    drive(naive, ops)
    assert _forest(served) == _forest(naive)


def test_deferred_reads_do_not_flush():
    front = BatchedMSF(8, batch_size=64, consistency="deferred")
    front.insert_edge(0, 1, 1.0)
    assert front.pending_ops == 1
    assert front.connected(0, 1) is False     # stale: batch not applied yet
    assert front.pending_ops == 1             # read did NOT force a flush
    front.flush()
    assert front.connected(0, 1) is True


# ---------------------------------------------------------------------------
# batching mechanics: epochs, snapshots, cancellation, errors
# ---------------------------------------------------------------------------

def test_epoch_and_snapshot_invalidation():
    front = BatchedMSF(6, batch_size=100)
    assert front.epoch == 0
    e1 = front.insert_edge(0, 1, 1.0)
    front.insert_edge(1, 2, 2.0)
    assert front.pending_ops == 2
    assert front.connected(0, 2) is True      # strong read flushes
    assert front.epoch == 1 and front.pending_ops == 0
    builds = front.stats["snapshot_builds"]
    view = front._snapshot
    front.connected(0, 1)                     # same epoch: same read view
    assert front._snapshot is view
    assert front.stats["snapshot_builds"] == builds
    front.delete_edge(e1)
    front.flush()                             # the epoch check retires it
    assert front.epoch == 2
    assert front.connected(0, 1) is False     # new epoch: a fresh view
    assert front._snapshot is not view and front._snapshot.epoch == 2
    assert front.stats["snapshot_builds"] == builds + 1


def test_in_batch_cancellation_never_reaches_engine():
    front = BatchedMSF(6, batch_size=100)
    eid = front.insert_edge(0, 1, 1.0)
    front.delete_edge(eid)                    # cancels in the buffer
    batch = front.flush()
    assert batch is not None and len(batch) == 0
    assert batch.cancelled == 1
    assert front.stats["ops_cancelled"] == 2
    assert front.edge_count() == 0
    assert front.epoch == 0                   # empty batch: no epoch bump


def test_auto_flush_at_batch_size():
    front = BatchedMSF(10, batch_size=3)
    front.insert_edge(0, 1, 1.0)
    front.insert_edge(1, 2, 1.0)
    assert front.epoch == 0
    front.insert_edge(2, 3, 1.0)              # hits the threshold
    assert front.epoch == 1 and front.pending_ops == 0


def test_delete_unknown_edge_raises_at_submit():
    front = BatchedMSF(4)
    with pytest.raises(KeyError):
        front.delete_edge(999)
    eid = front.insert_edge(0, 1, 1.0)
    front.flush()
    front.delete_edge(eid)
    front.flush()
    with pytest.raises(KeyError):             # already deleted and applied
        front.delete_edge(eid)


def test_duplicate_pending_delete_dedupes():
    front = BatchedMSF(4, batch_size=100)
    eid = front.insert_edge(0, 1, 1.0)
    front.flush()
    front.delete_edge(eid)
    front.delete_edge(eid)                    # duplicate while buffered
    batch = front.flush()
    assert batch.deletes == (eid,) and batch.deduped == 1
    assert front.edge_count() == 0


def test_stats_account_for_every_submitted_op():
    n, ops = 32, list(churn(32, 200, seed=21))
    front = BatchedMSF(n, batch_size=32)
    drive(front, ops)
    front.flush()
    s = front.stats
    assert s["ops_submitted"] == len(ops)
    assert (s["ops_applied"] + s["ops_cancelled"] + s["ops_deduped"]
            == s["ops_submitted"])


def test_fronts_on_threads_match_kruskal():
    """Fronts churning concurrently on their callers' own threads (more
    threads than cores, short switch interval) share no engine state:
    each ends on the Kruskal forest of its own live edges, exactly where
    a serial replay of its own stream ends."""
    import sys
    import threading

    from repro.reference.oracle import kruskal

    # dense enough to grow each tree past its flat root engine
    n = 12
    streams = [list(churn(n, 240, p_delete=0.3, max_live=3 * n, seed=s))
               for s in (12, 13, 14)]
    fronts = [BatchedMSF(n, batch_size=4, pool_size=2) for _ in streams]
    handles = [None] * len(fronts)
    errors = []

    def run(i):
        try:
            handles[i] = drive(fronts[i], streams[i])
            fronts[i].flush()
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(fronts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for front, ops, handle in zip(fronts, streams, handles):
        live = [(*ops[i][1:], eid) for i, eid in handle.eids.items()]
        assert front.msf_ids() == kruskal(live)
        replay = BatchedMSF(n, batch_size=4, pool_size=1)
        drive(replay, ops)
        replay.flush()
        assert front.msf_weight() == replay.msf_weight()
        assert front._impl.ops_by_node() == replay._impl.ops_by_node()
        assert front._impl.retired == replay._impl.retired
        assert not front._impl.flat and front._impl.retired["ops"] > 0
        assert front.self_check("structural") == []
