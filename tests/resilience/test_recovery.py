"""Unit tests for the quarantine-and-rebuild recovery ladder."""

from __future__ import annotations

import pytest

from repro.core.msf import DynamicMSF
from repro.core.sparsify import default_pool
from repro.resilience import checks, recover
from repro.resilience.errors import (CorruptionError, QuarantineExhausted,
                                     UnknownEdgeError)
from repro.serve.batched import BatchedMSF


def _fill(front, n=10):
    eids = []
    for i in range(n):
        eids.append(front.insert_edge(i % front.n, (i * 3 + 1) % front.n,
                                      float(i + 1)))
    front.flush()
    return eids


# ------------------------------------------------------------- machines

def test_recover_machine_purges_and_degrades():
    t = DynamicMSF(16, engine="parallel", sparsify=False)
    m = t._impl.core.machine
    m.set_audit("fast")
    for i in range(1, 12):
        t.insert_edge(i % 16, (i * 5 + 1) % 16, float(i))
    recorded = m.cache_info()["shaped"]["size"]
    assert recorded > 0
    report = recover.recover_machine(m)
    assert report["dropped"] == recorded
    assert report["audit"] == {"before": "fast", "after": "count"}
    # every plan gone: each shape re-records from a checked run
    assert m.cache_info()["shaped"]["size"] == 0
    # degrade ladder saturates at strict
    m.set_audit("strict")
    report = recover.recover_machine(m)
    assert report["audit"] == {"before": "strict", "after": "strict"}
    t.release()


# ---------------------------------------------------------------- arena

def test_recover_pool_quarantines_dirty_engines():
    t = DynamicMSF(16, engine="sequential", sparsify=True)
    t.insert_edge(0, 1, 1.0)
    t.release()
    free = list(default_pool.free_engines())
    assert free, "release should have returned engines to the arena"
    key, engine = free[0]
    engine.self_loops[999] = (0, 0, 1.0)  # corrupt a free-listed engine
    report = recover.recover_pool(default_pool)
    assert report["quarantined"] >= 1
    assert default_pool.is_quarantined(engine)
    # the quarantined engine never re-enters the free-list
    assert all(e is not engine for _k, e in default_pool.free_engines())


def test_quarantined_engine_refused_by_release():
    t = DynamicMSF(16, engine="sequential", sparsify=True)
    t.insert_edge(0, 1, 1.0)
    t.release()
    k, engine = next(iter(default_pool.free_engines()))
    default_pool.quarantine(engine)
    before = len(list(default_pool.free_engines()))
    default_pool.release(k, engine)  # refused: no-op
    assert len(list(default_pool.free_engines())) == before
    assert all(e is not engine for _k, e in default_pool.free_engines())


# -------------------------------------------------------------- backends

@pytest.mark.parametrize("engine,sparsify", [("sequential", True),
                                             ("sequential", False),
                                             ("parallel", False)])
def test_rebuild_backend_restores_forest(engine, sparsify):
    front = BatchedMSF(16, engine=engine, sparsify=sparsify, batch_size=4,
                       pool_size=1)
    _fill(front, 12)
    want = front.msf_ids()
    old_impl = front._impl
    recover.rebuild_backend(front)
    assert front._impl is not old_impl
    assert front.msf_ids() == want
    assert front.self_check("full") == []


def test_rebuild_backend_exhausts_on_persistent_corruption(monkeypatch):
    front = BatchedMSF(16, engine="sequential", sparsify=False,
                       batch_size=4, pool_size=1)
    _fill(front, 6)
    # a rebuild that always comes back dirty: pretend the checker finds a
    # persistent problem
    monkeypatch.setattr(
        checks, "check_engine",
        lambda impl, level="cheap": [checks.Finding("tree", "stuck", level)])
    with pytest.raises(QuarantineExhausted) as ei:
        recover.rebuild_backend(front, max_attempts=2)
    assert ei.value.attempts == 2


# ----------------------------------------------------------------- batch

def test_batch_bisection_rejects_only_poisoned_op():
    front = BatchedMSF(16, engine="sequential", sparsify=True,
                       batch_size=16, pool_size=1)
    _fill(front, 8)
    # white-box: append a poisoned op the submit path would have refused
    front._pending.append(("ins", 999, 0, 9999, 1.0))  # endpoint OOB
    for i in range(3):
        front._pending.append(("ins", 1000 + i, i, i + 4, 2.0 + i))
        front._pending_ins.add(1000 + i)
    with pytest.raises(CorruptionError) as ei:
        front.flush()
    rejected = ei.value.rejected
    assert len(rejected) == 1 and rejected[0][0][1] == 999
    # the healthy ops committed; the registry and engine agree
    assert front.stats["ops_rejected"] == 1
    assert {1000, 1001, 1002} <= front._live
    assert 999 not in front._live
    assert front.self_check("full") == []


def test_unknown_delete_is_structured_and_a_keyerror():
    front = BatchedMSF(8, engine="sequential", sparsify=False,
                       batch_size=4, pool_size=1)
    with pytest.raises(UnknownEdgeError) as ei:
        front.delete_edge(12345)
    assert isinstance(ei.value, KeyError)  # legacy guards keep working
    assert ei.value.eid == 12345
