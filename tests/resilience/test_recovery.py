"""Unit tests for the quarantine-and-rebuild recovery ladder."""

from __future__ import annotations

import pytest

from repro.core.msf import DynamicMSF
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
    # fast already raises on a violation: the rung keeps it raising
    assert report["audit"] == {"before": "fast", "after": "strict"}
    # every plan gone: each shape re-records from a checked run
    assert m.cache_info()["shaped"]["size"] == 0
    # degrade ladder saturates at strict
    report = recover.recover_machine(m)
    assert report["audit"] == {"before": "strict", "after": "strict"}


def _segment_fault_run(fault_plan):
    """A fast parallel engine over an adversarial stream, ``fault_plan``
    armed; returns the engine."""
    from repro.core.par import ParallelDynamicMSF
    from repro.resilience import faults
    from repro.workloads import adversarial_cuts

    eng = ParallelDynamicMSF(48, audit="fast")
    handles = {}
    with faults.injected(fault_plan):
        for idx, op in enumerate(adversarial_cuts(48, rounds=4, seed=3)):
            if op[0] == "ins":
                handles[idx] = eng.insert_edge(*op[1:], eid=10_000 + idx)
            else:
                eng.delete_edge(handles.pop(op[1]))
    return eng


def _first_segment_visit() -> int:
    """The ``pram.plan`` visit index of the first segment-plan lookup."""
    from repro.resilience import faults

    class Spy(faults.FaultPlan):
        def fire(self, site, ctx):
            if site == "pram.plan" and not hasattr(self, "hit") \
                    and ctx["key"][0] == "path_refresh_node":
                self.hit = self.visits.get(site, 0)
            return super().fire(site, ctx)

    spy = Spy()
    _segment_fault_run(spy)
    return spy.hit


@pytest.mark.parametrize("param", [0, 1], ids=["work", "depth"])
def test_pram_plan_fault_on_segment_plan_is_found(param):
    """A ``pram.plan`` fault that skews a path-refresh *segment* plan's
    stats is found by ``check_machine``, and cannot leak into the
    composed plans, whose stats come from the fingerprints."""
    from repro.resilience import faults

    plan = faults.FaultPlan([faults.Fault("pram.plan",
                                          _first_segment_visit(), param)])
    eng = _segment_fault_run(plan)
    assert [e["outcome"] for e in plan.log] == ["injected"]
    found = checks.check_machine(eng.machine)
    assert found and all("path_refresh_node" in f.message for f in found)
    clean = _segment_fault_run(faults.FaultPlan())
    assert [(s.depth, s.work) for s in eng.update_stats] == \
        [(s.depth, s.work) for s in clean.update_stats]


def test_pram_plan_effect_fault_on_segment_plan_raises():
    """The effect-count variant is caught by the composition's
    per-segment cross-check, as a replay would catch it."""
    from repro.resilience import faults

    plan = faults.FaultPlan([faults.Fault("pram.plan",
                                          _first_segment_visit(), 2)])
    with pytest.raises(RuntimeError, match="effect-count mismatch"):
        _segment_fault_run(plan)
    assert not faults.armed


def test_violation_after_recover_machine_rung_still_raises():
    """A fast machine raises on an EREW violation before a
    ``recover_machine`` rung and still raises after it."""
    from repro.pram.machine import ErewViolation, Machine, Read

    m = Machine(audit="fast")
    sid = m.mem.register([0])

    def reader():
        yield Read(("idx", sid, 0))

    with pytest.raises(ErewViolation):
        m.run([reader(), reader()])
    recover.recover_machine(m)
    with pytest.raises(ErewViolation):
        m.run([reader(), reader()])


# -------------------------------------------------------------- backends

@pytest.mark.parametrize("engine,grown", [("sequential", True),
                                          ("sequential", False),
                                          ("parallel", False)])
def test_rebuild_backend_restores_forest(engine, grown):
    """Twelve edges on 16 vertices keep the tree one flat root; on 4
    they grow it past its ``2n`` switch."""
    front = BatchedMSF(4 if grown else 16, engine=engine, batch_size=4,
                       pool_size=1)
    _fill(front, 12)
    assert front._impl.flat is not grown
    want = front.msf_ids()
    old_impl = front._impl
    recover.rebuild_backend(front)
    assert front._impl is not old_impl
    assert front._impl.flat is not grown
    assert front.msf_ids() == want
    assert front.self_check("full") == []


def test_rebuild_backend_exhausts_on_persistent_corruption(monkeypatch):
    front = BatchedMSF(16, engine="sequential", batch_size=4, pool_size=1)
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
    front = BatchedMSF(16, engine="sequential", batch_size=16,
                       pool_size=1)
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
    front = BatchedMSF(8, engine="sequential", batch_size=4, pool_size=1)
    with pytest.raises(UnknownEdgeError) as ei:
        front.delete_edge(12345)
    assert isinstance(ei.value, KeyError)  # legacy guards keep working
    assert ei.value.eid == 12345
