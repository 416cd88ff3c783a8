"""Tests for the trace-replay tier (``run_recorded`` / ``replay_plan`` /
``replay``) and its production guardrails.

The load-bearing assertion is differential and bit-exact: on a real
adversarial engine workload, ``audit="fast"`` (which serves warm launches
from compiled :class:`TracePlan` entries without resuming a single
generator) must charge *exactly* the depth / work / processors that
``audit="strict"`` measures by simulating every launch op-by-op.  The
replay tier is a measurement bypass, never a model change.

The guardrail tests pin down the safety properties: recording launches are
always fully checked (an EREW violation raises even on a fast machine and
poisons nothing), cache eviction only ever forces a clean re-record, the
``n_effects`` cross-check catches shape-key collisions, and every cache is
per-machine state (no cross-instance bleed).
"""

from __future__ import annotations

import pytest

from repro.core.par import ParallelDynamicMSF
from repro.pram.machine import (
    ErewViolation,
    Machine,
    Read,
    TracePlan,
    Write,
)
from repro.workloads import adversarial_cuts


class Box:
    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


# --------------------------------------------------------------------------
# workload driver (mirrors benchmarks/_common.py `replay`)
# --------------------------------------------------------------------------


def _drive(engine, ops):
    """Replay an op stream with the bench protocol (eid = 10_000 + idx)."""
    handles = {}
    idx = 0
    for op in ops:
        tag = op[0]
        if tag == "ins":
            _t, u, v, w = op
            handles[idx] = engine.insert_edge(u, v, w, eid=10_000 + idx)
        elif tag == "del":
            engine.delete_edge(handles.pop(op[1]))
        elif tag == "conn":
            engine.connected(op[1], op[2])
        idx += 1


def _totals(machine):
    t = machine.total
    return (t.depth, t.work, t.processors, t.violations)


# --------------------------------------------------------------------------
# differential: replay stats bit-identical to strict simulation
# --------------------------------------------------------------------------


def test_replay_bit_identical_to_strict_on_adversarial_workload():
    n, rounds = 64, 6
    ops = list(adversarial_cuts(n, rounds=rounds, seed=3))

    strict = ParallelDynamicMSF(n, audit="strict")
    _drive(strict, ops)

    fast = ParallelDynamicMSF(n, audit="fast")
    _drive(fast, ops)

    # identical answers...
    assert {e.eid for e in fast.msf_edges()} == \
        {e.eid for e in strict.msf_edges()}
    # ...and bit-identical model quantities, total and per update
    assert _totals(fast.machine) == _totals(strict.machine)
    assert len(fast.update_stats) == len(strict.update_stats)
    for fw, sw in zip(fast.update_stats, strict.update_stats):
        assert (fw.depth, fw.work, fw.processors) == \
            (sw.depth, sw.work, sw.processors)
    # the fast machine actually took the bypass (and only after verified
    # recordings -- every hit shape was first run fully checked)
    assert fast.machine.fast_hits > 0
    assert fast.machine.cache_info()["shaped"]["hits"] > 0


def test_recycled_machine_measures_bit_identically_and_all_warm():
    """Arena contract: a recycled machine (shape caches kept, totals
    zeroed) measures the same workload bit-identically, and the steady
    state records nothing new."""
    n, rounds = 64, 4
    ops = list(adversarial_cuts(n, rounds=rounds, seed=3))

    eng = ParallelDynamicMSF(n, audit="fast")
    _drive(eng, ops)
    machine = eng.machine
    cold = _totals(machine)

    machine.reset_stats()
    warm_eng = ParallelDynamicMSF(n, machine=machine)
    _drive(warm_eng, ops)
    assert _totals(machine) == cold
    # run 2 is served entirely from the caches: no re-recording happened
    assert machine.fast_misses == 0
    assert machine.fast_hits > 0


def test_path_refresh_simulates_one_launch_per_segment_shape():
    """Whole-path misses compose from per-node segment plans: across an
    ``adversarial_cuts`` set-up the engine simulates at most one
    ``path_refresh`` launch per distinct ``(J, kid count)``, while every
    new path shape is still accounted as one recorded launch."""
    n = 64
    eng = ParallelDynamicMSF(n, audit="fast")
    machine = eng.machine
    simulated = []
    run_recorded = machine.run_recorded

    def counting(key, *args, **kwargs):
        simulated.append(key)
        return run_recorded(key, *args, **kwargs)

    machine.run_recorded = counting
    _drive(eng, adversarial_cuts(n, rounds=0, seed=3))
    refresh = [k for k in simulated if k[0].startswith("path_refresh")]
    assert refresh, "the set-up refreshed no path"
    assert all(k[0] == "path_refresh_node" for k in refresh)
    assert len(refresh) == len(set(refresh)) <= 3
    paths = [k for k in machine._shaped.data if k[0] == "path_refresh"]
    assert len(paths) > len(refresh)   # many path shapes, few simulated


# --------------------------------------------------------------------------
# recording launches stay fully checked
# --------------------------------------------------------------------------


def _conflicting_writers(k: int):
    b = Box(x=0)

    def prog():
        yield Write(("attr", b, "x"), 1)

    return [prog() for _ in range(k)]


def test_recording_launch_raises_on_erew_violation():
    m = Machine(audit="fast")
    with pytest.raises(ErewViolation):
        m.run_recorded(("bad-shape",), _conflicting_writers(3))
    # the dirty launch compiled no plan: next probe is a clean miss
    assert m.replay_plan(("bad-shape",)) is None


def test_recording_launch_checks_even_though_audit_is_fast():
    """A *plain* fast-mode ``run`` may learn to skip checking; a
    ``run_recorded`` launch must never skip it, because its measured
    stats are served verbatim to every future same-shape launch."""
    m = Machine(audit="fast")

    def reader(b):
        def prog():
            yield Read(("attr", b, "x"))
        return prog()

    b = Box(x=5)
    # clean recording launch compiles a plan...
    m.run_recorded(("clean",), [reader(b)], label="probe")
    plan = m.replay_plan(("clean",))
    assert isinstance(plan, TracePlan)
    assert (plan.depth, plan.work, plan.processors) == (1, 1, 1)
    # ...and a conflicting recording launch under a *different* key raises
    # instead of caching garbage
    with pytest.raises(ErewViolation):
        m.run_recorded(("clean2",), _conflicting_writers(2))
    assert m.replay_plan(("clean2",)) is None


# --------------------------------------------------------------------------
# replay guardrails
# --------------------------------------------------------------------------


def test_replay_charges_exactly_recorded_stats():
    m = Machine(audit="fast")
    b = Box(x=1)

    def prog():
        v = yield Read(("attr", b, "x"))
        yield Write(("attr", b, "y"), v + 1)

    rec = m.run_recorded(("k",), [prog()], label="rw", n_effects=1)
    before = _totals(m)
    plan = m.replay_plan(("k",))
    hit = m.replay(plan, "rw", n_effects=1)
    assert (hit.depth, hit.work, hit.processors) == \
        (rec.depth, rec.work, rec.processors)
    after = _totals(m)
    assert after[0] - before[0] == rec.depth
    assert after[1] - before[1] == rec.work


def test_replay_effect_count_mismatch_raises():
    m = Machine(audit="fast")
    b = Box(x=1)

    def prog():
        yield Write(("attr", b, "y"), 2)

    m.run_recorded(("k",), [prog()], n_effects=1)
    plan = m.replay_plan(("k",))
    with pytest.raises(RuntimeError, match="effect-count mismatch"):
        m.replay(plan, n_effects=2)


def test_replay_plan_is_none_outside_fast_audit():
    for audit in ("strict", "count"):
        m = Machine(audit=audit)
        assert m.replay_plan(("anything",)) is None


# --------------------------------------------------------------------------
# bounded caches: eviction forces a clean re-record, never a wrong answer
# --------------------------------------------------------------------------


def test_eviction_forces_clean_rerecord():
    m = Machine(audit="fast", shaped_cache_cap=1)
    b = Box(x=1)

    def reader():
        def prog():
            yield Read(("attr", b, "x"))
        return prog()

    m.run_recorded(("a",), [reader()])
    m.run_recorded(("b",), [reader()])      # evicts ("a",)
    info = m.cache_info()["shaped"]
    assert info["evictions"] == 1 and info["size"] == 1
    assert m.replay_plan(("a",)) is None     # miss -> caller re-records
    rec = m.run_recorded(("a",), [reader()])  # clean re-record works
    plan = m.replay_plan(("a",))
    assert (plan.depth, plan.work, plan.processors) == \
        (rec.depth, rec.work, rec.processors)
    info = m.cache_info()["shaped"]
    assert info["misses"] >= 1 and info["hits"] >= 1


def test_cache_info_shape():
    m = Machine(audit="fast")
    info = m.cache_info()
    assert set(info) == {"shaped", "history", "memory", "fast_hits",
                         "fast_misses"}
    assert set(info["shaped"]) == {"size", "cap", "hits", "misses",
                                   "evictions"}
    assert {"len", "cap", "dropped"} <= set(info["history"])


# --------------------------------------------------------------------------
# per-instance isolation: no cross-machine cache bleed
# --------------------------------------------------------------------------


def test_shape_and_trace_caches_are_per_instance():
    m1 = Machine(audit="fast")
    m2 = Machine(audit="fast")
    assert m1._shaped is not m2._shaped
    b = Box(x=1)

    def prog():
        yield Read(("attr", b, "x"))

    m1.run_recorded(("shared-key",), [prog()])
    assert m1.replay_plan(("shared-key",)) is not None
    assert m2.replay_plan(("shared-key",)) is None
    assert m2.cache_info()["shaped"]["size"] == 0


def test_engine_machines_do_not_share_caches():
    n = 24
    e1 = ParallelDynamicMSF(n, audit="fast")
    e2 = ParallelDynamicMSF(n, audit="fast")
    assert e1.machine is not e2.machine
    assert e1.machine._shaped is not e2.machine._shaped
    _drive(e1, adversarial_cuts(n, rounds=2, seed=3))
    # e1 recorded shapes; e2's caches saw none of it
    assert len(e1.machine._shaped) > 0
    assert len(e2.machine._shaped) == 0


# --------------------------------------------------------------------------
# history ring buffer
# --------------------------------------------------------------------------


def test_history_ring_respects_cap_on_long_run():
    n, rounds = 48, 6
    cap = 64
    eng = ParallelDynamicMSF(n, machine=Machine(audit="fast",
                                                history_cap=cap))
    _drive(eng, adversarial_cuts(n, rounds=rounds, seed=3))
    hist = eng.machine.history
    assert hist.cap == cap
    assert len(hist) <= cap
    assert hist.dropped > 0          # the workload really overflowed it
    # ...while the aggregate stats saw every charge (window accounting
    # does not read the history)
    assert eng.machine.total.launches > cap


def test_history_unbounded_opt_in():
    m = Machine(audit="fast", history_cap=4)
    m.history.set_cap(None)
    b = Box(x=0)
    for i in range(32):
        def prog(i=i):
            yield Write(("attr", b, f"f{i}"), i)
        m.run([prog()])
    assert m.history.cap is None
    assert len(m.history) == 32


# --------------------------------------------------------------------------
# facade guards
# --------------------------------------------------------------------------


def test_facade_pram_cache_info_guards():
    from repro import DynamicMSF
    seq = DynamicMSF(4)                      # unmeasured backend
    assert seq.pram_cache_info() == {}
    par = DynamicMSF(4, engine="parallel")
    par.insert_edge(0, 1, 1.0)
    info = par.pram_cache_info()
    assert "shaped" in info                  # single-machine counters
    spar = DynamicMSF(8, engine="parallel", sparsify=True)
    spar.insert_edge(0, 1, 1.0)
    tree_info = spar.pram_cache_info()
    assert isinstance(tree_info, dict)
    assert all("shaped" in v for v in tree_info.values())


def test_batched_front_pram_cache_info_guard():
    from repro import BatchedMSF
    front = BatchedMSF(8)
    front.insert_edge(0, 1, 1.0)
    info = front.pram_cache_info()           # syncs, then reports
    assert isinstance(info, dict)
