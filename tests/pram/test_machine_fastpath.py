"""Tests for the fast-path execution engine (one-pass loop, audit ladder,
trace-replay tier) and the KernelStats composition rules.

The load-bearing assertions are differential: the one-pass loop against the
retained four-pass reference oracle, and ``audit="fast"`` against
``audit="strict"`` on a real parallel-engine workload -- fast mode must be a
pure measurement optimization (identical stats, identical forests), never a
semantics change.
"""

from __future__ import annotations

import pytest

from repro.pram.machine import (
    ErewViolation,
    KernelStats,
    Machine,
    Nop,
    Read,
    Write,
)


class Box:
    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


# --------------------------------------------------------------------------
# CREW legality and audit="count" violation counting
# --------------------------------------------------------------------------


def _shared_readers(m: Machine, k: int):
    b = Box(x=7)

    def prog():
        v = yield Read(("attr", b, "x"))
        assert v == 7

    return [prog() for _ in range(k)]


def test_crew_machine_allows_concurrent_reads():
    m = Machine(mode="crew")
    stats = m.run(_shared_readers(m, 8))
    assert stats.violations == 0
    assert stats.depth == 1 and stats.work == 8 and stats.processors == 8


def test_crew_kernel_override_on_erew_machine():
    m = Machine(mode="erew")
    # the same kernel raises under the machine's EREW policy...
    with pytest.raises(ErewViolation):
        m.run(_shared_readers(m, 4))
    # ...but is legal when the launch overrides to CREW (Lemma 3.3's
    # membership reads use exactly this override)
    stats = m.run(_shared_readers(m, 4), mode="crew")
    assert stats.violations == 0


def test_crew_still_rejects_concurrent_writes():
    m = Machine(mode="crew")
    b = Box(x=0)

    def prog(i):
        yield Write(("attr", b, "x"), i)

    with pytest.raises(ErewViolation):
        m.run([prog(i) for i in range(2)])


def test_audit_count_counts_instead_of_raising():
    machine = Machine(audit="count")
    stats = machine.run(_shared_readers(machine, 3))
    # one shared cell touched concurrently => one violation, no raise
    assert stats.violations == 1
    assert machine.total.violations == 1


def test_audit_count_read_write_and_write_write():
    m = Machine(audit="count")
    b = Box(x=0)

    def reader():
        yield Read(("attr", b, "x"))

    def writer():
        yield Write(("attr", b, "x"), 5)

    stats = m.run([reader(), writer()])
    assert stats.violations == 1
    stats = m.run([writer(), writer()])
    assert stats.violations == 1
    assert m.total.violations == 2


# --------------------------------------------------------------------------
# differential: one-pass loop vs the retained reference oracle
# --------------------------------------------------------------------------


def _mixed_kernel(m: Machine, sid: int, n: int):
    """A kernel exercising every op type, staggered lifetimes, reads-before-
    writes semantics and register traffic."""

    def prog(i):
        v = yield Read(("idx", sid, i))
        yield Write(("idx", sid, (i + 1) % n), v + 1)
        if i % 2:
            yield Nop()
            yield Write(m.mem.reg(f"r{i}"), v)
            got = yield Read(m.mem.reg(f"r{i}"))
            assert got == v

    return [prog(i) for i in range(n)]


def test_onepass_matches_reference_synthetic():
    results = {}
    for impl in ("onepass", "reference"):
        m = Machine(impl=impl)
        arr = list(range(10))
        sid = m.mem.register(arr)
        stats = m.run(_mixed_kernel(m, sid, 10), label="mixed")
        results[impl] = (stats.depth, stats.work, stats.processors,
                         stats.violations, list(arr))
    assert results["onepass"] == results["reference"]


def test_onepass_matches_reference_reads_before_writes():
    """Synchronous PRAM semantics: a step's reads see pre-step memory."""
    for impl in ("onepass", "reference"):
        m = Machine(impl=impl)
        arr = [1, 2]
        sid = m.mem.register(arr)

        def swapper(i):
            v = yield Read(("idx", sid, i))
            yield Write(("idx", sid, 1 - i), v)

        m.run([swapper(0), swapper(1)])
        assert arr == [2, 1], impl


def _run_engine_workload(n, rounds, seed, **engine_kw):
    from repro.core.par import ParallelDynamicMSF
    from repro.workloads import adversarial_cuts, drive

    eng = ParallelDynamicMSF(n, **engine_kw)
    drive(eng, adversarial_cuts(n, rounds, seed=seed))
    per_update = [(st.depth, st.work, st.processors, st.violations)
                  for st in eng.update_stats]
    # eids come from a process-global counter, so compare forests
    # structurally (endpoints + weight identify an edge in this workload)
    forest = sorted((min(e.u.vid, e.v.vid), max(e.u.vid, e.v.vid), e.weight)
                    for e in eng.msf_edges())
    total = eng.machine.total
    return (per_update, forest,
            (total.depth, total.work, total.processors, total.violations),
            eng.machine)


def test_onepass_matches_reference_on_real_workload():
    """The production loop and the four-pass oracle produce bit-identical
    KernelStats on a real parallel-engine workload."""
    a = _run_engine_workload(48, 2, seed=5, impl="onepass")
    b = _run_engine_workload(48, 2, seed=5, impl="reference")
    assert a[0] == b[0]   # per-update stats
    assert a[1] == b[1]   # identical forests
    assert a[2] == b[2]   # machine totals


# --------------------------------------------------------------------------
# audit="fast": measurement-identical, plus cache behavior
# --------------------------------------------------------------------------


def test_fast_matches_strict_on_real_workload():
    """Fast mode reports the same per-update depth/work/processors and
    yields the same MSF as a fully-checked strict run: every ``run`` is
    checked, and only keyed trace replay bypasses simulation."""
    a = _run_engine_workload(48, 3, seed=7, audit="strict")
    b = _run_engine_workload(48, 3, seed=7, audit="fast")
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]
    machine = b[3]
    assert machine.fast_hits > 0  # the bypass actually engaged
    assert machine.total.violations == 0


def test_fast_first_launch_still_raises_on_conflict():
    """Every ``run`` on a fast machine is fully checked, the first
    launch of a label included."""
    m = Machine(audit="fast")
    with pytest.raises(ErewViolation):
        m.run(_shared_readers(m, 2), label="bad")


def test_fast_run_checks_a_repeated_shape():
    """A launch whose label and op-count shape match an earlier clean
    launch is still checked: two processors reading one cell raise."""
    m = Machine(audit="fast")
    arr = [0, 0]
    sid = m.mem.register(arr)

    def own(i):
        yield Read(("idx", sid, i))

    def shared(i):
        yield Read(("idx", sid, 0))

    clean = m.run([own(i) for i in range(2)], label="k")
    assert (clean.depth, clean.work, clean.violations) == (1, 2, 0)
    with pytest.raises(ErewViolation):
        m.run([shared(i) for i in range(2)], label="k")


# --------------------------------------------------------------------------
# keyed trace replay: run_recorded / replay_plan / charge_shaped
# --------------------------------------------------------------------------


def test_shaped_bypass_records_and_charges_exactly():
    m = Machine(audit="fast")
    arr = [0] * 6
    sid = m.mem.register(arr)

    def prog(i):
        v = yield Read(("idx", sid, i))
        yield Write(("idx", sid, i), v + 10)

    key = ("demo", 6)
    assert m.replay_plan(key) is None
    rec = m.run_recorded(key, [prog(i) for i in range(6)], label="demo")
    plan = m.replay_plan(key)
    assert (plan.depth, plan.work, plan.processors) == \
        (rec.depth, rec.work, rec.processors)
    charged = m.charge_shaped(key, label="demo")
    assert (charged.depth, charged.work, charged.processors) == \
        (rec.depth, rec.work, rec.processors)
    assert m.fast_hits == 1
    # both the recording and the charge land in the machine totals
    assert m.total.depth == rec.depth + charged.depth
    assert m.total.work == rec.work + charged.work


def test_run_recorded_is_strict_even_in_fast_mode():
    m = Machine(audit="fast")
    with pytest.raises(ErewViolation):
        m.run_recorded(("bad",), _shared_readers(m, 2), label="bad")
    assert m.replay_plan(("bad",)) is None  # nothing cached for it


# --------------------------------------------------------------------------
# KernelStats composition rules
# --------------------------------------------------------------------------


def test_kernelstats_add_is_sequential_composition():
    a = KernelStats(depth=5, work=50, processors=8, launches=1, violations=1)
    b = KernelStats(depth=3, work=30, processors=4, launches=2, violations=0)
    a.add(b)
    # depth and work accumulate; the processor pool is reused => max
    assert a.depth == 8
    assert a.work == 80
    assert a.processors == 8
    assert a.launches == 3
    assert a.violations == 1


def test_kernelstats_parallel_compose():
    parts = [
        KernelStats(depth=5, work=50, processors=8, launches=1),
        KernelStats(depth=3, work=30, processors=4, launches=1, violations=2),
        KernelStats(depth=9, work=10, processors=2, launches=3),
    ]
    agg = KernelStats.parallel_compose(parts, label="levels")
    # disjoint pools side by side: depth is the slowest part, work and
    # processors add (Section 5.3's per-level engine composition)
    assert agg.depth == 9
    assert agg.work == 90
    assert agg.processors == 14
    assert agg.launches == 5
    assert agg.violations == 2
    assert agg.label == "levels"
    assert KernelStats.parallel_compose([]).depth == 0
