"""Tests for the lockstep EREW PRAM machine and memory layer."""

from __future__ import annotations

import pytest

from repro.pram.machine import ErewViolation, KernelStats, Machine, Nop, Read, Write


class Box:
    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


def test_memory_dispatch_attr_idx_reg():
    m = Machine()
    b = Box(x=3)
    arr = [10, 20, 30]
    sid = m.mem.register(arr)
    assert m.mem.read(("attr", b, "x")) == 3
    m.mem.write(("attr", b, "x"), 7)
    assert b.x == 7
    m.mem.write(("idx", sid, 1), 99)
    assert arr[1] == 99
    assert m.mem.read(m.mem.reg("t")) is None
    m.mem.write(m.mem.reg("t"), "v")
    assert m.mem.read(m.mem.reg("t")) == "v"


def test_single_processor_read_write_depth_work():
    m = Machine()
    b = Box(x=1)

    def prog():
        v = yield Read(("attr", b, "x"))
        yield Write(("attr", b, "x"), v + 41)

    stats = m.run([prog()])
    assert b.x == 42
    assert stats.depth == 2
    assert stats.work == 2
    assert stats.processors == 1


def test_parallel_disjoint_writes_ok():
    m = Machine()
    arr = [0] * 16
    sid = m.mem.register(arr)

    def prog(i):
        yield Write(("idx", sid, i), i * i)

    stats = m.run([prog(i) for i in range(16)])
    assert arr == [i * i for i in range(16)]
    assert stats.depth == 1
    assert stats.work == 16
    assert stats.processors == 16


@pytest.mark.parametrize("kinds", [("r", "r"), ("w", "w"), ("r", "w")])
def test_erew_rejects_same_step_sharing(kinds):
    m = Machine()
    arr = [0, 0]
    sid = m.mem.register(arr)

    def prog(kind):
        if kind == "r":
            yield Read(("idx", sid, 0))
        else:
            yield Write(("idx", sid, 0), 1)

    with pytest.raises(ErewViolation):
        m.run([prog(k) for k in kinds])


def test_crew_allows_concurrent_reads_only():
    arr = [5, 0]
    m = Machine(mode="crew")
    sid = m.mem.register(arr)

    def reader():
        yield Read(("idx", sid, 0))

    stats = m.run([reader(), reader()])
    assert stats.violations == 0

    def writer():
        yield Write(("idx", sid, 0), 1)

    with pytest.raises(ErewViolation):
        m.run([reader(), writer()])


def test_non_strict_counts_violations():
    m = Machine(audit="count")
    arr = [0]
    sid = m.mem.register(arr)

    def reader():
        yield Read(("idx", sid, 0))

    stats = m.run([reader(), reader()])
    assert stats.violations == 1


def test_same_cell_different_steps_legal():
    m = Machine()
    arr = [0]
    sid = m.mem.register(arr)

    def first():
        yield Write(("idx", sid, 0), 1)

    def second():
        yield Nop()
        v = yield Read(("idx", sid, 0))
        assert v == 1

    stats = m.run([first(), second()])
    assert stats.depth == 2
    assert stats.violations == 0


def test_synchronous_reads_see_pre_step_memory():
    """Reads and writes in the same step: read observes the old value."""
    m = Machine()
    arr = [7, 0]
    sid = m.mem.register(arr)
    seen = {}

    def swapper_a():
        v = yield Read(("idx", sid, 0))
        yield Write(("idx", sid, 1), v)

    def swapper_b():
        v = yield Read(("idx", sid, 1))
        seen["b"] = v
        yield Nop()

    m.run([swapper_a(), swapper_b()])
    assert seen["b"] == 0  # b's read happened before a's write landed
    assert arr[1] == 7


def test_nop_costs_depth_not_work():
    m = Machine()

    def idler():
        yield Nop()
        yield Nop()

    stats = m.run([idler()])
    assert stats.depth == 2
    assert stats.work == 0


def test_stats_add_composition():
    a = KernelStats(depth=3, work=10, processors=4, launches=1)
    b = KernelStats(depth=2, work=5, processors=9, launches=1)
    a.add(b)
    assert (a.depth, a.work, a.processors, a.launches) == (5, 15, 9, 2)


def test_sequential_charge_accumulates():
    m = Machine()
    m.sequential_charge(17)
    assert m.total.depth == 17
    assert m.total.work == 17


def test_total_accumulates_over_runs():
    m = Machine()
    arr = [0] * 4
    sid = m.mem.register(arr)

    def prog(i):
        yield Write(("idx", sid, i), 1)

    m.run([prog(0), prog(1)])
    m.run([prog(2), prog(3)])
    assert m.total.depth == 2
    assert m.total.work == 4
    assert m.total.launches == 2
