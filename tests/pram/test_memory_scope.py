"""The PRAM simulator's memory lives only as long as the work using it.

Interned cells are launch-scoped and sequence registrations and scratch
registers are update-scoped, so between two public updates the memory of a
parallel engine's machine is empty and pins no host object.  These tests
pin that contract end to end -- telemetry, object liveness, a bounded heap
on a long adversarial stream (counted in a fresh interpreter) -- and
check that the shorter lifetimes move no measured depth or work.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.par import ParallelDynamicMSF
from repro.pram.machine import ErewViolation, Machine, Read, Write
from repro.pram.memory import Mem
from repro.resilience.checks import check_machine
from repro.workloads import OpStream, adversarial_cuts

ZERO = {"interned_cells": 0, "registered_seqs": 0, "registers": 0}


def _live_chunks(engine) -> list:
    return [c for lst in engine.fabric.registry.lists() for c in lst.chunks()]


def _reachable(root) -> set[int]:
    """Ids of every object reachable from ``root``."""
    seen = {id(root)}
    frontier = [root]
    while frontier:
        nxt = []
        for obj in gc.get_referents(*frontier):
            if id(obj) not in seen:
                seen.add(id(obj))
                nxt.append(obj)
        frontier = nxt
    return seen


def test_cells_are_launch_scoped():
    m = Machine()
    arr = [0] * 4
    sid = m.mem.register(arr, name="arr")

    def put(i):
        yield Write(("idx", sid, i), i + 1)

    m.run([put(i) for i in range(4)])
    assert arr == [1, 2, 3, 4]
    # registrations stay for the rest of the update; cells do not
    assert m.cache_info()["memory"] == {
        "interned_cells": 0, "registered_seqs": 1, "registers": 0}

    def get():
        yield Read(("idx", sid, 2))

    with pytest.raises(ErewViolation, match=r"idx\(arr\[2\]\)"):
        m.run([get(), get()])
    assert m.cache_info()["memory"]["interned_cells"] == 0


@pytest.mark.parametrize("audit", ["strict", "count", "fast"])
def test_memory_is_empty_after_every_update(audit):
    engine = ParallelDynamicMSF(32, audit=audit)
    assert engine.machine.cache_info()["memory"] == ZERO
    stream = OpStream(engine)
    for op in adversarial_cuts(32, 12):
        stream.apply(op)
        assert engine.machine.cache_info()["memory"] == ZERO, op
    assert check_machine(engine.machine) == []


def test_memory_pins_no_retired_chunk_or_scratch_list(monkeypatch):
    scratch: list = []
    register = Mem.register

    def spy(self, seq, name=None):
        if name == "gamma":  # the MWR kernel's per-call scratch list
            scratch.append(seq)
        return register(self, seq, name)

    monkeypatch.setattr(Mem, "register", spy)
    engine = ParallelDynamicMSF(64, audit="strict")
    stream = OpStream(engine)
    ops = list(adversarial_cuts(64, 6))
    n_build = len(ops) - 12
    for op in ops[:n_build]:
        stream.apply(op)
    n_retired = n_scratch = 0
    for op in ops[n_build:]:
        before = _live_chunks(engine)
        scratch.clear()
        stream.apply(op)
        live = {id(c) for c in _live_chunks(engine)}
        retired = {id(c) for c in before} - live
        n_retired += len(retired)
        n_scratch += len(scratch)
        assert not retired & _reachable(engine.machine), \
            "the machine pins a retired chunk"
        for i in range(len(scratch)):
            # the list in `scratch` and the call argument: nothing else
            # (counted outside the assert, which keeps its own temporaries)
            refs = sys.getrefcount(scratch[i])
            assert refs == 2, "a kernel scratch list outlived its update"
    assert n_retired and n_scratch, "the stream retired nothing"


#: the long stream of :func:`test_heap_stays_flat_on_a_long_adversarial_stream`,
#: run in a fresh interpreter: ``gc.get_objects()`` counts every object of
#: the process, so objects other tests leave behind must not land inside
#: its window
_HEAP_SCRIPT = """
import gc
from repro.core.par import ParallelDynamicMSF
from repro.workloads import OpStream, adversarial_cuts

engine = ParallelDynamicMSF(64, audit="fast")
stream = OpStream(engine)
ops = list(adversarial_cuts(64, 200))
cut_50 = len(ops) - 2 * 150


def tracked():
    gc.collect()
    # one KernelStats per update is the engine's own per-update record
    return len(gc.get_objects()) - len(engine.update_stats)


for op in ops[:cut_50]:
    stream.apply(op)
after_50 = tracked()
for op in ops[cut_50:]:
    stream.apply(op)
print(after_50, tracked())
"""


def test_heap_stays_flat_on_a_long_adversarial_stream():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _HEAP_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    after_50, after_200 = map(int, out.stdout.split())
    assert after_200 <= after_50 + 100, (after_50, after_200)


def _per_update(audit: str, impl: str) -> list[tuple[int, int, int]]:
    engine = ParallelDynamicMSF(24, audit=audit, impl=impl)
    stream = OpStream(engine)
    for op in adversarial_cuts(24, 15):
        stream.apply(op)
    return [(s.depth, s.work, s.processors) for s in engine.update_stats]


def test_scoped_memory_keeps_depth_and_work_identical():
    strict = _per_update("strict", "onepass")
    assert _per_update("fast", "onepass") == strict
    assert _per_update("strict", "reference") == strict


def test_stale_registration_is_reported():
    engine = ParallelDynamicMSF(16, audit="strict")
    stream = OpStream(engine)
    for op in adversarial_cuts(16, 2):
        stream.apply(op)
    assert check_machine(engine.machine) == []
    engine.machine.mem.register([0, 1, 2])
    engine.machine.mem.write(engine.machine.mem.reg("stale"), 1)
    findings = check_machine(engine.machine)
    assert len(findings) == 1
    assert findings[0].component == "machine"
    assert ("0 cells, 1 sequences and 1 registers outlived their update"
            in findings[0].message)
