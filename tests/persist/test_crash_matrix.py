"""Kill-after-op-k matrix: recovery is fingerprint-identical to a twin
for *every* crash point of a small adversarial trace.

The trace packs the shapes that make crash points interesting: weight
ties resolved by eid order, a batch whose ops annihilate entirely (its
eids appear in no WAL record), tie-weight cycles, deletes of
snapshot-covered edges, and trailing reads.  For each k the child
process (``repro.resilience.crash_child``) is SIGKILLed immediately
before source op k; the test then restores in-process, resumes the
stream at the logged cursor (asserting the eid-prediction contract),
and requires a bit-identical ``state_fingerprint`` against a
never-crashed twin plus a clean full-tier self check.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.core import compiled as _compiled
from repro.persist import restore, resume_point
from repro.resilience.checks import state_fingerprint
from repro.serve.batched import BatchedMSF

N = 8
BATCH = 3
SNAP_EVERY = 2

#: the adversarial trace, campaign vocabulary with predicted eids
TRACE = [
    ("ins", 0, 1, 1.0),      # e1 -.
    ("ins", 1, 2, 1.0),      # e2  |- tie weights: eid order decides
    ("ins", 0, 2, 1.0),      # e3 -'  (cycle)          -> batch seq 1
    ("ins", 3, 4, 2.0),      # e4, annihilated below
    ("del", 4),              # same-batch annihilation: e4 in no record
    ("ins", 4, 5, 0.5),      # e5                      -> batch seq 2
    ("del", 3),
    ("ins", 5, 6, 0.25),     # e6
    ("ins", 6, 7, 0.25),     # e7 (tie)                -> batch seq 3
    ("del", 1),
    ("ins", 0, 7, 1.0),      # e8
    ("ins", 2, 3, 3.0),      # e9                      -> batch seq 4
    ("del", 8),
    ("del", 9),
    ("ins", 1, 7, 0.125),    # e10                     -> batch seq 5
    ("ins", 2, 4, 1.0),      # e11
    ("ins", 3, 5, 1.0),      # e12 (tie)
    ("ins", 0, 3, 4.0),      # e13                     -> batch seq 6
    ("q", 0, 7),
    ("w",),
]

BACKENDS = ["scalar"] + (["compiled"] if _compiled.HAVE_COMPILED else [])


def _apply(front, op, *, expect_eid=None):
    if op[0] == "ins":
        eid = front.insert_edge(op[1], op[2], op[3])
        if expect_eid is not None:
            assert eid == expect_eid, \
                f"eid drift: got {eid}, predicted {expect_eid}"
    elif op[0] == "del":
        front.delete_edge(op[1])
    elif op[0] == "q":
        front.connected(op[1], op[2])
    else:
        front.msf_weight()


def _predicted_eids():
    out, next_eid = {}, 1
    for i, op in enumerate(TRACE):
        if op[0] == "ins":
            out[i] = next_eid
            next_eid += 1
    return out


def _twin(backend):
    twin = BatchedMSF(N, batch_size=BATCH, pool_size=1, backend=backend,
                      consistency="deferred")
    for op in TRACE:
        _apply(twin, op)
    twin.flush()
    return twin


def _run_child(directory, backend, kill_op):
    cfg = {"dir": str(directory), "ops": [list(op) for op in TRACE],
           "seed": 1, "n": N, "engine": "sequential",
           "backend": backend, "batch_size": BATCH,
           "snapshot_every": SNAP_EVERY, "round": 0, "kill_op": kill_op}
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.resilience.crash_child",
         json.dumps(cfg)],
        env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kill_op", range(1, len(TRACE)))
def test_kill_at_every_op(tmp_path, backend, kill_op):
    proc = _run_child(tmp_path, backend, kill_op)
    assert proc.returncode == -int(signal.SIGKILL), \
        f"child should die by SIGKILL, got {proc.returncode}: " \
        f"{proc.stderr[-800:]}"
    eid_of = _predicted_eids()
    front, report = restore(str(tmp_path), snapshot_every=SNAP_EVERY)
    try:
        start = resume_point(report)
        assert start <= kill_op, \
            "durable cursor must not cover ops past the kill point"
        for i in range(start, len(TRACE)):
            front.durability.cursor = i
            _apply(front, TRACE[i], expect_eid=eid_of.get(i))
        front.flush()
        twin = _twin(backend)
        assert state_fingerprint(front) == state_fingerprint(twin)
        assert front._next_eid == twin._next_eid
        assert front.self_check("full") == []
    finally:
        front.close()
