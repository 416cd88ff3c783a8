"""Regression: column-sweep snapshots must not survive id-tenure changes.

The trace-replay fast path of ``column_sweep_kernel`` diffs ``C[:, j]``
against a per-column snapshot to find the leaves whose inputs changed
since the last sweep.  The diff compares *values*, so a snapshot recorded
while chunk id ``i`` belonged to one chunk must never be diffed against a
later tenant of the same id: a value coincidence across tenures (the
classic ABA) would mask a genuine ownership change and leave LSDS
aggregates stale -- the parallel engine then serves phantom replacement
edges ("gamma promised a replacement edge").

``ChunkSpace.assign_id`` / ``release_id`` therefore drop all column
snapshots; this test drives a churn-heavy batched workload (the original
reproducer) with a differential validator on every incremental sweep.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip(
    "numpy", reason="drives the par kernels' numpy column snapshots",
    exc_type=ImportError)

from repro.core.par import kernels as KN
from repro.pram.machine import Machine
from repro.resilience.soak import generate_ops
from repro.serve.batched import BatchedMSF


@pytest.fixture()
def replay_col_sweep_only(monkeypatch):
    """Force every kernel except col_sweep off the replay tier, so the
    incremental sweep path is exercised as hard as possible."""
    orig = Machine.replay_plan
    monkeypatch.setattr(
        Machine, "replay_plan",
        lambda self, key: orig(self, key) if key[0] == "col_sweep" else None)


def _validate_all_columns(space, registry):
    """Every internal LSDS vertex aggregate == min/OR over its leaves."""
    for lst in registry.long_lists:
        root = lst.root
        if not root.height:
            continue

        def rec(nd):
            if nd.is_leaf:
                return (space.row_views[nd.item.id].copy(),
                        nd.item.memb_row.copy())
            cadj = memb = None
            for kid in nd.kids:
                kc, km = rec(kid)
                if cadj is None:
                    cadj, memb = kc, km
                else:
                    np.minimum(cadj, kc, out=cadj)
                    np.logical_or(memb, km, out=memb)
            assert (nd.agg[0] == cadj).all(), "stale CAdj aggregate"
            assert (nd.agg[1] == memb).all(), "stale Memb aggregate"
            return cadj, memb

        rec(root)


def test_incremental_sweep_survives_id_churn(replay_col_sweep_only):
    """The original failing workload: serve-layer batches with heavy
    chunk restructuring (repeated release/assign of the same ids inside
    one flush).  Without snapshot invalidation the engine self-corrupts
    and the serving front logs spurious recoveries."""
    ops = generate_ops(3, 24, 160)
    front = BatchedMSF(24, engine="parallel", batch_size=16, pool_size=1)
    # the stream never passes 2n live edges: the root engine serves alone
    core = front._impl.root.engine.core
    core.machine.set_audit("fast")
    for i, op in enumerate(ops):
        if op[0] == "ins":
            front.insert_edge(op[1], op[2], op[3])
        elif op[0] == "del":
            front.delete_edge(op[1])
        elif op[0] == "q":
            front.connected(op[1], op[2])
        elif op[0] == "w":
            front.msf_weight()
        front.flush()
        if i % 8 == 0:
            _validate_all_columns(core.fabric.space, core.fabric.registry)
    assert front.stats["recoveries"] == 0, \
        "clean run must not trigger recovery"
    assert front._impl.root.engine.core is core
    assert front.self_check("full") == []


def test_snapshots_dropped_on_id_churn():
    """White-box: assign_id / release_id clear the column snapshots."""
    from repro.core.msf import DynamicMSF
    t = DynamicMSF(24, engine="parallel", sparsify=False)
    core = t._impl.core
    core.machine.set_audit("fast")
    for i in range(1, 30):
        t.insert_edge(i % 24, (i * 7 + 1) % 24, float(i))
    space = core.fabric.space
    assert space.col_snap, "fast-tier sweeps should have snapshotted"
    chunk = next(c for c in space.chunk_of_id if c is not None)
    space.release_id(chunk)
    assert not space.col_snap
    space.col_snap[0] = space.C[:, 0].copy()
    space.assign_id(chunk)
    assert not space.col_snap
    # the engine's row contents were clobbered white-box style: do NOT
    # return it to the arena
