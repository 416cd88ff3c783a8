"""Restore-driver tests: snapshot + log-tail replay, gates, resume."""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.persist import restore, resume_point
from repro.persist.snapshot import (_body_digest, list_snapshots,
                                    load_snapshot)
from repro.persist.wal import WAL_FILENAME
from repro.resilience.checks import state_fingerprint
from repro.resilience.errors import SnapshotStaleError, WALCorruptionError
from repro.serve.batched import BatchedMSF
from repro.serve.clustered import ClusterMSF


def _drive(front, n_ops=50, seed=0, cursor=True):
    """A deterministic mixed stream; returns the op list for twins."""
    rng = random.Random(seed)
    live, ops = [], []
    for i in range(n_ops):
        if cursor:
            front.durability.cursor = i
        if rng.random() < 0.6 or not live:
            u, v = rng.randrange(front.n), rng.randrange(front.n)
            w = round(rng.uniform(0, 50), 6)
            live.append(front.insert_edge(u, v, w))
            ops.append(("ins", u, v, w))
        else:
            eid = live.pop(rng.randrange(len(live)))
            front.delete_edge(eid)
            ops.append(("del", eid))
    front.flush()
    return ops


def _twin_of(ops, n=16, **kw):
    twin = BatchedMSF(n, batch_size=5, pool_size=1, **kw)
    for op in ops:
        if op[0] == "ins":
            twin.insert_edge(op[1], op[2], op[3])
        else:
            twin.delete_edge(op[1])
    twin.flush()
    return twin


def test_restore_replay_only(tmp_path):
    """No snapshot ever written: full-log replay rebuilds the front."""
    front = BatchedMSF(16, batch_size=5, pool_size=1, durability="wal",
                       durable_dir=str(tmp_path), snapshot_every=10_000)
    ops = _drive(front)
    fp = state_fingerprint(front)
    front.close()
    assert list_snapshots(str(tmp_path)) == []
    restored, report = restore(str(tmp_path))
    assert report["snapshot"] is None
    assert report["replayed_batches"] > 0
    assert report["findings"] == []
    assert state_fingerprint(restored) == fp
    restored.close()


def test_restore_snapshot_plus_tail(tmp_path):
    front = BatchedMSF(16, batch_size=5, pool_size=1, durability="wal",
                       durable_dir=str(tmp_path), snapshot_every=3)
    ops = _drive(front)
    fp = state_fingerprint(front)
    epoch, next_eid = front.epoch, front._next_eid
    front.close()
    restored, report = restore(str(tmp_path))
    assert report["snapshot"] is not None
    assert report["seq"] == epoch
    assert report["cursor"] == len(ops) - 1
    assert restored._next_eid == next_eid
    assert state_fingerprint(restored) == fp
    restored.close()


def test_resume_continues_identically(tmp_path):
    """After restore, continued ops produce the same eids and state as a
    never-crashed twin -- including eids consumed by annihilated
    inserts that no WAL record ever showed."""
    front = BatchedMSF(16, batch_size=4, pool_size=1, durability="wal",
                       durable_dir=str(tmp_path), snapshot_every=3)
    ops = []
    for i in range(3):   # annihilating batches: ins+del inside one batch
        front.durability.cursor = len(ops)
        e = front.insert_edge(i, i + 1, 1.0 + i)
        ops.append(("ins", i, i + 1, 1.0 + i))
        front.durability.cursor = len(ops)
        front.delete_edge(e)
        ops.append(("del", e))
    for i in range(8):
        front.durability.cursor = len(ops)
        front.insert_edge(i % 16, (i + 5) % 16, float(i))
        ops.append(("ins", i % 16, (i + 5) % 16, float(i)))
    front.flush()
    front.close()

    restored, report = restore(str(tmp_path))
    tail = [("ins", 3, 9, 77.0), ("ins", 4, 11, 78.0), ("del", 12)]
    twin = _twin_of(ops + tail)
    for op in tail:
        if op[0] == "ins":
            restored.insert_edge(op[1], op[2], op[3])
        else:
            restored.delete_edge(op[1])
    restored.flush()
    assert restored._next_eid == twin._next_eid
    assert state_fingerprint(restored) == state_fingerprint(twin)
    restored.close()


def test_cluster_restore_round_trip(tmp_path):
    front = ClusterMSF(12, batch_size=4, durability="wal",
                       durable_dir=str(tmp_path), snapshot_every=3)
    eids = [front.insert_edge(i % 12, (i + 3) % 12, float(i + 1))
            for i in range(18)]
    front.delete_edge(eids[2])
    front.flush()
    fp = state_fingerprint(front)
    front.close()
    restored, report = restore(str(tmp_path))
    assert isinstance(restored, ClusterMSF)
    assert state_fingerprint(restored) == fp
    assert report["findings"] == []
    restored.close()


def test_operational_override_allowed(tmp_path):
    front = BatchedMSF(16, batch_size=5, pool_size=1, durability="wal",
                       durable_dir=str(tmp_path))
    _drive(front, n_ops=12)
    front.close()
    restored, _report = restore(str(tmp_path), batch_size=2,
                                consistency="deferred")
    assert restored.batch_size == 2
    # the stored config -- not the override -- remains the one snapshots
    # will carry (config of record)
    assert restored.durability.config["batch_size"] == 5
    restored.close()


def test_structural_override_conflict_is_stale(tmp_path):
    front = BatchedMSF(16, batch_size=5, pool_size=1, durability="wal",
                       durable_dir=str(tmp_path))
    _drive(front, n_ops=12)
    front.close()
    with pytest.raises(SnapshotStaleError):
        restore(str(tmp_path), n=32)


@pytest.mark.parametrize("sparsify", [True, False])
def test_legacy_front_config(tmp_path, monkeypatch, sparsify):
    """Logs written while BatchedMSF could also run a bare degree reducer
    record ``sparsify`` and ``max_edges``: a sparsified log restores
    bit-identically, a flat one names a structure that no longer exists."""
    current = BatchedMSF._durable_config
    monkeypatch.setattr(BatchedMSF, "_durable_config", lambda self: {
        **current(self), "sparsify": sparsify, "max_edges": None})
    front = BatchedMSF(16, batch_size=5, pool_size=1, durability="wal",
                       durable_dir=str(tmp_path), snapshot_every=3)
    ops = _drive(front, n_ops=40)
    front.close()
    monkeypatch.undo()
    assert list_snapshots(str(tmp_path))
    if not sparsify:
        with pytest.raises(SnapshotStaleError, match="sparsify=False"):
            restore(str(tmp_path))
        return
    restored, report = restore(str(tmp_path))
    try:
        assert report["findings"] == []
        assert restored.durability.config["sparsify"] is True
        assert state_fingerprint(restored) == state_fingerprint(
            _twin_of(ops))
    finally:
        restored.close()


def test_pruned_past_snapshot_is_stale(tmp_path):
    front = BatchedMSF(16, batch_size=5, pool_size=1, durability="wal",
                       durable_dir=str(tmp_path), snapshot_every=2)
    _drive(front, n_ops=30)
    epoch = front.epoch
    front.durability.log.prune_through(epoch)
    front.close()
    for path in list_snapshots(str(tmp_path)):
        os.remove(path)
    with pytest.raises(SnapshotStaleError) as ei:
        restore(str(tmp_path))
    assert ei.value.path is not None


def test_missing_directory_is_structured(tmp_path):
    with pytest.raises(WALCorruptionError) as ei:
        restore(str(tmp_path / "never"))
    assert ei.value.path.endswith(WAL_FILENAME)


def test_snapshot_must_rebuild_to_own_fingerprint(tmp_path):
    """A snapshot whose contents pass the file checksum but do not
    reproduce their recorded state fingerprint is refused: re-checksum a
    tampered body and watch restore reject it at the semantic gate."""
    front = BatchedMSF(16, batch_size=5, pool_size=1, durability="wal",
                       durable_dir=str(tmp_path), snapshot_every=2)
    _drive(front, n_ops=30)
    front.close()
    path = list_snapshots(str(tmp_path))[-1]
    state = load_snapshot(path)
    assert state["edges"], "need a non-empty registry to tamper with"
    state["edges"] = state["edges"][:-1]
    state["crc"] = _body_digest(state)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh, sort_keys=True, separators=(",", ":"))
    with pytest.raises(WALCorruptionError, match="fingerprint"):
        restore(str(tmp_path))


def test_restore_charges_replay_work(tmp_path):
    """DESIGN |S| 6: recovery work is measured -- the rebuilt front's own
    op counters carry the replay cost."""
    front = BatchedMSF(16, batch_size=5, pool_size=1, durability="wal",
                       durable_dir=str(tmp_path), snapshot_every=4)
    _drive(front, n_ops=40)
    front.close()
    restored, _report = restore(str(tmp_path))
    assert sum(restored._impl.ops_by_node().values()) > 0
    restored.close()


def test_resume_point_helper():
    assert resume_point({"cursor": 41}) == 42
    assert resume_point({"cursor": -1}) == 0


#: forged records, each built from the front's next free eid and one
#: live eid; every one passes the checksum and hash chain
FORGED = {
    "nan-weight": lambda new, live: [("ins", new, 0, 1, float("nan"))],
    "str-weight": lambda new, live: [("ins", new, 0, 1, "1.5")],
    "endpoint-range": lambda new, live: [("ins", new, 0, 99, 1.0)],
    "unknown-delete": lambda new, live: [("del", new + 1000)],
    "duplicate-eid": lambda new, live: [("ins", live, 2, 3, 1.0)],
    "unknown-tag": lambda new, live: [("upd", live, 2.0)],
}

#: the stream below leaves 29 live edges: more than ``2n`` on 12
#: vertices, so that tree grows, and at most ``2n`` on 16, so that one
#: stays a flat root
FRONTS = {
    "sparsified": lambda d: BatchedMSF(12, batch_size=4, durability="wal",
                                       durable_dir=d, snapshot_every=3),
    "flat": lambda d: BatchedMSF(16, batch_size=4, durability="wal",
                                 durable_dir=d, snapshot_every=3),
    "cluster": lambda d: ClusterMSF(12, batch_size=4, processes=False,
                                    durability="wal", durable_dir=d,
                                    snapshot_every=3),
}


@pytest.mark.parametrize("record", list(FORGED))
@pytest.mark.parametrize("front_kind", list(FRONTS))
def test_forged_record_raises_wal_corruption(tmp_path, front_kind, record):
    """A well-checksummed record whose ops cannot replay is corruption,
    whatever the front: it never reaches the apply path."""
    from repro.persist.wal import OpLog

    front = FRONTS[front_kind](str(tmp_path))
    eids = [front.insert_edge(i % 12, (i + 5) % 12, float(i + 1))
            for i in range(30)]
    front.delete_edge(eids[3])
    front.flush()
    if front_kind != "cluster":
        assert front._impl.flat is (front_kind == "flat")
    seq, next_eid = front.epoch, front._next_eid
    front.close()
    with OpLog(os.path.join(str(tmp_path), WAL_FILENAME)) as log:
        log.append(seq + 1, FORGED[record](next_eid, eids[0]),
                   next_eid=next_eid + 1)
    overrides = {"processes": False} if front_kind == "cluster" else {}
    with pytest.raises(WALCorruptionError) as info:
        restore(str(tmp_path), **overrides)
    assert info.value.seq == seq + 1
    assert info.value.path.endswith(WAL_FILENAME)
