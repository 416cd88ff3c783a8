"""The recovery driver: latest valid snapshot + log-tail replay.

:func:`restore` rebuilds a serving front from a durability directory:

1. **classify crash artifacts** -- :meth:`OpLog.recover_tail` drops (and
   reports) a checksum-torn *final* WAL record; any earlier damage
   raises :class:`~repro.resilience.errors.WALCorruptionError` -- replay
   never silently continues past a corrupt record;
2. **anchor** -- the newest snapshot that passes file validation
   (skipped candidates are reported, never silently ignored).  A log
   pruned past the anchor raises
   :class:`~repro.resilience.errors.SnapshotStaleError`: the gap makes
   replay impossible and an older snapshot only widens it;
3. **seed** -- the front is rebuilt from the snapshot's edge registry in
   ascending eid order **through the normal apply path**, so the
   rebuild's work lands on the ordinary counters (DESIGN |S| 6: recovery
   cost is measured, not amortized away).  The rebuilt front must
   reproduce the snapshot's recorded ``state_fingerprint`` digest before
   any tail replay -- a snapshot whose contents do not rebuild to their
   own fingerprint is refused;
4. **replay** -- the retained WAL tail re-applies batch by batch via the
   same apply path, restoring ``seq``, the eid counter and the
   source-stream resume cursor exactly.  Each record's ops are first
   validated against the live registry (:func:`_check_record`), so a
   well-checksummed but forged record raises ``WALCorruptionError``
   instead of reaching the apply path;
5. **resume** -- the returned front has durability re-attached and live:
   new batches append at ``seq + 1`` and the caller resumes its source
   stream at ``report["cursor"] + 1``.

The twin contract -- a restored front is *bit-identical* (by
``state_fingerprint``) to a never-crashed twin that applied the same
source stream -- is asserted by the crash-restart soak
(:mod:`repro.resilience.soak`) and the kill-matrix tests, which own the
twin; :func:`restore` itself enforces every integrity gate that can be
checked from the durable artifacts alone.
"""

from __future__ import annotations

import numbers
import os

from ..core.model import check_endpoints, check_weight
from ..resilience.errors import SnapshotStaleError, WALCorruptionError
from .snapshot import fingerprint_digest, latest_valid_snapshot
from .wal import WAL_FILENAME, OpLog

__all__ = ["restore", "resume_point", "STRUCTURAL_KEYS"]

#: configuration keys that name *what* was persisted (as opposed to how
#: it is operated); an override conflicting with the stored value cannot
#: restore the same structure and raises SnapshotStaleError
STRUCTURAL_KEYS = ("kind", "n", "engine", "sparsify", "backend", "K",
                   "max_edges")


def _build_front(config: dict, directory: str, overrides: dict):
    cfg = dict(config)
    cfg.update(overrides)
    kind = cfg.pop("kind")
    if kind == "batched":
        from ..serve.batched import BatchedMSF
        return BatchedMSF(
            cfg.pop("n"), durability="wal", durable_dir=directory,
            durable_resume=True, **cfg)
    if kind == "cluster":
        from ..serve.clustered import ClusterMSF
        return ClusterMSF(
            cfg.pop("n"), durability="wal", durable_dir=directory,
            durable_resume=True, **cfg)
    raise WALCorruptionError(
        f"stored config names unknown front kind {kind!r}",
        path=os.path.join(directory, WAL_FILENAME))


def _check_record(rec, edges, n: int, path: str) -> None:
    """Reject a WAL record whose ops cannot replay on the registry.

    ``edges`` is the front's live ``eid -> (u, v, w)`` registry before
    the record; each op is checked against it as the record's earlier
    ops leave it: the tag and arity, an insert's eid, endpoints and
    weight, that an insert's eid is not live and that a delete's is.
    """
    added: set = set()
    removed: set = set()
    try:
        for op in rec.ops:
            tag = op[0] if op else None
            if tag == "del" and len(op) == 2:
                eid = op[1]
                if eid in added:
                    added.discard(eid)
                elif eid in edges and eid not in removed:
                    removed.add(eid)
                else:
                    raise ValueError(f"delete of unknown edge {eid!r}")
            elif tag == "ins" and len(op) == 5:
                _t, eid, u, v, w = op
                if isinstance(eid, bool) or not isinstance(
                        eid, numbers.Integral):
                    raise ValueError(f"edge id {eid!r} is not an integer")
                check_endpoints(u, v, n)
                check_weight(w)
                if eid in added or (eid in edges and eid not in removed):
                    raise ValueError(f"insert of live edge id {eid}")
                if eid in removed:
                    removed.discard(eid)
                else:
                    added.add(eid)
            else:
                raise ValueError(f"malformed op {op!r}")
    except (TypeError, ValueError) as exc:
        raise WALCorruptionError(
            f"WAL record at seq {rec.seq} does not replay: {exc}",
            seq=rec.seq, path=path) from exc


def restore(directory: str, *, level: str = "cheap",
            **overrides) -> tuple[object, dict]:
    """Rebuild a serving front from a durability directory.

    Returns ``(front, report)``; the front is live with durability
    re-attached.  ``overrides`` may adjust operational parameters
    (``pool_size``, ``consistency``, ``batch_size``, ``snapshot_every``,
    ``processes``...); overriding a structural key with a conflicting
    value raises :class:`SnapshotStaleError`.  ``level`` selects the
    post-restore self-check tier (findings are reported, not raised).
    """
    directory = str(directory)
    wal_path = os.path.join(directory, WAL_FILENAME)
    if not os.path.exists(wal_path):
        raise WALCorruptionError(
            f"no durable log at {wal_path}", path=wal_path)
    log = OpLog(wal_path)
    try:
        tail_report = log.recover_tail()
        config = log.get_meta("config")
        if config is None:
            raise WALCorruptionError(
                "durable log carries no configuration meta",
                path=wal_path)
        for key in STRUCTURAL_KEYS:
            if key in overrides and key in config \
                    and overrides[key] != config[key]:
                raise SnapshotStaleError(
                    f"structural config mismatch on {key!r}: stored "
                    f"{config[key]!r}, requested {overrides[key]!r}",
                    path=wal_path)

        snap_path, snap, skipped = latest_valid_snapshot(directory)
        base = int(snap["seq"]) if snap is not None else 0
        if log.base_seq() > base:
            raise SnapshotStaleError(
                f"log pruned through seq {log.base_seq()} but the newest "
                f"valid snapshot is at seq {base}: the gap cannot be "
                f"replayed", seq=base,
                path=snap_path if snap_path is not None else wal_path)
        if snap is not None and snap.get("config") != config:
            raise SnapshotStaleError(
                f"snapshot config {snap.get('config')!r} disagrees with "
                f"the log's {config!r}", seq=base, path=snap_path)
        records = log.records(start_seq=base + 1)
    finally:
        log.close()

    front = _build_front(config, directory, overrides)
    sink = front.durability
    sink.suspended = True
    try:
        cursor = -1
        if snap is not None:
            front._restore_edges([tuple(row) for row in snap["edges"]])
            from ..resilience.checks import state_fingerprint
            digest = fingerprint_digest(state_fingerprint(front))
            if digest != snap["fingerprint"]:
                raise WALCorruptionError(
                    f"snapshot at seq {base} does not rebuild to its own "
                    f"fingerprint digest", seq=base, path=snap_path)
            front._resume_counters(seq=base, next_eid=int(snap["next_eid"]))
            cursor = int(snap["cursor"])
        for rec in records:
            _check_record(rec, front._edges, front.n, wal_path)
            front._replay_committed(rec.ops)
            front._resume_counters(seq=rec.seq, next_eid=rec.next_eid)
            cursor = rec.cursor
        sink.cursor = cursor
    except BaseException:
        close = getattr(front, "close", None)
        if close is not None:
            close()
        raise
    finally:
        sink.suspended = False

    findings = front.self_check(level)
    report = {
        "directory": directory,
        "snapshot": ({"path": snap_path, "seq": base}
                     if snap is not None else None),
        "snapshots_skipped": skipped,
        "wal": tail_report,
        "replayed_batches": len(records),
        "seq": front.epoch,
        "cursor": cursor,
        "next_eid": front._next_eid,
        "findings": [str(f) for f in findings],
    }
    return front, report


def resume_point(report: dict) -> int:
    """First source-stream op index the caller should re-apply."""
    return int(report["cursor"]) + 1
