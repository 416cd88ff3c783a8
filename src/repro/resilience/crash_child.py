"""Subprocess body for the crash-restart soak campaign.

Run as ``python -m repro.resilience.crash_child '<json config>'`` by
:func:`repro.resilience.soak.run_crash_campaign`.  The child rebuilds
the campaign's deterministic ``restart_heavy`` op stream, restores from
the durability directory when a WAL already exists (writing a
``round-<r>-restore.json`` audit record *before* doing anything else,
so even a round that is later killed documents its recovery), resumes
the stream at the logged cursor with the eid-prediction contract
asserted op by op, and -- per the round's config -- SIGKILLs itself at
a source-op index or at a WAL-append boundary (optionally tearing the
final record first, via the ``wal.append`` fault site, to leave the
partial-write artifact a real crash leaves).  A round that survives to
the end of the stream flushes, records its ``state_fingerprint``
digest in ``round-<r>.json``, and exits 0.

Exit statuses the parent accepts: death by SIGKILL (the scheduled
crash) or 0 with a completion record.  Anything else -- including an
eid-prediction failure, which would mean the restored counter state
diverged -- is a campaign failure.
"""

from __future__ import annotations

import json
import os
import signal
import sys


def _apply(front, op) -> None:
    if op[0] == "q":
        front.connected(op[1], op[2])
    elif op[0] == "w":
        front.msf_weight()
    elif op[0] == "del":
        front.delete_edge(op[1])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    cfg = json.loads(args[0])
    directory = cfg["dir"]

    from ..persist import restore, resume_point
    from ..persist.snapshot import fingerprint_digest
    from ..persist.wal import WAL_FILENAME
    from ..serve.batched import BatchedMSF
    from . import faults
    from .checks import state_fingerprint
    from .soak import restart_heavy_ops

    if "ops" in cfg:            # explicit trace (the kill-matrix tests)
        ops = [tuple(op) for op in cfg["ops"]]
    else:
        ops = restart_heavy_ops(cfg["seed"], cfg["n"], cfg["n_ops"],
                                burst=cfg.get("burst", 24),
                                churn=cfg.get("churn", 16))
    eid_of: dict[int, int] = {}
    next_eid = 1
    for i, op in enumerate(ops):
        if op[0] == "ins":
            eid_of[i] = next_eid
            next_eid += 1

    restore_record = os.path.join(directory,
                                  f"round-{cfg['round']}-restore.json")
    if os.path.exists(os.path.join(directory, WAL_FILENAME)):
        # cadence is operational (not stored config): without the
        # override a restored front would revert to the default
        front, report = restore(directory,
                                snapshot_every=cfg["snapshot_every"])
        start = resume_point(report)
        with open(restore_record, "w", encoding="utf-8") as fh:
            json.dump({"resumed": True, "cursor": report["cursor"],
                       "start": start, "wal": report["wal"],
                       "snapshot": report["snapshot"],
                       "snapshots_skipped": report["snapshots_skipped"],
                       "replayed_batches": report["replayed_batches"],
                       "findings": report["findings"]}, fh)
        if report["findings"]:
            raise SystemExit(f"restore found: {report['findings']}")
    else:
        front = BatchedMSF(
            cfg["n"], engine=cfg["engine"], sparsify=cfg["sparsify"],
            batch_size=cfg["batch_size"], pool_size=1,
            backend=cfg["backend"], consistency="deferred",
            durability="wal", durable_dir=directory,
            snapshot_every=cfg["snapshot_every"])
        start = 0
        with open(restore_record, "w", encoding="utf-8") as fh:
            json.dump({"resumed": False, "start": 0}, fh)

    sink = front.durability
    if cfg.get("kill_append"):
        if cfg.get("kill_append_mode") == "before":
            sink.kill_at_append = cfg["kill_append"]
        else:
            sink.kill_after_append = cfg["kill_append"]
        if cfg.get("tear_last"):
            # tear the record the kill lands on: the crash artifact is a
            # checksum-invalid FINAL record the next restore must drop
            faults.arm(faults.FaultPlan([faults.Fault(
                "wal.append", nth=cfg["kill_append"] - 1,
                param=cfg["seed"] or 1)]))

    kill_op = cfg.get("kill_op")
    for i in range(start, len(ops)):
        if kill_op is not None and i == kill_op:
            os.kill(os.getpid(), signal.SIGKILL)
        sink.cursor = i
        op = ops[i]
        if op[0] == "ins":
            eid = front.insert_edge(op[1], op[2], op[3])
            if eid != eid_of[i]:
                raise SystemExit(
                    f"eid drift at op {i}: front assigned {eid}, "
                    f"stream predicted {eid_of[i]}")
        else:
            _apply(front, op)
    front.flush()
    faults.disarm()

    out = {"completed": True, "start": start,
           "digest": fingerprint_digest(state_fingerprint(front)),
           "epoch": front.epoch, "next_eid": front._next_eid,
           "msf_weight": front.msf_weight()}
    with open(os.path.join(directory, f"round-{cfg['round']}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    front.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
