"""Shard worker: the per-process engine loop of the serving cluster.

Each worker process owns one shard -- a contiguous global vertex range
``[lo, hi)`` -- inside a :class:`ShardEngine`: a shard-scoped
:class:`~repro.core.sparsify.SparsifiedMSF`
(:meth:`~repro.core.sparsify.SparsifiedMSF.for_vertex_range`) whose
local vertex ids are ``u - lo``.  The worker:

1. (re)builds its engine from the coordination store's authoritative
   edge registry (ascending eid -- by MSF uniqueness this reproduces the
   exact forest regardless of original arrival order),
2. claims its shard in the store (worker id, pid, generation),
3. starts a daemon heartbeat thread beating into the store,
4. loops on the coordinator pipe: per batch, applies its ops in
   canonical order through ``insert_reported``/``delete_reported`` and
   replies with the per-op shard-MSF deltas (eid lists -- the
   coordinator owns the id -> (u, v, w) registry, so deltas stay tiny).

Workers never talk to each other and never see another shard's edges;
all merging is the coordinator's job.  The loop is intentionally dumb --
every policy decision (routing, recovery, verification) lives in
:mod:`repro.cluster.coordinator`.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from ..core.sparsify import SparsifiedMSF

__all__ = ["ShardEngine", "worker_main"]


class ShardEngine:
    """A shard-scoped sparsification tree with global<->local translation."""

    def __init__(self, lo: int, hi: int, K: Optional[int] = None) -> None:
        self.lo = lo
        self.hi = hi
        self.tree = SparsifiedMSF.for_vertex_range(lo, hi, K=K)
        self.ops_applied = 0

    def apply(self, op: tuple) -> tuple[list[int], list[int]]:
        """One canonical op (global vertex ids) -> shard-MSF eid delta."""
        self.ops_applied += 1
        if op[0] == "ins":
            _t, eid, u, v, w = op
            return self.tree.insert_reported(u - self.lo, v - self.lo, w,
                                             eid=eid)
        return self.tree.delete_reported(op[1])

    def rebuild_from(self, edges) -> int:
        """Replay ``(eid, u, v, w)`` records (ascending eid) into a fresh
        tree; returns the number of edges loaded."""
        count = 0
        for eid, u, v, w in edges:
            self.tree.insert_edge(u - self.lo, v - self.lo, w, eid=eid)
            count += 1
        return count

    def fingerprint(self) -> tuple:
        """Logical state digest (registry, forest, fsum weight) -- the
        twin-comparison currency of the recovery ladder."""
        from ..resilience.checks import state_fingerprint
        return state_fingerprint(self.tree)

    def edge_count(self) -> int:
        return self.tree.edge_count()


def _heartbeat_loop(store, worker_id: str, interval: float,
                    stop: threading.Event) -> None:
    pid = os.getpid()
    while not stop.is_set():
        try:
            store.heartbeat(worker_id, pid)
        except Exception:  # noqa: BLE001 - a torn-down store must not
            return         # crash the worker loop it serves
        stop.wait(interval)


def worker_main(worker_id: str, shard: int, lo: int, hi: int,
                generation: int, store_path: str, conn,
                beat_interval: float = 0.1) -> None:
    """Entry point of one worker process (module-level: spawn-safe).

    ``conn`` is the worker end of a ``multiprocessing.Pipe``.  The store
    connection is opened *here*, inside the child -- SQLite connections
    must never cross a fork.
    """
    from .store import CoordinationStore
    store = CoordinationStore(store_path)
    engine = ShardEngine(lo, hi)
    loaded = engine.rebuild_from(store.shard_edges(shard))
    store.claim_shard(shard, worker_id, os.getpid(), generation)
    store.heartbeat(worker_id, os.getpid())
    store.log_event(
        "worker-start",
        f"worker={worker_id} shard={shard} range=[{lo},{hi}) "
        f"gen={generation} rebuilt_edges={loaded}")
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop, args=(store, worker_id, beat_interval, stop),
        name=f"heartbeat-{worker_id}", daemon=True)
    beat.start()
    batches = 0
    try:
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "batch":
                _t, seq, ops = msg
                results = []
                try:
                    for idx, op in ops:
                        added, removed = engine.apply(op)
                        results.append((idx, sorted(added), sorted(removed)))
                except Exception as exc:  # noqa: BLE001 - reported to the
                    # coordinator, which owns the recovery policy
                    conn.send(("error", seq, repr(exc)))
                    continue
                batches += 1
                conn.send(("deltas", seq, results))
                store.ack_batch(shard, worker_id, seq)
            elif tag == "fingerprint":
                conn.send(("fingerprint", engine.fingerprint()))
            elif tag == "stats":
                conn.send(("stats", {
                    "worker_id": worker_id, "shard": shard,
                    "generation": generation, "batches": batches,
                    "ops_applied": engine.ops_applied,
                    "edge_count": engine.edge_count(),
                }))
            elif tag == "stop":
                break
            else:
                conn.send(("error", -1, f"unknown message tag {tag!r}"))
    except (EOFError, KeyboardInterrupt):
        pass  # coordinator went away; exit quietly
    finally:
        stop.set()
        try:
            store.log_event("worker-stop",
                            f"worker={worker_id} shard={shard} "
                            f"batches={batches}")
        except Exception:  # noqa: BLE001 - best-effort on teardown
            pass
        store.close()
