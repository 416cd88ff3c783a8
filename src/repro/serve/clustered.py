"""`ClusterMSF` -- the multi-process sharded serving front.

Same facade contract as :class:`repro.serve.BatchedMSF` (buffered
writes, deterministic coalescing, epoch-stamped reads from the merge
tree's root engine, strong/deferred consistency) but the backend is a
:class:`repro.cluster.Coordinator`: a pool of worker *processes*, each
owning a warm shard-scoped sparsification engine over a contiguous
vertex range, plus one coordinator-owned merge tree that holds the shard
forests and the raw cross-shard edges together.

**Determinism contract.**  For any op stream and any ``pool_size``, the
final forest (``msf_ids``), the eid streams, and the incrementally
folded ``msf_weight`` are bit-identical to the serial
``BatchedMSF(sparsify=True, pool_size=1)`` path with the same batch
boundaries: batches are coalesced by the same canonical algebra, ops
are merged in the same canonical order, and each op's net global MSF
delta (at most one edge in, one out -- the MSF is unique under the
strict ``(weight, eid)`` order) is folded with term-for-term identical
float arithmetic.

**Recovery.**  A worker that dies mid-campaign (SIGKILL, crash,
poisoned op) is replaced transparently: stale claim cleaned up in the
coordination store, a fresh process rebuilds the shard from the
authoritative edge registry, and the rebuild is fingerprint-verified
against a never-crashed twin before the batch re-dispatches.  Only an
exhausted retry ladder surfaces, as
:class:`~repro.resilience.errors.CorruptionError` or
:class:`~repro.resilience.errors.QuarantineExhausted`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..cluster.coordinator import Coordinator
from ..core.model import check_endpoints, check_weight
from ..resilience.errors import UnknownEdgeError
from .batch import CoalescedBatch, coalesce
from .snapshot import ConnectivitySnapshot

__all__ = ["ClusterMSF"]


class ClusterMSF:
    """Sharded multi-process dynamic MSF behind the ``BatchedMSF`` API.

    Parameters
    ----------
    n:
        number of vertices (``0..n-1``).
    pool_size:
        worker-process count (= shard count).  ``1`` is the
        single-shard cluster (everything lands in one worker; the
        merge tree holds only that worker's forest); ``None`` picks a
        small default.
    batch_size:
        auto-flush threshold for the write buffer.
    consistency:
        ``"strong"`` (reads flush first) or ``"deferred"`` (bounded
        staleness), exactly as in :class:`BatchedMSF`.
    processes:
        ``False`` runs the workers in-process (deterministic unit-test
        mode; the coordination protocol still flows through the store).
    store_path:
        coordination-database path; ``None`` uses a self-cleaning
        temporary directory.
    """

    def __init__(self, n: int, *, pool_size: Optional[int] = None,
                 batch_size: int = 64, consistency: str = "strong",
                 K: Optional[int] = None,
                 processes: bool = True,
                 store_path: Optional[str] = None,
                 start_method: Optional[str] = None,
                 beat_interval: float = 0.1,
                 stale_timeout: float = 5.0,
                 durability: str = "off",
                 durable_dir: Optional[str] = None,
                 snapshot_every: int = 64,
                 durable_resume: bool = False) -> None:
        # raised (not asserted): public entry-point validation must
        # survive `python -O`
        if consistency not in ("strong", "deferred"):
            raise ValueError(
                f"consistency must be 'strong' or 'deferred', "
                f"got {consistency!r}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if durability not in ("off", "wal"):
            raise ValueError(
                f"durability must be 'off' or 'wal', got {durability!r}")
        if durability == "wal" and durable_dir is None:
            raise ValueError("durability='wal' requires durable_dir")
        self.n = n
        self.batch_size = batch_size
        self.consistency = consistency
        self._K = K
        self._coord = Coordinator(
            n, shards=pool_size, K=K, processes=processes,
            store_path=store_path, start_method=start_method,
            beat_interval=beat_interval, stale_timeout=stale_timeout)
        self.pool_size = self._coord.shard_map.k
        # plain int (not itertools.count) so durability can record and
        # restore the counter exactly (see BatchedMSF)
        self._next_eid = 1
        self._pending: list[tuple] = []      # buffered ops, submission order
        self._pending_ins: set[int] = set()  # not-yet-cancelled batch inserts
        self._live: set[int] = set()         # edge ids applied and live
        # the coordinator's authoritative registry, shared by reference so
        # `state_fingerprint` and the recovery twins read one source of
        # truth (same role as BatchedMSF._edges)
        self._edges = self._coord.edges
        self._epoch = 0
        self._snapshot: Optional[ConnectivitySnapshot] = None
        self.stats = {
            "batches": 0, "ops_submitted": 0, "ops_applied": 0,
            "ops_cancelled": 0, "ops_deduped": 0, "snapshot_builds": 0,
            "queries": 0, "ops_rejected": 0, "recoveries": 0,
        }
        self._durable = None
        if durability == "wal":
            from ..persist.wal import DurableSink
            self._durable = DurableSink(
                durable_dir, config=self._durable_config(),
                snapshot_every=snapshot_every, resume=durable_resume)

    def _durable_config(self) -> dict:
        """Construction parameters recorded in the durable log's meta."""
        return {"kind": "cluster", "n": self.n,
                "pool_size": self.pool_size, "K": self._K,
                "batch_size": self.batch_size,
                "consistency": self.consistency}

    # ------------------------------------------------------------- updates

    def insert_edge(self, u: int, v: int, weight: float) -> int:
        """Buffer an edge insertion; returns its id immediately."""
        check_weight(weight)
        check_endpoints(u, v, self.n)
        w = float(weight)
        eid = self._next_eid
        self._next_eid += 1
        self._pending.append(("ins", eid, u, v, w))
        self._pending_ins.add(eid)
        self.stats["ops_submitted"] += 1
        self._maybe_flush()
        return eid

    def delete_edge(self, eid: int) -> None:
        """Buffer an edge deletion (cancels a same-batch insert)."""
        if eid in self._pending_ins:
            self._pending_ins.discard(eid)
        elif eid not in self._live:
            raise UnknownEdgeError(eid)
        self._pending.append(("del", eid))
        self.stats["ops_submitted"] += 1
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if len(self._pending) >= self.batch_size:
            self.flush()

    def flush(self) -> Optional[CoalescedBatch]:
        """Coalesce and apply the pending batch across the cluster.

        Worker deaths inside the batch are recovered transparently (see
        the module docstring); only an exhausted ladder raises, and the
        coordination store is only committed for batches every tier
        applied cleanly.
        """
        if not self._pending:
            return None
        batch = coalesce(self._pending, known=self._live)
        self._pending.clear()
        self._pending_ins.clear()
        self.stats["ops_cancelled"] += 2 * batch.cancelled
        self.stats["ops_deduped"] += batch.deduped
        if len(batch):
            before = self._coord.stats["recoveries"]
            self._coord.apply_batch(batch)
            self.stats["recoveries"] += (
                self._coord.stats["recoveries"] - before)
            self.stats["ops_applied"] += len(batch)
            self._live.difference_update(batch.deletes)
            self._live.update(rec[0] for rec in batch.inserts)
            self._epoch += 1         # invalidates the read view
            if self._durable is not None:
                self._durable_commit(batch)
        self.stats["batches"] += 1
        return batch

    # ---------------------------------------------------------- durability

    @property
    def durability(self):
        """The attached :class:`~repro.persist.wal.DurableSink`
        (``None`` when ``durability="off"``); same contract as
        :attr:`BatchedMSF.durability`."""
        return self._durable

    def _durable_commit(self, batch: CoalescedBatch) -> None:
        """Append the committed batch's canonical ops at the new seq.

        The cluster commits whole batches (worker deaths are recovered
        inside :meth:`Coordinator.apply_batch`), so the applied stream
        is exactly ``batch.ops()``.
        """
        sink = self._durable
        if sink.suspended:
            return
        sink.commit(self._epoch, batch.ops(), self._next_eid)
        if sink.snapshot_due(self._epoch):
            self._write_durable_snapshot()

    def _write_durable_snapshot(self) -> str:
        """Write one snapshot of the authoritative registry (observation
        only -- the cluster keeps no facade-local op counters)."""
        from ..persist.snapshot import fingerprint_digest, write_snapshot
        from ..resilience.checks import state_fingerprint
        sink = self._durable
        state = {
            "seq": self._epoch, "cursor": sink.cursor,
            "next_eid": self._next_eid, "config": sink.config,
            "edges": [[eid, u, v, w]
                      for eid, (u, v, w) in sorted(self._edges.items())],
            "fingerprint": fingerprint_digest(state_fingerprint(self)),
        }
        return write_snapshot(sink.directory, state)

    def _restore_edges(self, edges) -> None:
        """Seed the cluster from a snapshot's registry rows as one
        ascending-eid batch through the normal apply path."""
        if not edges:
            return
        batch = CoalescedBatch(
            inserts=tuple(sorted((eid, u, v, w)
                                 for eid, u, v, w in edges)),
            deletes=(), cancelled=0, deduped=0)
        self._coord.apply_batch(batch)
        self._live.update(rec[0] for rec in batch.inserts)
        self._snapshot = None

    def _replay_committed(self, ops) -> None:
        """Re-apply one WAL record's op stream (restore's log-tail
        replay) through the coordinator's normal batch path."""
        dels = tuple(sorted(op[1] for op in ops if op[0] == "del"))
        ins = tuple(sorted(tuple(op[1:]) for op in ops
                           if op[0] != "del"))
        batch = CoalescedBatch(inserts=ins, deletes=dels,
                               cancelled=0, deduped=0)
        if len(batch):
            self._coord.apply_batch(batch)
            self._live.difference_update(batch.deletes)
            self._live.update(rec[0] for rec in batch.inserts)
        self._snapshot = None
        self.stats["batches"] += 1
        self.stats["ops_applied"] += len(batch)

    def _resume_counters(self, *, seq: int, next_eid: int) -> None:
        """Adopt a snapshot's / WAL record's epoch and eid counter."""
        self._epoch = seq
        self._next_eid = next_eid

    # ------------------------------------------------------------- queries

    def _sync(self) -> None:
        if self.consistency == "strong":
            self.flush()

    def _snap(self) -> ConnectivitySnapshot:
        snap = self._snapshot
        if snap is None or snap.epoch != self._epoch:
            snap = ConnectivitySnapshot(
                self.n, self._coord.merge.root.engine, self._epoch)
            self._snapshot = snap
            self.stats["snapshot_builds"] += 1
        return snap

    def connected(self, u: int, v: int) -> bool:
        self._sync()
        self.stats["queries"] += 1
        return self._snap().connected(u, v)

    def component_count(self) -> int:
        self._sync()
        return self._snap().component_count()

    def msf_weight(self) -> float:
        """Delta-maintained total weight (coordinator-folded, O(1))."""
        self._sync()
        self.stats["queries"] += 1
        return self._coord.msf_weight

    def msf_ids(self) -> set[int]:
        self._sync()
        return self._coord.msf_ids()

    def msf_edges(self) -> Iterator[tuple[int, int, float, int]]:
        self._sync()
        yield from self._coord.merge.msf_edges()

    def edge_count(self) -> int:
        """Live edges in the authoritative registry (self-loops included
        -- the same contract as the serial backend's ``edge_count``)."""
        self._sync()
        return len(self._edges)

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def pending_ops(self) -> int:
        return len(self._pending)

    # ---------------------------------------------------------- resilience

    def self_check(self, level: str = "cheap") -> list:
        """Tiered structural self-audit; empty list = clean."""
        from ..resilience import checks
        return checks.check_cluster(self, level=level)

    def kill_worker(self, shard: int) -> str:
        """Test/fault hook: SIGKILL one shard worker; returns its id."""
        return self._coord.kill_worker(shard)

    # -------------------------------------------------------------- stats

    def cluster_stats(self) -> dict:
        """Coordinator counters plus per-worker counters (via the pipes)."""
        return {"coordinator": dict(self._coord.stats),
                "workers": self._coord.worker_stats(),
                "store": {"edges": self._coord.store.edge_count(),
                          "last_seq": self._coord.store.last_seq(),
                          "journal_mode": self._coord.store.journal_mode()}}

    # ----------------------------------------------- facade compatibility

    def erew_violations(self) -> int:
        """Not measured on the cluster backend (worker-local engines)."""
        return 0

    def pram_cache_info(self) -> dict:
        return {}

    def parallel_cost_of_last_update(self) -> dict:
        return {"depth": 0, "processors": 0, "levels_touched": 0,
                "measured": False}

    # ------------------------------------------------------------ teardown

    def close(self) -> None:
        """Stop the worker pool and close/remove the coordination store
        (and the durable sink, when attached)."""
        if self._durable is not None:
            self._durable.close()
        self._coord.close()

    def __enter__(self) -> "ClusterMSF":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
