"""`BatchedMSF` -- the batched-update, epoch-read serving front.

Wraps a dynamic-MSF engine (the sparsification tree by default) behind a
write buffer and an epoch-versioned read path:

* **writes** (``insert_edge`` / ``delete_edge``) are buffered and
  coalesced deterministically (:mod:`repro.serve.batch`) -- in-batch
  insert+delete pairs annihilate before any engine sees them -- then
  applied as one canonical batch, whose sparsification-tree plans run
  through a :class:`~repro.serve.executor.LevelExecutor`;
* **reads** are strongly consistent (a query first flushes pending
  writes) and served from an epoch-stamped read view of the root
  engine's Euler lists (:mod:`repro.serve.snapshot`) plus the engines'
  delta-maintained ``msf_weight`` -- O(1) per query and uncharged.

The facade API mirrors :class:`repro.DynamicMSF`; ``flush()`` is the
only addition callers may want to invoke explicitly.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from ..core.chunks import check_engine_backend
from ..core.degree import DegreeReducer
from ..core.model import check_endpoints, check_weight
from ..core.sparsify import SparsifiedMSF
from ..resilience import faults as _faults
from ..resilience.errors import CorruptionError, UnknownEdgeError
from .batch import CoalescedBatch, coalesce
from .executor import LevelExecutor
from .snapshot import ConnectivitySnapshot

__all__ = ["BatchedMSF"]


class BatchedMSF:
    """Batched-update / epoch-read dynamic MSF for serving workloads.

    Parameters
    ----------
    n:
        number of vertices (``0..n-1``).
    engine:
        ``"sequential"`` or ``"parallel"`` core engines, as in
        :class:`repro.DynamicMSF`.
    sparsify:
        route updates through the sparsification tree (default: True).
    batch_size:
        auto-flush threshold for the write buffer.
    pool_size:
        accepted for compatibility and validated (``None`` or an int
        ``>= 1``), but inert: it starts no threads and changes nothing.
        A batch's plans always run serially, in submission order.
    consistency:
        ``"strong"`` (default) -- every read first flushes the pending
        batch, so queries always observe their session's writes (the
        facade-compatible mode the differential tests compare against).
        ``"deferred"`` -- bounded staleness: reads are served from the
        epoch of the *last applied batch* and never force a flush, so
        update batches stay full and coalescing does its work; call
        :meth:`flush` for an explicit read-your-writes barrier.  This is
        the read-heavy serving configuration (ROADMAP's
        "millions of users" goal) and what ``bench_serve.py`` measures.
    backend:
        ``"scalar"`` (default) or ``"compiled"``, forwarded to the
        backend engines as in :class:`repro.DynamicMSF`; bit-identical
        op streams either way.  The parallel engine is scalar-only.
    durability:
        ``"off"`` (default) or ``"wal"``.  Under ``"wal"`` every
        committed batch's *effectively applied* canonical op stream is
        appended transactionally to a SQLite-WAL op log in
        ``durable_dir`` (:mod:`repro.persist.wal`), and every
        ``snapshot_every`` batches the authoritative edge registry is
        written as an atomic checksummed snapshot; after a crash
        :func:`repro.persist.restore` rebuilds a front bit-identical (by
        ``state_fingerprint``) to one that never crashed.
    durable_dir:
        durability directory (required when ``durability="wal"``).
    snapshot_every:
        snapshot cadence in committed batches; bounds the log tail a
        recovery must replay.
    """

    def __init__(self, n: int, *, engine: str = "sequential",
                 sparsify: bool = True, batch_size: int = 64,
                 pool_size: Optional[int] = None,
                 consistency: str = "strong",
                 K: Optional[int] = None,
                 max_edges: Optional[int] = None,
                 backend: str = "scalar",
                 durability: str = "off",
                 durable_dir: Optional[str] = None,
                 snapshot_every: int = 64,
                 durable_resume: bool = False) -> None:
        # raised (not asserted): public entry-point validation must survive
        # `python -O`
        if engine not in ("sequential", "parallel"):
            raise ValueError(
                f"engine must be 'sequential' or 'parallel', got {engine!r}")
        if consistency not in ("strong", "deferred"):
            raise ValueError(
                f"consistency must be 'strong' or 'deferred', "
                f"got {consistency!r}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if pool_size is not None and (isinstance(pool_size, bool)
                                      or not isinstance(pool_size, int)
                                      or pool_size < 1):
            raise ValueError(
                f"pool_size must be None or an int >= 1, got {pool_size!r}")
        check_engine_backend(engine, backend)
        if durability not in ("off", "wal"):
            raise ValueError(
                f"durability must be 'off' or 'wal', got {durability!r}")
        if durability == "wal" and durable_dir is None:
            raise ValueError("durability='wal' requires durable_dir")
        self.consistency = consistency
        self.n = n
        self.engine_kind = engine
        self.sparsified = sparsify
        self.batch_size = batch_size
        self.backend = backend
        self._K = K
        self._max_edges = max_edges
        if sparsify:
            self.executor: Optional[LevelExecutor] = LevelExecutor()
        else:
            self.executor = None
        self._impl = self._make_impl()
        # plain int (not itertools.count) so durability can record and
        # restore the counter exactly -- annihilated in-batch inserts
        # consume eids that never reach any WAL record
        self._next_eid = 1
        self._pending: list[tuple] = []      # buffered ops, submission order
        self._pending_ins: set[int] = set()  # not-yet-cancelled batch inserts
        self._live: set[int] = set()         # edge ids applied and live
        # authoritative record of every applied-and-live edge, used by the
        # recovery ladder to rebuild a poisoned backend from scratch
        self._edges: dict[int, tuple[int, int, float]] = {}
        self._epoch = 0                      # bumped per applied batch
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
        return {"kind": "batched", "n": self.n,
                "engine": self.engine_kind, "sparsify": self.sparsified,
                "batch_size": self.batch_size, "backend": self.backend,
                "K": self._K, "max_edges": self._max_edges,
                "consistency": self.consistency}

    def _make_impl(self):
        """Construct a fresh backend engine (also used by recovery)."""
        if self.sparsified:
            return SparsifiedMSF(self.n, K=self._K,
                                 parallel=(self.engine_kind == "parallel"),
                                 backend=self.backend)
        if self.engine_kind == "parallel":
            from ..core.par import ParallelDynamicMSF
            K = self._K
            bk = self.backend
            return DegreeReducer(
                self.n, self._max_edges,
                engine_factory=lambda nc: ParallelDynamicMSF(
                    nc, K=K, backend=bk))
        return DegreeReducer(self.n, self._max_edges, K=self._K,
                             backend=self.backend)

    # ------------------------------------------------------------- updates

    def insert_edge(self, u: int, v: int, weight: float) -> int:
        """Buffer an edge insertion; returns its id immediately."""
        # raised (not asserted): boundary validation is what keeps bad ops
        # out of the batch, so it must survive `python -O`
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
            # structured error (still a KeyError subclass for compatibility)
            raise UnknownEdgeError(eid)
        self._pending.append(("del", eid))
        self.stats["ops_submitted"] += 1
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if len(self._pending) >= self.batch_size:
            self.flush()

    def flush(self) -> Optional[CoalescedBatch]:
        """Coalesce and apply the pending batch; returns it (or None).

        If corruption strikes mid-batch (an engine raises, or the
        post-apply audit finds the state inconsistent) the recovery
        ladder (:mod:`repro.resilience.recover`) rebuilds the backend
        from the authoritative edge registry and bisects the batch to
        the poisoned op(s); the healthy remainder **commits** and the
        rejected ops are reported via a structured
        :class:`~repro.resilience.errors.CorruptionError` raised after
        the commit (state is consistent when it propagates).
        """
        if not self._pending:
            return None
        batch = coalesce(self._pending, known=self._live)
        self._pending.clear()
        self._pending_ins.clear()
        self.stats["ops_cancelled"] += 2 * batch.cancelled
        self.stats["ops_deduped"] += batch.deduped
        rejected: list[tuple] = []
        if len(batch):
            rejected = self._apply_checked(batch)
            rejected_ids = {op[1] for op, _exc in rejected}
            applied_dels = [e for e in batch.deletes if e not in rejected_ids]
            applied_ins = [rec for rec in batch.inserts
                           if rec[0] not in rejected_ids]
            self.stats["ops_applied"] += len(applied_dels) + len(applied_ins)
            self._live.difference_update(applied_dels)
            for eid in applied_dels:
                self._edges.pop(eid, None)
            for eid, u, v, w in applied_ins:
                self._live.add(eid)
                self._edges[eid] = (u, v, w)
            self._epoch += 1         # invalidates the read view
            if self._durable is not None:
                self._durable_commit(applied_dels, applied_ins)
        self.stats["batches"] += 1
        if rejected:
            self.stats["ops_rejected"] += len(rejected)
            err = CorruptionError(
                f"batch recovery rejected {len(rejected)} poisoned op(s) "
                f"out of {len(batch)}; the remaining "
                f"{len(batch) - len(rejected)} committed",
                site="serve.batch",
                findings=[f"{op!r}: {exc!r}" for op, exc in rejected])
            err.rejected = rejected
            err.batch = batch
            raise err
        return batch

    def _apply_checked(self, batch: CoalescedBatch) -> list[tuple]:
        """Apply ``batch``; recover on failure.  Returns rejected ops.

        Returned entries are ``(op, exception)`` pairs for ops the
        recovery bisection proved individually poisonous; everything else
        in the batch is committed on return.
        """
        ops = batch.ops()
        applied = ops
        if _faults.armed:  # op-stream corruption site (drop / duplicate)
            rec = _faults.fire("serve.batch", ops=ops, batch=batch)
            if rec is not None and "ops" in rec:
                applied = rec["ops"]
        try:
            self._apply_ops(applied)
            self._post_apply_check(batch)
        except Exception as exc:
            from ..resilience.recover import recover_batch
            rejected = recover_batch(self, batch, exc)
            self.stats["recoveries"] += 1
            return rejected
        return []

    def _apply_ops(self, ops: list[tuple]) -> None:
        """Feed one canonical op stream to the backend engine."""
        impl = self._impl
        if self.sparsified:
            impl.apply_batch(ops, executor=self.executor)
            return
        # degree-reducer backend: no level structure to fork-join over;
        # apply the canonical stream one op at a time
        for op in ops:
            if op[0] == "del":
                impl.delete_edge(op[1])
            else:
                _t, eid, u, v, w = op
                impl.insert_edge(u, v, w, eid=eid)

    def _post_apply_check(self, batch: CoalescedBatch) -> None:
        """O(1) audit after every batch: the backend's live-edge count
        must match the authoritative registry's prediction.  A dropped or
        duplicated op in the applied stream trips this even when no
        engine raised."""
        expected = len(self._edges) - len(batch.deletes) + len(batch.inserts)
        got = self._impl.edge_count()
        if got != expected:
            raise CorruptionError(
                f"post-batch edge count mismatch: engine reports {got}, "
                f"registry expects {expected}", site="serve.batch")

    # ---------------------------------------------------------- durability

    @property
    def durability(self):
        """The attached :class:`~repro.persist.wal.DurableSink`
        (``None`` when ``durability="off"``).  Drivers that want exact
        crash-resume set ``front.durability.cursor`` to their source
        stream position before submitting each op."""
        return self._durable

    def _durable_commit(self, applied_dels, applied_ins) -> None:
        """Append the batch's *applied* ops at the new epoch's seq, then
        write a snapshot when the cadence comes due.

        Only effectively-applied ops are logged (rejected ops excluded),
        so replay reproduces the exact committed state; ``next_eid``
        rides along because annihilated inserts consume eids no record
        ever shows.  A coalesce-empty batch never reaches this path (it
        bumps no epoch); an all-rejected batch still writes an empty
        record at its epoch, keeping seq contiguous.  Source ops past
        the logged cursor re-coalesce identically on resume, consuming
        the same eids (the batch is the commit unit).
        """
        sink = self._durable
        if sink.suspended:
            return
        ops = [("del", eid) for eid in applied_dels]
        ops.extend(("ins", eid, u, v, w)
                   for eid, u, v, w in applied_ins)
        sink.commit(self._epoch, ops, self._next_eid)
        if sink.snapshot_due(self._epoch):
            self._write_durable_snapshot()

    def _op_counters(self):
        """The backend's op counters (for measurement-paused sections)."""
        impl = self._impl
        if hasattr(impl, "engines"):            # SparsifiedMSF
            for _key, engine in impl.engines():
                yield engine.core.ops
        else:                                   # DegreeReducer
            core = getattr(impl, "core", None)
            if core is not None and hasattr(core, "ops"):
                yield core.ops

    def _write_durable_snapshot(self) -> str:
        """Write one engine snapshot; the fingerprint computation is
        measurement-paused (DESIGN |S| 4: snapshotting is observation,
        not update work -- counters must read the same with or without
        durability)."""
        from ..persist.snapshot import fingerprint_digest, write_snapshot
        from ..resilience.checks import state_fingerprint
        with contextlib.ExitStack() as stack:
            for counter in self._op_counters():
                stack.enter_context(counter.paused())
            digest = fingerprint_digest(state_fingerprint(self))
        sink = self._durable
        state = {
            "seq": self._epoch, "cursor": sink.cursor,
            "next_eid": self._next_eid, "config": sink.config,
            "edges": [[eid, u, v, w]
                      for eid, (u, v, w) in sorted(self._edges.items())],
            "fingerprint": digest,
        }
        return write_snapshot(sink.directory, state)

    def _restore_edges(self, edges) -> None:
        """Seed the front from a snapshot's registry rows (ascending
        eid), charging the rebuild through the normal apply path."""
        ops = [("ins", eid, u, v, w) for eid, u, v, w in edges]
        self._apply_ops(ops)
        for eid, u, v, w in edges:
            self._live.add(eid)
            self._edges[eid] = (u, v, w)
        self._snapshot = None

    def _replay_committed(self, ops) -> None:
        """Re-apply one WAL record's op stream (restore's log-tail
        replay); registry effects mirror :meth:`flush`'s commit path."""
        ops = [tuple(op) for op in ops]
        self._apply_ops(ops)
        for op in ops:
            if op[0] == "del":
                self._live.discard(op[1])
                self._edges.pop(op[1], None)
            else:
                _t, eid, u, v, w = op
                self._live.add(eid)
                self._edges[eid] = (u, v, w)
        self._snapshot = None
        self.stats["batches"] += 1
        self.stats["ops_applied"] += len(ops)

    def _resume_counters(self, *, seq: int, next_eid: int) -> None:
        """Adopt a snapshot's / WAL record's epoch and eid counter."""
        self._epoch = seq
        self._next_eid = next_eid

    def close(self) -> None:
        """Release durable resources (no-op without durability)."""
        if self._durable is not None:
            self._durable.close()

    def __enter__(self) -> "BatchedMSF":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- queries

    def _sync(self) -> None:
        """Read barrier: flush pending writes under strong consistency;
        deferred mode serves reads from the last applied epoch."""
        if self.consistency == "strong":
            self.flush()

    def _snap(self) -> ConnectivitySnapshot:
        snap = self._snapshot
        if snap is None or snap.epoch != self._epoch:
            impl = self._impl
            snap = ConnectivitySnapshot(
                self.n, impl.root.engine if self.sparsified else impl,
                self._epoch)
            self._snapshot = snap
            self.stats["snapshot_builds"] += 1
        return snap

    def connected(self, u: int, v: int) -> bool:
        """Same Euler list in the root engine: O(1), uncharged."""
        self._sync()
        self.stats["queries"] += 1
        return self._snap().connected(u, v)

    def component_count(self) -> int:
        self._sync()
        return self._snap().component_count()

    def msf_weight(self) -> float:
        """Delta-maintained total weight (O(1) on the sparsified engine)."""
        self._sync()
        self.stats["queries"] += 1
        return self._impl.msf_weight()

    def msf_ids(self) -> set[int]:
        self._sync()
        return self._impl.msf_ids()

    def msf_edges(self) -> Iterator[tuple[int, int, float, int]]:
        self._sync()
        yield from self._impl.msf_edges()

    def edge_count(self) -> int:
        self._sync()
        return self._impl.edge_count()

    @property
    def epoch(self) -> int:
        """Number of applied (non-empty) batches so far."""
        return self._epoch

    @property
    def pending_ops(self) -> int:
        return len(self._pending)

    # ---------------------------------------------------------- resilience

    def self_check(self, level: str = "cheap") -> list:
        """Tiered structural self-audit; returns a list of findings.

        Covers the serving layer's own registries (``_live`` vs
        ``_edges`` vs the backend's edge count) and recurses into the
        backend engine's check of the same ``level``.  Empty list =
        clean; see :mod:`repro.resilience.checks`.
        """
        from ..resilience import checks
        return checks.check_batched(self, level=level)

    # --------------------------------------------------------------- costs

    def erew_violations(self) -> int:
        """EREW violations of the backing engines; 0 when not measured.

        Guarded for every backend configuration (sequential engines and
        partially-materialized sparsification trees report 0).
        """
        self._sync()
        impl = self._impl
        fn = getattr(impl, "erew_violations", None)
        if fn is not None:
            return fn()
        machine = getattr(getattr(impl, "core", None), "machine", None)
        return machine.total.violations if machine is not None else 0

    def pram_cache_info(self) -> dict:
        """Replay/shape cache counters of the backing engines; ``{}``
        when not measured.  Guarded like ``erew_violations`` and synced
        first so pending ops are reflected in the counters."""
        self._sync()
        impl = self._impl
        fn = getattr(impl, "pram_cache_info", None)
        if fn is not None:
            return fn()
        machine = getattr(getattr(impl, "core", None), "machine", None)
        info = getattr(machine, "cache_info", None) if machine is not None else None
        return info() if info is not None else {}

    def parallel_cost_of_last_update(self) -> dict:
        """Section 5.3 cost composition of the last applied batch.

        Falls back to an explicit zero-cost report for backends without
        level accounting, so the serving layer can always report costs.
        """
        self._sync()
        fn = getattr(self._impl, "parallel_cost_of_last_update", None)
        if fn is not None:
            return fn()
        return {"depth": 0, "processors": 0, "levels_touched": 0,
                "measured": False}
