"""Cluster coordinator: routing, deterministic merge, worker recovery.

The coordinator turns one canonical :class:`~repro.serve.batch.CoalescedBatch`
into a provably-serial-identical parallel execution:

1. **Route** every op (deletes first, then inserts -- the canonical
   order is preserved end-to-end) to its home: a shard worker process
   (both endpoints in one vertex range), the coordinator's **merge
   tree** directly (cross-shard edges), or the registry alone
   (self-loops).
2. **Dispatch** each shard's ops in one pipe message; workers apply
   them in canonical order and reply with per-op shard-MSF deltas (eid
   lists).
3. **Merge** in global canonical order into the one **merge tree** --
   a :class:`~repro.core.sparsify.SparsifiedMSF` over the union of the
   shard forests and the raw cross-shard edges.  A shard op's delta is
   replayed into it; a cross-shard op is applied to it as is.  Because
   MSF is a sparsification-closed operator
   (``MSF(G) = MSF(MSF(G_1) u ... u MSF(G_k) u B)`` for any edge
   partition, with the cross-shard set ``B`` entering raw) and unique
   under the strict ``(weight, eid)`` order, the merge tree's forest
   after every op prefix *is* the serial tree's forest -- bit-identical
   at every pool size.  The tree runs flat while sparse and grows its
   edge-partition tree only when dense cross traffic makes it so.
4. **Fold** each op's net global delta into the incremental
   ``msf_weight`` with exactly the serial tree's arithmetic (a single
   edge update swaps at most one edge in and one out, so the float op
   sequence is identical term-for-term).
5. **Commit** the batch to the SQLite-WAL coordination store (registry
   + batch seq in one transaction) only after the merge succeeds.

**Recovery.**  A worker that dies (SIGKILL, crash, poisoned op) is
detected by a broken pipe, a failed liveness probe, or a stale store
heartbeat.  The ladder mirrors PR 5's quarantine-and-rebuild: the dead
worker's claim is cleaned up in the store, a replacement process
rebuilds the shard from the authoritative edge registry (ascending
eid), and the rebuilt engine's ``state_fingerprint`` is asserted
bit-identical to a never-crashed twin the coordinator builds from its
own registry -- only then does the shard rejoin and the in-flight ops
re-dispatch.  Bounded retries end in
:class:`~repro.resilience.errors.QuarantineExhausted`.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from typing import Optional, Sequence

from ..core.sparsify import SparsifiedMSF, _fold
from ..resilience import faults as _faults
from ..resilience.errors import CorruptionError, QuarantineExhausted
from .protocol import BOUNDARY, LOOPS, ShardMap
from .store import CoordinationStore
from .worker import ShardEngine, worker_main

__all__ = ["Coordinator", "WorkerDied", "default_cluster_size"]


def default_cluster_size() -> int:
    """Default worker-process count: a small pool, capped by the CPUs."""
    return max(1, min(4, os.cpu_count() or 1))


class WorkerDied(RuntimeError):
    """A shard worker stopped answering (crash, kill, or hang)."""

    def __init__(self, shard: int, worker_id: str, reason: str) -> None:
        super().__init__(
            f"worker {worker_id} (shard {shard}) died: {reason}")
        self.shard = shard
        self.worker_id = worker_id
        self.reason = reason


# ---------------------------------------------------------------- workers


class _ProcWorker:
    """Handle of one out-of-process shard worker (pipe + process)."""

    kind = "process"

    def __init__(self, ctx, worker_id: str, shard: int, lo: int, hi: int,
                 generation: int, store_path: str,
                 beat_interval: float) -> None:
        self.worker_id = worker_id
        self.shard = shard
        self.generation = generation
        parent, child = ctx.Pipe()
        self.conn = parent
        self.proc = ctx.Process(
            target=worker_main,
            args=(worker_id, shard, lo, hi, generation, store_path, child,
                  beat_interval),
            name=worker_id, daemon=True)
        self.proc.start()
        child.close()  # the parent keeps only its own end

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def is_alive(self) -> bool:
        return self.proc.is_alive()

    def send(self, msg: tuple) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerDied(self.shard, self.worker_id,
                             f"pipe closed on send ({exc!r})") from exc

    def wait(self, timeout: float) -> tuple:
        deadline = time.monotonic() + timeout
        while not self.conn.poll(0.02):
            if not self.proc.is_alive():
                raise WorkerDied(self.shard, self.worker_id,
                                 "process exited mid-request")
            if time.monotonic() > deadline:
                raise WorkerDied(self.shard, self.worker_id,
                                 f"no reply within {timeout:.1f}s")
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerDied(self.shard, self.worker_id,
                             f"pipe closed on recv ({exc!r})") from exc

    def request(self, msg: tuple, timeout: float) -> tuple:
        self.send(msg)
        return self.wait(timeout)

    def kill(self) -> None:
        """SIGKILL the worker process (fault injection / tests)."""
        if self.proc.pid is not None and self.proc.is_alive():
            os.kill(self.proc.pid, signal.SIGKILL)
            self.proc.join(timeout=5.0)

    def stop(self, timeout: float = 5.0) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=timeout)
        self.conn.close()


class _LocalWorker:
    """In-process shard worker (``processes=False``): same surface as
    :class:`_ProcWorker`, no pipe -- for fast deterministic unit tests
    and single-core fallbacks.  Claims and heartbeats still flow through
    the store so the coordination protocol stays observable."""

    kind = "local"

    def __init__(self, store: CoordinationStore, worker_id: str, shard: int,
                 lo: int, hi: int, generation: int) -> None:
        self.worker_id = worker_id
        self.shard = shard
        self.generation = generation
        self.pid = os.getpid()
        self._alive = True
        self.engine = ShardEngine(lo, hi)
        self._store = store
        self.engine.rebuild_from(store.shard_edges(shard))
        store.claim_shard(shard, worker_id, self.pid, generation)
        store.heartbeat(worker_id, self.pid)
        self._reply: Optional[tuple] = None

    def is_alive(self) -> bool:
        return self._alive

    def send(self, msg: tuple) -> None:
        if not self._alive:
            raise WorkerDied(self.shard, self.worker_id, "killed (local)")
        tag = msg[0]
        if tag == "batch":
            _t, seq, ops = msg
            results = []
            try:
                for idx, op in ops:
                    added, removed = self.engine.apply(op)
                    results.append((idx, sorted(added), sorted(removed)))
            except Exception as exc:  # noqa: BLE001 - reported like a
                self._reply = ("error", seq, repr(exc))  # remote worker
                return
            self._store.heartbeat(self.worker_id, self.pid)
            self._store.ack_batch(self.shard, self.worker_id, seq)
            self._reply = ("deltas", seq, results)
        elif tag == "fingerprint":
            self._reply = ("fingerprint", self.engine.fingerprint())
        elif tag == "stats":
            self._reply = ("stats", {
                "worker_id": self.worker_id, "shard": self.shard,
                "generation": self.generation,
                "ops_applied": self.engine.ops_applied,
                "edge_count": self.engine.edge_count()})
        elif tag == "stop":
            self._alive = False

    def wait(self, timeout: float) -> tuple:
        if self._reply is None:
            raise WorkerDied(self.shard, self.worker_id,
                             "no reply pending (local)")
        reply, self._reply = self._reply, None
        return reply

    def request(self, msg: tuple, timeout: float) -> tuple:
        self.send(msg)
        return self.wait(timeout)

    def kill(self) -> None:
        self._alive = False
        self.engine = None  # the "process state" is gone

    def stop(self, timeout: float = 0.0) -> None:
        self._alive = False


# ------------------------------------------------------------ coordinator


class Coordinator:
    """Owns the shard map, worker pool, merge tree and store."""

    def __init__(self, n: int, *, shards: Optional[int] = None,
                 store_path: Optional[str] = None,
                 processes: bool = True,
                 start_method: Optional[str] = None,
                 beat_interval: float = 0.1,
                 stale_timeout: float = 5.0,
                 reply_timeout: float = 120.0,
                 K: Optional[int] = None) -> None:
        self.n = n
        self.shard_map = ShardMap(n, shards if shards is not None
                                  else default_cluster_size())
        self.processes = processes
        self.beat_interval = beat_interval
        self.stale_timeout = stale_timeout
        self.reply_timeout = reply_timeout
        self._tmpdir: Optional[str] = None
        if store_path is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-cluster-")
            store_path = os.path.join(self._tmpdir, "coordination.sqlite")
        self.store_path = str(store_path)
        self.store = CoordinationStore(self.store_path)
        self.store.set_meta("cluster", {
            "n": n, "shards": self.shard_map.k,
            "bounds": [list(self.shard_map.bounds(s))
                       for s in self.shard_map.shards()]})
        if processes:
            methods = multiprocessing.get_all_start_methods()
            if start_method is None:
                start_method = "fork" if "fork" in methods else "spawn"
            self._ctx = multiprocessing.get_context(start_method)
        else:
            self._ctx = None
        #: authoritative in-memory registry (mirrors the store's ``edges``
        #: table at every committed batch): eid -> (u, v, w)
        self.edges: dict[int, tuple[int, int, float]] = {}
        #: eids per home, for O(shard) twin rebuilds during recovery
        self.home_eids: dict[int, set[int]] = {
            **{s: set() for s in self.shard_map.shards()},
            BOUNDARY: set(), LOOPS: set()}
        # the shard forests plus the raw cross-shard edges: flat while
        # sparse, a grown tree under dense cross traffic
        self.merge = SparsifiedMSF(n, K=K)
        #: incremental global MSF weight, folded per op with the serial
        #: tree's exact arithmetic (see :meth:`_merge`)
        self.msf_weight = 0.0
        self.seq = 0
        self.stats = {
            "batches": 0, "ops_routed": 0, "ops_shard": 0,
            "ops_boundary": 0, "ops_loops": 0, "merge_ops": 0,
            "recoveries": 0, "respawns": 0, "fault_kills": 0,
            "stale_claims_cleaned": 0,
        }
        self.workers: dict[int, object] = {}
        for s in self.shard_map.shards():
            self.workers[s] = self._spawn(s, generation=1)

    # ------------------------------------------------------------- workers

    def _spawn(self, shard: int, generation: int):
        lo, hi = self.shard_map.bounds(shard)
        worker_id = f"w{shard}-g{generation}"
        if self.processes:
            w = _ProcWorker(self._ctx, worker_id, shard, lo, hi, generation,
                            self.store_path, self.beat_interval)
        else:
            w = _LocalWorker(self.store, worker_id, shard, lo, hi,
                             generation)
        self.stats["respawns"] += generation > 1
        return w

    def worker_ids(self) -> dict[int, str]:
        return {s: w.worker_id for s, w in self.workers.items()}

    def live_workers(self) -> int:
        return sum(1 for w in self.workers.values() if w.is_alive())

    def kill_worker(self, shard: int) -> str:
        """SIGKILL one worker (test hook / fault site); returns its id."""
        w = self.workers[shard]
        w.kill()
        return w.worker_id

    def fault_kill_worker(self, param: int) -> Optional[str]:
        """Fault-injection entry: kill the ``param``-th live worker."""
        live = [s for s, w in sorted(self.workers.items()) if w.is_alive()]
        if not live:
            return None
        victim = live[param % len(live)]
        self.stats["fault_kills"] += 1
        return self.kill_worker(victim)

    def stale_workers(self) -> list[dict]:
        """Store-heartbeat staleness view (dead-by-silence detection)."""
        return self.store.stale_workers(self.stale_timeout)

    # ------------------------------------------------------------- routing

    def _home_of_op(self, op: tuple,
                    winfo: dict[int, tuple[int, int, float]]) -> int:
        if op[0] == "ins":
            return self.shard_map.home_of(op[2], op[3])
        u, v, _w = winfo[op[1]]
        return self.shard_map.home_of(u, v)

    # ---------------------------------------------------------------- apply

    def apply_batch(self, batch) -> dict:
        """Apply one canonical :class:`CoalescedBatch`; returns a report.

        Mutates the authoritative registry and commits to the store only
        after every tier applied cleanly; raises
        :class:`~repro.resilience.errors.CorruptionError` (after bounded
        recovery) if a worker keeps failing the batch.
        """
        if _faults.armed:  # dead-worker fault site (SIGKILL a worker)
            _faults.fire("cluster.worker", coordinator=self)
        ops = batch.ops()
        # tombstones for edges deleted by this batch + records for edges
        # inserted by it: neither is in the committed registry during the
        # merge, but deltas and weight folds may name both
        binfo: dict[int, tuple[int, int, float]] = {
            eid: self.edges[eid] for eid in batch.deletes}
        for eid, u, v, w in batch.inserts:
            binfo[eid] = (u, v, w)
        homes = [self._home_of_op(op, binfo) for op in ops]
        shard_ops: dict[int, list[tuple[int, tuple]]] = {}
        for idx, home in enumerate(homes):
            if home not in (BOUNDARY, LOOPS):
                shard_ops.setdefault(home, []).append((idx, ops[idx]))
        n_boundary, n_loops = homes.count(BOUNDARY), homes.count(LOOPS)
        self.seq += 1
        seq = self.seq
        deltas = self._execute(seq, shard_ops)
        merged = self._merge(ops, deltas, homes, binfo)
        self._commit(seq, batch, homes)
        self.stats["batches"] += 1
        self.stats["ops_routed"] += len(ops)
        self.stats["ops_shard"] += len(ops) - n_boundary - n_loops
        self.stats["ops_boundary"] += n_boundary
        self.stats["ops_loops"] += n_loops
        return {"seq": seq, "ops": len(ops), "shards_touched":
                len(shard_ops), "boundary_ops": n_boundary,
                "merge_ops": merged}

    def _execute(self, seq: int, shard_ops: dict, *,
                 max_attempts: int = 3) -> dict:
        """Fan out shard ops and collect their deltas.

        Returns ``{op idx -> (added eids, removed eids)}``.  Worker
        death anywhere in the exchange triggers shard recovery and a
        bounded re-dispatch of exactly that shard's ops.
        """
        deltas: dict[int, tuple[list[int], list[int]]] = {}
        pending = dict(shard_ops)
        for s, items in pending.items():
            try:
                self.workers[s].send(("batch", seq, items))
            except WorkerDied as death:
                self._recover_worker(death.shard, death.reason)
                self.workers[s].send(("batch", seq, items))
        for s, items in pending.items():
            attempts = 0
            while True:
                try:
                    reply = self.workers[s].wait(self.reply_timeout)
                except WorkerDied as death:
                    attempts += 1
                    self._recover_worker(death.shard, death.reason)
                    if attempts >= max_attempts:
                        raise CorruptionError(
                            f"shard {s} failed batch {seq} "
                            f"{attempts} times", site="cluster.worker")
                    # the replacement rebuilt to the pre-batch registry
                    # state, so the whole shard op list replays cleanly
                    self.workers[s].send(("batch", seq, items))
                    continue
                if reply[0] == "error":
                    attempts += 1
                    # poisoned op or corrupted shard state: same ladder
                    # as a death -- quarantine (discard the process),
                    # rebuild from the registry, retry the ops
                    self._recover_worker(
                        s, f"worker error: {reply[2]}", respawn_dead=False)
                    if attempts >= max_attempts:
                        raise CorruptionError(
                            f"shard {s} keeps rejecting batch {seq}: "
                            f"{reply[2]}", site="cluster.worker")
                    self.workers[s].send(("batch", seq, items))
                    continue
                _t, rseq, results = reply
                if rseq != seq:  # stale reply from a pre-recovery send
                    continue
                for idx, added, removed in results:
                    deltas[idx] = (added, removed)
                break
        return deltas

    def _merge(self, ops: Sequence[tuple], deltas: dict, homes: list[int],
               binfo: dict) -> int:
        """Apply each op to the merge tree in canonical order -- a
        cross-shard op as is, a shard op as its replayed delta --
        folding each op's net global delta into ``msf_weight`` with the
        serial tree's exact arithmetic."""
        merge = self.merge
        edges = self.edges
        merge_ops = 0
        for idx, op in enumerate(ops):
            g_added: set[int] = set()
            g_removed: set[int] = set()
            if homes[idx] == BOUNDARY:
                if op[0] == "ins":
                    _t, eid, u, v, w = op
                    a, r = merge.insert_reported(u, v, w, eid=eid)
                else:
                    a, r = merge.delete_reported(op[1])
                _fold(g_added, g_removed, a, r)
                merge_ops += 1
            elif idx in deltas:
                added_ids, removed_ids = deltas[idx]
                # insertions first -- the same stability ordering
                # _Node.apply uses (an eviction arriving as (add e,
                # del f) makes f's removal a cheap non-tree delete)
                for eid in added_ids:
                    info = edges.get(eid)
                    u, v, w = info if info is not None else binfo[eid]
                    a, r = merge.insert_reported(u, v, w, eid=eid)
                    _fold(g_added, g_removed, a, r)
                    merge_ops += 1
                for eid in removed_ids:
                    a, r = merge.delete_reported(eid)
                    _fold(g_added, g_removed, a, r)
                    merge_ops += 1
            if not g_added and not g_removed:
                continue
            # term-for-term the serial tree's _fold_root_delta arithmetic:
            # a single edge update swaps <= 1 edge in and <= 1 out, so
            # these sums have <= 1 term each and the float op sequence is
            # identical to the serial path's
            self.msf_weight += (
                sum(self._weight_of(eid, binfo) for eid in g_added)
                - sum(self._weight_of(eid, binfo) for eid in g_removed))
            if _faults.armed:  # same site as the serial tree's fold
                _faults.fire("sparsify.weight", tree=self)
        self.stats["merge_ops"] += merge_ops
        return merge_ops

    def _weight_of(self, eid: int, binfo: dict) -> float:
        info = self.edges.get(eid)
        if info is None:
            info = binfo[eid]
        return info[2]

    def _commit(self, seq: int, batch, homes: list[int]) -> None:
        """Fold the batch into the registry + store (single transaction)."""
        ops = batch.ops()
        inserts = []
        for idx, op in enumerate(ops):
            if op[0] != "ins":
                continue
            _t, eid, u, v, w = op
            home = homes[idx]
            self.edges[eid] = (u, v, w)
            self.home_eids[home].add(eid)
            inserts.append((eid, u, v, w, home))
        for eid in batch.deletes:
            self.edges.pop(eid, None)
            for s in self.home_eids.values():
                s.discard(eid)
        self.store.commit_batch(seq, inserts, batch.deletes)

    # -------------------------------------------------------------- queries

    def msf_ids(self) -> set[int]:
        return self.merge.msf_ids()

    def connected(self, u: int, v: int) -> bool:
        return self.merge.connected(u, v)

    # ------------------------------------------------------------- recovery

    def _recover_worker(self, shard: int, reason: str, *,
                        respawn_dead: bool = True,
                        max_attempts: int = 3) -> None:
        """The dead-worker rung of the quarantine-and-rebuild ladder."""
        old = self.workers[shard]
        old.kill()  # ensure the suspect process is really gone
        claim = self.store.cleanup_stale_claim(shard, reason)
        if claim is not None:
            self.stats["stale_claims_cleaned"] += 1
        self.stats["recoveries"] += 1
        generation = old.generation
        attempts = 0
        while True:
            attempts += 1
            generation += 1
            w = self._spawn(shard, generation)
            self.workers[shard] = w
            problem = self._verify_rebuild(shard, w)
            if problem is None:
                self.store.log_event(
                    "shard-rebuilt",
                    f"shard={shard} worker={w.worker_id} "
                    f"attempts={attempts} reason={reason}")
                return
            self.store.log_event(
                "rebuild-dirty",
                f"shard={shard} worker={w.worker_id} problem={problem}")
            w.kill()
            self.store.cleanup_stale_claim(shard, f"dirty rebuild: "
                                           f"{problem}")
            if attempts >= max_attempts:
                raise QuarantineExhausted(
                    f"shard {shard} rebuild still dirty after "
                    f"{attempts} attempts: {problem}", attempts=attempts)

    def _verify_rebuild(self, shard: int, worker) -> Optional[str]:
        """Rebuilt shard vs a never-crashed twin, by state fingerprint.

        The twin is built coordinator-side from the in-memory registry
        (which mirrors the store at the last committed batch -- exactly
        what the worker rebuilt from).  Fingerprints exclude counters,
        so a rebuilt engine that re-charged its work still matches.
        """
        lo, hi = self.shard_map.bounds(shard)
        twin = ShardEngine(lo, hi)
        twin.rebuild_from(
            (eid, *self.edges[eid])
            for eid in sorted(self.home_eids[shard]))
        try:
            reply = worker.request(("fingerprint",), self.reply_timeout)
        except WorkerDied as death:
            return f"worker died during verification: {death.reason}"
        if reply[0] != "fingerprint":
            return f"unexpected verification reply {reply[0]!r}"
        if reply[1] != twin.fingerprint():
            return "rebuilt shard fingerprint differs from twin"
        return None

    # ------------------------------------------------------------ teardown

    def worker_stats(self) -> dict[int, dict]:
        out = {}
        for s, w in sorted(self.workers.items()):
            try:
                reply = w.request(("stats",), self.reply_timeout)
                out[s] = reply[1]
            except WorkerDied as death:
                out[s] = {"error": death.reason}
        return out

    def close(self) -> None:
        for w in self.workers.values():
            w.stop()
        self.workers.clear()
        self.store.close()
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
