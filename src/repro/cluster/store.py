"""SQLite-WAL coordination store for the sharded serving cluster.

One database file is the shared coordination state of a whole cluster --
the design the multi-process tier is built around (a single writer per
row family, WAL so readers never block writers):

* ``edges`` -- the **authoritative edge registry**: every committed
  edge as ``eid -> (u, v, w, home)``, where ``home`` is the shard that
  owns the edge (``BOUNDARY`` for cross-shard edges, ``LOOPS`` for
  self-loops, which never reach any engine).  A crashed shard worker is
  rebuilt *from this table alone*; by MSF uniqueness under the strict
  ``(weight, eid)`` order, an ascending-eid rebuild reproduces the
  forest no matter what the original arrival order was.
* ``batches`` -- the batch sequence: one row per committed coalesced
  batch, written in the same transaction as its edge-registry effects,
  so registry state is always "as of batch ``seq``".
* ``claims`` -- one row per shard: which worker (id, pid, generation)
  currently owns it and the last batch it acknowledged.  Stale claims
  (dead workers) are cleaned up by the coordinator before a replacement
  worker re-claims the shard.
* ``heartbeats`` -- per-worker liveness records, written by a heartbeat
  thread inside each worker process; the coordinator treats a worker
  whose beat is older than the staleness timeout as dead even when the
  OS process object still answers ``is_alive()``.
* ``events`` -- an append-only audit trail of cluster lifecycle events
  (spawns, stale-claim cleanups, rebuilds, fingerprint verdicts).

Every process opens its **own** connection (SQLite connections must not
cross ``fork``); WAL mode plus a busy timeout makes the concurrent
single-writer/many-reader pattern safe.  The store is coordination and
recovery truth -- the *results* of the cluster never depend on it, which
is what keeps the determinism contract (bit-identical forests at every
pool size) independent of filesystem timing.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Iterable, Optional

__all__ = ["CoordinationStore", "BOUNDARY", "LOOPS"]

#: pseudo-shard ids for edges no worker owns
BOUNDARY = -1   # cross-shard edges: held raw by the coordinator merge tree
LOOPS = -2      # self-loops: registry-only, never reach any engine

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS edges (
    eid  INTEGER PRIMARY KEY,
    u    INTEGER NOT NULL,
    v    INTEGER NOT NULL,
    w    REAL    NOT NULL,
    home INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS edges_by_home ON edges (home, eid);
CREATE TABLE IF NOT EXISTS batches (
    seq        INTEGER PRIMARY KEY,
    n_inserts  INTEGER NOT NULL,
    n_deletes  INTEGER NOT NULL,
    applied_at REAL    NOT NULL
);
CREATE TABLE IF NOT EXISTS claims (
    shard      INTEGER PRIMARY KEY,
    worker_id  TEXT    NOT NULL,
    pid        INTEGER NOT NULL,
    generation INTEGER NOT NULL,
    claimed_at REAL    NOT NULL,
    acked_seq  INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS heartbeats (
    worker_id TEXT PRIMARY KEY,
    pid       INTEGER NOT NULL,
    beat      REAL    NOT NULL,
    beats     INTEGER NOT NULL DEFAULT 0,
    status    TEXT    NOT NULL DEFAULT 'alive'
);
CREATE TABLE IF NOT EXISTS events (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    ts     REAL NOT NULL,
    kind   TEXT NOT NULL,
    detail TEXT NOT NULL
);
"""


class CoordinationStore:
    """One process's connection to a cluster coordination database."""

    def __init__(self, path: str, *, timeout: float = 5.0) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, timeout=timeout)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CoordinationStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def journal_mode(self) -> str:
        return self._conn.execute("PRAGMA journal_mode").fetchone()[0]

    # ----------------------------------------------------------------- meta

    def set_meta(self, key: str, value) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, json.dumps(value)))

    def get_meta(self, key: str, default=None):
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return default if row is None else json.loads(row[0])

    # -------------------------------------------------------- edge registry

    def commit_batch(self, seq: int,
                     inserts: Iterable[tuple[int, int, int, float, int]],
                     deletes: Iterable[int]) -> None:
        """Apply one committed batch to the registry, transactionally.

        ``inserts`` are ``(eid, u, v, w, home)`` records; the batch row
        and every registry effect land in a single transaction, so a
        reader never observes a half-applied batch.
        """
        inserts = list(inserts)
        deletes = list(deletes)
        with self._conn:
            self._conn.executemany(
                "DELETE FROM edges WHERE eid = ?",
                ((eid,) for eid in deletes))
            self._conn.executemany(
                "INSERT INTO edges (eid, u, v, w, home) "
                "VALUES (?, ?, ?, ?, ?)", inserts)
            self._conn.execute(
                "INSERT INTO batches (seq, n_inserts, n_deletes, applied_at)"
                " VALUES (?, ?, ?, ?)",
                (seq, len(inserts), len(deletes), time.time()))

    def shard_edges(self, home: int) -> list[tuple[int, int, int, float]]:
        """``(eid, u, v, w)`` of every committed edge owned by ``home``,
        ascending eid -- the rebuild order of a recovered worker."""
        return [tuple(r) for r in self._conn.execute(
            "SELECT eid, u, v, w FROM edges WHERE home = ? ORDER BY eid",
            (home,))]

    def all_edges(self) -> list[tuple[int, int, int, float, int]]:
        return [tuple(r) for r in self._conn.execute(
            "SELECT eid, u, v, w, home FROM edges ORDER BY eid")]

    def edge_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM edges").fetchone()[0]

    def last_seq(self) -> int:
        row = self._conn.execute("SELECT MAX(seq) FROM batches").fetchone()
        return row[0] or 0

    # ---------------------------------------------------------------- claims

    def claim_shard(self, shard: int, worker_id: str, pid: int,
                    generation: int) -> None:
        """Record that ``worker_id`` now owns ``shard``.

        The coordinator is the single spawner, so a claim never races
        another *live* claimant; a leftover row from a dead predecessor
        is simply superseded (its cleanup is also logged separately by
        :meth:`cleanup_stale_claim`).
        """
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO claims "
                "(shard, worker_id, pid, generation, claimed_at, acked_seq) "
                "VALUES (?, ?, ?, ?, ?, 0)",
                (shard, worker_id, pid, generation, time.time()))

    def claim_of(self, shard: int) -> Optional[dict]:
        row = self._conn.execute(
            "SELECT shard, worker_id, pid, generation, claimed_at, acked_seq"
            " FROM claims WHERE shard = ?", (shard,)).fetchone()
        if row is None:
            return None
        keys = ("shard", "worker_id", "pid", "generation", "claimed_at",
                "acked_seq")
        return dict(zip(keys, row))

    def ack_batch(self, shard: int, worker_id: str, seq: int) -> None:
        """Worker-side: acknowledge that ``seq`` was applied to the shard."""
        with self._conn:
            self._conn.execute(
                "UPDATE claims SET acked_seq = ? "
                "WHERE shard = ? AND worker_id = ?", (seq, shard, worker_id))

    def cleanup_stale_claim(self, shard: int, reason: str) -> Optional[dict]:
        """Remove a dead worker's claim (and heartbeat row); returns it."""
        claim = self.claim_of(shard)
        if claim is None:
            return None
        with self._conn:
            self._conn.execute("DELETE FROM claims WHERE shard = ?", (shard,))
            self._conn.execute(
                "UPDATE heartbeats SET status = 'dead' WHERE worker_id = ?",
                (claim["worker_id"],))
        self.log_event("stale-claim-cleanup",
                       f"shard={shard} worker={claim['worker_id']} "
                       f"pid={claim['pid']} reason={reason}")
        return claim

    # ------------------------------------------------------------ heartbeats

    def heartbeat(self, worker_id: str, pid: int) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT INTO heartbeats (worker_id, pid, beat, beats, status)"
                " VALUES (?, ?, ?, 1, 'alive') "
                "ON CONFLICT(worker_id) DO UPDATE SET "
                "beat = excluded.beat, beats = beats + 1, status = 'alive'",
                (worker_id, pid, time.time()))

    def worker_beat(self, worker_id: str) -> Optional[dict]:
        row = self._conn.execute(
            "SELECT worker_id, pid, beat, beats, status FROM heartbeats "
            "WHERE worker_id = ?", (worker_id,)).fetchone()
        if row is None:
            return None
        return dict(zip(("worker_id", "pid", "beat", "beats", "status"), row))

    def stale_workers(self, timeout: float,
                      now: Optional[float] = None) -> list[dict]:
        """Workers marked alive whose last beat is older than ``timeout``."""
        now = time.time() if now is None else now
        out = []
        for row in self._conn.execute(
                "SELECT worker_id, pid, beat, beats, status FROM heartbeats "
                "WHERE status = 'alive'"):
            rec = dict(zip(("worker_id", "pid", "beat", "beats", "status"),
                           row))
            if now - rec["beat"] > timeout:
                out.append(rec)
        return out

    # ---------------------------------------------------------------- events

    def log_event(self, kind: str, detail: str) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT INTO events (ts, kind, detail) VALUES (?, ?, ?)",
                (time.time(), kind, detail))

    def events(self, kind: Optional[str] = None) -> list[tuple[str, str]]:
        if kind is None:
            rows = self._conn.execute(
                "SELECT kind, detail FROM events ORDER BY id")
        else:
            rows = self._conn.execute(
                "SELECT kind, detail FROM events WHERE kind = ? ORDER BY id",
                (kind,))
        return [tuple(r) for r in rows]


def store_files(path: str) -> list[str]:
    """The database file plus WAL sidecars (for cleanup)."""
    return [p for p in (path, path + "-wal", path + "-shm")
            if os.path.exists(p)]
