"""The five benchmark workloads: pinned configuration and op streams.

Every workload is an op list in the :mod:`repro.workloads` vocabulary
(``("ins", u, v, w)``, ``("del", ref)``, ``("conn", u, v)``,
``("weight",)``; a delete names the op index of its insert) plus
``setup_len``: ops ``[0, setup_len)`` are the set-up (prefill or path
build), the rest is the timed traffic.  Lists are pure functions of the
seed and the requested length and are built before any timing starts.
The timed traffic is a fixed number of ops (:meth:`Workload.steps`), so
every count a run reports repeats exactly for a seed.

Every constructor argument that has a default is pinned here, so no
measurement depends on ``os.cpu_count()`` (the executor's and the
cluster's default pool sizes do).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

from repro import BatchedMSF, ClusterMSF, DynamicMSF
from repro.core.par import ParallelDynamicMSF
from repro.workloads import (adversarial_cuts, query_mix, restart_heavy,
                             worker_mix)

__all__ = ["Workload", "WORKLOADS", "scaled_n"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"front"``: a serving front (commit = a call that advanced the
    #: epoch); ``"engine"``: a bare engine (commit = every update)
    kind: str
    n: int
    #: ``(seed, n, steps, scale) -> (ops, setup_len)``; ``steps`` is the
    #: length of the timed part
    make_ops: Callable
    #: ``(n, directory) -> target``; ``directory`` is scratch space
    build: Callable
    #: timed ops per second of ``--seconds``: about the rate of the
    #: reference host (README), rounded so that every seed's commit count
    #: sits well inside one tail-percentile band
    rate: int

    def steps(self, seconds: float) -> int:
        """The number of timed ops for a run of ``seconds``."""
        return max(20, round(self.rate * seconds))


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _random_edges(n: int, m: int, rng: random.Random,
                  shards: int = 1) -> list[tuple]:
    """``m`` random insert ops; with ``shards > 1`` edge ``i`` stays
    inside shard ``i % shards`` of the cluster's contiguous ranges."""
    ops = []
    for i in range(m):
        s = i % shards
        u, v = rng.sample(range(s * n // shards, (s + 1) * n // shards), 2)
        ops.append(("ins", u, v, round(rng.uniform(0.0, 1000.0), 9)))
    return ops


def _after(prefill: list[tuple], stream) -> list[tuple]:
    """``prefill`` then ``stream``, shifting the stream's delete refs."""
    base = len(prefill)
    ops = list(prefill)
    ops.extend(("del", op[1] + base) if op[0] == "del" else op
               for op in stream)
    return ops


def _prefill_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/prefill/{seed}")


# ------------------------------------------------------------- op streams


#: the serving streams keep at most this many of their own edges live, so
#: the graph stays within a few edges of the prefill.  Unbounded, the live
#: set is a random walk that drifts by up to ~90 edges over a run, and the
#: cost per op drifts with it (README).
SERVE_MAX_LIVE = 8


def _serve_rw_ops(seed, n, steps, scale):
    prefill = _random_edges(n, n, _prefill_rng("serve-rw", seed))
    ops = _after(prefill, query_mix(n, steps, read_ratio=0.5,
                                    p_delete=0.5, max_live=SERVE_MAX_LIVE,
                                    seed=seed))
    return ops, len(prefill)


#: ``restart_heavy`` keeps at most this many of its own edges live
INGEST_MAX_LIVE = 128


def _ingest_ops(seed, n, steps, scale):
    """Prefill, then ``restart_heavy``.  The set-up also replays the
    stream up to the point where its own live set first reaches
    ``max_live``, so the timed phase starts in steady state."""
    max_live = _scaled(INGEST_MAX_LIVE, scale, 8)
    prefill = _random_edges(n, n // 2, _prefill_rng("ingest-durable", seed))
    stream = list(restart_heavy(n, steps + 8 * max_live, max_live=max_live,
                                seed=seed))
    live = 0
    fill = len(stream)
    for i, op in enumerate(stream):
        live += (op[0] == "ins") - (op[0] == "del")
        if live == max_live:
            fill = i + 1
            break
    ops = _after(prefill, stream)
    return ops[:len(prefill) + fill + steps], len(prefill) + fill


def _cluster_ops(seed, n, steps, scale):
    prefill = _random_edges(n, n, _prefill_rng("cluster-mix", seed),
                            shards=2)
    ops = _after(prefill, worker_mix(n, steps, shards=2, cross_fraction=0.05,
                                     read_ratio=0.5, p_delete=0.5,
                                     max_live=SERVE_MAX_LIVE, seed=seed))
    return ops, len(prefill)


def _cuts_ops(seed, n, steps, scale):
    """The path and its chords are the set-up; each round is one delete
    and one insert, so ``steps`` updates are ``steps // 2`` rounds."""
    ops = list(adversarial_cuts(n, (steps + 1) // 2, seed=seed))
    return ops, (n - 1) + len(range(0, n - 4, 4))


# ----------------------------------------------------------------- targets


def _build_serve_rw(n, directory):
    return BatchedMSF(n, engine="sequential", sparsify=True,
                      consistency="strong", batch_size=64, pool_size=2,
                      backend="scalar")


def _build_ingest(n, directory):
    return BatchedMSF(n, engine="sequential", sparsify=True,
                      consistency="deferred", batch_size=16, pool_size=2,
                      backend="scalar", durability="wal",
                      durable_dir=os.path.join(directory, "wal"),
                      snapshot_every=16)


def _build_cluster(n, directory):
    return ClusterMSF(n, pool_size=2, batch_size=64, consistency="strong",
                      processes=True, start_method="fork",
                      store_path=os.path.join(directory, "store.sqlite"),
                      beat_interval=0.1, stale_timeout=5.0)


def _build_cuts(n, directory):
    return DynamicMSF(n, engine="sequential", sparsify=False,
                      backend="compiled")


def _build_pram(n, directory):
    return ParallelDynamicMSF(n, audit="fast", impl="onepass",
                              backend="scalar")


WORKLOADS: dict[str, Workload] = {wl.name: wl for wl in (
    Workload(
        "serve-rw",
        "read-your-writes serving: each read flushes a 1-2 op batch, so "
        "the sparsification walk and the snapshot rebuild do the work",
        "front", 1024, _serve_rw_ops, _build_serve_rw, rate=300),
    Workload(
        "ingest-durable",
        "write-driven deferred front with a WAL: full 16-op batches, "
        "coalescing, fork-join levels, snapshots and a timed restore",
        "front", 512, _ingest_ops, _build_ingest, rate=330),
    Workload(
        "cluster-mix",
        "serve-rw's traffic over 2 worker processes: routing, pipe "
        "round-trips, store commits and the boundary merge",
        "front", 1024, _cluster_ops, _build_cluster, rate=200),
    Workload(
        "cuts-worst",
        "the paper's worst case on the compiled backend: every delete "
        "splits one long Euler tour and forces a full-width MWR search",
        "engine", 1024, _cuts_ops, _build_cuts, rate=400),
    Workload(
        "pram-cuts",
        "Theorem 3.1's EREW engine on the trace-replay tier, with exact "
        "depth and work per update",
        "engine", 512, _cuts_ops, _build_pram, rate=280),
)}


def scaled_n(wl: Workload, scale: float) -> int:
    """``wl.n`` scaled for smoke runs (at least 16 vertices)."""
    return _scaled(wl.n, scale, 16)
