"""repro.cluster -- multi-process sharded serving cluster.

Escapes the GIL by promoting the paper's Section 5.3 independence
argument one level up: where a single sparsification tree only *models*
its independent per-level engine updates as parallel (by cost
accounting), this package shards the *vertex set* over a pool of worker
**processes**, each owning a warm shard-scoped sparsification engine,
with a coordinator that routes canonical batches, merges the shard
forests and the raw cross-shard edges in one deterministic merge tree, and
recovers dead workers from a SQLite-WAL coordination store.

The merged forest is provably identical to the serial path at every
pool size -- see ``docs/DESIGN.md`` ("Sharded serving cluster") for the
determinism contract and the recovery ladder.

Public surface:

* :class:`Coordinator` -- routing, merge, recovery (the engine room);
* :class:`ShardMap` -- contiguous vertex-range sharding and edge homes;
* :class:`CoordinationStore` -- the SQLite-WAL registry/claims/heartbeat
  store;
* :class:`ShardEngine` / :func:`worker_main` -- the per-process side;
* the serving facade is :class:`repro.serve.ClusterMSF`.
"""

from .coordinator import Coordinator, WorkerDied, default_cluster_size
from .protocol import BOUNDARY, LOOPS, ShardMap
from .store import CoordinationStore
from .worker import ShardEngine, worker_main

__all__ = [
    "BOUNDARY",
    "LOOPS",
    "CoordinationStore",
    "Coordinator",
    "ShardEngine",
    "ShardMap",
    "WorkerDied",
    "default_cluster_size",
    "worker_main",
]
