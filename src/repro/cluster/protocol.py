"""Shard map and wire protocol of the sharded serving cluster.

**Sharding.**  The vertex set ``[0, n)`` is split into ``k`` contiguous
ranges (the same halving geometry the sparsification tree uses, flattened
to one level).  An edge's *home* is:

* shard ``s`` when both endpoints fall in shard ``s``'s range (the
  worker for ``s`` owns it inside a shard-scoped sparsification tree);
* :data:`~repro.cluster.store.BOUNDARY` when the endpoints fall in
  different shards (the coordinator's merge tree holds it raw);
* :data:`~repro.cluster.store.LOOPS` for self-loops (registry-only).

Edge sets of distinct homes are disjoint, so per-home engines never
contend -- the cluster-level instance of the paper's Section 5.3
independence argument, promoted from tree levels (modelled by cost
accounting in one process) to processes over vertex ranges.

**Messages** are plain picklable tuples over a ``multiprocessing`` pipe;
the first element is the tag:

====================  =============================================
coordinator -> worker
--------------------------------------------------------------------
``("batch", seq, ops)``        ``ops``: ``[(idx, op), ...]`` in canonical
                               batch order; op is ``("ins", eid, u, v, w)``
                               or ``("del", eid)`` in *global* vertex ids
``("fingerprint",)``           request the shard engine's state digest
``("stats",)``                 request the worker's counters
``("stop",)``                  graceful shutdown
worker -> coordinator
--------------------------------------------------------------------
``("deltas", seq, results)``   ``results``: ``[(idx, added, removed)]``
                               per op, eid lists of the shard-MSF delta
``("fingerprint", fp)``        :func:`repro.resilience.checks.state_fingerprint`
``("stats", dict)``            counters (ops applied, batches, beats)
``("error", seq, repr)``       an op raised inside the worker
====================  =============================================
"""

from __future__ import annotations

from .store import BOUNDARY, LOOPS

__all__ = ["ShardMap", "BOUNDARY", "LOOPS"]


class ShardMap:
    """Contiguous equal-split assignment of ``[0, n)`` to ``k`` shards."""

    __slots__ = ("n", "k", "_bounds")

    def __init__(self, n: int, k: int) -> None:
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got n={n}")
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= shards <= n, got {k} for n={n}")
        self.n = n
        self.k = k
        self._bounds = tuple((s * n // k, (s + 1) * n // k)
                             for s in range(k))

    def bounds(self, shard: int) -> tuple[int, int]:
        """The vertex range ``[lo, hi)`` owned by ``shard``."""
        return self._bounds[shard]

    def shard_of(self, u: int) -> int:
        """The shard whose range contains vertex ``u`` (O(1) arithmetic:
        ranges are the equal split, so invert then correct for rounding)."""
        s = min(self.k - 1, u * self.k // self.n)
        lo, hi = self._bounds[s]
        while u < lo:
            s -= 1
            lo, hi = self._bounds[s]
        while u >= hi:
            s += 1
            lo, hi = self._bounds[s]
        return s

    def home_of(self, u: int, v: int) -> int:
        """The home of edge ``{u, v}`` (a shard id, BOUNDARY, or LOOPS)."""
        if u == v:
            return LOOPS
        su = self.shard_of(u)
        return su if su == self.shard_of(v) else BOUNDARY

    def shards(self) -> range:
        return range(self.k)
