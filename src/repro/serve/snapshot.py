"""Epoch-stamped connectivity read view over the root engine.

Two vertices are connected exactly when their chunks lie in the same
Euler list, and the root engine's :class:`~repro.core.lsds.ListRegistry`
keeps that chunk -> list answer in a version-stamped cache.  A
:class:`ConnectivitySnapshot` reads that cache directly: a copy of n
vertex pointers to build, two cache lookups per query, no op charged
and no vertex built.  The serving fronts build one per epoch, on the
first read after a batch is applied.  The root engine changes only when
a batch is applied, a restore runs or a recovery rebuild runs; each of
those bumps the epoch or drops the view.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ConnectivitySnapshot"]


class ConnectivitySnapshot:
    """Connectivity of one epoch, read from a root degree reducer's core."""

    __slots__ = ("n", "epoch", "_slots", "_registry", "_msf_ids",
                 "_components")

    def __init__(self, n: int, engine, epoch: int) -> None:
        self.n = n
        self.epoch = epoch
        core = engine.core
        # a vertex the core has not built is isolated.  Ids past n are
        # the core's gadgets, so the view copies the first n slots (n
        # pointers; only a batch builds a vertex, and a batch retires
        # the view)
        self._slots = core._slots[:n]
        self._registry = core.fabric.registry
        self._msf_ids = engine.msf_ids
        self._components: Optional[int] = None

    # ------------------------------------------------------------- queries

    def connected(self, u: int, v: int) -> bool:
        a = self._slots[u]
        b = self._slots[v]
        if a is None or b is None:
            return u == v
        # the registry's version cache read in place (a hit is the common
        # case and a call per lookup was a third of a read); a miss goes
        # through the same resolve the engine's charged lookups use
        reg = self._registry
        ver = reg.version
        ca = a.pc.chunk
        cb = b.pc.chunk
        la = ca.cache_lst if ca.cache_ver == ver else reg.resolve(ca)
        lb = cb.cache_lst if cb.cache_ver == ver else reg.resolve(cb)
        return la is lb

    def component_count(self) -> int:
        # the MSF is a forest: each of its edges joins two components
        if self._components is None:
            self._components = self.n - len(self._msf_ids())
        return self._components
