"""Dynamic Frederickson degree-3 reduction (Section 1.1's assumption).

The core engines require max degree 3.  Frederickson's classical
transformation replaces each vertex ``v`` by a chain of *gadget* nodes
joined by ``-inf``-weight edges; every real edge endpoint is hosted by one
gadget node, so gadget degrees stay <= 3 (two chain edges + one real edge).
Chain edges always belong to the MSF (their keys are below every real key,
and they are inserted connecting a fresh isolated node, so they are never
candidates for replacement and never leave the forest unless deleted).

This layer makes the transformation *dynamic*, costing O(1) extra core
work per operation and never a replacement search:

* inserting a real edge may extend each endpoint's chain by one node
  (one ``-inf`` core insertion each, a leaf link);
* deleting a real edge is one core deletion, then each freed host slot
  leaves its chain by a *gadget splice*: the anchor (the vertex itself)
  just becomes the chain's free slot; a freed tail gadget is dropped as a
  leaf (:meth:`SparseDynamicMSF.drop_leaf`); a freed mid-chain gadget is
  bypassed, its two chain edges replaced by one
  (:meth:`SparseDynamicMSF.bypass`).  No real edge ever moves.

So every non-anchor chain node hosts an edge, and the gadgets in use never
exceed the hosted slots: the pool of ``2 * max_edges`` gadget ids cannot
run dry.  Freed gadgets return to a LIFO pool.

Real edge ids and chain-edge ids come from separate counters, so an
auto-assigned real id is its insert ordinal whatever the chains did.
Self-loops never enter an MSF; they are tracked locally and ignored.
Parallel edges are supported (each gets fresh host slots).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from ..analysis.counters import OpCounter
from ..resilience.errors import InvalidInputError, UnknownEdgeError
from .model import Edge, check_endpoints, check_weight
from .seq_msf import SparseDynamicMSF

__all__ = ["DegreeReducer"]

_NEG_INF = float("-inf")


class _Chain:
    """The gadget chain of one real vertex (the anchor is the vertex).

    A singly linked path ``anchor -> .. -> tail`` (``succ``); a gadget's
    predecessor is the far end of its chain edge.  Every non-anchor node
    hosts an edge, and ``free`` is ``[anchor]`` exactly when the anchor
    hosts nothing.
    """

    __slots__ = ("anchor", "tail", "succ", "free", "hosted")

    def __init__(self, g0: int) -> None:
        self.anchor = self.tail = g0
        self.succ: dict[int, int] = {}  # node -> next node toward the tail
        self.free: list[int] = [g0]     # the anchor, while it hosts nothing
        self.hosted: dict[int, int] = {}  # gadget node -> hosted real eid

    def nodes(self) -> list[int]:
        """The chain in order, anchor first (checks and tests)."""
        out = [self.anchor]
        for _ in range(len(self.succ)):  # bounded: a corrupt cycle ends
            nxt = self.succ.get(out[-1])
            if nxt is None:
                break
            out.append(nxt)
        return out


class DegreeReducer:
    """Arbitrary-degree dynamic MSF on top of a degree-3 core engine.

    Parameters
    ----------
    n:
        number of real vertices (ids ``0..n-1``).
    max_edges:
        maximum number of concurrently live real edges (sizes the core's
        vertex pool: ``n`` anchors plus ``2 * max_edges`` gadget nodes, one
        per hosted non-anchor slot, which every live endpoint bounds).
    engine_factory:
        ``(n_core) -> engine``; defaults to the sequential sparse engine.
    """

    def __init__(self, n: int, max_edges: Optional[int] = None, *,
                 engine_factory=None, K: Optional[int] = None,
                 ops: Optional[OpCounter] = None,
                 backend: str = "scalar") -> None:
        # Per-instance edge-id counters.  A class-level counter would draw
        # ids in *global* call order, so a sparsification tree node's
        # gadget chain edges would get ids that depend on every other
        # engine in the process -- and chain-edge ids break (-inf, eid)
        # key ties inside the core engines.  Real ids and (negated)
        # chain-edge ids draw from separate counters, so an auto-assigned
        # real id is its insert ordinal, independent of chain history.
        self._eid = itertools.count(1)
        self._chain_eid = itertools.count(1)
        self.n = n
        self.max_edges = max_edges if max_edges is not None else max(2 * n, 16)
        n_core = self._n_core = n + 2 * self.max_edges
        if engine_factory is None:
            # lazy vertices: the gadget id space is sized for the worst
            # case (n + 2 * max_edges) but sparse workloads touch a
            # fraction of it; the core builds a vertex on first touch, and
            # the reducer below builds a chain on a vertex's first edge and
            # hands out gadget ids from a high-water mark, so a node engine
            # costs memory in its live edges, not in n_core (accounting
            # stays identical -- see seq_msf).
            self.core = SparseDynamicMSF(n_core, K=K, ops=ops,
                                         lazy_vertices=True, backend=backend)
        else:
            self.core = engine_factory(n_core)
        # gadget ids: never-used ids from the high-water mark up, returned
        # ids on a LIFO stack that is drained first
        self._next_gadget = n
        self._free_gadgets: list[int] = []
        #: vertex -> its chain, only while the vertex hosts an edge; an
        #: absent vertex is its own one-node chain (anchor = vertex id)
        self.chains: dict[int, _Chain] = {}
        # real-edge registry: eid -> (u, v, w, core Edge, host_u, host_v)
        self.real: dict[int, tuple[int, int, float, Edge, int, int]] = {}
        self.self_loops: dict[int, tuple[int, float]] = {}
        # chain core-edges: gadget id -> core Edge from its chain
        # predecessor (``u``) to it (``v``)
        self._chain_edge: dict[int, Edge] = {}

    # ------------------------------------------------------------- queries

    def connected(self, u: int, v: int) -> bool:
        # every chain is anchored at its own vertex id
        return self.core.connected(u, v)

    def msf_edges(self) -> Iterator[tuple[int, int, float, int]]:
        """Real MSF edges as ``(u, v, w, eid)``."""
        for eid, (u, v, w, edge, _hu, _hv) in self.real.items():
            if edge.is_tree:
                yield (u, v, w, eid)

    def msf_ids(self) -> set[int]:
        return {eid for eid, rec in self.real.items() if rec[3].is_tree}

    def msf_weight(self) -> float:
        return sum(w for (_u, _v, w, _e) in self.msf_edges())

    def degree(self, u: int) -> int:
        chain = self.chains.get(u)
        return len(chain.hosted) if chain is not None else 0

    def edge_count(self) -> int:
        return len(self.real) + len(self.self_loops)

    # ------------------------------------------------------------- updates

    def insert_edge(self, u: int, v: int, w: float,
                    eid: Optional[int] = None) -> int:
        """Insert a real edge; returns its id.  O(1) core updates."""
        # raised (not asserted): these guards are load-bearing on public
        # entry points -- the serving layer's per-op rejection depends on
        # duplicate ids raising even under `python -O`.  The weight and
        # endpoint checks come first so a rejected op does not even draw
        # an id.
        check_weight(w)
        check_endpoints(u, v, self.n)
        if u != v:
            self._check_pool(u, v)
        eid = next(self._eid) if eid is None else eid
        if eid <= 0:
            raise InvalidInputError(
                "non-positive ids are reserved for gadget chain edges")
        if eid in self.real or eid in self.self_loops:
            raise InvalidInputError(f"duplicate real edge id {eid}")
        if u == v:
            self.self_loops[eid] = (u, w)
            return eid
        hu = self._claim_slot(u, eid)
        hv = self._claim_slot(v, eid)
        core_edge = self.core.insert_edge(hu, hv, w, eid=eid)
        self.real[eid] = (u, v, w, core_edge, hu, hv)
        return eid

    def delete_edge(self, eid: int) -> None:
        if eid in self.self_loops:
            del self.self_loops[eid]
            return
        rec = self.real.pop(eid, None)
        if rec is None:
            raise UnknownEdgeError(eid)
        u, v, _w, core_edge, hu, hv = rec
        self.core.delete_edge(core_edge)
        self._release_slot(u, hu, eid)
        self._release_slot(v, hv, eid)

    # ----------------------------------------------- MSF-delta reporting

    def insert_reported(self, u: int, v: int, w: float,
                        eid: int) -> tuple[set[int], set[int]]:
        """Insert and return the net real-MSF delta ``(added, removed)``.

        The sparsification tree (Section 5) needs, per local-graph update,
        which edges entered/left the local MSF so it can forward O(1)
        updates to the parent node.  Net deltas are computed from the core's
        change log, so chain-edge flips and transient swaps cancel out.
        """
        mark = len(self.core.change_log)
        self.insert_edge(u, v, w, eid=eid)
        return self._net_delta(mark)

    def delete_reported(self, eid: int) -> tuple[set[int], set[int]]:
        """Delete and return the net real-MSF delta ``(added, removed)``.

        A deleted tree edge logs its own flip, so it lands in ``removed``
        via the same net-delta computation as every other status change.
        """
        mark = len(self.core.change_log)
        self.delete_edge(eid)
        return self._net_delta(mark)

    def _net_delta(self, mark: int) -> tuple[set[int], set[int]]:
        # single pass over the log tail: the first flip of each touched
        # edge tells its status *before* the update (the old per-edge
        # `next()` rescans made this quadratic in the tail length)
        first_flip: dict[int, bool] = {}
        for eid, flag in self.core.change_log[mark:]:
            if eid > 0 and eid not in first_flip:
                first_flip[eid] = flag
        added: set[int] = set()
        removed: set[int] = set()
        for t, flip in first_flip.items():
            now = t in self.real and self.real[t][3].is_tree
            was = not flip  # status before the first flip
            if now and not was:
                added.add(t)
            elif was and not now:
                removed.add(t)
        return added, removed

    # ------------------------------------------------------------- chains

    def _check_pool(self, u: int, v: int) -> None:
        """Reject an insert whose two slot claims need more fresh gadgets
        than the pool holds, before either claim changes any state."""
        need = 0
        for x in (u, v):
            # a vertex without a chain hosts its first edge on its anchor
            chain = self.chains.get(x)
            if chain is not None and not chain.free:
                need += 1
        spare = len(self._free_gadgets) + self._n_core - self._next_gadget
        if need > spare:
            raise InvalidInputError(
                f"gadget pool exhausted ({len(self.real)} live edges); "
                f"raise max_edges (now {self.max_edges})")

    def _claim_slot(self, v: int, eid: int) -> int:
        """A host slot on v's chain: the anchor if it is free, else a new
        tail gadget (one leaf link)."""
        chain = self.chains.get(v)
        if chain is None:
            chain = self.chains[v] = _Chain(v)
        if chain.free:
            slot = chain.free.pop()
        else:
            tail = chain.tail
            if self._free_gadgets:
                slot = self._free_gadgets.pop()
            elif self._next_gadget < self._n_core:
                slot = self._next_gadget
                self._next_gadget += 1
            else:  # pragma: no cover - _check_pool rejects this first
                raise AssertionError("gadget pool exhausted")
            # chain edges get fresh negative-infinity keys; *negative* edge
            # ids keep them in a namespace disjoint from real edges, so the
            # (weight, eid) total order stays strict inside the core
            chain_edge = self.core.insert_edge(tail, slot, _NEG_INF,
                                               eid=-next(self._chain_eid))
            assert chain_edge.is_tree
            self._chain_edge[slot] = chain_edge
            chain.succ[tail] = slot
            chain.tail = slot
        chain.hosted[slot] = eid
        return slot

    def _release_slot(self, v: int, slot: int, eid: int) -> None:
        """Free a host slot by one O(1) gadget splice, never moving an edge.

        The anchor becomes the chain's free slot.  A tail gadget is dropped
        as a leaf; a mid-chain gadget is bypassed, its successor's chain
        edge replaced by one from its predecessor (same id).  Either way
        the gadget returns to the pool.  A chain left hosting nothing is
        just its anchor again and is dropped.
        """
        chain = self.chains[v]
        if chain.hosted.pop(slot) != eid:  # pragma: no cover - corruption
            raise AssertionError(f"slot {slot} did not host edge {eid}")
        if slot == chain.anchor:
            chain.free = [slot]
        else:
            e_in = self._chain_edge.pop(slot)
            pred = e_in.u.vid
            if slot == chain.tail:
                self.core.drop_leaf(e_in, slot)
                del chain.succ[pred]
                chain.tail = pred
            else:
                nxt = chain.succ.pop(slot)
                e_out = self._chain_edge[nxt]
                self._chain_edge[nxt] = self.core.bypass(
                    e_in, e_out, slot, e_out.eid)
                chain.succ[pred] = nxt
            self._free_gadgets.append(slot)
        if not chain.hosted:
            del self.chains[v]
