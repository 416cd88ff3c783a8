"""Sequential dynamic MSF for sparse degree-<=3 graphs (Theorem 1.2).

Update algorithms follow Section 2.6 verbatim:

* **insert(u, v, w)**: account the edge in the chunk fabric; if the
  endpoints are in different trees the edge becomes a tree edge and the
  tours are linked; otherwise query the link-cut forest for the heaviest
  edge ``e'`` on the tree path and, if the new edge is lighter, swap it in.
* **delete(e)**: un-account the edge; if it was a tree edge, cut the tour,
  search for a minimum-weight replacement (Lemma 2.4) and reconnect.

Two search-free splices serve the degree reducer: :meth:`drop_leaf`
deletes the only edge of a vertex, and :meth:`bypass` contracts a vertex
out of a path of ``-inf`` edges; neither can change the MSF.

With ``K = Theta(sqrt(n log n))`` every update costs
``O(J log J + K + log n) = O(sqrt(n log n))`` elementary operations in the
worst case.  General graphs are handled by wrapping this engine in
sparsification (``repro.core.sparsify``) and the degree reducer
(``repro.core.degree``); the :class:`repro.DynamicMSF` facade does both.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

from ..analysis.counters import OpCounter
from ..structures.link_cut import LinkCutForest
from . import euler, mwr
from .fabric import Fabric
from .lsds import EulerList
from .model import MAX_DEGREE, Edge, Vertex, adj_add, adj_remove

__all__ = ["SparseDynamicMSF"]

_NEG_INF = float("-inf")


class _VertexTable:
    """List-like vertex container materializing entries on first access."""

    __slots__ = ("_engine", "slots")

    def __init__(self, engine: "SparseDynamicMSF") -> None:
        self._engine = engine
        #: vertices by id, ``None`` until first touch; reading a slot
        #: builds nothing (the serving read view relies on this)
        self.slots: list[Optional[Vertex]] = [None] * engine.n_max

    def __getitem__(self, vid: int) -> Vertex:
        vx = self.slots[vid]
        if vx is None:
            vx = self._engine._materialize_vertex(vid)
            self.slots[vid] = vx
        return vx

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[Vertex]:
        """Iterate *materialized* vertices only.

        Unmaterialized slots own no structures (no occurrence, no list, no
        link-cut node), so consumers that walk all vertices -- the
        structural auditor being the only one -- would both skew and
        defeat laziness by forcing the whole pool into existence.
        """
        for vx in self.slots:
            if vx is not None:
                yield vx

    def materialized(self) -> int:
        """How many vertices have been built (diagnostics)."""
        return sum(1 for vx in self.slots if vx is not None)


class SparseDynamicMSF:
    """Dynamic MSF over a fixed vertex set ``0..n_max-1`` with degree <= 3.

    Parameters
    ----------
    n_max:
        number of vertices (the structure is sized for this; the
        sparsification layer instantiates one engine per partition node).
    K:
        chunk-size parameter; default ``sqrt(n log n)`` (``flavor``-driven).
    lazy_vertices:
        materialize per-vertex structures (Vertex, link-cut node, singleton
        Euler list) on first touch instead of in ``__init__``.  Used by the
        degree reducer, whose ``n + 2 * max_edges`` gadget pool is mostly
        untouched under sparse workloads -- eager construction dominated
        the sparsified facade's E9 wall time.  Materialization runs with
        accounting paused, so per-update measured costs are identical to
        the eager engine's (construction was attributed to ``__init__``,
        outside every measurement window).  Untouched singleton lists are
        structurally inert: they are short (no chunk id), belong to no
        tour, and interact with nothing until their vertex is used.
    """

    def __init__(self, n_max: int, K: Optional[int] = None, *,
                 flavor: str = "sequential",
                 ops: Optional[OpCounter] = None,
                 lazy_vertices: bool = False,
                 backend: str = "scalar") -> None:
        self.n_max = n_max
        self.backend = backend
        # Per-instance edge-id source: a class-level counter (the old code)
        # made auto-assigned eids depend on every engine ever constructed
        # in the process, breaking cross-instance determinism.
        self._eid = itertools.count(1)
        self.ops = ops if ops is not None else OpCounter()
        # Bound once: the parallel subclass sets ``machine`` before calling
        # super().__init__; the per-materialization getattr is hoisted here.
        self._machine = getattr(self, "machine", None)
        # Compiled tier: batch hot-path charges in a C-side accumulator,
        # folded back into the counter lazily, by its next read (see
        # OpCounter.flush).  Attached before any structure is built, so
        # every charge of the engine's life goes through it.
        if backend == "compiled":
            from . import compiled as _compiled
            if _compiled.HAVE_COMPILED and self.ops._stream is None:
                self.ops.attach_stream(_compiled.kernels.ChargeStream())
        self.fabric = self._build_fabric(n_max, K, flavor, self.ops, backend)
        self.lct = self._new_lct()
        self.edges: dict[int, Edge] = {}
        self.tree_edges: set[Edge] = set()
        #: append-only log of tree-status flips ``(eid, is_tree_now)`` --
        #: consumed by the degree reducer / sparsification tree to compute
        #: net MSF deltas per update
        self.change_log: list[tuple[int, bool]] = []
        # incremental MSF weight: finite part plus +/-inf multiplicities
        # (the degree reducer's gadget chain edges weigh -inf, and float
        # delta arithmetic on infinities would produce NaN)
        self._w_finite = 0.0
        self._w_ninf = 0
        self._w_pinf = 0
        if lazy_vertices:
            self.vertices: list[Vertex] = _VertexTable(self)
        else:
            self.vertices = []
            for vid in range(n_max):
                vx = Vertex(vid)
                vx.lct = self.lct.make_node(label=("v", vid))
                self.fabric.new_singleton_list(vx)
                self.vertices.append(vx)
        self.ops.flush()

    def _build_fabric(self, n_max, K, flavor, ops, backend) -> Fabric:
        """Hook: the parallel engine substitutes kernel-backed components."""
        return Fabric(n_max, K, flavor=flavor, ops=ops, backend=backend)

    def _new_lct(self):
        """Link-cut forest factory: the compiled tier swaps in the
        flat-mirror twin with the splay loops in C (same API, same ops
        accounting, same node identities)."""
        if self.backend == "compiled":
            from . import compiled as _compiled
            if _compiled.HAVE_COMPILED:
                from .compiled.lct import CompiledLinkCutForest
                return CompiledLinkCutForest()
        return LinkCutForest()

    def _materialize_vertex(self, vid: int) -> Vertex:
        """Build vertex ``vid`` on first touch (``lazy_vertices`` mode).

        Accounting (op counters, and the PRAM machine's analytic charges
        for the parallel engine) is paused: the eager engines did this work
        in ``__init__``, outside every per-update measurement window.
        """
        machine = self._machine
        with self.ops.paused():
            if machine is not None:
                with machine.paused():
                    vx = Vertex(vid)
                    vx.lct = self.lct.make_node(label=("v", vid))
                    self.fabric.new_singleton_list(vx)
            else:
                vx = Vertex(vid)
                vx.lct = self.lct.make_node(label=("v", vid))
                self.fabric.new_singleton_list(vx)
        return vx

    # ------------------------------------------------------------- queries

    def connected(self, u: int, v: int) -> bool:
        """Same-tree test via Euler-list identity, O(log n)."""
        a = self.vertices[u].pc.chunk  # type: ignore[union-attr]
        b = self.vertices[v].pc.chunk  # type: ignore[union-attr]
        return self.fabric.list_of(a) is self.fabric.list_of(b)

    def msf_edges(self) -> Iterator[Edge]:
        yield from self.tree_edges

    def msf_weight(self) -> float:
        """Total MSF weight, maintained incrementally (O(1) per query).

        Matches ``msf_weight_recomputed()`` up to float associativity;
        infinite chain-edge weights (degree reducer) are tracked by
        multiplicity so deltas never produce ``inf - inf`` NaNs.
        """
        if self._w_ninf and self._w_pinf:
            return float("nan")
        if self._w_ninf:
            return float("-inf")
        if self._w_pinf:
            return float("inf")
        return self._w_finite

    def msf_weight_recomputed(self) -> float:
        """Reference full sum over tree edges (tests / debugging)."""
        return sum(e.weight for e in self.tree_edges)

    def _weight_add(self, w: float) -> None:
        if math.isinf(w):
            if w < 0:
                self._w_ninf += 1
            else:
                self._w_pinf += 1
        else:
            self._w_finite += w

    def _weight_remove(self, w: float) -> None:
        if math.isinf(w):
            if w < 0:
                self._w_ninf -= 1
            else:
                self._w_pinf -= 1
        else:
            self._w_finite -= w

    def degree(self, u: int) -> int:
        return self.vertices[u].degree()

    # ------------------------------------------------------------- updates

    def insert_edge(self, u: int, v: int, weight: float,
                    eid: Optional[int] = None) -> Edge:
        """Insert edge ``{u, v}``; returns its handle.  O(sqrt(n log n))."""
        # raised (not asserted): load-bearing guards on a public entry
        # point; they must survive `python -O`
        if u == v:
            raise ValueError("self-loops never join an MSF; filter them above")
        vu, vv = self.vertices[u], self.vertices[v]
        if vu.degree() >= MAX_DEGREE or vv.degree() >= MAX_DEGREE:
            raise ValueError("degree bound exceeded; route through "
                             "core.degree.DegreeReducer")
        e = Edge(vu, vv, weight, next(self._eid) if eid is None else eid)
        if e.eid in self.edges:
            raise ValueError(f"duplicate edge id {e.eid}; (weight, eid) "
                             f"keys must be unique")
        adj_add(vu, e)
        adj_add(vv, e)
        self.edges[e.eid] = e
        self.fabric.register_edge(e)
        if not self.connected(u, v):
            self._make_tree_edge(e)
        else:
            heaviest = self.lct.path_max(vu.lct, vv.lct)
            self.ops.charge("lct", 1)
            f: Edge = heaviest.label
            if e.key < f.key:
                self._unmake_tree_edge(f)
                self._make_tree_edge(e)
        return e

    def delete_edge(self, e: Edge) -> Optional[Edge]:
        """Delete edge ``e``; returns the replacement tree edge, if any."""
        # raised, not asserted: the registry check must survive `python -O`
        if self.edges.get(e.eid) is not e:
            raise ValueError(f"unknown edge handle (eid {e.eid})")
        self._retire_edge(e)
        if not e.is_tree:
            return None
        self._clear_tree_status(e)
        lu, lv = euler.cut_tour(self.fabric, e)
        replacement = self._find_mwr(lu, lv)
        if replacement is not None:
            self._make_tree_edge(replacement)
        return replacement

    def drop_leaf(self, e: Edge, vid: int) -> None:
        """Delete tree edge ``e`` whose endpoint ``vid`` has no other edge.

        No replacement can exist (nothing else touches ``vid``), so this
        is the edge bookkeeping plus :func:`euler.detach_leaf`: no MWR
        search, no list split or join.  The degree reducer frees a tail
        gadget with it.
        """
        leaf = self.vertices[vid]
        if (self.edges.get(e.eid) is not e or not e.is_tree
                or leaf.edges != [e]):
            raise ValueError(f"edge {e.eid} is not the only edge of "
                             f"vertex {vid}")
        self._retire_edge(e)
        self._clear_tree_status(e)
        euler.detach_leaf(self.fabric, e, leaf)

    def bypass(self, e_in: Edge, e_out: Edge, vid: int, eid: int) -> Edge:
        """Contract vertex ``vid`` out of the path ``p - vid - q``.

        ``e_in = (p, vid)`` and ``e_out = (vid, q)`` are replaced by one
        edge ``(p, q)`` with id ``eid``, returned; ``vid`` is left
        isolated.  All three edges weigh ``-inf``: only then is the MSF
        unchanged (every ``-inf`` edge is in it, and contracting a path of
        them changes no path maximum a real edge is compared with), so
        this is bookkeeping plus :func:`euler.bypass_node`, never a search.
        The degree reducer frees a mid-chain gadget with it.
        """
        mid = self.vertices[vid]
        retired = (e_in, e_out)
        if (any(self.edges.get(g.eid) is not g or not g.is_tree
                or g.weight != _NEG_INF for g in retired)
                or len(mid.edges) != 2 or e_in not in mid.edges
                or e_out not in mid.edges):
            raise ValueError(f"bypass of vertex {vid} needs its two -inf "
                             f"tree edges")
        if eid in self.edges and eid not in (e_in.eid, e_out.eid):
            raise ValueError(f"duplicate edge id {eid}")
        p, q = e_in.other(mid), e_out.other(mid)
        for g in retired:
            self._retire_edge(g)
            self._clear_tree_status(g)
        e = Edge(p, q, _NEG_INF, eid)
        euler.bypass_node(self.fabric, e_in, e_out, e, mid)
        adj_add(p, e)
        adj_add(q, e)
        self.edges[eid] = e
        self.fabric.register_edge(e)
        self._set_tree_status(e)
        return e

    def delete_between(self, u: int, v: int) -> Optional[Edge]:
        """Delete one (the lightest) edge between ``u`` and ``v``."""
        vu = self.vertices[u]
        cands = [e for e in vu.edges if e.other(vu) is self.vertices[v]]
        if not cands:
            raise ValueError(f"no edge {u}-{v}")
        return self.delete_edge(min(cands, key=lambda e: e.key))

    # ------------------------------------------------------------- internal

    def _find_mwr(self, lu: EulerList, lv: EulerList) -> Optional[Edge]:
        """MWR search hook; the parallel engine overrides this with kernels."""
        return mwr.find_mwr(self.fabric, lu, lv)

    def _make_tree_edge(self, e: Edge) -> None:
        self._set_tree_status(e)
        euler.link_tour(self.fabric, e)

    def _unmake_tree_edge(self, f: Edge) -> None:
        """Demote tree edge ``f`` to a non-tree edge (it stays in G)."""
        self._clear_tree_status(f)
        euler.cut_tour(self.fabric, f)

    def _set_tree_status(self, e: Edge) -> None:
        """Tree set, weight, change log and link-cut link; no tour work."""
        e.is_tree = True
        self.tree_edges.add(e)
        self._weight_add(e.weight)
        self.change_log.append((e.eid, True))
        e.lct = self.lct.make_node(key=e.key, label=e)
        self.lct.link_edge(e.lct, e.u.lct, e.v.lct)
        self.ops.charge("lct", 1)

    def _clear_tree_status(self, f: Edge) -> None:
        """Tree set, weight, change log and link-cut cut; no tour work."""
        f.is_tree = False
        self.tree_edges.discard(f)
        self._weight_remove(f.weight)
        self.change_log.append((f.eid, False))
        self.lct.cut_edge(f.lct, f.u.lct, f.v.lct)
        self.lct.discard(f.lct)
        f.lct = None
        self.ops.charge("lct", 1)

    def _retire_edge(self, e: Edge) -> None:
        """Take ``e`` out of the registry, adjacency and edge accounting."""
        del self.edges[e.eid]
        adj_remove(e.u, e)
        adj_remove(e.v, e)
        self.fabric.unregister_edge(e)
