"""Deep structural auditor for the dynamic-MSF engines.

Used by the test-suite after (nearly) every update to assert all paper
invariants simultaneously:

* Invariant 1 on every chunk; id'dness matches the short-list regime;
* DLL contiguity of chunks and lists;
* the global matrix ``C`` equals a brute-force recomputation, and every
  row's live-lane set names exactly its non-``INF_KEY`` lanes;
* every LSDS vertex aggregate equals the recomputed min/OR of its subtree;
* every list is a valid Euler tour of its tree (cyclic adjacencies are
  exactly the tree-edge arcs, each tree edge owns exactly two arcs,
  occurrence multiplicities are ``max(1, deg_T)``);
* principal-copy pointers are consistent;
* ``BT_c`` trees mirror chunk contents (wherever the chunk space keeps
  them: the parallel engine's ``ParChunkSpace``);
* the engine's forest equals the Kruskal-unique MSF of its edge set.
"""

from __future__ import annotations

from collections import defaultdict

try:
    import numpy as np
except ImportError:  # pure-python fallback; see core._nplite
    from . import _nplite as np  # type: ignore[no-redef]

from ..reference.oracle import kruskal
from ..structures import two_three_tree as tt
from .model import INF_KEY
from .par.engine import ParChunkSpace
from .seq_msf import SparseDynamicMSF

__all__ = ["audit"]


def audit(engine: SparseDynamicMSF, *, lsds: bool = True,
          matrix: bool = True, forest: bool = True) -> None:
    """Full structural audit; ``lsds=False`` for the scan-ablation engine
    (which intentionally maintains no LSDS aggregates).

    ``matrix=False`` / ``forest=False`` skip the two brute-force global
    recomputations (matrix ``C`` and the Kruskal forest oracle) -- the
    resilience layer's ``"structural"`` check tier uses this gating so the
    per-structure invariants stay affordable on large engines, reserving
    the oracles for ``"full"`` (see :mod:`repro.resilience.checks`).
    """
    space = engine.fabric.space
    registry = engine.fabric.registry
    K = space.K
    keeps_bt = isinstance(space, ParChunkSpace)

    seen_occs = set()
    seen_chunks = set()
    list_of_vertex: dict[int, object] = {}

    for lst in list(registry.lists()):
        chunks = list(lst.chunks())
        assert chunks, "empty list registered"
        # --- chunk chain / DLL contiguity
        assert chunks[0].head is not None and chunks[0].head.prev is None
        assert chunks[-1].tail is not None and chunks[-1].tail.next is None
        for a, b in zip(chunks, chunks[1:]):
            assert a.tail.next is b.head and b.head.prev is a.tail
        # --- shortness vs ids
        if lst.is_short:
            assert len(chunks) == 1
            c = chunks[0]
            assert c.id is None and c.n_c < K
            assert lst not in registry.long_lists
        else:
            assert lst in registry.long_lists
            for c in chunks:
                assert c.id is not None and space.chunk_of_id[c.id] is c
                assert c.memb_row is not None and c.memb_row[c.id]
                assert int(c.memb_row.sum()) == 1
        # --- per chunk: occurrence counts, Invariant 1
        tour = []
        for c in chunks:
            assert not c.dead
            assert c not in seen_chunks
            seen_chunks.add(c)
            occs = list(c.occurrences())
            assert occs and occs[0] is c.head and occs[-1] is c.tail
            n_edges = 0
            for occ in occs:
                assert occ not in seen_occs
                seen_occs.add(occ)
                assert occ.chunk is c
                assert occ.chunk_id == c.id, "stale chunk-id replica"
                if occ.is_principal:
                    n_edges += occ.vertex.degree()
            assert c.count == len(occs), (c.count, len(occs))
            assert c.n_edges == n_edges, (c.n_edges, n_edges)
            assert c.n_c <= 3 * K, f"overflowing chunk n_c={c.n_c}"
            if len(chunks) > 1:
                assert c.n_c >= K, f"underfull chunk n_c={c.n_c}"
            if keeps_bt:
                _audit_bt(c)
            tour.extend(occs)
        # --- tour validity
        _audit_tour(engine, lst, tour, list_of_vertex)
        # --- LSDS structure
        tt.validate(lst.root)
        assert registry.by_root[lst.root] is lst
        if lsds and not lst.is_short:
            _audit_lsds(space, lst.root)

    # --- all vertices covered, pc in own tree's list
    for vx in engine.vertices:
        assert vx.pc is not None and vx.pc in seen_occs
        assert len(vx.edges) <= 3
        assert len(vx.sides) == len(vx.edges)
        for i, e in enumerate(vx.edges):
            side = e.side(e.other(vx))  # far side's record holds our slot
            assert side.slot_far == i, "stale adjacency slot replica"
            assert side.key == e.key and side.far is vx
            assert vx.sides[i] is e.side(vx), "sides mirror out of sync"

    # --- matrix C vs brute force
    if matrix:
        expect = np.empty((space.Jcap, space.Jcap), dtype=object)
        expect.fill(INF_KEY)
        for e in engine.edges.values():
            cu = e.u.pc.chunk
            cv = e.v.pc.chunk
            if cu.id is not None and cv.id is not None:
                if e.key < expect[cu.id, cv.id]:
                    expect[cu.id, cv.id] = e.key
                    expect[cv.id, cu.id] = e.key
        got = space.C
        if got is None:  # not allocated yet: every entry reads INF_KEY
            got = np.empty((space.Jcap, space.Jcap), dtype=object)
            got.fill(INF_KEY)
        mism = np.nonzero(got != expect)
        assert len(mism[0]) == 0, f"C mismatch at {list(zip(*mism))[:5]}"
        stale = space.verify_live_lanes(max_findings=1)
        assert not stale, f"live lanes: {stale[0]}"

    # --- forest equals the unique MSF
    if forest:
        got = {e.eid for e in engine.tree_edges}
        want = kruskal((e.u.vid, e.v.vid, e.weight, e.eid)
                       for e in engine.edges.values())
        assert got == want, \
            f"forest mismatch: extra={got - want} missing={want - got}"


def _audit_tour(engine, lst, tour, list_of_vertex) -> None:
    """Cyclic adjacencies of the list = the arcs of its tree's Euler tour."""
    verts = {occ.vertex for occ in tour}
    for vx in verts:
        assert list_of_vertex.setdefault(vx.vid, lst) is lst
    # tree adjacency restricted to this component
    deg = defaultdict(int)
    arcs_expected = set()
    for e in engine.tree_edges:
        if e.u in verts or e.v in verts:
            assert e.u in verts and e.v in verts, "tree edge crosses lists"
            deg[e.u] += 1
            deg[e.v] += 1
            assert e.arc_uv is not None and e.arc_vu is not None
            arcs_expected.add((id(e.arc_uv[0]), id(e.arc_uv[1])))
            arcs_expected.add((id(e.arc_vu[0]), id(e.arc_vu[1])))
            for x, y in (e.arc_uv, e.arc_vu):
                assert {x.vertex, y.vertex} == {e.u, e.v}, "arc endpoints wrong"
    # occurrence multiplicities
    mult = defaultdict(int)
    for occ in tour:
        mult[occ.vertex] += 1
    for vx in verts:
        assert mult[vx] == max(1, deg[vx]), (vx, mult[vx], deg[vx])
        assert vx.pc is not None and vx.pc.vertex is vx and vx.pc in tour
    # adjacency pairs (cyclic) match arcs exactly
    if len(tour) > 1:
        pairs = {(id(a), id(b)) for a, b in zip(tour, tour[1:])}
        pairs.add((id(tour[-1]), id(tour[0])))
        assert pairs == arcs_expected, "tour adjacencies != tree-edge arcs"
    else:
        assert not arcs_expected


def _audit_lsds(space, root) -> None:
    from .lsds import node_cadj, node_memb

    def rec(node):
        if node.is_leaf:
            chunk = node.item
            return space.C[chunk.id].copy(), chunk.memb_row.copy()
        cadj = None
        memb = None
        for kid in node.kids:
            kc, km = rec(kid)
            if cadj is None:
                cadj, memb = kc, km
            else:
                np.minimum(cadj, kc, out=cadj)
                np.logical_or(memb, km, out=memb)
        got_c = node_cadj(space, node)
        got_m = node_memb(space, node)
        assert (got_c == cadj).all(), "stale LSDS CAdj aggregate"
        assert (got_m == memb).all(), "stale LSDS Memb aggregate"
        return cadj, memb

    rec(root)


def _audit_bt(chunk) -> None:
    assert chunk.bt_root is not None
    leaves = list(tt.iter_leaves(chunk.bt_root))
    occs = list(chunk.occurrences())
    assert [lf.item for lf in leaves] == occs
    tt.validate(chunk.bt_root)
    units = edges = 0
    for occ, lf in zip(occs, leaves):
        d = occ.vertex.degree() if occ.is_principal else 0
        assert lf.agg == (1 + d, d), (lf.agg, 1 + d, d)
        assert occ.bt_leaf is lf
        units += 1 + d
        edges += d
    if not chunk.bt_root.is_leaf:
        assert chunk.bt_root.agg == (units, edges)
