"""Unit tests for ChunkSpace (matrix C, ids) and the LSDS registry."""

from __future__ import annotations

import pytest

np = pytest.importorskip(
    "numpy", reason="asserts real-numpy dtype/view semantics; the "
    "no-numpy build runs the scalar engine on the _nplite shim",
    exc_type=ImportError)

from repro.core.chunks import ChunkSpace, default_K
from repro.core.lsds import node_cadj, node_memb
from repro.core.model import INF_KEY
from repro.core.seq_msf import SparseDynamicMSF


def test_default_K_flavors():
    assert default_K(10_000, "sequential") > default_K(10_000, "parallel")
    assert default_K(4, "sequential") == 8  # clamped floor
    with pytest.raises(ValueError):
        default_K(100, "bogus")


def test_chunkspace_capacity_formula():
    from repro.core.chunks import Chunk
    from repro.core.model import Occurrence, Vertex

    space = ChunkSpace(1024, K=32)
    assert space.Jcap >= 5 * 1024 // 32
    # the matrix is allocated by the first chunk id, at full capacity
    assert space.C is None and space.row_views is None
    vx = Vertex(0)
    occ = Occurrence(vx)
    vx.pc = occ
    c = Chunk()
    c.head = c.tail = occ
    occ.chunk = c
    space.adopt_occurrences(c)
    space.assign_id(c)
    assert space.C.shape == (space.Jcap, space.Jcap)
    assert space.C[0, 0] == INF_KEY
    assert len(space.row_views) == space.Jcap


def test_id_assign_release_cycle():
    space = ChunkSpace(64, K=8)
    from repro.core.chunks import Chunk
    from repro.core.model import Occurrence, Vertex

    vx = Vertex(0)
    occ = Occurrence(vx)
    vx.pc = occ
    c = Chunk()
    c.head = c.tail = occ
    occ.chunk = c
    space.adopt_occurrences(c)
    cid = space.assign_id(c)
    assert space.chunk_of_id[cid] is c
    assert occ.chunk_id == cid
    assert c.memb_row is not None and c.memb_row[cid]
    space.set_pair(cid, 3, (1.0, 1))  # both directions and the live lanes
    freed = space.release_id(c)
    assert freed == cid
    assert c.id is None and occ.chunk_id is None
    assert space.C[cid, 3] == INF_KEY and space.C[3, cid] == INF_KEY


def test_id_exhaustion_raises():
    space = ChunkSpace(8, K=8)
    from repro.core.chunks import Chunk
    from repro.core.model import Occurrence, Vertex

    chunks = []
    with pytest.raises(RuntimeError, match="exhausted"):
        for i in range(space.Jcap + 1):
            vx = Vertex(i)
            occ = Occurrence(vx)
            vx.pc = occ
            c = Chunk()
            c.head = c.tail = occ
            occ.chunk = c
            space.adopt_occurrences(c)
            space.assign_id(c)
            chunks.append(c)


def _lsds_engine(n=48, K=8):
    eng = SparseDynamicMSF(n, K=K)
    for i in range(n - 1):
        eng.insert_edge(i, i + 1, float(i), eid=20_000 + i)
    return eng


def test_root_aggregates_match_bruteforce():
    eng = _lsds_engine()
    space = eng.fabric.space
    lst = eng.fabric.list_of(eng.vertices[0].pc.chunk)
    chunks = list(lst.chunks())
    assert len(chunks) >= 3
    cadj = node_cadj(space, lst.root)
    memb = node_memb(space, lst.root)
    expect_c = np.empty(space.Jcap, dtype=object)
    expect_c.fill(INF_KEY)
    expect_m = np.zeros(space.Jcap, dtype=bool)
    for c in chunks:
        np.minimum(expect_c, space.C[c.id], out=expect_c)
        expect_m[c.id] = True
    assert (cadj == expect_c).all()
    assert (memb == expect_m).all()


def test_update_adj_repairs_manual_corruption():
    """Corrupt one matrix entry, call update_adj, aggregates realign."""
    eng = _lsds_engine()
    space = eng.fabric.space
    registry = eng.fabric.registry
    lst = eng.fabric.list_of(eng.vertices[0].pc.chunk)
    c = lst.first_chunk()
    other = lst.last_chunk()
    # fake a lighter edge between c and other (row + column + mirror)
    space.C[c.id, other.id] = (-5.0, 999)
    space.C[other.id, c.id] = (-5.0, 999)
    registry.update_adj(c)
    registry.update_adj(other)
    assert node_cadj(space, lst.root)[other.id] == (-5.0, 999)
    # restore truth
    space.entry_recompute_pair(c, other)
    registry.update_adj(c)
    registry.update_adj(other)
    from repro.core.audit import audit
    audit(eng)


def test_refresh_column_covers_every_long_list():
    """A column refresh for chunk c must fix aggregates in *other* lists'
    LSDS trees too (the paper's global UpdateAdj column sweep)."""
    eng = SparseDynamicMSF(80, K=8)
    for i in range(39):  # component A: vertices 0..39
        eng.insert_edge(i, i + 1, float(i))
    for i in range(50, 79):  # component B: vertices 50..79
        eng.insert_edge(i, i + 1, float(i) + 0.5)
    space = eng.fabric.space
    registry = eng.fabric.registry
    l1 = eng.fabric.list_of(eng.vertices[0].pc.chunk)
    l2 = eng.fabric.list_of(eng.vertices[60].pc.chunk)
    assert l1 is not l2 and not l1.is_short and not l2.is_short
    j = l1.first_chunk().id
    assert not l2.root.is_leaf
    l2.root.agg[0][j] = (-1.0, 1)  # corrupt the OTHER list's aggregate
    registry.refresh_column(j)
    expect = INF_KEY
    for ch in l2.chunks():
        if space.C[ch.id, j] < expect:
            expect = space.C[ch.id, j]
    assert l2.root.agg[0][j] == expect


def test_entry_update_insert_is_min_merge():
    eng = _lsds_engine()
    space = eng.fabric.space
    lst = eng.fabric.list_of(eng.vertices[0].pc.chunk)
    a, b = list(lst.chunks())[:2]
    old = space.C[a.id, b.id]
    space.entry_update_insert(a, b, (old[0] + 1000.0, 999_999))  # heavier
    assert space.C[a.id, b.id] == old  # min-merge keeps the lighter
