"""Every case of a tree link, with the leaf excursion under full audit.

A link whose one endpoint is an isolated vertex (a one-occurrence tour in
a short, id-less list) splices that occurrence and a new host occurrence
into the host's chunk (``Fabric.attach_singleton``) instead of rotating,
splitting and joining tours.  The streams below run on the scalar,
compiled and parallel engines, with the full structural audit (matrix
oracle included) and a Kruskal check after every op, and count each link
case so a stream that stops reaching one fails loudly:

* the ``v`` side isolated, the ``u`` side isolated, both, neither;
* a host that is its list's tail, so the host's outgoing arc wraps;
* an insert whose swap just cut the isolated vertex's only tree edge,
  so it is linked while still holding non-tree edges;
* gadget-chain growth in the degree reducer.

The mutation check enters only the edge being linked into ``C`` and must
be caught by the matrix oracle.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import compiled, euler
from repro.core.audit import audit
from repro.core.chunks import ChunkSpace
from repro.core.degree import DegreeReducer
from repro.core.fabric import Fabric
from repro.core.par import ParallelDynamicMSF
from repro.core.seq_msf import SparseDynamicMSF
from repro.reference.oracle import kruskal

N = 40
K = 8
SEED = 11
N_OPS = 300

#: a hand-made prefix that reaches every case on its own: a path, a leaf
#: with a heavy tree edge and a non-tree edge that a light insert swaps
#: away (so the leaf is re-linked holding two non-tree edges), a
#: two-vertex tour whose tail hosts the next leaf, and a link of two trees
PREFIX = [
    (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),  # both, then v side
    (5, 0, 50.0),   # u side isolated
    (5, 4, 60.0),   # non-tree
    (5, 2, 10.0),   # swap: cuts (5, 0), re-links 5 holding two non-tree edges
    (8, 9, 5.0),    # both isolated: the tour [8*, 9*]
    (9, 10, 5.0),   # v side isolated, host 9* is the tail: the arc wraps
    (3, 8, 7.0),    # neither isolated
]

FLAVORS = ["scalar", "compiled", "parallel"]


def _skip_without_extension(flavor: str) -> None:
    if flavor == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")


def _engine(flavor: str, n: int = N):
    if flavor == "parallel":
        return ParallelDynamicMSF(n, K=K)
    return SparseDynamicMSF(n, K=K, backend=flavor)


def _count_cases(monkeypatch) -> Counter:
    """Classify every ``link_tour`` call, flagging a swap link and a link
    made while the degree reducer grows a chain."""
    counts: Counter = Counter()
    state = {"swap": False, "chain": False}
    link_tour = euler.link_tour
    unmake = SparseDynamicMSF._unmake_tree_edge
    attach = Fabric.attach_singleton
    claim = DegreeReducer._claim_slot

    def counting_link(fabric, e):
        us, vs = e.u.pc, e.v.pc
        u_one = us.prev is None and us.next is None
        v_one = vs.prev is None and vs.next is None
        if u_one and v_one:
            counts["both"] += 1
        elif not (u_one or v_one):
            counts["neither"] += 1
        else:
            leaf, host = (vs, us) if v_one else (us, vs)
            if leaf.chunk.id is None:
                counts["v_leaf" if v_one else "u_leaf"] += 1
                if host.next is None:
                    counts["wrap"] += 1
                if state["swap"] and any(not f.is_tree
                                         for f in leaf.vertex.edges):
                    counts["swap_nontree"] += 1
                if state["chain"]:
                    counts["chain"] += 1
        state["swap"] = False
        return link_tour(fabric, e)

    def flagging_unmake(self, f):
        state["swap"] = True
        return unmake(self, f)

    def counting_attach(self, host, s_occ):
        counts["attach"] += 1
        return attach(self, host, s_occ)

    def flagging_claim(self, v, eid):
        state["chain"] = True
        try:
            return claim(self, v, eid)
        finally:
            state["chain"] = False

    monkeypatch.setattr(euler, "link_tour", counting_link)
    monkeypatch.setattr(SparseDynamicMSF, "_unmake_tree_edge",
                        flagging_unmake)
    monkeypatch.setattr(Fabric, "attach_singleton", counting_attach)
    monkeypatch.setattr(DegreeReducer, "_claim_slot", flagging_claim)
    return counts


def _check_core(engine) -> None:
    audit(engine, matrix=True)
    want = kruskal((e.u.vid, e.v.vid, e.weight, e.eid)
                   for e in engine.edges.values())
    assert {e.eid for e in engine.msf_edges()} == want


def drive_core(engine, *, check=None) -> None:
    """:data:`PREFIX`, then ``N_OPS`` seeded degree-<=3 inserts/deletes."""
    rng = random.Random(SEED)
    deg = [0] * N
    live: list = []
    for u, v, w in PREFIX:
        live.append(engine.insert_edge(u, v, w))
        deg[u] += 1
        deg[v] += 1
        if check is not None:
            check(engine)
    for _ in range(N_OPS):
        free = [x for x in range(N) if deg[x] < 3]
        if live and (len(free) < 2 or rng.random() < 0.35):
            e = live.pop(rng.randrange(len(live)))
            deg[e.u.vid] -= 1
            deg[e.v.vid] -= 1
            engine.delete_edge(e)
        else:
            u, v = rng.sample(free, 2)
            live.append(engine.insert_edge(u, v, float(rng.randrange(100))))
            deg[u] += 1
            deg[v] += 1
        if check is not None:
            check(engine)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_every_link_case_audits_clean(flavor, monkeypatch):
    _skip_without_extension(flavor)
    counts = _count_cases(monkeypatch)
    engine = _engine(flavor)
    drive_core(engine, check=_check_core)
    for case in ("v_leaf", "u_leaf", "both", "neither", "wrap",
                 "swap_nontree"):
        assert counts[case] > 0, f"stream never reached the {case} case"
    assert counts["attach"] == counts["v_leaf"] + counts["u_leaf"]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_degree_reducer_chain_growth_links_leaves(flavor, monkeypatch):
    """Hub-heavy arbitrary-degree churn: every chain extension links a
    fresh gadget as a leaf, audited on the core after every op."""
    _skip_without_extension(flavor)
    counts = _count_cases(monkeypatch)
    n = 12
    if flavor == "parallel":
        red = DegreeReducer(n, max_edges=40, engine_factory=lambda nc:
                            ParallelDynamicMSF(nc, K=K))
    else:
        red = DegreeReducer(n, max_edges=40, K=K, backend=flavor)
    rng = random.Random(SEED)
    live: list[int] = []
    for _ in range(160):
        if live and (len(live) >= 40 or rng.random() < 0.3):
            red.delete_edge(live.pop(rng.randrange(len(live))))
        else:
            u = rng.choice((0, 1, 2)) if rng.random() < 0.6 else \
                rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            live.append(red.insert_edge(u, v, float(rng.randrange(50))))
        audit(red.core, matrix=True)
        want = kruskal((u, v, w, eid)
                       for eid, (u, v, w, _e, _hu, _hv) in red.real.items())
        assert red.msf_ids() == want
    assert counts["chain"] > 0
    assert counts["attach"] >= counts["chain"]


def test_entering_only_the_linked_edge_fails_the_audit(monkeypatch):
    """Mutation check: a leaf link that enters only its own edge into
    ``C`` misses the non-tree edges the swapped leaf still holds; the
    matrix oracle must reject it."""
    linking: list = []
    inside = [False]
    link_tour = euler.link_tour
    attach = Fabric.attach_singleton
    entry = ChunkSpace.entry_update_insert

    def recording_link(fabric, e):
        linking.append(e)
        try:
            return link_tour(fabric, e)
        finally:
            linking.pop()

    def marking_attach(self, host, s_occ):
        inside[0] = True
        try:
            return attach(self, host, s_occ)
        finally:
            inside[0] = False

    def linked_edge_only(self, c1, c2, key):
        if inside[0] and key != linking[-1].key:
            return
        entry(self, c1, c2, key)

    monkeypatch.setattr(euler, "link_tour", recording_link)
    monkeypatch.setattr(Fabric, "attach_singleton", marking_attach)
    monkeypatch.setattr(ChunkSpace, "entry_update_insert", linked_edge_only)
    engine = SparseDynamicMSF(N, K=K)
    with pytest.raises(AssertionError, match="C mismatch"):
        drive_core(engine, check=_check_core)
