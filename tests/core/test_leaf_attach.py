"""Every case of a tree link, with the excursion splice under full audit.

A link whose one endpoint's tour is short (one id-less chunk) and whose
other endpoint's chunk carries an id -- or whose one endpoint is an
isolated vertex -- splices the short tour whole into the host's chunk
(``Fabric.attach_tour``) instead of rotating, splitting and joining tours.
The streams below run on the scalar, compiled and parallel engines, with
the full structural audit (matrix oracle included) and a Kruskal check
after every op, and count each link case so a stream that stops reaching
one fails loudly:

* an isolated vertex on the ``v`` side and on the ``u`` side;
* a short tour of two or more occurrences on the ``v`` side and on the
  ``u`` side, one whose endpoint is not its head (so the run is rotated),
  and one holding non-tree edges into the host chunk and into other
  chunks of the host's list (a non-tree edge never leaves its tree);
* a host that is its list's tail, so the host's outgoing arc wraps, and a
  host chunk that overflows into a split;
* an insert whose swap just cut an isolated vertex, or a small subtree,
  off and re-links it while it still holds the cut edge as a non-tree
  edge;
* links that keep rotate-split-join: two isolated vertices, two short
  tours, two long tours;
* gadget-chain growth in the degree reducer.

A count test holds every excursion link to one ``UpdateAdj`` (of the host
chunk) outside Invariant-1 restoration, however many far chunks the short
tour's edges reach, and an inserted or deleted edge between two id'd
chunks to one.  The mutation checks -- entering only the linked edge into
``C``, skipping the closing occurrence's arc retarget, running no
``UpdateAdj`` for an inserted or a deleted edge -- must each be caught by
the audit.
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

#: a hand-made prefix that reaches the leaf cases on its own: a path, a
#: leaf with a heavy tree edge and a non-tree edge that a light insert
#: swaps away (so the leaf is re-linked holding two non-tree edges), a
#: two-vertex tour whose tail hosts the next leaf, and a link of two trees
PREFIX = [
    (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),  # both, then v side
    (5, 0, 50.0),   # u side isolated
    (5, 4, 60.0),   # non-tree
    (5, 2, 10.0),   # swap: cuts (5, 0), re-links 5 holding two non-tree edges
    (8, 9, 5.0),    # both isolated: the tour [8*, 9*]
    (9, 10, 5.0),   # v side isolated, host 9* is the tail: the arc wraps
    (3, 8, 7.0),    # a short tour into a long one
]

FLAVORS = ["scalar", "compiled", "parallel"]

#: the cases :func:`_count_cases` must see on the core stream
CORE_CASES = ("v_leaf", "u_leaf", "v_short", "u_short", "rotate", "wrap",
              "nontree_host", "nontree_far", "split", "swap_nontree",
              "swap_short", "both", "short_short", "long_long")


def _skip_without_extension(flavor: str) -> None:
    if flavor == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")


def _engine(flavor: str, n: int = N):
    if flavor == "parallel":
        return ParallelDynamicMSF(n, K=K)
    return SparseDynamicMSF(n, K=K, backend=flavor)


def _one(occ) -> bool:
    return occ.prev is None and occ.next is None


def _run_of(s_star):
    """The principal copies of ``s_star``'s short tour, head to tail."""
    occ = s_star.chunk.head
    while occ is not None:
        if occ.vertex.pc is occ:
            yield occ
        occ = occ.next


def _classify(e) -> tuple[str, ...]:
    """The link cases of tree edge ``e``, read off the state before it is
    linked (independently of ``euler``'s own case test)."""
    us, vs = e.u.pc, e.v.pc
    u_one, v_one = _one(us), _one(vs)
    u_long, v_long = us.chunk.id is not None, vs.chunk.id is not None
    if u_one and v_one:
        return ("both",)
    for s, h, side in ((vs, us, "v"), (us, vs, "u")):
        if s.chunk.id is None and not _one(h) and (
                h.chunk.id is not None or _one(s)):
            break
    else:
        return ("long_long",) if u_long and v_long else ("short_short",)
    cases = [f"{side}_leaf" if _one(s) else f"{side}_short"]
    if s.prev is not None:
        cases.append("rotate")
    if h.next is None:
        cases.append("wrap")
    host = h.chunk
    if host.id is not None:
        # a non-tree edge joins two vertices of one tree, so it reaches
        # the host's list: its host chunk or another chunk of it
        for p in _run_of(s):
            for f in p.vertex.edges:
                if not f.is_tree:
                    far = f.other(p.vertex).pc.chunk
                    cases.append("nontree_host" if far is host
                                 else "nontree_far")
    return tuple(cases)


def _count_cases(monkeypatch) -> Counter:
    """Classify every ``link_tour`` call, flagging a swap link, a link
    made while the degree reducer grows a chain, and a host-chunk split
    inside an excursion splice."""
    counts: Counter = Counter()
    state = {"swap": False, "chain": False, "attach": False}
    link_tour = euler.link_tour
    unmake = SparseDynamicMSF._unmake_tree_edge
    attach = Fabric.attach_tour
    split = Fabric.split_chunk_balanced
    claim = DegreeReducer._claim_slot

    def counting_link(fabric, e):
        cases = _classify(e)
        counts.update(cases)
        excursion = cases[0][2:] in ("leaf", "short")
        if excursion and state["swap"]:
            s = e.v.pc if cases[0][0] == "v" else e.u.pc
            if not _one(s):
                counts["swap_short"] += 1
            elif any(not f.is_tree for f in s.vertex.edges):
                counts["swap_nontree"] += 1
        if excursion and state["chain"]:
            counts["chain"] += 1
        state["swap"] = False
        return link_tour(fabric, e)

    def flagging_unmake(self, f):
        state["swap"] = True
        return unmake(self, f)

    def counting_attach(self, host, s_star):
        counts["attach"] += 1
        state["attach"] = True
        try:
            return attach(self, host, s_star)
        finally:
            state["attach"] = False

    def counting_split(self, c):
        if state["attach"]:
            counts["split"] += 1
        return split(self, c)

    def flagging_claim(self, v, eid):
        state["chain"] = True
        try:
            return claim(self, v, eid)
        finally:
            state["chain"] = False

    monkeypatch.setattr(euler, "link_tour", counting_link)
    monkeypatch.setattr(SparseDynamicMSF, "_unmake_tree_edge",
                        flagging_unmake)
    monkeypatch.setattr(Fabric, "attach_tour", counting_attach)
    monkeypatch.setattr(Fabric, "split_chunk_balanced", counting_split)
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
    for case in CORE_CASES:
        assert counts[case] > 0, f"stream never reached the {case} case"
    assert counts["attach"] == sum(counts[f"{side}_{kind}"]
                                   for side in "uv"
                                   for kind in ("leaf", "short"))


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


def _count_update_adj(engine, scope: str) -> list[tuple[int, int]]:
    """Per call of ``fabric.<scope>``: the ``UpdateAdj`` runs it made
    outside Invariant-1 restoration (``fix_chunk``), and -- for
    ``attach_tour`` into an id'd host chunk -- the number of distinct
    id'd far chunks the short tour's edges reach, or -- for
    ``register_edge``/``unregister_edge`` of an edge whose endpoint chunks
    both carry ids -- 1; ``-1`` otherwise."""
    fab = engine.fabric
    registry = fab.registry
    update_adj, fix_chunk = registry.update_adj, fab.fix_chunk
    inner = getattr(fab, scope)
    state = {"in": False, "fix": 0, "calls": 0}
    seen: list[tuple[int, int]] = []

    def counting_update_adj(c):
        if state["in"] and not state["fix"]:
            state["calls"] += 1
        return update_adj(c)

    def fencing_fix_chunk(c):
        state["fix"] += 1
        try:
            return fix_chunk(c)
        finally:
            state["fix"] -= 1

    def scoped(*args):
        far = -1
        if scope == "attach_tour":
            if args[0].chunk.id is not None:
                far = len({f.other(p.vertex).pc.chunk
                           for p in _run_of(args[1])
                           for f in p.vertex.edges
                           if f.other(p.vertex).pc.chunk.id is not None})
        elif (args[0].u.pc.chunk.id is not None
              and args[0].v.pc.chunk.id is not None):
            far = 1
        state["in"], state["calls"] = True, 0
        try:
            return inner(*args)
        finally:
            state["in"] = False
            seen.append((state["calls"], far))

    registry.update_adj = counting_update_adj
    fab.fix_chunk = fencing_fix_chunk
    setattr(fab, scope, scoped)
    return seen


@pytest.mark.parametrize("flavor", FLAVORS)
def test_one_update_adj_per_excursion_link(flavor):
    """An excursion into an id'd host chunk runs exactly one UpdateAdj
    however many far chunks its edges reach (an id-less host, none)."""
    _skip_without_extension(flavor)
    engine = _engine(flavor)
    seen = _count_update_adj(engine, "attach_tour")
    drive_core(engine)
    assert seen, "no excursion link"
    assert all(calls == (0 if far < 0 else 1) for calls, far in seen), seen
    assert max(far for _calls, far in seen) >= 2, "never two far chunks"


@pytest.mark.parametrize("flavor, scope", [
    *(pytest.param(f, "register_edge", id=f) for f in FLAVORS),
    *(pytest.param(f, "unregister_edge", id=f"{f}-delete") for f in FLAVORS),
])
def test_one_update_adj_per_inserted_edge(flavor, scope):
    """C is symmetric, so an inserted or deleted edge between two id'd
    chunks runs one UpdateAdj (its u side's), not one per endpoint chunk,
    and an edge with an id-less endpoint chunk runs none."""
    _skip_without_extension(flavor)
    engine = _engine(flavor)
    seen = _count_update_adj(engine, scope)
    drive_core(engine)
    assert any(far == 1 for _calls, far in seen), "no edge between id'd chunks"
    assert all(calls == (0 if far < 0 else 1) for calls, far in seen), seen


def test_entering_only_the_linked_edge_fails_the_audit(monkeypatch):
    """Mutation check: an excursion link that enters only its own edge
    into ``C`` misses the short tour's other edges; the matrix oracle must
    reject it."""
    linking: list = []
    inside = [False]
    link_tour = euler.link_tour
    attach = Fabric.attach_tour
    entry = ChunkSpace.entry_update_insert

    def recording_link(fabric, e):
        linking.append(e)
        try:
            return link_tour(fabric, e)
        finally:
            linking.pop()

    def marking_attach(self, host, s_star):
        inside[0] = True
        try:
            return attach(self, host, s_star)
        finally:
            inside[0] = False

    def linked_edge_only(self, c1, c2, key):
        if inside[0] and key != linking[-1].key:
            return None
        return entry(self, c1, c2, key)

    monkeypatch.setattr(euler, "link_tour", recording_link)
    monkeypatch.setattr(Fabric, "attach_tour", marking_attach)
    monkeypatch.setattr(ChunkSpace, "entry_update_insert", linked_edge_only)
    engine = SparseDynamicMSF(N, K=K)
    with pytest.raises(AssertionError, match="C mismatch"):
        drive_core(engine, check=_check_core)


def test_skipping_the_closing_arc_retarget_fails_the_audit(monkeypatch):
    """Mutation check: an excursion link that leaves the short tour's old
    wrap arc on ``s*`` instead of the closing occurrence ``s'`` breaks the
    Euler tour; the audit must reject it."""
    inside = [False]
    excursion = euler._link_excursion
    retarget = euler._retarget_arc

    def marking_excursion(*args):
        inside[0] = True
        try:
            return excursion(*args)
        finally:
            inside[0] = False

    def no_closing_retarget(old, new):
        if inside[0] and old[0] is new[0]:  # (last, s*) -> (last, s')
            return None
        return retarget(old, new)

    monkeypatch.setattr(euler, "_link_excursion", marking_excursion)
    monkeypatch.setattr(euler, "_retarget_arc", no_closing_retarget)
    engine = SparseDynamicMSF(N, K=K)
    with pytest.raises(AssertionError, match="tour adjacencies"):
        drive_core(engine, check=_check_core)


def _without_update_adj(monkeypatch, engine, scope: str) -> None:
    """Make ``fabric.<scope>`` run no UpdateAdj outside Invariant-1
    restoration (``fix_chunk``)."""
    fab = engine.fabric
    registry = fab.registry
    update_adj, fix_chunk, inner = (registry.update_adj, fab.fix_chunk,
                                    getattr(fab, scope))
    state = {"in": False, "fix": 0}

    def gated_update_adj(c):
        if state["in"] and not state["fix"]:
            return None
        return update_adj(c)

    def fencing_fix_chunk(c):
        state["fix"] += 1
        try:
            return fix_chunk(c)
        finally:
            state["fix"] -= 1

    def without_update_adj(e):
        state["in"] = True
        try:
            return inner(e)
        finally:
            state["in"] = False

    monkeypatch.setattr(registry, "update_adj", gated_update_adj)
    monkeypatch.setattr(fab, "fix_chunk", fencing_fix_chunk)
    monkeypatch.setattr(fab, scope, without_update_adj)


def test_inserted_edge_without_update_adj_fails_the_audit(monkeypatch):
    """Mutation check: an inserted edge that runs no UpdateAdj at all (the
    u side's dropped too) leaves LSDS aggregates stale; the audit must
    reject it."""
    engine = SparseDynamicMSF(N, K=K)
    _without_update_adj(monkeypatch, engine, "register_edge")
    with pytest.raises(AssertionError, match="stale LSDS"):
        drive_core(engine, check=_check_core)


def test_deleted_edge_without_update_adj_fails_the_audit(monkeypatch):
    """Mutation check: a deleted edge between two id'd chunks that runs no
    UpdateAdj at all (the u side's dropped too) leaves LSDS aggregates
    stale; the audit must reject it."""
    engine = SparseDynamicMSF(N, K=K)
    _without_update_adj(monkeypatch, engine, "unregister_edge")
    with pytest.raises(AssertionError, match="stale LSDS"):
        drive_core(engine, check=_check_core)
