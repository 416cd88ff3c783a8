"""Freeing a degree-reducer host slot: every gadget splice under full audit.

A real-edge delete is one core ``delete_edge``; each of its two freed host
slots then leaves its chain by at most one O(1) splice, and no real edge
moves:

* the anchor (the vertex itself) just becomes the chain's free slot;
* a tail gadget is dropped as a leaf (``SparseDynamicMSF.drop_leaf``,
  ``euler.detach_leaf``): its occurrence and one host seam occurrence go;
* a mid-chain gadget is bypassed (``SparseDynamicMSF.bypass``,
  ``euler.bypass_node``): both its occurrences go and one ``-inf`` edge
  takes over the two arcs that close over them.

Every case runs on the scalar, compiled and parallel cores with the full
structural audit (matrix oracle included) and a Kruskal check after each
op, the hub churn counts each surgery sub-case so a stream that stops
reaching one fails loudly, and two mutants must be caught by the audit.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import compiled, euler
from repro.core.audit import audit
from repro.core.degree import DegreeReducer
from repro.core.par import ParallelDynamicMSF
from repro.core.seq_msf import SparseDynamicMSF
from repro.reference.oracle import kruskal
from repro.resilience.checks import check_reducer

K = 4
FLAVORS = ["scalar", "compiled", "parallel"]


def _reducer(flavor: str, n: int, max_edges: int = 32) -> DegreeReducer:
    if flavor == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")
    if flavor == "parallel":
        return DegreeReducer(n, max_edges, engine_factory=lambda nc:
                             ParallelDynamicMSF(nc, K=K))
    return DegreeReducer(n, max_edges, K=K, backend=flavor)


def _check(red: DegreeReducer) -> None:
    audit(red.core, matrix=True)
    want = kruskal((u, v, w, eid)
                   for eid, (u, v, w, _e, _hu, _hv) in red.real.items())
    assert red.msf_ids() == want
    assert check_reducer(red, "structural") == []


def _build(red: DegreeReducer, edges) -> list[int]:
    eids = []
    for u, v, w in edges:
        eids.append(red.insert_edge(u, v, w))
        _check(red)
    return eids


def _count_splices(monkeypatch) -> Counter:
    counts: Counter = Counter()
    drop, bypass = SparseDynamicMSF.drop_leaf, SparseDynamicMSF.bypass

    def counting_drop(self, e, vid):
        counts["drop_leaf"] += 1
        return drop(self, e, vid)

    def counting_bypass(self, e_in, e_out, vid, eid):
        counts["bypass"] += 1
        return bypass(self, e_in, e_out, vid, eid)

    monkeypatch.setattr(SparseDynamicMSF, "drop_leaf", counting_drop)
    monkeypatch.setattr(SparseDynamicMSF, "bypass", counting_bypass)
    return counts


@pytest.mark.parametrize("flavor", FLAVORS)
def test_anchor_release_needs_no_splice(flavor, monkeypatch):
    red = _reducer(flavor, 5)
    a, _b, _c = _build(red, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)])
    counts = _count_splices(monkeypatch)
    gadgets = red.chains[0].nodes()
    red.delete_edge(a)  # hosted on vertex 0's anchor and vertex 1's
    _check(red)
    assert not counts
    chain = red.chains[0]
    assert chain.nodes() == gadgets and chain.free == [0]
    # the next edge of 0 lands on the anchor: no new gadget, no chain edge
    issued = red._next_gadget
    red.insert_edge(0, 4, 4.0)
    _check(red)
    assert red._next_gadget == issued and chain.free == []


@pytest.mark.parametrize("flavor", FLAVORS)
def test_tail_release_in_a_three_vertex_tree(flavor, monkeypatch):
    """The tree ``1 - 0 - g``: the host 0 has two occurrences around the
    tail gadget ``g``, which collapse into one."""
    red = _reducer(flavor, 3)
    _a, b = _build(red, [(0, 1, 1.0), (0, 2, 2.0)])
    counts = _count_splices(monkeypatch)
    g = red.chains[0].tail
    red.delete_edge(b)
    _check(red)
    assert counts == {"drop_leaf": 1}
    assert red.chains[0].nodes() == [0] and red._free_gadgets == [g]
    assert red.core.vertices[g].edges == []


@pytest.mark.parametrize("flavor", FLAVORS)
def test_mid_release_bypasses_the_gadget(flavor, monkeypatch):
    red = _reducer(flavor, 6)
    eids = _build(red, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (0, 4, 4.0),
                        (4, 5, 0.5)])
    counts = _count_splices(monkeypatch)
    chain = red.chains[0]
    _anchor, g1, g2, g3 = chain.nodes()
    kept = red._chain_edge[g3].eid
    red.delete_edge(eids[2])  # hosted on g2, between g1 and g3
    _check(red)
    assert counts == {"bypass": 1}
    assert chain.nodes() == [0, g1, g3]
    e = red._chain_edge[g3]
    assert e.eid == kept and (e.u.vid, e.v.vid) == (g1, g3)
    red.delete_edge(eids[1])  # g1, now between the anchor and g3
    _check(red)
    assert counts == {"bypass": 2} and chain.nodes() == [0, g3]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_mid_release_next_to_an_unhosted_anchor(flavor, monkeypatch):
    """The anchor hosts nothing, so it occurs once: the new chain edge's
    two arcs leave from and return to that one occurrence."""
    red = _reducer(flavor, 4)
    a, b, _c = _build(red, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)])
    red.delete_edge(a)
    _check(red)
    counts = _count_splices(monkeypatch)
    anchor_occ = red.core.vertices[0].pc
    red.delete_edge(b)
    _check(red)
    assert counts == {"bypass": 1}
    chain = red.chains[0]
    assert len(chain.nodes()) == 2 and chain.free == [0]
    e = red._chain_edge[chain.tail]
    assert e.arc_uv[0] is anchor_occ and e.arc_vu[1] is anchor_occ


def _classify(monkeypatch) -> Counter:
    """Count every reducer release case and every surgery sub-case."""
    counts: Counter = Counter()
    release = DegreeReducer._release_slot
    detach, bypass = euler.detach_leaf, euler.bypass_node

    def counting_release(self, v, slot, eid):
        chain = self.chains[v]
        counts["anchor" if slot == chain.anchor else
               "tail" if slot == chain.tail else "mid"] += 1
        return release(self, v, slot, eid)

    def counting_detach(fabric, e, leaf):
        s = leaf.pc
        into, out = ((e.arc_uv, e.arc_vu) if e.arc_uv[1] is s
                     else (e.arc_vu, e.arc_uv))
        x, y = into[0], out[1]
        counts["leaf_single_host" if x is y else
               "leaf_keep_y" if y.is_principal else "leaf_keep_x"] += 1
        if s.prev is None or s.next is None:
            counts["leaf_wrap"] += 1
        return detach(fabric, e, leaf)

    def counting_bypass(fabric, e_in, e_out, e_new, mid):
        # one occurrence of p (or q) sits on both sides of mid's
        p_x, p_y = (a[0] if a[1].vertex is mid else a[1]
                    for a in (e_in.arc_uv, e_in.arc_vu))
        q_x, q_y = (a[1] if a[0].vertex is mid else a[0]
                    for a in (e_out.arc_uv, e_out.arc_vu))
        counts["p_single" if p_x is p_y else "p_multi"] += 1
        counts["q_single" if q_x is q_y else "q_multi"] += 1
        return bypass(fabric, e_in, e_out, e_new, mid)

    monkeypatch.setattr(DegreeReducer, "_release_slot", counting_release)
    monkeypatch.setattr(euler, "detach_leaf", counting_detach)
    monkeypatch.setattr(euler, "bypass_node", counting_bypass)
    return counts


def _hub_churn(red: DegreeReducer, n: int, steps: int, seed: int,
               check=None) -> None:
    """Inserts favouring three hubs, deletes of a random live edge."""
    rng = random.Random(seed)
    live: list[int] = []
    for _ in range(steps):
        if live and (len(live) >= 24 or rng.random() < 0.4):
            red.delete_edge(live.pop(rng.randrange(len(live))))
        else:
            u = rng.choice((0, 1, 2)) if rng.random() < 0.7 else \
                rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            live.append(red.insert_edge(u, v, float(rng.randrange(40))))
        if check is not None:
            check(red)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_hub_churn_reaches_every_case(flavor, monkeypatch):
    red = _reducer(flavor, 12, max_edges=24)
    counts = _classify(monkeypatch)
    _hub_churn(red, 12, 200 if flavor == "parallel" else 300, seed=5,
               check=_check)
    for case in ("anchor", "tail", "mid", "leaf_single_host", "leaf_keep_x",
                 "leaf_keep_y", "leaf_wrap", "p_single", "p_multi",
                 "q_single", "q_multi"):
        assert counts[case] > 0, f"stream never reached the {case} case"


@pytest.mark.parametrize("flavor", FLAVORS)
def test_delete_is_one_core_delete_and_at_most_two_splices(flavor,
                                                           monkeypatch):
    red = _reducer(flavor, 12, max_edges=24)
    calls: Counter = Counter()
    for name in ("insert_edge", "delete_edge", "drop_leaf", "bypass"):
        orig = getattr(SparseDynamicMSF, name)

        def counting(self, *args, _orig=orig, _name=name, **kw):
            calls[_name] += 1
            return _orig(self, *args, **kw)

        monkeypatch.setattr(SparseDynamicMSF, name, counting)
    delete = DegreeReducer.delete_edge
    seen: Counter = Counter()

    def checked_delete(self, eid):
        before = Counter(calls)
        delete(self, eid)
        d = calls - before
        assert d["delete_edge"] == 1 and d["insert_edge"] == 0
        assert d["drop_leaf"] + d["bypass"] <= 2
        seen.update(d)

    monkeypatch.setattr(DegreeReducer, "delete_edge", checked_delete)
    _hub_churn(red, 12, 300, seed=9)
    assert seen["delete_edge"] > 50
    assert seen["drop_leaf"] > 0 and seen["bypass"] > 0


# ---------------------------------------------------------------- mutants


@pytest.mark.parametrize("flavor", FLAVORS)
def test_audit_catches_bypass_without_arc_handover(flavor, monkeypatch):
    red = _reducer(flavor, 6)
    eids = _build(red, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (0, 4, 4.0)])
    bypass = euler.bypass_node

    def no_handover(fabric, e_in, e_out, e_new, mid):
        stale = (e_in.arc_uv, e_in.arc_vu)
        bypass(fabric, e_in, e_out, e_new, mid)
        e_new.arc_uv, e_new.arc_vu = stale

    monkeypatch.setattr(euler, "bypass_node", no_handover)
    red.delete_edge(eids[2])
    with pytest.raises(AssertionError):
        audit(red.core, matrix=True)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_audit_catches_leaf_drop_keeping_both_seams(flavor, monkeypatch):
    red = _reducer(flavor, 3)
    _a, b = _build(red, [(0, 1, 1.0), (0, 2, 2.0)])

    def keep_seams(fabric, e, leaf):
        euler._delete_vertex_occurrences(fabric, leaf, (leaf.pc,))
        e.arc_uv = e.arc_vu = None

    monkeypatch.setattr(euler, "detach_leaf", keep_seams)
    red.delete_edge(b)
    with pytest.raises(AssertionError):
        audit(red.core, matrix=True)
