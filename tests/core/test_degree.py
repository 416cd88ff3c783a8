"""Degree reducer: arbitrary-degree graphs on the degree-3 core."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DynamicMSF
from repro.core.audit import audit
from repro.core.degree import DegreeReducer
from repro.reference.oracle import KruskalOracle
from repro.resilience.checks import state_fingerprint
from repro.resilience.errors import InvalidInputError


def check(red: DegreeReducer, orc: KruskalOracle) -> None:
    audit(red.core)
    assert red.msf_ids() == orc.msf_ids()
    assert red.msf_weight() == pytest.approx(orc.msf_weight())


def assert_chain_shape(red: DegreeReducer) -> None:
    """Every non-anchor node hosts an edge; the anchor is the only free
    slot, and exactly while it hosts nothing."""
    for chain in red.chains.values():
        nodes = chain.nodes()
        assert all(g in chain.hosted for g in nodes[1:])
        assert len(nodes) - 1 <= len(chain.hosted)
        anchor_free = chain.anchor not in chain.hosted
        assert chain.free == ([chain.anchor] if anchor_free else [])


def test_star_graph_high_degree():
    n = 12
    red = DegreeReducer(n, max_edges=32)
    orc = KruskalOracle()
    eids = []
    for i in range(1, n):  # center degree 11 >> 3
        eid = red.insert_edge(0, i, float(i))
        orc.insert(0, i, float(i), eid)
        eids.append(eid)
        check(red, orc)
    assert red.degree(0) == n - 1
    for eid in eids[::2]:
        red.delete_edge(eid)
        orc.delete(eid)
        check(red, orc)


def test_self_loops_ignored():
    red = DegreeReducer(4, max_edges=8)
    orc = KruskalOracle()
    loop = red.insert_edge(2, 2, 1.0)
    assert red.msf_ids() == set()
    e = red.insert_edge(0, 1, 2.0)
    orc.insert(0, 1, 2.0, e)
    check(red, orc)
    red.delete_edge(loop)
    check(red, orc)


def test_parallel_edges_high_multiplicity():
    red = DegreeReducer(2, max_edges=16)
    orc = KruskalOracle()
    eids = []
    for i in range(10):
        eid = red.insert_edge(0, 1, 10.0 - i)
        orc.insert(0, 1, 10.0 - i, eid)
        eids.append(eid)
        check(red, orc)
    # the lightest (last inserted) is the tree edge
    assert red.msf_ids() == {eids[-1]}
    red.delete_edge(eids[-1])
    orc.delete(eids[-1])
    check(red, orc)
    assert red.msf_ids() == {eids[-2]}


def test_gadget_pool_does_not_leak_under_moving_hotspot():
    """Churn that moves a high-degree hotspot across vertices must reuse
    gadget nodes: every non-anchor chain node hosts an edge, so a chain
    never holds more gadgets than hosted slots."""
    n = 10
    red = DegreeReducer(n, max_edges=6)
    orc = KruskalOracle()
    for center in range(n):
        eids = []
        for j in range(1, 6):
            other = (center + j) % n
            eid = red.insert_edge(center, other, float(j) + center * 0.01)
            orc.insert(center, other, float(j) + center * 0.01, eid)
            eids.append(eid)
        check(red, orc)
        assert_chain_shape(red)
        # free the hub's mid-chain gadgets first, then its tail, its
        # anchor and its last gadget
        for eid in eids[2:] + eids[:2]:
            red.delete_edge(eid)
            orc.delete(eid)
            assert_chain_shape(red)
        check(red, orc)
    # emptied chains are dropped, and every gadget id ever issued is back
    # on the free stack
    assert red.chains == {}
    assert len(red._free_gadgets) == red._next_gadget - n
    # the hotspot never needed more than its own degree in gadgets
    assert red._next_gadget - n <= 2 * 5


def test_connected_queries():
    red = DegreeReducer(6, max_edges=12)
    a = red.insert_edge(0, 1, 1.0)
    red.insert_edge(1, 2, 2.0)
    assert red.connected(0, 2)
    assert not red.connected(0, 3)
    red.delete_edge(a)
    assert not red.connected(0, 2)
    assert red.connected(1, 2)


@pytest.mark.parametrize("seed", range(4))
def test_random_churn_unbounded_degree(seed):
    rng = random.Random(seed)
    n = 14
    red = DegreeReducer(n, max_edges=40, K=8)
    orc = KruskalOracle()
    live = {}  # eid -> is_self_loop
    for step in range(150):
        if live and rng.random() < 0.45:
            eid = rng.choice(list(live))
            red.delete_edge(eid)
            if not live.pop(eid):
                orc.delete(eid)
        elif len(live) < 40:
            u = rng.randrange(n)
            v = rng.randrange(n)  # self-loops included on purpose
            w = round(rng.uniform(0, 50), 6)
            eid = red.insert_edge(u, v, w)
            if u != v:
                orc.insert(u, v, w, eid)
            live[eid] = u == v
        if step % 5 == 0:
            check(red, orc)
    check(red, orc)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_hypothesis_churn_degree(seed):
    rng = random.Random(seed)
    n = 8
    red = DegreeReducer(n, max_edges=20, K=8)
    orc = KruskalOracle()
    live = {}
    for _ in range(60):
        if live and rng.random() < 0.5:
            eid = rng.choice(list(live))
            red.delete_edge(eid)
            if not live.pop(eid):
                orc.delete(eid)
        elif len(live) < 20:
            u, v = rng.randrange(n), rng.randrange(n)
            w = round(rng.uniform(0, 9), 6)
            eid = red.insert_edge(u, v, w)
            if u != v:
                orc.insert(u, v, w, eid)
            live[eid] = u == v
    check(red, orc)


def test_pool_exhaustion_raises():
    red = DegreeReducer(2, max_edges=2)
    red.insert_edge(0, 1, 1.0)
    red.insert_edge(0, 1, 2.0)
    with pytest.raises(InvalidInputError, match="max_edges"):
        for i in range(10):
            red.insert_edge(0, 1, 3.0 + i)


def test_pool_exhaustion_rejects_before_any_claim():
    """An insert whose endpoints need two fresh gadgets when one is left
    is rejected whole: no phantom slot on the first endpoint's chain, so
    the reducer stays clean and its fingerprint unchanged, and a later
    insert that fits still succeeds."""
    msf = DynamicMSF(6)
    pairs = [(0, 1), (0, 2), (1, 2)]
    rejected = 0
    for i in range(40):
        u, v = pairs[i % 3]
        before = state_fingerprint(msf)
        try:
            msf.insert_edge(u, v, float(i))
        except InvalidInputError as exc:
            assert "max_edges" in str(exc)
            rejected += 1
            assert state_fingerprint(msf) == before
            assert msf.self_check("full") == []
    assert rejected > 0
    msf.insert_edge(5, 0, 1.0)
    assert msf.self_check("full") == []
