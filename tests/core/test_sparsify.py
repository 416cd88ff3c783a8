"""Sparsification tree vs. the oracle on general (dense, multi) graphs.

A tree runs flat (its root engine holds the edges) until it has more
than ``GROW_ABOVE * n`` edges; the churn tests run past that line, so
they cover the grown tree and the switch into it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sparsify import SparsifiedMSF
from repro.reference.oracle import KruskalOracle


def check(sp: SparsifiedMSF, orc: KruskalOracle) -> None:
    assert sp.msf_ids() == orc.msf_ids()
    assert sp.msf_weight() == pytest.approx(orc.msf_weight())


def test_single_edge():
    sp = SparsifiedMSF(4)
    orc = KruskalOracle()
    eid = sp.insert_edge(0, 3, 2.5)
    orc.insert(0, 3, 2.5, eid)
    check(sp, orc)
    assert sp.connected(0, 3)
    sp.delete_edge(eid)
    orc.delete(eid)
    check(sp, orc)
    assert not sp.connected(0, 3)


def test_triangle_and_replacement():
    sp = SparsifiedMSF(3)
    orc = KruskalOracle()
    ids = []
    for u, v, w in [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0)]:
        eid = sp.insert_edge(u, v, w)
        orc.insert(u, v, w, eid)
        ids.append(eid)
        check(sp, orc)
    sp.delete_edge(ids[0])
    orc.delete(ids[0])
    check(sp, orc)
    assert ids[2] in sp.msf_ids()


def test_dense_complete_graph():
    n = 10
    sp = SparsifiedMSF(n)
    orc = KruskalOracle()
    rng = random.Random(3)
    for u in range(n):
        for v in range(u + 1, n):
            w = round(rng.uniform(0, 10), 6)
            eid = sp.insert_edge(u, v, w)
            orc.insert(u, v, w, eid)
    check(sp, orc)
    assert not sp.flat
    # tear down half the edges
    for eid in list(orc.edges)[::2]:
        sp.delete_edge(eid)
        orc.delete(eid)
        check(sp, orc)


def test_parallel_edges_and_self_loops():
    sp = SparsifiedMSF(4)
    orc = KruskalOracle()
    loop = sp.insert_edge(1, 1, 0.5)
    ids = [sp.insert_edge(0, 1, 5.0), sp.insert_edge(0, 1, 3.0),
           sp.insert_edge(0, 1, 7.0)]
    for eid, w in zip(ids, (5.0, 3.0, 7.0)):
        orc.insert(0, 1, w, eid)
    check(sp, orc)
    assert sp.msf_ids() == {ids[1]}
    sp.delete_edge(ids[1])
    orc.delete(ids[1])
    check(sp, orc)
    assert sp.msf_ids() == {ids[0]}
    sp.delete_edge(loop)
    check(sp, orc)


@pytest.mark.parametrize("n,seed", [(7, 0), (16, 1), (23, 2), (32, 3)])
def test_random_churn_dense(n, seed):
    rng = random.Random(seed)
    sp = SparsifiedMSF(n)
    orc = KruskalOracle()
    live = {}
    grew = False
    for step in range(200):
        grew = grew or not sp.flat
        if live and rng.random() < 0.3:
            eid = rng.choice(list(live))
            is_loop = live.pop(eid)
            sp.delete_edge(eid)
            if not is_loop:
                orc.delete(eid)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            w = round(rng.uniform(0, 100), 6)
            eid = sp.insert_edge(u, v, w)
            live[eid] = u == v
            if u != v:
                orc.insert(u, v, w, eid)
        if step % 10 == 0:
            check(sp, orc)
    check(sp, orc)
    assert grew


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**9))
def test_hypothesis_churn_sparsify(seed):
    rng = random.Random(seed)
    n = 9
    sp = SparsifiedMSF(n)
    orc = KruskalOracle()
    live = []
    for _ in range(90):
        if live and rng.random() < 0.3:
            eid = live.pop(rng.randrange(len(live)))
            sp.delete_edge(eid)
            orc.delete(eid)
        else:
            u, v = rng.sample(range(n), 2)
            w = float(rng.randint(0, 6))  # ties welcome
            eid = sp.insert_edge(u, v, w)
            orc.insert(u, v, w, eid)
            live.append(eid)
    check(sp, orc)


def test_parallel_cost_reporting():
    sp = SparsifiedMSF(16)
    sp.insert_edge(0, 15, 1.0)
    cost = sp.parallel_cost_of_last_update()
    assert cost["depth"] > 0 and cost["levels_touched"] >= 1
    assert cost["processors"] >= 0


def test_tiny_n2():
    sp = SparsifiedMSF(2)
    orc = KruskalOracle()
    a = sp.insert_edge(0, 1, 4.0)
    orc.insert(0, 1, 4.0, a)
    b = sp.insert_edge(0, 1, 2.0)
    orc.insert(0, 1, 2.0, b)
    check(sp, orc)
    sp.delete_edge(b)
    orc.delete(b)
    check(sp, orc)
