"""Sequential engine vs. the Kruskal oracle, with deep audits."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.audit import audit
from repro.core.seq_msf import SparseDynamicMSF
from repro.reference.oracle import KruskalOracle


def check(engine, oracle):
    audit(engine)
    assert {e.eid for e in engine.msf_edges()} == oracle.msf_ids()


def test_empty_engine_audits():
    eng = SparseDynamicMSF(8, K=8)
    audit(eng)
    assert not eng.connected(0, 1)
    assert eng.msf_weight() == 0


def test_single_edge_insert_delete():
    eng = SparseDynamicMSF(4, K=8)
    orc = KruskalOracle()
    e = eng.insert_edge(0, 1, 5.0)
    orc.insert(0, 1, 5.0, e.eid)
    check(eng, orc)
    assert eng.connected(0, 1)
    assert e.is_tree
    eng.delete_edge(e)
    orc.delete(e.eid)
    check(eng, orc)
    assert not eng.connected(0, 1)


def test_path_then_cut_middle():
    eng = SparseDynamicMSF(6, K=8)
    orc = KruskalOracle()
    handles = []
    for i in range(5):
        e = eng.insert_edge(i, i + 1, float(i))
        orc.insert(i, i + 1, float(i), e.eid)
        handles.append(e)
        check(eng, orc)
    assert eng.connected(0, 5)
    eng.delete_edge(handles[2])
    orc.delete(handles[2].eid)
    check(eng, orc)
    assert not eng.connected(0, 5)
    assert eng.connected(0, 2) and eng.connected(3, 5)


def test_cycle_heaviest_stays_out():
    eng = SparseDynamicMSF(3, K=8)
    orc = KruskalOracle()
    es = []
    for (u, v, w) in [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 9.0)]:
        e = eng.insert_edge(u, v, w)
        orc.insert(u, v, w, e.eid)
        es.append(e)
    check(eng, orc)
    assert not es[2].is_tree
    # deleting a light tree edge pulls the heavy one in as replacement
    eng.delete_edge(es[0])
    orc.delete(es[0].eid)
    check(eng, orc)
    assert es[2].is_tree


def test_inserting_lighter_edge_displaces_heaviest_on_cycle():
    eng = SparseDynamicMSF(4, K=8)
    orc = KruskalOracle()
    e1 = eng.insert_edge(0, 1, 5.0)
    e2 = eng.insert_edge(1, 2, 7.0)
    e3 = eng.insert_edge(2, 3, 3.0)
    for e, (u, v, w) in zip((e1, e2, e3), [(0, 1, 5.0), (1, 2, 7.0), (2, 3, 3.0)]):
        orc.insert(u, v, w, e.eid)
    e4 = eng.insert_edge(0, 2, 1.0)  # cycle 0-1-2; displaces e2 (w=7)
    orc.insert(0, 2, 1.0, e4.eid)
    check(eng, orc)
    assert e4.is_tree and not e2.is_tree


def test_parallel_edges_between_same_pair():
    eng = SparseDynamicMSF(2, K=8)
    orc = KruskalOracle()
    ea = eng.insert_edge(0, 1, 2.0)
    orc.insert(0, 1, 2.0, ea.eid)
    eb = eng.insert_edge(0, 1, 1.0)
    orc.insert(0, 1, 1.0, eb.eid)
    check(eng, orc)
    assert eb.is_tree and not ea.is_tree
    eng.delete_edge(eb)
    orc.delete(eb.eid)
    check(eng, orc)
    assert ea.is_tree


def test_degree_bound_enforced():
    eng = SparseDynamicMSF(5, K=8)
    for i in (1, 2, 3):
        eng.insert_edge(0, i, float(i))
    # raised, not asserted: survives `python -O`
    with pytest.raises(ValueError):
        eng.insert_edge(0, 4, 9.0)


def _random_stream(eng, orc, rng, steps, n, audit_every=1):
    """Random insert/delete churn keeping degrees <= 3."""
    live = {}
    for step in range(steps):
        if live and (rng.random() < 0.45 or len(live) >= 1.4 * n):
            eid = rng.choice(list(live))
            eng.delete_edge(live.pop(eid))
            orc.delete(eid)
        else:
            for _ in range(40):
                u, v = rng.sample(range(n), 2)
                if eng.degree(u) < 3 and eng.degree(v) < 3:
                    break
            else:
                continue
            w = round(rng.uniform(0, 100), 6)
            e = eng.insert_edge(u, v, w)
            live[e.eid] = e
            orc.insert(u, v, w, e.eid)
        if step % audit_every == 0:
            check(eng, orc)
    check(eng, orc)


@pytest.mark.parametrize("seed", range(6))
def test_random_churn_small_chunks(seed):
    """K=8 forces heavy chunk split/merge and short/long transitions."""
    rng = random.Random(seed)
    n = 24
    eng = SparseDynamicMSF(n, K=8)
    orc = KruskalOracle()
    _random_stream(eng, orc, rng, steps=120, n=n)


@pytest.mark.parametrize("seed", range(3))
def test_random_churn_default_K(seed):
    rng = random.Random(100 + seed)
    n = 40
    eng = SparseDynamicMSF(n)
    orc = KruskalOracle()
    _random_stream(eng, orc, rng, steps=150, n=n, audit_every=5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_hypothesis_churn(seed):
    rng = random.Random(seed)
    n = 16
    eng = SparseDynamicMSF(n, K=8)
    orc = KruskalOracle()
    _random_stream(eng, orc, rng, steps=60, n=n, audit_every=3)


def test_tie_weights_keep_msf_weight_correct():
    """Equal weights: unique (w, eid) order still matches the oracle."""
    rng = random.Random(7)
    n = 18
    eng = SparseDynamicMSF(n, K=8)
    orc = KruskalOracle()
    live = {}
    for _ in range(90):
        if live and rng.random() < 0.4:
            eid = rng.choice(list(live))
            eng.delete_edge(live.pop(eid))
            orc.delete(eid)
        else:
            for _ in range(40):
                u, v = rng.sample(range(n), 2)
                if eng.degree(u) < 3 and eng.degree(v) < 3:
                    break
            else:
                continue
            w = float(rng.randint(0, 4))  # heavy tie pressure
            e = eng.insert_edge(u, v, w)
            live[e.eid] = e
            orc.insert(u, v, w, e.eid)
        check(eng, orc)
