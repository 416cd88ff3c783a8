"""Remaining engine surface: delete_between, reported deltas, change log."""

from __future__ import annotations

import pytest

from repro.core.audit import audit
from repro.core.degree import DegreeReducer
from repro.core.seq_msf import SparseDynamicMSF


def test_delete_between_picks_lightest_parallel_edge():
    eng = SparseDynamicMSF(4, K=8)
    a = eng.insert_edge(0, 1, 5.0)
    b = eng.insert_edge(0, 1, 2.0)
    c = eng.insert_edge(0, 1, 9.0)
    eng.delete_between(0, 1)  # removes b (lightest)
    assert b.eid not in eng.edges
    assert a.eid in eng.edges and c.eid in eng.edges
    audit(eng)


def test_delete_between_missing_edge_raises():
    eng = SparseDynamicMSF(4, K=8)
    # raised, not asserted: survives `python -O`
    with pytest.raises(ValueError):
        eng.delete_between(0, 1)


def test_change_log_records_status_flips():
    eng = SparseDynamicMSF(4, K=8)
    mark = len(eng.change_log)
    e1 = eng.insert_edge(0, 1, 5.0)
    assert eng.change_log[mark:] == [(e1.eid, True)]
    e2 = eng.insert_edge(0, 1, 2.0)  # displaces e1
    assert (e1.eid, False) in eng.change_log[mark:]
    assert (e2.eid, True) in eng.change_log[mark:]
    mark = len(eng.change_log)
    eng.delete_edge(e2)  # e1 replaces
    flips = eng.change_log[mark:]
    assert (e2.eid, False) in flips and (e1.eid, True) in flips


def test_reducer_insert_reported_simple():
    red = DegreeReducer(4, max_edges=8)
    added, removed = red.insert_reported(0, 1, 3.0, eid=11)
    assert added == {11} and removed == set()
    added, removed = red.insert_reported(0, 1, 1.0, eid=12)
    assert added == {12} and removed == {11}
    added, removed = red.insert_reported(0, 1, 9.0, eid=13)
    assert added == set() and removed == set()


def test_reducer_delete_reported_with_replacement():
    red = DegreeReducer(3, max_edges=8)
    red.insert_reported(0, 1, 1.0, eid=1)
    red.insert_reported(1, 2, 2.0, eid=2)
    red.insert_reported(0, 2, 3.0, eid=3)  # non-tree
    added, removed = red.delete_reported(1)
    assert removed == {1} and added == {3}
    added, removed = red.delete_reported(2)
    assert removed == {2} and added == set()


def test_reducer_splice_is_delta_silent():
    """Gadget splices (a dropped tail, a bypassed mid-chain gadget) flip
    only chain edges and must not leak into reported MSF deltas."""
    red = DegreeReducer(4, max_edges=16)
    eids = []
    for k in range(5):  # high degree at vertex 0 -> long chain
        _a, _r = red.insert_reported(0, (k % 3) + 1, 10.0 + k, eid=50 + k)
        eids.append(50 + k)
    # vertex 0's anchor, then a mid-chain gadget (a bypass), then its
    # tail gadget (a leaf drop)
    for gone in (50, 52, 54):
        added, removed = red.delete_reported(gone)
        assert gone in removed or gone not in added
        for eid in added | removed:
            assert eid > 0 and (eid != gone or eid in removed)
    # final state still matches a fresh recomputation
    from repro.reference.oracle import kruskal
    expect = kruskal((u, v, w, eid) for eid, (u, v, w, *_r) in
                     ((e, red.real[e][:3] + ((),)) for e in red.real))
    assert red.msf_ids() == expect


def test_msf_weight_and_edges_consistency():
    eng = SparseDynamicMSF(6, K=8)
    eng.insert_edge(0, 1, 1.5)
    eng.insert_edge(1, 2, 2.5)
    assert eng.msf_weight() == pytest.approx(4.0)
    assert {(min(e.u.vid, e.v.vid), max(e.u.vid, e.v.vid))
            for e in eng.msf_edges()} == {(0, 1), (1, 2)}
