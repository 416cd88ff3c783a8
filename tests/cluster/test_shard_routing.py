"""ShardMap geometry, edge homes, and shard-scoped tree construction."""

import pytest

from repro.cluster.protocol import BOUNDARY, LOOPS, ShardMap
from repro.core.sparsify import SparsifiedMSF


@pytest.mark.parametrize("n,k", [(8, 1), (8, 2), (10, 3), (64, 4), (65, 4),
                                 (7, 7)])
def test_bounds_tile_the_vertex_set(n, k):
    sm = ShardMap(n, k)
    covered = []
    for s in sm.shards():
        lo, hi = sm.bounds(s)
        covered.extend(range(lo, hi))
    assert covered == list(range(n))


@pytest.mark.parametrize("n,k", [(8, 2), (10, 3), (64, 4), (65, 4), (100, 7)])
def test_shard_of_inverts_bounds(n, k):
    sm = ShardMap(n, k)
    for u in range(n):
        s = sm.shard_of(u)
        lo, hi = sm.bounds(s)
        assert lo <= u < hi


def test_home_of_classifies_edges():
    sm = ShardMap(8, 2)          # ranges [0,4) and [4,8)
    assert sm.home_of(0, 3) == 0
    assert sm.home_of(5, 7) == 1
    assert sm.home_of(3, 4) == BOUNDARY
    assert sm.home_of(2, 2) == LOOPS


def test_shard_map_validates():
    with pytest.raises(ValueError):
        ShardMap(1, 1)
    with pytest.raises(ValueError):
        ShardMap(8, 0)
    with pytest.raises(ValueError):
        ShardMap(8, 9)


def test_for_vertex_range_translates_and_matches_global():
    # a shard tree over [4, 8) must behave like a fresh 4-vertex tree
    shard = SparsifiedMSF.for_vertex_range(4, 8)
    plain = SparsifiedMSF(4)
    edges = [(0, 1, 5.0), (1, 2, 3.0), (2, 3, 4.0), (0, 3, 1.0)]
    for i, (u, v, w) in enumerate(edges, start=1):
        a1, r1 = shard.insert_reported(u, v, w, eid=i)
        a2, r2 = plain.insert_reported(u, v, w, eid=i)
        assert (sorted(a1), sorted(r1)) == (sorted(a2), sorted(r2))
    assert shard.msf_ids() == plain.msf_ids()
    assert shard.msf_weight() == plain.msf_weight()
    a1, r1 = shard.delete_reported(2)
    a2, r2 = plain.delete_reported(2)
    assert (sorted(a1), sorted(r1)) == (sorted(a2), sorted(r2))
    assert shard.msf_ids() == plain.msf_ids()


def test_for_vertex_range_pads_single_vertex_range():
    t = SparsifiedMSF.for_vertex_range(5, 6)
    assert t.n == 2              # padded to the engine floor
    t.insert_edge(0, 0, 1.0, eid=1)   # the only legal local edge: a loop
    assert t.msf_ids() == set()


def test_reported_deltas_on_plain_tree():
    t = SparsifiedMSF(4)
    assert t.insert_reported(0, 1, 1.0, eid=1) == ([1], [])
    assert t.insert_reported(1, 2, 2.0, eid=2) == ([2], [])
    # a cycle-closing heavier edge changes nothing
    assert t.insert_reported(0, 2, 9.0, eid=3) == ([], [])
    # deleting a tree edge pulls in the replacement
    added, removed = t.delete_reported(2)
    assert (added, removed) == ([3], [2])
    # self-loops report empty deltas both ways
    assert t.insert_reported(3, 3, 4.0, eid=4) == ([], [])
    assert t.delete_reported(4) == ([], [])
