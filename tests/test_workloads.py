"""Workload generators: determinism, degree bounds, replayability."""

from __future__ import annotations

import pytest

from repro.core.seq_msf import SparseDynamicMSF
from repro.reference.oracle import KruskalOracle
from repro.workloads import (OpStream, adversarial_cuts, churn, dense_stream,
                             drive, grid_edges, path_edges, query_mix,
                             worker_mix)


def test_churn_is_deterministic():
    a = list(churn(20, 50, seed=9))
    b = list(churn(20, 50, seed=9))
    assert a == b
    c = list(churn(20, 50, seed=10))
    assert a != c


def test_churn_respects_degree_bound():
    deg = {}
    live = {}
    for idx, op in enumerate(churn(12, 300, seed=4, max_degree=3)):
        if op[0] == "ins":
            _t, u, v, w = op
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
            live[idx] = (u, v)
            assert deg[u] <= 3 and deg[v] <= 3
        else:
            u, v = live.pop(op[1])
            deg[u] -= 1
            deg[v] -= 1


def test_churn_deletes_reference_live_inserts():
    live = set()
    for idx, op in enumerate(churn(10, 200, seed=1)):
        if op[0] == "ins":
            live.add(idx)
        else:
            assert op[1] in live
            live.discard(op[1])


def test_churn_ties_mode_small_weights():
    ws = [op[3] for op in churn(10, 80, seed=2, weights="ties")
          if op[0] == "ins"]
    assert ws and all(w == int(w) and 0 <= w <= 7 for w in ws)


def test_grid_edges_shape():
    edges = grid_edges(4, seed=0)
    assert len(edges) == 2 * 4 * 3  # 2 * side * (side-1)
    deg = {}
    for u, v, _w in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert max(deg.values()) <= 4


def test_path_edges():
    edges = path_edges(5, seed=0)
    assert [(u, v) for u, v, _ in edges] == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_dense_stream_counts_and_no_self_loops():
    edges = dense_stream(10, 200, seed=0)
    assert len(edges) == 200
    assert all(u != v for u, v, _ in edges)


def test_adversarial_cuts_valid_refs():
    """Every delete references a live insert; deletions target tree edges
    of one big component."""
    live = set()
    deletes = 0
    for idx, op in enumerate(adversarial_cuts(64, rounds=10, seed=3)):
        if op[0] == "ins":
            live.add(idx)
        else:
            assert op[1] in live
            live.discard(op[1])
            deletes += 1
    assert deletes == 10


def test_opstream_drive_replays_identically():
    ops = list(churn(16, 80, seed=6, max_degree=3))
    eng1 = SparseDynamicMSF(16, K=8)
    eng2 = SparseDynamicMSF(16, K=8)
    drive(eng1, ops)
    drive(eng2, ops)
    assert ({e.eid for e in eng1.msf_edges()}
            != set()) or eng1.msf_weight() == 0
    assert eng1.msf_weight() == pytest.approx(eng2.msf_weight())


def test_query_mix_is_deterministic():
    a = list(query_mix(24, 120, read_ratio=0.8, seed=9))
    b = list(query_mix(24, 120, read_ratio=0.8, seed=9))
    assert a == b
    assert a != list(query_mix(24, 120, read_ratio=0.8, seed=10))
    assert a != list(query_mix(24, 120, read_ratio=0.5, seed=9))


def test_query_mix_stream_shape():
    n, steps, ratio = 20, 400, 0.75
    ops = list(query_mix(n, steps, read_ratio=ratio, seed=3))
    assert len(ops) == steps            # every index yields exactly one op
    tags = [op[0] for op in ops]
    assert set(tags) <= {"ins", "del", "conn", "weight"}
    reads = sum(t in ("conn", "weight") for t in tags)
    assert abs(reads / steps - ratio) < 0.12  # seeded, loose sanity band
    # deletes reference live inserts, conn endpoints are in range
    live = set()
    for idx, op in enumerate(ops):
        if op[0] == "ins":
            assert 0 <= op[1] < n and 0 <= op[2] < n and op[1] != op[2]
            live.add(idx)
        elif op[0] == "del":
            assert op[1] in live
            live.discard(op[1])
        elif op[0] == "conn":
            assert 0 <= op[1] < n and 0 <= op[2] < n


def test_query_mix_extremes():
    assert all(op[0] in ("conn", "weight")
               for op in query_mix(10, 60, read_ratio=1.0, seed=0))
    assert all(op[0] in ("ins", "del")
               for op in query_mix(10, 60, read_ratio=0.0, seed=0))


def test_opstream_records_query_results():
    eng = SparseDynamicMSF(8, K=4)
    stream = OpStream(eng)
    stream.apply(("ins", 0, 1, 2.5))
    stream.apply(("conn", 0, 1))
    stream.apply(("weight",))
    stream.apply(("conn", 0, 7))
    assert stream.results == [True, 2.5, False]
    with pytest.raises(ValueError):
        stream.apply(("bogus",))


def test_worker_mix_is_deterministic_and_well_formed():
    a = list(worker_mix(32, 200, seed=4, shards=4))
    assert a == list(worker_mix(32, 200, seed=4, shards=4))
    assert a != list(worker_mix(32, 200, seed=5, shards=4))
    assert len(a) == 200
    live = set()
    for i, op in enumerate(a):
        if op[0] == "ins":
            assert 0 <= op[1] < 32 and 0 <= op[2] < 32 and op[1] != op[2]
            live.add(i)
        elif op[0] == "del":
            assert op[1] in live     # only deletes its own live inserts
            live.discard(op[1])
        else:
            assert op[0] in ("conn", "weight")


def test_worker_mix_cross_fraction_controls_boundary_edges():
    def cross_count(frac):
        bounds = [(s * 64 // 4, (s + 1) * 64 // 4) for s in range(4)]

        def shard(u):
            return next(s for s, (lo, hi) in enumerate(bounds)
                        if lo <= u < hi)
        ops = worker_mix(64, 3000, seed=7, shards=4, cross_fraction=frac,
                         read_ratio=0.0)
        ins = [op for op in ops if op[0] == "ins"]
        return sum(1 for op in ins if shard(op[1]) != shard(op[2])), len(ins)

    zero, n0 = cross_count(0.0)
    assert zero == 0 and n0 > 0
    some, n1 = cross_count(0.2)
    assert 0.08 < some / n1 < 0.35   # ~20%, generous seed tolerance
    all_cross, n2 = cross_count(1.0)
    assert all_cross == n2


def test_worker_mix_validates_shard_count():
    with pytest.raises(ValueError):
        list(worker_mix(8, 10, shards=5))   # needs >= 2 vertices per shard
    with pytest.raises(ValueError):
        list(worker_mix(8, 10, shards=0))


def test_worker_mix_replays_identically_on_an_engine():
    from repro.serve import BatchedMSF
    ops = list(worker_mix(24, 150, seed=2, shards=3, cross_fraction=0.1))
    a = BatchedMSF(24, pool_size=1, batch_size=16)
    b = BatchedMSF(24, pool_size=1, batch_size=16)
    ra = drive(a, ops)
    rb = drive(b, ops)
    assert ra.results == rb.results
    assert a.msf_ids() == b.msf_ids()


def test_adversarial_cuts_keep_msf_correct():
    eng = SparseDynamicMSF(48, K=8)
    orc = KruskalOracle()
    stream = OpStream(eng)
    def as_eid(handle):
        # core engines hand back Edge objects, facades hand back ints
        return handle.eid if hasattr(handle, "eid") else handle

    for op in adversarial_cuts(48, rounds=12, seed=0):
        if op[0] == "ins":
            stream.apply(op)
            orc.insert(op[1], op[2], op[3],
                       as_eid(stream.eids[stream.index - 1]))
        else:
            eid = as_eid(stream.eids[op[1]])
            stream.apply(op)
            orc.delete(eid)
        assert {e.eid for e in eng.msf_edges()} == orc.msf_ids()
