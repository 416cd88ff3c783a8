"""Cross-instance eid determinism (PR 3 satellite).

``SparseDynamicMSF`` used to draw auto-assigned edge ids from a
*class-level* ``itertools.count``, so the ids an engine handed out depended
on how many other engines the process had built before it -- the same
latent bug already fixed for ``DegreeReducer`` and ``SparsifiedMSF``.
Per-instance counters make every engine's id stream a pure function of its
own op sequence.
"""

from __future__ import annotations

import random

from repro import DynamicMSF
from repro.core.degree import DegreeReducer
from repro.core.seq_msf import SparseDynamicMSF


def _drive(eng, seed=13, steps=60, n=24):
    rng = random.Random(seed)
    live = []
    eids = []
    for _ in range(steps):
        if not live or rng.random() < 0.7:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or eng.degree(u) >= 3 or eng.degree(v) >= 3:
                continue
            e = eng.insert_edge(u, v, rng.random())  # auto-assigned eid
            eids.append(e.eid)
            live.append(e)
        else:
            eng.delete_edge(live.pop(rng.randrange(len(live))))
    return eids


def test_fresh_engines_assign_identical_eids():
    a = SparseDynamicMSF(24)
    ids_a = _drive(a)
    # interleave: build (and exercise) unrelated engines in between -- a
    # class-level counter would shift the second engine's id stream
    for _ in range(3):
        other = SparseDynamicMSF(24)
        _drive(other, seed=99)
    b = SparseDynamicMSF(24)
    ids_b = _drive(b)
    assert ids_a == ids_b
    assert ids_a and ids_a[0] == 1  # streams start at 1, per instance


def test_eid_stream_is_per_instance_not_class_level():
    assert "_eid" not in SparseDynamicMSF.__dict__, \
        "eid counter regressed to class level"
    e1, e2 = SparseDynamicMSF(8), SparseDynamicMSF(8)
    assert e1._eid is not e2._eid


def test_reducer_chain_eids_unaffected_by_siblings():
    """DegreeReducer gadget-chain eids stay deterministic across builds."""
    def chain_ids(r):
        rng = random.Random(4)
        for _ in range(30):
            u, v = rng.randrange(10), rng.randrange(10)
            r.insert_edge(u, v, rng.random())
        return sorted(r._chain_edge.keys()), sorted(
            e.eid for e in r._chain_edge.values())
    a = chain_ids(DegreeReducer(10, max_edges=64))
    DegreeReducer(10).insert_edge(0, 1, 0.5)  # interloper
    b = chain_ids(DegreeReducer(10, max_edges=64))
    assert a == b


def test_reducer_real_ids_are_insert_ordinals():
    """Chain edges draw from their own counter: with high-degree vertices
    growing and splicing chains between inserts, the auto-assigned real
    ids still come back as 1, 2, 3, ..."""
    rng = random.Random(7)
    for red in (DegreeReducer(8, max_edges=40),
                DynamicMSF(8, sparsify=False, max_edges=40)):
        got = []
        live = []
        for i in range(40):
            u = rng.choice((0, 1)) if i % 3 else rng.randrange(8)
            v = rng.randrange(8)
            got.append(red.insert_edge(u, v, rng.random()))
            live.append(got[-1])
            if i % 4 == 3:  # free a slot somewhere along a chain
                red.delete_edge(live.pop(rng.randrange(len(live))))
        assert got == list(range(1, 41))
