"""Sparsify by density: the flat root engine and the grown tree.

A :class:`SparsifiedMSF` serves from one flat root engine while it has
at most ``GROW_ABOVE * n`` live edges and from the edge-partition tree
above that, folding back below ``FOLD_BELOW * n``.  Either switch builds
the new side beside the serving one, ``MOVES_PER_OP`` edges per op, and
swaps in O(1).  These tests oscillate across both thresholds and pin:
the forest after every op, a clean full audit at every swap, serial ==
batched per-node op counts, the per-op move bound, the migration
length, and that no op's charged work spikes at a switch.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import BatchedMSF
from repro.core import compiled, sparsify
from repro.core.sparsify import (FOLD_BELOW, GROW_ABOVE, MOVES_PER_OP,
                                 SparsifiedMSF)
from repro.reference.oracle import kruskal

CONFIGS = {
    "scalar": dict(n=8, cycles=3, kw={}),
    "compiled": dict(n=8, cycles=3, kw={"backend": "compiled"}),
    "parallel": dict(n=4, cycles=2, kw={"parallel": True}),
}


def _batches(n: int, cycles: int, seed: int):
    """Canonical batches (deletes ascending, then inserts) whose live
    edge count climbs past ``3n`` and falls to zero ``cycles`` times;
    inserts are ``(u, v, w)`` and get eids 1, 2, ... in order."""
    rng = random.Random(seed)
    live: list[int] = []
    next_eid = 1
    for _cycle in range(cycles):
        for rising in (True, False):
            while (len(live) < 3 * n) if rising else live:
                dels, ins = [], []
                for _ in range(rng.randint(1, 4)):
                    if live and rng.random() < (0.25 if rising else 0.8):
                        dels.append(live.pop(rng.randrange(len(live))))
                    else:
                        ins.append((*rng.sample(range(n), 2),
                                    float(rng.randint(0, 9))))
                live.extend(range(next_eid, next_eid + len(ins)))
                next_eid += len(ins)
                yield sorted(dels), ins


def _charged(tree: SparsifiedMSF) -> int:
    return sum(tree.ops_by_node().values()) + tree.retired["ops"]


def _forest_ok(tree: SparsifiedMSF) -> bool:
    want = kruskal((u, v, w, e) for e, (u, v, w) in tree.edges.items())
    return tree.msf_ids() == want


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_oscillation_matches_kruskal_and_batched(config):
    spec = CONFIGS[config]
    if config == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")
    n, kw = spec["n"], spec["kw"]
    tree = SparsifiedMSF(n, **kw)
    front = BatchedMSF(n, engine="parallel" if kw.get("parallel")
                       else "sequential", backend=kw.get("backend", "scalar"),
                       batch_size=64)
    swaps = {"grow": 0, "fold": 0}

    def step(fn, *args) -> None:
        flat = tree.flat
        getattr(tree, fn)(*args)
        getattr(front, fn)(*args)
        assert _forest_ok(tree)
        if tree.flat != flat:
            swaps["fold" if tree.flat else "grow"] += 1
            assert tree.self_check("full") == []

    for dels, ins in _batches(n, spec["cycles"], seed=1):
        for eid in dels:
            step("delete_edge", eid)
        for u, v, w in ins:
            step("insert_edge", u, v, w)
        front.flush()
        impl = front._impl
        assert impl.ops_by_node() == tree.ops_by_node()
        assert impl.retired == tree.retired
        assert impl.msf_ids() == tree.msf_ids()
        assert impl.msf_weight() == tree.msf_weight()
    assert swaps == {"grow": spec["cycles"], "fold": spec["cycles"]}
    assert tree.flat and tree.migration is None
    assert front.self_check("full") == []


def test_switches_are_bounded_and_spike_free():
    """Across both thresholds: no op moves more than ``MOVES_PER_OP``
    edges, a migration of E edges ends within ceil(E / MOVES_PER_OP)
    ops, and no op's charged work (both sides, retired engines
    included) exceeds a fixed multiple of the steady-state maximum."""
    n = 24
    tree = SparsifiedMSF(n)
    steady_max = switch_max = migrations = 0
    for dels, ins in _batches(n, 2, seed=7):
        ops = [("del", eid) for eid in dels]
        ops += [("ins", None, u, v, w) for u, v, w in ins]
        for op in ops:
            before = _charged(tree)
            mig_before = tree.migration
            cursor = mig_before.cursor if mig_before is not None else 0
            if op[0] == "del":
                tree.delete_edge(op[1])
            else:
                tree.insert_edge(*op[2:])
            mig = tree.migration or mig_before
            cost = _charged(tree) - before
            if mig is None:
                steady_max = max(steady_max, cost)
                continue
            switch_max = max(switch_max, cost)
            if mig is not mig_before:  # a switch started with this op
                length, ops_run = len(mig.order), 0
                migrations += 1
            ops_run += 1
            assert mig.cursor - cursor <= MOVES_PER_OP  # edges moved
            assert mig.moved <= tree.edges.keys()
            if tree.migration is None:  # ... and ended with it
                assert ops_run <= math.ceil(length / MOVES_PER_OP)
        assert _forest_ok(tree)
    assert migrations == 4
    assert 0 < switch_max <= (MOVES_PER_OP + 2) * steady_max


def _fill_to(tree: SparsifiedMSF, live: int, rng: random.Random) -> None:
    while len(tree.edges) < live:
        tree.insert_edge(*rng.sample(range(tree.n), 2), rng.random())


def _drain_to(tree: SparsifiedMSF, live: int) -> None:
    while len(tree.edges) > live:
        tree.delete_edge(next(iter(tree.edges)))


def test_growth_and_fold_thresholds():
    n = 10
    rng = random.Random(2)
    tree = SparsifiedMSF(n)
    _fill_to(tree, GROW_ABOVE * n, rng)
    assert tree.flat and tree.migration is None
    assert list(tree.nodes) == [tree._root_key]
    stats = tree.apply_batch([("ins", 999, 0, 5, 1.5)])
    mig = tree.migration
    assert mig is not None and not mig.flat and tree.flat
    assert stats["plans"] == 1 + MOVES_PER_OP  # the op, then its moves
    assert len(mig.moved) == MOVES_PER_OP
    while tree.migration is not None:
        tree.insert_edge(*rng.sample(range(n), 2), rng.random())
    assert not tree.flat and len(tree.nodes) > 1
    assert tree.self_check("full") == []
    _drain_to(tree, FOLD_BELOW * n)
    assert not tree.flat and tree.migration is None
    tree.delete_edge(next(iter(tree.edges)))
    assert tree.migration is not None and tree.migration.flat
    while tree.migration is not None:
        tree.delete_edge(next(iter(tree.edges)))
    assert tree.flat and list(tree.nodes) == [tree._root_key]
    assert tree.self_check("full") == []


def test_a_switch_that_turns_back_is_dropped(monkeypatch):
    """A switch whose live count crosses the other threshold drops its
    half-built side and keeps that side's work in ``retired``.  With
    ``MOVES_PER_OP`` edges moved per op a switch always ends first, so
    moving is paused here to reach the drop."""
    n = 6
    rng = random.Random(4)
    tree = SparsifiedMSF(n)
    monkeypatch.setattr(sparsify, "MOVES_PER_OP", 0)
    _fill_to(tree, GROW_ABOVE * n + 3, rng)  # two ops copied to the tree
    assert tree.migration is not None and not tree.migration.flat
    retired = tree.retired["ops"]
    _drain_to(tree, FOLD_BELOW * n - 1)
    assert tree.migration is None and tree.flat
    assert tree.retired["ops"] > retired
    assert tree.self_check("full") == []
    monkeypatch.setattr(sparsify, "MOVES_PER_OP", MOVES_PER_OP)
    _fill_to(tree, GROW_ABOVE * n + 1, rng)
    while tree.migration is not None:
        tree.insert_edge(*rng.sample(range(n), 2), rng.random())
    assert not tree.flat
    monkeypatch.setattr(sparsify, "MOVES_PER_OP", 0)
    _drain_to(tree, FOLD_BELOW * n - 1)
    assert tree.migration is not None and tree.migration.flat
    retired = tree.retired["ops"]
    _fill_to(tree, GROW_ABOVE * n + 1, rng)
    assert tree.migration is None and not tree.flat
    assert tree.retired["ops"] > retired
    assert tree.self_check("full") == []


@pytest.mark.parametrize("live", [1, 2 * GROW_ABOVE])
def test_weight_fault_detected_in_both_modes(live):
    """The ``sparsify.weight`` site fires on the serving side's root
    delta, flat or grown, and the cheap check reports it."""
    from repro.resilience import faults
    from repro.resilience.checks import check_tree

    n = 8
    rng = random.Random(5)
    tree = SparsifiedMSF(n)
    _fill_to(tree, live * n, rng)
    while tree.migration is not None:
        tree.insert_edge(*rng.sample(range(n), 2), rng.random())
    assert tree.flat == (live < GROW_ABOVE) and tree.migration is None
    assert check_tree(tree, "cheap") == []
    plan = faults.FaultPlan([faults.Fault("sparsify.weight", nth=0,
                                          param=3)])
    with faults.injected(plan):
        tree.insert_edge(0, 1, -1.0)  # lighter than all: enters the MSF
    assert plan.injected()
    findings = check_tree(tree, "cheap")
    assert findings and "incremental MSF weight" in findings[0].message


def _break_flat_edges(tree):
    tree.root.engine.insert_edge(0, 1, 5.0, eid=999)


def _break_flat_nodes(tree):
    tree._get_node(tree.nodes, tree._path(0, 1)[1])


def _break_moved(tree):
    tree.migration.moved.add(999)


def _break_half_built_forest(tree):
    engine = tree.migration.nodes[tree._root_key].engine
    engine.delete_edge(min(engine.msf_ids()))


@pytest.mark.parametrize("breaker,level,message", [
    (_break_flat_edges, "structural", "flat root holds"),
    (_break_flat_nodes, "structural", "flat side materialized nodes"),
    (_break_moved, "structural", "moved edges [999] are not live"),
    (_break_half_built_forest, "full", "next root forest != Kruskal"),
])
def test_check_tree_reports_broken_sides(breaker, level, message):
    from repro.resilience.checks import check_tree

    n = 8
    tree = SparsifiedMSF(n)
    _fill_to(tree, GROW_ABOVE * n + 1, random.Random(6))
    assert tree.flat and tree.migration is not None
    assert check_tree(tree, "full") == []
    breaker(tree)
    findings = check_tree(tree, level)
    assert any(message in f.message for f in findings), findings
