"""Node retirement in the sparsification tree.

A node left without edges is retired, and a non-root node left with one
edge drops its engine; either way the engine's accounting is folded
into ``SparsifiedMSF.retired`` first.  These tests pin that tree space
follows the live edges, that a batch that empties the graph leaves only
the root, and that retired charges stay in the tree's totals.  A tree is
flat until it holds more than ``GROW_ABOVE * n`` edges, so the tests
grow it first with ballast edges inside a vertex range their own edges
do not share nodes with below the root.
"""

from __future__ import annotations

import itertools
import random

from repro.core.sparsify import GROW_ABOVE, SparsifiedMSF


def _grown(n: int, lo: int, hi: int, **kw) -> SparsifiedMSF:
    """A tree over ``n`` vertices, grown by ballast inside ``[lo, hi)``."""
    tree = SparsifiedMSF(n, **kw)
    rng = random.Random(0)
    for eid in range(10_000, 10_000 + GROW_ABOVE * n + n):
        tree.insert_edge(*rng.sample(range(lo, hi), 2), 100.0 + rng.random(),
                         eid=eid)
    assert not tree.flat and tree.migration is None
    return tree


def test_never_long_engine_allocates_no_matrix():
    """An engine whose lists all stayed short never assigned a chunk id,
    so it holds no matrix."""
    tree = _grown(24, 12, 24)
    tree.insert_edge(0, 1, 1.0)
    tree.insert_edge(0, 2, 2.0)  # a second edge: shared nodes need engines
    paths = set(tree._path(0, 1)) | set(tree._path(0, 2))
    leafward = [node for key, node in tree.nodes.items()
                if node.has_engine and key[0] > 0 and key in paths]
    assert leafward
    for node in leafward:
        space = node.engine.core.fabric.space
        assert space.C is None and space.row_views is None


def _bounded_churn(seed: int, n: int, steps: int, max_live: int):
    """Inserts over ever-new vertex pairs with at most ``max_live`` edges
    live, so almost every delete empties (and retires) a path of nodes."""
    rng = random.Random(seed)
    live: list[int] = []
    eid = itertools.count(1)
    out = []
    for _ in range(steps):
        if len(live) >= max_live or (live and rng.random() < 0.4):
            out.append(("del", live.pop(rng.randrange(len(live)))))
        else:
            e = next(eid)
            u, v = rng.sample(range(n), 2)
            out.append(("ins", e, u, v, round(rng.random(), 6)))
            live.append(e)
    return out


def test_tree_space_tracks_live_edges():
    n = 24
    tree = SparsifiedMSF(n)
    root_key = next(iter(tree.nodes))
    rng = random.Random(3)
    eids = [tree.insert_edge(u, v, rng.random())
            for u, v in (rng.sample(range(n), 2) for _ in range(80))]
    assert not tree.flat and len(tree.nodes) > 1
    for e in eids:
        tree.delete_edge(e)
    # inserting then deleting every edge folds back to the root alone
    assert tree.flat and list(tree.nodes) == [root_key]
    assert tree.root.engine.edge_count() == 0
    # churn over many distinct pairs beside ballast on a few pairs of
    # [0, 3): every surviving node lies on the path of a live edge
    tree = _grown(n, 0, 3)
    ballast_nodes = len(tree.nodes)
    live: set[int] = set()
    pairs = set()
    for op in _bounded_churn(9, n, 600, max_live=6):
        if op[0] == "ins":
            _t, e, u, v, w = op
            tree.insert_edge(u, v, w, eid=e)
            live.add(e)
            pairs.add((min(u, v), max(u, v)))
        else:
            tree.delete_edge(op[1])
            live.discard(op[1])
        assert len(tree.nodes) <= (ballast_nodes
                                   + len(live) * tree.max_level)
    # the bound is far below what a grow-only tree would hold
    assert len(pairs) * 2 > ballast_nodes + 6 * tree.max_level


def test_batch_retirement_leaves_only_the_root():
    """A batch that empties a grown tree's graph leaves only the root."""
    n = 32
    tree = SparsifiedMSF(n)
    ops = [("ins", i + 1, i % n, (i * 7 + 3) % n, float(i))
           for i in range(4 * n) if i % n != (i * 7 + 3) % n]
    tree.apply_batch(ops)
    assert not tree.flat and len(tree.nodes) > 1
    tree.apply_batch([("del", op[1]) for op in ops])
    assert tree.flat and list(tree.nodes) == [(0, (0, n), (0, n))]


def test_retired_nodes_keep_their_accounting():
    """Charges and EREW violations made on a node before it is retired
    still show up in the tree's totals afterwards."""
    from repro.resilience.soak import _charged_work

    tree = _grown(8, 4, 8, parallel=True)
    keep = tree.insert_edge(4, 5, 2.0)
    e = tree.insert_edge(0, 1, 1.0)
    tree.insert_edge(0, 2, 3.0)  # a second edge: shared nodes need engines
    engines = {key: tree.nodes[key].engine for key in tree._path(0, 1)
               if key[0] > 0 and tree.nodes[key].has_engine}
    victim = max(engines)  # the deepest engine node on (0, 1)'s path
    engines[victim].core.machine.total.violations += 1
    assert tree.erew_violations() == 1
    before = _charged_work(tree)
    retired_before = dict(tree.retired)
    tree.delete_edge(e)
    # retired: the node went, or kept its one edge and gave up the engine
    gone = [key for key in engines if key not in tree.nodes
            or tree.nodes[key].engine is not engines[key]]
    assert victim in gone
    # the dropped engines still hold their counters
    assert tree.retired["ops"] - retired_before["ops"] == sum(
        engines[k].core.ops.grand_total() for k in gone)
    assert tree.retired["work"] - retired_before["work"] == sum(
        engines[k].core.machine.total.work for k in gone)
    assert tree.erew_violations() == 1
    assert _charged_work(tree) >= before
    assert _charged_work(tree) == (sum(tree.ops_by_node().values())
                                   + tree.retired["ops"])
    assert keep in tree.msf_ids()
