"""Engine-free sparsification nodes.

A non-root node of the sparsification tree runs a dynamic-MSF engine
only while it holds two or more edges; with one edge it keeps that edge
like a leaf.  These tests pin the invariant, the forest under churn that
moves nodes back and forth across it, the (add e, remove f) swap that
must not build an engine, and schedule neutrality of both moves.  A tree
is flat (no node but the root) until it holds more than
``GROW_ABOVE * n`` edges, so each test first grows it with *ballast*:
edges inside a vertex range whose nodes the test's own edges never share
below the root.
"""

import random

import pytest

from repro import BatchedMSF
from repro.core.sparsify import GROW_ABOVE, SparsifiedMSF, _build_engine, _Leaf
from repro.reference.oracle import kruskal
from repro.resilience.checks import check_tree, state_fingerprint
from repro.serve.executor import LevelExecutor


def _ballast_ops(n: int, lo: int, hi: int, first_eid: int, seed: int = 0):
    """Enough inserts inside ``[lo, hi)`` to grow an ``n``-vertex tree:
    more than ``GROW_ABOVE * n`` edges, plus the ops the growth needs to
    move them all (parallel edges are welcome)."""
    rng = random.Random(seed)
    count = GROW_ABOVE * n + n
    return [("ins", first_eid + i, *rng.sample(range(lo, hi), 2),
             float(100 + rng.randint(0, 9))) for i in range(count)]


def _grown(n: int, lo: int, hi: int, **kw) -> SparsifiedMSF:
    """A tree over ``n`` vertices, grown by ballast inside ``[lo, hi)``."""
    tree = SparsifiedMSF(n, **kw)
    tree.apply_batch(_ballast_ops(n, lo, hi, first_eid=10_000))
    assert not tree.flat and tree.migration is None
    return tree


def _held(node) -> int:
    return node.engine.edge_count() if node.has_engine else len(node.edges)


def _assert_engine_iff_two_edges(tree: SparsifiedMSF) -> None:
    for key, node in tree.nodes.items():
        if node is tree.root:
            assert node.has_engine
        elif isinstance(node, _Leaf):
            assert not node.has_engine and node.edges, key
        else:
            assert node.has_engine == (_held(node) >= 2), (key, _held(node))
            assert _held(node) >= 1, key


def _assert_forest(tree: SparsifiedMSF) -> None:
    want = kruskal((u, v, w, eid) for eid, (u, v, w) in tree.edges.items())
    assert tree.msf_ids() == want


@pytest.mark.parametrize("batched", [False, True])
def test_engine_exactly_at_root_or_two_edges_after_prefill(batched):
    n = 32
    rng = random.Random(11)
    tree = SparsifiedMSF(n)
    ops = []
    for eid in range(1, 161):
        u, v = rng.sample(range(n), 2)
        ops.append(("ins", eid, u, v, round(rng.random(), 6)))
    if batched:
        for i in range(0, len(ops), 16):
            tree.apply_batch(ops[i:i + 16], executor=LevelExecutor())
    else:
        for _t, eid, u, v, w in ops:
            tree.insert_edge(u, v, w, eid=eid)
    assert not tree.flat and tree.migration is None
    _assert_engine_iff_two_edges(tree)
    _assert_forest(tree)
    internal = [node for node in tree.nodes.values()
                if node is not tree.root and not isinstance(node, _Leaf)]
    # both kinds occur: the deep levels are mostly one-edge holders
    assert any(node.has_engine for node in internal)
    assert any(not node.has_engine for node in internal)
    assert check_tree(tree, "full") == []


@pytest.mark.parametrize("pool_size", [1, 2])
def test_churn_across_one_and_two_edges_matches_kruskal(pool_size):
    """Few live edges on few vertices: nodes keep crossing between one
    and two edges, so engines are built and handed back all the time.
    Batches go through the executor of a front of ``pool_size``."""
    n = 12
    rng = random.Random(5)
    tree = _grown(n, 0, n // 2)
    executor = BatchedMSF(n, pool_size=pool_size).executor
    live: list[int] = []
    eid = 0
    engine_states: dict[tuple, set[bool]] = {}
    for _batch in range(150):
        ops = []
        for _ in range(rng.randint(1, 3)):
            if live and (len(live) >= 4 or rng.random() < 0.45):
                ops.append(("del", live.pop(rng.randrange(len(live)))))
            else:
                eid += 1
                u, v = rng.sample(range(n // 2, n), 2)
                ops.append(("ins", eid, u, v, float(rng.randint(0, 5))))
                live.append(eid)
        tree.apply_batch(ops, executor=executor)
        assert not tree.flat
        _assert_forest(tree)
        _assert_engine_iff_two_edges(tree)
        for key, node in tree.nodes.items():
            if node is not tree.root and not isinstance(node, _Leaf):
                engine_states.setdefault(key, set()).add(node.has_engine)
    assert any(states == {True, False} for states in engine_states.values())
    assert check_tree(tree, "full") == []


def test_swap_at_a_one_edge_node_builds_no_engine():
    """A lighter parallel edge replaces the leaf's best: every node above
    sees (add e, remove f) in one step and stays engine-free."""
    tree = _grown(16, 0, 3)
    path = tree._path(3, 12)[1:]

    def engines_on_path():
        return [key for key in path if tree.nodes[key].has_engine]

    f = tree.insert_edge(3, 12, 2.0)
    assert engines_on_path() == []
    e = tree.insert_edge(3, 12, 1.0)
    assert engines_on_path() == []
    for key in path[:-1]:
        assert tree.nodes[key].edges == {e: 1.0}
    # the swap reached the root as one insertion plus one deletion
    assert e in tree.msf_ids() and f not in tree.msf_ids()
    assert tree._last_levels[-1] == (0, tree._last_levels[-1][1], 0)
    assert tree._last_levels[-1][1] > 0
    # and back: deleting e restores f the same way
    tree.delete_edge(e)
    assert f in tree.msf_ids() and e not in tree.msf_ids()
    assert engines_on_path() == []
    _assert_engine_iff_two_edges(tree)


def _observe(front: BatchedMSF) -> tuple:
    impl = front._impl
    return (state_fingerprint(front), impl.ops_by_node(),
            dict(impl.retired), tuple(impl._last_levels),
            tuple(sorted(impl.parallel_cost_of_last_update().items())))


def _batches(n: int, seed: int, count: int):
    """Batches of ``("ins", ref, (u, v, w))`` / ``("del", ref)`` ops."""
    rng = random.Random(seed)
    live: list[int] = []
    refs = iter(range(1 << 30))
    for _ in range(count):
        batch = []
        for _ in range(rng.randint(1, 5)):
            if live and (len(live) >= 6 or rng.random() < 0.45):
                batch.append(("del", live.pop(rng.randrange(len(live)))))
            else:
                u, v = rng.sample(range(n // 2, n), 2)
                ref = next(refs)
                live.append(ref)
                batch.append(("ins", ref, (u, v, float(rng.randint(0, 9)))))
        yield batch


def _run_front(engine: str, pool_size: int, n: int, count: int) -> list:
    front = BatchedMSF(n, engine=engine, batch_size=64, pool_size=pool_size)
    for _t, _eid, u, v, w in _ballast_ops(n, 0, n // 2, first_eid=0):
        front.insert_edge(u, v, w)
    front.flush()
    assert not front._impl.flat
    eids: dict[int, int] = {}
    seen = []
    for batch in _batches(n, seed=3, count=count):
        for op in batch:
            if op[0] == "ins":
                eids[op[1]] = front.insert_edge(*op[2])
            else:
                front.delete_edge(eids.pop(op[1]))
        front.flush()
        seen.append(_observe(front))
    return seen


@pytest.mark.parametrize("engine,count", [("sequential", 60),
                                          ("parallel", 15)])
def test_promotion_and_demotion_are_schedule_and_pool_neutral(engine, count):
    n = 16 if engine == "sequential" else 8
    ref = _run_front(engine, 1, n, count)
    assert any(obs[2]["ops"] for obs in ref)  # engines were dropped
    for pool_size in (2, 4):
        assert _run_front(engine, pool_size, n, count) == ref


def _one_edge_holder(tree: SparsifiedMSF, u: int, v: int):
    for key in tree._path(u, v)[1:]:
        node = tree.nodes[key]
        if not isinstance(node, _Leaf) and not node.has_engine:
            return key, node
    raise AssertionError("no engine-free internal node")


def test_check_tree_reports_a_one_edge_engine_node():
    tree = _grown(16, 8, 16)
    eid = tree.insert_edge(0, 9, 1.0)
    assert check_tree(tree, "structural") == []
    key, node = _one_edge_holder(tree, 0, 9)
    engine = _build_engine(node.engine_key)
    u, v, w = tree.edges[eid]
    engine.insert_edge(node._local(u), node._local(v), w, eid=eid)
    node.engine, node.edges = engine, {}
    findings = check_tree(tree, "structural")
    assert len(findings) == 1
    assert findings[0].component == "tree"
    assert repr(key) in findings[0].message
    assert "engine kept for 1 edge" in findings[0].message


def test_check_tree_reports_a_two_edge_holder():
    tree = _grown(16, 8, 16)
    tree.insert_edge(0, 9, 1.0)
    key, node = _one_edge_holder(tree, 0, 9)
    node.edges[999] = 5.0
    findings = check_tree(tree, "structural")
    assert len(findings) == 1
    assert findings[0].component == "tree"
    assert repr(key) in findings[0].message
    assert "2 edges held without an engine" in findings[0].message
    # the cheap tier does not look at node shapes
    assert check_tree(tree, "cheap") == []
