"""Engine-arena determinism tests (PR 3, tentpole layer 1).

The sparsification tree recycles retired node engines from an
:class:`~repro.core.sparsify.EnginePool` free-list instead of rebuilding
them.  Pooling must be *measurement-neutral*: a tree whose nodes were
materialized from recycled engines must be bit-identical -- forests,
weights, per-node op counters, change-log-derived deltas and the BENCH
model quantities -- to a tree built cold.  These tests warm a pool with one
op stream, release, then replay a second stream through both a pooled and
a pool-less tree and compare everything observable.
"""

from __future__ import annotations

import itertools
import random
import time

from repro.core.seq_msf import SparseDynamicMSF
from repro.core.sparsify import EnginePool, SparsifiedMSF


def _ops_stream(seed: int, n: int, steps: int):
    rng = random.Random(seed)
    live = {}
    eid = itertools.count(1)
    out = []
    for _ in range(steps):
        if not live or rng.random() < 0.65:
            e = next(eid)
            u, v = rng.randrange(n), rng.randrange(n)
            out.append(("ins", e, u, v, round(rng.random(), 6)))
            live[e] = True
        else:
            e = rng.choice(list(live))
            del live[e]
            out.append(("del", e))
    return out


def _replay(eng: SparsifiedMSF, ops):
    costs = []
    for op in ops:
        if op[0] == "ins":
            _t, eid, u, v, w = op
            eng.insert_edge(u, v, w, eid=eid)
        else:
            eng.delete_edge(op[1])
        costs.append(eng.parallel_cost_of_last_update())
    return costs


def _fingerprint(eng: SparsifiedMSF, costs):
    return {
        "msf_ids": eng.msf_ids(),
        "weight": eng.msf_weight(),
        "weight_ref": eng.msf_weight_recomputed(),
        "ops_by_node": eng.ops_by_node(),
        "depth_work": eng.depth_work_by_node(),
        "levels": eng._last_levels,
        "costs": costs,
    }


def test_arena_determinism_sequential():
    n, steps = 40, 120
    warm = _ops_stream(7, n, 80)
    work = _ops_stream(42, n, steps)
    pool = EnginePool()
    # warm the arena with a different stream, then retire everything
    t0 = SparsifiedMSF(n, pool=pool)
    _replay(t0, warm)
    t0.release()
    assert pool.size() > 0
    # recycled build vs. a build with pooling disabled entirely
    recycled = SparsifiedMSF(n, pool=pool)
    fresh = SparsifiedMSF(n, pool=None)
    fp_r = _fingerprint(recycled, _replay(recycled, work))
    fp_f = _fingerprint(fresh, _replay(fresh, work))
    assert fp_r == fp_f
    assert pool.hits > 0  # the recycled tree actually drew from the arena


def test_arena_determinism_parallel_depth_work():
    n, steps = 16, 24
    warm = _ops_stream(3, n, 16)
    work = _ops_stream(11, n, steps)
    pool = EnginePool()
    t0 = SparsifiedMSF(n, parallel=True, pool=pool)
    _replay(t0, warm)
    t0.release()
    assert pool.size() > 0
    recycled = SparsifiedMSF(n, parallel=True, pool=pool)
    fresh = SparsifiedMSF(n, parallel=True, pool=None)
    fp_r = _fingerprint(recycled, _replay(recycled, work))
    fp_f = _fingerprint(fresh, _replay(fresh, work))
    # PRAM depth/work per node must be bit-identical across arena reuse
    assert fp_r == fp_f
    assert pool.hits > 0
    assert recycled.erew_violations() == fresh.erew_violations() == 0


def test_release_resets_engines_bit_identically():
    """A released-then-acquired engine equals a freshly constructed one."""
    pool = EnginePool()
    eng = SparsifiedMSF(24, pool=pool)
    _replay(eng, _ops_stream(1, 24, 40))
    eng.release()
    key = next(iter(pool._free))
    recycled = pool._free[key][-1]
    assert recycled.core.ops.total == 0
    assert recycled.core.change_log == []
    assert recycled.core.edges == {} and recycled.core.tree_edges == set()
    assert recycled.real == {} and recycled._chain_edge == {}
    # chains and gadget ids are allocated on first touch: none survive
    assert recycled.chains == {}
    assert recycled._next_gadget == recycled.n
    assert recycled._free_gadgets == []
    # eid streams restart: fresh counters draw 1 first
    assert next(recycled._eid) == 1
    assert next(recycled.core._eid) == 1


def test_never_long_engine_allocates_no_matrix():
    """An engine whose lists all stayed short never assigned a chunk id,
    so neither before nor after its release does it hold a matrix."""
    pool = EnginePool()
    tree = SparsifiedMSF(24, pool=pool)
    e = tree.insert_edge(0, 1, 1.0)
    tree.insert_edge(0, 2, 2.0)  # a second edge: shared nodes need engines
    leafward = [node for key, node in tree.nodes.items()
                if node.has_engine and key[0] > 0]
    assert leafward
    for node in leafward:
        space = node.engine.core.fabric.space
        assert space.C is None and space.row_views is None
    tree.delete_edge(e)  # one edge left: every non-root engine is pooled
    assert pool.size() == len(leafward)
    for _key, engine in pool.free_engines():
        space = engine.core.fabric.space
        assert space.C is None and space.inf_row is None
        assert engine.chains == {}


class _YieldingEngine:
    """Stand-in engine whose ``reset`` gives up the interpreter, so other
    threads run while a release is between its checks and its append."""

    def reset(self) -> None:
        time.sleep(0)


def test_pool_survives_concurrent_acquire_release():
    """One lock guards the free-list: under more threads than cores that
    churn engines through one bounded key, no engine is handed out twice,
    the bound holds and no acquisition is lost."""
    import sys
    import threading

    bound = 2
    pool = EnginePool(max_per_key=bound)
    key = (2, None, False, "scalar")
    guard = threading.Lock()
    in_use: set[int] = set()
    problems = []
    refused = [0]
    rounds, workers = 400, 6

    def churn_pool():
        try:
            for _ in range(rounds):
                engine = pool.acquire(key) or _YieldingEngine()
                with guard:
                    if id(engine) in in_use:
                        problems.append("engine handed out twice")
                    in_use.add(id(engine))
                with guard:
                    in_use.discard(id(engine))
                if not pool.release(key, engine):
                    with guard:
                        refused[0] += 1
                if pool.size() > bound:
                    problems.append(f"free-list over its bound: {pool.size()}")
        except Exception as exc:  # surfaced below
            problems.append(repr(exc))

    threads = [threading.Thread(target=churn_pool) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert problems == []
    assert pool.hits + pool.misses == rounds * workers
    assert pool.recycled + refused[0] == rounds * workers
    assert pool.size() <= bound


def test_pool_bound_drops_overflow():
    pool = EnginePool(max_per_key=1)
    a = SparsifiedMSF(8, pool=pool)
    b = SparsifiedMSF(8, pool=pool)
    a.insert_edge(0, 1, 1.0)
    b.insert_edge(0, 1, 1.0)
    a.release()
    b.release()
    for key, engines in pool._free.items():
        assert len(engines) <= 1


def test_facade_release_roundtrip():
    from repro import DynamicMSF
    m = DynamicMSF(12, sparsify=True)
    e = m.insert_edge(0, 1, 1.0)
    m.insert_edge(1, 2, 2.0)
    m.delete_edge(e)
    m.release()  # returns engines to the default pool; must not raise
    m2 = DynamicMSF(12, sparsify=True)
    m2.insert_edge(0, 1, 1.0)
    assert m2.connected(0, 1)
    m2.release()


# --------------------------------------------------------- node retirement


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
    n = 48
    for pool in (EnginePool(), None):
        tree = SparsifiedMSF(n, pool=pool)
        root_key = next(iter(tree.nodes))
        rng = random.Random(3)
        eids = [tree.insert_edge(u, v, rng.random())
                for u, v in (rng.sample(range(n), 2) for _ in range(60))]
        assert len(tree.nodes) > 1
        for e in eids:
            tree.delete_edge(e)
        # inserting then deleting every edge leaves only the root
        assert list(tree.nodes) == [root_key]
        assert tree.root.engine.edge_count() == 0
        # churn over many distinct pairs: every surviving node lies on the
        # path of a live edge
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
            assert len(tree.nodes) <= 1 + len(live) * (tree.max_level + 1)
        # the bound is far below what a grow-only tree would hold
        assert len(pairs) * 2 > 1 + 6 * (tree.max_level + 1)


def test_batch_retirement_leaves_only_the_root():
    """``apply_batch`` retires after the whole batch: a batch that empties
    the graph leaves only the root."""
    n = 32
    tree = SparsifiedMSF(n, pool=EnginePool())
    ops = [("ins", i + 1, i, (i * 7 + 3) % n, float(i)) for i in range(n)
           if i != (i * 7 + 3) % n]
    tree.apply_batch(ops)
    assert len(tree.nodes) > 1
    tree.apply_batch([("del", op[1]) for op in ops])
    assert list(tree.nodes) == [(0, (0, n), (0, n))]


def _churn_fingerprints(tree: SparsifiedMSF, ops):
    out = []
    for op in ops:
        if op[0] == "ins":
            _t, eid, u, v, w = op
            tree.insert_edge(u, v, w, eid=eid)
        else:
            tree.delete_edge(op[1])
        out.append((frozenset(tree.msf_ids()), tree.msf_weight(),
                    tuple(tree._last_levels),
                    tuple(sorted(tree.parallel_cost_of_last_update().items()))))
    return out


def test_retirement_is_pool_neutral_sequential():
    """Engines recycled mid-stream by retirement leave every observable
    equal to a tree that builds each node cold."""
    n = 40
    ops = _bounded_churn(21, n, 400, max_live=5)
    pool = EnginePool()
    pooled = SparsifiedMSF(n, pool=pool)
    bare = SparsifiedMSF(n, pool=None)
    assert _churn_fingerprints(pooled, ops) == _churn_fingerprints(bare, ops)
    assert pool.hits > 0 and pool.recycled > 0
    assert pooled.ops_by_node() == bare.ops_by_node()
    assert pooled.retired == bare.retired
    assert pooled.retired["ops"] > 0


def test_retirement_is_pool_neutral_parallel():
    n = 16
    ops = _bounded_churn(5, n, 60, max_live=3)
    pool = EnginePool()
    pooled = SparsifiedMSF(n, parallel=True, pool=pool)
    bare = SparsifiedMSF(n, parallel=True, pool=None)
    assert _churn_fingerprints(pooled, ops) == _churn_fingerprints(bare, ops)
    assert pool.hits > 0
    assert pooled.depth_work_by_node() == bare.depth_work_by_node()
    assert pooled.retired == bare.retired
    assert pooled.retired["depth"] > 0 and pooled.retired["work"] > 0
    assert pooled.erew_violations() == bare.erew_violations() == 0


def test_retired_nodes_keep_their_accounting():
    """Charges and EREW violations made on a node before it is retired
    still show up in the tree's totals afterwards."""
    from repro.resilience.soak import _charged_work

    tree = SparsifiedMSF(16, parallel=True, pool=None)
    keep = tree.insert_edge(8, 9, 2.0)
    e = tree.insert_edge(0, 1, 1.0)
    tree.insert_edge(0, 2, 3.0)  # a second edge: shared nodes need engines
    engines = {key: tree.nodes[key].engine for key in tree._path(0, 1)
               if key[0] > 0 and tree.nodes[key].has_engine}
    victim = max(engines)  # the deepest engine node on (0, 1)'s path
    engines[victim].core.machine.total.violations += 1
    assert tree.erew_violations() == 1
    before = _charged_work(tree)
    tree.delete_edge(e)
    # retired: the node went, or kept its one edge and gave up the engine
    gone = [key for key in engines if key not in tree.nodes
            or tree.nodes[key].engine is not engines[key]]
    assert victim in gone
    # nothing was pooled, so the dropped engines still hold their counters
    assert tree.retired["ops"] == sum(
        engines[k].core.ops.grand_total() for k in gone)
    assert tree.retired["work"] == sum(
        engines[k].core.machine.total.work for k in gone)
    assert tree.erew_violations() == 1
    assert _charged_work(tree) >= before
    assert _charged_work(tree) == (sum(tree.ops_by_node().values())
                                   + tree.retired["ops"])
    assert keep in tree.msf_ids()
