"""Kernel-level tests: each PRAM kernel reproduces its sequential twin."""

from __future__ import annotations

import math
import random

import pytest

np = pytest.importorskip(
    "numpy", reason="kernel twins compare against real-numpy reductions",
    exc_type=ImportError)

from repro.core.model import INF_KEY
from repro.core.par import kernels as kn
from repro.core.par.engine import ParallelDynamicMSF
from repro.core.seq_msf import SparseDynamicMSF
from repro.pram.machine import Machine


def build_par_engine(n=64, K=8, edges=None):
    eng = ParallelDynamicMSF(n, K=K)
    if edges is None:
        edges = [(i, i + 1, 0.1 * i) for i in range(n - 1)]
    for k, (u, v, w) in enumerate(edges):
        eng.insert_edge(u, v, w, eid=40_000 + k)
    return eng


def test_get_edge_assignments_cover_every_endpoint():
    eng = build_par_engine(48)
    machine = eng.machine
    for lst in eng.fabric.registry.long_lists:
        for chunk in lst.chunks():
            assign, stats = kn.get_edge_assignments(machine, chunk)
            assert stats.violations == 0
            assert len(assign) == chunk.n_edges
            # the multiset of (occurrence, slot) pairs equals the direct
            # enumeration in chunk order
            direct = []
            for occ in chunk.occurrences():
                if occ.is_principal:
                    for slot in range(occ.vertex.degree()):
                        direct.append((occ, slot))
            assert assign == direct


def test_get_edge_depth_logarithmic_in_K():
    eng_small = build_par_engine(40, K=8)
    eng_big = build_par_engine(160, K=32)
    def max_depth(eng):
        worst = 0
        for lst in eng.fabric.registry.long_lists:
            for chunk in lst.chunks():
                if chunk.n_edges:
                    _a, s = kn.get_edge_assignments(eng.machine, chunk)
                    worst = max(worst, s.depth)
        return worst
    d1, d2 = max_depth(eng_small), max_depth(eng_big)
    assert d2 <= d1 + 8 * math.ceil(math.log2(4)) + 16


def test_rebuild_row_kernel_matches_sequential_scan():
    """Kernel row rebuild == the sequential O(K)-scan rebuild."""
    eng = build_par_engine(64)
    space = eng.fabric.space
    for lst in eng.fabric.registry.long_lists:
        for chunk in lst.chunks():
            row_before = space.C[chunk.id].copy()
            # recompute with the kernel
            kn.rebuild_row_kernel(eng.machine, space, chunk)
            row_kernel = space.C[chunk.id].copy()
            # recompute with the sequential scan (super's implementation)
            from repro.core.chunks import ChunkSpace
            ChunkSpace.rebuild_row(space, chunk)
            row_seq = space.C[chunk.id].copy()
            assert (row_kernel == row_seq).all()
            assert (row_before == row_seq).all()


def test_entry_pair_kernel_matches_sequential():
    eng = build_par_engine(64)
    space = eng.fabric.space
    lst = next(iter(eng.fabric.registry.long_lists))
    chunks = list(lst.chunks())
    a, b = chunks[0], chunks[-1]
    kn.entry_pair_kernel(eng.machine, space, a, b)
    got = space.C[a.id, b.id]
    from repro.core.chunks import ChunkSpace
    ChunkSpace.entry_recompute_pair(space, a, b)
    assert space.C[a.id, b.id] == got


def test_path_refresh_kernel_matches_host_pull():
    eng = build_par_engine(96, K=8)
    space = eng.fabric.space
    lst = next(iter(eng.fabric.registry.long_lists))
    leaf = lst.first_chunk().leaf
    # corrupt every internal aggregate, then refresh via the kernel
    node = leaf.parent
    while node is not None:
        node.agg[0].fill((-9.0, 9))
        node.agg[1].fill(True)
        node = node.parent
    stats = kn.path_refresh_kernel(eng.machine, space, leaf)
    assert stats.violations == 0
    # compare against a full host recompute
    from repro.core.lsds import make_pull
    pull = make_pull(space)
    node = leaf.parent
    while node is not None:
        got_c = node.agg[0].copy()
        got_m = node.agg[1].copy()
        pull(node)
        assert (node.agg[0] == got_c).all()
        assert (node.agg[1] == got_m).all()
        node = node.parent


# ---------------------------------------------------------------------------
# path_refresh under audit="fast": composed plans equal the strict launch
# ---------------------------------------------------------------------------

_J = 6
#: kid count of every node on the refreshed path, bottom-up; the second
#: node is a transient single-kid (rebalancing) node
_PATH_KIDS = (3, 1, 2, 3)


class _Chunk:
    def __init__(self, cid):
        self.id = cid
        self.memb_row = np.zeros(_J, dtype=bool)
        self.memb_row[cid] = True


class _Space:
    """The two fields path_refresh reads: ``Jcap`` and ``row_views``."""

    def __init__(self, rng):
        self.Jcap = _J
        self.row_views = []
        for _ in range(_J):
            row = np.empty(_J, dtype=object)
            for j in range(_J):
                row[j] = INF_KEY if rng.random() < 0.3 else \
                    (round(rng.uniform(0, 9), 3), rng.randrange(1000))
            self.row_views.append(row)


def _agg(rng, garbage=False):
    cadj = np.empty(_J, dtype=object)
    memb = np.zeros(_J, dtype=bool)
    for j in range(_J):
        cadj[j] = (-9.0, 9) if garbage else \
            (round(rng.uniform(0, 9), 3), rng.randrange(1000))
        memb[j] = garbage or rng.random() < 0.4
    return [cadj, memb]


def _refresh_fixture(kids_along_path=_PATH_KIDS, seed=11):
    """A hand-built 2-3 forest whose leaf-to-root path has the given kid
    counts; off-path kids are leaves (chunks) or internal nodes with
    random aggregates, path aggregates start as garbage."""
    from repro.structures import two_three_tree as tt
    rng = random.Random(seed)
    space = _Space(rng)
    cids = iter(range(10 * _J))

    def leaf():
        node = tt.Node(item=_Chunk(next(cids) % _J), height=0)
        return node

    def off_path(height):
        if height == 0:
            return leaf()
        node = tt.Node(height=height)
        node.agg = _agg(rng)
        return node

    start = leaf()
    below, path = start, []
    for h, count in enumerate(kids_along_path, start=1):
        node = tt.Node(height=h)
        node.agg = _agg(rng, garbage=True)
        kids = [off_path(h - 1) for _ in range(count)]
        kids[rng.randrange(count)] = below
        for pos, kid in enumerate(kids):
            kid.parent, kid.pos = node, pos
        node.kids = kids
        path.append(node)
        below = node
    return space, start, path


def _strict_refresh(kids_along_path=_PATH_KIDS):
    """Strict launch: stats, written aggregates and the per-step packed
    (live, reads, writes) counts read off the machine's trace hook."""
    from repro.pram.machine import Read, Write
    machine = Machine(audit="strict")
    steps = {}

    def trace(step, _pid, op):
        live, nr, nw = steps.get(step, (0, 0, 0))
        steps[step] = (live + 1, nr + isinstance(op, Read),
                       nw + isinstance(op, Write))

    machine._trace = trace
    space, start, path = _refresh_fixture(kids_along_path)
    stats = kn.path_refresh_kernel(machine, space, start)
    fingerprint = tuple((live << 42) | (nr << 21) | nw
                        for live, nr, nw in (steps[k] for k in sorted(steps)))
    return stats, _written(path), fingerprint


def _written(path):
    return [(list(nd.agg[0]), [bool(x) for x in nd.agg[1]]) for nd in path]


def _fast_refresh(machine, kids_along_path=_PATH_KIDS):
    space, start, path = _refresh_fixture(kids_along_path)
    stats = kn.path_refresh_kernel(machine, space, start)
    plan = machine.peek_plan(("path_refresh", _J, tuple(kids_along_path)))
    return stats, _written(path), plan.fingerprint


def _as_tuple(stats):
    return (stats.depth, stats.work, stats.processors, stats.launches,
            stats.violations)


def _assert_fast_matches_strict(prime=()):
    """Every route of a fast launch -- composed cold, composed from known
    segments, whole-path replay -- equals the strict launch."""
    s_stats, s_aggs, s_fp = _strict_refresh()
    machine = Machine(audit="fast")
    for kids in prime:
        _fast_refresh(machine, kids)
    simulated = []
    run_checked = machine._run_checked
    machine._run_checked = lambda *a, **k: (simulated.append(1),
                                            run_checked(*a, **k))[1]
    for _route in ("composed", "replayed"):
        stats, aggs, fp = _fast_refresh(machine)
        assert _as_tuple(stats) == _as_tuple(s_stats)
        assert aggs == s_aggs
        assert fp == s_fp
    # one simulated segment per unseen kid count, and never a whole path
    assert len(simulated) == len({1, 2, 3} - {k for p in prime for k in p})
    return machine


def test_path_refresh_composed_plan_matches_strict_launch():
    # cold: the unseen kid counts 3, 1, 2 are simulated, the last 3 is a
    # host apply; then the path's own plan replays
    _assert_fast_matches_strict()
    # warm segments: every node is a host apply, nothing is simulated
    machine = _assert_fast_matches_strict(prime=[(1, 2, 3)])
    assert machine.fast_misses == 2 and machine.fast_hits == 1


def test_path_refresh_segment_key_without_kid_count_is_caught(monkeypatch):
    """Mutant: a segment shape keyed without ``len(kids)`` reuses the
    3-kid segment for the 1- and 2-kid nodes and mis-charges the path."""
    monkeypatch.setattr(kn, "_segment_key",
                        lambda J, node: ("path_refresh_node", J))
    with pytest.raises(AssertionError):
        _assert_fast_matches_strict()


def test_column_sweep_kernel_matches_sequential_sweep():
    eng = build_par_engine(96, K=8)
    space = eng.fabric.space
    registry = eng.fabric.registry
    lst = next(iter(registry.long_lists))
    j = lst.first_chunk().id
    # corrupt column j everywhere, sweep, verify against sequential sweep
    for l2 in registry.long_lists:
        for node in _internal_nodes(l2.root):
            node.agg[0][j] = (-7.0, 7)
            node.agg[1][j] = True
    roots = [l2.root for l2 in registry.long_lists]
    stats = kn.column_sweep_kernel(eng.machine, space, roots, j)
    assert stats.violations == 0
    from repro.core.lsds import ListRegistry
    got = {id(n): (n.agg[0][j], bool(n.agg[1][j]))
           for l2 in registry.long_lists for n in _internal_nodes(l2.root)}
    ListRegistry.refresh_column(registry, j)
    for l2 in registry.long_lists:
        for n in _internal_nodes(l2.root):
            assert got[id(n)] == (n.agg[0][j], bool(n.agg[1][j]))


def _internal_nodes(root):
    from repro.structures import two_three_tree as tt
    return [n for n in tt.iter_nodes(root) if not n.is_leaf]


def test_gamma_argmin_kernel_matches_numpy():
    machine = Machine()
    rng = random.Random(3)
    Jcap = 37

    class FakeSpace:
        pass

    space = FakeSpace()
    space.Jcap = Jcap
    cadj = np.empty(Jcap, dtype=object)
    cadj.fill(INF_KEY)
    memb = np.zeros(Jcap, dtype=bool)
    for j in rng.sample(range(Jcap), 20):
        cadj[j] = (rng.random(), j)
    for j in rng.sample(range(Jcap), 18):
        memb[j] = True
    winner, stats = kn.gamma_argmin_kernel(machine, space, cadj, memb)
    assert stats.violations == 0
    masked = [(cadj[j], j) for j in range(Jcap)
              if memb[j] and cadj[j] != INF_KEY]
    if masked:
        exp_key, exp_j = min(masked)
        assert winner == (exp_key, exp_j)
    else:
        assert winner is None


def test_gamma_argmin_all_masked_returns_none():
    machine = Machine()

    class FakeSpace:
        Jcap = 8

    cadj = np.empty(8, dtype=object)
    cadj.fill(INF_KEY)
    cadj[2] = (1.0, 2)
    memb = np.zeros(8, dtype=bool)  # nothing in L2
    winner, _ = kn.gamma_argmin_kernel(machine, FakeSpace(), cadj, memb)
    assert winner is None


def test_parallel_mwr_equals_sequential_mwr():
    """Drive identical streams; the chosen replacements coincide, which
    pins the gamma/verify kernels to Lemma 2.4's sequential algorithm."""
    rng = random.Random(5)
    n = 24
    par = ParallelDynamicMSF(n, K=8)
    seq = SparseDynamicMSF(n, K=8)
    hp, hs = {}, {}
    for step in range(120):
        if hp and rng.random() < 0.5:
            k = rng.choice(list(hp))
            rp = par.delete_edge(hp.pop(k))
            rs = seq.delete_edge(hs.pop(k))
            assert (rp.eid if rp else None) == (rs.eid if rs else None)
        else:
            for _ in range(40):
                u, v = rng.sample(range(n), 2)
                if par.degree(u) < 3 and par.degree(v) < 3:
                    break
            else:
                continue
            w = round(rng.uniform(0, 9), 6)
            hp[step] = par.insert_edge(u, v, w, eid=70_000 + step)
            hs[step] = seq.insert_edge(u, v, w, eid=70_000 + step)
    assert par.machine.total.violations == 0
