"""E6 -- Section 5: sparsification makes per-update cost f(n), not f(m).

Fix n, sweep m from ~2n to ~n^1.7, and measure per-deletion elementary ops
on (a) the sparsification tree and (b) the plain degree-reduced engine
(whose structure is sized by n + 2m).  The sparsified cost must stay flat
in m while the unsparsified cost grows ~ sqrt(m); per-level instance sizes
follow n/2^i.
"""

from __future__ import annotations

import random

from _common import banner, render_table

from repro.analysis.fits import loglog_slope
from repro.core.degree import DegreeReducer
from repro.core.sparsify import SparsifiedMSF, _Leaf
from repro.workloads import dense_stream


def _total_ops(sp: SparsifiedMSF) -> int:
    """Ops charged by every node engine so far, retired ones included."""
    return sum(sp.ops_by_node().values()) + sp.retired["ops"]


def run_one(n: int, m: int, deletions: int, seed: int = 0):
    """Insert m edges; delete *current-MSF* edges (the expensive case whose
    cost sparsification decouples from m), measuring ops per deletion."""
    edges = dense_stream(n, m, seed=seed)
    rng = random.Random(seed + 1)
    sp = SparsifiedMSF(n)
    plain = DegreeReducer(n, max_edges=m + 8)
    id_pairs = {}  # shared eid -> present
    for u, v, w in edges:
        eid = sp.insert_edge(u, v, w)
        plain.insert_edge(u, v, w, eid=eid)
        id_pairs[eid] = True
    sp_cost = []
    pl_cost = []
    for _ in range(deletions):
        msf = sorted(sp.msf_ids())
        if not msf:
            break
        eid = rng.choice(msf)
        before = _total_ops(sp)
        sp.delete_edge(eid)
        sp_cost.append(_total_ops(sp) - before)
        plain.core.ops.mark()
        plain.delete_edge(eid)
        pl_cost.append(plain.core.ops.since_mark())
    return max(sp_cost), max(pl_cost)


def run_experiment(fast: bool = False) -> str:
    n = 32 if fast else 64
    ms = ([2 * n, 4 * n, 8 * n] if fast
          else [2 * n, 4 * n, 8 * n, 16 * n, 32 * n, 64 * n])
    rows = []
    sp_maxima, pl_maxima = [], []
    for m in ms:
        sp_max, pl_max = run_one(n, m, deletions=10 if fast else 25)
        rows.append([m, round(m / n, 1), sp_max, pl_max])
        sp_maxima.append(sp_max)
        pl_maxima.append(pl_max)
    table = render_table(
        ["m", "m/n", "sparsified del ops max", "plain del ops max"],
        rows, title=f"E6: MSF-edge deletion cost vs m at fixed n={n}")
    # The sparsified cost ramps while levels of the tree become populated
    # (at most log n levels) and then saturates at Theta(f(n)); judge the
    # claim on the saturated half of the sweep.
    half = len(ms) // 2
    sp_slope = loglog_slope(ms[half:], sp_maxima[half:])
    pl_slope = loglog_slope(ms, pl_maxima)
    sp_full = loglog_slope(ms, sp_maxima)
    verdict = (f"cost-vs-m log-log slopes: sparsified {sp_slope:.2f} on the "
               f"saturated half ({sp_full:.2f} full sweep incl. level "
               f"ramp-up; claim ~0: f(n) only), plain {pl_slope:.2f} "
               f"(grows with m) -> "
               f"{'CONSISTENT' if sp_slope < 0.15 else 'INCONSISTENT'}")
    # per-level instance sizes
    sp = SparsifiedMSF(n)
    for u, v, w in dense_stream(n, 8 * n, seed=2):
        sp.insert_edge(u, v, w)
    lvl_rows = {}
    for (level, ra, rb), node in sp.nodes.items():
        if not isinstance(node, _Leaf):
            size = (ra[1] - ra[0]) + (0 if ra == rb else rb[1] - rb[0])
            cur = lvl_rows.setdefault(level, [level, 0, 0, 0])
            cur[1] += 1
            cur[2] += node.has_engine
            cur[3] = max(cur[3], size)
    t2 = render_table(["level", "materialized nodes", "with an engine",
                       "max local vertices"],
                      [lvl_rows[k] for k in sorted(lvl_rows)],
                      title="E6: sparsification-tree shape "
                            "(local size halves per level, Sec. 5.1)")
    return banner("E6 sparsification", table + "\n" + verdict + "\n\n" + t2)


def test_e6_benchmark(benchmark):
    res = benchmark.pedantic(run_one, args=(32, 128, 8), iterations=1,
                             rounds=2)
    benchmark.extra_info["sp_max, plain_max"] = res


def test_e6_flat_in_m_once_saturated():
    sp_mid, _ = run_one(32, 256, 10)
    sp_big, _ = run_one(32, 1024, 10)
    assert sp_big < 1.6 * sp_mid, (sp_mid, sp_big)


if __name__ == "__main__":
    print(run_experiment())
