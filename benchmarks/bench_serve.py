#!/usr/bin/env python3
"""Serving-layer benchmark: read/write mix + query fast path (E9 add-on).

Two measurements, both on deterministic ``query_mix`` streams so every
engine replays the identical ops:

* **mix** -- the same interleaved read/update stream driven through
  (a) the plain sparsified facade (``DynamicMSF(sparsify=True)``: every
  ``connected`` walks the root engine, every ``msf_weight`` used to sum
  the forest), (b) ``BatchedMSF`` in strong mode and (c) in deferred
  mode.  Reads are differentially checked across engines while timing.
* **query-path** -- a prefilled graph, then a pure read burst: the
  engine-walk ``connected``/``msf_weight`` path versus the served read
  path (``BatchedMSF``'s uncharged per-epoch read view of the root
  engine's Euler lists), reported as a throughput ratio (the bar is
  >= 3x over the pre-change path).

Usage:
    python benchmarks/bench_serve.py                 # full profile
    python benchmarks/bench_serve.py --quick
    python benchmarks/bench_serve.py --read-ratio 0.9
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import BatchedMSF, DynamicMSF  # noqa: E402
from repro.workloads import OpStream, churn, query_mix  # noqa: E402

PROFILES = {
    "full": dict(n=256, steps=2000, prefill=240, queries=6000),
    "quick": dict(n=128, steps=500, prefill=120, queries=1500),
}


def _drive_timed(engine, ops) -> tuple[float, OpStream]:
    stream = OpStream(engine)
    t0 = time.perf_counter()
    for op in ops:
        stream.apply(op)
    return time.perf_counter() - t0, stream


def _lagged_oracle(n: int, ops, batch_size: int) -> list:
    """Expected read answers under deferred (bounded-staleness) reads:
    updates apply in blocks of ``batch_size``, reads see the last block."""
    eng = DynamicMSF(n, sparsify=True)
    eids: dict[int, int] = {}   # original op index -> engine eid
    results: list = []
    buffered: list = []         # (original index, op)
    for i, op in enumerate(ops):
        if op[0] in ("ins", "del"):
            buffered.append((i, op))
            if len(buffered) >= batch_size:
                for j, b in buffered:
                    if b[0] == "ins":
                        eids[j] = eng.insert_edge(b[1], b[2], b[3])
                    else:
                        eng.delete_edge(eids.pop(b[1]))
                buffered.clear()
        elif op[0] == "conn":
            results.append(eng.connected(op[1], op[2]))
        else:
            results.append(eng.msf_weight())
    return results


def _check_reads(name: str, got: list, want: list) -> None:
    assert len(got) == len(want), f"{name}: read count diverged"
    for g, w in zip(got, want):
        if isinstance(g, bool):
            assert g == w, f"{name}: connectivity diverged"
        else:
            assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9), \
                f"{name}: msf_weight diverged ({g} != {w})"


def bench_mix(n: int, steps: int, read_ratio: float, seed: int,
              batch_size: int = 64) -> dict:
    ops = list(query_mix(n, steps, read_ratio=read_ratio, seed=seed))
    rows: dict[str, tuple[float, OpStream]] = {}
    dt, base = _drive_timed(DynamicMSF(n, sparsify=True), ops)
    rows["facade-sparsified"] = (dt, base)
    dt, strong = _drive_timed(BatchedMSF(n, batch_size=batch_size), ops)
    rows["batched strong p=1"] = (dt, strong)
    dt, d1 = _drive_timed(
        BatchedMSF(n, batch_size=batch_size, consistency="deferred"), ops)
    rows["batched deferred p=1"] = (dt, d1)

    # differential gates while we're here: strong mode must agree with
    # the facade read-for-read; deferred mode with the lagged oracle.
    _check_reads("strong", strong.results, base.results)
    lagged = _lagged_oracle(n, ops, batch_size)
    _check_reads("deferred p=1", d1.results, lagged)
    d1.target.flush()
    assert ({e[:3] for e in d1.target.msf_edges()}
            == {e[:3] for e in strong.target.msf_edges()})

    print(f"\n== read/write mix  n={n} steps={steps} "
          f"read_ratio={read_ratio} batch={batch_size} ==")
    base_dt = rows["facade-sparsified"][0]
    out = {}
    for name, (dt, stream) in rows.items():
        ratio = base_dt / dt if dt else float("inf")
        stats = getattr(stream.target, "stats", None)
        note = (f"  ({stats['ops_cancelled']} ops cancelled)"
                if stats else "")
        out[name] = {"seconds": round(dt, 4),
                     "ops_per_s": round(len(ops) / dt, 1),
                     "speedup_vs_facade": round(ratio, 2)}
        print(f"  {name:<24} {len(ops) / dt:>10.1f} ops/s   "
              f"{ratio:5.2f}x vs facade-sparsified{note}")
    return out


def bench_query_path(n: int, prefill: int, queries: int, seed: int) -> dict:
    """Pure-read burst, three generations of the read path:

    * pre-change -- engine-walk ``connected`` + full-sum ``msf_weight``
      (what every query cost before this PR; the >= 3x acceptance bar
      compares against this),
    * engine walk -- same ``connected``, but the delta-maintained O(1)
      weight (this PR's incremental-weight satellite),
    * served -- ``BatchedMSF``'s read path: an uncharged per-epoch view
      of the root engine's Euler lists.

    Probes alternate connectivity and weight queries deterministically.
    """
    ops = list(churn(n, prefill, seed=seed))
    rng = random.Random(seed + 1)
    probes = [rng.sample(range(n), 2) for _ in range(queries)]

    naive = DynamicMSF(n, sparsify=True)
    served = BatchedMSF(n)
    stream_a, stream_b = OpStream(naive), OpStream(served)
    for op in ops:
        stream_a.apply(op)
        stream_b.apply(op)
    served.flush()
    recompute = naive._impl.msf_weight_recomputed  # the pre-change path

    def burst(conn, weight) -> tuple[float, list]:
        t0 = time.perf_counter()
        out = [conn(u, v) if i % 2 == 0 else weight()
               for i, (u, v) in enumerate(probes)]
        return time.perf_counter() - t0, out

    dt_pre, res_pre = burst(naive.connected, recompute)
    dt_walk, res_walk = burst(naive.connected, naive.msf_weight)
    dt_served, res_served = burst(served.connected, served.msf_weight)
    assert res_pre == res_walk or all(
        a == b if isinstance(a, bool) else math.isclose(a, b, rel_tol=1e-9)
        for a, b in zip(res_pre, res_walk))
    assert all(
        a == b if isinstance(a, bool) else math.isclose(a, b, rel_tol=1e-9)
        for a, b in zip(res_pre, res_served)), "served read path diverged"

    speedup = dt_pre / dt_served if dt_served else float("inf")
    ratio_walk = dt_walk / dt_served if dt_served else float("inf")
    print(f"\n== query path  n={n} prefill={prefill} queries={queries} ==")
    print(f"  pre-change (full-sum) {queries / dt_pre:>10.1f} q/s")
    print(f"  engine walk (O(1) w)  {queries / dt_walk:>10.1f} q/s")
    print(f"  served read path      {queries / dt_served:>10.1f} q/s   "
          f"{speedup:5.2f}x vs pre-change, {ratio_walk:4.2f}x vs walk")
    return {"pre_change_q_per_s": round(queries / dt_pre, 1),
            "engine_walk_q_per_s": round(queries / dt_walk, 1),
            "served_q_per_s": round(queries / dt_served, 1),
            "speedup": round(speedup, 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="scaled-down profile (CI smoke)")
    ap.add_argument("--read-ratio", type=float, default=0.8)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    prof = PROFILES["quick" if args.quick else "full"]
    mix = bench_mix(prof["n"], prof["steps"], args.read_ratio, args.seed)
    qp = bench_query_path(prof["n"], prof["prefill"], prof["queries"],
                          args.seed)

    ok = True
    b1 = mix["batched deferred p=1"]["speedup_vs_facade"]
    if b1 < 1.5:
        print(f"\nWARN: batched speedup {b1:.2f}x < 1.5x target")
        ok = False
    if qp["speedup"] < 3.0:
        print(f"\nWARN: query-path speedup {qp['speedup']:.2f}x < 3x target")
        ok = False
    if ok:
        print("\nOK: serving-layer speedup targets met "
              f"(batched {b1:.2f}x, query path {qp['speedup']:.2f}x)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
