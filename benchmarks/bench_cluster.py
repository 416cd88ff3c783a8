#!/usr/bin/env python3
"""Sharded serving cluster: bit-identity gate, recovery case, speedup.

Exercises :class:`repro.serve.ClusterMSF` (PR 6) end to end:

1. **Bit-identity gate** -- the same ``worker_mix`` stream replayed at
   pool sizes {1, 2, 4} (real worker processes) must produce final
   forests, read-result streams, ``msf_weight`` and state fingerprints
   bit-identical to the serial ``BatchedMSF`` path, and pass a full
   ``self_check`` -- on every round.  The smoke profile runs a second,
   dense ``worker_mix`` stream through the same gate: its cross-shard
   edges outnumber ``2n``, so at pools >= 2 the coordinator's merge tree
   must end the stream grown.
2. **Kill-a-worker recovery** -- one worker is SIGKILLed mid-campaign;
   the run must detect the death, clean up the stale claim, rebuild the
   shard from the coordination store's edge registry, verify the
   rebuild's fingerprint against a never-crashed twin, and finish with
   state bit-identical to an unkilled run.
3. **Speedup** -- wall-clock of pool {2, 4} vs pool 1 on the same
   stream (fastest of the rounds per pool), reported with the host's
   CPU count (on a single-core box the multiplier measures the work
   *reduction* of sharding -- two half-size engines do less total work
   than one full-size engine -- plus coordinator/worker overlap, not
   true parallelism).  The full profile gates it: the best pool >= 2
   must beat pool 1.

``--smoke`` is the CI profile (one round, speedup reported only); the
default profile measures the n=1024 serving configuration over three
rounds sampled by ``_common.rounds``.  The JSON report lands at ``--out``
(default ``cluster-report.json``) and is uploaded as a CI artifact.

Usage:
    python benchmarks/bench_cluster.py --smoke --out cluster-report.json
    python benchmarks/bench_cluster.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _common import rounds  # noqa: E402

from repro.resilience.checks import state_fingerprint  # noqa: E402
from repro.serve import BatchedMSF, ClusterMSF  # noqa: E402
from repro.workloads import drive, worker_mix  # noqa: E402

#: ``rounds`` samples every pool that many times; ``gate_speedup``
#: fails the run unless the best pool >= 2 beats pool 1 (too noisy to
#: gate at smoke sizes); ``dense`` overrides them for a stream of
#: mostly cross-shard edges that piles up past ``2n`` live edges
PROFILES = {
    "smoke": dict(n=256, steps=800, batch=128, read_ratio=0.3,
                  cross_fraction=0.05, kill_at=300, seed=17,
                  rounds=1, gate_speedup=False,
                  dense=dict(n=48, steps=260, batch=32, read_ratio=0.1,
                             cross_fraction=0.75, p_delete=0.15,
                             max_live=480)),
    "full": dict(n=1024, steps=2000, batch=256, read_ratio=0.2,
                 cross_fraction=0.05, kill_at=800, seed=17,
                 rounds=3, gate_speedup=True),
}

POOLS = (1, 2, 4)


def _ops(prof: dict) -> list:
    return list(worker_mix(prof["n"], prof["steps"], shards=4,
                           cross_fraction=prof["cross_fraction"],
                           read_ratio=prof["read_ratio"],
                           p_delete=prof.get("p_delete", 0.4),
                           max_live=prof.get("max_live"),
                           seed=prof["seed"]))


def _run_cluster(prof: dict, ops: list, pool: int, *, kill_at=None):
    """One timed cluster replay; returns (elapsed, stream, front)."""
    c = ClusterMSF(prof["n"], pool_size=pool, processes=True,
                   batch_size=prof["batch"], consistency="deferred")
    from repro.workloads import OpStream
    s = OpStream(c)
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if kill_at is not None and i == kill_at:
            c.kill_worker(1 if pool > 1 else 0)
        s.apply(op)
    c.flush()
    dt = time.perf_counter() - t0
    return dt, s, c


def identity_gate(prof: dict, ops: list) -> dict:
    """Pool {1,2,4} must be bit-identical to the serial path, every round;
    on the full profile the best pool >= 2 must also beat pool 1."""
    ref = BatchedMSF(prof["n"], sparsify=True,
                     batch_size=prof["batch"], consistency="deferred")
    sref = drive(ref, ops)
    ref.flush()
    fp_ref = state_fingerprint(ref)
    rows: dict[str, dict] = {}

    def arm(pool: int) -> float:
        dt, s, c = _run_cluster(prof, ops, pool)
        try:
            match = (s.results == sref.results
                     and c.msf_ids() == ref.msf_ids()
                     and c.msf_weight() == ref.msf_weight()
                     and state_fingerprint(c) == fp_ref)
            clean = not c.self_check("full")
            row = rows.setdefault(f"pool{pool}", {
                "runs": 0, "bit_identical": True, "self_check_clean": True})
            row["runs"] += 1
            row["bit_identical"] &= match
            row["self_check_clean"] &= clean
            row["boundary_ops"] = c._coord.stats["ops_boundary"]
            row["recoveries"] = c.stats["recoveries"]
            row["merge_grown"] = grown = not c._coord.merge.flat
            print(f"  pool={pool}: {dt:7.3f}s  {len(ops) / dt:8.1f} ops/s  "
                  f"identical={match} clean={clean} merge_grown={grown}")
        finally:
            c.close()
        return dt

    samples = rounds({f"pool{p}": (lambda p=p: arm(p)) for p in POOLS},
                     min_rounds=prof["rounds"], budget_s=0.0)
    for key, row in rows.items():
        row["seconds"] = round(min(r[key] for r in samples), 4)
        row["ops_per_s"] = round(len(ops) / row["seconds"], 1)
    base = rows["pool1"]["seconds"]
    speedups = {f"x{p}": round(base / rows[f'pool{p}']['seconds'], 3)
                for p in POOLS if p > 1}
    best = max(speedups.values())
    print(f"  speedup vs pool1: {speedups}  "
          f"(cpu_count={os.cpu_count()}, fastest of {len(samples)} "
          f"round(s))")
    ok = all(r["bit_identical"] and r["self_check_clean"]
             for r in rows.values())
    return {"pools": rows, "speedups": speedups, "best_speedup": best,
            "speedup_ok": best > 1.0 or not prof["gate_speedup"],
            "ok": ok}


def recovery_gate(prof: dict, ops: list) -> dict:
    """SIGKILL mid-campaign; final state must match an unkilled twin."""
    _dt, s_twin, twin = _run_cluster(prof, ops, 2)
    dt, s, crashed = _run_cluster(prof, ops, 2, kill_at=prof["kill_at"])
    try:
        store = crashed._coord.store
        row = {
            "seconds": round(dt, 4),
            "recoveries": crashed.stats["recoveries"],
            "stale_claim_cleanups":
                len(store.events("stale-claim-cleanup")),
            "shard_rebuilds": len(store.events("shard-rebuilt")),
            "replacement_generation":
                max(w.generation for w in crashed._coord.workers.values()),
            "reads_identical": s.results == s_twin.results,
            "fingerprint_identical":
                state_fingerprint(crashed) == state_fingerprint(twin),
            "weight_identical":
                crashed.msf_weight() == twin.msf_weight(),
            "self_check_clean": not crashed.self_check("full"),
        }
        row["ok"] = (row["recoveries"] >= 1
                     and row["stale_claim_cleanups"] >= 1
                     and row["shard_rebuilds"] >= 1
                     and row["reads_identical"]
                     and row["fingerprint_identical"]
                     and row["weight_identical"]
                     and row["self_check_clean"])
        print(f"  kill@{prof['kill_at']}: recoveries={row['recoveries']} "
              f"rebuilds={row['shard_rebuilds']} "
              f"identical={row['fingerprint_identical']} "
              f"clean={row['self_check_clean']}")
        return row
    finally:
        crashed.close()
        twin.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized profile (one round, speedup not gated)")
    ap.add_argument("--out", type=Path,
                    default=Path("cluster-report.json"),
                    help="JSON report path")
    args = ap.parse_args(argv)

    profile = "smoke" if args.smoke else "full"
    prof = PROFILES[profile]
    ops = _ops(prof)
    n_updates = sum(1 for op in ops if op[0] in ("ins", "del"))
    print(f"cluster profile={profile} n={prof['n']} ops={len(ops)} "
          f"(updates={n_updates}) pools={POOLS}")

    print("== bit-identity gate (vs serial BatchedMSF) ==")
    ident = identity_gate(prof, ops)
    dense_ident = None
    if "dense" in prof:
        dense = {**prof, **prof["dense"], "rounds": 1}
        dense_ops = _ops(dense)
        print(f"== bit-identity gate, dense cross-shard stream "
              f"n={dense['n']} ops={len(dense_ops)} ==")
        dense_ident = identity_gate(dense, dense_ops)
        dense_ident["ok"] &= all(row["merge_grown"] for pool, row in
                                 dense_ident["pools"].items()
                                 if pool != "pool1")
    print("== kill-a-worker recovery ==")
    recov = recovery_gate(prof, ops)

    report = {
        "schema": "bench-cluster/v2",
        "profile": profile,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": {**prof, "ops": len(ops), "updates": n_updates},
        "identity": ident,
        "identity_dense": dense_ident,
        "recovery": recov,
    }
    gates = [("identity", ident["ok"]), ("speedup", ident["speedup_ok"]),
             ("recovery", recov["ok"])]
    if dense_ident is not None:
        gates.append(("dense identity", dense_ident["ok"]))
    broken = [gate for gate, ok in gates if not ok]
    report["ok"] = not broken
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report -> {args.out}")
    if broken:
        print(f"FAIL: {', '.join(broken)} gate broken (best pool>=2 "
              f"speedup {ident['best_speedup']}x)")
        return 1
    print(f"OK: pools {POOLS} bit-identical, recovery verified, best "
          f"speedup {ident['best_speedup']}x on {os.cpu_count()} CPU(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
