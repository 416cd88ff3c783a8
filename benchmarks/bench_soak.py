#!/usr/bin/env python3
"""Fault-injection soak campaigns (experiment E11).

Runs seeded :func:`repro.resilience.soak.run_campaign` campaigns across
the engine configurations, aggregates the per-campaign JSON reports, and
exits nonzero if any campaign fails its end-to-end contract -- an
injected fault that is neither detected-and-recovered nor provably
masked, a wrong answer surviving recovery, a dirty final audit, or a
recovered state that is not bit-identical (by
:func:`repro.resilience.checks.state_fingerprint`) to a never-faulted
twin.

The CI job runs ``--quick --seed 0`` (~1 min) and uploads the JSON
report as an artifact; the full profile sweeps more seeds and larger
streams.

Usage:
    python benchmarks/bench_soak.py                    # full profile
    python benchmarks/bench_soak.py --quick --seed 0
    python benchmarks/bench_soak.py --out soak.json
    python benchmarks/bench_soak.py --engine parallel
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.resilience.soak import (run_campaign,  # noqa: E402
                                   run_crash_campaign)

#: engine kinds, each behind the sparsified front; parallel streams are
#: shorter (the lockstep simulator is the cost driver) but flip machines
#: to the ``fast`` audit tier so the pram.* sites are reachable.
CONFIGS = ["sequential", "parallel"]

PROFILES = {
    "full": dict(seeds=3, seq=dict(n=48, n_ops=320, n_faults=6),
                 par=dict(n=24, n_ops=160, n_faults=6),
                 mix=dict(n=48, n_ops=320, n_faults=6,
                          workload="worker_mix", shards=4,
                          cross_fraction=0.08),
                 dur=dict(n=48, n_ops=320, n_faults=6,
                          workload="restart_heavy", durability="wal",
                          snapshot_every=8),
                 crash=dict(n=48, n_ops=320, kills=4, snapshot_every=4)),
    "quick": dict(seeds=1, seq=dict(n=40, n_ops=240, n_faults=5),
                  par=dict(n=20, n_ops=100, n_faults=4),
                  mix=dict(n=40, n_ops=240, n_faults=5,
                           workload="worker_mix", shards=4,
                           cross_fraction=0.08),
                  dur=dict(n=40, n_ops=240, n_faults=5,
                           workload="restart_heavy", durability="wal",
                           snapshot_every=8),
                  crash=dict(n=40, n_ops=240, kills=3, snapshot_every=4)),
}


def _rows(prof: dict, engines) -> list[tuple[str, dict]]:
    """``(tag, run_campaign kwargs)`` per campaign row, in print order."""
    rows = [(engine, dict(engine=engine,
                          **prof["par" if engine == "parallel" else "seq"]))
            for engine in CONFIGS if engines is None or engine in engines]
    if engines is not None and "sequential" not in engines:
        return rows
    # the sharded serving profile (clustered ranges + cross-shard edges),
    # on the engine the cluster's workers run: sequential
    rows.append(("worker_mix/sparse",
                 dict(engine="sequential", **prof["mix"])))
    # the compiled backend adds the mirror-tearing ``compiled.kernel``
    # site; only runs when the native extension is built
    from repro.core import compiled as _compiled
    if _compiled.HAVE_COMPILED:
        rows.append(("compiled/sparse", dict(
            engine="sequential", backend="compiled", **prof["seq"])))
    else:
        print("  compiled/sparse       skipped: native extension not built")
    # the durable WAL profile (restart_heavy churn/burst stream with the
    # crash-shaped ``wal.*``/``snapshot.write`` sites armed), ending in a
    # full close -> restore -> fingerprint-identity gate
    rows.append(("restart_heavy/wal",
                 dict(engine="sequential", **prof["dur"])))
    return rows


def run_soak(profile: str, base_seed: int, *, engines=None) -> dict:
    prof = PROFILES[profile]
    campaigns = []
    t0 = time.perf_counter()
    for tag, kw in _rows(prof, engines):
        for s in range(prof["seeds"]):
            report = run_campaign(base_seed + s, **kw)
            campaigns.append(report)
            verdict = "ok" if report["ok"] else "FAIL"
            durable = report["final"].get("durable")
            restored = (f"restore_identical="
                        f"{durable.get('restore_fingerprint_match')} "
                        if durable is not None else "")
            print(f"  {tag:20s} seed={base_seed + s}: {verdict}  "
                  f"injected={report['n_injected']} "
                  f"detected={report['n_detected']} "
                  f"masked={report['n_masked']} "
                  f"wrong={report['wrong_answers']} "
                  f"{restored}sites={report['sites_hit']}")
    elapsed = time.perf_counter() - t0
    n_ok = sum(1 for c in campaigns if c["ok"])
    agg = {
        "profile": profile,
        "base_seed": base_seed,
        "campaigns": len(campaigns),
        "campaigns_ok": n_ok,
        "injected": sum(c["n_injected"] for c in campaigns),
        "detected": sum(c["n_detected"] for c in campaigns),
        "masked": sum(c["n_masked"] for c in campaigns),
        "wrong_answers": sum(c["wrong_answers"] for c in campaigns),
        "unexpected_rejections": sum(c["unexpected_rejections"]
                                     for c in campaigns),
        "sites_hit": sorted({s for c in campaigns for s in c["sites_hit"]}),
        "mean_recovery_work": (
            sum(c["recovery_work"]["mean"] for c in campaigns
                if c["recovery_work"]["events"]) /
            max(1, sum(1 for c in campaigns
                       if c["recovery_work"]["events"]))),
        "elapsed_s": round(elapsed, 2),
        "ok": n_ok == len(campaigns) and len(campaigns) > 0,
        "reports": campaigns,
    }
    return agg


def run_crash(profile: str, base_seed: int) -> dict:
    """Crash-restart campaigns (experiment E12): SIGKILL a child process
    mid-batch, restart it, recover from the WAL, and gate on
    oracle-equal forest plus bit-identical fingerprints -- per scalar
    and (when the native extension is built) compiled backend."""
    from repro.core import compiled as _compiled
    prof = PROFILES[profile]
    backends = ["scalar"] + (["compiled"] if _compiled.HAVE_COMPILED
                             else [])
    campaigns = []
    t0 = time.perf_counter()
    for backend in backends:
        for s in range(prof["seeds"]):
            report = run_crash_campaign(base_seed + s, backend=backend,
                                        **prof["crash"])
            campaigns.append(report)
            verdict = "ok" if report["ok"] else "FAIL"
            final = report["final"]
            print(f"  {'crash/' + backend:20s} seed={base_seed + s}: "
                  f"{verdict}  rounds={len(report['rounds'])} "
                  f"kills={report['kills_fired']} "
                  f"oracle={final['oracle_match']} "
                  f"restore={final['restore_fingerprint_match']} "
                  f"digest={final['child_digest_match']}")
    if not _compiled.HAVE_COMPILED:
        print("  crash/compiled        skipped: native extension not built")
    elapsed = time.perf_counter() - t0
    n_ok = sum(1 for c in campaigns if c["ok"])
    return {
        "profile": profile,
        "mode": "crash",
        "base_seed": base_seed,
        "campaigns": len(campaigns),
        "campaigns_ok": n_ok,
        "kills_fired": sum(c["kills_fired"] for c in campaigns),
        "rounds": sum(len(c["rounds"]) for c in campaigns),
        "backends": backends,
        "elapsed_s": round(elapsed, 2),
        "ok": n_ok == len(campaigns) and len(campaigns) > 0,
        "reports": campaigns,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized profile (~1 min)")
    ap.add_argument("--seed", type=int, default=0, help="base seed")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the aggregate JSON report here")
    ap.add_argument("--engine", choices=["sequential", "parallel"],
                    default=None, help="restrict to one engine kind")
    ap.add_argument("--crash", action="store_true",
                    help="run the crash-restart (SIGKILL + WAL recovery) "
                         "campaign instead of the fault-injection soak")
    args = ap.parse_args(argv)

    profile = "quick" if args.quick else "full"
    if args.crash:
        print(f"crash-restart profile={profile} base_seed={args.seed}")
        agg = run_crash(profile, args.seed)
        print(f"\ncampaigns: {agg['campaigns_ok']}/{agg['campaigns']} ok; "
              f"rounds={agg['rounds']} kills_fired={agg['kills_fired']} "
              f"backends={agg['backends']} ({agg['elapsed_s']}s)")
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(agg, indent=1, default=repr))
            print(f"report -> {args.out}")
        if not agg["ok"]:
            print("FAIL: a crash-restart round lost or corrupted state",
                  flush=True)
            return 1
        print("OK: every SIGKILL recovered to an oracle-equal, "
              "bit-identical forest")
        return 0
    print(f"soak profile={profile} base_seed={args.seed}")
    agg = run_soak(profile, args.seed,
                   engines={args.engine} if args.engine else None)
    print(f"\ncampaigns: {agg['campaigns_ok']}/{agg['campaigns']} ok; "
          f"injected={agg['injected']} detected={agg['detected']} "
          f"masked={agg['masked']} wrong_answers={agg['wrong_answers']} "
          f"mean_recovery_work={agg['mean_recovery_work']:.0f} "
          f"({agg['elapsed_s']}s)")
    print(f"sites hit: {agg['sites_hit']}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(agg, indent=1, default=repr))
        print(f"report -> {args.out}")
    if not agg["ok"]:
        print("FAIL: undetected corruption or unrecovered fault", flush=True)
        return 1
    print("OK: every fault detected-and-recovered or provably masked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
