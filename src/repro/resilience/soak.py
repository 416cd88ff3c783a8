"""Seeded fault-injection soak campaigns (experiment E11).

A campaign deterministically interleaves a serving workload with a
scheduled :class:`~repro.resilience.faults.FaultPlan` and checks the
resilience layer's end-to-end contract:

* every injected fault is **detected** (engine exception, wrong answer
  against the Kruskal oracle, or a tiered ``self_check`` finding) and
  **recovered** (the ladder in :mod:`repro.resilience.recover`), or it
  is **provably masked** -- the final full-tier audit is clean, the
  final forest matches the oracle edge-for-edge, and the recovered
  structure's :func:`~repro.resilience.checks.state_fingerprint` is
  bit-identical to a never-faulted twin replaying the same op stream;
* **zero wrong answers** survive recovery: any read that disagreed with
  the oracle must agree after the recovery that it triggered;
* recovery work is *charged* through the normal counters -- the report
  includes the mean per-recovery charged work so the cost of the ladder
  is a measured quantity, not a hand-wave.

Everything derives from the campaign seed: the op stream, the fault
schedule, and the check cadence -- replaying a seed reproduces the run
bit-for-bit (a batch's plans always run serially, in submission order,
so scheduling cannot perturb the comparison).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Optional

from ..reference.oracle import KruskalOracle
from ..serve.batched import BatchedMSF
from . import checks, faults, recover
from .errors import CorruptionError, QuarantineExhausted, WALCorruptionError

__all__ = ["SITES_BY_CONFIG", "DURABLE_SITES", "generate_ops",
           "run_campaign", "run_crash_campaign", "worker_mix_ops",
           "restart_heavy_ops"]

#: injection sites reachable per engine kind (scheduling a fault on an
#: unreachable site would just report "unreached")
SITES_BY_CONFIG = {
    "sequential": ["tt.agg", "serve.batch", "sparsify.weight"],
    "parallel": ["pram.cell", "pram.plan", "tt.agg", "serve.batch",
                 "sparsify.weight"],
}

#: crash-shaped sites reachable only when the front runs durability="wal"
DURABLE_SITES = ["wal.append", "wal.fsync", "snapshot.write"]


# ---------------------------------------------------------------- stream

def generate_ops(seed: int, n: int, n_ops: int) -> list[tuple]:
    """The deterministic op stream both the faulted run and its clean
    twin replay.  Edge ids are predicted (the front assigns them from a
    per-instance counter, so prediction is exact)."""
    rng = random.Random(seed ^ 0x5F5E1)
    ops: list[tuple] = []
    next_eid = 1
    live: list[int] = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.48 or not live:
            u = rng.randrange(n)
            v = rng.randrange(n)
            w = round(rng.uniform(0.0, 100.0), 3)
            ops.append(("ins", u, v, w))
            live.append(next_eid)
            next_eid += 1
        elif r < 0.72:
            eid = live.pop(rng.randrange(len(live)))
            ops.append(("del", eid))
        elif r < 0.90:
            ops.append(("q", rng.randrange(n), rng.randrange(n)))
        else:
            ops.append(("w",))
    return ops


def worker_mix_ops(seed: int, n: int, n_ops: int, *, shards: int = 4,
                   cross_fraction: float = 0.05) -> list[tuple]:
    """The sharded serving workload (:func:`repro.workloads.worker_mix`)
    translated into the campaign op vocabulary with predicted edge ids.

    Deletions in the source stream reference the *op index* of the
    insert; the front assigns eids from a per-instance counter, so the
    translation is exact -- the same prediction contract
    :func:`generate_ops` relies on.
    """
    from ..workloads import worker_mix
    out: list[tuple] = []
    next_eid = 1
    eid_of: dict[int, int] = {}   # workload op index -> predicted eid
    stream = worker_mix(n, n_ops, shards=shards,
                        cross_fraction=cross_fraction,
                        seed=seed ^ 0x5F5E1)
    for idx, op in enumerate(stream):
        if op[0] == "ins":
            out.append(op)
            eid_of[idx] = next_eid
            next_eid += 1
        elif op[0] == "del":
            out.append(("del", eid_of.pop(op[1])))
        elif op[0] == "conn":
            out.append(("q", op[1], op[2]))
        else:  # ("weight",)
            out.append(("w",))
    return out


def restart_heavy_ops(seed: int, n: int, n_ops: int, *, burst: int = 24,
                      churn: int = 16) -> list[tuple]:
    """The durability-stressing workload (:func:`repro.workloads.
    restart_heavy`) translated into the campaign op vocabulary with
    predicted edge ids -- the same prediction contract as
    :func:`worker_mix_ops`."""
    from ..workloads import restart_heavy
    out: list[tuple] = []
    next_eid = 1
    eid_of: dict[int, int] = {}   # workload op index -> predicted eid
    stream = restart_heavy(n, n_ops, burst=burst, churn=churn,
                           seed=seed ^ 0x5F5E1)
    for idx, op in enumerate(stream):
        if op[0] == "ins":
            out.append(op)
            eid_of[idx] = next_eid
            next_eid += 1
        elif op[0] == "del":
            out.append(("del", eid_of.pop(op[1])))
        elif op[0] == "conn":
            out.append(("q", op[1], op[2]))
        else:  # ("weight",)
            out.append(("w",))
    return out


# ------------------------------------------------------------- recovery

def _set_fast_audit(impl) -> None:
    """Put every reachable machine on the ``fast`` tier.

    The ``pram.plan`` site lives inside the trace-replay tier, which only
    engages under ``audit="fast"`` -- facade-built machines default to
    ``strict``, so a campaign that schedules that site must flip the
    tier.  Called every iteration because the tree creates node engines
    lazily and a backend rebuild replaces the machines wholesale;
    the call is a cheap no-op once a machine is already fast."""
    for _key, machine in impl.machines():
        if machine.audit != "fast":
            machine.set_audit("fast")


def _charged_work(impl) -> int:
    """Total elementary work charged to the backend's own counters,
    including the counters of node engines the tree has retired."""
    return sum(impl.ops_by_node().values()) + impl.retired["ops"]


def _recover_from_findings(front, findings) -> list[str]:
    """Route findings to the cheapest applicable rung of the ladder."""
    rungs: list[str] = []
    components = {f.component for f in findings}
    if "machine" in components:
        for _key, machine in front._impl.machines():
            recover.recover_machine(machine, degrade=False)
        rungs.append("machine-cache-purge")
    if "durability" in components:
        recover.repair_wal(front)
        rungs.append("wal-repair")
    if components - {"machine", "durability"}:
        recover.rebuild_backend(front, level="cheap")
        rungs.append("backend-rebuild")
    return rungs


# ------------------------------------------------------------- campaign

def run_campaign(seed: int, *, engine: str = "sequential", n: int = 48,
                 n_ops: int = 320, n_faults: int = 6, batch_size: int = 16,
                 check_every: int = 16,
                 sites: Optional[list[str]] = None,
                 horizon: Optional[int] = None,
                 workload: str = "default", shards: int = 4,
                 cross_fraction: float = 0.05,
                 backend: str = "scalar",
                 durability: str = "off",
                 durable_dir: Optional[str] = None,
                 snapshot_every: int = 8) -> dict:
    """One seeded soak campaign; returns the JSON-able report.

    ``workload`` selects the op stream: ``"default"`` is the classic
    uniform churn/read mix of :func:`generate_ops`; ``"worker_mix"`` is
    the sharded serving profile (clustered vertex ranges, ``shards`` /
    ``cross_fraction`` knobs) via :func:`worker_mix_ops`;
    ``"restart_heavy"`` is the bursty checkpoint-then-churn durability
    profile via :func:`restart_heavy_ops`.  ``backend`` selects the
    engine kernels; ``"compiled"`` adds the mirror-tearing
    ``compiled.kernel`` site to the default schedule (detected by the
    structural tier's mirror-vs-object cross-validation).

    ``durability="wal"`` runs the front with the write-ahead log and
    snapshots attached (under ``durable_dir``, or a private temporary
    directory), adds the crash-shaped :data:`DURABLE_SITES` to the
    default schedule, and extends the final verification with a
    restore-from-disk whose fingerprint must match the never-faulted
    twin bit-for-bit.
    """
    if durability not in ("off", "wal"):
        raise ValueError(f"durability must be 'off' or 'wal', "
                         f"got {durability!r}")
    if sites is None:
        sites = list(SITES_BY_CONFIG[engine])
        if backend == "compiled":
            sites.append("compiled.kernel")
        if durability == "wal":
            sites.extend(DURABLE_SITES)
    else:
        sites = list(sites)
    if workload == "worker_mix":
        ops = worker_mix_ops(seed, n, n_ops, shards=shards,
                             cross_fraction=cross_fraction)
    elif workload == "restart_heavy":
        ops = restart_heavy_ops(seed, n, n_ops)
    elif workload == "default":
        ops = generate_ops(seed, n, n_ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan = faults.FaultPlan.scheduled(
        seed, sites=sites, n_faults=n_faults,
        horizon=horizon if horizon is not None else max(50, n_ops // 2),
        label=f"{engine}/seed={seed}")

    temp_dir = None
    if durability == "wal" and durable_dir is None:
        durable_dir = temp_dir = tempfile.mkdtemp(prefix="repro-soak-wal-")
    front = BatchedMSF(n, engine=engine, batch_size=batch_size,
                       pool_size=1, backend=backend,
                       durability=durability, durable_dir=durable_dir,
                       snapshot_every=snapshot_every)
    oracle = KruskalOracle()
    detections: list[dict] = []
    recovery_costs: list[int] = []
    wrong_answers = 0
    unexpected_rejections = 0
    next_eid = 1

    def note_recovery(channel: str, op_index: int, detail: str,
                      rungs: list[str]) -> None:
        detections.append({"op": op_index, "channel": channel,
                           "detail": detail, "rungs": rungs})
        recovery_costs.append(_charged_work(front._impl))

    fast_tier = engine == "parallel"
    faults.arm(plan)
    try:
        for i, op in enumerate(ops):
            if fast_tier:
                _set_fast_audit(front._impl)
            if durability == "wal":
                front.durability.cursor = i    # source-stream resume point
            recoveries_before = front.stats["recoveries"]
            try:
                if op[0] == "ins":
                    _t, u, v, w = op
                    eid = front.insert_edge(u, v, w)
                    assert eid == next_eid  # prediction contract
                    oracle.insert(u, v, w, eid)
                    next_eid += 1
                elif op[0] == "del":
                    front.delete_edge(op[1])
                    oracle.delete(op[1])
                elif op[0] == "q":
                    got = front.connected(op[1], op[2])
                    want = oracle.connected(op[1], op[2])
                    if got != want:
                        rungs = _recover_from_findings(front, [
                            checks.Finding("serve", "answer mismatch",
                                           "cheap")])
                        note_recovery("answer", i,
                                      f"connected({op[1]}, {op[2]}) = "
                                      f"{got}, oracle says {want}", rungs)
                        if front.connected(op[1], op[2]) != want:
                            wrong_answers += 1
                elif op[0] == "w":
                    got_w = front.msf_weight()
                    want_w = oracle.msf_weight()
                    if not checks._weights_agree(got_w, want_w):
                        rungs = _recover_from_findings(front, [
                            checks.Finding("serve", "weight mismatch",
                                           "cheap")])
                        note_recovery("answer", i,
                                      f"msf_weight {got_w!r} vs oracle "
                                      f"{want_w!r}", rungs)
                        if not checks._weights_agree(
                                front.msf_weight(), oracle.msf_weight()):
                            wrong_answers += 1
            except WALCorruptionError as exc:
                # structured durable-log failure (e.g. a lost tail caught
                # by the next append's contiguity check): rung 5.  The
                # engine apply succeeded -- only the durable append failed
                # -- so op ``i`` committed in the front; finish its
                # bookkeeping to keep the oracle and the eid prediction in
                # lockstep.
                recover.repair_wal(front)
                if op[0] == "ins":
                    oracle.insert(op[1], op[2], op[3], next_eid)
                    next_eid += 1
                elif op[0] == "del":
                    oracle.delete(op[1])
                note_recovery("exception", i, str(exc), ["wal-repair"])
            except CorruptionError as exc:
                # flush-internal detection; recover_batch already ran
                if getattr(exc, "rejected", None):
                    unexpected_rejections += len(exc.rejected)
                note_recovery("exception", i, str(exc), ["batch-bisect"])
            if front.stats["recoveries"] > recoveries_before \
                    and (not detections or detections[-1]["op"] != i):
                # silent in-flush recovery (no error escaped to us)
                note_recovery("exception", i, "in-flush batch recovery",
                              ["batch-bisect"])
            if check_every and (i + 1) % check_every == 0:
                level = ("structural"
                         if (i + 1) % (4 * check_every) == 0 else "cheap")
                findings = front.self_check(level)
                if findings:
                    rungs = _recover_from_findings(front, findings)
                    note_recovery("check", i,
                                  "; ".join(str(f) for f in findings[:4]),
                                  rungs)
                    still = front.self_check(level)
                    if still:
                        raise QuarantineExhausted(
                            f"findings survive recovery: "
                            f"{[str(f) for f in still[:3]]}", attempts=1)
    finally:
        faults.disarm()

    # ---- final verification (disarmed) ---------------------------------
    front.flush()
    final_findings = front.self_check("full")
    if final_findings:
        rungs = _recover_from_findings(front, final_findings)
        note_recovery("check", len(ops),
                      "; ".join(str(f) for f in final_findings[:4]), rungs)
        final_findings = front.self_check("full")
    msf_match = front.msf_ids() == oracle.msf_ids()
    weight_match = checks._weights_agree(front.msf_weight(),
                                         oracle.msf_weight())

    # clean twin: identical op stream, never armed
    twin = BatchedMSF(n, engine=engine, batch_size=batch_size,
                      pool_size=1, backend=backend)
    for op in ops:
        if op[0] == "ins":
            twin.insert_edge(op[1], op[2], op[3])
        elif op[0] == "del":
            twin.delete_edge(op[1])
        elif op[0] == "q":
            twin.connected(op[1], op[2])
        elif op[0] == "w":
            twin.msf_weight()
    twin.flush()
    twin_match = (checks.state_fingerprint(front)
                  == checks.state_fingerprint(twin))

    # durable tail: a restore from the on-disk artifacts must reproduce
    # the twin bit-for-bit (the crash-recovery contract, checked even
    # when no crash happened)
    durable_report = None
    restore_match = True
    if durability == "wal":
        from ..persist import restore
        front.close()
        try:
            restored, r_report = restore(durable_dir, level="cheap")
            try:
                restore_match = (checks.state_fingerprint(restored)
                                 == checks.state_fingerprint(twin))
            finally:
                restored.close()
            durable_report = {
                "wal": r_report["wal"],
                "snapshot": r_report["snapshot"],
                "snapshots_skipped": r_report["snapshots_skipped"],
                "replayed_batches": r_report["replayed_batches"],
                "findings": r_report["findings"],
                "restore_fingerprint_match": restore_match,
            }
            restore_match = restore_match and not r_report["findings"]
        finally:
            if temp_dir is not None:
                shutil.rmtree(temp_dir, ignore_errors=True)

    injected = plan.injected()
    n_detected = len(detections)
    masked = max(0, len(injected) - n_detected)
    ok = (not final_findings and msf_match and weight_match and twin_match
          and restore_match
          and wrong_answers == 0 and unexpected_rejections == 0)
    return {
        "seed": seed,
        "config": {"engine": engine, "n": n,
                   "n_ops": n_ops, "batch_size": batch_size,
                   "check_every": check_every, "sites": sites,
                   "workload": workload, "backend": backend,
                   **({"shards": shards, "cross_fraction": cross_fraction}
                      if workload == "worker_mix" else {})},
        "faults": plan.report(),
        "sites_hit": sorted({e["site"] for e in injected}),
        "detections": detections,
        "n_injected": len(injected),
        "n_detected": n_detected,
        "n_recoveries": front.stats["recoveries"] + len(detections),
        "n_masked": masked,
        "recovery_work": {
            "events": recovery_costs,
            "mean": (sum(recovery_costs) / len(recovery_costs)
                     if recovery_costs else 0.0),
        },
        "wrong_answers": wrong_answers,
        "unexpected_rejections": unexpected_rejections,
        "final": {
            "self_check_full_clean": not final_findings,
            "findings": [str(f) for f in final_findings],
            "msf_match": msf_match,
            "weight_match": weight_match,
            "twin_fingerprint_match": twin_match,
            **({"durable": durable_report}
               if durable_report is not None else {}),
        },
        "ok": ok,
    }


# --------------------------------------------------------- crash campaign

def _crash_round_schedule(seed: int, n_ops: int, kills: int) -> list[dict]:
    """The deterministic round plan: source-index SIGKILLs in the first
    two-thirds of the stream, then the three commit-boundary rounds
    (killed *before* an append, *after* one, and after a *torn* one),
    then a final round that runs to completion."""
    rng = random.Random(seed ^ 0xC0FFEE)
    lo = max(1, n_ops // 6)
    hi = max(lo + kills + 1, (2 * n_ops) // 3)
    kill_ops = sorted(rng.sample(range(lo, hi), kills))
    rounds: list[dict] = [{"kill_op": k} for k in kill_ops]
    rounds += [
        {"kill_append": 2, "kill_append_mode": "before"},
        {"kill_append": 2, "kill_append_mode": "after"},
        {"kill_append": 1, "kill_append_mode": "after", "tear_last": True},
    ]
    rounds.append({})        # final round: runs to completion
    return rounds


def _read_round_file(directory: str, name: str):
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_crash_campaign(seed: int, *, engine: str = "sequential",
                       backend: str = "scalar",
                       n: int = 40, n_ops: int = 240, batch_size: int = 12,
                       snapshot_every: int = 4, kills: int = 3,
                       burst: int = 24, churn: int = 16,
                       keep_dir: Optional[str] = None,
                       child_timeout: float = 600.0) -> dict:
    """SIGKILL-restart soak: the end-to-end crash-recovery contract.

    A subprocess (:mod:`repro.resilience.crash_child`) drives the
    ``restart_heavy`` stream against a durable front and is SIGKILLed at
    scheduled points -- at source-op indices, immediately *before* a WAL
    append (batch applied in-engine, never logged), immediately *after*
    one (the clean commit boundary), and after a *torn* append (the
    fault-injected partial record a real crash leaves).  Each restart
    restores from the durability directory and resumes the stream at the
    logged cursor, asserting the eid-prediction contract op by op.  The
    final round runs to completion; the parent then restores in-process,
    re-applies the post-cursor tail, and gates on a Kruskal-oracle match
    plus a bit-identical ``state_fingerprint`` against a never-crashed
    twin.  Zero tolerance: every divergence is a campaign failure.
    """
    import repro
    directory = keep_dir or tempfile.mkdtemp(prefix="repro-crash-")
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    ops = restart_heavy_ops(seed, n, n_ops, burst=burst, churn=churn)
    base_cfg = {"dir": directory, "seed": seed, "n": n, "n_ops": n_ops,
                "engine": engine, "backend": backend,
                "batch_size": batch_size, "snapshot_every": snapshot_every,
                "burst": burst, "churn": churn}
    rounds_out: list[dict] = []
    sigkill = -int(signal.SIGKILL)
    try:
        for r, round_cfg in enumerate(_crash_round_schedule(seed, n_ops,
                                                            kills)):
            cfg = {**base_cfg, **round_cfg, "round": r}
            proc = subprocess.run(
                [sys.executable, "-m", "repro.resilience.crash_child",
                 json.dumps(cfg)],
                env=env, capture_output=True, text=True,
                timeout=child_timeout)
            expected_kill = bool(round_cfg)
            completion = _read_round_file(directory, f"round-{r}.json")
            entry = {
                "round": r,
                "config": round_cfg,
                "returncode": proc.returncode,
                "killed": proc.returncode == sigkill,
                "restore": _read_round_file(directory,
                                            f"round-{r}-restore.json"),
                "completion": completion,
            }
            # a kill round may legitimately run out of stream before its
            # kill point fires; that is reported, not an error -- but an
            # exit that is neither SIGKILL nor clean completion is
            entry["ok"] = (proc.returncode == sigkill
                           or (proc.returncode == 0
                               and completion is not None
                               and (not expected_kill
                                    or completion.get("completed"))))
            if not entry["ok"]:
                entry["stderr"] = proc.stderr[-2000:]
            rounds_out.append(entry)

        # ---- never-crashed twin + oracle -------------------------------
        twin = BatchedMSF(n, engine=engine, batch_size=batch_size,
                          pool_size=1, backend=backend,
                          consistency="deferred")
        oracle = KruskalOracle()
        next_eid = 1
        for op in ops:
            if op[0] == "ins":
                eid = twin.insert_edge(op[1], op[2], op[3])
                assert eid == next_eid
                oracle.insert(op[1], op[2], op[3], eid)
                next_eid += 1
            elif op[0] == "del":
                twin.delete_edge(op[1])
                oracle.delete(op[1])
        twin.flush()
        oracle_match = (twin.msf_ids() == oracle.msf_ids()
                        and checks._weights_agree(twin.msf_weight(),
                                                  oracle.msf_weight()))
        twin_fp = checks.state_fingerprint(twin)

        # ---- in-process restore + post-cursor tail re-apply ------------
        from ..persist import restore, resume_point
        restored, r_report = restore(directory, level="full",
                                     snapshot_every=snapshot_every)
        try:
            sink = restored.durability
            for i in range(resume_point(r_report), len(ops)):
                sink.cursor = i
                op = ops[i]
                if op[0] == "ins":
                    restored.insert_edge(op[1], op[2], op[3])
                elif op[0] == "del":
                    restored.delete_edge(op[1])
            restored.flush()
            restore_match = checks.state_fingerprint(restored) == twin_fp
        finally:
            restored.close()

        from ..persist.snapshot import fingerprint_digest
        twin_digest = fingerprint_digest(twin_fp)
        final_completion = rounds_out[-1]["completion"] or {}
        child_digest_match = final_completion.get("digest") == twin_digest
        rounds_ok = all(e["ok"] for e in rounds_out)
        kills_fired = sum(1 for e in rounds_out if e["killed"])
        ok = (rounds_ok and oracle_match and restore_match
              and child_digest_match and not r_report["findings"])
        return {
            "seed": seed,
            "config": {**base_cfg,
                       "dir": (directory if keep_dir else "<temp>")},
            "rounds": rounds_out,
            "kills_fired": kills_fired,
            "final": {
                "oracle_match": oracle_match,
                "restore_fingerprint_match": restore_match,
                "child_digest_match": child_digest_match,
                "twin_digest": twin_digest,
                "restore_findings": r_report["findings"],
                "wal": r_report["wal"],
                "snapshot": r_report["snapshot"],
                "replayed_batches": r_report["replayed_batches"],
            },
            "ok": ok,
        }
    finally:
        if keep_dir is None:
            shutil.rmtree(directory, ignore_errors=True)
