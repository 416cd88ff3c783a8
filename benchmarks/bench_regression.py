#!/usr/bin/env python3
"""Benchmark-regression harness: measure every engine, gate future PRs.

Runs the E9 workload family across all engines and records
``engine -> {n, updates, updates_per_s, depth, work}`` plus the host it
ran on.  Two workload profiles exist: ``full`` (the E9 sizes, with the
kernel-bound ``adversarial_cuts`` stream for the parallel rows, since
random churn at n=1024 barely launches kernels) and ``quick`` (scaled
down for CI).  Beside the throughput rows, three sections carry absolute
bars that gate both modes, because they are properties of the current
code and not of any baseline:

* ``resilience_overhead`` -- disarmed fault sites plus cheap self-checks
  cost less than :data:`RES_OVERHEAD_TOL` (component estimate);
* ``compiled`` -- paired scalar/compiled replays are bit-identical and
  clear their same-run ratio bars (median of per-round ratios);
* ``durability_overhead`` -- the WAL-on arm restores bit-identically
  and its in-run attributed overhead stays under
  :data:`DURABILITY_OVERHEAD_TOL` (minimum over rounds).

Every timing is sampled by ``_common.rounds`` and every op stream is
driven by ``_common.replay``.

``--check`` re-measures and gates against the committed trajectory of
``BENCH_PR<k>.json`` files (:func:`compare`): a row's ``updates_per_s``
may not drop more than ``--tolerance`` below the best of the
:data:`TRAJECTORY` newest files measured on a matching host (rows with
no such file print as unresolved and are not gated), and the
machine-independent ``depth``/``work`` may not drift more than the same
tolerance from the newest file that has the row, on any host.  Exit
status is non-zero on any failure.

Usage:
    python benchmarks/bench_regression.py                  # measure + write
    python benchmarks/bench_regression.py -o BENCH_PR<k>.json
    python benchmarks/bench_regression.py --quick          # quick profile only
    python benchmarks/bench_regression.py --check          # compare, no write
    python benchmarks/bench_regression.py --check --quick  # CI smoke gate
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _common import cheap_check, replay, rounds

#: v7 drops the ``cluster`` section (``bench_cluster.py`` gates it)
SCHEMA = "bench-regression/v7"
#: how many of the newest host-matched baselines gate a throughput row
TRAJECTORY = 3
#: the ``host`` fields that must agree for wall clock to be comparable
HOST_KEYS = ("cpu_count", "implementation", "python", "machine", "numpy")


def host_meta() -> dict:
    """The machine facts a reader needs to interpret the numbers; the
    :data:`HOST_KEYS` among them decide which baselines are comparable.
    ``numpy`` is None when numpy is absent, since the scalar backend's
    wall clock depends on it."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy_version,
    }


def _describe_host(meta: dict, label: str = "host") -> str:
    return (f"{label}: {meta.get('cpu_count')} CPU(s), "
            f"{meta.get('implementation', 'Python')} "
            f"{meta.get('python')}, {meta.get('platform')}")

# ---------------------------------------------------------------------------
# workload definitions (the E9 family; see module docstring for rationale)
# ---------------------------------------------------------------------------

FULL = {
    "seq-core": dict(kind="seq-core", n=1024, workload="churn", steps=150),
    "parallel-core": dict(kind="par-core", n=512, workload="adversarial",
                          rounds=15),
    "parallel-core-fast": dict(kind="par-core", n=512, workload="adversarial",
                               rounds=15, audit="fast"),
    "facade-sequential": dict(kind="facade", n=1024, workload="churn",
                              steps=150),
    "facade-sparsified": dict(kind="facade-sparsified", n=256,
                              workload="churn", steps=60),
    "facade-compiled": dict(kind="facade-sparsified", n=256,
                            workload="churn", steps=60, backend="compiled"),
    "seq-core-wide": dict(kind="seq-core", n=2048, K=16,
                          workload="adversarial", rounds=1),
    "seq-core-wide-churn": dict(kind="seq-core", n=2048, K=8,
                                workload="churn", steps=800, max_degree=8),
    "facade-batched": dict(kind="facade-batched", n=256,
                           workload="query-mix", steps=1200,
                           read_ratio=0.8, batch=64),
    "query-path": dict(kind="query-path", n=256, workload="query-burst",
                       prefill=240, queries=5000),
    "structures-2-3-tree": dict(kind="structures", n=2048,
                                workload="tt-ops", steps=8000),
}

# ``reps``: a quick stream takes 1-6 ms, below what the gate resolves on a
# shared host, so each round times it on that many fresh engines or fronts
# (built before the clock) for a window of at least ~50 ms
QUICK = {
    "seq-core": dict(kind="seq-core", n=256, workload="churn", steps=80,
                     reps=40),
    "parallel-core": dict(kind="par-core", n=128, workload="adversarial",
                          rounds=4),
    "parallel-core-fast": dict(kind="par-core", n=128, workload="adversarial",
                               rounds=4, audit="fast"),
    "facade-sequential": dict(kind="facade", n=256, workload="churn",
                              steps=80, reps=16),
    "facade-sparsified": dict(kind="facade-sparsified", n=128,
                              workload="churn", steps=40, reps=24),
    "facade-compiled": dict(kind="facade-sparsified", n=128,
                            workload="churn", steps=40, backend="compiled",
                            reps=28),
    "seq-core-wide": dict(kind="seq-core", n=512, K=16,
                          workload="adversarial", rounds=1),
    "seq-core-wide-churn": dict(kind="seq-core", n=512, K=8,
                                workload="churn", steps=300, max_degree=8),
    "facade-batched": dict(kind="facade-batched", n=128,
                           workload="query-mix", steps=400,
                           read_ratio=0.8, batch=64, reps=64),
    "query-path": dict(kind="query-path", n=128, workload="query-burst",
                       prefill=120, queries=1500, reps=80),
    "structures-2-3-tree": dict(kind="structures", n=512,
                                workload="tt-ops", steps=2500),
}

# The CI smoke gate must always exercise the fast-path machine: it is the
# engine whose regressions the trace-replay caches could otherwise mask.
assert "parallel-core-fast" in QUICK, \
    "the quick profile must gate the audit='fast' engine"
assert "parallel-core-fast" in FULL, \
    "the full profile must gate the audit='fast' engine"


def _ops_for(spec: dict) -> list:
    import random

    from repro.workloads import adversarial_cuts, churn, query_mix
    if spec["workload"] == "adversarial":
        return list(adversarial_cuts(spec["n"], spec["rounds"], seed=3))
    if spec["workload"] == "query-mix":
        return list(query_mix(spec["n"], spec["steps"],
                              read_ratio=spec["read_ratio"], seed=5))
    if spec["workload"] == "query-burst":
        rng = random.Random(5)
        ops = []
        for i in range(spec["queries"]):
            if i % 2 == 0:
                ops.append(("conn", *rng.sample(range(spec["n"]), 2)))
            else:
                ops.append(("weight",))
        return ops
    if spec["workload"] == "tt-ops":
        # substrate micro-bench stream: raw randoms, resolved against the
        # live leaf set at replay time (keeps the stream deterministic
        # while the tree shape evolves)
        rng = random.Random(7)
        ops = []
        for _ in range(spec["steps"]):
            r = rng.random()
            raw = rng.randrange(1 << 30)
            if r < 0.25:
                ops.append(("tt-ins", raw))
            elif r < 0.45:
                ops.append(("tt-del", raw))
            elif r < 0.85:
                ops.append(("tt-set", raw, rng.randrange(1 << 16)))
            else:
                ops.append(("tt-splitjoin", raw))
        return ops
    max_degree = spec.get(
        "max_degree",
        3 if spec["kind"] in ("seq-core", "par-core") else None)
    return list(churn(spec["n"], spec["steps"], seed=5,
                      max_degree=max_degree))


class _TTDriver:
    """Drives the 2-3-tree substrate for the ``structures-2-3-tree`` row.

    Leaves carry int aggregates with a sum pull; the op stream exercises
    ``insert_after`` / ``delete_leaf`` / ``split_after`` + ``join`` and
    in-place leaf rewrites flushed through ``refresh_upward_changed`` --
    the exact call mix the LSDS and every ``BT_c`` put on the substrate.
    """

    def __init__(self, n: int) -> None:
        from repro.structures import two_three_tree as tt
        self.tt = tt
        self.leaves = [tt.leaf(i, i) for i in range(n)]
        root = self.leaves[0]
        for lf in self.leaves[1:]:
            root = tt.insert_after(tt.last_leaf(root), lf, self._pull)
        self.root = root
        self._next = n

    @staticmethod
    def _pull(node) -> None:
        node.agg = sum(k.agg for k in node.kids)

    @staticmethod
    def _pull_changed(node) -> bool:
        new = sum(k.agg for k in node.kids)
        if new == node.agg:
            return False
        node.agg = new
        return True

    def run_ops(self, ops) -> None:
        tt, leaves = self.tt, self.leaves
        pull, pull_changed = self._pull, self._pull_changed
        for op in ops:
            tag = op[0]
            if tag == "tt-set":
                lf = leaves[op[1] % len(leaves)]
                lf.agg = op[2]
                tt.refresh_upward_changed(lf, pull_changed)
            elif tag == "tt-ins":
                after = leaves[op[1] % len(leaves)]
                lf = tt.leaf(self._next, self._next)
                self._next += 1
                self.root = tt.insert_after(after, lf, pull)
                leaves.append(lf)
            elif tag == "tt-del":
                if len(leaves) <= 2:
                    continue
                lf = leaves.pop(op[1] % len(leaves))
                self.root = tt.delete_leaf(lf, pull)
            else:  # tt-splitjoin
                lf = leaves[op[1] % len(leaves)]
                left, right = tt.split_after(lf, pull)
                self.root = tt.join(left, right, pull)


def _build(spec: dict, machine=None):
    """Returns (engine, core_style, machine_or_None).

    On skip, returns ``(None, reason, None)`` with a human-readable
    reason; real constructor failures are not swallowed.

    ``machine`` (fast-audit par-core only) reuses the PRAM machine of a
    previous run: ``Machine.reset_stats`` zeroes its measurement state
    while the value-keyed replay plans survive, and a replay hit charges
    exactly what a simulated launch would.  Rounds 2..N therefore cover
    the warm trace-replay steady state.
    """
    kind, n = spec["kind"], spec["n"]
    backend = spec.get("backend", "scalar")
    if backend == "compiled":
        # skip reason names the backend, so a CI log reading "SKIPPED"
        # is attributable at a glance
        from repro.core import compiled as _compiled
        if not _compiled.HAVE_COMPILED:
            return None, (f"backend={backend} needs the native extension "
                          f"(python -m repro.core.compiled.build)"), None
    if kind == "structures":
        return _TTDriver(n), False, None
    if kind == "seq-core":
        from repro.core.seq_msf import SparseDynamicMSF
        eng = SparseDynamicMSF(n, K=spec.get("K"), backend=backend)
        return eng, True, None
    if kind == "par-core":
        from repro.core.par import ParallelDynamicMSF
        audit = spec.get("audit")
        if audit is None:
            eng = ParallelDynamicMSF(n, backend=backend)
        elif machine is not None:
            machine.reset_stats()
            eng = ParallelDynamicMSF(n, machine=machine, backend=backend)
        else:
            eng = ParallelDynamicMSF(n, audit=audit, backend=backend)
        return eng, True, eng.machine
    if kind == "facade":
        from repro import DynamicMSF
        eng = DynamicMSF(n, max_edges=4 * n, backend=backend)
        return eng, False, None
    if kind == "facade-sparsified":
        from repro import DynamicMSF
        eng = DynamicMSF(n, sparsify=True, backend=backend)
        return eng, False, None
    if kind == "facade-batched":
        from repro import BatchedMSF
        eng = BatchedMSF(n, consistency="deferred",
                         batch_size=spec["batch"])
        return eng, False, None
    if kind == "query-path":
        from repro import BatchedMSF
        from repro.workloads import churn, drive
        eng = BatchedMSF(n)
        drive(eng, churn(n, spec["prefill"], seed=5))
        eng.flush()
        eng.connected(0, n - 1)  # build this epoch's read view
        return eng, False, None
    raise ValueError(f"unknown engine kind {kind!r}")


def measure_profile(specs: dict, engines=None) -> dict:
    rows: dict[str, dict] = {}
    for name, spec in specs.items():
        if engines and name not in engines:
            continue
        ops = _ops_for(spec)
        built = _build(spec)
        if built[0] is None:
            print(f"  {name:<22} SKIPPED ({built[1]})")
            continue
        machine = built[2]
        pending = [built]
        reps = spec.get("reps", 1)

        def arm() -> float:
            # fast-audit rows reuse the machine so rounds 2..N measure the
            # warm trace-replay tier (see _build); others rebuild cold.
            # A ``reps`` row replays its stream on that many fresh engines
            # in one timed window, all built before the clock starts
            fronts = [pending.pop() if pending
                      else _build(spec, machine=machine)
                      for _ in range(reps)]
            t0 = time.perf_counter()
            for engine, core_style, _m in fronts:
                replay(engine, ops, core_style)
            return time.perf_counter() - t0

        # the minimum is the noise floor for micro-timings.  Fast-audit
        # round 1 is the recording pass (every shape key misses), so those
        # rows always take two warm rounds on top of it
        samples = rounds({name: arm},
                         min_rounds=3 if spec.get("audit") == "fast" else 1,
                         budget_s=0.5)
        dt = min(r[name] for r in samples)
        updates = len(ops) * reps
        rows[name] = {
            "n": spec["n"],
            "workload": spec["workload"],
            "backend": spec.get("backend", "scalar"),
            "updates": updates,
            "reps": reps,
            "seconds": round(dt, 4),
            "updates_per_s": round(updates / dt, 2),
            "depth": machine.total.depth if machine is not None else None,
            "work": machine.total.work if machine is not None else None,
        }
        print(f"  {name:<22} n={spec['n']:<5} {updates:>4} updates  "
              f"{dt:8.3f}s  {updates / dt:10.1f} upd/s")
    return rows


# ---------------------------------------------------------------------------
# resilience overhead (PR 5)
# ---------------------------------------------------------------------------

#: rows whose hot paths carry compiled-in (but disarmed) fault-injection
#: sites; the overhead row measures them with cheap self-checks on top
RESILIENCE_ROWS = ("facade-sparsified", "parallel-core-fast")
#: cheap self-check cadence in the checked arm (ops between audits); one
#: final check always runs after the stream
RES_CHECK_EVERY = 32
#: allowed relative cost of disarmed sites + cheap checks (the PR 5 bar)
RES_OVERHEAD_TOL = 0.02
#: minimum A/B rounds for the median-of-ratios diagnostic: the median of
#: fewer than 5 samples still lets one steal burst through on a 1-CPU
#: host (the +/-8% swings the min-based estimator suffered)
RES_MIN_PAIRS = 5
#: direct timings of the warm cheap self-check for the gated component
#: estimate; each call is ~7-10 us, so the whole sample costs ~3 ms
RES_CHECK_SAMPLES = 300


def measure_resilience_overhead(specs: dict, engines=None) -> dict:
    """Paired A/B cost of the resilience layer on the two gated rows.

    Arm A replays the row's exact workload on a fresh engine -- with the
    fault-injection registry *disarmed*, which is the deployed
    configuration: every site compiled into the hot paths still executes
    its ``if _faults.armed`` guard.  Arm B replays the identical stream
    plus a cheap-tier self-check every :data:`RES_CHECK_EVERY` ops (and
    once at the end).  Both arms run after a warm-up pass and reuse the
    PRAM machine exactly as ``measure_profile`` does, so they compare
    warm steady states.  The arms are sampled by ``rounds``.

    The *gated* statistic is a component estimate (PR 9):

        overhead = checks_per_stream * median(warm check cost) / plain

    where the check cost is timed directly (:data:`RES_CHECK_SAMPLES`
    calls on the warm post-replay engine; median ~7 us on the facade
    row) and ``plain`` is the fastest plain-arm round.  Every factor is a
    tight median or best-of, so the estimate is stable run to run.  The
    end-to-end A/B difference, by contrast, is *unmeasurable* at a 2%
    scale on a shared 1-CPU host: the timing windows are ~20-900 ms and
    a single preemption costs more than the entire true overhead
    (~0.1%), so even a median of alternating-order back-to-back pairs
    was observed swinging -8%..+22% across runs -- the bar tripped on
    noise at PR 7, PR 8 and twice while building PR 9 (ROADMAP item 2).
    The paired A/B median is still recorded (``paired_ab_pct``) as a
    drift diagnostic, but it carries no gate.

    What the component estimate deliberately excludes -- interleaving
    effects of the checks on the hot loop (cache eviction, allocator
    churn) and the cost of the compiled-in *disarmed* fault-site guards
    -- is gated end-to-end by the ordinary ``facade-sparsified`` /
    ``parallel-core-fast`` throughput rows against the host-matched
    trajectory, where a 15%+ tolerance matches what wall clock can
    actually resolve.
    """
    from repro.resilience import faults
    if faults.armed:  # pragma: no cover - defensive; nothing arms here
        raise RuntimeError("fault registry must be disarmed for the "
                           "overhead measurement")
    rows: dict[str, dict] = {}
    for name in RESILIENCE_ROWS:
        spec = specs.get(name)
        if spec is None or (engines and name not in engines):
            continue
        ops = _ops_for(spec)
        # warm-up: populate the trace-replay caches so both arms measure
        # the steady state (fast-audit run 1 is the recording pass and
        # would swamp a 2% comparison)
        engine, core_style, machine = _build(spec)
        replay(engine, ops, core_style)

        def arm(check_every: int) -> float:
            fresh = _build(spec, machine=machine)[0]
            t0 = time.perf_counter()
            replay(fresh, ops, core_style, check_every=check_every)
            return time.perf_counter() - t0

        pairs = rounds({"plain": lambda: arm(0),
                        "checked": lambda: arm(RES_CHECK_EVERY)},
                       min_rounds=RES_MIN_PAIRS, budget_s=1.6)
        plain = min(r["plain"] for r in pairs)
        checked = min(r["checked"] for r in pairs)
        paired_ab = statistics.median(
            r["checked"] / r["plain"] for r in pairs) - 1.0
        # gated component estimate: time the warm cheap check directly on
        # a post-replay engine (the same state the checked arm audits)
        fresh = _build(spec, machine=machine)[0]
        replay(fresh, ops, core_style)
        samples: list[float] = []
        for _ in range(RES_CHECK_SAMPLES):
            t0 = time.perf_counter()
            cheap_check(fresh)
            samples.append(time.perf_counter() - t0)
        check_cost = statistics.median(samples)
        n_checks = len(ops) // RES_CHECK_EVERY + 1
        overhead = n_checks * check_cost / plain
        rows[name] = {
            "n": spec["n"],
            "workload": spec["workload"],
            "updates": len(ops),
            "check_every": RES_CHECK_EVERY,
            "checks": n_checks,
            "check_cost_us": round(1e6 * check_cost, 2),
            "pairs": len(pairs),
            "estimator": "component-cost (paired A/B diagnostic only)",
            "plain_updates_per_s": round(len(ops) / plain, 2),
            "checked_updates_per_s": round(len(ops) / checked, 2),
            "overhead_pct": round(100.0 * overhead, 3),
            "paired_ab_pct": round(100.0 * paired_ab, 3),
        }
        print(f"  {name:<22} n={spec['n']:<5} plain "
              f"{len(ops) / plain:10.1f} upd/s  check "
              f"{1e6 * check_cost:6.1f} us x{n_checks:<3} "
              f"overhead {100.0 * overhead:+6.2f}%  "
              f"(paired A/B {100.0 * paired_ab:+6.2f}%)")
    return rows


def overhead_failures(rows: dict, tolerance: float = RES_OVERHEAD_TOL
                      ) -> list[str]:
    """Gate messages for :func:`measure_resilience_overhead` output."""
    return [
        f"{name}: resilience overhead {row['overhead_pct']:.2f}% > "
        f"{tolerance:.0%} (disarmed sites + cheap self-checks every "
        f"{row['check_every']} ops must stay near-free)"
        for name, row in rows.items()
        if row["overhead_pct"] > 100.0 * tolerance
    ]


# ---------------------------------------------------------------------------
# compiled backend equivalence (PR 8)
# ---------------------------------------------------------------------------

def _equiv_signature(engine, core_style: bool) -> tuple:
    """Backend-independent state signature for the equivalence gate."""
    if core_style:  # bare core engine: no facade fingerprint support
        return (tuple(sorted(e.eid for e in engine.msf_edges())),
                round(engine.msf_weight(), 9))
    from repro.resilience import checks
    return (checks.state_fingerprint(engine._impl),
            tuple(sorted(engine.msf_ids())),
            round(engine.msf_weight(), 9))


#: Minimum rounds per backend-equivalence row.  One per arm order, plus
#: a tiebreaker: enough for a meaningful median while keeping the wide
#: full-profile rows under ~half a minute.
CMP_MIN_PAIRS = 3
#: rows replayed under both backends; every pair must be bit-identical
#: and the wide-Jcap rows must clear their hard speedup bars.  The
#: parallel engine is scalar-only, so its rows have no compiled arm.
COMPILED_ROWS = ("facade-sparsified", "seq-core-wide", "seq-core-wide-churn")
#: compiled/scalar floor on the *narrow* gated row: its residual time is
#: facade Python above the backend seam (measured ~1.0-1.3x with the
#: structural plumbing native; EXPERIMENTS.md E9), so it gates
#: bit-identity plus catastrophe: the floor catches an accidental
#: O(J) -> O(J^2) mirror resync, say, without gating host noise
COMPILED_RATIO_FLOOR = 0.5
#: hard same-run speedup bar on ``seq-core-wide``: the deletion-heavy
#: wide-Jcap shape is *the* regime the compiled tier exists for (column
#: sweeps over every long list plus MWR gamma/argmin scans, all Theta(J)
#: python loops under the scalar backend), so a compiled tier that fails
#: 2x here is not pulling its weight.  Measured ~4.7x when the tier
#: landed, ~6.9x after the native plumbing and 3.7-3.8x on a 2-vCPU VM
#: once chunk surgery walked only what moved; see EXPERIMENTS.md E9.
COMPILED_WIDE_MIN = 2.0
#: hard same-run speedup bar on ``seq-core-wide-churn`` (full profile
#: only -- at quick sizes the pair is inside host noise): dense churn over
#: a wide Jcap is the serving-traffic regime the native charge batching,
#: C-side splay/access loops and sparse-aware mirror scans target;
#: measured ~2x on the dev host against ~1.2x before the native
#: plumbing, and 1.37-1.45x on a 2-vCPU VM since chunk surgery walks
#: only what moved (below this bar; EXPERIMENTS.md E9).
COMPILED_CHURN_MIN = 1.5


def _preallocate(engine) -> None:
    """Allocate a core engine's ``C`` (and its compiled flat mirror) now.

    ``ChunkSpace`` allocates lazily at the first chunk id; on the wide
    rows the compiled mirror alone is tens of MB of INF fill, which would
    otherwise land inside the timed replay of one arm only.  Engines of a
    sparsified front are built during the replay and are left alone.
    """
    space = getattr(getattr(engine, "fabric", None), "space", None)
    if space is not None and space.C is None:
        space._allocate()


def measure_compiled_equivalence(specs: dict, engines=None, *,
                                 gate_churn: bool = True):
    """Paired scalar/compiled replay: bit-identity plus same-run ratio.

    Replays each gated row's exact op stream on a fresh engine per
    backend and compares the end states (forest edge ids, ``msf_weight``
    and the facade ``state_fingerprint``).  Both backends are arms of one
    ``rounds`` call, so each round runs them back to back in alternating
    order; the recorded ratio is the median of per-round ratios and
    carries neither cross-host noise nor same-run arm-order drift (a
    fixed-order run once read a ~1.0x row as 0.39x).  Signatures for the
    bit-identity gate come from the first round; the replay is
    deterministic.
    Returns None (section omitted) when the native extension is not
    built.
    ``gate_churn=False`` (the quick profile) drops the hard
    :data:`COMPILED_CHURN_MIN` bar on ``seq-core-wide-churn`` -- at
    smoke sizes the pair sits inside host noise -- while keeping its
    bit-identity gate hot.
    """
    from repro.core import compiled as _compiled
    if not _compiled.HAVE_COMPILED:
        print(f"  skipped: native extension not built "
              f"(python -m repro.core.compiled.build)")
        return None
    rows: dict[str, dict] = {}
    for name in COMPILED_ROWS:
        spec = specs.get(name)
        if spec is None or (engines and name not in engines):
            continue
        ops = _ops_for(spec)
        sigs: dict[str, tuple] = {}

        def arm(backend: str) -> float:
            engine, core_style, _ = _build(dict(spec, backend=backend))
            _preallocate(engine)
            t0 = time.perf_counter()
            replay(engine, ops, core_style)
            d = time.perf_counter() - t0
            if backend not in sigs:
                sigs[backend] = _equiv_signature(engine, core_style)
            return d

        pairs = rounds({"scalar": lambda: arm("scalar"),
                        "compiled": lambda: arm("compiled")},
                       min_rounds=CMP_MIN_PAIRS, budget_s=1.2)
        ratio = statistics.median(r["scalar"] / r["compiled"] for r in pairs)
        best = {bk: min(r[bk] for r in pairs) for bk in ("scalar", "compiled")}
        identical = sigs["scalar"] == sigs["compiled"]
        rows[name] = {
            "n": spec["n"],
            "workload": spec["workload"],
            "updates": len(ops),
            "scalar_updates_per_s": round(len(ops) / best["scalar"], 2),
            "compiled_updates_per_s": round(len(ops) / best["compiled"], 2),
            "compiled_speedup": round(ratio, 3),
            "bit_identical": identical,
            "gate_churn": gate_churn and name == "seq-core-wide-churn",
            "pairs": len(pairs),
            "estimator": "median-of-ratios",
        }
        print(f"  {name:<22} n={spec['n']:<5} scalar "
              f"{len(ops) / best['scalar']:10.1f} upd/s  "
              f"compiled {len(ops) / best['compiled']:10.1f} "
              f"upd/s  ratio {ratio:5.2f}x  identical={identical}")
    return rows


def compiled_failures(rows) -> list[str]:
    """Absolute gates for the compiled section (both modes): bit-identity
    on every row, the catastrophe floor on the small rows, and the hard
    :data:`COMPILED_WIDE_MIN` speedup on the wide-Jcap row."""
    if rows is None:  # extension absent: nothing measured, nothing gated
        return []
    failures: list[str] = []
    for name, row in rows.items():
        if not row["bit_identical"]:
            failures.append(
                f"{name}: compiled backend diverged from scalar "
                f"(forests/weight/fingerprint must be bit-identical)")
        if name == "seq-core-wide":
            if row["compiled_speedup"] < COMPILED_WIDE_MIN:
                failures.append(
                    f"{name}: compiled/scalar ratio "
                    f"{row['compiled_speedup']}x < {COMPILED_WIDE_MIN}x "
                    f"bar (same-run pair; the wide-Jcap deletion shape "
                    f"is the compiled tier's acceptance regime)")
        elif row.get("gate_churn"):
            if row["compiled_speedup"] < COMPILED_CHURN_MIN:
                failures.append(
                    f"{name}: compiled/scalar ratio "
                    f"{row['compiled_speedup']}x < {COMPILED_CHURN_MIN}x "
                    f"bar (same-run pair; wide-Jcap dense churn is the "
                    f"structural-plumbing acceptance regime of PR 9)")
        elif row["compiled_speedup"] < COMPILED_RATIO_FLOOR:
            failures.append(
                f"{name}: compiled/scalar ratio "
                f"{row['compiled_speedup']}x < {COMPILED_RATIO_FLOOR}x "
                f"floor (same-run pair)")
    return failures


# ---------------------------------------------------------------------------
# durability overhead (PR 10)
# ---------------------------------------------------------------------------

#: allowed WAL-on wall-clock overhead on the gated serving row.  The
#: durable path per committed batch is one SQLite-WAL transaction plus a
#: cadence-amortized snapshot; batching keeps the per-op cost inside
#: this bar (DESIGN |S| 4: durability must not change what the
#: measurement layer records, and must stay cheap enough that E-series
#: runs can leave it on).
DURABILITY_OVERHEAD_TOL = 0.05
#: engine row whose configuration the durable pair drives (the churn
#: workload shape of the ``facade-sparsified`` row, scaled up so the
#: stream fills many 64-op batches -- at the row's native step count a
#: single batch would commit and the pair would time nothing but noise)
DURABILITY_ROW = "facade-sparsified"
DURABILITY_STEP_SCALE = 25
DURABILITY_BATCH = 64
DURABILITY_SNAPSHOT_EVERY = 8


def measure_durability_overhead(specs: dict, engines=None):
    """WAL-on vs WAL-off on the batched serving front.

    Both arms drive the identical churn stream through a ``BatchedMSF``
    over the :data:`DURABILITY_ROW` engine configuration (sparsified,
    deferred consistency, ``DURABILITY_BATCH``-op batches); the *on* arm
    adds ``durability="wal"`` with the :data:`DURABILITY_SNAPSHOT_EVERY`
    snapshot cadence into a private temporary directory.

    The **gated** overhead number is *attributed in-run*: each on-arm
    wraps its ``_durable_commit`` calls with a timer (the outermost
    durable call: it writes the cadence snapshots itself, so each
    durable second counts once), and overhead = durable_time / (total -
    total_durable).
    Numerator and denominator share one run's noise environment, so
    host drift cancels by construction -- a wall-clock A/B ratio on a
    shared host swings +-15% per run, far beyond a 5% bar.  Noise can
    only *inflate* the attribution, so the minimum across ``rounds`` is
    the estimator.  The paired off-arms remain for the reported throughput
    and to prove the streams end bit-identical; the first on-arm's
    directory is additionally **restored** after the timed window and
    must reproduce the live fronts' ``state_fingerprint`` -- an
    overhead number for a WAL that cannot restore would be meaningless.
    """
    import shutil
    import tempfile

    from repro import BatchedMSF
    from repro.resilience import checks
    from repro.workloads import churn
    spec = specs.get(DURABILITY_ROW)
    if spec is None or (engines and DURABILITY_ROW not in engines):
        return None
    steps = spec["steps"] * DURABILITY_STEP_SCALE
    ops = list(churn(spec["n"], steps, seed=7))
    fps: dict[str, object] = {}
    attributed: list[float] = []

    def arm(mode: str) -> float:
        tmp = (tempfile.mkdtemp(prefix="repro-bench-wal-")
               if mode == "on" else None)
        durable = ({"durability": "wal", "durable_dir": tmp,
                    "snapshot_every": DURABILITY_SNAPSHOT_EVERY}
                   if mode == "on" else {})
        front = BatchedMSF(spec["n"], sparsify=True,
                           batch_size=DURABILITY_BATCH,
                           consistency="deferred", **durable)
        spent_durable = [0.0]
        if mode == "on":
            commit = front._durable_commit

            def _timed_commit(*a, **kw):
                t0 = time.perf_counter()
                try:
                    return commit(*a, **kw)
                finally:
                    spent_durable[0] += time.perf_counter() - t0
            front._durable_commit = _timed_commit
        t0 = time.perf_counter()
        replay(front, ops, False)
        d = time.perf_counter() - t0
        if mode == "on":
            attributed.append(spent_durable[0] / (d - spent_durable[0]))
        try:
            if mode not in fps:
                fps[mode] = checks.state_fingerprint(front)
                if mode == "on":
                    from repro.persist import restore
                    front.close()
                    restored, _rep = restore(
                        tmp, snapshot_every=DURABILITY_SNAPSHOT_EVERY)
                    fps["restore"] = checks.state_fingerprint(restored)
                    restored.close()
        finally:
            front.close()
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
        return d

    pairs = rounds({"off": lambda: arm("off"), "on": lambda: arm("on")},
                   min_rounds=5, budget_s=2.5)
    best = {mode: min(r[mode] for r in pairs) for mode in ("off", "on")}
    overhead = min(attributed)
    identical = fps["off"] == fps["on"] == fps["restore"]
    row = {
        "n": spec["n"],
        "workload": "churn",
        "updates": len(ops),
        "batch_size": DURABILITY_BATCH,
        "snapshot_every": DURABILITY_SNAPSHOT_EVERY,
        "off_updates_per_s": round(len(ops) / best["off"], 2),
        "on_updates_per_s": round(len(ops) / best["on"], 2),
        "overhead_pct": round(100.0 * overhead, 2),
        "restore_identical": identical,
        "pairs": len(pairs),
        "estimator": "min-attributed-in-run",
    }
    print(f"  {DURABILITY_ROW:<22} n={spec['n']:<5} off "
          f"{row['off_updates_per_s']:10.1f} upd/s  on "
          f"{row['on_updates_per_s']:10.1f} upd/s  overhead "
          f"{row['overhead_pct']:+.1f}%  restore_identical={identical}")
    return {DURABILITY_ROW: row}


def durability_failures(rows) -> list[str]:
    """Absolute gates for the durability section (both modes): the WAL-on
    arm must restore bit-identically and its wall-clock overhead must
    stay under :data:`DURABILITY_OVERHEAD_TOL`."""
    if rows is None:
        return []
    failures: list[str] = []
    for name, row in rows.items():
        if not row["restore_identical"]:
            failures.append(
                f"{name}: durable restore diverged from the live front "
                f"(WAL-on/off/restored fingerprints must be bit-identical)")
        if row["overhead_pct"] > 100.0 * DURABILITY_OVERHEAD_TOL:
            failures.append(
                f"{name}: WAL-on overhead {row['overhead_pct']:.1f}% > "
                f"{DURABILITY_OVERHEAD_TOL:.0%} (min attributed "
                f"in-run durable time)")
    return failures


# ---------------------------------------------------------------------------
# baseline lookup and comparison
# ---------------------------------------------------------------------------

def committed_baselines() -> list[tuple[str, dict]]:
    """Every committed ``BENCH_PR<k>.json`` as ``(file name, record)``,
    newest (highest k) first."""
    found = []
    for p in REPO_ROOT.glob("BENCH_PR*.json"):
        m = re.fullmatch(r"BENCH_PR(\d+)", p.stem)
        if m:
            found.append((int(m.group(1)), p))
    return [(p.name, json.loads(p.read_text()))
            for _k, p in sorted(found, reverse=True)]


def host_matches(a: dict | None, b: dict | None) -> bool:
    """Whether wall clock measured on host ``a`` is comparable with ``b``."""
    return (a is not None and b is not None
            and all(a.get(k) == b.get(k) for k in HOST_KEYS))


def _same_row(base: dict | None, cur: dict) -> bool:
    """A baseline row counts only if it ran the same workload."""
    return base is not None and all(
        base.get(k, d) == cur.get(k, d)
        for k, d in (("workload", None), ("n", None), ("backend", "scalar")))


def compare(current: dict, section: str, history: list[tuple[str, dict]],
            host: dict, tolerance: float) -> tuple[list[str], list[str]]:
    """Gate one section's rows against the committed trajectory.

    ``history`` is :func:`committed_baselines` output (newest first).
    Throughput is gated against the best ``updates_per_s`` among the
    :data:`TRAJECTORY` newest files whose ``host`` matches (see
    :data:`HOST_KEYS`); a row no such file has is *unresolved* and not
    gated, because wall clock measures the host as much as the code.
    ``depth``/``work`` do not depend on the host, so they are gated
    against the newest file that has the row, wherever it ran.  Returns
    ``(failures, unresolved row names)``.
    """
    matched = [(f, rec) for f, rec in history
               if host_matches(rec.get("host"), host)][:TRAJECTORY]
    failures: list[str] = []
    unresolved: list[str] = []
    for name, cur in current.items():
        bases = [(rec[section][name]["updates_per_s"], f)
                 for f, rec in matched
                 if _same_row(rec.get(section, {}).get(name), cur)]
        if bases:
            best, f = max(bases)
            floor = best * (1.0 - tolerance)
            if cur["updates_per_s"] < floor:
                failures.append(
                    f"{name}: {cur['updates_per_s']:.1f} upd/s < "
                    f"{floor:.1f} (best baseline {best:.1f} in {f} "
                    f"- {tolerance:.0%})")
        else:
            unresolved.append(name)
        model = next(((f, rec[section][name]) for f, rec in history
                      if _same_row(rec.get(section, {}).get(name), cur)),
                     None)
        if model is None:
            continue
        f, base = model
        for q in ("depth", "work"):
            b, c = base.get(q), cur.get(q)
            if b is None or c is None or b == 0:
                continue
            if abs(c - b) > tolerance * b:
                failures.append(
                    f"{name}: {q} drifted {b} -> {c} vs {f} "
                    f"(> {tolerance:.0%}; model quantities should be stable)")
    return failures, unresolved


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="measure only the quick (CI smoke) profile")
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed BENCH_PR*.json "
                         "trajectory instead of writing a new file")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed relative regression (default 0.15)")
    ap.add_argument("--engines", nargs="*", default=None,
                    help="restrict to these engine names")
    ap.add_argument("-o", "--out",
                    default=str(REPO_ROOT / "bench-regression.json"),
                    help="output file (default bench-regression.json; "
                         "name it BENCH_PR<k>.json to commit a baseline)")
    args = ap.parse_args(argv)

    meta = host_meta()
    print(_describe_host(meta))
    result = {"schema": SCHEMA,
              "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
              "tolerance": args.tolerance,
              "host": meta}

    if not args.quick:
        print("== full profile ==")
        result["engines"] = measure_profile(FULL, args.engines)
    print("== quick profile ==")
    result["quick_engines"] = measure_profile(QUICK, args.engines)
    print("== resilience overhead (disarmed sites + cheap self-checks) ==")
    result["resilience_overhead"] = measure_resilience_overhead(
        QUICK if args.quick else FULL, args.engines)
    over = overhead_failures(result["resilience_overhead"])
    print("== compiled backend (bit-identity + same-run ratio) ==")
    compiled_rows = measure_compiled_equivalence(
        QUICK if args.quick else FULL, args.engines,
        gate_churn=not args.quick)
    if compiled_rows is not None:
        result["compiled"] = compiled_rows
    over += compiled_failures(compiled_rows)
    print("== durability overhead (WAL on vs off + restore identity) ==")
    durability_rows = measure_durability_overhead(
        QUICK if args.quick else FULL, args.engines)
    if durability_rows is not None:
        result["durability_overhead"] = durability_rows
    over += durability_failures(durability_rows)

    if args.check:
        history = committed_baselines()
        failures: list[str] = list(over)
        print()
        print(_describe_host(meta, "measured on"))
        matched = [f for f, rec in history
                   if host_matches(rec.get("host"), meta)][:TRAJECTORY]
        print(f"throughput baselines (newest {TRAJECTORY} host-matched): "
              f"{', '.join(matched) or 'none'}")
        for section in ("engines", "quick_engines"):
            if section not in result:
                continue
            fails, unresolved = compare(result[section], section, history,
                                        meta, args.tolerance)
            failures += fails
            for name in unresolved:
                print(f"  {section}/{name}: unresolved "
                      f"(no host-matched baseline)")
        if failures:
            print("\nREGRESSIONS:")
            for f in failures:
                print(f"  FAIL {f}")
            return 1
        print(f"\nOK: no regression (tolerance {args.tolerance:.0%}); "
              f"resilience overhead within {RES_OVERHEAD_TOL:.0%}")
        return 0

    if over:  # absolute bars also gate the measure-and-write mode
        for f in over:
            print(f"  FAIL {f}")
        return 1

    out_path = Path(args.out)
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
