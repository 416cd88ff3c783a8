"""Deterministic, seeded fault injection for the engine/serving stack.

The resilience layer's premise: the paper's guarantees are *deterministic*
(Theorems 1.1/1.2/3.1), so any corrupted structure is detectable by audit
and rebuildable to an equivalent-by-invariant state.  This module supplies
the *corruption* half -- a registry of injection points threaded through
the four performance tiers stacked by PRs 1-4:

========================  ====================================================
site                      corrupts
========================  ====================================================
``pram.cell``             one interned PRAM memory cell between machine steps
``pram.plan``             a cached :class:`~repro.pram.machine.TracePlan`
                          (work/depth/n_effects skew)
``tt.agg``                a 2-3-tree internal aggregate after a refresh
``serve.batch``           a coalesced batch op stream (drop / duplicate one)
``sparsify.weight``       the sparsification tree's incremental MSF weight
``cluster.worker``        a sharded-cluster worker process (SIGKILL mid-batch)
``wal.append``            a durable-log record (torn/partial payload)
``wal.fsync``             the durable log's acknowledged tail (lost record)
``snapshot.write``        a snapshot file (truncated before the rename)
========================  ====================================================

Zero-cost discipline
--------------------
Instrumented call sites pay exactly one module-attribute load + falsy
branch while disarmed::

    from ..resilience import faults as _faults
    ...
    if _faults.armed:
        _faults.fire("tt.agg", node=node)

the same module-level-singleton pattern as PR 3's ``_Paused`` accounting
context managers.  ``armed`` is a plain module global flipped only by
:func:`arm` / :func:`disarm` (or the :func:`injected` context manager), so
production runs never construct a plan, never hash a site name, never
enter :func:`fire`.

Determinism
-----------
A :class:`FaultPlan` is a list of :class:`Fault` records -- *(site, nth
visit, param)* -- optionally generated from a seed.  Each armed call site
increments a per-site visit counter; a fault fires exactly when its site's
counter reaches its ``nth``.  Replaying the same workload with the same
plan therefore injects bit-identical corruption, which is what lets the
soak harness compare a faulted run against a never-faulted twin.

This module imports nothing from the rest of the library (corruptors are
duck-typed); low-level modules can import it without cycles.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["SITES", "Fault", "FaultPlan", "arm", "disarm", "injected",
           "fire", "armed"]


# ---------------------------------------------------------------------------
# corruptors (duck-typed; each returns a record dict, or None to skip when
# the context offers nothing corruptible -- a *skipped* fault injected no
# corruption and is reported as such)
# ---------------------------------------------------------------------------

def _nudge(val: Any, param: int) -> Any:
    """``val`` with its first finite numeric component changed: a float
    moved by ``0.5 + param % 3``, an int xor-ed with ``1 + param % 7``.
    ``None`` when nothing in it is a finite number (bools excluded)."""
    if type(val) is float:
        return val + (0.5 + param % 3) if math.isfinite(val) else None
    if type(val) is int:
        return val ^ (1 + param % 7)
    if type(val) is tuple:
        for i, part in enumerate(val):
            new = _nudge(part, param)
            if new is not None:
                return val[:i] + (new,) + val[i + 1:]
    return None


def _corrupt_pram_cell(param: int, ctx: dict) -> Optional[dict]:
    """Scramble one interned PRAM memory cell: a finite float preferred,
    else an int, else a tuple of numbers -- a ``(w, eid)`` key or a BT_c
    ``(units, edges)`` aggregate, the only numeric cells a small
    sparsified parallel tree may hold at a step boundary."""
    mem = ctx.get("mem")
    cells = getattr(mem, "_cells", None)
    if not cells:
        return None
    n = len(cells)
    start = param % n
    found: dict[type, tuple[int, Any, Any]] = {}
    for off in range(min(n, 256)):
        aid = (start + off) % n
        try:
            val = mem.read_interned(aid)
        except Exception:
            continue
        kind = type(val)
        if kind in found:
            continue
        new = _nudge(val, param)
        if new is None:
            continue
        found[kind] = (aid, val, new)
        if kind is float:
            break
    for kind in (float, int, tuple):
        if kind in found:
            aid, val, new = found[kind]
            mem.write_interned(aid, new)
            return {"detail": f"cell #{aid}: {kind.__name__} {val!r} -> "
                              f"{new!r}"}
    return None


def _corrupt_pram_plan(param: int, ctx: dict) -> Optional[dict]:
    """Skew a cached TracePlan's recorded stats / declared effect count."""
    plan = ctx.get("plan")
    if plan is None:
        return None
    variant = param % 3
    label = getattr(plan, "label", "?")
    if variant == 0:
        delta = 1 + param % 7
        plan.work += delta
        return {"detail": f"plan {label!r}: work += {delta}"}
    if variant == 1:
        plan.depth += 1
        return {"detail": f"plan {label!r}: depth += 1"}
    if getattr(plan, "n_effects", None) is not None:
        plan.n_effects += 1
        return {"detail": f"plan {label!r}: n_effects += 1"}
    plan.work += 1
    return {"detail": f"plan {label!r}: work += 1 (no n_effects)"}


def _corrupt_tt_agg(param: int, ctx: dict) -> Optional[dict]:
    """Tamper one ancestor aggregate of a just-refreshed 2-3-tree leaf."""
    node = ctx.get("node")
    ancestors = []
    cur = getattr(node, "parent", None)
    while cur is not None:
        ancestors.append(cur)
        cur = cur.parent
    if not ancestors:
        return None
    target = ancestors[param % len(ancestors)]
    agg = target.agg
    if not (isinstance(agg, tuple) and len(agg) == 2):
        return None
    a, b = agg
    if isinstance(a, int) and isinstance(b, int):
        target.agg = (a + 1, b)                   # BT_c (units, edges)
        return {"detail": f"BT agg {agg!r} -> {(a + 1, b)!r} at height "
                          f"{target.height}"}
    try:                                          # LSDS (cadj, memb) arrays
        i = param % len(b)
        b[i] = not bool(b[i])
        return {"detail": f"LSDS memb[{i}] flipped at height "
                          f"{target.height}"}
    except Exception:
        return None


def _corrupt_serve_batch(param: int, ctx: dict) -> Optional[dict]:
    """Drop or duplicate one op of a coalesced batch stream."""
    ops = ctx.get("ops")
    if not ops:
        return None
    i = param % len(ops)
    if (param // max(len(ops), 1)) % 2 == 0:
        new_ops = ops[:i] + ops[i + 1:]
        return {"detail": f"dropped op {ops[i]!r}", "ops": new_ops}
    new_ops = ops[:i + 1] + [ops[i]] + ops[i + 1:]
    return {"detail": f"duplicated op {ops[i]!r}", "ops": new_ops}


def _corrupt_sparsify_weight(param: int, ctx: dict) -> Optional[dict]:
    """Skew the sparsification tree's delta-maintained MSF weight."""
    tree = ctx.get("tree")
    if tree is None or not hasattr(tree, "_msf_weight"):
        return None
    delta = 1.0 + (param % 3)
    tree._msf_weight += delta
    return {"detail": f"incremental msf weight += {delta}"}


def _corrupt_compiled_kernel(param: int, ctx: dict) -> Optional[dict]:
    """Skew one float64 of the compiled backend's flat key mirror.

    Fired from ``ChunkSpace.write_row`` (a write site every surgery
    passes through).  The authoritative object matrix stays intact; the
    corruption only shows through the native kernels' reads, which is
    exactly the torn dual-write the structural tier's
    ``compm.verify_against`` detects.
    """
    space = ctx.get("space")
    compm = getattr(space, "compm", None)
    if compm is None:
        return None
    cid = ctx.get("cid")
    Jcap = compm.Jcap
    j = cid if cid is not None else param % Jcap
    i = param % Jcap
    delta = 0.5 + param % 3
    view = memoryview(compm.buf).cast("d")
    view[2 * (i * Jcap + j)] += delta
    return {"detail": f"compiled mirror C[{i},{j}] weight += {delta}"}


def _tear_wal_record(param: int, ctx: dict) -> Optional[dict]:
    """Truncate a WAL record's ops payload mid-write (torn record).

    Value-returning like ``serve.batch``: the append proceeds with the
    truncated payload but the checksum computed over the *original*
    bytes, exactly the on-disk shape of a crash mid-append.  Detected by
    the structural-tier log scan and classified at restore time
    (dropped-and-reported when final, ``WALCorruptionError`` otherwise).
    """
    payload = ctx.get("payload")
    if not payload:
        return None
    cut = param % len(payload)
    return {"detail": f"WAL record seq={ctx.get('seq')} payload torn at "
                      f"byte {cut}/{len(payload)}",
            "payload": payload[:cut]}


def _lose_wal_tail(param: int, ctx: dict) -> Optional[dict]:
    """Drop the just-committed WAL record (power-cut lost tail).

    ``synchronous=NORMAL`` trades the power-loss window for speed; this
    corruptor models that window by deleting the record the caller just
    had acknowledged.  The front's next append lands past the log's
    tail and raises a structured ``WALCorruptionError`` -- a lost
    durable write must never pass silently.
    """
    log = ctx.get("log")
    seq = ctx.get("seq")
    if log is None or seq is None:
        return None
    log._drop_record(seq)
    return {"detail": f"WAL record seq={seq} lost after acknowledged "
                      f"commit"}


def _truncate_snapshot(param: int, ctx: dict) -> Optional[dict]:
    """Truncate a snapshot file's bytes before the atomic rename.

    Models a crash (or full disk) mid-serialization: the visible file is
    complete-looking but short.  The file checksum catches it; restore
    skips-and-reports the candidate and anchors on an older snapshot.
    """
    data = ctx.get("data")
    if not data:
        return None
    cut = param % len(data)
    return {"detail": f"snapshot seq={ctx.get('seq')} truncated at byte "
                      f"{cut}/{len(data)}",
            "data": data[:cut]}


def _kill_cluster_worker(param: int, ctx: dict) -> Optional[dict]:
    """SIGKILL one live worker of a sharded serving cluster.

    Unlike the in-place corruptors above this one is a *process* fault:
    the coordinator must notice the silence (broken pipe / liveness probe
    / stale store heartbeat) and walk the dead-worker recovery ladder.
    """
    coord = ctx.get("coordinator")
    if coord is None:
        return None
    victim = coord.fault_kill_worker(param)
    if victim is None:
        return None
    return {"detail": f"SIGKILLed cluster worker {victim}"}


#: site name -> (description, corruptor)
SITES: dict[str, tuple[str, Callable[[int, dict], Optional[dict]]]] = {
    "pram.cell": (
        "corrupt one interned PRAM memory cell between machine steps",
        _corrupt_pram_cell),
    "pram.plan": (
        "skew a cached TracePlan's recorded stats / effect count",
        _corrupt_pram_plan),
    "tt.agg": (
        "tamper a 2-3-tree internal aggregate after a refresh",
        _corrupt_tt_agg),
    "serve.batch": (
        "drop or duplicate one op of a coalesced serving batch",
        _corrupt_serve_batch),
    "sparsify.weight": (
        "skew the sparsification tree's incremental MSF weight",
        _corrupt_sparsify_weight),
    "compiled.kernel": (
        "skew one float64 of the compiled backend's flat key mirror",
        _corrupt_compiled_kernel),
    "cluster.worker": (
        "SIGKILL one live worker process of a sharded serving cluster",
        _kill_cluster_worker),
    "wal.append": (
        "tear one durable-log record's payload mid-append",
        _tear_wal_record),
    "wal.fsync": (
        "lose the just-acknowledged durable-log tail record",
        _lose_wal_tail),
    "snapshot.write": (
        "truncate one snapshot file's bytes before the atomic rename",
        _truncate_snapshot),
}


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fault:
    """One scheduled corruption: fire on the ``nth`` visit to ``site``."""

    site: str
    nth: int
    param: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown injection site {self.site!r}; "
                             f"registered: {sorted(SITES)}")
        if self.nth < 0:
            raise ValueError("nth must be >= 0")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults plus the record of what fired.

    ``visits`` counts armed passes through each site; ``log`` records every
    fault that came due -- ``outcome`` is ``"injected"`` when the corruptor
    mutated state and ``"skipped"`` when the context offered nothing
    corruptible (a skipped fault provably injected no corruption).
    """

    faults: list[Fault] = field(default_factory=list)
    label: str = ""
    visits: dict[str, int] = field(default_factory=dict)
    log: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._due: dict[tuple[str, int], Fault] = {
            (f.site, f.nth): f for f in self.faults}

    @classmethod
    def scheduled(cls, seed: int, *, sites: Optional[list[str]] = None,
                  n_faults: int = 8, horizon: int = 200,
                  label: str = "") -> "FaultPlan":
        """Seed-derived schedule over ``sites`` (default: all registered)."""
        rng = random.Random(seed)
        sites = list(SITES) if sites is None else list(sites)
        seen: set[tuple[str, int]] = set()
        faults: list[Fault] = []
        for _ in range(n_faults):
            for _attempt in range(64):
                site = rng.choice(sites)
                nth = rng.randrange(horizon)
                if (site, nth) not in seen:
                    seen.add((site, nth))
                    faults.append(Fault(site, nth, rng.randrange(1 << 20)))
                    break
        faults.sort(key=lambda f: (f.site, f.nth))
        return cls(faults=faults, label=label or f"seed={seed}")

    # -- firing ------------------------------------------------------------

    def fire(self, site: str, ctx: dict) -> Optional[dict]:
        visit = self.visits.get(site, 0)
        self.visits[site] = visit + 1
        fault = self._due.get((site, visit))
        if fault is None:
            return None
        err: Optional[str] = None
        try:
            rec = SITES[site][1](fault.param, ctx)
        except Exception as exc:  # a corruptor must never take down the host
            rec = None
            err = f"corruptor error: {exc!r}"
        detail = (rec["detail"] if rec is not None
                  else err or "context not corruptible")
        entry = {
            "site": site, "nth": visit, "param": fault.param,
            "outcome": "injected" if rec is not None else "skipped",
            "detail": detail,
        }
        self.log.append(entry)
        if rec is None:
            return None
        # value-returning corruption (serve.batch ops, wal.append payload,
        # snapshot.write data): pass every non-detail key back to the site
        extra = {k: v for k, v in rec.items() if k != "detail"}
        if extra:
            entry["replaced"] = sorted(extra)
            if "ops" in extra:
                entry["replaced_ops"] = True
            return {**extra, "entry": entry}
        return {"entry": entry}

    # -- reporting ---------------------------------------------------------

    def injected(self) -> list[dict]:
        return [e for e in self.log if e["outcome"] == "injected"]

    def skipped(self) -> list[dict]:
        return [e for e in self.log if e["outcome"] == "skipped"]

    def unreached(self) -> list[Fault]:
        """Scheduled faults whose site never accumulated enough visits."""
        fired = {(e["site"], e["nth"]) for e in self.log}
        return [f for f in self.faults if (f.site, f.nth) not in fired]

    def report(self) -> dict:
        return {
            "label": self.label,
            "scheduled": len(self.faults),
            "injected": len(self.injected()),
            "skipped": len(self.skipped()),
            "unreached": len(self.unreached()),
            "visits": dict(self.visits),
            "log": list(self.log),
        }


# ---------------------------------------------------------------------------
# module-level arming (the zero-cost-when-disarmed switch)
# ---------------------------------------------------------------------------

#: checked by every instrumented call site; plain global, no indirection
armed: bool = False
_plan: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> None:
    """Arm ``plan``; instrumented sites start feeding it visits."""
    global armed, _plan
    _plan = plan
    armed = True


def disarm() -> None:
    global armed, _plan
    armed = False
    _plan = None


def active_plan() -> Optional[FaultPlan]:
    return _plan


@contextmanager
def injected(plan: FaultPlan):
    """``with faults.injected(plan): ...`` -- arm for the block only."""
    arm(plan)
    try:
        yield plan
    finally:
        disarm()


def fire(site: str, **ctx: Any) -> Optional[dict]:
    """Offer the active plan a visit to ``site``.

    Returns ``None`` when nothing fired; otherwise a dict whose optional
    ``"ops"`` key carries replacement data for sites (``serve.batch``)
    whose corruption is value-returning rather than in-place.
    """
    plan = _plan
    if not armed or plan is None:
        return None
    return plan.fire(site, ctx)
