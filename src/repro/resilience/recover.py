"""Quarantine-and-rebuild recovery -- the *repair* half of the layer.

The library's structures are all rebuildable from small authoritative
registries (an edge multiset), and the MSF under the strict
``(weight, eid)`` order is *unique* -- so recovery never has to trust a
corrupted structure: it quarantines it, rebuilds from the registry, and
differentially verifies the result.  The ladder, in escalation order:

1. **cache eviction + audit degrade** (:func:`recover_machine`) -- a
   machine whose replay tier is suspect drops every compiled
   :class:`~repro.pram.machine.TracePlan` (forcing clean re-records) and
   optionally steps its audit level down one rung (``fast`` -> ``count``
   -> ``strict``), simulating every launch instead of trusting plans.
2. **arena sweep** (:func:`recover_pool`) -- free-listed engines that
   fail the reset-completeness audit are quarantined; quarantined
   engines are held by strong reference and ``release`` refuses them,
   so they can never re-enter the free-list.
3. **backend rebuild** (:func:`rebuild_backend`) -- a serving front's
   poisoned engine is quarantined wholesale (every pooled node engine
   included) and rebuilt from the front's authoritative edge registry,
   then verified; bounded retries, then :class:`QuarantineExhausted`.
4. **batch bisection** (:func:`recover_batch`) -- a batch that failed
   mid-apply is re-run on a rebuilt backend with binary splitting; ops
   that fail in a singleton segment are *rejected* (reported to the
   caller) while every healthy op commits.
5. **durable-artifact rebuild** (:func:`repair_wal`) -- a damaged
   write-ahead log or snapshot set is replaced wholesale: a fresh
   snapshot of the live front's authoritative registry anchors the
   directory at the current epoch, the suspect log is pruned through
   it, and invalid snapshot files are removed -- the same
   never-trust-the-corrupted-copy discipline, applied on disk.

Recovery work is charged through the normal counters -- a rebuilt
engine re-pays its construction and insertion costs on its own machine
and op counter, so post-recovery measurements stay honest (DESIGN.md,
"Resilience").
"""

from __future__ import annotations

from collections import deque

from . import checks
from .errors import QuarantineExhausted

__all__ = ["recover_machine", "recover_pool", "rebuild_backend",
           "recover_batch", "repair_wal"]

#: audit degrade ladder: each level maps to the next-more-verified one
_DEGRADE = {"fast": "count", "count": "strict", "strict": "strict"}


# ------------------------------------------------------------- machines

def recover_machine(machine, *, degrade: bool = True) -> dict:
    """Evict a machine's replay plans; optionally degrade audit.

    Returns a report of how many plans were dropped and the audit
    transition.  After this, every kernel shape re-records from a fully
    checked launch on next sighting -- the plans rebuild themselves clean.
    """
    dropped = machine.purge_replay_caches()
    before = machine.audit
    after = before
    if degrade:
        after = _DEGRADE[before]
        if after != before:
            machine.set_audit(after)
    return {"dropped": dropped, "audit": {"before": before, "after": after}}


# ---------------------------------------------------------------- arena

def recover_pool(pool) -> dict:
    """Sweep an engine arena, quarantining non-pristine free engines.

    Uses the same reset-completeness predicate as the ``"structural"``
    pool check; every offender is removed from the free-list *and*
    registered as quarantined (``release`` will refuse it forever).
    """
    offenders = []
    for key, engine in list(pool.free_engines()):
        problems = checks._reset_problems(engine)
        if problems:
            pool.quarantine(engine)
            offenders.append({"key": repr(key), "problems": problems})
    return {"quarantined": len(offenders), "offenders": offenders}


# -------------------------------------------------------------- backends

def _quarantine_impl(impl) -> None:
    """Retire a suspect backend without recycling anything it owns."""
    fn = getattr(impl, "quarantine", None)
    if fn is not None:
        fn()  # SparsifiedMSF: every node engine -> pool quarantine
    # DegreeReducer backends own nothing pooled; dropping the reference
    # suffices (nothing must be returned to any arena)


def _build_from_registry(front, edges: dict, committed) -> object:
    """A fresh backend holding ``edges`` plus the ``committed`` op replay.

    ``edges`` is the authoritative pre-batch registry (eid -> (u, v, w),
    self-loops included); insertion order is ascending eid, which by MSF
    uniqueness reproduces the same forest regardless of the original
    arrival order.
    """
    impl = front._make_impl()
    for eid in sorted(edges):
        u, v, w = edges[eid]
        impl.insert_edge(u, v, w, eid=eid)
    for op in committed:
        if op[0] == "del":
            impl.delete_edge(op[1])
        else:
            _t, eid, u, v, w = op
            impl.insert_edge(u, v, w, eid=eid)
    return impl


def rebuild_backend(front, *, max_attempts: int = 3,
                    level: str = "cheap") -> dict:
    """Quarantine a serving front's backend and rebuild it from registry.

    Verifies each rebuild with :func:`repro.resilience.checks.check_engine`
    at ``level`` plus the edge-count cross-check; a rebuild that still
    shows findings is itself quarantined and retried (a fresh build pulls
    different -- or no -- pooled engines each time, since quarantine
    evicts the ones it used).  Raises :class:`QuarantineExhausted` after
    ``max_attempts`` dirty rebuilds.
    """
    attempts = 0
    last_findings: list = []
    while attempts < max_attempts:
        attempts += 1
        _quarantine_impl(front._impl)
        front._impl = _build_from_registry(front, front._edges, ())
        front._snapshot = None
        last_findings = checks.check_engine(front._impl, level)
        if front._impl.edge_count() != len(front._edges):
            last_findings = list(last_findings) + [checks.Finding(
                "serve", f"rebuilt backend holds "
                f"{front._impl.edge_count()} edges, registry "
                f"{len(front._edges)}", level)]
        if not last_findings:
            return {"attempts": attempts}
    raise QuarantineExhausted(
        f"backend rebuild still dirty after {attempts} attempts: "
        f"{[str(f) for f in last_findings[:3]]}", attempts=attempts)


# ------------------------------------------------------------- durability

def repair_wal(front) -> dict:
    """Rebuild a front's durable artifacts from the authoritative state.

    The quarantine-and-rebuild discipline applied to the *durable* side:
    a log with torn records, a lost tail, or damaged snapshot files
    cannot be trusted for replay, but the in-memory front still holds
    the authoritative registry -- so recovery writes a fresh snapshot of
    it at the current epoch, prunes the (suspect) log through that seq,
    and removes every snapshot file that fails validation.  After this
    the durable state verifies clean and a restore from it reproduces
    the live front exactly; appends resume at ``epoch + 1``.

    Raises :class:`QuarantineExhausted` if the rebuilt artifacts still
    fail verification (damage that survives a rewrite is not a crash
    artifact).
    """
    import os

    from ..persist.snapshot import list_snapshots, load_snapshot
    from .errors import WALCorruptionError

    sink = front._durable
    problems_before = sink.log.verify()
    # the suspect log takes no appends during the repair: pending ops
    # drain through the normal apply path (reads inside the fingerprint
    # would otherwise trigger a flush that re-hits the damaged log), and
    # the fresh snapshot then covers everything the prune discards
    sink.suspended = True
    try:
        front.flush()
        # bounded retry: under continued injection the rebuild itself can
        # be hit (a torn fresh snapshot); a re-write from the same
        # authoritative registry heals it unless the damage is persistent
        attempts = 0
        while True:
            attempts += 1
            snap_path = front._write_durable_snapshot()
            try:
                load_snapshot(snap_path)
                break
            except WALCorruptionError as exc:
                if attempts >= 3:
                    raise QuarantineExhausted(
                        f"fresh snapshot still invalid after {attempts} "
                        f"writes: {exc}", attempts=attempts) from exc
        pruned = sink.log.prune_through(front._epoch)
    finally:
        sink.suspended = False
    removed: list[str] = []
    for path in list_snapshots(sink.directory):
        if path == snap_path:
            continue
        try:
            load_snapshot(path)
        except WALCorruptionError:
            os.remove(path)
            removed.append(path)
    still = sink.log.verify()
    if still:
        raise QuarantineExhausted(
            f"durable log still dirty after rebuild: {still[:3]}",
            attempts=attempts)
    return {"problems": problems_before, "snapshot": snap_path,
            "pruned_records": pruned, "removed_snapshots": removed,
            "attempts": attempts}


# ----------------------------------------------------------------- batch

def recover_batch(front, batch, exc: BaseException, *,
                  max_attempts: int = 3) -> list[tuple]:
    """Recover a serving front from a failed batch application.

    The backend is presumed poisoned (the batch died mid-apply or failed
    the post-apply audit): it is quarantined and rebuilt from the
    authoritative pre-batch registry, then the *canonical* op stream
    (``batch.ops()`` -- not whatever corrupted stream was applied) is
    re-driven through it with binary splitting.  A segment that fails is
    split and retried; a **singleton** that fails is rejected and
    reported.  After any dirty segment the backend is rebuilt from
    pre-state + committed ops before continuing, so partial effects of a
    poisoned op never survive.

    Returns the rejected ``(op, exception)`` pairs; raises
    :class:`QuarantineExhausted` when the final state fails verification
    even after ``max_attempts`` clean rebuilds.  The bounded retry matters
    under *continued* fault injection: a fault that lands inside the
    recovery itself (corrupting the freshly rebuilt backend) is caught by
    the post-recovery verification, and the next rebuild -- re-driven from
    the same authoritative registry -- heals it unless the corruption is
    persistent.
    """
    pre_edges = dict(front._edges)
    committed: list[tuple] = []
    rejected: list[tuple] = []
    dirty = True          # the original backend is poisoned: rebuild first
    segments: deque[list[tuple]] = deque([list(batch.ops())])
    while segments:
        seg = segments.popleft()
        if dirty:
            _quarantine_impl(front._impl)
            front._impl = _build_from_registry(front, pre_edges, committed)
            dirty = False
        try:
            front._apply_ops(seg)
        except Exception as seg_exc:  # noqa: BLE001 - poisoned op may
            # raise anything; recovery classifies instead of crashing
            dirty = True
            if len(seg) == 1:
                rejected.append((seg[0], seg_exc))
            else:
                mid = len(seg) // 2
                segments.appendleft(seg[mid:])
                segments.appendleft(seg[:mid])
            continue
        committed.extend(seg)
    attempts = 0
    while True:
        attempts += 1
        if dirty:
            _quarantine_impl(front._impl)
            front._impl = _build_from_registry(front, pre_edges, committed)
            dirty = False
        front._snapshot = None
        problems = _recovery_problems(front, pre_edges, committed)
        if not problems:
            return rejected
        if attempts >= max_attempts:
            raise QuarantineExhausted(
                f"post-recovery verification failed: {problems}",
                attempts=attempts)
        dirty = True  # rebuild once more (fault may have hit the recovery)


def _recovery_problems(front, pre_edges: dict, committed) -> str:
    expected = len(pre_edges)
    for op in committed:
        expected += -1 if op[0] == "del" else 1
    got = front._impl.edge_count()
    findings = checks.check_engine(front._impl, "cheap")
    if got != expected or findings:
        return (f"engine holds {got} edges (expected {expected}); "
                f"findings={[str(f) for f in findings[:3]]}")
    return ""
