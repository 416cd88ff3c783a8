"""Tiered invariant checkers -- the *detection* half of the resilience layer.

Every public entry point returns a list of :class:`Finding` records
(empty = clean) instead of raising, so callers can decide between
"log and recover" and "fail loudly".  Three tiers:

``"cheap"``
    O(|MSF| + registries) consistency: the incremental-vs-recomputed
    weight pair, registry cross-counts, serve-layer live-set agreement.
    Safe to run after every batch.
``"structural"``
    every per-structure invariant: chunk DLL contiguity, Euler-tour
    validity, 2-3-tree shape *and* aggregate recomputation, LSDS
    aggregates, replay-plan fingerprint revalidation, interned-memory
    table consistency, engine-arena reset completeness.
``"full"``
    everything, plus the brute-force matrix-``C`` recomputation and the
    Kruskal forest-equality oracle (the strongest, slowest verdict).

The checkers never mutate the structures they inspect, and they never
raise on a *corrupted* structure -- unexpected exceptions inside a check
are themselves converted into findings (a poisoned structure must not be
able to crash its own auditor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "Finding", "check_engine", "check_tree", "check_reducer",
    "check_machine", "check_pool", "check_batched", "check_cluster",
    "check_core", "check_durability", "state_fingerprint",
]

_LEVELS = ("cheap", "structural", "full")
_MASK21 = (1 << 21) - 1


@dataclass(frozen=True)
class Finding:
    """One detected invariant violation."""

    component: str   # "machine" | "reducer" | "tree" | "pool" | "serve"
    message: str
    level: str       # the tier that caught it

    def __str__(self) -> str:  # pragma: no cover - diagnostics only
        return f"[{self.level}/{self.component}] {self.message}"


def _rank(level: str) -> int:
    if level not in _LEVELS:
        raise ValueError(
            f"level must be one of {_LEVELS}, got {level!r}")
    return _LEVELS.index(level)


def _guard(out: list, component: str, level: str, fn) -> None:
    """Run one check body; unexpected exceptions become findings."""
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - corrupted structures may
        # raise anything; the auditor reports instead of crashing
        out.append(Finding(component, f"checker crashed: {exc!r}", level))


# --------------------------------------------------------------- machine


def check_machine(machine, level: str = "structural") -> list[Finding]:
    """Replay-tier cache revalidation for one PRAM :class:`Machine`.

    Structural tier and up: every compiled :class:`TracePlan` must be
    internally consistent with its own recorded fingerprint (depth =
    number of steps, work = sum of per-step reads+writes, processors =
    max per-step live count, and no step issues more ops than it has
    live processors), and the simulator memory must be empty, since
    nothing in it may outlive an update (:meth:`Mem.check_interning`).
    """
    rank = _rank(level)
    out: list[Finding] = []
    if rank < 1:
        return out

    def plans() -> None:
        for key, plan in machine._shaped.data.items():
            fp = plan.fingerprint
            if not fp:
                continue  # plans may legitimately carry no fingerprint
            bad = _fingerprint_problem(fp)
            if bad is not None:
                out.append(Finding(
                    "machine", f"plan {key!r}: {bad}", level))
                continue
            depth = len(fp)
            work = sum(((p >> 21) & _MASK21) + (p & _MASK21) for p in fp)
            procs = max(p >> 42 for p in fp)
            if plan.depth != depth or plan.work != work \
                    or plan.processors != procs:
                out.append(Finding(
                    "machine",
                    f"plan {key!r}: recorded stats (depth={plan.depth}, "
                    f"work={plan.work}, procs={plan.processors}) disagree "
                    f"with its own fingerprint (depth={depth}, work={work}, "
                    f"procs={procs})", level))
            if plan.n_effects is not None and plan.n_effects < 0:
                out.append(Finding(
                    "machine", f"plan {key!r}: negative effect count "
                    f"{plan.n_effects}", level))

    def interning() -> None:
        for problem in machine.mem.check_interning():
            out.append(Finding("machine", f"interning: {problem}", level))

    _guard(out, "machine", level, plans)
    _guard(out, "machine", level, interning)
    return out


def _fingerprint_problem(fp) -> Optional[str]:
    """Per-step arithmetic sanity of one packed fingerprint tuple."""
    for i, p in enumerate(fp):
        if not isinstance(p, int) or p < 0:
            return f"step {i}: non-integer packed entry {p!r}"
        nlive = p >> 42
        nr = (p >> 21) & _MASK21
        nw = p & _MASK21
        if nr + nw > nlive:
            return (f"step {i}: {nr} reads + {nw} writes exceed "
                    f"{nlive} live processors")
        if nlive == 0:
            return f"step {i}: zero live processors recorded"
    return None


# --------------------------------------------------------------- reducer


def check_reducer(red, level: str = "cheap") -> list[Finding]:
    """Checks for one :class:`~repro.core.degree.DegreeReducer`."""
    rank = _rank(level)
    out: list[Finding] = []
    core = red.core

    def weight_pair() -> None:
        inc = core.msf_weight()
        ref = core.msf_weight_recomputed()
        if not _weights_agree(inc, ref):
            out.append(Finding(
                "reducer",
                f"incremental core MSF weight {inc!r} != recomputed "
                f"{ref!r}", "cheap"))

    def registries() -> None:
        for eid, (u, v, _w, _e, hu, hv) in red.real.items():
            if red.chains[u].hosted.get(hu) != eid:
                out.append(Finding(
                    "reducer", f"edge {eid}: host slot {hu} of vertex {u} "
                    f"does not host it", "cheap"))
            if red.chains[v].hosted.get(hv) != eid:
                out.append(Finding(
                    "reducer", f"edge {eid}: host slot {hv} of vertex {v} "
                    f"does not host it", "cheap"))

    _guard(out, "reducer", "cheap", weight_pair)
    _guard(out, "reducer", "cheap", registries)
    if rank < 1:
        return out

    def accounting() -> None:
        in_chains = sum(len(c.nodes) - 1 for c in red.chains.values())
        issued = red._next_gadget - red.n
        returned = len(red._free_gadgets)
        if in_chains + returned != issued:
            out.append(Finding(
                "reducer",
                f"gadget accounting broken: {in_chains} chain gadgets + "
                f"{returned} returned != {issued} issued", level))
        hosted = sum(len(c.hosted) for c in red.chains.values())
        if hosted != 2 * len(red.real):
            out.append(Finding(
                "reducer", f"{hosted} hosted slots for {len(red.real)} "
                f"real edges", level))

    _guard(out, "reducer", level, accounting)
    if getattr(core, "fabric", None) is not None:
        out.extend(_audit_core(core, level))
    machine = getattr(core, "machine", None)
    if machine is not None:
        out.extend(check_machine(machine, level))
    return out


def _audit_core(core, level: str) -> list[Finding]:
    """Deep structural audit of one sparse engine, as findings."""
    from ..core.audit import audit
    out: list[Finding] = []
    full = _rank(level) >= 2
    try:
        audit(core, matrix=full, forest=full)
    except AssertionError as exc:
        out.append(Finding("reducer", f"structural audit: {exc}", level))
    except Exception as exc:  # noqa: BLE001 - corrupted structures
        out.append(Finding(
            "reducer", f"structural audit crashed: {exc!r}", level))
    space = getattr(getattr(core, "fabric", None), "space", None)
    # compiled backend: the flat float64 mirror must agree entrywise with
    # the authoritative object matrix (catches a torn dual-write, e.g.
    # the seeded ``compiled.kernel`` fault)
    compm = getattr(space, "compm", None)
    if compm is not None:
        def flat_mirror_agrees() -> None:
            for msg in compm.verify_against(space.C):
                out.append(Finding("compiled", msg, level))
        _guard(out, "compiled", level, flat_mirror_agrees)
    out.extend(_sparse_and_lct_findings(core, space, level))
    return out


def _sparse_and_lct_findings(core, space, level: str) -> list[Finding]:
    """Audits specific to the mirror-bearing backends' acceleration state.

    The live-lane sets (``ChunkSpace._live``) and the compiled link-cut
    forest's flat slabs are *derived* structures: if either drifts from
    the authoritative object state, sparse scans or path queries go
    silently wrong, so the structural tier rechecks both.
    """
    out: list[Finding] = []
    if getattr(space, "_live", None) is not None:
        def lanes_agree() -> None:
            for msg in space.verify_live_lanes():
                out.append(Finding("sparse", msg, level))
        _guard(out, "sparse", level, lanes_agree)
    lct = getattr(core, "lct", None)
    if lct is not None and hasattr(lct, "self_check"):
        def lct_clean() -> None:
            for msg in lct.self_check():
                out.append(Finding("lct", msg, level))
        _guard(out, "lct", level, lct_clean)
    return out


def _weights_agree(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return False
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


# ------------------------------------------------------------------ pool


def check_pool(pool, level: str = "cheap") -> list[Finding]:
    """Checks for an :class:`~repro.core.sparsify.EnginePool` arena.

    Cheap: no quarantined engine sits in the free-list.  Structural and
    up: every free-listed engine is *pristine* -- reset really completed
    (empty registries, no gadget id issued, no chains, zero weight,
    empty change log), which is the invariant ``acquire`` relies on.
    """
    rank = _rank(level)
    out: list[Finding] = []

    def no_quarantined() -> None:
        for key, engine in pool.free_engines():
            if pool.is_quarantined(engine):
                out.append(Finding(
                    "pool", f"quarantined engine in free-list under "
                    f"{key!r}", "cheap"))

    _guard(out, "pool", "cheap", no_quarantined)
    if rank < 1:
        return out

    def pristine() -> None:
        for key, engine in pool.free_engines():
            problems = _reset_problems(engine)
            for msg in problems:
                out.append(Finding(
                    "pool", f"free-listed engine under {key!r} not "
                    f"pristine: {msg}", level))

    _guard(out, "pool", level, pristine)
    return out


def _reset_problems(engine) -> list[str]:
    """Why ``engine`` is not bit-identical to a freshly built reducer."""
    msgs: list[str] = []
    if engine.real:
        msgs.append(f"{len(engine.real)} stale real edges")
    if engine.self_loops:
        msgs.append(f"{len(engine.self_loops)} stale self-loops")
    if engine._chain_edge:
        msgs.append(f"{len(engine._chain_edge)} stale chain edges")
    if engine._next_gadget != engine.n or engine._free_gadgets:
        msgs.append(f"gadget ids issued up to {engine._next_gadget} with "
                    f"{len(engine._free_gadgets)} returned, expected none")
    if engine.chains:
        msgs.append(f"{len(engine.chains)} chains not reset")
    core = engine.core
    if getattr(core, "change_log", None):
        msgs.append(f"core change log holds {len(core.change_log)} entries")
    if getattr(core, "edges", None):
        msgs.append(f"core still registers {len(core.edges)} edges")
    w = core.msf_weight()
    if w != 0.0:
        msgs.append(f"core incremental weight {w!r} != 0.0")
    return msgs


# ------------------------------------------------------------------ tree


def check_tree(tree, level: str = "cheap") -> list[Finding]:
    """Checks for one :class:`~repro.core.sparsify.SparsifiedMSF`.

    Cheap: the delta-maintained ``msf_weight`` against a full
    recomputation, and the root MSF ids against the edge registry.
    Structural: recurse into every materialized node engine (and the
    engine arena, when pooling is on), and check that a non-root node
    runs an engine exactly when it holds two or more edges.  Full:
    additionally the Kruskal oracle over the *global* edge set against
    the root forest.
    """
    from ..core.sparsify import _Leaf

    rank = _rank(level)
    out: list[Finding] = []

    def weight_pair() -> None:
        ids = tree.msf_ids()
        missing = [eid for eid in ids if eid not in tree.edges]
        if missing:
            out.append(Finding(
                "tree", f"root MSF ids {missing[:5]} absent from the edge "
                f"registry", "cheap"))
            return
        inc = tree.msf_weight()
        ref = tree.msf_weight_recomputed()
        if not _weights_agree(inc, ref):
            out.append(Finding(
                "tree", f"incremental MSF weight {inc!r} != recomputed "
                f"{ref!r}", "cheap"))

    _guard(out, "tree", "cheap", weight_pair)
    if rank >= 1:
        for key, node in sorted(tree.nodes.items()):
            if node.has_engine:
                for f in check_reducer(node.engine, level):
                    out.append(Finding(
                        f.component, f"node {key!r}: {f.message}", f.level))
                held = node.engine.edge_count()
                if node is not tree.root and held < 2:
                    out.append(Finding(
                        "tree", f"node {key!r}: engine kept for {held} "
                        f"edge(s)", level))
            elif not isinstance(node, _Leaf) and len(node.edges) > 1:
                out.append(Finding(
                    "tree", f"node {key!r}: {len(node.edges)} edges held "
                    f"without an engine", level))
        if tree._pool is not None:
            out.extend(check_pool(tree._pool, level))
    if rank >= 2:
        def forest() -> None:
            from ..reference.oracle import kruskal
            want = kruskal((u, v, w, eid)
                           for eid, (u, v, w) in tree.edges.items())
            got = tree.msf_ids()
            if got != want:
                out.append(Finding(
                    "tree", f"root forest != Kruskal MSF: extra="
                    f"{sorted(got - want)[:5]} missing="
                    f"{sorted(want - got)[:5]}", level))
        _guard(out, "tree", level, forest)
    return out


# ------------------------------------------------------------------ core


def check_core(core, level: str = "cheap") -> list[Finding]:
    """Checks for a *bare* core engine (``SparseDynamicMSF`` or its
    parallel subclass), outside any facade.

    Cheap: the delta-maintained ``msf_weight`` against a full
    recomputation over the registered edge set.  Structural and up: the
    exhaustive :func:`repro.core.audit.audit` pass (tours, LSDS
    aggregates, matrix ``C``) plus :func:`check_machine` when the engine
    carries a PRAM machine.
    """
    rank = _rank(level)
    out: list[Finding] = []

    def weight_pair() -> None:
        inc = core.msf_weight()
        ref = core.msf_weight_recomputed()
        if not _weights_agree(inc, ref):
            out.append(Finding(
                "core", f"incremental MSF weight {inc!r} != recomputed "
                f"{ref!r}", "cheap"))

    _guard(out, "core", "cheap", weight_pair)
    if rank < 1:
        return out

    def full_audit() -> None:
        from ..core.audit import audit
        audit(core)

    _guard(out, "core", level, full_audit)
    space = getattr(getattr(core, "fabric", None), "space", None)
    compm = getattr(space, "compm", None)
    if compm is not None:
        def flat_mirror_agrees() -> None:
            for msg in compm.verify_against(space.C):
                out.append(Finding("compiled", msg, level))
        _guard(out, "compiled", level, flat_mirror_agrees)
    out.extend(_sparse_and_lct_findings(core, space, level))
    machine = getattr(core, "machine", None)
    if machine is not None:
        out.extend(check_machine(machine, level))
    return out


# ----------------------------------------------------------------- serve


def check_batched(front, level: str = "cheap") -> list[Finding]:
    """Checks for one :class:`~repro.serve.batched.BatchedMSF` front.

    Audits the serving layer's own bookkeeping (the ``_live`` id set vs
    the authoritative ``_edges`` registry vs the backend's edge count;
    pending ops excluded -- they have not been applied) and recurses
    into the backend at the same tier.
    """
    out: list[Finding] = []

    def registries() -> None:
        live = front._live
        edges = front._edges
        if live != set(edges):
            extra = sorted(live - set(edges))[:5]
            missing = sorted(set(edges) - live)[:5]
            out.append(Finding(
                "serve", f"_live does not match the edge registry: "
                f"extra={extra} missing={missing}", "cheap"))
        got = front._impl.edge_count()
        if got != len(edges):
            out.append(Finding(
                "serve", f"backend reports {got} edges, registry holds "
                f"{len(edges)}", "cheap"))

    _guard(out, "serve", "cheap", registries)
    out.extend(check_engine(front._impl, level))
    out.extend(check_durability(front, level))
    return out


def check_durability(front, level: str = "cheap") -> list[Finding]:
    """Checks for a front's attached durable sink (empty when off).

    Cheap: the log's tail seq must equal the front's epoch (a lost
    acknowledged record shows up here before the next append trips on
    it).  Structural and up: the full checksum + hash-chain scan of the
    log (:meth:`~repro.persist.wal.OpLog.verify`) and file validation of
    every snapshot -- a torn WAL record or truncated snapshot becomes a
    ``durability`` finding, never a silent replay hazard.
    """
    rank = _rank(level)
    sink = getattr(front, "_durable", None)
    if sink is None:
        return []
    out: list[Finding] = []

    def seq_sync() -> None:
        last = sink.log.last_seq()
        anchored = max(last, sink.log.base_seq())
        if not sink.suspended and anchored != front._epoch:
            out.append(Finding(
                "durability", f"durable log tail at seq {anchored}, "
                f"front epoch is {front._epoch}", "cheap"))

    _guard(out, "durability", "cheap", seq_sync)
    if rank < 1:
        return out

    def log_scan() -> None:
        for msg in sink.log.verify():
            out.append(Finding("durability", msg, level))

    def snapshots_valid() -> None:
        from ..persist.snapshot import load_snapshot
        from ..resilience.errors import WALCorruptionError
        for path in _snapshot_paths(sink.directory):
            try:
                load_snapshot(path)
            except WALCorruptionError as exc:
                out.append(Finding(
                    "durability", f"invalid snapshot {path}: {exc}",
                    level))

    _guard(out, "durability", level, log_scan)
    _guard(out, "durability", level, snapshots_valid)
    return out


def _snapshot_paths(directory: str) -> list[str]:
    from ..persist.snapshot import list_snapshots
    return list_snapshots(directory)


def check_cluster(front, level: str = "cheap") -> list[Finding]:
    """Checks for one :class:`~repro.serve.clustered.ClusterMSF` front.

    Cheap: the facade's ``_live`` set vs the authoritative registry, the
    per-home eid partition tiling the registry exactly, the boundary
    engine's edge count, and the coordinator-folded ``msf_weight``
    against a recomputation over the merged forest.  Structural: recurse
    into the merge engine (:func:`check_reducer`) and the boundary tree
    (:func:`check_tree`), and cross-check the SQLite store (edge count,
    batch seq, one live claim per shard).  Full: additionally the
    Kruskal oracle over the *global* registry against the merged forest,
    and every live worker's shard fingerprint against a never-crashed
    twin built coordinator-side from the registry.
    """
    from ..cluster.store import BOUNDARY
    rank = _rank(level)
    out: list[Finding] = []
    coord = front._coord

    def registries() -> None:
        live = front._live
        edges = front._edges
        if live != set(edges):
            extra = sorted(live - set(edges))[:5]
            missing = sorted(set(edges) - live)[:5]
            out.append(Finding(
                "cluster", f"_live does not match the edge registry: "
                f"extra={extra} missing={missing}", "cheap"))
        homed: set[int] = set()
        total = 0
        for home, eids in coord.home_eids.items():
            total += len(eids)
            homed |= eids
        if homed != set(edges) or total != len(edges):
            out.append(Finding(
                "cluster", f"per-home eid sets do not tile the registry "
                f"({total} homed ids over {len(edges)} edges)", "cheap"))
        nb = coord.boundary.edge_count()
        want = len(coord.home_eids[BOUNDARY])
        if nb != want:
            out.append(Finding(
                "cluster", f"boundary engine holds {nb} edges, registry "
                f"assigns it {want}", "cheap"))

    def weight_pair() -> None:
        inc = coord.msf_weight
        edges = front._edges
        ref = sum(edges[eid][2] for eid in coord.msf_ids())
        if not _weights_agree(inc, ref):
            out.append(Finding(
                "cluster", f"folded MSF weight {inc!r} != recomputed "
                f"{ref!r}", "cheap"))

    _guard(out, "cluster", "cheap", registries)
    _guard(out, "cluster", "cheap", weight_pair)
    if rank >= 1:
        for f in check_reducer(coord.merge, level):
            out.append(Finding(
                f.component, f"merge engine: {f.message}", f.level))
        for f in check_tree(coord.boundary, level):
            out.append(Finding(
                f.component, f"boundary engine: {f.message}", f.level))

        def store_sync() -> None:
            got = coord.store.edge_count()
            if got != len(front._edges):
                out.append(Finding(
                    "cluster", f"store registry holds {got} edges, "
                    f"coordinator holds {len(front._edges)}", level))
            if coord.store.last_seq() != coord.seq:
                out.append(Finding(
                    "cluster", f"store batch seq {coord.store.last_seq()} "
                    f"!= coordinator seq {coord.seq}", level))
            for s in coord.shard_map.shards():
                claim = coord.store.claim_of(s)
                if claim is None:
                    out.append(Finding(
                        "cluster", f"shard {s} has no claim", level))
                elif claim["worker_id"] != coord.workers[s].worker_id:
                    out.append(Finding(
                        "cluster", f"shard {s} claimed by "
                        f"{claim['worker_id']!r}, coordinator expects "
                        f"{coord.workers[s].worker_id!r}", level))

        _guard(out, "cluster", level, store_sync)
    if rank >= 2:
        def forest() -> None:
            from ..reference.oracle import kruskal
            want = kruskal((u, v, w, eid)
                           for eid, (u, v, w) in front._edges.items())
            got = coord.msf_ids()
            if got != want:
                out.append(Finding(
                    "cluster", f"merged forest != Kruskal MSF: extra="
                    f"{sorted(got - want)[:5]} missing="
                    f"{sorted(want - got)[:5]}", level))

        def workers() -> None:
            from ..cluster.worker import ShardEngine
            for s in coord.shard_map.shards():
                lo, hi = coord.shard_map.bounds(s)
                twin = ShardEngine(lo, hi)
                twin.rebuild_from(
                    (eid, *front._edges[eid])
                    for eid in sorted(coord.home_eids[s]))
                reply = coord.workers[s].request(
                    ("fingerprint",), coord.reply_timeout)
                if reply[1] != twin.fingerprint():
                    out.append(Finding(
                        "cluster", f"shard {s} worker fingerprint differs "
                        f"from registry twin", level))

        _guard(out, "cluster", level, forest)
        _guard(out, "cluster", level, workers)
    out.extend(check_durability(front, level))
    return out


# ------------------------------------------------------------ dispatcher


def check_engine(impl, level: str = "cheap") -> list[Finding]:
    """Dispatch on the backend kind (the facade's ``self_check`` body)."""
    _rank(level)  # validate early
    if hasattr(impl, "nodes") and hasattr(impl, "root"):
        return check_tree(impl, level)
    if hasattr(impl, "chains"):
        return check_reducer(impl, level)
    if hasattr(impl, "_impl"):
        return check_engine(impl._impl, level)
    if hasattr(impl, "fabric"):
        return check_core(impl, level)
    raise TypeError(f"no checker for backend {type(impl).__name__}")


# ----------------------------------------------------------- fingerprint


def state_fingerprint(obj) -> tuple:
    """A comparable digest of the *logical* state of any MSF front.

    ``(sorted live edges, sorted MSF ids, MSF weight re-summed in eid
    order)`` -- deliberately excluding op counters, machine stats and
    incrementally-maintained floats, all of which recovery legitimately
    perturbs (a rebuilt engine re-charges its work).  Because the MSF
    under the strict ``(weight, eid)`` order is unique, two structures
    with equal fingerprints hold the same forest.

    Accepts :class:`~repro.core.msf.DynamicMSF`,
    :class:`~repro.serve.batched.BatchedMSF` (flush first for an exact
    read), :class:`~repro.core.sparsify.SparsifiedMSF` and
    :class:`~repro.core.degree.DegreeReducer`.
    """
    edges = tuple(sorted(_edge_list(obj)))
    by_eid = {eid: w for eid, _u, _v, w in edges}
    msf = tuple(sorted(obj.msf_ids()))
    weight = math.fsum(by_eid[eid] for eid in msf)
    return (edges, msf, weight)


def _edge_list(obj) -> Iterable[tuple[int, int, int, float]]:
    if hasattr(obj, "_edges") and hasattr(obj, "_pending"):  # BatchedMSF
        return ((eid, u, v, w) for eid, (u, v, w) in obj._edges.items())
    if hasattr(obj, "_impl"):                                # DynamicMSF
        return _edge_list(obj._impl)
    if hasattr(obj, "nodes") and hasattr(obj, "root"):       # SparsifiedMSF
        return ((eid, u, v, w) for eid, (u, v, w) in obj.edges.items())
    if hasattr(obj, "chains"):                               # DegreeReducer
        return ((eid, u, v, w)
                for eid, (u, v, w, _e, _hu, _hv) in obj.real.items())
    raise TypeError(f"no edge listing for {type(obj).__name__}")
