"""EREW PRAM kernels for the parallel dynamic-MSF engine (Section 3).

Each function launches one lockstep kernel on the shared
:class:`repro.pram.machine.Machine`; the machine verifies that no two
processors touch one memory cell in a step and returns the measured depth,
work and processor count.

Conventions making every access exclusive (documented in DESIGN.md):

* per-endpoint **side records** (``Vertex.sides``) replicate edge data so
  the two endpoint processors of one edge never share a cell;
* reads of a far vertex's ``pc`` / principal copy's ``chunk_id`` are
  **staggered** into 3 sub-steps by the reader's adjacency slot at the far
  end (degree <= 3), the paper's resolution for shared principal copies;
* matrix cells are addressed through stable **row views**, so "processor
  ``p_j`` owns column ``j``" touches pairwise distinct cells -- exactly the
  role of the paper's per-column trees ``S_1..S_J``;
* the 2-3 nodes' ``pos`` field lets the column sweep's unique survivor per
  parent be decided by reading a cell only its own processor touches;
* values carried between consecutive kernels of one operation live in
  per-processor result arrays (private registers).
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

try:
    import numpy as np
except ImportError:  # pure-python fallback; see core._nplite
    from .. import _nplite as np  # type: ignore[no-redef]

from ...pram.machine import KernelStats, Machine, Nop, Read, Write
from ...structures import two_three_tree as tt
from ..chunks import Chunk, ChunkSpace
from ..model import INF_KEY, Key, Occurrence

__all__ = [
    "get_edge_assignments",
    "rebuild_row_kernel",
    "entry_pair_kernel",
    "path_refresh_kernel",
    "column_sweep_kernel",
    "gamma_argmin_kernel",
    "verify_candidates_kernel",
    "log2c",
]

_run_ids = itertools.count()


def log2c(x: int) -> int:
    """ceil(log2(x)) with log2c(<=1) == 1 (used for analytic charges)."""
    return max(1, math.ceil(math.log2(max(x, 2))))


def _attr(obj, name: str) -> tuple:
    return ("attr", obj, name)


# ---------------------------------------------------------------------------
# shape keys for the audit="fast" trace-replay tier.
#
# Several kernels' op streams have per-step (live, read, write) counts that
# are a pure function of a cheap structural key -- never of the *values* in
# memory.  Under ``audit="fast"`` those kernels ask the machine for the
# compiled plan of their key (`Machine.replay_plan`); on a hit they run a
# host-speed direct equivalent with identical memory effects and charge the
# plan's recorded stats (`Machine.replay`), on a miss they simulate fully
# checked and compile the plan (`Machine.run_recorded`).  The differential
# suites in tests/pram/ pin the "equal key => equal stats and equal
# effects" contract on real workloads.
#
# Shape-key computation is O(changed path), not O(tree): the recursive
# walks below memoize per 2-3-tree vertex in ``Node.scache`` (a
# ``(tag, shape)`` pair), and every structural mutation / leaf-aggregate
# refresh in ``repro.structures.two_three_tree`` invalidates exactly the
# vertices it touches (see ``Node.scache``'s invariant), so a steady-state
# launch recomputes only the vertices the last update changed.
# ---------------------------------------------------------------------------

#: ``Node.scache`` tags (BT_c and LSDS trees are disjoint node sets, but
#: the tag keeps a mixed-up cache read from ever being wrong)
_BT_TAG = 1
_LSDS_TAG = 2


def _bt_shape(node: tt.Node):
    """Structural fingerprint of a BT_c subtree: nested kid tuples with
    per-leaf edge counts (the quantities steering getEdge's branches).
    Memoized in ``node.scache``; leaf-aggregate changes invalidate via
    ``tt.refresh_upward``."""
    sc = node.scache
    if sc is not None and sc[0] == _BT_TAG:
        return sc[1]
    if node.height:
        shape = tuple(_bt_shape(kid) for kid in node.kids)
    else:
        shape = node.agg[1]
    node.scache = (_BT_TAG, shape)
    return shape


def _tree_shape(node: tt.Node) -> tuple:
    """Structural fingerprint of an LSDS subtree (pure nested kid tuples,
    leaves are ``()``), which fixes every branch of the column sweep.
    Memoized in ``node.scache`` (structure-only: in-place aggregate
    refreshes keep the cache valid)."""
    sc = node.scache
    if sc is not None and sc[0] == _LSDS_TAG:
        return sc[1]
    shape = tuple(_tree_shape(kid) for kid in node.kids)
    node.scache = (_LSDS_TAG, shape)
    return shape


# ---------------------------------------------------------------------------
# host bracket simulator for the tournament family.
#
# The 4-phase tournament programs (Lemma 3.1 and the MWR argmins) branch on
# *values*, so no purely structural key covers them -- but their per-step
# op counts are a pure function of the bracket *outcome*: which player
# survives each match, and as which child (a losing left child plays a full
# 4-op phase, a losing right child exits after the phase's read).  The
# simulator below replays the exact comparison semantics of the kernel
# programs on the host -- right child wins iff ``rkey < lkey`` strictly,
# ties keep the left child, a lone child propagates -- producing (a) the
# outcome profile, which together with ``leaves`` (fixing every player's
# node path, hence its left/right parity per level) determines the complete
# per-step (live, reads, writes) fingerprint, and (b) the per-target
# winners, which are the kernel's visible memory effects.  Keying the
# replay tier by the outcome profile is therefore exactly as fine as the
# machine's own fingerprint -- and no finer.
# ---------------------------------------------------------------------------

def _bracket_plan(entries, min_leaves: int = 1):
    """Simulate the 4-phase bracket; ``entries`` is the full (key, target)
    list (``None``-target entries field no program).

    Returns ``(leaves, outcome, winners)``: ``outcome`` is a sorted tuple
    of per-player ``(k, exit_level, kind)`` records with ``kind`` 0 = lost
    as left child, 1 = lost as right child, 2 = winner (level counted from
    the leaves; winners exit at ``log2(leaves)``); ``winners`` maps each
    target to its winning key.
    """
    n = len(entries)
    leaves = min_leaves
    while leaves < n:
        leaves *= 2
    # per target, its players as (node, key, k) in node order: siblings
    # (an even node and its successor) are adjacent at every level
    players: dict = {}
    for k, (key, tgt) in enumerate(entries):
        if tgt is not None:
            players.setdefault(tgt, []).append((leaves + k, key, k))
    height = leaves.bit_length() - 1
    exits: list[tuple[int, int, int]] = []
    winners: dict = {}
    for tgt, row in players.items():
        for level in range(1, height + 1):
            nxt = []
            i, m = 0, len(row)
            while i < m:
                node, key, k = row[i]
                if not node & 1 and i + 1 < m and row[i + 1][0] == node + 1:
                    _rn, rkey, rk = row[i + 1]
                    if rkey < key:    # strict win by the right child
                        exits.append((k, level, 0))
                        nxt.append((node >> 1, rkey, rk))
                    else:             # ties and lkey <= rkey: left survives
                        exits.append((rk, level, 1))
                        nxt.append((node >> 1, key, k))
                    i += 2
                else:                 # lone child propagates (full 4-op phase)
                    nxt.append((node >> 1, key, k))
                    i += 1
            row = nxt
        _node, key, k = row[0]
        winners[tgt] = key
        exits.append((k, height, 2))
    exits.sort()
    return leaves, tuple(exits), winners


# ---------------------------------------------------------------------------
# getEdge (Section 3, "Assigning edges"): processor p_k locates the k'th
# edge endpoint charged to chunk c via the edge counters of BT_c.
# ---------------------------------------------------------------------------

def get_edge_assignments(
    machine: Machine, chunk: Chunk,
) -> tuple[list[Optional[tuple[Occurrence, int]]], KernelStats]:
    """Assign processor ``k`` to the ``k``-th edge endpoint of ``chunk``.

    Returns (``assign``, stats) where ``assign[k]`` is ``(occurrence,
    slot)`` -- the principal copy and the index into its vertex adjacency --
    for 0-based ``k < n_edges``.  Depth ``O(log K)``, ``n_edges`` processors.
    """
    root = chunk.bt_root
    assert root is not None, "getEdge requires BT_c (ParChunkSpace)"
    n_edges = chunk.n_edges
    if n_edges == 0:
        return [], KernelStats(label="getEdge", launches=1)
    key = ("getEdge", _bt_shape(root)) if machine.audit == "fast" else None
    if key is not None:
        plan = machine.replay_plan(key)
        if plan is not None:
            # direct equivalent: ranks are assigned in BT leaf order, and
            # within one principal copy the slots ascend with the rank (the
            # probe phase resolves rank r - d to slot e_cnt - 1 - d)
            out: list = []
            for lf in tt.iter_leaves(root):
                for slot in range(lf.agg[1]):
                    out.append((lf.item, slot))
            return out, machine.replay(plan, "getEdge", n_effects=n_edges)
    height = root.height
    # `vertex` scratch array, 1-based ranks, +3 slack for the probe phase
    scratch: list = [None] * (n_edges + 4)
    sid = machine.mem.register(scratch)
    results: list = [None] * n_edges
    rid = machine.mem.register(results)

    def cellv(i: int) -> tuple:
        return ("idx", sid, i)

    def prog(k: int):  # k is the 1-based rank
        # seeding: p_1 places the root at the rank of its rightmost edge
        if k == 1:
            agg = yield Read(_attr(root, "agg"))
            ec = agg[1]  # (units, edges) aggregate; rank of rightmost edge
            yield Write(cellv(ec), root)
        else:
            yield Nop()
            yield Nop()
        # descend one level per phase; 8 lockstep steps per phase
        for _phase in range(height):
            node = yield Read(cellv(k))
            if node is None or node.is_leaf:
                for _ in range(7):
                    yield Nop()
                continue
            kids = yield Read(_attr(node, "kids"))
            aggs = []
            for i in range(3):
                if i < len(kids):
                    aggs.append((yield Read(_attr(kids[i], "agg"))))
                else:
                    yield Nop()
            # rightmost-edge ranks per child (right to left); my own rank k
            # is the rank of the rightmost edge in `node`'s subtree
            writes = []
            r = k
            for child, agg in zip(reversed(kids), reversed(aggs)):
                e_cnt = agg[1]
                if e_cnt > 0:
                    writes.append((r, child))
                    r -= e_cnt
            for i in range(3):
                if i < len(writes):
                    yield Write(cellv(writes[i][0]), writes[i][1])
                else:
                    yield Nop()
        # probe phase: my leaf is at vertex[k], [k+1] or [k+2]
        found = None
        for d in range(3):
            node = yield Read(cellv(k + d))
            if found is None and node is not None and node.is_leaf:
                e_cnt = node.agg[1]
                slot = e_cnt - 1 - d
                if slot >= 0:
                    found = (node.item, slot)
        if found is not None:
            yield Write(("idx", rid, k - 1), found)

    progs = [prog(k) for k in range(1, n_edges + 1)]
    if key is not None:
        stats = machine.run_recorded(key, progs, label="getEdge",
                                     n_effects=n_edges)
    else:
        stats = machine.run(progs, label="getEdge")
    assert all(r is not None for r in results), "getEdge left ranks unassigned"
    return list(results), stats


# ---------------------------------------------------------------------------
# edge-data gather: from (occurrence, slot) to (key, target chunk id, edge)
# ---------------------------------------------------------------------------

def _gather_targets(
    machine: Machine,
    assignments: list[tuple[Occurrence, int]],
) -> tuple[list[tuple[Key, Optional[int], object]], KernelStats]:
    """Per assigned endpoint, read (key, far principal's chunk id, edge).

    Far-side reads are staggered by the adjacency slot at the far vertex so
    at most one of the <=3 contenders reads a cell per sub-step.
    """
    key = None
    if machine.audit == "fast":
        # every program runs the same 18 fixed steps; only the stagger
        # distribution (slot / slot_far histograms) shifts per-step counts
        direct: list = []
        near = [0, 0, 0]
        far_h = [0, 0, 0]
        for occ, slot in assignments:
            srec = occ.vertex.sides[slot]
            near[slot] += 1
            far_h[srec.slot_far] += 1
            direct.append((srec.key, srec.far.pc.chunk_id, srec.edge))
        key = ("gather", tuple(near), tuple(far_h))
        plan = machine.replay_plan(key)
        if plan is not None:
            return direct, machine.replay(plan, "gather",
                                          n_effects=len(assignments))
    out: list = [None] * len(assignments)
    oid = machine.mem.register(out)

    def prog(k: int, occ: Occurrence, slot: int):
        # (occ,'vertex') and (vertex,'sides') are shared by the <=3
        # processors assigned to one principal copy: stagger by my slot
        vtx = None
        sides = None
        for s in range(3):
            if s == slot:
                vtx = yield Read(_attr(occ, "vertex"))
                sides = yield Read(_attr(vtx, "sides"))
            else:
                yield Nop()
                yield Nop()
        srec = yield Read(("idx", machine.mem.register(sides), slot))
        key = yield Read(_attr(srec, "key"))
        far = yield Read(_attr(srec, "far"))
        slot_far = yield Read(_attr(srec, "slot_far"))
        edge = yield Read(_attr(srec, "edge"))
        # far principal copy + its chunk id: stagger by slot_far
        far_pc = None
        for s in range(3):
            if s == slot_far:
                far_pc = yield Read(_attr(far, "pc"))
            else:
                yield Nop()
        target = None
        for s in range(3):
            if s == slot_far:
                target = yield Read(_attr(far_pc, "chunk_id"))
            else:
                yield Nop()
        yield Write(("idx", oid, k), (key, target, edge))

    progs = [prog(k, occ, slot) for k, (occ, slot) in enumerate(assignments)]
    if key is not None:
        stats = machine.run_recorded(key, progs, label="gather",
                                     n_effects=len(assignments))
    else:
        stats = machine.run(progs, label="gather")
    return list(out), stats


# ---------------------------------------------------------------------------
# tournament forest (Lemma 3.1): J trees of 3K leaves, 4 synchronous phases
# ---------------------------------------------------------------------------

def _tournament_forest(
    machine: Machine,
    entries: list[tuple[Key, Optional[int]]],
    sink,  # callable target_id -> address receiving the winning key
    label: str,
) -> KernelStats:
    """Run the paper's per-target tournaments; winners write to ``sink``.

    Under ``audit="fast"`` the bracket is first simulated on the host
    (:func:`_bracket_plan`); the outcome profile keys the machine's
    trace-replay tier, and on a plan hit only the winners' sink writes --
    the kernel's semantically visible effects -- are applied (the
    per-match scratch registers carry a fresh run id and are never read
    after the launch).
    """
    n = len(entries)
    if n == 0:
        return KernelStats(label=label, launches=1)
    key = None
    if machine.audit == "fast":
        leaves, outcome, winners = _bracket_plan(entries)
        if not outcome:  # every target was None: no programs, no launch
            return KernelStats(label=label, launches=1)
        key = (label, leaves, outcome)
        plan = machine.replay_plan(key)
        if plan is not None:
            write = machine.mem.write
            for tgt, wkey in winners.items():
                write(sink(tgt), wkey)
            return machine.replay(plan, label, n_effects=len(winners))
    else:
        leaves = 1
        while leaves < n:
            leaves *= 2
    run = next(_run_ids)

    def cell(target: int, node: int) -> tuple:
        return machine.mem.reg(("tf", run, target, node))

    def prog(k: int, key: Key, target: int):
        node = leaves + k
        while node > 1:
            parent = node // 2
            if node % 2 == 0:  # left child: phases 1..4
                yield Write(cell(target, parent), key)
                yield Nop()
                yield Nop()
                cur = yield Read(cell(target, parent))
                if cur != key and cur < key:
                    return
            else:  # right child
                yield Nop()
                cur = yield Read(cell(target, parent))
                if cur is None or key < cur:
                    yield Write(cell(target, parent), key)
                else:
                    return
                yield Nop()
            node = parent
        yield Write(sink(target), key)

    programs = [prog(k, ekey, tgt) for k, (ekey, tgt) in enumerate(entries)
                if tgt is not None]
    if not programs:
        return KernelStats(label=label, launches=1)
    if key is not None:
        return machine.run_recorded(key, programs, label=label,
                                    n_effects=len(winners))
    return machine.run(programs, label=label)


def rebuild_row_kernel(machine: Machine, space: ChunkSpace,
                       chunk: Chunk) -> KernelStats:
    """Parallel CAdj-row rebuild + column mirror (Lemma 3.1).

    Depth ``O(log K + log J)``, ``O(J + K)`` processors; identical result to
    the sequential ``ChunkSpace.rebuild_row``.
    """
    assert chunk.id is not None
    cid = chunk.id
    total = KernelStats(label="rebuild_row")
    row = space.row_views[cid]
    rid = machine.mem.register(row, name=f"C_row[{cid}]")
    J = space.Jcap
    fast = machine.audit == "fast"

    # 1. clear the row: J processors, one step
    fkey = ("fill", J) if fast else None
    fplan = machine.replay_plan(fkey) if fkey is not None else None
    if fplan is not None:
        row[:] = space.inf_row  # one vectorized fill, same INF_KEY cells
        total.add(machine.replay(fplan, "fill", n_effects=J))
    else:
        def clear(j: int):
            yield Write(("idx", rid, j), INF_KEY)

        progs = [clear(j) for j in range(J)]
        total.add(machine.run_recorded(fkey, progs, label="fill",
                                       n_effects=J)
                  if fkey is not None else machine.run(progs, label="fill"))

    # 2. getEdge + gather + tournament forest
    if chunk.n_edges:
        assign, s1 = get_edge_assignments(machine, chunk)
        total.add(s1)
        targets, s2 = _gather_targets(machine, assign)
        total.add(s2)
        entries = [(key, tgt) for (key, tgt, _e) in targets]
        s3 = _tournament_forest(
            machine, entries, lambda tgt: ("idx", rid, tgt), "tournament")
        total.add(s3)

    # 3. mirror the row into column cid: p_j copies C[cid, j] -> C[j, cid]
    mkey = ("mirror", J) if fast else None
    mplan = machine.replay_plan(mkey) if mkey is not None else None
    if mplan is not None:
        # vectorized column store; the (cid, cid) overlap copies itself
        space.C[:, cid] = row
        total.add(machine.replay(mplan, "mirror", n_effects=J))
        return total

    def mirror(j: int):
        val = yield Read(("idx", rid, j))
        yield Write(("idx", machine.mem.register(space.row_views[j]), cid), val)

    progs = [mirror(j) for j in range(J)]
    total.add(machine.run_recorded(mkey, progs, label="mirror",
                                   n_effects=J)
              if mkey is not None else machine.run(progs, label="mirror"))
    return total


def entry_pair_kernel(machine: Machine, space: ChunkSpace,
                      c1: Chunk, c2: Chunk) -> KernelStats:
    """Parallel recomputation of the (c1, c2) matrix entries after an edge
    deletion -- a single tournament over c1's edges filtered to c2
    (the paper's edge-deletion change (2), O(log K) depth, O(K) procs)."""
    assert c1.id is not None and c2.id is not None
    total = KernelStats(label="entry_pair")
    i1, i2 = c1.id, c2.id
    fast = machine.audit == "fast"
    row1, row2 = space.row_views[i1], space.row_views[i2]
    r1 = machine.mem.register(row1)
    r2 = machine.mem.register(row2)

    pkey = ("preset", i1 == i2) if fast else None
    pplan = machine.replay_plan(pkey) if pkey is not None else None
    if pplan is not None:
        row1[i2] = INF_KEY
        if i1 != i2:
            row2[i1] = INF_KEY
        total.add(machine.replay(pplan, "preset",
                                 n_effects=1 if i1 == i2 else 2))
    else:
        def preset():
            yield Write(("idx", r1, i2), INF_KEY)
            if i1 != i2:
                yield Write(("idx", r2, i1), INF_KEY)

        total.add(machine.run_recorded(pkey, [preset()], label="preset",
                                       n_effects=1 if i1 == i2 else 2)
                  if pkey is not None
                  else machine.run([preset()], label="preset"))
    if c1.n_edges:
        assign, s1 = get_edge_assignments(machine, c1)
        total.add(s1)
        targets, s2 = _gather_targets(machine, assign)
        total.add(s2)
        entries = [(key, tgt if tgt == i2 else None)
                   for (key, tgt, _e) in targets]
        s3 = _tournament_forest(machine, entries,
                                lambda tgt: ("idx", r1, tgt), "pair_tournament")
        total.add(s3)

        mkey = ("pair_mirror", i1 == i2) if fast else None
        mplan = machine.replay_plan(mkey) if mkey is not None else None
        if mplan is not None:
            if i1 != i2:
                row2[i1] = row1[i2]
            total.add(machine.replay(mplan, "pair_mirror",
                                     n_effects=0 if i1 == i2 else 1))
        else:
            def mirror_back():
                val = yield Read(("idx", r1, i2))
                if i1 != i2:
                    yield Write(("idx", r2, i1), val)

            total.add(machine.run_recorded(
                mkey, [mirror_back()], label="pair_mirror",
                n_effects=0 if i1 == i2 else 1)
                if mkey is not None
                else machine.run([mirror_back()], label="pair_mirror"))
    return total


# ---------------------------------------------------------------------------
# LSDS kernels (Lemma 3.2): per-column path refresh and global column sweep
# ---------------------------------------------------------------------------

def _segment_key(J: int, node: tt.Node) -> tuple:
    """Replay key of one path node's segment: every processor runs the
    identical 8-step program, steered only by the node's kid count."""
    return ("path_refresh_node", J, len(node.kids))


def _refresh_node_host(space: ChunkSpace, node: tt.Node) -> None:
    """Host equivalent of one node's segment: the column-wise min of the
    kids' CAdj rows and the OR of their membership rows (a transient
    single-kid rebalancing node copies its kid)."""
    cadj, memb = node.agg
    for i, kid in enumerate(node.kids):
        if kid.height:
            rk, mk = kid.agg
        else:
            ch: Chunk = kid.item
            rk, mk = space.row_views[ch.id], ch.memb_row
        if i == 0:
            cadj[:] = rk
            memb[:] = mk
        else:
            np.minimum(cadj, rk, out=cadj)
            np.logical_or(memb, mk, out=memb)


def _refresh_programs(machine: Machine, space: ChunkSpace,
                      path: list[tt.Node]) -> list:
    """The J processor programs refreshing ``path``, bottom-up."""
    # descriptor (structure pointers) handed to all processors: a broadcast
    register = machine.mem.register
    descr = []
    for nd in path:
        kids = []
        for kid in nd.kids:
            if kid.is_leaf:
                ch: Chunk = kid.item
                kids.append((register(space.row_views[ch.id]),
                             register(ch.memb_row)))
            else:
                kids.append((register(kid.agg[0]), register(kid.agg[1])))
        descr.append(((register(nd.agg[0]), register(nd.agg[1])), kids))

    def prog(j: int):
        for (cadj_id, memb_id), kids in descr:
            best = INF_KEY
            memb = False
            for i in range(3):
                if i < len(kids):
                    kc = yield Read(("idx", kids[i][0], j))
                    km = yield Read(("idx", kids[i][1], j))
                    if kc < best:
                        best = kc
                    memb = memb or bool(km)
                else:
                    yield Nop()
                    yield Nop()
            yield Write(("idx", cadj_id, j), best)
            yield Write(("idx", memb_id, j), memb)

    return [prog(j) for j in range(space.Jcap)]


def _compose_path_refresh(machine: Machine, space: ChunkSpace, key: tuple,
                          path: list[tt.Node]) -> KernelStats:
    """A whole-path miss: build the path's plan from per-node segment
    plans (see *Composed plans* in :mod:`repro.pram.machine`).  A node
    whose segment shape is known gets the host apply; only an unseen
    shape is simulated, fully checked and unaccounted."""
    J = space.Jcap
    parts = []
    for nd in path:
        skey = _segment_key(J, nd)
        seg = machine.replay_plan(skey)
        if seg is None:
            machine.run_recorded(skey, _refresh_programs(machine, space, [nd]),
                                 label="path_refresh", n_effects=2,
                                 account=False)
            seg = machine.peek_plan(skey)
        else:
            _refresh_node_host(space, nd)
        parts.append(seg)
    return machine.run_composed(key, parts, "path_refresh",
                                n_effects=2 * len(path), part_effects=2)


def path_refresh_kernel(machine: Machine, space: ChunkSpace,
                        leaf: tt.Node) -> KernelStats:
    """Refresh all columns along the leaf-to-root path; p_j owns column j.

    The per-column independence realises the paper's ``S_j`` forest:
    processor ``p_j`` touches only ``(array, j)`` cells, so all accesses are
    exclusive.  Depth ``O(log J)``, ``J`` processors.

    Under ``audit="fast"`` a path shape seen before is one replay; an
    unseen one is composed from per-node segment plans, so an engine
    simulates at most one launch per ``(J, kid count)``.
    """
    path: list[tt.Node] = []
    node = leaf.parent
    while node is not None:
        path.append(node)
        node = node.parent
    if not path:
        return KernelStats(label="path_refresh", launches=1)
    J = space.Jcap
    if machine.audit == "fast":
        # shape = (J, kid count per path node): every processor runs the
        # identical 8-steps-per-node program, values never steer branches
        key = ("path_refresh", J, tuple(len(nd.kids) for nd in path))
        plan = machine.replay_plan(key)
        if plan is not None:
            for nd in path:
                _refresh_node_host(space, nd)
            stats = machine.replay(plan, "path_refresh",
                                   n_effects=2 * len(path))
        else:
            stats = _compose_path_refresh(machine, space, key, path)
    else:
        stats = machine.run(_refresh_programs(machine, space, path),
                            label="path_refresh")
    # structure-descriptor broadcast (standard EREW doubling)
    stats.add(machine.charge(depth=2 * log2c(J), work=J,
                             processors=J, label="descr_bcast"))
    return stats


def column_sweep_kernel(machine: Machine, space: ChunkSpace,
                        roots: list[tt.Node], j: int) -> KernelStats:
    """Update entry ``j`` of every LSDS vertex (the UpdateAdj column sweep).

    One processor per id'd chunk starts at its own leaf; at each level only
    the leftmost child's processor survives to write the parent (reading its
    own ``pos`` cell), exactly the paper's iterative process.  Depth
    ``O(log J)``, ``O(J)`` processors across all LSDSes simultaneously.
    """
    tall = [root for root in roots if root.height]
    if not tall:  # nothing to aggregate in single-leaf LSDSes
        return KernelStats(label="col_sweep", launches=1)
    max_h = max(root.height for root in tall)
    key = None
    if machine.audit == "fast":
        # per-leaf branching is fixed by tree structure alone (pos / kid
        # counts / heights); sorted so the set-iteration order of the
        # registry's long-list roots cannot split equivalent shapes.
        # Key computed *before* any leaf collection: `_tree_shape` is
        # scache-memoized, so the hot hit path never walks the trees.
        key = ("col_sweep", max_h,
               tuple(sorted(_tree_shape(r) for r in tall)))
        plan = machine.replay_plan(key)
        if plan is not None:
            _sweep_incremental(space, tall, j)
            return machine.replay(plan, "col_sweep")
    run = next(_run_ids)
    leaves: list[tt.Node] = []
    for root in tall:
        leaves.extend(tt.iter_leaves(root))

    def sweep_cell(node: tt.Node) -> tuple:
        return machine.mem.reg(("sweep", run, id(node)))

    def prog(leaf: tt.Node):
        chunk: Chunk = leaf.item
        rid = machine.mem.register(space.row_views[chunk.id])
        val = yield Read(("idx", rid, j))
        memb = chunk.id == j
        node: tt.Node = leaf
        for _level in range(max_h):
            yield Write(sweep_cell(node), (val, memb))
            pos = yield Read(_attr(node, "pos"))
            parent = yield Read(_attr(node, "parent"))
            if parent is None or pos != 0:
                return
            kids = yield Read(_attr(parent, "kids"))
            for i in range(3):
                if 0 < i < len(kids):
                    sib = yield Read(sweep_cell(kids[i]))
                    if sib is not None:
                        sval, smemb = sib
                        if sval < val:
                            val = sval
                        memb = memb or smemb
                else:
                    yield Nop()
            cadj_id = machine.mem.register(parent.agg[0])
            memb_id = machine.mem.register(parent.agg[1])
            yield Write(("idx", cadj_id, j), val)
            yield Write(("idx", memb_id, j), memb)
            node = parent

    progs = [prog(leaf) for leaf in leaves]
    if key is not None:
        stats = machine.run_recorded(key, progs, label="col_sweep")
        # the kernel just absorbed the whole column into the swept trees:
        # refresh the dirty-tracking snapshot so the next replay hit can
        # propagate only genuinely-changed entries
        snap = space.col_snap.get(j)
        fresh = space.C[:, j]
        if snap is None:
            space.col_snap[j] = fresh.copy()
        else:
            snap[:] = fresh
        return stats
    return machine.run(progs, label="col_sweep")


def _sweep_direct(space: ChunkSpace, node: tt.Node, j: int):
    """Host equivalent of the column sweep: post-order (val, memb) pull of
    entry ``j`` with the kernel's exact leftmost-wins tie handling."""
    if node.is_leaf:
        chunk: Chunk = node.item
        return space.row_views[chunk.id][j], chunk.id == j
    val, memb = _sweep_direct(space, node.kids[0], j)
    memb = bool(memb)
    for kid in node.kids[1:]:
        sval, smemb = _sweep_direct(space, kid, j)
        if sval < val:
            val = sval
        memb = memb or bool(smemb)
    node.agg[0][j] = val
    node.agg[1][j] = memb
    return val, memb


def _sweep_incremental(space: ChunkSpace, tall: list[tt.Node], j: int) -> None:
    """State-equivalent of the full column sweep on the replay hit path.

    The full sweep recomputes entry ``j`` of *every* internal vertex of the
    swept trees from the leaf inputs ``C[chunk.id][j]``.  Internal
    aggregates are pure functions of those inputs, and every structural
    LSDS mutation re-pulls the vertices it touches with full-row pulls --
    so between sweeps of column ``j``, a vertex can only go stale in
    column ``j`` if some leaf input in its subtree changed.  The space
    keeps a per-column snapshot of ``C[:, j]`` as of the last absorb;
    diffing against it yields exactly the changed leaves, and one
    bottom-up recompute walk per changed leaf (leaf -> root, the kernel's
    leftmost-wins tie handling) restores every stale vertex.  Walks run to
    the root unconditionally: with several dirty leaves per tree, a shared
    ancestor is recomputed again by each later walk, and the last walk
    through any vertex sees all of its children already updated.

    Typical updates dirty O(1) entries, so the hit path does O(changed *
    height) vertex recomputes instead of O(total tree size) -- the measured
    stats are unaffected either way (the replay plan charges the recorded
    kernel cost).
    """
    col = space.C[:, j]
    snap = space.col_snap.get(j)
    if snap is None:
        # first absorb of this column: full recompute, then snapshot
        for root in tall:
            _sweep_direct(space, root, j)
        space.col_snap[j] = col.copy()
        return
    neq = col != snap
    if not neq.any():
        return
    dirty = np.nonzero(neq)[0]
    tall_ids = {id(r) for r in tall}
    row_views = space.row_views
    chunk_of_id = space.chunk_of_id
    for i in dirty:
        ch = chunk_of_id[i]
        if ch is not None and ch.leaf is not None and \
                ch.leaf.parent is not None:
            path: list[tt.Node] = []
            node = ch.leaf.parent
            while node is not None:
                path.append(node)
                node = node.parent
            if id(path[-1]) not in tall_ids:
                # defensively mirror the kernel: a tree outside the swept
                # set is left stale *and* keeps its dirty-snapshot entry
                continue  # pragma: no cover - tall lists are always swept
            for node in path:
                kids = node.kids
                k0 = kids[0]
                if k0.kids:
                    val = k0.agg[0][j]
                    memb = bool(k0.agg[1][j])
                else:
                    cid = k0.item.id
                    val = row_views[cid][j]
                    memb = cid == j
                for kid in kids[1:]:
                    if kid.kids:
                        sval = kid.agg[0][j]
                        smemb = kid.agg[1][j]
                    else:
                        cid = kid.item.id
                        sval = row_views[cid][j]
                        smemb = cid == j
                    if sval < val:
                        val = sval
                    memb = memb or bool(smemb)
                node.agg[0][j] = val
                node.agg[1][j] = memb
        snap[i] = col[i]


# ---------------------------------------------------------------------------
# parallel MWR (Lemma 3.3)
# ---------------------------------------------------------------------------

def gamma_argmin_kernel(
    machine: Machine, space: ChunkSpace,
    cadj1_arr, memb2_arr,
) -> tuple[Optional[tuple[Key, int]], KernelStats]:
    """Build gamma (p_j computes gamma[j]) and tournament its argmin."""
    total = KernelStats(label="gamma")
    J = space.Jcap
    fast = machine.audit == "fast"
    gamma: list = [None] * J
    gid = machine.mem.register(gamma, name="gamma")
    bkey = None
    if fast:
        # fixed 3-step program; only the membership count moves the
        # second step's read tally
        direct: list = []
        ntrue = 0
        for j in range(J):
            if memb2_arr[j]:
                ntrue += 1
                direct.append((cadj1_arr[j], j))
            else:
                direct.append((INF_KEY, j))
        bkey = ("gamma_build", J, ntrue)
    bplan = machine.replay_plan(bkey) if bkey is not None else None
    if bplan is not None:
        gamma[:] = direct
        total.add(machine.replay(bplan, "gamma_build", n_effects=J))
    else:
        a1 = machine.mem.register(cadj1_arr)
        m2 = machine.mem.register(memb2_arr)

        def build(j: int):
            memb = yield Read(("idx", m2, j))
            if memb:
                val = yield Read(("idx", a1, j))
            else:
                yield Nop()
                val = INF_KEY
            yield Write(("idx", gid, j), (val, j))

        progs = [build(j) for j in range(J)]
        total.add(machine.run_recorded(bkey, progs, label="gamma_build",
                                       n_effects=J)
                  if bkey is not None
                  else machine.run(progs, label="gamma_build"))
    # tournament argmin over (key, j) pairs -- ties impossible (j distinct).
    # Every pair plays (one target group), so the bracket outcome fully
    # fixes the op stream incl. the extra leading gamma[j] read.
    tkey = None
    if fast:
        leaves, outcome, winners = _bracket_plan([(p, 0) for p in gamma])
        tkey = ("gamma_argmin", leaves, outcome)
        tplan = machine.replay_plan(tkey)
        if tplan is not None:
            # sink is a fresh-run-id scratch register, read back only by
            # the host below: the winner is taken from the simulation
            total.add(machine.replay(tplan, "gamma_argmin", n_effects=1))
            winner = winners[0]
            if winner[0] == INF_KEY:
                return None, total
            return (winner[0], winner[1]), total
    else:
        leaves = 1
        while leaves < J:
            leaves *= 2
    run = next(_run_ids)
    result_reg = machine.mem.reg(("gamma_min", run))

    def cell(node: int) -> tuple:
        return machine.mem.reg(("gam", run, node))

    def tourney(j: int):
        pair = yield Read(("idx", gid, j))
        node = leaves + j
        while node > 1:
            parent = node // 2
            if node % 2 == 0:
                yield Write(cell(parent), pair)
                yield Nop()
                yield Nop()
                cur = yield Read(cell(parent))
                if cur != pair and cur < pair:
                    return
            else:
                yield Nop()
                cur = yield Read(cell(parent))
                if cur is None or pair < cur:
                    yield Write(cell(parent), pair)
                else:
                    return
                yield Nop()
            node = parent
        yield Write(result_reg, pair)

    progs_t = [tourney(j) for j in range(J)]
    total.add(machine.run_recorded(tkey, progs_t, label="gamma_argmin",
                                   n_effects=1)
              if tkey is not None
              else machine.run(progs_t, label="gamma_argmin"))
    winner = machine.mem.read(result_reg)
    if winner is None or winner[0] == INF_KEY:
        return None, total
    return (winner[0], winner[1]), total


def verify_candidates_kernel(
    machine: Machine, space: ChunkSpace, chat: Chunk, memb1_arr,
) -> tuple[Optional[object], KernelStats]:
    """Scan candidate chunk ``chat``, verify membership in L1, pick lightest.

    The membership reads may contend (several candidate edges can target one
    chunk id), so this single read step runs in CREW mode and the standard
    CREW->EREW simulation of JaJa [12] is charged as an extra
    ``O(log K)``-depth factor -- precisely the reduction Lemma 3.3 invokes.
    """
    total = KernelStats(label="mwr_verify")
    if chat.n_edges == 0:
        return None, total
    assign, s1 = get_edge_assignments(machine, chat)
    total.add(s1)
    targets, s2 = _gather_targets(machine, assign)
    total.add(s2)
    m1 = machine.mem.register(memb1_arr)
    verdicts: list = [None] * len(targets)
    vid = machine.mem.register(verdicts, name="verdicts")
    vkey = None
    if machine.audit == "fast":
        # 2-step program; counts fixed by (participants, non-null
        # targets, membership successes)
        n_nonnull = n_ok = 0
        for (_k, tgt, _e) in targets:
            if tgt is not None:
                n_nonnull += 1
                if memb1_arr[tgt]:
                    n_ok += 1
        vkey = ("verify", len(targets), n_nonnull, n_ok)
    vplan = machine.replay_plan(vkey) if vkey is not None else None
    if vplan is not None:
        for k, (key, tgt, _e) in enumerate(targets):
            if tgt is not None and memb1_arr[tgt]:
                verdicts[k] = key
        total.add(machine.replay(vplan, "verify", n_effects=n_ok))
    else:
        def verify(k: int, key: Key, tgt: Optional[int]):
            if tgt is None:
                yield Nop()
                return
            ok = yield Read(("idx", m1, tgt))  # CREW step (see docstring)
            if ok:
                yield Write(("idx", vid, k), key)
            else:
                yield Nop()

        progs = [verify(k, key, tgt)
                 for k, (key, tgt, _e) in enumerate(targets)]
        if vkey is not None:
            s3 = machine.run_recorded(vkey, progs, label="verify",
                                      mode="crew", n_effects=n_ok)
        else:
            s3 = machine.run(progs, label="verify", mode="crew")
        total.add(s3)
    # CREW->EREW conversion charge for the shared-read step
    total.add(machine.charge(depth=log2c(3 * space.K), work=len(targets),
                             processors=len(targets), label="crew2erew"))
    # final tournament among verified candidates.  Null-verdict players
    # exit after the one leading read; the bracket over the rest is
    # outcome-keyed exactly like the Lemma 3.1 tournaments (the sink is a
    # fresh-run-id scratch register read back only by the host).
    tkey = None
    if machine.audit == "fast":
        leaves, outcome, winners = _bracket_plan(
            [(v, 0 if v is not None else None) for v in verdicts],
            min_leaves=2)
        tkey = ("mwr_final", len(targets), leaves, outcome)
        tplan = machine.replay_plan(tkey)
        if tplan is not None:
            total.add(machine.replay(tplan, "mwr_final",
                                     n_effects=len(winners)))
            best_key = winners.get(0)
            if best_key is None:
                return None, total
            best_edge = next(e for (key, _t, e) in targets
                             if key == best_key)
            return best_edge, total
    else:
        leaves = 1
        while leaves < max(len(targets), 2):
            leaves *= 2
    run = next(_run_ids)
    result_reg = machine.mem.reg(("mwr_min", run))

    def cell(node: int) -> tuple:
        return machine.mem.reg(("mwrt", run, node))

    def tourney(k: int):
        key = yield Read(("idx", vid, k))
        if key is None:
            return
        node = leaves + k
        while node > 1:
            parent = node // 2
            if node % 2 == 0:
                yield Write(cell(parent), key)
                yield Nop()
                yield Nop()
                cur = yield Read(cell(parent))
                if cur != key and cur < key:
                    return
            else:
                yield Nop()
                cur = yield Read(cell(parent))
                if cur is None or key < cur:
                    yield Write(cell(parent), key)
                else:
                    return
                yield Nop()
            node = parent
        yield Write(result_reg, key)

    progs_t = [tourney(k) for k in range(len(targets))]
    if tkey is not None:
        total.add(machine.run_recorded(tkey, progs_t, label="mwr_final",
                                       n_effects=len(winners)))
    else:
        total.add(machine.run(progs_t, label="mwr_final"))
    best_key = machine.mem.read(result_reg)
    if best_key is None:
        return None, total
    best_edge = next(e for (key, _t, e) in targets if key == best_key)
    return best_edge, total
