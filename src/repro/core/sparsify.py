"""The sparsification tree of Eppstein et al. [4] (Section 5).

General graphs (arbitrary ``m``) are handled by a two-level recursion on
the vertex set:

* the **vertex-partition tree** halves ``[0, n)`` recursively;
* the **edge-partition tree** has a node ``E_ab`` for every unordered pair
  of same-level vertex ranges ``(a, b)``; the edge ``{u, v}`` belongs to the
  unique node per level whose ranges contain its endpoints.

Every internal node maintains a *local graph* -- the union of its
children's MSF edges -- and by Eppstein et al.'s stability property each
graph update triggers at most one insertion plus one deletion per level:
a node applies the child's MSF delta and forwards its *own* net MSF delta
to its parent.  The MSF at the root is the MSF of the whole graph.  The
root keeps the local graph in its own dynamic-MSF instance (a
degree-reduced sparse engine sized ``O(n / 2^level)``); any other node
builds one only when an update would leave it two edges, and drops it
again when an update leaves it with one -- a single edge is its own MSF.

Leaves (both ranges singleton) store the parallel edges of one vertex pair
and contribute the lightest.  Nodes are materialized lazily and retired
again as soon as an update leaves them without edges, and a node engine
allocates its gadget chains and chunk matrix only on first use, so space
is ``O(m log n)`` in the *live* edges ``m`` -- not in every vertex pair
the tree has ever seen.  Engine-free nodes charge no elementary ops,
like leaves.

**Density.**  Sparsification only pays when ``m >> n``: for ``m = O(n)``
Theorem 3.1's engine meets the bound directly.  So a tree runs *flat*
while it has at most ``GROW_ABOVE * n`` live real edges: the root's
engine (capped at ``3n + 8`` edges) holds the real edges themselves,
each update's plan has one station, the root, and no other node exists.
Above that the edge-partition tree is built *beside* the flat engine,
which keeps answering (global rebuilding): every real-graph op moves
``MOVES_PER_OP`` not-yet-moved live edges into the new side, and an
update to an edge the new side already has is applied to both sides.
When the last edge has moved, the sides swap in O(1) and the flat
engine is retired.  Below ``FOLD_BELOW * n`` live edges the same
mechanism feeds a fresh flat root engine and retires the tree.  A
growth that falls back below ``FOLD_BELOW * n``, or a fold that climbs
above ``GROW_ABOVE * n``, drops its half-built side (hysteresis).  No
op moves more than ``MOVES_PER_OP`` edges, so a switch is never an
O(m) spike, and since the MSF is unique under ``(w, eid)`` both sides
hold the same forest when they swap.  The mode is decided per op, when
the op runs, on the serial path and in :meth:`SparsifiedMSF.apply_batch`
alike.

The **parallel sparsification** of Section 5.3 is realized by cost
accounting: per update, each level's local-engine work is independent
(levels use disjoint structures), so the parallel update depth is the
maximum over levels of the per-level engine depth plus the ``O(log n)``
root-to-leaf walk, using ``sum_i O(sqrt(n / 2^i)) = O(sqrt n)`` processors;
``SparsifiedMSF.parallel_cost_of_last_update`` reports exactly that
composition for experiment E6.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

from ..resilience import faults as _faults
from ..resilience.errors import InvalidInputError, UnknownEdgeError
from .chunks import check_engine_backend
from .degree import DegreeReducer
from .model import check_endpoints, check_weight

__all__ = ["SparsifiedMSF", "GROW_ABOVE", "FOLD_BELOW", "MOVES_PER_OP"]

#: a flat tree grows its edge-partition levels above ``GROW_ABOVE * n``
#: live real edges ...
GROW_ABOVE = 2
#: ... and a grown tree folds back to flat below ``FOLD_BELOW * n``
FOLD_BELOW = 1
#: edges a mode switch moves into its half-built side per real-graph op;
#: a growth starting at ``2n + 1`` edges ends by about ``2.5 n``, inside
#: the flat root engine's ``3n + 8`` cap
MOVES_PER_OP = 4


def _split(lo: int, hi: int) -> tuple[tuple[int, int], tuple[int, int]]:
    mid = (lo + hi) // 2
    return (lo, mid), (mid, hi)


def _fold(added: set, removed: set, a, r) -> None:
    """Fold one engine report into the running MSF delta (module-level so
    the hot ``apply`` loop does not rebuild a closure per call)."""
    for x in a:
        if x in removed:
            removed.discard(x)
        else:
            added.add(x)
    for x in r:
        if x in added:
            added.discard(x)
        else:
            removed.add(x)


def _lightest(edges: dict[int, float]) -> Optional[int]:
    if not edges:
        return None
    return min(edges, key=lambda eid: (edges[eid], eid))


def _apply_held(edges: dict[int, float], ins, dels) -> tuple[list, list]:
    """Apply updates to an engine-free edge set whose MSF is its lightest
    edge; return (added, removed) of that one-edge MSF."""
    before = _lightest(edges)
    for eid, _u, _v, w in ins:
        edges[eid] = w
    for eid in dels:
        del edges[eid]
    after = _lightest(edges)
    if before == after:
        return [], []
    return ([after] if after is not None else [],
            [before] if before is not None else [])


def _per_level(plans) -> list[tuple[int, int, int]]:
    """The plans' ``(level, ops, depth)`` marks summed per level, in
    first-visit order."""
    acc: dict[int, tuple[int, int]] = {}
    for plan in plans:
        for level, ops_d, depth_d in plan.levels:
            o, d = acc.get(level, (0, 0))
            acc[level] = (o + ops_d, d + depth_d)
    return [(level, o, d) for level, (o, d) in acc.items()]


def _build_engine(engine_key: tuple) -> DegreeReducer:
    """A fresh node engine for ``(n_local, K, parallel, backend)``."""
    n_local, K, parallel, backend = engine_key
    if parallel:
        from .par import ParallelDynamicMSF
        return DegreeReducer(
            n_local, max_edges=3 * n_local + 8, backend=backend,
            engine_factory=lambda nc: ParallelDynamicMSF(
                nc, K=K, backend=backend))
    return DegreeReducer(n_local, max_edges=3 * n_local + 8, K=K,
                         backend=backend)


class _Leaf:
    """Parallel edges of one vertex pair; contributes the lightest."""

    has_engine = False
    engine = None

    __slots__ = ("edges",)

    def __init__(self) -> None:
        self.edges: dict[int, float] = {}

    def depth_total(self) -> int:
        return 0

    def apply(self, ins, dels, _plan):
        return _apply_held(self.edges, ins, dels)


class _Node:
    """An internal edge-partition node.

    The root always runs a local dynamic-MSF engine (holding the real
    edges themselves while the tree is flat).  Any other node runs one
    only while it holds two or more edges: with at most one edge, that
    edge *is* its MSF, so the node keeps it in ``edges`` and reports
    deltas like a leaf (``engine is None``).  An update that would leave
    it two edges builds the engine first (:meth:`apply`);
    :meth:`SparsifiedMSF._retire_empty` drops it once an update leaves
    the node with one.
    """

    __slots__ = ("level", "arange", "brange", "engine", "edges",
                 "engine_key")

    def __init__(self, level: int, arange: tuple[int, int],
                 brange: tuple[int, int], K: Optional[int],
                 parallel: bool = False, backend: str = "scalar") -> None:
        self.level = level
        self.arange = arange
        self.brange = brange
        if arange == brange:
            n_local = arange[1] - arange[0]
        else:
            n_local = (arange[1] - arange[0]) + (brange[1] - brange[0])
        self.engine_key = (n_local, K, parallel, backend)
        self.engine: Optional[DegreeReducer] = None
        #: eid -> weight of the held edge while engine-free (at most one
        #: between steps: an internal node's local graph is the union of
        #: its children's forests, so it holds one edge per vertex pair)
        self.edges: dict[int, float] = {}

    @property
    def has_engine(self) -> bool:
        return self.engine is not None

    def depth_total(self) -> int:
        """Measured machine depth accumulated by this node's engine
        (0 without one, and for sequential cores)."""
        if self.engine is None:
            return 0
        machine = self.engine.core._machine  # None for sequential cores
        return machine.total.depth if machine is not None else 0

    def _local(self, u: int) -> int:
        alo, ahi = self.arange
        if alo <= u < ahi:
            return u - alo
        blo, _ = self.brange
        return (ahi - alo) + (u - blo)

    def apply(self, ins, dels, plan: "_PropagationPlan") -> tuple[list, list]:
        """Apply updates; return (added eids, removed eids) of the local MSF."""
        engine = self.engine
        if engine is None:
            held = self.edges
            if len(held) + len(ins) - sum(1 for eid in dels
                                          if eid in held) < 2:
                return _apply_held(held, ins, dels)
            engine = self._promote(plan)
        added: set[int] = set()
        removed: set[int] = set()
        local = self._local
        # Insertions FIRST: if the child evicted f in favour of e, inserting
        # e here expels f from this MSF too (cycle property), so the
        # subsequent deletion of f is a cheap non-tree removal.  Processing
        # deletions first would trigger a replacement search whose result
        # the insertion immediately evicts -- correct but needlessly
        # cascading (Eppstein et al.'s stability argument).
        for eid, u, v, w in ins:
            a, r = engine.insert_reported(local(u), local(v), w, eid)
            _fold(added, removed, a, r)
        for eid in dels:
            a, r = engine.delete_reported(eid)
            _fold(added, removed, a, r)
        return list(added), list(removed)

    def _promote(self, plan: "_PropagationPlan") -> DegreeReducer:
        """Build an engine and move the held edge into it."""
        engine = _build_engine(self.engine_key)
        local = self._local
        for eid, w in self.edges.items():
            u, v, _w = plan.edge_info(eid)
            engine.insert_edge(local(u), local(v), w, eid=eid)
        self.edges.clear()
        self.engine = engine
        return engine


class _PropagationPlan:
    """One update's leaf-to-root walk on one side, reified as a plan.

    ``stations`` is the ordered list of node keys the update visits in
    ``nodes`` (leaf first, root last; just the root on a flat side) and
    ``step(pos)`` performs exactly one node's ``apply`` -- returning
    ``True`` when the MSF delta has emptied and the remaining stations
    can be skipped (Eppstein et al.'s stability property).
    :meth:`run_serial` is the one station walk every update path runs,
    so per-node op sequences -- and therefore forests, op counters and
    PRAM depth/work -- are the same on every path.
    """

    __slots__ = ("owner", "nodes", "stations", "init_ins", "carry",
                 "levels", "root_delta", "_winfo")

    def __init__(self, owner: "SparsifiedMSF", nodes: dict, flat: bool,
                 u: int, v: int, ins: Sequence[tuple], dels: Sequence[int],
                 winfo: Optional[dict] = None) -> None:
        self.owner = owner
        self.nodes = nodes
        # materialize the whole path up front, so ``step`` only reads
        # ``nodes``
        self.stations = ([owner._root_key] if flat
                         else list(reversed(owner._path(u, v))))
        for key in self.stations:
            owner._get_node(nodes, key)
        self.init_ins = list(ins)
        self.carry: tuple[list, list] = (
            [eid for eid, _u, _v, _w in ins], list(dels))
        #: per visited station: (level, engine ops delta, machine depth
        #: delta) -- same shape as ``SparsifiedMSF._last_levels``
        self.levels: list[tuple[int, int, int]] = []
        #: net (added, removed) edge ids of this side's *root* MSF, i.e.
        #: the global forest delta of this update (empty on early exit)
        self.root_delta: tuple[list, list] = ([], [])
        self._winfo = winfo

    def edge_info(self, eid: int) -> tuple[int, int, float]:
        """(u, v, w) of ``eid``, falling back to the deleted edge's
        record for the edge this update removes."""
        info = self.owner.edges.get(eid)
        if info is None:
            info = self._winfo[eid]
        return info

    def step(self, pos: int) -> bool:
        """Run station ``pos``; returns ``True`` if the plan is finished."""
        owner = self.owner
        key = self.stations[pos]
        node = self.nodes[key]
        # marks before the step, so an engine this step builds is charged
        # here for re-inserting the edge the node held
        mark = owner._node_ops(node)
        dmark = node.depth_total()
        added_ids, removed_ids = self.carry
        payload = (self.init_ins if pos == 0 else
                   [(eid, *self.edge_info(eid)) for eid in added_ids])
        added_ids, removed_ids = node.apply(payload, removed_ids, self)
        self.levels.append((key[0], owner._node_ops(node) - mark,
                            node.depth_total() - dmark))
        self.carry = (added_ids, removed_ids)
        if key[0] == 0:  # the root: this delta is the global MSF delta
            self.root_delta = (added_ids, removed_ids)
        return not added_ids and not removed_ids

    def run_serial(self) -> None:
        for pos in range(len(self.stations)):
            if self.step(pos):
                return


class _OpStep:
    """One batch op in executor form: :meth:`run_serial` applies it
    through the serial update path and keeps the plans it ran."""

    __slots__ = ("owner", "op", "plans")

    def __init__(self, owner: "SparsifiedMSF", op: tuple) -> None:
        self.owner = owner
        self.op = op
        self.plans: list[_PropagationPlan] = []

    def run_serial(self) -> None:
        self.plans = self.owner._apply_op(self.op)


class _Migration:
    """The half-built side of a mode switch (see the module doc).

    ``nodes`` is that side's node table, its own root included, and
    ``flat`` the mode it will serve in; ``order`` snapshots the live
    edge ids when the switch began, ``cursor`` is how far moving has got
    through them, and ``moved`` holds the live edge ids the side has.
    """

    __slots__ = ("flat", "nodes", "order", "cursor", "moved")

    def __init__(self, flat: bool, order: list[int]) -> None:
        self.flat = flat
        self.nodes: dict[tuple, object] = {}
        self.order = order
        self.cursor = 0
        self.moved: set[int] = set()


class SparsifiedMSF:
    """Dynamic MSF for general graphs with ``f(n)``-bounded updates.

    The public API mirrors the facade: global edge ids, arbitrary degrees,
    parallel edges, self-loops (ignored), and ``m`` decoupled from the
    per-update cost (experiment E6 verifies cost is flat in ``m``).
    ``nodes``/``root``/``flat`` describe the side serving queries;
    ``migration`` is the half-built side while the tree grows or folds.
    """

    def __init__(self, n: int, K: Optional[int] = None, *,
                 parallel: bool = False,
                 backend: str = "scalar") -> None:
        if n < 2:  # raised, not asserted: survives `python -O`
            raise ValueError(f"need at least 2 vertices, got n={n}")
        check_engine_backend("parallel" if parallel else "sequential",
                             backend)
        # Per-instance edge-id counter (a class-level counter would make
        # assigned ids depend on how many other trees the process built,
        # breaking the bit-identical gates between serving fronts and the
        # serial facade replaying the same op stream).
        self._eid = itertools.count(1)
        self.n = n
        self.K = K
        self.parallel = parallel
        self.backend = backend
        self.max_level = max(1, math.ceil(math.log2(n)))
        #: charged ops, EREW violations and PRAM depth/work of node engines
        #: this tree has retired (their counters leave with them)
        self.retired = {"ops": 0, "violations": 0, "depth": 0, "work": 0}
        self.edges: dict[int, tuple[int, int, float]] = {}
        self.self_loops: dict[int, tuple[int, float]] = {}
        self._root_key = (0, (0, n), (0, n))
        self.nodes: dict[tuple, object] = {}
        self.root = self._get_node(self.nodes, self._root_key)
        assert isinstance(self.root, _Node)
        #: the serving side is flat: its root engine holds the real edges
        self.flat = True
        #: the half-built side while the tree grows or folds, else None
        self.migration: Optional[_Migration] = None
        # per touched level: (level, engine ops delta, machine depth delta)
        self._last_levels: list[tuple[int, int, int]] = []
        # incremental MSF weight, maintained from root-level deltas so
        # ``msf_weight()`` is O(1) instead of a sum over ``msf_ids()``
        self._msf_weight = 0.0
        # The vertex-partition tree is a pure function of `n`, so the
        # per-vertex level ranges and the per-pair root-to-leaf node paths
        # never change: memoize them instead of re-deriving each update
        # (per-update `_range_at` descents used to dominate the update path).
        self._range_cache: dict[int, list[tuple[int, int]]] = {}
        self._path_cache: dict[tuple[int, int], list[tuple]] = {}

    # ------------------------------------------------------------ structure

    def _ranges_of(self, u: int) -> list[tuple[int, int]]:
        """``u``'s range at every level 0..max_level (memoized)."""
        ranges = self._range_cache.get(u)
        if ranges is None:
            ranges = []
            lo, hi = 0, self.n
            for _level in range(self.max_level + 1):
                ranges.append((lo, hi))
                if hi - lo > 1:
                    (l1, h1), (l2, h2) = _split(lo, hi)
                    lo, hi = (l1, h1) if u < h1 else (l2, h2)
            self._range_cache[u] = ranges
        return ranges

    def _range_at(self, level: int, u: int) -> tuple[int, int]:
        ranges = self._ranges_of(u)
        return ranges[level] if level < len(ranges) else ranges[-1]

    def _path(self, u: int, v: int) -> list[tuple]:
        """Node keys from the root down to the leaf of pair (u, v)."""
        pair = (u, v) if u <= v else (v, u)
        keys = self._path_cache.get(pair)
        if keys is not None:
            return keys
        ru, rv = self._ranges_of(u), self._ranges_of(v)
        keys = []
        for level in range(self.max_level + 1):
            ra = ru[level] if level < len(ru) else ru[-1]
            rb = rv[level] if level < len(rv) else rv[-1]
            if ra > rb:
                ra, rb = rb, ra
            keys.append((level, ra, rb))
            if ra[1] - ra[0] == 1 and rb[1] - rb[0] == 1:
                break
        self._path_cache[pair] = keys
        return keys

    def _get_node(self, nodes: dict, key: tuple):
        """The node at ``key`` in one side's table, materialized if new."""
        node = nodes.get(key)
        if node is None:
            level, ra, rb = key
            if level > 0 and ra[1] - ra[0] == 1 and rb[1] - rb[0] == 1:
                node = _Leaf()
            else:
                node = _Node(level, ra, rb, self.K, parallel=self.parallel,
                             backend=self.backend)
                if level == 0:  # a root always runs an engine
                    node.engine = _build_engine(node.engine_key)
            nodes[key] = node
        return node

    def self_check(self, level: str = "cheap") -> "list":
        """Tiered structural self-audit; returns a list of findings.

        See :func:`repro.resilience.checks.check_tree` for what each
        level covers.  Empty list = clean.
        """
        from ..resilience import checks
        return checks.check_tree(self, level=level)

    # ------------------------------------------------------------ updates

    def insert_edge(self, u: int, v: int, w: float,
                    eid: Optional[int] = None) -> int:
        return self._insert(u, v, w, eid)[0]

    def delete_edge(self, eid: int) -> None:
        self.delete_reported(eid)

    # ----------------------------------------------- MSF-delta reporting

    def insert_reported(self, u: int, v: int, w: float,
                        eid: Optional[int] = None
                        ) -> tuple[list[int], list[int]]:
        """Insert and return the net *root* MSF delta ``(added, removed)``.

        The same reporting contract :meth:`DegreeReducer.insert_reported`
        offers one tier down: the cluster's coordinator (and any other
        composition tier) needs, per update, which edge ids entered/left
        the global MSF so it can forward an O(1) delta to its own merge
        engine.  Self-loops report an empty delta.
        """
        return self._insert(u, v, w, eid)[1]

    def delete_reported(self, eid: int) -> tuple[list[int], list[int]]:
        """Delete and return the net root MSF delta ``(added, removed)``."""
        if eid not in self.self_loops and eid not in self.edges:
            raise UnknownEdgeError(eid)
        return self._serial(("del", eid))

    def _insert(self, u: int, v: int, w: float, eid: Optional[int]):
        """Validate and apply one insert; returns (eid, root delta)."""
        check_weight(w)
        check_endpoints(u, v, self.n)
        eid = next(self._eid) if eid is None else eid
        if u != v and eid in self.edges:
            raise InvalidInputError(f"duplicate edge id {eid}")
        return eid, self._serial(("ins", eid, u, v, w))

    def _serial(self, op: tuple) -> tuple[list[int], list[int]]:
        """Apply one validated op; returns the global MSF delta."""
        plans = self._apply_op(op)
        if not plans:  # a self-loop
            return [], []
        self._last_levels = _per_level(plans)
        return plans[0].root_delta

    @classmethod
    def for_vertex_range(cls, lo: int, hi: int, K: Optional[int] = None, *,
                         parallel: bool = False) -> "SparsifiedMSF":
        """A shard-scoped tree for the global vertex range ``[lo, hi)``.

        The returned tree's local vertex ids are ``u - lo``; callers (the
        cluster's shard workers) translate at the boundary.  Degenerate
        single-vertex ranges are padded to the engine's ``n >= 2`` floor --
        the pad vertex can never be named by a translated endpoint, so it
        stays isolated and measurement-inert.
        """
        if not (0 <= lo < hi):
            raise ValueError(f"invalid vertex range [{lo}, {hi})")
        return cls(max(2, hi - lo), K=K, parallel=parallel)

    def _apply_op(self, op: tuple) -> list[_PropagationPlan]:
        """Apply one validated op to every side, then steer the mode.

        Returns the plans the op ran: the serving side's first (its root
        delta is the global MSF delta), then the half-built side's copy
        of the op and the edge moves.  A self-loop runs none.
        """
        if op[0] == "ins":
            _t, eid, u, v, w = op
            if u == v:
                self.self_loops[eid] = (u, w)
                return []
            self.edges[eid] = (u, v, w)
            ins, dels, winfo = [(eid, u, v, w)], [], None
        else:
            eid = op[1]
            if eid in self.self_loops:
                del self.self_loops[eid]
                return []
            u, v, w = self.edges.pop(eid)
            ins, dels, winfo = [], [eid], {eid: (u, v, w)}
        plan = self._run_plan(self.nodes, self.flat, u, v, ins, dels, winfo)
        self._fold_root_delta(plan)
        plans = [plan]
        mig = self.migration
        if mig is not None and (ins or eid in mig.moved):
            if ins:
                mig.moved.add(eid)
            else:
                mig.moved.discard(eid)
            plans.append(self._run_plan(mig.nodes, mig.flat, u, v, ins,
                                        dels, winfo))
        self._steer(plans)
        return plans

    def _run_plan(self, nodes: dict, flat: bool, u: int, v: int, ins,
                  dels, winfo) -> _PropagationPlan:
        plan = _PropagationPlan(self, nodes, flat, u, v, ins, dels, winfo)
        plan.run_serial()
        self._retire_empty(plan)
        return plan

    def _steer(self, plans: list) -> None:
        """Start, drop, advance or finish a mode switch after one op;
        the moves' plans are appended to ``plans``."""
        live = len(self.edges)
        grow, fold = live > GROW_ABOVE * self.n, live < FOLD_BELOW * self.n
        mig = self.migration
        if mig is not None and (grow if mig.flat else fold):
            self._retire_side(mig.nodes)  # the switch is moot: drop it
            self.migration = mig = None
        if mig is None:
            if not (grow if self.flat else fold):
                return
            mig = self.migration = _Migration(not self.flat, list(self.edges))
            self._get_node(mig.nodes, self._root_key)
        stop = min(mig.cursor + MOVES_PER_OP, len(mig.order))
        edges = self.edges
        for eid in mig.order[mig.cursor:stop]:
            if eid in edges and eid not in mig.moved:
                mig.moved.add(eid)
                u, v, w = edges[eid]
                plans.append(self._run_plan(mig.nodes, mig.flat, u, v,
                                            [(eid, u, v, w)], [], None))
        mig.cursor = stop
        if stop == len(mig.order):  # every live edge has moved: swap
            self._retire_side(self.nodes)
            self.nodes, self.flat = mig.nodes, mig.flat
            self.root = self.nodes[self._root_key]
            self.migration = None

    def _retire_empty(self, plan: _PropagationPlan) -> None:
        """Shed what one plan left unneeded (never a root).

        A node left without edges is retired; a non-root engine node
        left with one edge copies it out and drops its engine, keeping
        the node engine-free.  The walk goes leaf first and stops at the
        first engine node that keeps two or more edges: those are on
        distinct vertex pairs, so its MSF has two edges and every
        ancestor holds at least two as well.
        """
        nodes = plan.nodes
        for key in plan.stations:
            if key[0] == 0:
                break
            node = nodes[key]
            engine = node.engine
            if engine is not None:
                if engine.edge_count() >= 2:
                    break
                self._retire_engine(node)
            if not node.edges:
                del nodes[key]

    def _retire_engine(self, node: "_Node") -> None:
        """Fold ``node``'s accounting into :attr:`retired`, keep its edge
        (if any) engine-free, and drop the engine."""
        engine = node.engine
        node.edges.update((eid, rec[2]) for eid, rec in engine.real.items())
        node.engine = None
        self._fold_accounting(engine)

    def _retire_side(self, nodes: dict) -> None:
        """Fold the accounting of every engine of a side leaving service
        into :attr:`retired`."""
        for node in nodes.values():
            if node.engine is not None:
                self._fold_accounting(node.engine)

    def _fold_accounting(self, engine: DegreeReducer) -> None:
        core = engine.core
        retired = self.retired
        retired["ops"] += core.ops.grand_total()
        machine = getattr(core, "machine", None)
        if machine is not None:
            total = machine.total
            retired["violations"] += total.violations
            retired["depth"] += total.depth
            retired["work"] += total.work

    def _fold_root_delta(self, plan: _PropagationPlan) -> None:
        """Fold one plan's root MSF delta into the incremental weight."""
        added, removed = plan.root_delta
        if not added and not removed:
            return
        self._msf_weight += (
            sum(plan.edge_info(eid)[2] for eid in added)
            - sum(plan.edge_info(eid)[2] for eid in removed))
        if _faults.armed:  # incremental-weight corruption site
            _faults.fire("sparsify.weight", tree=self)

    # ------------------------------------------------------------ batching

    def apply_batch(self, ops, *, executor=None) -> dict:
        """Apply a pre-coalesced update batch; returns summary stats.

        ``ops`` is a sequence of ``("ins", eid, u, v, w)`` /
        ``("del", eid)`` tuples in a fixed canonical order (the
        ``repro.serve`` layer produces it).  Each op runs, in order,
        through the serial update path -- through ``executor`` (a
        ``repro.serve.LevelExecutor``) when one is given, else directly
        -- so every node sees the op sequence the serial path would feed
        it, the mode is decided per op, and the result is bit-identical
        to the serial path.  ``plans`` and ``stations`` in the result
        count the station walks the batch ran.

        After the batch, ``_last_levels`` holds the per-level aggregate
        ``(level, ops, depth)`` across the whole batch, so
        :meth:`parallel_cost_of_last_update` reports the batch's
        fork-join composition (per-level depths add within a level, the
        max is taken across levels).
        """
        self._reject_bad_ops(ops)
        steps = [_OpStep(self, op) for op in ops]
        if executor is None:
            for step in steps:
                step.run_serial()
        else:
            executor.run(steps)
        plans = [plan for step in steps for plan in step.plans]
        self._last_levels = _per_level(plans)
        return {"ops": len(ops), "plans": len(plans),
                "stations": sum(len(p.levels) for p in plans)}

    def _reject_bad_ops(self, ops) -> None:
        """Raise on the first op the apply loop could not take, before
        any state changes: a bad weight or endpoint, a duplicate edge id
        or an unknown delete, judged against the registry as the ops
        before it in the batch leave it."""
        real: dict[int, bool] = {}    # eid -> live, for eids the batch touched
        loops: dict[int, bool] = {}
        for op in ops:
            if op[0] == "ins":
                _t, eid, u, v, w = op
                check_weight(w)
                check_endpoints(u, v, self.n)
                if u == v:
                    loops[eid] = True
                elif real.get(eid, eid in self.edges):
                    raise InvalidInputError(f"duplicate edge id {eid}")
                else:
                    real[eid] = True
                continue
            eid = op[1]
            if loops.get(eid, eid in self.self_loops):
                loops[eid] = False
            elif real.get(eid, eid in self.edges):
                real[eid] = False
            else:
                raise UnknownEdgeError(eid)

    @staticmethod
    def _node_ops(node) -> int:
        engine = node.engine
        return engine.core.ops.grand_total() if engine is not None else 0

    # ------------------------------------------------------------ queries

    def msf_ids(self) -> set[int]:
        return self.root.engine.msf_ids()

    def msf_edges(self) -> Iterator[tuple[int, int, float, int]]:
        for eid in self.msf_ids():
            u, v, w = self.edges[eid]
            yield (u, v, w, eid)

    def msf_weight(self) -> float:
        """Total MSF weight, delta-maintained from root-level MSF deltas.

        O(1) instead of a sum over ``msf_ids()``; agrees with
        :meth:`msf_weight_recomputed` up to float associativity.
        """
        return self._msf_weight

    def msf_weight_recomputed(self) -> float:
        """Reference full sum over the root MSF (tests / debugging)."""
        return sum(self.edges[eid][2] for eid in self.msf_ids())

    def connected(self, u: int, v: int) -> bool:
        return self.root.engine.connected(u, v)

    def edge_count(self) -> int:
        return len(self.edges) + len(self.self_loops)

    # ------------------------------------------------------------ costs

    def parallel_cost_of_last_update(self) -> dict:
        """Section 5.3 cost composition of the last update.

        The per-level engine updates are independent ("the second class of
        operations ... can be executed independently on each level"), so
        the parallel update depth is the O(log n) root-to-leaf walk plus
        the *maximum* per-level depth; processors add up across levels
        (``sum_i O(sqrt(n/2^i)) = O(sqrt n)``).

        With ``parallel=True`` the per-level depths are *measured* on each
        node's EREW machine; otherwise they are modelled as
        ``O(log(n/2^level))`` per touched engine.
        """
        walk = math.ceil(math.log2(max(self.n, 2)))
        depth = walk
        procs = 0
        for level, ops, mdepth in self._last_levels:
            if ops == 0 and mdepth == 0:
                continue
            n_i = max(2, self.n >> level)
            if self.parallel:
                depth = max(depth, walk + mdepth)
                procs += math.isqrt(n_i)  # per-level pool (Sec. 5.3)
            else:
                depth = max(depth, walk + math.ceil(math.log2(n_i)))
                procs += math.isqrt(n_i)
        return {"depth": depth, "processors": procs,
                "levels_touched":
                    sum(1 for _l, o, d in self._last_levels if o or d),
                "measured": self.parallel}

    def engines(self) -> Iterator[tuple[tuple, DegreeReducer]]:
        """``(node key, engine)`` for every engine the tree runs, on both
        sides of a mode switch: keys of the half-built side carry a
        leading ``"next"``."""
        for key, node in self.nodes.items():
            if node.engine is not None:
                yield key, node.engine
        if self.migration is not None:
            for key, node in self.migration.nodes.items():
                if node.engine is not None:
                    yield ("next", *key), node.engine

    def machines(self) -> Iterator[tuple[tuple, object]]:
        """``(node key, machine)`` of the engines that run on a PRAM
        machine (none for ``parallel=False`` trees)."""
        for key, engine in self.engines():
            machine = getattr(engine.core, "machine", None)
            if machine is not None:
                yield key, machine

    def erew_violations(self) -> int:
        """Total EREW violations across every level engine, retired ones
        included (0 for ``parallel=False`` trees), so the serving layer
        can always report this."""
        return self.retired["violations"] + sum(
            machine.total.violations for _key, machine in self.machines())

    def pram_cache_info(self) -> dict:
        """{node key -> ``Machine.cache_info()``} over engines that run
        on a PRAM machine (empty for ``parallel=False`` trees), so a
        serving run can always watch replay-cache pressure and
        interned-memory growth per level machine."""
        return {key: machine.cache_info()
                for key, machine in self.machines()}

    # ---------------------------------------------------- determinism aids

    def ops_by_node(self) -> dict[tuple, int]:
        """{node key -> elementary-op total} over the live engines.

        An op-order fingerprint: two trees fed the same op stream the
        same way agree on it (each engine sees the same op sequence).
        Retired engines are summed in ``retired["ops"]`` instead.
        """
        return {key: engine.core.ops.grand_total()
                for key, engine in self.engines()}

    def depth_work_by_node(self) -> dict[tuple, tuple[int, int]]:
        """{node key -> (machine depth, work)} for parallel-mode engines
        (empty for ``parallel=False`` trees)."""
        return {key: (machine.total.depth, machine.total.work)
                for key, machine in self.machines()}
