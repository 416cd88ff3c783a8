"""The EREW PRAM dynamic-MSF engine (Theorem 3.1).

``ParallelDynamicMSF`` maintains exactly the same chunk/LSDS/Euler state as
the sequential engine -- updates produce identical forests -- but executes
the data-plane inner loops as lockstep kernels on the EREW machine:

* CAdj row rebuilds: ``getEdge`` + gather + tournament forest (Lemma 3.1);
* the deletion-time (c1, c2) entry recomputation: filtered tournament;
* ``UpdateAdj``: per-column path refresh + global column sweep (Lemma 3.2);
* MWR search: gamma build, tournament argmin, candidate verification with
  the CREW->EREW charge, final tournament (Lemma 3.3).

Structural plumbing whose PRAM implementation is standard and cited (2-3
tree splits/joins, BT_c splits, occurrence restamps, link-cut queries and
the O(1) surgery decisions by ``p_1``) runs as host code and is charged
analytically via :meth:`Machine.charge`; every charge site is tagged with a
label so experiment E3's work breakdown can attribute it.

The parallel chunk space (:class:`ParChunkSpace`) is the one that keeps
``BT_c``: it overrides the ``bt_*`` hooks and adopts whole chunks on
surgery, because ``getEdge`` descends ``BT_c`` and its shape is
load-bearing.  Everything else -- the live-lane row path, id management --
is the base :class:`~repro.core.chunks.ChunkSpace`'s; after each kernel
row write the host re-derives the row's live lanes, uncharged.

Per public update the engine records a :class:`KernelStats` aggregate
(depth, work, max processors, EREW violations) -- the measured quantities of
Theorem 3.1: depth ``O(log n)``, work ``O(sqrt(n) log n)``, processors
``O(sqrt(n))`` with ``K = sqrt(n)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from ...analysis.counters import OpCounter
from ...pram.machine import KernelStats, Machine
from ...structures import two_three_tree as tt
from ..chunks import Chunk, ChunkSpace, check_engine_backend
from ..fabric import Fabric
from ..lsds import EulerList, ListRegistry, node_cadj, node_memb
from ..model import INF_KEY, Edge
from ..seq_msf import SparseDynamicMSF
from . import kernels as kn

__all__ = ["ParallelDynamicMSF", "ParFabric", "ParChunkSpace",
           "ParListRegistry"]


def _bt_pull(node: tt.Node) -> None:
    units = 0
    edges = 0
    for k in node.kids:
        u, e = k.agg
        units += u
        edges += e
    node.agg = (units, edges)


def _bt_prefix(leaf: tt.Node) -> int:
    """Units of the ``BT_c`` leaves before ``leaf``: the left siblings'
    aggregates summed on the way to the root."""
    units = 0
    node = leaf
    while node.parent is not None:
        for k in node.parent.kids[:node.pos]:
            units += k.agg[0]
        node = node.parent
    return units


class ParChunkSpace(ChunkSpace):
    """Chunk space whose row maintenance runs as PRAM kernels and whose
    chunks keep ``BT_c``.

    ``BT_c`` is a 2-3 tree over the chunk's occurrences whose vertices
    store ``(units, edges)`` aggregates -- ``edges`` are the paper's edge
    counters ``ec_v`` driving ``getEdge``, ``units`` drive balanced
    Invariant-1 splits.  Its shape is load-bearing (``getEdge`` descends
    it, so measured depth/work depend on it), so chunk surgery here adopts
    whole chunks, rebuilding ``BT_c`` of both halves of a split and of a
    merge.  The live lanes are kept exact as in the base space: after each
    kernel writes ``C``, the host re-derives the lanes it touched
    (uncharged; the machine's depth and work are the kernels').
    """

    def __init__(self, machine: Machine, n_max: int, K: Optional[int] = None,
                 *, ops: Optional[OpCounter] = None) -> None:
        self.machine = machine
        super().__init__(n_max, K, flavor="parallel", ops=ops)

    def rebuild_row(self, c: Chunk) -> None:
        kn.rebuild_row_kernel(self.machine, self, c)
        # the kernel wrote the object row and column; re-derive the row's
        # live lanes (the identity test short-cuts the INF_KEY cells the
        # kernel wrote)
        self.set_live(c.id, {j for j, key in enumerate(self.C[c.id].tolist())
                             if key is not INF_KEY and key != INF_KEY})

    def entry_recompute_pair(self, c1: Chunk, c2: Chunk) -> None:
        kn.entry_pair_kernel(self.machine, self, c1, c2)
        self.set_pair(c1.id, c2.id, self.C[c1.id, c2.id])

    def entry_update_insert(self, c1, c2, key) -> None:
        super().entry_update_insert(c1, c2, key)
        self.machine.charge(depth=2, work=2, label="entry_insert")

    def split_off(self, c: Chunk, c2: Chunk) -> None:
        self.adopt_occurrences(c)
        self.adopt_occurrences(c2)
        if c.id is not None:
            self.assign_id(c2)

    def absorb(self, cl: Chunk, cr: Chunk) -> None:
        if cr.id is not None:
            self.release_id(cr)
        cl.tail = cr.tail
        self.adopt_occurrences(cl)
        return None  # the caller rebuilds the merged row by a scan

    def adopt_run(self, c: Chunk, head, tail) -> None:
        """``BT_c`` for a spliced excursion run.  A leaf link's run (the
        isolated vertex and the new host occurrence) is two ``bt_insert``
        by ``p_1``, depth and work ``log K`` each; a longer run re-adopts
        the whole host chunk (depth ``log K + 1``, work its ``count``),
        since one insert per occurrence would charge depth up to
        ``K log K``."""
        if head.next is not tail:
            self.adopt_occurrences(c)
            return
        super().adopt_run(c, head, tail)
        lg = kn.log2c(self.K)
        for occ in (head, tail):
            self.bt_insert_occ(occ, occ.prev)
            self.machine.charge(depth=lg, work=lg, label="bt_insert")

    def run_is_short(self, c: Chunk, first, last) -> bool:
        """Size ``first .. last`` from ``BT_c``'s ``units`` aggregates: two
        prefix queries, one per end, by two processors (depth and work
        ``log K`` each), instead of a ``K``-step walk."""
        lg = kn.log2c(self.K)
        self.machine.charge(depth=lg, work=2 * lg, processors=2,
                            label="bt_prefix")
        start = _bt_prefix(first.bt_leaf)
        end = _bt_prefix(last.bt_leaf) + last.bt_leaf.agg[0]
        return start < end and end - start < self.K

    def release_run(self, c: Chunk, first, last, c2: Chunk) -> None:
        """``BT_c`` for a run cut out of ``c`` (the inverse of
        :meth:`adopt_run`).  A one-occurrence run is one ``bt_delete`` by
        ``p_1`` (depth and work ``log K``) and a one-leaf ``BT_c`` for
        ``c2``; a longer run re-adopts the host chunk and adopts ``c2``."""
        if first is not last:
            self.adopt_occurrences(c)
            self.adopt_occurrences(c2)
            return
        self.bt_delete_occ(first)
        lg = kn.log2c(self.K)
        self.machine.charge(depth=lg, work=lg, label="bt_delete")
        super().release_run(c, first, last, c2)
        self.bt_insert_occ(first, None)

    def adopt_occurrences(self, c: Chunk) -> None:
        """Stamp and count ``c``'s occurrences and rebuild ``BT_c``.

        Bulk O(K) construction: ``tt.build_rightmost`` produces the exact
        shape (and aggregates) of the old insert-after loop without the
        O(log K) root walk per occurrence.
        """
        assert c.head is not None and c.tail is not None
        count = 0
        n_edges = 0
        cid = c.id
        tail = c.tail
        tt_leaf = tt.leaf
        bt_leaves: list[tt.Node] = []
        append = bt_leaves.append
        occ = c.head
        while occ is not None:
            occ.chunk = c
            occ.chunk_id = cid
            count += 1
            vx = occ.vertex
            deg = len(vx.edges) if vx.pc is occ else 0
            n_edges += deg
            lf = tt_leaf(occ, agg=(1 + deg, deg))
            occ.bt_leaf = lf
            append(lf)
            if occ is tail:
                break
            occ = occ.next
        bt_root = tt.build_rightmost(bt_leaves, _bt_pull)
        self.ops.charge("occ_scan", count)
        c.count = count
        c.n_edges = n_edges
        c.bt_root = bt_root
        # modelled as a BT_c split/merge by p_1 plus a one-step restamp of
        # chunk-id replicas by `count` processors
        self.machine.charge(depth=kn.log2c(self.K) + 1, work=max(c.count, 1),
                            processors=max(c.count, 1), label="adopt")

    def bt_refresh_occ(self, occ) -> None:
        if occ.bt_leaf is None:
            return
        deg = occ.vertex.degree() if occ.is_principal else 0
        occ.bt_leaf.agg = (1 + deg, deg)
        tt.refresh_upward(occ.bt_leaf, _bt_pull)
        occ.chunk.bt_root = tt.root_of(occ.bt_leaf)
        self.ops.charge("bt_refresh", 1)

    def bt_insert_occ(self, occ, after) -> None:
        c: Chunk = occ.chunk
        deg = occ.vertex.degree() if occ.is_principal else 0
        lf = tt.leaf(occ, agg=(1 + deg, deg))
        occ.bt_leaf = lf
        if c.bt_root is None:
            c.bt_root = lf
        elif after is not None:
            c.bt_root = tt.root_of(tt.insert_after(after.bt_leaf, lf, _bt_pull))
        else:
            c.bt_root = tt.insert_first(c.bt_root, lf, _bt_pull)

    def bt_delete_occ(self, occ) -> None:
        if occ.bt_leaf is None:
            return
        c: Chunk = occ.chunk
        c.bt_root = tt.delete_leaf(occ.bt_leaf, _bt_pull)
        occ.bt_leaf = None

    def assign_id(self, c: Chunk) -> int:
        cid = super().assign_id(c)
        self.machine.charge(depth=2, work=self.Jcap + c.count,
                            processors=self.Jcap, label="assign_id")
        return cid

    def release_id(self, c: Chunk) -> int:
        cid = super().release_id(c)
        self.machine.charge(depth=2, work=2 * self.Jcap + c.count,
                            processors=self.Jcap, label="release_id")
        return cid


class ParListRegistry(ListRegistry):
    """LSDS registry whose UpdateAdj runs as PRAM kernels."""

    def __init__(self, machine: Machine, space: ParChunkSpace) -> None:
        self.machine = machine
        super().__init__(space)

    def update_adj(self, chunk: Chunk) -> None:
        if chunk.id is None:
            return
        kn.path_refresh_kernel(self.machine, self.space, chunk.leaf)
        self.refresh_column(chunk.id)

    def refresh_column(self, j: int) -> None:
        roots = [lst.root for lst in self.long_lists]
        kn.column_sweep_kernel(self.machine, self.space, roots, j)


class ParFabric(Fabric):
    """Fabric with analytic charges for the structural (p_1) phases."""

    def __init__(self, machine: Machine, n_max: int, K: Optional[int] = None,
                 *, ops: Optional[OpCounter] = None) -> None:
        self.machine = machine
        self.space = ParChunkSpace(machine, n_max, K, ops=ops)
        self.registry = ParListRegistry(machine, self.space)
        self.pull = self.registry.pull

    def _charge_struct(self, label: str) -> None:
        J = self.space.Jcap
        self.machine.charge(depth=kn.log2c(J), work=J * kn.log2c(J),
                            processors=J, label=label)

    def split_chunk(self, c, at_occ):
        self._charge_struct("lsds_insert")
        return super().split_chunk(c, at_occ)

    def merge_chunks(self, cl, cr):
        self._charge_struct("lsds_delete")
        return super().merge_chunks(cl, cr)

    def split_list(self, occ):
        self._charge_struct("lsds_split")
        return super().split_list(occ)

    def join_lists(self, left, right):
        self._charge_struct("lsds_join")
        return super().join_lists(left, right)

    def insert_occ_after(self, ref, vertex):
        self.machine.charge(depth=kn.log2c(self.space.K),
                            work=kn.log2c(self.space.K), label="bt_insert")
        return super().insert_occ_after(ref, vertex)

    def delete_occ(self, occ):
        self.machine.charge(depth=kn.log2c(self.space.K),
                            work=kn.log2c(self.space.K), label="bt_delete")
        return super().delete_occ(occ)


class ParallelDynamicMSF(SparseDynamicMSF):
    """Theorem 3.1 engine; public API identical to the sequential engine.

    ``engine.update_stats[i]`` holds the measured (depth, work, processors,
    violations) of the i-th update; ``machine.total`` aggregates everything.
    The engine is scalar-only: ``backend`` accepts ``"scalar"`` and
    nothing else (:func:`~repro.core.chunks.check_engine_backend`).
    """

    def __init__(self, n_max: int, K: Optional[int] = None, *,
                 machine: Optional[Machine] = None, audit: str = "strict",
                 impl: str = "onepass", ops: Optional[OpCounter] = None,
                 backend: str = "scalar") -> None:
        check_engine_backend("parallel", backend)
        self.machine = machine if machine is not None else Machine(
            audit=audit, impl=impl)
        self.update_stats: list[KernelStats] = []
        self._measuring = False
        super().__init__(n_max, K, flavor="parallel", ops=ops,
                         backend=backend)

    def _build_fabric(self, n_max, K, flavor, ops, backend) -> Fabric:
        return ParFabric(self.machine, n_max, K, ops=ops)

    # ------------------------------------------------------------- updates

    @contextmanager
    def _measure(self, label: str):
        if self._measuring:  # nested public calls measure once, at the top
            yield
            return
        self._measuring = True
        # Window-based accounting: every launch/charge folds into the open
        # window as it happens (Machine._account), so per-update
        # aggregation no longer reads Machine.history -- which lets the
        # history be a bounded ring by default without losing stats.
        window = self.machine.window_begin(label)
        try:
            yield
        finally:
            # glue: LCT query/link/cut and the O(1) surgery decisions by p_1
            self.machine.charge(depth=3 * kn.log2c(self.n_max),
                                work=3 * kn.log2c(self.n_max), label="glue")
            self.machine.window_end(window)
            # update scope: no registration or scratch register outlives
            # the update that made it (kernels re-register on every call)
            self.machine.mem.clear()
            self.update_stats.append(window)
            self._measuring = False

    def insert_edge(self, u: int, v: int, weight: float,
                    eid: Optional[int] = None) -> Edge:
        with self._measure("insert"):
            return super().insert_edge(u, v, weight, eid)

    def delete_edge(self, e: Edge) -> Optional[Edge]:
        with self._measure("delete"):
            return super().delete_edge(e)

    def drop_leaf(self, e: Edge, vid: int) -> None:
        with self._measure("drop_leaf"):
            super().drop_leaf(e, vid)

    def bypass(self, e_in: Edge, e_out: Edge, vid: int, eid: int) -> Edge:
        with self._measure("bypass"):
            return super().bypass(e_in, e_out, vid, eid)

    # ------------------------------------------------------------- MWR

    def _find_mwr(self, lu: EulerList, lv: EulerList) -> Optional[Edge]:
        space = self.fabric.space
        if lu.is_short and lv.is_short:
            # both tiny: Section 6 tournament, modelled analytically
            from .. import mwr as seq_mwr
            self.machine.charge(depth=kn.log2c(space.K), work=space.K,
                                processors=space.K, label="mwr_short")
            return seq_mwr.find_mwr(self.fabric, lu, lv)
        if lu.is_short or lv.is_short:
            short, other = (lu, lv) if lu.is_short else (lv, lu)
            memb = node_memb(space, other.root)
            edge, _ = kn.verify_candidates_kernel(
                self.machine, space, short.only_chunk, memb)
            return edge
        cadj1 = node_cadj(space, lu.root)
        memb2 = node_memb(space, lv.root)
        winner, _ = kn.gamma_argmin_kernel(self.machine, space, cadj1, memb2)
        if winner is None:
            return None
        _key, j = winner
        chat = space.chunk_of_id[j]
        assert chat is not None
        memb1 = node_memb(space, lu.root)
        edge, _ = kn.verify_candidates_kernel(self.machine, space, chat, memb1)
        assert edge is not None, "gamma promised a replacement edge"
        return edge
