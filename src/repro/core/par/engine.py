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
from ..chunks import Chunk, ChunkSpace
from ..fabric import Fabric
from ..lsds import EulerList, ListRegistry, node_cadj, node_memb
from ..model import Edge
from ..seq_msf import SparseDynamicMSF
from . import kernels as kn

__all__ = ["ParallelDynamicMSF", "ParFabric", "ParChunkSpace",
           "ParListRegistry"]


class ParChunkSpace(ChunkSpace):
    """Chunk space whose row maintenance runs as PRAM kernels."""

    def __init__(self, machine: Machine, *args, **kwargs) -> None:
        self.machine = machine
        super().__init__(*args, **kwargs)

    def rebuild_row(self, c: Chunk) -> None:
        kn.rebuild_row_kernel(self.machine, self, c)
        if self.compm is not None:
            # the kernel wrote the object row/column directly; resync the
            # flat mirror wholesale (no per-entry dual-write sites here)
            self.compm.load_row_object(c.id, self.C[c.id])
            self.compm.mirror_column(c.id)

    def entry_recompute_pair(self, c1: Chunk, c2: Chunk) -> None:
        kn.entry_pair_kernel(self.machine, self, c1, c2)
        if self.compm is not None:
            self.compm.set_entry(c1.id, c2.id, self.C[c1.id, c2.id])

    def entry_update_insert(self, c1, c2, key) -> None:
        super().entry_update_insert(c1, c2, key)
        self.machine.charge(depth=2, work=2, label="entry_insert")

    def adopt_occurrences(self, c: Chunk) -> None:
        super().adopt_occurrences(c)
        # modelled as a BT_c split/merge by p_1 plus a one-step restamp of
        # chunk-id replicas by `count` processors
        self.machine.charge(depth=kn.log2c(self.K) + 1, work=max(c.count, 1),
                            processors=max(c.count, 1), label="adopt")

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
                 *, ops: Optional[OpCounter] = None,
                 backend: str = "scalar") -> None:
        self.machine = machine
        self.space = ParChunkSpace(machine, n_max, K, flavor="parallel",
                                   with_bt=True, ops=ops, backend=backend)
        self.registry = ParListRegistry(machine, self.space)
        self.pull = self.registry.pull
        # Same routed structural plumbing as the sequential fabric: the
        # fix/transition/list_of paths carry no machine charges, so the
        # PRAM depth/work identity is untouched.
        self._bind_compiled_plumbing()

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
    """

    def __init__(self, n_max: int, K: Optional[int] = None, *,
                 machine: Optional[Machine] = None, audit: str = "strict",
                 impl: str = "onepass", ops: Optional[OpCounter] = None,
                 backend: str = "scalar") -> None:
        self.machine = machine if machine is not None else Machine(
            audit=audit, impl=impl)
        self.update_stats: list[KernelStats] = []
        self._measuring = False
        super().__init__(n_max, K, flavor="parallel", with_bt=True, ops=ops,
                         backend=backend)

    def _build_fabric(self, n_max, K, flavor, with_bt, ops,
                      backend) -> Fabric:
        return ParFabric(self.machine, n_max, K, ops=ops, backend=backend)

    def _zero_measurements(self) -> None:
        """Arena reset: also restore the PRAM measurement state.

        The machine's replay plans survive (they are value-keyed and
        charge bit-identical stats on hits -- the replay tier's
        guarantee), but depth/work totals, history, the memory's
        registrations and the per-update stats return to the
        just-constructed state.  The base ``reset`` calls this *before*
        the eager vertex rebuild, so the rebuild's analytic charges land on
        the zeroed machine exactly as ``__init__``'s did -- a recycled
        engine measures bit-identically to a fresh one.
        """
        self.machine.reset_stats()
        self.update_stats.clear()
        self._measuring = False

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
