"""Scan-mode ablation: the chunk structure *without* the LSDS.

Frederickson-flavoured comparator for experiments E5/E7: chunks, the global
CAdj matrix and Invariant 1 are maintained exactly as in the paper's
structure, but no LSDS aggregates exist.  A minimum-weight-replacement
query must therefore scan all chunk pairs: ``O(J^2 + K)`` instead of the
LSDS's ``O(J + K)`` -- this isolates what the paper's List Sum Data
Structure buys.

(The true Frederickson 1985 baseline uses 2-dimensional topology trees; no
artifact exists, and its published bound ``O(sqrt m)`` is what this
ablation's measured exponent reproduces.  DESIGN.md documents the
substitution.)
"""

from __future__ import annotations

from typing import Optional

try:
    import numpy as np
except ImportError:  # pure-python fallback; see core._nplite
    from ..core import _nplite as np  # type: ignore[no-redef]

from ..core.chunks import ChunkSpace
from ..core.fabric import Fabric
from ..core.lsds import EulerList, ListRegistry
from ..core.model import INF_KEY, Edge
from ..core.seq_msf import SparseDynamicMSF

__all__ = ["ScanDynamicMSF"]


def _noop_pull(_node) -> None:
    return None


class _ScanRegistry(ListRegistry):
    """Registry with no aggregate maintenance (the ablated LSDS)."""

    def __init__(self, space: ChunkSpace) -> None:
        super().__init__(space)
        self.pull = _noop_pull

    def update_adj(self, chunk) -> None:  # aggregates do not exist
        return None

    def refresh_column(self, j: int) -> None:
        return None


class _ScanFabric(Fabric):
    def __init__(self, n_max, K=None, *, flavor="sequential",
                 ops=None) -> None:
        self.space = ChunkSpace(n_max, K, flavor=flavor, ops=ops)
        self.registry = _ScanRegistry(self.space)
        self.pull = self.registry.pull


class ScanDynamicMSF(SparseDynamicMSF):
    """The paper's engine with the LSDS ablated (chunk-pair scans)."""

    def _build_fabric(self, n_max, K, flavor, ops,
                      backend="scalar") -> Fabric:
        # the scan baseline ablates the LSDS, so there is nothing for the
        # compiled backend to accelerate; it always runs scalar
        return _ScanFabric(n_max, K, flavor=flavor, ops=ops)

    def _find_mwr(self, lu: EulerList, lv: EulerList) -> Optional[Edge]:
        space = self.fabric.space
        if lu.is_short or lv.is_short:
            short, other = (lu, lv) if lu.is_short else (lv, lu)
            return self._scan_short(short, other)
        # mask of L_v's chunk ids (what the LSDS root Memb vector provides)
        mask = np.zeros(space.Jcap, dtype=bool)
        for c in lv.chunks():
            mask[c.id] = True
            space.ops.charge("scan_memb")
        best_key = INF_KEY
        best_j = -1
        for c in lu.chunks():  # O(J) chunks x O(J) vector work = O(J^2)
            gamma = np.where(mask, space.C[c.id], space.inf_row)
            space.ops.charge("scan_gamma", space.Jcap)
            j = int(np.argmin(gamma))
            space.ops.charge("scan_argmin", space.Jcap)
            if gamma[j] < best_key:
                best_key = gamma[j]
                best_j = j
        if best_j < 0 or best_key == INF_KEY:
            return None
        chat = space.chunk_of_id[best_j]
        assert chat is not None
        best: Optional[Edge] = None
        for vertex, e in chat.edge_endpoints():
            space.ops.charge("scan_candidates")
            w = e.other(vertex)
            if self.fabric.list_of(w.pc.chunk) is lu:
                if best is None or e.key < best.key:
                    best = e
        assert best is not None and best.key[0] == best_key[0]
        return best

    def _scan_short(self, short: EulerList, other: EulerList) -> Optional[Edge]:
        best: Optional[Edge] = None
        for vertex, e in short.only_chunk.edge_endpoints():
            self.fabric.space.ops.charge("scan_candidates")
            w = e.other(vertex)
            if self.fabric.list_of(w.pc.chunk) is other:
                if best is None or e.key < best.key:
                    best = e
        return best
