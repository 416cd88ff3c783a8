"""Minimum-weight-replacement search (Lemma 2.4 / Section 6).

Invoked immediately after an Euler tour split into lists ``L1`` and ``L2``:
find the lightest graph edge with one principal copy in each list.

Long/long case: build ``gamma`` = the root CAdj vector of ``L1`` masked by
the root Memb vector of ``L2``; its argmin names the candidate chunk
``c-hat`` (necessarily in ``L2``); scan the <=3K edges touching ``c-hat``
and keep the lightest whose other endpoint verifies as a member of ``L1``.

Short cases (Section 6): scan the short list's single chunk directly.
"""

from __future__ import annotations

from typing import Optional

try:
    import numpy as np
except ImportError:  # pure-python fallback; see core._nplite
    from . import _nplite as np  # type: ignore[no-redef]

from .fabric import Fabric
from .lsds import EulerList, node_cadj, node_memb
from .model import INF_KEY, Edge

__all__ = ["find_mwr"]


def _scan_short(fabric: Fabric, short: EulerList, other: EulerList) -> Optional[Edge]:
    best: Optional[Edge] = None
    scanned = 0
    for vertex, e in short.only_chunk.edge_endpoints():
        scanned += 1
        w = e.other(vertex)
        if fabric.list_of(w.pc.chunk) is other:  # type: ignore[union-attr]
            if best is None or e.key < best.key:
                best = e
    if scanned:  # an empty scan charges nothing, as per-endpoint charges did
        fabric.space.ops.charge("mwr_scan", scanned)
    return best


def _find_mwr_compiled(fabric: Fabric, l1: EulerList, l2: EulerList) -> Optional[Edge]:
    """Long/long MWR over the flat float64 buffers (compiled backend).

    One C pass fuses the gamma mask and its argmin (first-index on ties,
    like ``np.argmin`` over the masked object vector); the charges and
    the candidate scan match the scalar path exactly.
    """
    from . import compiled

    space = fabric.space
    root1 = l1.root
    if root1.is_leaf:
        keys, off = space.compm.buf, root1.item.id * space.Jcap
    else:
        keys, off = root1.agg[0], 0
    root2 = l2.root
    memb2 = root2.item.memb_row if root2.is_leaf else root2.agg[1]
    j, w, e = compiled.kernels.gamma_argmin(keys, off, memb2, space.Jcap)
    space.ops.charge("mwr_gamma", space.Jcap)
    space.ops.charge("mwr_argmin", space.Jcap)
    if w == INF_KEY[0] and e == INF_KEY[1]:
        return None
    chat = space.chunk_of_id[j]
    assert chat is not None
    memb1 = root1.item.memb_row if root1.is_leaf else root1.agg[1]
    best: Optional[Edge] = None
    scanned = 0
    for vertex, ed in chat.edge_endpoints():
        scanned += 1
        v2 = ed.other(vertex)
        wc = v2.pc.chunk  # type: ignore[union-attr]
        if wc.id is not None and memb1[wc.id]:
            if best is None or ed.key < best.key:
                best = ed
    space.ops.charge("mwr_scan", scanned)
    assert best is not None and best.key[0] == w, \
        "candidate chunk scan must realize the gamma minimum"
    return best


def find_mwr(fabric: Fabric, l1: EulerList, l2: EulerList) -> Optional[Edge]:
    """Lightest edge between ``l1`` and ``l2``; ``None`` if disconnected."""
    if l1.is_short:
        return _scan_short(fabric, l1, l2)
    if l2.is_short:
        return _scan_short(fabric, l2, l1)
    space = fabric.space
    if space.comp_lsds:
        return _find_mwr_compiled(fabric, l1, l2)
    cadj1 = node_cadj(space, l1.root)
    memb2 = node_memb(space, l2.root)
    gamma = np.where(memb2, cadj1, space.inf_row)
    space.ops.charge("mwr_gamma", space.Jcap)
    j = int(np.argmin(gamma))
    space.ops.charge("mwr_argmin", space.Jcap)
    if gamma[j] == INF_KEY:
        return None
    chat = space.chunk_of_id[j]
    assert chat is not None
    memb1 = node_memb(space, l1.root)
    best: Optional[Edge] = None
    scanned = 0
    for vertex, e in chat.edge_endpoints():
        scanned += 1
        w = e.other(vertex)
        wc = w.pc.chunk  # type: ignore[union-attr]
        if wc.id is not None and memb1[wc.id]:
            if best is None or e.key < best.key:
                best = e
    space.ops.charge("mwr_scan", scanned)
    assert best is not None and best.key[0] == gamma[j][0], \
        "candidate chunk scan must realize the gamma minimum"
    return best
