"""Human-readable structure dumps for debugging and teaching.

``dump_state`` renders an engine's internal organisation -- lists, chunks,
ids, occurrence tours, the non-infinite entries of the matrix ``C``, and
LSDS shapes -- as plain text.  Used by ``examples/anatomy_of_a_deletion.py``
to narrate what the paper's structure actually does during an update.
"""

from __future__ import annotations

from io import StringIO

from .model import INF_KEY
from .seq_msf import SparseDynamicMSF

__all__ = ["dump_state", "describe_list", "cadj_entries"]


def describe_list(engine: SparseDynamicMSF, lst) -> str:
    """One line per chunk: id, n_c, and the occurrence run it holds."""
    out = []
    kind = "short" if lst.is_short else "long"
    out.append(f"list[{kind}] chunks={[c.id for c in lst.chunks()]}")
    for c in lst.chunks():
        occs = []
        for occ in c.occurrences():
            star = "*" if occ.is_principal else ""
            occs.append(f"v{occ.vertex.vid}{star}")
        out.append(f"  chunk id={c.id} n_c={c.n_c} "
                   f"(occ={c.count}, edge-endpoints={c.n_edges}): "
                   + " ".join(occs))
    return "\n".join(out)


def cadj_entries(engine: SparseDynamicMSF) -> list[tuple[int, int, tuple]]:
    """All finite entries of the global matrix C as (i, j, key), i <= j."""
    space = engine.fabric.space
    out = []
    if space.C is None:  # not allocated yet: every entry reads INF_KEY
        return out
    for i in range(space.Jcap):
        for j in range(i, space.Jcap):
            if space.C[i, j] != INF_KEY:
                out.append((i, j, space.C[i, j]))
    return out


def _lsds_shape(root) -> str:
    if root.is_leaf:
        return f"[{root.item.id}]"
    return "(" + " ".join(_lsds_shape(k) for k in root.kids) + ")"


def dump_state(engine: SparseDynamicMSF, *, matrix: bool = True) -> str:
    """Full textual dump of the engine's structure."""
    buf = StringIO()
    space = engine.fabric.space
    registry = engine.fabric.registry
    print(f"K={space.K}  Jcap={space.Jcap}  live-ids={space.live_ids}  "
          f"edges={len(engine.edges)}  tree-edges={len(engine.tree_edges)}",
          file=buf)
    lists = sorted(registry.lists(),
                   key=lambda l: -sum(c.count for c in l.chunks()))
    shown = 0
    for lst in lists:
        size = sum(c.count for c in lst.chunks())
        if size <= 1 and shown >= 4:
            continue  # skip the singleton noise after a few
        print(describe_list(engine, lst), file=buf)
        if not lst.is_short:
            print(f"  LSDS shape: {_lsds_shape(lst.root)}", file=buf)
        shown += 1
    singletons = sum(1 for l in lists
                     if sum(c.count for c in l.chunks()) == 1)
    if singletons:
        print(f"(+ {singletons} singleton lists)", file=buf)
    if matrix:
        entries = cadj_entries(engine)
        print(f"C matrix: {len(entries)} finite entries (i<=j):", file=buf)
        for i, j, key in entries[:30]:
            print(f"  C[{i},{j}] = w={key[0]:g} (edge #{key[1]})", file=buf)
        if len(entries) > 30:
            print(f"  ... and {len(entries) - 30} more", file=buf)
    return buf.getvalue().rstrip()
