"""The List Sum Data Structure (LSDS) and Euler-list registry (Lemma 2.3).

Each Euler-tour list ``L`` owns an LSDS: a 2-3 tree whose leaves are, in
order, the chunks of ``L``.  Every internal vertex ``z`` stores two
``J``-length vectors:

* ``CAdj_z`` -- entrywise **minimum** of the ``CAdj`` rows of the chunks in
  ``z``'s subtree, and
* ``Memb_z`` -- entrywise **OR** of the one-hot membership rows.

``UpdateAdj(c)`` (called whenever row ``id_c`` / column ``id_c`` of the
global matrix changed) refreshes (a) the full vectors along the leaf-to-root
path of ``c``'s own LSDS, and (b) the single entry ``id_c`` of **every**
LSDS vertex of every (long) list.  The parallel version of the paper makes
reading (b) unambiguous: processor ``p_j`` handles the leaf of the *global*
``chunks[j]``, so the column sweep spans all LSDSes.  Since long lists hold
at most ``J`` chunks in total, (b) costs ``O(J)`` and (a) costs
``O(J log J)``, matching Lemma 2.3.

Short lists (single chunk with ``n_c < K``, Section 6) have no id, no
CAdj/Memb, and are excluded from the column sweep.
"""

from __future__ import annotations

from typing import Callable, Iterator

try:
    import numpy as np
except ImportError:  # pure-python fallback; see core._nplite
    from . import _nplite as np  # type: ignore[no-redef]

from ..structures import two_three_tree as tt
from . import compiled
from .chunks import Chunk, ChunkSpace
from .model import INF_KEY

__all__ = ["EulerList", "ListRegistry", "make_pull", "make_pull_changed",
           "node_cadj", "node_memb"]


def node_cadj(space: ChunkSpace, node: tt.Node) -> np.ndarray:
    """The CAdj vector of an LSDS vertex (row view for chunk leaves).

    Compiled LSDS aggregates are flat float64 buffers; they are
    materialized back to object key tuples here so scalar-contract
    consumers (the structural audit, ``find_mwr``'s scalar twin) see the
    object representation.  Hot compiled paths walk the buffers in C and
    never pay this conversion.
    """
    if node.is_leaf:
        chunk: Chunk = node.item
        assert chunk.id is not None, "short chunks have no CAdj"
        return space.C[chunk.id]
    cadj = node.agg[0]
    if space.comp_lsds:
        return _objectify_comp_keys(cadj, space.Jcap)
    return cadj


def node_memb(space: ChunkSpace, node: tt.Node) -> np.ndarray:
    if node.is_leaf:
        chunk: Chunk = node.item
        assert chunk.memb_row is not None, "short chunks have no Memb"
        return chunk.memb_row
    memb = node.agg[1]
    if space.comp_lsds:
        return _objectify_comp_memb(memb, space.Jcap)
    return memb


def _objectify_comp_keys(buf: bytearray, Jcap: int) -> np.ndarray:
    """Materialize a flat compiled aggregate back to object key tuples.

    Eids come back as floats that compare equal to the scalar path's
    ints.  Audit-path only -- the hot compiled paths walk the flat
    buffers in C and never pay this.
    """
    view = memoryview(buf).cast("d")
    out = np.empty(Jcap, dtype=object)
    out[:] = [(view[2 * k], view[2 * k + 1]) for k in range(Jcap)]
    return out


def _objectify_comp_memb(buf: bytearray, Jcap: int) -> np.ndarray:
    out = np.zeros(Jcap, dtype=bool)
    out[:] = [bool(b) for b in buf[:Jcap]]
    return out


def make_pull(space: ChunkSpace) -> Callable[[tt.Node], None]:
    """Aggregation hook recomputing (CAdj_z, Memb_z) from children.

    Hot-loop hygiene: the cap, ufuncs and the charge method are bound once
    in the closure (not re-fetched per pull), and the old ``node_cadj`` /
    ``node_memb`` helper calls are inlined -- the hook runs on every
    2-3-tree vertex every structural mutation touches.  The matrix is read
    per call: the closure is built with the engine, before the first
    chunk id allocates ``space.C``.

    On the compiled backend (sequential engine) the aggregate vectors are
    flat buffers pulled by one C call; the charge is identical
    (``Jcap * len(kids)`` per pull), so op counters stay bit-identical
    across backends.
    """
    if space.comp_lsds:
        return _make_pull_compiled(space)
    Jcap = space.Jcap
    charge = space.ops.charge
    np_empty, np_zeros = np.empty, np.zeros
    np_minimum, np_logical_or = np.minimum, np.logical_or

    def pull(node: tt.Node) -> None:
        kids = node.kids
        if not kids:
            return
        C = space.C
        agg = node.agg
        if agg is None:
            agg = node.agg = (np_empty(Jcap, dtype=object),
                              np_zeros(Jcap, dtype=bool))
        cadj, memb = agg
        first = kids[0]
        if first.height:
            fc, fm = first.agg
            cadj[:] = fc
            memb[:] = fm
        else:
            chunk = first.item
            cadj[:] = C[chunk.id]
            memb[:] = chunk.memb_row
        for kid in kids[1:]:
            if kid.height:
                kc, km = kid.agg
            else:
                chunk = kid.item
                kc, km = C[chunk.id], chunk.memb_row
            np_minimum(cadj, kc, out=cadj)
            np_logical_or(memb, km, out=memb)
        charge("lsds_pull", Jcap * len(kids))

    return pull


def _make_pull_compiled(space: ChunkSpace) -> Callable[[tt.Node], None]:
    """Compiled twin of :func:`make_pull`: one C call recomputes the
    (CAdj_z, Memb_z) pair over the flat float64 buffers, identical
    charges.  Leaf memb rows are synthesized one-hot inside the kernel
    (``chunk.memb_row`` stays the audit-facing bool array)."""
    Jcap = space.Jcap
    charge = space.ops.charge
    pull_node = compiled.kernels.pull_node

    def pull(node: tt.Node) -> None:
        if not node.kids:
            return
        if node.agg is None:
            node.agg = (bytearray(16 * Jcap), bytearray(Jcap))
        n = pull_node(node, space.compm.buf, Jcap)
        charge("lsds_pull", Jcap * n)

    return pull


def make_pull_changed(space: ChunkSpace) -> Callable[[tt.Node], bool]:
    """Change-detecting pull for :func:`tt.refresh_upward_changed`.

    Recomputes into a pair of *hoisted scratch buffers* (allocated once per
    space, by the first compare -- not per call, and not before the space
    has a matrix), compares against the stored aggregate, and only writes
    back -- returning ``True`` -- when the vectors actually changed.
    The recompute itself is charged exactly like :func:`make_pull`
    (``Jcap * len(kids)`` per pulled vertex); vertices the early exit never
    visits are work genuinely not done, which only tightens the
    O(J log J) ``UpdateAdj`` bound of Lemma 2.3.
    """
    if space.comp_lsds:
        return _make_pull_changed_compiled(space)
    Jcap = space.Jcap
    charge = space.ops.charge
    np_minimum, np_logical_or = np.minimum, np.logical_or
    scratch_cadj = scratch_memb = None
    build = make_pull(space)

    def pull_changed(node: tt.Node) -> bool:
        nonlocal scratch_cadj, scratch_memb
        kids = node.kids
        if not kids:
            return False
        agg = node.agg
        if agg is None:  # first pull ever: build in place, always "changed"
            build(node)
            return True
        if scratch_cadj is None:
            scratch_cadj = np.empty(Jcap, dtype=object)
            scratch_memb = np.zeros(Jcap, dtype=bool)
        C = space.C
        first = kids[0]
        if first.height:
            fc, fm = first.agg
            scratch_cadj[:] = fc
            scratch_memb[:] = fm
        else:
            chunk = first.item
            scratch_cadj[:] = C[chunk.id]
            scratch_memb[:] = chunk.memb_row
        for kid in kids[1:]:
            if kid.height:
                kc, km = kid.agg
            else:
                chunk = kid.item
                kc, km = C[chunk.id], chunk.memb_row
            np_minimum(scratch_cadj, kc, out=scratch_cadj)
            np_logical_or(scratch_memb, km, out=scratch_memb)
        charge("lsds_pull", Jcap * len(kids))
        cadj, memb = agg
        if ((scratch_memb == memb).all()
                and (scratch_cadj == cadj).all()):
            return False
        cadj[:] = scratch_cadj
        memb[:] = scratch_memb
        return True

    return pull_changed


def _make_pull_changed_compiled(space: ChunkSpace) -> Callable[[tt.Node], bool]:
    """Compiled twin of :func:`make_pull_changed`: the kernel recomputes
    into the hoisted scratch buffers, compares double *values* (so the
    change verdict matches scalar tuple equality exactly, ``-0.0 == 0.0``
    included) and writes back only on change.  Identical charges."""
    Jcap = space.Jcap
    charge = space.ops.charge
    changed_kernel = compiled.kernels.pull_node_changed
    scratch_keys = scratch_memb = None
    build = _make_pull_compiled(space)

    def pull_changed(node: tt.Node) -> bool:
        nonlocal scratch_keys, scratch_memb
        kids = node.kids
        if not kids:
            return False
        if node.agg is None:  # first pull ever: build in place
            build(node)
            return True
        if scratch_keys is None:
            scratch_keys = bytearray(16 * Jcap)
            scratch_memb = bytearray(Jcap)
        out = changed_kernel(node, space.compm.buf, Jcap, scratch_keys,
                             scratch_memb)
        charge("lsds_pull", Jcap * len(kids))
        return out

    return pull_changed


class EulerList:
    """One Euler-tour list: a handle on an LSDS root."""

    __slots__ = ("root",)

    def __init__(self, root: tt.Node) -> None:
        self.root = root

    @property
    def single_chunk(self) -> bool:
        return self.root.is_leaf

    @property
    def only_chunk(self) -> Chunk:
        assert self.root.is_leaf
        return self.root.item

    @property
    def is_short(self) -> bool:
        """Short lists (Section 6): one chunk, no id."""
        return self.root.is_leaf and self.root.item.id is None

    def first_chunk(self) -> Chunk:
        lf = tt.first_leaf(self.root)
        assert lf is not None
        return lf.item

    def last_chunk(self) -> Chunk:
        lf = tt.last_leaf(self.root)
        assert lf is not None
        return lf.item

    def chunks(self) -> Iterator[Chunk]:
        for lf in tt.iter_leaves(self.root):
            yield lf.item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EulerList chunks={[c.id for c in self.chunks()]}>"


class ListRegistry:
    """Tracks live lists, maps LSDS roots back to their lists."""

    def __init__(self, space: ChunkSpace) -> None:
        self.space = space
        self.by_root: dict[tt.Node, EulerList] = {}
        self.long_lists: set[EulerList] = set()
        self.pull = make_pull(space)
        self.pull_changed = make_pull_changed(space)
        # bound once: ``list_of_chunk`` runs a few thousand times per E9
        # update batch and the ``self.space.ops.charge`` attribute chain
        # was measurable
        self._charge = space.ops.charge
        #: Version stamp for the chunk->list cache.  The chunk->list mapping
        #: only changes when a list is created or destroyed (every list
        #: split/join registers and/or retires lists), so bumping here --
        #: and only here -- invalidates exactly the caches that may be stale.
        self.version = 1

    # -- lifecycle --------------------------------------------------------------

    def register(self, lst: EulerList) -> EulerList:
        self.version += 1
        self.by_root[lst.root] = lst
        if not lst.is_short:
            self.long_lists.add(lst)
        return lst

    def retire(self, lst: EulerList) -> None:
        self.version += 1
        self.by_root.pop(lst.root, None)
        self.long_lists.discard(lst)

    def set_root(self, lst: EulerList, root: tt.Node) -> None:
        if lst.root is not root:
            self.by_root.pop(lst.root, None)
            lst.root = root
            self.by_root[root] = lst

    def mark_long(self, lst: EulerList) -> None:
        self.long_lists.add(lst)

    def mark_short(self, lst: EulerList) -> None:
        self.long_lists.discard(lst)

    # -- lookups ---------------------------------------------------------------

    def resolve(self, chunk: Chunk) -> EulerList:
        """A chunk's list through the version-stamped cache, uncharged.

        The serving fronts' read path; engine code calls
        :meth:`list_of_chunk`, which charges the walk.
        """
        if chunk.cache_ver == self.version:
            return chunk.cache_lst
        lst = self.by_root[tt.root_of(chunk.leaf)]
        chunk.cache_ver = self.version
        chunk.cache_lst = lst
        return lst

    def list_of_chunk(self, chunk: Chunk) -> EulerList:
        """Resolve a chunk's list and charge the root walk.

        The charge is ``max(root.height, 1)`` with ``root`` the list's
        maintained root, whether or not the cache was warm, so op
        counters are bit-identical with and without a warm cache.
        """
        lst = self.resolve(chunk)
        # `height or 1` == max(height, 1) for the nonnegative heights
        self._charge("root_walk", lst.root.height or 1)
        return lst

    def lists(self) -> Iterator[EulerList]:
        yield from self.by_root.values()

    # -- UpdateAdj (Lemma 2.3) ----------------------------------------------------

    def update_adj(self, chunk: Chunk) -> None:
        """Refresh aggregates after row/column ``id_c`` of ``C`` changed."""
        if chunk.id is None:
            return
        tt.refresh_upward_changed(chunk.leaf, self.pull_changed)
        self.refresh_column(chunk.id)

    def refresh_column(self, j: int) -> None:
        """Recompute entry ``j`` of every LSDS vertex of every long list.

        The O(J)-total column sweep of ``UpdateAdj``, bottom-up per tree.
        ``col_sweep`` is charged once with the number of vertices visited
        (leaves included), the sum the per-vertex charges used to make.
        """
        long_lists = self.long_lists
        if not long_lists:
            return
        space = self.space
        if space.comp_lsds:
            # batched: one kernel call sweeps every long list's tree (most
            # are single-leaf roots -- pure dispatch overhead in python)
            n_nodes = compiled.kernels.col_sweep_many(
                list(long_lists), j, space.compm.buf, space.Jcap)
            space.ops.charge("col_sweep", n_nodes)
            return
        n_nodes = 0
        col = None
        for lst in long_lists:
            root = lst.root
            if not root.height:  # single-chunk list: a leaf, no aggregate
                n_nodes += 1
                continue
            if col is None:  # column j, read once
                col = space.C[:, j].tolist()
            n_nodes += _sweep_tree(root, j, col)
        space.ops.charge("col_sweep", n_nodes)


def _sweep_tree(root: tt.Node, j: int, col: list) -> int:
    """Set entry ``j`` of every internal vertex under ``root`` (height
    >= 1) from column ``col`` of ``C``, level by level from the bottom,
    with the strict-< leftmost-wins fold of the pulls.  Returns the
    number of vertices visited, leaves included."""
    levels = [[root]]
    while levels[-1][0].height > 1:
        levels.append([kid for node in levels[-1] for kid in node.kids])
    visited = 0
    for node in levels[-1]:  # height 1: the kids are chunk leaves
        best = INF_KEY
        memb = False
        kids = node.kids
        for kid in kids:
            cid = kid.item.id
            key = col[cid]
            if key < best:
                best = key
            if cid == j:
                memb = True
        cadj, mb = node.agg
        cadj[j] = best
        mb[j] = memb
        visited += len(kids) + 1
    for level in reversed(levels[:-1]):
        for node in level:
            best = INF_KEY
            memb = False
            for kid in node.kids:
                k_cadj, k_memb = kid.agg
                key = k_cadj[j]
                if key < best:
                    best = key
                if k_memb[j]:
                    memb = True
            cadj, mb = node.agg
            cadj[j] = best
            mb[j] = memb
        visited += len(level)
    return visited
