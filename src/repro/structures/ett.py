"""Euler-tour forests on balanced 2-3 trees (the HDT substrate).

A lighter cousin of the chunked Euler-tour machinery in ``repro.core``:
tours are stored directly as 2-3 trees whose leaves are occurrences, with
aggregates supporting the queries Holm-de Lichtenberg-Thorup connectivity
needs per level:

* ``size``          -- number of vertices (active occurrences) in a tree;
* vertex flags      -- "this vertex stores level-i non-tree edges";
* edge markers      -- "this tree edge has level exactly i";
* ``find``/``iter`` over flagged vertices / marked edges of a tree.

Each vertex owns one **active** occurrence carrying its flag; each tree
edge owns two arcs (ordered occurrence pairs that are cyclically adjacent)
and an optional marker hosted on its ``arc_uv`` source occurrence.  Link
and cut use the same O(1)-splits-and-joins algebra as ``repro.core.euler``.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from . import two_three_tree as tt

__all__ = ["EulerTourForest", "EttEdge"]


class _Occ:
    __slots__ = ("vertex", "leaf", "active", "vflag", "markers", "hosted")

    def __init__(self, vertex: int) -> None:
        self.vertex = vertex
        self.leaf: tt.Node = tt.leaf(self)
        self.active = False
        self.vflag = False
        self.markers = 0  # marked tree edges hosted here
        self.hosted: set = set()  # EttEdges whose marker lives here

    def agg(self) -> tuple[int, bool, int]:
        return (1 if self.active else 0,
                self.active and self.vflag,
                self.markers)


class EttEdge:
    """Per-forest record of one tree edge."""

    __slots__ = ("u", "v", "data", "arc_uv", "arc_vu", "marked", "host")

    def __init__(self, u: int, v: int, data: Any) -> None:
        self.u = u
        self.v = v
        self.data = data
        self.arc_uv: Optional[tuple[_Occ, _Occ]] = None
        self.arc_vu: Optional[tuple[_Occ, _Occ]] = None
        self.marked = False
        self.host: Optional[_Occ] = None  # occurrence carrying the marker


def _pull(node: tt.Node) -> None:
    # Hot-loop hygiene: leaf aggregates are computed inline (no ``agg()``
    # tuple allocation per kid), and an internal vertex's aggregate is a
    # mutable list updated in place -- ``_pull`` runs on every 2-3-tree
    # vertex each structural mutation touches, so the old per-call tuple
    # allocations dominated ETT-heavy workloads.
    size = 0
    vflag = False
    markers = 0
    for kid in node.kids:
        if kid.height:
            s, f, m = kid.agg
            size += s
            vflag = vflag or f
            markers += m
        else:
            occ = kid.item
            if occ.active:
                size += 1
                vflag = vflag or occ.vflag
            markers += occ.markers
    agg = node.agg
    if agg.__class__ is list:
        agg[0] = size
        agg[1] = vflag
        agg[2] = markers
    else:
        node.agg = [size, vflag, markers]


def _node_agg(node: tt.Node) -> tuple[int, bool, int]:
    return node.item.agg() if node.is_leaf else node.agg


class EulerTourForest:
    """A forest over vertices ``0..n-1`` with flags/markers per tree."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.active: list[_Occ] = []
        for v in range(n):
            occ = _Occ(v)
            occ.active = True
            self.active.append(occ)
        # tree-adjacency lookup for arc repatching on seam merges
        self._tree_edge: dict[tuple[int, int], EttEdge] = {}
        self.ops = 0

    # ------------------------------------------------------------ basics

    def _root(self, occ: _Occ) -> tt.Node:
        self.ops += 1
        return tt.root_of(occ.leaf)

    def tree_root(self, v: int) -> tt.Node:
        return self._root(self.active[v])

    def connected(self, u: int, v: int) -> bool:
        return self.tree_root(u) is self.tree_root(v)

    def size(self, v: int) -> int:
        return _node_agg(self.tree_root(v))[0]

    def _refresh(self, occ: _Occ) -> None:
        tt.refresh_upward(occ.leaf, _pull)
        self.ops += 1

    # ------------------------------------------------------------ flags

    def set_vertex_flag(self, v: int, flag: bool) -> None:
        occ = self.active[v]
        if occ.vflag != flag:
            occ.vflag = flag
            self._refresh(occ)

    def set_edge_marker(self, e: EttEdge, marked: bool) -> None:
        if e.marked == marked:
            return
        e.marked = marked
        host = e.host
        assert host is not None, "marker on an edge not in this forest"
        host.markers += 1 if marked else -1
        self._refresh(host)

    def iter_flagged_vertices(self, root: tt.Node) -> Iterator[int]:
        """All flagged vertices in the tree of ``root`` (O(found * log))."""
        yield from self._iter(root, which=1)

    def iter_marked_edges(self, root: tt.Node) -> Iterator[EttEdge]:
        for occ in self._iter(root, which=2, occs=True):
            # an occurrence can host several marked edges
            for e in self._edges_hosted(occ):
                yield e

    def _edges_hosted(self, occ: _Occ) -> list[EttEdge]:
        return [e for e in occ.hosted if e.marked]

    def _iter(self, node: tt.Node, which: int, occs: bool = False):
        """DFS guided by aggregates; which=1: vflag, which=2: markers."""
        stack = [node]
        while stack:
            cur = stack.pop()
            agg = _node_agg(cur)
            hit = agg[1] if which == 1 else agg[2] > 0
            if not hit:
                continue
            self.ops += 1
            if cur.is_leaf:
                occ = cur.item
                yield occ if occs else occ.vertex
            else:
                stack.extend(reversed(cur.kids))

    # ------------------------------------------------------------ link/cut

    def link(self, u: int, v: int, data: Any = None) -> EttEdge:
        """Join the trees of u and v with a new tree edge."""
        assert not self.connected(u, v)
        e = EttEdge(u, v, data)
        u_star = self.active[u]
        v_star = self.active[v]
        # rotate Euler(T_v) to start at v_star
        prev = tt.prev_leaf(v_star.leaf)
        if prev is not None:
            left, right = tt.split_after(prev.item.leaf, _pull)
            tt.join(right, left, _pull)
        v_single = tt.root_of(v_star.leaf).is_leaf
        u_single = tt.root_of(u_star.leaf).is_leaf
        end_v = v_star
        if not v_single:
            old_tail = tt.last_leaf(tt.root_of(v_star.leaf)).item
            v_new = _Occ(v)
            # (return value is the possibly-new tree root; unused here)
            tt.insert_after(old_tail.leaf, v_new.leaf, _pull)
            self._retarget((old_tail, v_star), (old_tail, v_new))
            end_v = v_new
        u_new: Optional[_Occ] = None
        if not u_single:
            nxt = tt.next_leaf(u_star.leaf)
            succ = (nxt.item if nxt is not None
                    else tt.first_leaf(tt.root_of(u_star.leaf)).item)
            u_new = _Occ(u)
            tt.insert_after(u_star.leaf, u_new.leaf, _pull)
            self._retarget((u_star, succ), (u_new, succ))
        # splice [.. u*] ++ [v* .. end_v] ++ [u_new ..]
        rv = tt.root_of(v_star.leaf)
        if u_single:
            tt.join(u_star.leaf, rv, _pull)
        else:
            left, right = tt.split_after(u_star.leaf, _pull)
            mid = tt.join(left, rv, _pull)
            tt.join(mid, right, _pull)
        e.arc_uv = (u_star, v_star)
        e.arc_vu = (end_v, u_new if u_new is not None else u_star)
        e.host = u_star
        u_star.hosted.add(e)
        self._tree_edge[self._key(u, v)] = e
        self.ops += 8
        return e

    def cut(self, e: EttEdge) -> None:
        """Remove tree edge ``e``, splitting its tree in two."""
        assert e.arc_uv is not None and e.arc_vu is not None
        if e.marked:
            self.set_edge_marker(e, False)
        a_u, b_v = e.arc_uv
        c_v, d_u = e.arc_vu
        # rotate so the list is [b_v ... a_u]
        if tt.next_leaf(a_u.leaf) is not None:
            left, right = tt.split_after(a_u.leaf, _pull)
            tt.join(right, left, _pull)
        sv, su = tt.split_after(c_v.leaf, _pull)
        assert su is not None
        if a_u is not d_u:
            if a_u.active:
                self._drop_seam(keep=a_u, drop=d_u, drop_is_tail=False)
            else:
                self._drop_seam(keep=d_u, drop=a_u, drop_is_tail=True)
        if b_v is not c_v:
            if b_v.active:
                self._drop_seam(keep=b_v, drop=c_v, drop_is_tail=True)
            else:
                self._drop_seam(keep=c_v, drop=b_v, drop_is_tail=False)
        e.arc_uv = None
        e.arc_vu = None
        assert e.host is not None
        e.host.hosted.discard(e)
        e.host = None
        del self._tree_edge[self._key(e.u, e.v)]
        self.ops += 8

    # ------------------------------------------------------------ internals

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def _retarget(self, old: tuple[_Occ, _Occ], new: tuple[_Occ, _Occ]) -> None:
        x, y = old
        g = self._tree_edge[self._key(x.vertex, y.vertex)]
        if g.arc_uv is not None and g.arc_uv[0] is x and g.arc_uv[1] is y:
            g.arc_uv = new
        elif g.arc_vu is not None and g.arc_vu[0] is x and g.arc_vu[1] is y:
            g.arc_vu = new
        else:  # pragma: no cover
            raise AssertionError("arc bookkeeping corrupted")

    def _drop_seam(self, keep: _Occ, drop: _Occ, drop_is_tail: bool) -> None:
        assert keep.vertex == drop.vertex and not drop.active
        if drop_is_tail:
            prev = tt.prev_leaf(drop.leaf).item
            self._retarget((prev, drop), (prev, keep))
        else:
            nxt = tt.next_leaf(drop.leaf).item
            self._retarget((drop, nxt), (keep, nxt))
        # edges hosted on the dropped occurrence move to the kept one
        if drop.hosted:
            for g in drop.hosted:
                g.host = keep
                keep.hosted.add(g)
                if g.marked:
                    keep.markers += 1
            drop.hosted.clear()
            drop.markers = 0
            self._refresh(keep)
        tt.delete_leaf(drop.leaf, _pull)
        self.ops += 4
