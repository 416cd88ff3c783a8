"""Coordination of chunks, the matrix ``C`` and LSDSes ("the fabric").

This module implements the maintenance discipline the paper's lemmas rely
on but states informally:

* **Invariant 1 restoration** (Lemma 2.2): split chunks above ``3K``, merge
  chunks below ``K`` with a neighbour (re-splitting if the merge overflows);
* **short/long transitions** (Section 6): a single-chunk list drops its
  chunk id when ``n_c < K`` and acquires one when it grows back;
* **surgical list operations** (Lemma 2.4): splitting a list at an
  occurrence and joining two lists, with all CAdj/Memb bookkeeping;
* **excursion links** (Lemma 2.1 without a split or join): a short tour
  -- an isolated vertex included -- joins a tour as one spliced run, with
  one ``UpdateAdj`` of the host chunk (:meth:`Fabric.attach_tour`);
* **excursion unsplices** (Lemma 2.1's cut without a split or join, the
  inverse): a short run inside one id'd chunk leaves its tour as a fresh
  short list, with one row rebuild and one ``UpdateAdj`` of the host chunk
  (:meth:`Fabric.detach_run`); ``euler.cut_tour`` collapses the seams;
* **gadget splices** (the degree reducer's slot release): an edgeless
  vertex leaves a tour by occurrence deletes (:meth:`Fabric.delete_occ`,
  principal copy included) and gets a fresh singleton list
  (:meth:`Fabric.new_singleton_list`); ``euler.detach_leaf`` and
  ``euler.bypass_node`` drive them;
* **edge/occurrence/principal bookkeeping**: the O(K)-scan row rebuilds and
  ``UpdateAdj`` calls each mutation requires.

Chunk splits and merges walk only the occurrences that change chunk
(``ChunkSpace.split_off`` / ``absorb``): a merged row is the lane-wise min
of the two rows over their live lanes, and a split's kept half gets its
totals by subtraction.  Both are charged exactly what the rescans they
replace were charged, and both backends take this one path.

Everything here is *sequential*; the parallel engine reuses the same state
but executes the heavy inner loops as PRAM kernels, and its chunk space
(``core.par.engine.ParChunkSpace``) keeps ``BT_c`` and adopts whole chunks
on surgery: there ``absorb`` returns no row and the merged row is rebuilt
by a scan.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.counters import OpCounter
from ..structures import two_three_tree as tt
from .chunks import Chunk, ChunkSpace
from .lsds import EulerList, ListRegistry
from .model import Edge, Occurrence, Vertex

__all__ = ["Fabric"]


class Fabric:
    """Owns the chunk space and registry; exposes consistent mutations."""

    def __init__(self, n_max: int, K: Optional[int] = None, *,
                 flavor: str = "sequential",
                 ops: Optional[OpCounter] = None,
                 backend: str = "scalar") -> None:
        self.space = ChunkSpace(n_max, K, flavor=flavor, ops=ops,
                                backend=backend)
        self.registry = ListRegistry(self.space)
        self.pull = self.registry.pull

    # ------------------------------------------------------------------ lists

    def new_singleton_list(self, vertex: Vertex) -> tuple[EulerList, Occurrence]:
        """Fresh one-occurrence tour for an isolated vertex (a short list)."""
        occ = Occurrence(vertex)
        vertex.pc = occ
        c = Chunk()
        c.head = c.tail = occ
        occ.chunk = c
        self.space.adopt_occurrences(c)
        lst = self.registry.register(EulerList(c.leaf))
        self._transition(lst)
        return lst, occ

    def list_of(self, chunk: Chunk) -> EulerList:
        """Resolve a chunk's list.  Callers resolve occurrences themselves
        (``occ.chunk``); the old ``isinstance`` dispatch is gone -- this is
        on the hot path of every query and mutation."""
        return self.registry.list_of_chunk(chunk)

    # ------------------------------------------------- short/long transitions

    def _transition(self, lst: EulerList) -> None:
        # Inlined ``single_chunk``/``only_chunk``/``n_c`` property walks:
        # this runs on every fix_chunk and every list-surgery epilogue.
        root = lst.root
        if root.height:
            return
        c: Chunk = root.item
        n_c = c.count + c.n_edges
        if c.id is None:
            if n_c >= self.space.K:
                self._make_long(lst)
        elif n_c < self.space.K:
            self._make_short(lst)

    def _make_long(self, lst: EulerList) -> None:
        c = lst.only_chunk
        assert c.id is None
        self.space.assign_id(c)
        self.space.rebuild_row(c)
        self.registry.mark_long(lst)
        self.registry.update_adj(c)

    def _make_short(self, lst: EulerList) -> None:
        c = lst.only_chunk
        freed = self.space.release_id(c)
        self.registry.mark_short(lst)
        self.registry.refresh_column(freed)

    # --------------------------------------------------- Invariant 1 (chunks)

    def fix_chunk(self, c: Chunk) -> None:
        """Restore Invariant 1 around ``c`` after its ``n_c`` changed."""
        if c.dead:  # merged away by an earlier fix in the same mutation
            return
        lst = self.registry.list_of_chunk(c)
        self._transition(lst)
        K = self.space.K
        n_c = c.count + c.n_edges
        if n_c > 3 * K:
            c1, c2 = self.split_chunk_balanced(c)
            self.fix_chunk(c1)
            self.fix_chunk(c2)
            return
        if n_c < K and lst.root.height:
            merged = self._merge_with_neighbor(c)
            self.fix_chunk(merged)
            return
        self._transition(lst)

    def split_chunk_balanced(self, c: Chunk) -> tuple[Chunk, Chunk]:
        """Split an overflowing chunk at its unit midpoint (Lemma 2.2)."""
        target = (c.count + c.n_edges) // 2
        acc = 0
        scanned = 0
        at: Optional[Occurrence] = None
        occ = c.head
        tail = c.tail
        while occ is not None:
            vx = occ.vertex
            acc += 1 + (len(vx.edges) if vx.pc is occ else 0)
            scanned += 1
            at = occ
            if acc >= target or occ is tail:
                break
            occ = occ.next
        self.space.ops.charge("occ_scan", scanned)
        assert at is not None
        if at is c.tail:  # keep at least one occurrence on the right
            at = at.prev
            assert at is not None and at.chunk is c
        return self.split_chunk(c, at)

    def split_chunk(self, c: Chunk, at_occ: Occurrence) -> tuple[Chunk, Chunk]:
        """Split chunk ``c`` after ``at_occ`` (both halves stay in the list)."""
        assert at_occ.chunk is c and at_occ is not c.tail
        lst = self.registry.list_of_chunk(c)
        c2 = Chunk()
        c2.head = at_occ.next
        c2.tail = c.tail
        c.tail = at_occ
        self.space.split_off(c, c2)
        if c.id is not None:
            self.space.rebuild_row(c)
            self.space.rebuild_row(c2)
            new_root = tt.insert_after(c.leaf, c2.leaf, self.pull)
            self.registry.set_root(lst, new_root)
            self.registry.update_adj(c)
            self.registry.update_adj(c2)
        # id-less split only ever happens while splitting a *short* list;
        # the caller immediately separates the two leaves into two lists.
        return c, c2

    def _merge_with_neighbor(self, c: Chunk) -> Chunk:
        nxt = tt.next_leaf(c.leaf)
        if nxt is not None:
            return self.merge_chunks(c, nxt.item)
        prv = tt.prev_leaf(c.leaf)
        assert prv is not None, "underflow fix on a single-chunk list"
        return self.merge_chunks(prv.item, c)

    def merge_chunks(self, cl: Chunk, cr: Chunk) -> Chunk:
        """Merge adjacent chunks (Lemma 2.2); keeps ``cl`` and its id."""
        assert cl.id is not None and cr.id is not None
        lst = self.registry.list_of_chunk(cl)
        space = self.space
        freed = cr.id
        merged = space.absorb(cl, cr)
        cr.dead = True
        new_root = tt.delete_leaf(cr.leaf, self.pull)
        assert new_root is not None
        self.registry.set_root(lst, new_root)
        # the row is written after the LSDS delete, as the rescan was:
        # the delete's pulls then read the same rows, so UpdateAdj's
        # early exit -- and its charges -- are unchanged
        if merged is None:
            space.rebuild_row(cl)
        else:
            space.write_row(cl, merged)
        self.registry.update_adj(cl)
        self.registry.refresh_column(freed)
        return cl

    # ------------------------------------------------------- list surgery

    def split_list(self, occ: Occurrence) -> tuple[EulerList, Optional[EulerList]]:
        """Split the list containing ``occ`` right after it (Lemma 2.4).

        Returns ``(left, right)``; ``right`` is ``None`` when ``occ`` is the
        last occurrence of its list.
        """
        c = occ.chunk
        lst = self.registry.list_of_chunk(c)
        if occ is c.tail:
            if tt.next_leaf(c.leaf) is None:
                return lst, None
            boundary = c
        elif c.id is not None:
            boundary, _ = self.split_chunk(c, occ)
        else:
            # short list: structural split of its only chunk, no id work
            c2 = Chunk()
            c2.head = occ.next
            c2.tail = c.tail
            c.tail = occ
            self.space.split_off(c, c2)
            boundary = c
            right_head = c2.head
            assert right_head is not None
            occ.next = None
            right_head.prev = None
            right = self.registry.register(EulerList(c2.leaf))
            self._fix_list(lst)
            self._fix_list(right)
            return lst, right
        lroot, rroot = tt.split_after(boundary.leaf, self.pull)
        assert rroot is not None
        left_tail = boundary.tail
        assert left_tail is not None
        right_head = left_tail.next
        assert right_head is not None
        left_tail.next = None
        right_head.prev = None
        self.registry.set_root(lst, lroot)
        right = self.registry.register(EulerList(rroot))
        self._fix_list(lst)
        self._fix_list(right)
        return lst, right

    def join_lists(self, left: EulerList, right: EulerList) -> EulerList:
        """Concatenate ``left ++ right`` into one list (Lemma 2.4 / Sec. 6)."""
        assert left is not right
        K = self.space.K
        if (left.is_short and right.is_short
                and left.only_chunk.n_c + right.only_chunk.n_c < K):
            # short ++ short stays short: physically merge the two chunks
            c1, c2 = left.only_chunk, right.only_chunk
            t1, h2 = c1.tail, c2.head
            assert t1 is not None and h2 is not None
            t1.next = h2
            h2.prev = t1
            self.space.absorb(c1, c2)
            c2.dead = True
            self.registry.retire(right)
            self._transition(left)
            return left
        for side in (left, right):
            if side.is_short:
                self._make_long(side)
        t1 = left.last_chunk().tail
        h2 = right.first_chunk().head
        assert t1 is not None and h2 is not None
        t1.next = h2
        h2.prev = t1
        new_root = tt.join(left.root, right.root, self.pull)
        assert new_root is not None
        self.registry.retire(right)
        self.registry.set_root(left, new_root)
        self.fix_chunk(t1.chunk)
        self.fix_chunk(h2.chunk)
        self._transition(left)
        return left

    def _fix_list(self, lst: EulerList) -> None:
        """Post-surgery pass: transitions plus boundary-chunk invariants."""
        self._transition(lst)
        first = lst.first_chunk()
        self.fix_chunk(first)
        last = lst.last_chunk()
        self.fix_chunk(last)
        self._transition(lst)

    # --------------------------------------------- occurrences and principals

    def insert_occ_after(self, ref: Occurrence, vertex: Vertex) -> Occurrence:
        """New (non-principal) occurrence of ``vertex`` right after ``ref``."""
        occ = Occurrence(vertex)
        c = ref.chunk
        occ.chunk = c
        occ.chunk_id = c.id
        occ.prev = ref
        occ.next = ref.next
        if ref.next is not None:
            ref.next.prev = occ
        ref.next = occ
        if c.tail is ref:
            c.tail = occ
        c.count += 1
        self.space.bt_insert_occ(occ, ref)
        self.space.ops.charge("occ_insert")
        self.fix_chunk(c)
        return occ

    def attach_tour(self, host: Occurrence,
                    s_star: Occurrence) -> tuple[Occurrence, Occurrence]:
        """Link a short tour into ``host``'s tour as one excursion.

        ``s_star`` is a principal copy in a short, id-less list.  That
        list and its chunk are retired; its run is rotated in place to
        start at ``s_star`` (pointer work only: the list has no id, no row
        and no LSDS aggregate), closed by a new occurrence ``s'`` of
        ``s_star.vertex`` unless it is a single occurrence, and spliced
        whole after ``host`` with a new host occurrence ``host'``:
        ``[.. host, s_star .. s', host' ..]``, with no list split or join
        (Lemma 2.1).  The run is restamped into ``host.chunk``; when that
        chunk carries an id, every edge side of the run's principal copies
        whose far chunk carries one is entered into ``C`` -- not only the
        edge being linked: the tour's own edges now lie in the host chunk,
        and an insert whose swap just cut a small subtree off leaves the
        cut edge attached as a non-tree edge.  ``C`` is symmetric, so one
        ``UpdateAdj`` of the host chunk (its path refresh and its column
        sweep) covers every pair written, whatever the number of far
        chunks.  Returns ``(s', host')`` (``s' is s_star`` for a single
        occurrence); the caller patches the arcs.
        """
        registry = self.registry
        space = self.space
        sc = s_star.chunk
        assert sc.id is None
        registry.retire(registry.by_root[sc.leaf])
        sc.dead = True
        end = s_star
        if sc.count > 1:
            last = s_star.prev
            if last is None:
                last = sc.tail
            else:  # rotate: [s_star .. tail, head .. last]
                head, tail = sc.head, sc.tail
                tail.next = head
                head.prev = tail
                last.next = None
                s_star.prev = None
            end = Occurrence(s_star.vertex)
            last.next = end
            end.prev = last
        c = host.chunk
        h_new = Occurrence(host.vertex)
        nxt = host.next
        host.next = s_star
        s_star.prev = host
        end.next = h_new
        h_new.prev = end
        h_new.next = nxt
        if nxt is not None:
            nxt.prev = h_new
        if c.tail is host:
            c.tail = h_new
        space.adopt_run(c, s_star, h_new)
        space.ops.charge("occ_insert", 1 if end is s_star else 2)
        if c.id is not None:
            occ = s_star
            while occ is not h_new:
                vx = occ.vertex
                if vx.pc is occ:
                    for side in vx.sides:
                        far = side.far.pc.chunk  # type: ignore[union-attr]
                        if far.id is not None:
                            space.entry_update_insert(c, far, side.key)
                occ = occ.next  # type: ignore[assignment]
            registry.update_adj(c)
        self.fix_chunk(c)
        return end, h_new

    def detach_run(self, first: Occurrence, last: Occurrence) -> EulerList:
        """Cut a short run out of its tour as one excursion (the inverse
        of :meth:`attach_tour`).

        ``first .. last`` lies, in list order, inside one id'd chunk ``c``
        and holds fewer than ``K`` units.  The run is unlinked, restamped
        into a fresh id-less chunk and registered as a short list; ``c``
        loses its counts, and its row is rebuilt once -- the run's far
        ids now read ``None``, so the rebuild drops the run's edges from
        the row and, by the mirror, from column ``id_c``, whichever
        chunks they reached -- followed by one ``UpdateAdj`` of ``c``.
        No list is split or joined and ``c`` is not fixed: the caller
        collapses both seams and then runs ``fix_chunk(c)``.  Returns the
        run's new list.
        """
        c = first.chunk
        assert c.id is not None and last.chunk is c
        prv, nxt = first.prev, last.next
        if prv is not None:
            prv.next = nxt
        if nxt is not None:
            nxt.prev = prv
        if c.head is first:
            c.head = nxt
        if c.tail is last:
            c.tail = prv
        assert c.head is not None and c.tail is not None, "run empties c"
        first.prev = None
        last.next = None
        c2 = Chunk()
        c2.head = first
        c2.tail = last
        space = self.space
        space.release_run(c, first, last, c2)
        lst = self.registry.register(EulerList(c2.leaf))
        space.rebuild_row(c)
        self.registry.update_adj(c)
        return lst

    def delete_occ(self, occ: Occurrence) -> None:
        """Remove a non-principal occurrence from its list (a vertex that
        leaves its tour altogether clears ``pc`` first)."""
        assert not occ.is_principal, "move the principal copy first"
        c = occ.chunk
        if occ.prev is not None:
            occ.prev.next = occ.next
        if occ.next is not None:
            occ.next.prev = occ.prev
        if c.head is occ:
            nxt = occ.next
            c.head = nxt if (nxt is not None and nxt.chunk is c) else None
        if c.tail is occ:
            prv = occ.prev
            c.tail = prv if (prv is not None and prv.chunk is c) else None
        c.count -= 1
        self.space.bt_delete_occ(occ)
        occ.prev = occ.next = None
        occ.chunk = None
        self.space.ops.charge("occ_delete")
        if c.count == 0:
            self._drop_empty_chunk(c)
        else:
            self.fix_chunk(c)

    def _drop_empty_chunk(self, c: Chunk) -> None:
        lst = self.registry.list_of_chunk(c)
        assert not lst.single_chunk, "a tour never becomes empty"
        c.dead = True
        if c.id is not None:
            freed = self.space.release_id(c)
        else:  # pragma: no cover - chunks in multi-chunk lists carry ids
            freed = None
        new_root = tt.delete_leaf(c.leaf, self.pull)
        assert new_root is not None
        self.registry.set_root(lst, new_root)
        if freed is not None:
            self.registry.refresh_column(freed)
        self._fix_list(lst)

    def move_principal(self, vertex: Vertex, new_pc: Occurrence) -> None:
        """Redesignate ``pc_v``; re-charges the vertex's edges across chunks."""
        old = vertex.pc
        assert old is not None and new_pc.vertex is vertex
        if old is new_pc:
            return
        a, b = old.chunk, new_pc.chunk
        vertex.pc = new_pc
        self.space.bt_refresh_occ(old)
        self.space.bt_refresh_occ(new_pc)
        if a is b:
            return
        deg = vertex.degree()
        a.n_edges -= deg
        b.n_edges += deg
        for ch in (a, b):
            if ch.id is not None:
                self.space.rebuild_row(ch)
        for ch in (a, b):
            if ch.id is not None:
                self.registry.update_adj(ch)
        self.fix_chunk(a)
        self.fix_chunk(new_pc.chunk)  # refetch: b may have merged/split

    # ------------------------------------------------------------ edges

    def register_edge(self, e: Edge) -> None:
        """Account a *freshly inserted* edge (already in vertex adjacency)."""
        c1 = e.u.pc.chunk  # type: ignore[union-attr]
        c2 = e.v.pc.chunk  # type: ignore[union-attr]
        c1.n_edges += 1
        c2.n_edges += 1
        self.space.bt_refresh_occ(e.u.pc)  # type: ignore[arg-type]
        self.space.bt_refresh_occ(e.v.pc)  # type: ignore[arg-type]
        if c1.id is not None and c2.id is not None:
            # C is symmetric: c1's path refresh and column sweep reach the
            # (c2, c1) entry too, so c2 needs no UpdateAdj of its own
            self.space.entry_update_insert(c1, c2, e.key)
            self.registry.update_adj(c1)
        self.fix_chunk(c1)
        self.fix_chunk(e.v.pc.chunk)  # refetch: c2 may have merged/split

    def unregister_edge(self, e: Edge) -> None:
        """Account an edge removal (already removed from vertex adjacency)."""
        c1 = e.u.pc.chunk  # type: ignore[union-attr]
        c2 = e.v.pc.chunk  # type: ignore[union-attr]
        c1.n_edges -= 1
        c2.n_edges -= 1
        self.space.bt_refresh_occ(e.u.pc)  # type: ignore[arg-type]
        self.space.bt_refresh_occ(e.v.pc)  # type: ignore[arg-type]
        if c1.id is not None and c2.id is not None:
            # both directions are rewritten (set_pair), so c1's UpdateAdj
            # covers the pair, as in register_edge
            self.space.entry_recompute_pair(c1, c2)
            self.registry.update_adj(c1)
        self.fix_chunk(c1)
        self.fix_chunk(e.v.pc.chunk)  # refetch: c2 may have merged/split
