"""Euler-tour surgery (Lemma 2.1): tree link/cut as O(1) list operations.

Every MSF tree ``T`` is stored as a *linear* list of occurrences whose
cyclic adjacencies (consecutive pairs plus the wrap from tail to head) are
the arcs of an Euler tour of ``T``.  A vertex ``x`` occurs ``max(1,
deg_T(x))`` times.  Each tree edge ``e = (u, v)`` remembers its two arcs:

* ``arc_uv = (a_u, b_v)`` -- the arc entering the ``v`` side, and
* ``arc_vu = (c_v, d_u)`` -- the arc returning to the ``u`` side,

as ordered occurrence pairs.  List rotations (split + join) preserve cyclic
adjacency, so arcs stay valid across all surgery; only :func:`cut_tour` and
:func:`link_tour` create/destroy adjacencies, and they patch the affected
arcs explicitly.

``cut_tour(e)``: when one side's run (``[b_v..c_v]`` or ``[d_u..a_u]``)
lies in list order inside one id'd chunk and holds fewer than ``K`` units,
it leaves as one *excursion* (:meth:`Fabric.detach_run`, the inverse of the
excursion link): it is unlinked into a fresh short list, the host chunk's
row is rebuilt once and one ``UpdateAdj`` of the host chunk follows, and
both seams collapse.  No list is split or joined, and a cut whose side
ends lie in different chunks charges nothing for the test.  Every other
cut rotates the list to ``[b_v ... a_u]`` (so ``arc_uv`` is the wrap),
splits after ``c_v`` into the tours of ``T_v = [b_v..c_v]`` and ``T_u =
[d_u..a_u]``, then merges each seam (the two boundary occurrences of one
vertex collapse into one, keeping the principal copy when present).

``link_tour(e)``: when one endpoint's tour is *short* (one id-less chunk,
fewer than ``K`` units) and the other endpoint's chunk carries an id -- or
when one endpoint is an isolated vertex and the other is not -- the short
tour is linked as one *excursion* (:meth:`Fabric.attach_tour`): rotated in
place to start at its endpoint's principal copy, closed by one new
occurrence of that endpoint (none for an isolated vertex), and spliced
whole, with one new occurrence of the host endpoint, after the host's
principal copy.  No list is split or joined; the host chunk takes at most
``K + 1`` units, so one ``UpdateAdj`` and at most one balanced split
follow.  Every gadget-chain extension of the degree reducer, every path
build and every re-link of a small subtree into a long tour take this
case.  Otherwise (two short tours, two long tours, two isolated vertices)
rotate ``T_v``'s list to start at ``pc_v``, embed it as an excursion after
``pc_u``, adding one new occurrence of ``v`` (if ``T_v`` is not a
singleton) and one of ``u`` (if ``T_u`` is not).

Two *gadget splices* serve the degree reducer's slot release; neither
rotates, splits or joins a list:

* :func:`detach_leaf` (the inverse of the leaf link) removes a tree edge
  whose endpoint has no other edge: it deletes the leaf's occurrence and
  one of the two host occurrences it separated (the principal copy is
  kept), retargets the arc that ran through the dropped one, and gives the
  leaf a fresh short, id-less list;
* :func:`bypass_node` contracts a degree-2 node ``s`` out of a path ``p -
  s - q``: it deletes both occurrences of ``s`` and hands the arcs ``(p_x,
  q_x)`` and ``(q_y, p_y)`` that close over them to the new edge ``(p,
  q)``; ``s`` gets a fresh singleton list too.
"""

from __future__ import annotations

from typing import Optional

from .fabric import Fabric
from .lsds import EulerList
from .model import Edge, Occurrence, Vertex

__all__ = ["bypass_node", "cut_tour", "detach_leaf", "link_tour",
           "tour_occurrences"]


def tour_occurrences(lst: EulerList):
    """Iterate the occurrences of a list in tour order (test/debug helper)."""
    occ: Optional[Occurrence] = lst.first_chunk().head
    while occ is not None:
        yield occ
        occ = occ.next


def _tree_edge_between(x: Occurrence, y: Occurrence) -> Edge:
    """The unique tree edge whose arc is the adjacency (x, y)."""
    vx, vy = x.vertex, y.vertex
    for e in vx.edges:
        if e.is_tree and e.other(vx) is vy:
            return e
    raise AssertionError(f"no tree edge for arc {x!r}->{y!r}")


def _retarget_arc(old: tuple[Occurrence, Occurrence],
                  new: tuple[Occurrence, Occurrence]) -> None:
    """Repoint the tree-edge arc equal (by identity) to ``old``."""
    g = _tree_edge_between(*old)
    if g.arc_uv is not None and g.arc_uv[0] is old[0] and g.arc_uv[1] is old[1]:
        g.arc_uv = new
    elif g.arc_vu is not None and g.arc_vu[0] is old[0] and g.arc_vu[1] is old[1]:
        g.arc_vu = new
    else:  # pragma: no cover - would indicate arc bookkeeping corruption
        raise AssertionError(f"edge {g!r} does not own arc {old!r}")


def _drop_seam_occurrence(fabric: Fabric, keep: Occurrence, drop: Occurrence,
                          drop_is_tail: bool) -> None:
    """Collapse the two boundary occurrences of a seam into one."""
    assert keep.vertex is drop.vertex
    if drop_is_tail:
        prev = drop.prev
        assert prev is not None
        _retarget_arc((prev, drop), (prev, keep))
    else:
        nxt = drop.next
        assert nxt is not None
        _retarget_arc((drop, nxt), (keep, nxt))
    fabric.delete_occ(drop)


def _short_run(fabric: Fabric, first: Occurrence, last: Occurrence) -> bool:
    """Whether the side ``[first .. last]`` of a cut leaves its tour as one
    excursion: both ends lie in one id'd chunk (tested first, uncharged)
    and the run lies forward inside it with fewer than ``K`` units
    (:meth:`~repro.core.chunks.ChunkSpace.run_is_short`, charged)."""
    c = first.chunk
    return (c is last.chunk and c.id is not None
            and fabric.space.run_is_short(c, first, last))


def _cut_excursion(fabric: Fabric, first: Occurrence, last: Occurrence,
                   x: Occurrence, y: Occurrence) -> tuple[EulerList, EulerList]:
    """Cut the short side ``[first .. last]`` out of ``[.. x, first ..
    last, y ..]``; returns ``(host list, run list)``."""
    host = first.chunk
    lhost = fabric.list_of(host)
    lrun = fabric.detach_run(first, last)
    _collapse_seam(fabric, last, first)  # the run's wrap closes its tour
    _collapse_seam(fabric, x, y)
    fabric.fix_chunk(host)
    return lhost, lrun


def cut_tour(fabric: Fabric, e: Edge) -> tuple[EulerList, EulerList]:
    """Remove tree edge ``e``; returns ``(list_of_u_side, list_of_v_side)``.

    The tour reads ``[.. a_u, b_v .. c_v, d_u ..]`` cyclically, ``e``
    owning ``(a_u, b_v)`` and ``(c_v, d_u)``.  Excursion case
    (:func:`_short_run`, the ``v`` side tried first): one side's run lies
    forward inside one id'd chunk with fewer than ``K`` units.  It is cut
    out whole (:meth:`Fabric.detach_run`: one row rebuild and one
    ``UpdateAdj`` of the host chunk), then its own seam -- its wrap from
    its last to its first occurrence -- and the host's -- the two host
    copies it separated -- each collapse into one copy, keeping the
    principal copy (:func:`_collapse_seam`), and the host chunk is fixed.
    Every other cut (two long sides, a short run across a chunk boundary
    or around the list's end, a short list) rotates, splits and joins as
    below.
    """
    assert e.arc_uv is not None and e.arc_vu is not None
    a_u, b_v = e.arc_uv
    c_v, d_u = e.arc_vu
    e.arc_uv = None
    e.arc_vu = None
    if _short_run(fabric, b_v, c_v):
        return _cut_excursion(fabric, b_v, c_v, a_u, d_u)
    if _short_run(fabric, d_u, a_u):
        lv, lu = _cut_excursion(fabric, d_u, a_u, c_v, b_v)
        return lu, lv
    # 1. rotate so the list is [b_v ... a_u] (arc_uv becomes the wrap)
    if a_u.next is not None:
        p1, p2 = fabric.split_list(a_u)
        assert p2 is not None
        fabric.join_lists(p2, p1)
    # 2. split after c_v: [b_v..c_v] is Euler(T_v), [d_u..a_u] is Euler(T_u)
    lv, lu = fabric.split_list(c_v)
    assert lu is not None
    # 3. seam merges (skip degenerate single-occurrence sides)
    if a_u is not d_u:
        if a_u.is_principal:
            _drop_seam_occurrence(fabric, a_u, d_u, drop_is_tail=False)
        else:
            _drop_seam_occurrence(fabric, d_u, a_u, drop_is_tail=True)
    if b_v is not c_v:
        if b_v.is_principal:
            _drop_seam_occurrence(fabric, b_v, c_v, drop_is_tail=True)
        else:
            _drop_seam_occurrence(fabric, c_v, b_v, drop_is_tail=False)
    return lu, lv


def _single(occ: Occurrence) -> bool:
    return occ.prev is None and occ.next is None


def _splices_into(s_star: Occurrence, h_star: Occurrence) -> bool:
    """Whether ``s_star``'s tour links into ``h_star``'s as one excursion:
    its list is short (id-less) and the host's chunk carries an id, or it
    is an isolated vertex; the host is not a single occurrence."""
    return (s_star.chunk.id is None and not _single(h_star)
            and (h_star.chunk.id is not None or _single(s_star)))


def _link_excursion(fabric: Fabric, e: Edge, s_star: Occurrence,
                    h_star: Occurrence, lhost: EulerList) -> EulerList:
    succ = h_star.next if h_star.next is not None else lhost.first_chunk().head
    assert succ is not None
    end, h_new = fabric.attach_tour(h_star, s_star)
    if end is not s_star:  # the short tour's old wrap now closes on s'
        last = end.prev
        assert last is not None
        _retarget_arc((last, s_star), (last, end))
    _retarget_arc((h_star, succ), (h_new, succ))
    if s_star.vertex is e.v:
        e.arc_uv = (h_star, s_star)
        e.arc_vu = (end, h_new)
    else:
        e.arc_uv = (end, h_new)
        e.arc_vu = (h_star, s_star)
    return lhost


def link_tour(fabric: Fabric, e: Edge) -> EulerList:
    """Insert ``e`` as a tree edge joining the tours of its endpoints.

    Excursion case (:func:`_splices_into`): the short tour of one
    endpoint, rotated to start at its principal copy ``s*`` and closed by
    a new occurrence ``s'`` (none for an isolated vertex), is spliced
    after the host's principal copy ``h*`` together with a new host
    occurrence ``h'``: ``[.. h*, s* .. s', h' ..]``.  The short tour's old
    wrap arc ``(last, s*)`` becomes ``(last, s')``, the host's old
    outgoing arc ``(h*, succ)`` -- ``succ`` cyclic, the list head when
    ``h*`` is the tail -- becomes ``(h', succ)``, and ``e`` owns ``(h*,
    s*)`` and ``(s', h')``.  Every other link rotates, splits and joins as
    below.
    """
    u, v = e.u, e.v
    u_star, v_star = u.pc, v.pc
    assert u_star is not None and v_star is not None
    lu = fabric.list_of(u_star.chunk)
    lv = fabric.list_of(v_star.chunk)
    assert lu is not lv, "endpoints already in one tree"
    if _splices_into(v_star, u_star):
        return _link_excursion(fabric, e, v_star, u_star, lu)
    if _splices_into(u_star, v_star):
        return _link_excursion(fabric, e, u_star, v_star, lv)
    # 1. rotate Euler(T_v) to start at pc_v
    if v_star.prev is not None:
        head_part, tail_part = fabric.split_list(v_star.prev)
        assert tail_part is not None
        lv = fabric.join_lists(tail_part, head_part)
    v_singleton = _single(v_star)
    u_singleton = _single(u_star)
    # 2. new occurrence of v closing the excursion (unless T_v is singleton)
    if not v_singleton:
        old_tail_v = lv.last_chunk().tail
        assert old_tail_v is not None
        v_new = fabric.insert_occ_after(old_tail_v, v)
        _retarget_arc((old_tail_v, v_star), (old_tail_v, v_new))
        end_v = v_new
    else:
        end_v = v_star
    # 3. new occurrence of u resuming the host tour (unless T_u is singleton)
    u_new: Optional[Occurrence] = None
    if not u_singleton:
        succ = u_star.next if u_star.next is not None else lu.first_chunk().head
        assert succ is not None
        u_new = fabric.insert_occ_after(u_star, u)
        _retarget_arc((u_star, succ), (u_new, succ))
    # 4. splice: [.. u*] ++ [v* .. end_v] ++ [u_new ..]
    if u_singleton:
        merged = fabric.join_lists(lu, lv)
    else:
        left, right = fabric.split_list(u_star)
        assert right is not None
        merged = fabric.join_lists(left, lv)
        merged = fabric.join_lists(merged, right)
    e.arc_uv = (u_star, v_star)
    e.arc_vu = (end_v, u_new if u_new is not None else u_star)
    return merged


def _cyclic_next(fabric: Fabric, occ: Occurrence) -> Occurrence:
    nxt = occ.next
    if nxt is None:
        nxt = fabric.list_of(occ.chunk).first_chunk().head
    assert nxt is not None
    return nxt


def _cyclic_prev(fabric: Fabric, occ: Occurrence) -> Occurrence:
    prv = occ.prev
    if prv is None:
        prv = fabric.list_of(occ.chunk).last_chunk().tail
    assert prv is not None
    return prv


def _collapse_seam(fabric: Fabric, x: Occurrence, y: Occurrence) -> None:
    """Collapse ``x`` and ``y``, cyclically adjacent copies of one vertex
    (``[.. w, x, y, z ..]``), into one, keeping the principal copy when
    present: dropping ``y`` hands its outgoing arc ``(y, z)`` to ``(x,
    z)``, dropping ``x`` hands ``(w, x)`` to ``(w, y)``."""
    if x is y:
        return
    if y.is_principal:
        w = _cyclic_prev(fabric, x)
        _retarget_arc((w, x), (w, y))
        fabric.delete_occ(x)
    else:
        z = _cyclic_next(fabric, y)
        _retarget_arc((y, z), (x, z))
        fabric.delete_occ(y)


def _delete_vertex_occurrences(fabric: Fabric, vertex: Vertex,
                               occs: tuple[Occurrence, ...]) -> None:
    """Delete every occurrence of an edgeless ``vertex`` (principal copy
    included) and give it a fresh singleton list."""
    vertex.pc = None
    for occ in occs:
        fabric.delete_occ(occ)
    fabric.new_singleton_list(vertex)


def detach_leaf(fabric: Fabric, e: Edge, leaf: Vertex) -> None:
    """Remove tree edge ``e``, whose endpoint ``leaf`` has no other edge.

    The tour reads ``[.. x, s, y ..]`` cyclically, with ``s`` the leaf's
    only occurrence and ``x``, ``y`` occurrences of the host, ``e`` owning
    ``(x, s)`` and ``(s, y)``.  ``s`` is deleted; if ``x`` and ``y`` are
    distinct copies they collapse into one (:func:`_collapse_seam`).  The
    caller has already taken ``e`` out of the adjacency and the fabric's
    edge accounting, so the leaf carries no edge into its new list.
    """
    assert e.arc_uv is not None and e.arc_vu is not None
    s = leaf.pc
    assert s is not None and not leaf.edges
    into, out = (e.arc_uv, e.arc_vu) if e.arc_uv[1] is s else (e.arc_vu,
                                                                e.arc_uv)
    assert into[1] is s and out[0] is s
    x, y = into[0], out[1]
    _delete_vertex_occurrences(fabric, leaf, (s,))
    _collapse_seam(fabric, x, y)
    e.arc_uv = None
    e.arc_vu = None


def bypass_node(fabric: Fabric, e_in: Edge, e_out: Edge, e_new: Edge,
                mid: Vertex) -> None:
    """Replace tree edges ``e_in = (p, mid)``, ``e_out = (mid, q)`` by
    ``e_new = (p, q)`` in the tour.

    ``mid`` has no other edge, so it occurs exactly twice, cyclically
    ``[.. p_x, s_a, q_x .. q_y, s_b, p_y ..]``.  Both ``s_a`` and ``s_b``
    are deleted and ``e_new`` takes the two arcs that now close over them,
    ``(p_x, q_x)`` and ``(q_y, p_y)``; every other arc is untouched.  The
    caller has already taken ``e_in`` and ``e_out`` out of the adjacency
    and the edge accounting and registers ``e_new`` afterwards.
    """
    assert e_in.arc_uv is not None and e_in.arc_vu is not None
    assert e_out.arc_uv is not None and e_out.arc_vu is not None
    assert not mid.edges
    into, back = ((e_in.arc_uv, e_in.arc_vu)
                  if e_in.arc_uv[1].vertex is mid
                  else (e_in.arc_vu, e_in.arc_uv))
    p_x, s_a = into
    s_b, p_y = back
    ahead, ret = ((e_out.arc_uv, e_out.arc_vu) if e_out.arc_uv[0] is s_a
                  else (e_out.arc_vu, e_out.arc_uv))
    assert ahead[0] is s_a and ret[1] is s_b and s_a is not s_b
    q_x, q_y = ahead[1], ret[0]
    _delete_vertex_occurrences(fabric, mid, (s_a, s_b))
    if e_new.u is p_x.vertex:
        e_new.arc_uv, e_new.arc_vu = (p_x, q_x), (q_y, p_y)
    else:
        e_new.arc_uv, e_new.arc_vu = (q_y, p_y), (p_x, q_x)
    for g in (e_in, e_out):
        g.arc_uv = None
        g.arc_vu = None
