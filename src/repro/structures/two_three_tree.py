"""Worst-case balanced 2-3 trees over a *sequence* of leaves.

This is the balanced-tree backbone used twice by the paper:

* the LSDS (Section 2.2) is "implemented as a 2-3 tree whose leaves
  correspond, in order, to the chunks of L" with entrywise min/OR vector
  aggregates per internal vertex, and
* each chunk's ``BT_c`` (Section 3) is a 2-3 tree over the occurrences of the
  chunk with *edge counter* aggregates.

The tree here is positional (no keys): leaves appear in list order and the
operations are exactly the ones Lemmas 2.3/3.2 need -- insert a leaf after a
given leaf, delete a leaf, split the sequence after a leaf, and join two
sequences.  All operations touch ``O(log n)`` tree vertices in the worst
case; every touched vertex is reported to a pluggable aggregation hook so
the caller can charge the per-vertex vector work the paper's cost analysis
charges (``O(J)`` per touched LSDS vertex, ``O(1)`` per touched ``BT_c``
vertex).

Aggregation protocol
--------------------
Operations accept a ``pull`` callable.  After any structural change the
implementation calls ``pull(node)`` bottom-up for every internal vertex
whose child set changed, so ``pull`` may recompute ``node.agg`` from
``node.kids``.  Leaves own their ``agg`` (the caller sets it and calls
:func:`refresh_upward` when it changes).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from ..resilience import faults as _faults

__all__ = [
    "Node",
    "leaf",
    "root_of",
    "height_of",
    "first_leaf",
    "last_leaf",
    "next_leaf",
    "prev_leaf",
    "iter_leaves",
    "iter_nodes",
    "count_leaves",
    "insert_after",
    "insert_first",
    "build_rightmost",
    "delete_leaf",
    "join",
    "split_after",
    "refresh_upward",
    "refresh_upward_changed",
    "validate",
]

Pull = Callable[["Node"], None]


def _noop_pull(node: "Node") -> None:  # default aggregation hook
    return None


class Node:
    """A 2-3 tree vertex.

    Internal vertices hold 2 or 3 children in ``kids`` (transiently 1 or 4
    during rebalancing).  Leaves have ``kids == []`` and carry a caller
    payload in ``item``.  ``agg`` is caller-owned aggregate storage.
    """

    __slots__ = ("parent", "kids", "item", "agg", "height", "pos", "scache")

    def __init__(self, item: Any = None, height: int = 0) -> None:
        self.parent: Optional[Node] = None
        self.kids: list[Node] = []
        self.item = item
        self.agg: Any = None
        self.height = height
        # Index of this node in parent.kids.  Maintained by every mutation so
        # EREW PRAM kernels can test "am I the leftmost child?" by reading a
        # cell only *they* touch (the paper's column-sweep survivor rule).
        self.pos = 0
        # Caller-owned *structural shape cache* for this subtree (used by
        # ``repro.core.par.kernels`` as a ``(tag, shape)`` pair).  The
        # invariant maintained here: every mutation that changes the
        # structure of a subtree -- or a leaf aggregate reported via
        # :func:`refresh_upward` -- sets ``scache = None`` on the changed
        # vertex and on every vertex the rebalancing/refresh walk visits
        # above it.  All mutation paths already walk changed-vertex ->
        # root (``_fix_overflow`` / ``_fix_underflow`` / ``split_after``'s
        # dissolve / ``refresh_upward``), so invalidation is O(1) per
        # vertex the operation touches anyway, and an untouched subtree
        # keeps its cached shape valid: shape-key computation becomes
        # O(changed path) amortized instead of O(tree).
        self.scache: Any = None

    @property
    def is_leaf(self) -> bool:
        return self.height == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "Leaf" if self.is_leaf else f"Node(h={self.height})"
        return f"<{kind} item={self.item!r}>"


def leaf(item: Any, agg: Any = None) -> Node:
    """Create a detached leaf carrying ``item`` with initial aggregate."""
    node = Node(item=item, height=0)
    node.agg = agg
    return node


# ---------------------------------------------------------------------------
# navigation
# ---------------------------------------------------------------------------

def root_of(node: Node) -> Node:
    """Walk parent pointers to the root: O(log n)."""
    while node.parent is not None:
        node = node.parent
    return node


def height_of(root: Optional[Node]) -> int:
    return -1 if root is None else root.height


def first_leaf(root: Optional[Node]) -> Optional[Node]:
    if root is None:
        return None
    while root.height:  # hot path: avoid the is_leaf property dispatch
        root = root.kids[0]
    return root


def last_leaf(root: Optional[Node]) -> Optional[Node]:
    if root is None:
        return None
    while root.height:
        root = root.kids[-1]
    return root


def _sibling_step(node: Node, direction: int) -> Optional[Node]:
    """Next (+1) / previous (-1) leaf in sequence order, O(log n).

    Uses the maintained ``pos`` child index instead of the old
    ``p.kids.index(cur)`` linear scan (every mutation keeps ``pos`` fresh;
    ``validate`` asserts it).
    """
    cur = node
    while cur.parent is not None:
        p = cur.parent
        j = cur.pos + direction
        if 0 <= j < len(p.kids):
            sub = p.kids[j]
            return first_leaf(sub) if direction > 0 else last_leaf(sub)
        cur = p
    return None


def next_leaf(node: Node) -> Optional[Node]:
    return _sibling_step(node, +1)


def prev_leaf(node: Node) -> Optional[Node]:
    return _sibling_step(node, -1)


def iter_leaves(root: Optional[Node]) -> Iterator[Node]:
    if root is None:
        return
    stack = [root]
    out: list[Node] = []
    # explicit stack, reversed-push DFS keeps sequence order; the inline
    # ``not kids`` test avoids the is_leaf property dispatch in this hot path
    while stack:
        node = stack.pop()
        kids = node.kids
        if not kids:
            out.append(node)
        else:
            stack.extend(reversed(kids))
    yield from out


def iter_nodes(root: Optional[Node]) -> Iterator[Node]:
    """All vertices (internal + leaves), parent before child."""
    if root is None:
        return
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.kids)


def count_leaves(root: Optional[Node]) -> int:
    return sum(1 for _ in iter_leaves(root))


# ---------------------------------------------------------------------------
# aggregation plumbing
# ---------------------------------------------------------------------------

def refresh_upward(node: Node, pull: Pull) -> None:
    """Re-pull aggregates on the path from ``node``'s parent to the root.

    Called after a leaf aggregate changed in place.  Touches O(log n)
    vertices -- with LSDS vector pulls this is the O(J log J) path-refresh
    of operation ``UpdateAdj`` (Lemma 2.3).
    """
    node.scache = None  # leaf aggregates feed BT_c shape keys
    cur = node.parent
    while cur is not None:
        cur.scache = None
        pull(cur)
        cur = cur.parent
    if _faults.armed:  # post-refresh aggregate corruption site
        _faults.fire("tt.agg", node=node)


def refresh_upward_changed(node: Node,
                           pull_changed: Callable[["Node"], bool]) -> None:
    """Early-exit variant of :func:`refresh_upward`.

    ``pull_changed(v)`` recomputes ``v.agg`` from its children and returns
    ``True`` iff the stored aggregate actually changed.  Because every
    internal aggregate is a pure function of its children's aggregates,
    an unchanged vertex implies every ancestor is already consistent, so
    the walk stops -- the worst case stays O(log n) pulls, but localized
    leaf changes (the common ``UpdateAdj`` after a single matrix-entry
    update) usually terminate after one or two vertices.
    """
    cur = node.parent
    while cur is not None and pull_changed(cur):
        cur = cur.parent
    if _faults.armed:  # post-refresh aggregate corruption site
        _faults.fire("tt.agg", node=node)


def _reindex(parent: Node) -> None:
    i = 0
    for kid in parent.kids:
        kid.pos = i
        i += 1


def _attach(parent: Node, pos: int, child: Node) -> None:
    kids = parent.kids
    kids.insert(pos, child)
    parent.scache = None
    child.parent = parent
    # only children at index >= pos moved; reindex the suffix
    for i in range(pos, len(kids)):
        kids[i].pos = i


def _detach_from_parent(node: Node) -> None:
    p = node.parent
    if p is not None:
        kids = p.kids
        i = node.pos
        if 0 <= i < len(kids) and kids[i] is node:  # pos is maintained hot
            del kids[i]
        else:  # defensive: fall back to a scan
            kids.remove(node)
            i = 0
        p.scache = None
        node.parent = None
        for k in range(i, len(kids)):
            kids[k].pos = k


def _fix_overflow(node: Node, pull: Pull) -> Node:
    """Split vertices with 4 children, walking to the root; return root."""
    while True:
        node.scache = None
        if len(node.kids) <= 3:
            if node.height:
                pull(node)
            if node.parent is None:
                return node
            node = node.parent
            continue
        # split 4 children into 2+2
        right = Node(height=node.height)
        moved = node.kids[2:]
        node.kids = node.kids[:2]
        for child in moved:
            child.parent = right
        right.kids = moved
        _reindex(node)
        _reindex(right)
        pull(node)
        pull(right)
        p = node.parent
        if p is None:
            new_root = Node(height=node.height + 1)
            _attach(new_root, 0, node)
            _attach(new_root, 1, right)
            pull(new_root)
            return new_root
        _attach(p, node.pos + 1, right)
        node = p


# ---------------------------------------------------------------------------
# insert / delete
# ---------------------------------------------------------------------------

def insert_after(after: Node, new_leaf: Node, pull: Pull = _noop_pull) -> Node:
    """Insert detached ``new_leaf`` right after leaf ``after``; return root."""
    assert after.is_leaf and new_leaf.is_leaf and new_leaf.parent is None
    p = after.parent
    if p is None:
        root = Node(height=1)
        _attach(root, 0, after)
        _attach(root, 1, new_leaf)
        pull(root)
        return root
    _attach(p, after.pos + 1, new_leaf)
    return _fix_overflow(p, pull)


def insert_first(root: Optional[Node], new_leaf: Node, pull: Pull = _noop_pull) -> Node:
    """Insert detached ``new_leaf`` as the first leaf of ``root``'s tree."""
    assert new_leaf.is_leaf and new_leaf.parent is None
    if root is None:
        return new_leaf
    head = first_leaf(root)
    assert head is not None
    p = head.parent
    if p is None:  # tree was a single leaf
        new_root = Node(height=1)
        _attach(new_root, 0, new_leaf)
        _attach(new_root, 1, head)
        pull(new_root)
        return new_root
    _attach(p, 0, new_leaf)
    return _fix_overflow(p, pull)


def build_rightmost(leaves: list[Node],
                    pull: Pull = _noop_pull) -> Optional[Node]:
    """Build, in O(n), the exact tree that inserting ``leaves`` left to
    right with :func:`insert_after` (each after the current last leaf)
    would produce.

    Repeated rightmost insertion is deterministic: every overflow happens
    on the rightmost spine and splits 4 children into 2+2 exactly like
    ``_fix_overflow``, so the resulting shape is a pure function of
    ``len(leaves)``.  This builder simulates that evolution with a spine
    stack (O(1) amortized per leaf) and then runs **one** bottom-up
    ``pull`` pass -- internal aggregates are pure functions of child
    aggregates, so the final aggregates match the incremental
    construction's.  ``tests/structures`` pins shape *and* aggregate
    equality against the incremental build.

    The bulk path matters because ``ChunkSpace.adopt_occurrences``
    rebuilds each chunk's ``BT_c`` from scratch on every chunk surgery:
    the incremental loop costs O(K log K) with a root walk per leaf,
    the builder O(K).  Measured kernels (``getEdge``) read the BT
    structure, so shape equality is load-bearing: it keeps the PRAM
    depth/work of every engine bit-identical to the incremental build.
    """
    n = len(leaves)
    if n == 0:
        return None
    if n == 1:
        return leaves[0]
    level = leaves
    h = 1
    for sizes in _rightmost_template(n):
        nxt: list[Node] = []
        i = 0
        for sz in sizes:
            node = Node(height=h)
            kids = level[i:i + sz]
            i += sz
            node.kids = kids
            p = 0
            for c in kids:
                c.parent = node
                c.pos = p
                p += 1
            pull(node)
            nxt.append(node)
        level = nxt
        h += 1
    return level[0]


#: memoized kid-count templates for :func:`build_rightmost`: the shape of
#: a rightmost-insertion tree is a pure function of the leaf count
_rightmost_templates: dict[int, tuple[tuple[int, ...], ...]] = {}


def _rightmost_template(n: int) -> tuple[tuple[int, ...], ...]:
    """Kid counts per level (height 1 first, left to right) of the tree
    produced by ``n`` rightmost insertions; derived by simulating the
    overflow cascade of ``_fix_overflow`` on integer counts."""
    tpl = _rightmost_templates.get(n)
    if tpl is not None:
        return tpl
    levels: list[list[int]] = [[2]]  # after the second leaf
    for _ in range(n - 2):
        levels[0][-1] += 1
        h = 0
        while levels[h][-1] == 4:  # split 4 kids into 2 + 2
            levels[h][-1] = 2
            levels[h].append(2)
            h += 1
            if h < len(levels):
                levels[h][-1] += 1  # right sibling joins the parent
            else:
                levels.append([2])  # root split: grow a level
                break
    tpl = tuple(tuple(lv) for lv in levels)
    _rightmost_templates[n] = tpl
    return tpl


def delete_leaf(target: Node, pull: Pull = _noop_pull) -> Optional[Node]:
    """Remove leaf ``target``; return the (possibly new / None) root."""
    assert target.is_leaf
    p = target.parent
    if p is None:
        return None  # tree was just this leaf
    _detach_from_parent(target)
    return _fix_underflow(p, pull)


def _fix_underflow(node: Node, pull: Pull) -> Node:
    """Repair vertices with a single child, walking to the root."""
    while True:
        node.scache = None
        if len(node.kids) >= 2:
            pull(node)
            if node.parent is None:
                return node
            node = node.parent
            continue
        p = node.parent
        if p is None:
            # root with one child: drop a level
            only = node.kids[0]
            only.parent = None
            node.kids = []
            return only
        i = node.pos
        sib = p.kids[i - 1] if i > 0 else p.kids[i + 1]
        if len(sib.kids) == 3:
            # borrow a child from the richer sibling
            if i > 0:
                moved = sib.kids.pop()
                node.kids.insert(0, moved)
            else:
                moved = sib.kids.pop(0)
                node.kids.append(moved)
            moved.parent = node
            sib.scache = None
            _reindex(sib)
            _reindex(node)
            pull(sib)
            pull(node)
            node = p
        else:
            # merge node into sibling (sibling has 2 children)
            donor = node.kids.pop(0)
            if i > 0:
                sib.kids.append(donor)
            else:
                sib.kids.insert(0, donor)
            donor.parent = sib
            sib.scache = None
            _reindex(sib)
            _detach_from_parent(node)
            pull(sib)
            node = p


# ---------------------------------------------------------------------------
# join / split
# ---------------------------------------------------------------------------

def join(left: Optional[Node], right: Optional[Node], pull: Pull = _noop_pull) -> Optional[Node]:
    """Concatenate two trees (all leaves of ``left`` before ``right``)."""
    if left is None:
        return right
    if right is None:
        return left
    hl, hr = left.height, right.height
    if hl == hr:
        root = Node(height=hl + 1)
        _attach(root, 0, left)
        _attach(root, 1, right)
        pull(root)
        return root
    if hl > hr:
        # descend the right spine of `left` to height hr + 1
        spot = left
        while spot.height > hr + 1:
            spot = spot.kids[-1]
        _attach(spot, len(spot.kids), right)
        return _fix_overflow(spot, pull)
    # hr > hl: descend the left spine of `right`
    spot = right
    while spot.height > hl + 1:
        spot = spot.kids[0]
    _attach(spot, 0, left)
    return _fix_overflow(spot, pull)


def _group(sibs: list[Node], pull: Pull) -> Node:
    """Form a valid tree out of 1-2 adjacent detached siblings."""
    if len(sibs) == 1:
        return sibs[0]
    root = Node(height=sibs[0].height + 1)
    for j, s in enumerate(sibs):
        _attach(root, j, s)
    pull(root)
    return root


def split_after(target: Node, pull: Pull = _noop_pull) -> tuple[Node, Optional[Node]]:
    """Split the tree containing leaf ``target`` right after it.

    Returns ``(left_root, right_root)``; ``target`` becomes the last leaf of
    the left tree, and ``right_root`` is ``None`` if ``target`` was already
    the last leaf.  Dissolves the root path and re-joins the sibling groups;
    heights telescope, so the total cost is O(log n) tree vertices.
    """
    assert target.is_leaf
    left_root: Optional[Node] = target
    right_root: Optional[Node] = None
    node: Node = target
    while node.parent is not None:
        p = node.parent
        # `pos` is an int snapshot: dissolving a vertex's children (below)
        # never touches the vertex's own pos, so the climb stays valid.
        idx = node.pos
        kids = list(p.kids)
        for c in kids:  # dissolve p
            c.parent = None
        p.kids = []
        p.scache = None
        left_sibs = kids[:idx]
        right_sibs = kids[idx + 1:]
        if left_sibs:
            left_root = join(_group(left_sibs, pull), left_root, pull)
        if right_sibs:
            grp = _group(right_sibs, pull)
            right_root = grp if right_root is None else join(right_root, grp, pull)
        # `p` stays linked under its own parent so position lookup works on
        # the next iteration; it is dropped when that parent dissolves.
        node = p
    assert left_root is not None
    return left_root, right_root


def validate(root: Optional[Node]) -> None:
    """Assert structural invariants; used heavily in tests."""
    if root is None:
        return
    assert root.parent is None
    leaf_depths: set[int] = set()

    def rec(node: Node, depth: int) -> None:
        if node.is_leaf:
            assert node.kids == []
            leaf_depths.add(depth)
            return
        assert 2 <= len(node.kids) <= 3, f"degree {len(node.kids)} at height {node.height}"
        for i, c in enumerate(node.kids):
            assert c.parent is node
            assert c.height == node.height - 1
            assert c.pos == i, "stale child-position index"
            rec(c, depth + 1)

    rec(root, 0)
    assert len(leaf_depths) <= 1, "leaves at different depths"
