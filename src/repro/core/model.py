"""Record types shared by the dynamic-MSF engines.

Terminology follows Section 2 of the paper:

* every MSF tree ``T`` is represented by an *Euler tour* stored as a list of
  **occurrences** (vertex copies); adjacent occurrences -- cyclically -- are
  the arcs of the tour;
* each graph vertex designates one occurrence as its **principal copy**
  (``pc_u``); the edges incident to ``u`` are charged to the chunk holding
  ``pc_u``;
* edge weights are totally ordered by ``(weight, edge_id)`` so the MSF is
  unique and every tie is broken deterministically.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Optional

from ..resilience.errors import InvalidInputError

__all__ = ["Key", "INF_KEY", "Occurrence", "Vertex", "Edge", "SideRec",
           "adj_add", "adj_remove", "check_endpoints", "check_weight",
           "MAX_DEGREE"]

Key = tuple  # (weight, edge_id)

#: Sentinel greater than every real edge key; comparable with all keys.
INF_KEY: Key = (math.inf, math.inf)


def check_endpoints(u: Any, v: Any, n: int) -> None:
    """Reject an edge whose endpoints are not vertex ids ``0..n-1``.

    Called by every public insert path before an edge id is drawn and
    before any registry write, so a rejected insert changes nothing.
    ``bool`` and non-integral values (``0.0``, ``0.5``, ``"1"``) are
    rejected too: ``True`` would silently alias vertex 1 and a float
    would fail deep inside an update, after the registry was written.
    """
    for x in (u, v):
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise InvalidInputError(
                f"endpoints ({u!r}, {v!r}) must be integer vertex ids in "
                f"range 0..{n - 1}")
    if not (0 <= u < n and 0 <= v < n):
        raise InvalidInputError(
            f"endpoints ({u}, {v}) out of range 0..{n - 1}")


def check_weight(w: Any) -> None:
    """Reject an edge weight that is not a finite real number.

    Called by every public insert path next to :func:`check_endpoints`,
    before any conversion, id draw or registry write.  NaN breaks the
    ``(w, eid)`` total order, infinities are the gadget chains' keys,
    and ``bool``, ``str``, ``None`` and ``complex`` are not weights
    (``True`` would silently weigh 1, ``"1.5"`` would pass ``float()``).
    """
    if isinstance(w, bool) or not isinstance(w, numbers.Real):
        raise InvalidInputError(
            f"edge weight must be a real number, got {w!r}")
    if not math.isfinite(w):
        raise InvalidInputError(f"edge weight must be finite, got {w!r}")


#: The core engines require the Frederickson degree bound (Section 1.1);
#: arbitrary-degree graphs go through `repro.core.degree.DegreeReducer`.
MAX_DEGREE = 3


class Occurrence:
    """One copy of a vertex inside an Euler-tour list.

    Occurrences live in a doubly-linked list per Euler tour (``prev`` /
    ``next``), are grouped into consecutive chunks (``chunk``), and -- in the
    parallel engine -- double as leaves of the chunk's ``BT_c`` 2-3 tree
    (``bt_leaf``).
    """

    __slots__ = ("vertex", "prev", "next", "chunk", "bt_leaf", "chunk_id")

    def __init__(self, vertex: "Vertex") -> None:
        self.vertex = vertex
        self.prev: Optional[Occurrence] = None
        self.next: Optional[Occurrence] = None
        self.chunk: Any = None  # repro.core.chunks.Chunk
        self.bt_leaf: Any = None  # two_three_tree leaf when BT_c is maintained
        # Replicated copy of ``chunk.id`` (EREW kernels read it through the
        # occurrence so at most deg(v) <= 3 processors contend, staggered by
        # adjacency slot, instead of all processors hitting one chunk cell).
        self.chunk_id: Optional[int] = None

    @property
    def is_principal(self) -> bool:
        return self.vertex.pc is self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        star = "*" if self.is_principal else ""
        return f"<Occ v{self.vertex.vid}{star}>"


class Vertex:
    """A graph vertex of the (sparse, degree-<=3) core graph."""

    __slots__ = ("vid", "pc", "edges", "sides", "lct")

    def __init__(self, vid: int) -> None:
        self.vid = vid
        self.pc: Optional[Occurrence] = None
        self.edges: list[Edge] = []  # incident edges, |edges| <= MAX_DEGREE
        # sides[i] is edges[i].side(self): the half-edge record owned by this
        # endpoint, so a kernel processor reaches (key, far, slot_far)
        # without ever touching cells the far endpoint's processor reads.
        self.sides: list[SideRec] = []
        self.lct: Any = None  # LCTNode for this vertex

    def degree(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Vertex {self.vid} deg={len(self.edges)}>"


class SideRec:
    """Per-endpoint replica of an edge's static data (EREW access pattern).

    The parallel kernels of Section 3 assign one processor per *edge
    endpoint* charged to a chunk.  To keep every same-step memory access
    exclusive, each endpoint owns a private record: its processor reads the
    edge key, the far vertex, and its adjacency slot *at the far end* (the
    stagger index for the <=3-way contention on ``far.pc``) without touching
    cells the far endpoint's processor may read in the same step.
    """

    __slots__ = ("edge", "owner", "far", "key", "slot_far")

    def __init__(self, edge: "Edge", owner: Vertex, far: Vertex) -> None:
        self.edge = edge
        self.owner = owner
        self.far = far
        self.key = edge.key
        self.slot_far = -1  # index of `edge` in far.edges; adj_* maintain it


class Edge:
    """An undirected edge with a strict-total-order key.

    Tree edges additionally carry their LCT node and their two Euler-tour
    arcs.  An arc is an *ordered* pair of occurrences ``(x, y)`` such that
    ``y`` is the cyclic successor of ``x`` in the tour; ``arc_uv`` goes from
    a ``u``-occurrence into the ``v`` side and ``arc_vu`` returns.
    """

    __slots__ = ("u", "v", "weight", "eid", "key", "is_tree", "lct",
                 "arc_uv", "arc_vu", "srec_u", "srec_v")

    def __init__(self, u: Vertex, v: Vertex, weight: float, eid: int) -> None:
        assert u is not v, "self-loops are excluded from the core engines"
        self.u = u
        self.v = v
        self.weight = weight
        self.eid = eid
        self.key: Key = (weight, eid)
        self.is_tree = False
        self.lct: Any = None
        self.arc_uv: Optional[tuple[Occurrence, Occurrence]] = None
        self.arc_vu: Optional[tuple[Occurrence, Occurrence]] = None
        self.srec_u = SideRec(self, u, v)
        self.srec_v = SideRec(self, v, u)

    def other(self, x: Vertex) -> Vertex:
        return self.v if x is self.u else self.u

    def side(self, x: Vertex) -> SideRec:
        return self.srec_u if x is self.u else self.srec_v

    def endpoints(self) -> tuple[Vertex, Vertex]:
        return self.u, self.v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        t = "T" if self.is_tree else "N"
        return f"<Edge#{self.eid} {self.u.vid}-{self.v.vid} w={self.weight} {t}>"


def adj_add(v: Vertex, e: Edge) -> None:
    """Append ``e`` to ``v``'s adjacency, maintaining slot replicas."""
    v.edges.append(e)
    v.sides.append(e.side(v))
    slot = len(v.edges) - 1
    # the *far* side's record holds our slot as its stagger index
    e.side(e.other(v)).slot_far = slot


def adj_remove(v: Vertex, e: Edge) -> None:
    """Swap-remove ``e`` from ``v``'s adjacency in O(1), fixing slots."""
    slot = e.side(e.other(v)).slot_far
    assert v.edges[slot] is e
    last = v.edges.pop()
    last_side = v.sides.pop()
    if last is not e:
        v.edges[slot] = last
        v.sides[slot] = last_side
        last.side(last.other(v)).slot_far = slot
    e.side(e.other(v)).slot_far = -1
