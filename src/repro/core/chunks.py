"""Chunks and the global chunk-adjacency matrix (Section 2.2 / Section 3).

Each Euler-tour list is partitioned into consecutive **chunks** of
occurrences.  Chunk ``c`` is *adjacent to* edge ``e`` when ``e`` touches a
vertex whose principal copy lies in ``c``.  Invariant 1 bounds

    ``n_c = (#occurrences in c) + (#edge endpoints charged to c)``

by ``K <= n_c <= 3K`` (the lower bound only when ``c`` is not the sole chunk
of its list).

Connectivity information lives in one global ``J x J`` matrix ``C`` of edge
*keys* -- the paper's parallel-ready representation (Section 3, second
change): row ``id_c`` of ``C`` is the vector ``CAdj_c``, where
``C[id_c, id_c']`` is the minimum key of an edge between principal copies in
``c`` and ``c'``.  An edge is recorded iff *both* endpoint chunks carry ids
(chunks of *short* single-chunk lists carry none -- Section 6).

Each row keeps its set of live lanes (``ChunkSpace._live``, the columns
holding a key), so row rebuilds, column mirrors and id releases write only
the stale and new lanes, and chunk surgery walks only what moved
(:meth:`ChunkSpace.split_off`, :meth:`ChunkSpace.absorb`): a merge's row is
the lane-wise min of the two rows (:func:`merge_rows`), only the moved side
is restamped, and a split's kept half gets its totals by subtraction.  An
excursion run spliced into a chunk or cut out of one is restamped alone
(:meth:`ChunkSpace.adopt_run`, :meth:`ChunkSpace.release_run`).  One
path serves both backends; ``backend`` only picks which kernel runs a loop.
The charges are those of the full-width O(K) rescan this replaces (Lemma
2.2): the ``OpCounter`` models the paper's algorithm, not the host's loop.

The parallel engine's chunks additionally maintain ``BT_c`` (a 2-3 tree
over the chunk's occurrences driving ``getEdge``); that lives in
:class:`repro.core.par.engine.ParChunkSpace`, which overrides the ``bt_*``
hooks and adopts whole chunks on surgery.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

try:
    import numpy as np
except ImportError:  # pure-python fallback; see core._nplite
    from . import _nplite as np  # type: ignore[no-redef]

from ..analysis.counters import OpCounter
from ..resilience import faults as _faults
from ..structures import two_three_tree as tt
from . import compiled
from .model import INF_KEY, Edge, Key, Occurrence, Vertex

__all__ = ["BACKENDS", "Chunk", "ChunkSpace", "check_backend",
           "check_engine_backend", "default_K", "merge_rows"]

#: the execution backends every front accepts: ``"scalar"`` (numpy, or the
#: ``_nplite`` shim) and ``"compiled"`` (the native extension).  Both are
#: bit-identical on forests and ``OpCounter`` totals.
BACKENDS = ("scalar", "compiled")


def check_backend(backend: str) -> None:
    """Reject a ``backend`` outside :data:`BACKENDS` with ``ValueError``."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be "
                         f"{' or '.join(map(repr, BACKENDS))}, "
                         f"got {backend!r}")


def check_engine_backend(engine: str, backend: str) -> None:
    """:func:`check_backend`, plus: the parallel engine is scalar-only.

    Its depth and work are PRAM-simulator quantities no host kernel can
    change, and the wall time the compiled tier bought it did not pay for
    the kernels that existed only for it, so ``engine="parallel"`` with
    ``backend="compiled"`` raises ``ValueError``.
    """
    check_backend(backend)
    if engine == "parallel" and backend != "scalar":
        raise ValueError(f"the parallel engine runs on backend='scalar' "
                         f"only, got backend={backend!r}")


def default_K(n_max: int, flavor: str = "sequential") -> int:
    """The paper's chunk-size parameter.

    ``sqrt(n log n)`` balances J+K for the sequential engine (Theorem 1.2);
    ``sqrt(n)`` balances log J + log K processors/depth for the parallel
    engine (Theorem 3.1).  Clamped so splits always produce legal halves.
    """
    n = max(n_max, 2)
    if flavor == "sequential":
        k = math.isqrt(int(n * max(1.0, math.log2(n))))
    elif flavor == "parallel":
        k = math.isqrt(n)
    else:
        raise ValueError(f"unknown K flavor {flavor!r}")
    return max(k, 8)


class Chunk:
    """A consecutive run of occurrences in one Euler-tour list."""

    __slots__ = ("head", "tail", "count", "n_edges", "id", "leaf",
                 "memb_row", "bt_root", "dead", "cache_ver", "cache_lst")

    def __init__(self) -> None:
        self.head: Optional[Occurrence] = None
        self.tail: Optional[Occurrence] = None
        self.count = 0          # occurrences
        self.n_edges = 0        # edge endpoints charged to this chunk
        self.id: Optional[int] = None
        self.leaf = tt.leaf(self)       # this chunk's LSDS leaf
        self.memb_row: Optional[np.ndarray] = None  # one-hot bools when id'd
        self.bt_root: Optional[tt.Node] = None      # BT_c (parallel engine)
        self.dead = False       # merged away / dropped; guards stale refs
        self.cache_ver = 0      # chunk->list cache stamp (ListRegistry.version)
        self.cache_lst = None   # cached EulerList, valid iff stamps match

    @property
    def n_c(self) -> int:
        return self.count + self.n_edges

    def occurrences(self) -> Iterator[Occurrence]:
        occ = self.head
        while occ is not None:
            yield occ
            if occ is self.tail:
                break
            occ = occ.next

    def edge_endpoints(self) -> Iterator[tuple[Vertex, Edge]]:
        """All (vertex, edge) pairs charged to this chunk, in chunk order.

        An edge with both principal copies in the chunk appears twice (once
        per endpoint), matching the paper's ``n_c`` accounting and the
        ``getEdge`` ordering (occurrence order, then adjacency order).
        """
        for occ in self.occurrences():
            if occ.is_principal:
                for e in occ.vertex.edges:
                    yield occ.vertex, e

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Chunk id={self.id} count={self.count} n_edges={self.n_edges}>"


def merge_rows(row_l, row_r, lanes, lid: int, rid: int) -> dict[int, Key]:
    """``CAdj`` of the merge of chunks ``lid`` and ``rid`` from their rows.

    Lane ``j`` of the merged chunk is the lightest edge from either half
    to chunk ``j``: the lane-wise min over ``lanes`` (the union of both
    rows' live lanes; every other lane is ``INF_KEY`` in both).  Lane
    ``rid`` is folded into lane ``lid`` -- the self lane becomes
    ``min(C[l,l], C[l,r], C[r,r])`` -- and dropped, since the merged chunk
    keeps ``lid`` and ``rid`` is freed.  Returns the live lanes as
    ``{lane: key}``.
    """
    vals = {}
    for j in lanes:
        a = row_l[j]
        b = row_r[j]
        vals[j] = a if a < b else b
    folded = vals.pop(rid, INF_KEY)
    if folded < vals.get(lid, INF_KEY):
        vals[lid] = folded
    return vals


def _restamp(head: Occurrence, tail: Occurrence, c: Chunk,
             cid: Optional[int]) -> tuple[int, int]:
    """Stamp ``occ.chunk``/``occ.chunk_id`` on ``head..tail``; return the
    run's ``(count, n_edges)``."""
    count = 0
    n_edges = 0
    occ = head
    while occ is not None:
        occ.chunk = c
        occ.chunk_id = cid
        count += 1
        vx = occ.vertex
        if vx.pc is occ:  # inlined is_principal / degree()
            n_edges += len(vx.edges)
        if occ is tail:
            break
        occ = occ.next
    return count, n_edges


def _stamp(head: Optional[Occurrence], tail: Optional[Occurrence], c: Chunk,
           cid: Optional[int]) -> None:
    """Stamp ``occ.chunk``/``occ.chunk_id`` on ``head..tail``; no counts."""
    occ = head
    while occ is not None:
        occ.chunk = c
        occ.chunk_id = cid
        if occ is tail:
            break
        occ = occ.next


class ChunkSpace:
    """Global chunk bookkeeping: ids, the matrix ``C``, and counters."""

    def __init__(self, n_max: int, K: Optional[int] = None, *,
                 flavor: str = "sequential",
                 ops: Optional[OpCounter] = None,
                 backend: str = "scalar") -> None:
        check_backend(backend)
        if backend == "compiled":
            compiled.require()
        self.n_max = n_max
        self.K = K if K is not None else default_K(n_max, flavor)
        # sum of n_c over id'd chunks <= 2n occurrences + 2m <= 3n endpoints
        self.Jcap = max(4, math.ceil(5 * n_max / self.K) + 8)
        #: the ``Jcap x Jcap`` object matrix, ``None`` until the first
        #: :meth:`assign_id` allocates it (see :meth:`_allocate`); readers
        #: that can run earlier treat ``None`` as all ``INF_KEY``
        self.C: Optional[np.ndarray] = None
        self.inf_row: Optional[np.ndarray] = None
        # Stable row views: PRAM kernels address matrix cells as
        # (row_view, column); views must keep a stable identity.
        self.row_views: Optional[list[np.ndarray]] = None
        self.chunk_of_id: list[Optional[Chunk]] = [None] * self.Jcap
        self._free_ids = list(range(self.Jcap - 1, -1, -1))
        self.ops = ops if ops is not None else OpCounter()
        self.backend = backend
        #: flat float64 mirror of ``C`` (see core.compiled): the native
        #: kernels' traversal substrate, dual-written at every write site
        #: below.  ``None`` unless ``backend == "compiled"`` and ``C`` is
        #: allocated -- every mirror touch is gated on that.
        self.compm: Optional[compiled.CompiledMatrix] = None
        #: compiled LSDS aggregates: flat (bytearray) buffers the kernels
        #: walk directly (the parallel engine, scalar-only, keeps object
        #: aggregates: its PRAM programs register them by identity)
        self.comp_lsds = backend == "compiled"
        #: per-row live-lane sets: ``_live[i]`` is exactly
        #: ``{j : C[i][j] != INF_KEY}``, maintained at every write site.
        #: Row rebuilds, column mirrors and id releases then touch O(live)
        #: lanes instead of Theta(Jcap) -- the model-cost charges stay
        #: full-width (``row_clear``/``col_mirror``/``id_release`` are the
        #: paper's accounting), only the wall-clock work shrinks.
        self._live: list[set[int]] = [set() for _ in range(self.Jcap)]
        #: Per-column snapshots of ``C[:, j]`` as of the last column sweep
        #: that absorbed column ``j`` (trace-replay fast path only; see
        #: ``repro.core.par.kernels.column_sweep_kernel``).  Lazily
        #: populated -- sequential/strict engines never touch it.
        self.col_snap: dict[int, np.ndarray] = {}

    def _allocate(self) -> None:
        """Allocate ``C``, ``inf_row``, ``row_views`` and the mirror.

        The one allocation point, run by the first :meth:`assign_id`:
        until some chunk carries an id every entry is ``INF_KEY``, and most
        engines of a sparsification tree never build a long list.  Charges
        are unaffected -- every per-row charge is full-width (``Jcap``)
        whether or not the matrix exists yet.
        """
        Jcap = self.Jcap
        self.C = np.empty((Jcap, Jcap), dtype=object)
        self.C.fill(INF_KEY)
        self.inf_row = np.empty(Jcap, dtype=object)
        self.inf_row.fill(INF_KEY)
        self.row_views = [self.C[i] for i in range(Jcap)]
        if self.backend == "compiled":
            self.compm = compiled.CompiledMatrix(Jcap)

    # -- id management ---------------------------------------------------------

    @property
    def live_ids(self) -> int:
        return self.Jcap - len(self._free_ids)

    def assign_id(self, c: Chunk) -> int:
        cid = self._claim_id(c)
        _stamp(c.head, c.tail, c, cid)  # fresh per-occurrence ids
        self.ops.charge("id_assign", self.Jcap + c.count)
        return cid

    def _claim_id(self, c: Chunk) -> int:
        """Give ``c`` a free id; the caller stamps the occurrences and
        charges ``id_assign``."""
        assert c.id is None
        if not self._free_ids:
            raise RuntimeError("chunk-id space exhausted; Jcap undersized")
        if self.C is None:
            self._allocate()
        # Column-snapshot invalidation (trace-replay fast path): the dirty
        # diff in ``_sweep_incremental`` compares *values*, so a snapshot
        # recorded under one id tenure must never be diffed against the
        # next tenant's column -- a value coincidence across tenures (the
        # classic ABA) would mask a genuine ownership change and leave
        # LSDS aggregates stale.  Id churn is restructuring-rate (not
        # per-update), so dropping the snapshots here keeps the common
        # incremental path exact while forcing a full host recompute on
        # the first sweep after any id reuse.
        self.col_snap.clear()
        c.id = self._free_ids.pop()
        self.chunk_of_id[c.id] = c
        c.memb_row = np.zeros(self.Jcap, dtype=bool)
        c.memb_row[c.id] = True
        return c.id

    def release_id(self, c: Chunk) -> int:
        cid = self._free_id(c)
        _stamp(c.head, c.tail, c, None)
        return cid

    def _free_id(self, c: Chunk) -> int:
        """Clear row and column ``id_c`` and free the id; the caller
        restamps the occurrences."""
        assert c.id is not None
        cid = c.id
        # see _claim_id: snapshots must not survive an id-tenure boundary
        self.col_snap.clear()
        # only the live lanes can hold non-INF values (and the column
        # mirrors the row by the symmetric-write invariant)
        lanes = self.set_live(cid, set())
        views = self.row_views
        row = views[cid]
        for j in lanes:
            row[j] = INF_KEY
            views[j][cid] = INF_KEY
        if self.compm is not None:
            self.compm.write_lanes(cid, lanes, row)
        self.ops.charge("id_release", 2 * self.Jcap)
        self.chunk_of_id[cid] = None
        self._free_ids.append(cid)
        c.id = None
        c.memb_row = None
        return cid

    # -- chunk surgery (Lemma 2.2) -----------------------------------------------

    def split_off(self, c: Chunk, c2: Chunk) -> None:
        """Account a split: ``c`` was cut after its (new) ``tail`` and the
        fresh ``c2`` holds the rest.  ``c2`` takes an id iff ``c`` has one.

        Only ``c2``'s occurrences are walked: the kept half's occurrences
        are already stamped, and its ``count``/``n_edges`` are the old
        totals minus the moved half's.  ``occ_scan`` is charged the old
        total, which is what re-adopting both halves scanned.  Rows are
        not touched: min cannot be inverted, so the caller rebuilds both.
        """
        assert c2.head is not None and c2.tail is not None
        total = c.count
        cid2 = self._claim_id(c2) if c.id is not None else None
        count, n_edges = _restamp(c2.head, c2.tail, c2, cid2)
        c2.count = count
        c2.n_edges = n_edges
        c.count = total - count
        c.n_edges -= n_edges
        charge = self.ops.charge
        charge("occ_scan", total)
        if cid2 is not None:
            charge("id_assign", self.Jcap + count)

    def absorb(self, cl: Chunk, cr: Chunk) -> Optional[dict[int, Key]]:
        """Account a merge: ``cl`` takes the occurrences of its right
        neighbour ``cr`` (already adjacent in the tour), whose id -- if
        any -- is freed.

        Only ``cr``'s occurrences are walked (restamped) and
        ``count``/``n_edges`` add up; ``occ_scan`` is charged the merged
        count, as re-adopting ``cl`` did.  The merged row is returned for
        :meth:`write_row` (read before ``cr``'s row is cleared); ``None``
        means there is no row, or the caller rebuilds it by a scan.
        """
        assert cr.head is not None and cr.tail is not None
        vals = None
        if cr.id is not None:
            lid, rid = cl.id, cr.id
            assert lid is not None
            views = self.row_views
            live = self._live
            vals = merge_rows(views[lid], views[rid], live[lid] | live[rid],
                              lid, rid)
            self._free_id(cr)
        _stamp(cr.head, cr.tail, cl, cl.id)
        cl.tail = cr.tail
        cl.count += cr.count
        cl.n_edges += cr.n_edges
        self.ops.charge("occ_scan", cl.count)
        return vals

    # -- CAdj row maintenance ----------------------------------------------------

    def rebuild_row(self, c: Chunk) -> None:
        """Recompute ``CAdj_c`` by scanning the <=3K edges touching ``c``
        (Lemma 2.2), then write it out with :meth:`write_row`.

        The scan yields the sparse ``{lane: key}`` minima on every
        backend: a loop that inlines the ``edge_endpoints`` generator and
        the ``is_principal`` / ``other()`` helpers via the per-endpoint
        :class:`SideRec` replicas and reads the far chunk's id from its
        occurrence's ``chunk_id`` replica.  ``edge_scan`` is charged once
        with the scan total -- ``c.n_edges``, since each principal copy
        has one side per edge (audited).
        """
        assert c.id is not None
        vals: dict[int, Key] = {}
        occ = c.head
        tail = c.tail
        while occ is not None:
            vertex = occ.vertex
            if vertex.pc is occ:
                for s in vertex.sides:
                    oid = s.far.pc.chunk_id  # type: ignore[union-attr]
                    if oid is not None:
                        key = s.key
                        if oid not in vals or key < vals[oid]:
                            vals[oid] = key
            if occ is tail:
                break
            occ = occ.next
        self.write_row(c, vals)

    def write_row(self, c: Chunk, vals: dict[int, Key]) -> None:
        """Install ``CAdj_c`` from its live lanes ``{lane: key}`` (a
        :meth:`rebuild_row` scan or a merge's :func:`merge_rows`) and
        mirror it into column ``id_c``.

        Only the stale lanes (live before, absent from ``vals``) and the
        new ones are written, in the row and in the column: every other
        lane is ``INF_KEY`` in both, by the symmetric-write invariant.
        The charges are the full-width rescan's: ``row_clear`` and
        ``col_mirror`` are ``Jcap``, and ``edge_scan`` is ``c.n_edges``,
        one side per edge of each principal copy (``len(sides) ==
        len(edges)`` is audited).
        """
        assert c.id is not None
        cid = c.id
        views = self.row_views
        row = views[cid]
        for j in self._live[cid].difference(vals):
            row[j] = INF_KEY
            views[j][cid] = INF_KEY
        for j, key in vals.items():
            row[j] = key
            views[j][cid] = key
        lanes = self.set_live(cid, set(vals))
        if self.compm is not None:
            self.compm.write_lanes(cid, lanes, row)
            if _faults.armed:
                _faults.fire("compiled.kernel", space=self, cid=cid)
        charge = self.ops.charge
        charge("row_clear", self.Jcap)
        charge("edge_scan", c.n_edges)
        charge("col_mirror", self.Jcap)

    def set_live(self, cid: int, new: set[int]) -> set[int]:
        """Make ``new`` the live-lane set of row ``cid`` (and add or drop
        ``cid`` in the sets of the rows it gained or lost, which mirror
        it); return the stale and new lanes, the ones a write touched."""
        live = self._live
        prev = live[cid]
        for j in prev - new:
            if j != cid:
                live[j].discard(cid)
        for j in new - prev:
            if j != cid:
                live[j].add(cid)
        live[cid] = new
        return prev | new

    def entry_update_insert(self, c1: Chunk, c2: Chunk, key: Key) -> None:
        """Min-merge a freshly inserted edge's key into both directions."""
        assert c1.id is not None and c2.id is not None
        if key < self.C[c1.id, c2.id]:
            self.set_pair(c1.id, c2.id, key)
        self.ops.charge("entry_update", 2)

    def entry_recompute_pair(self, c1: Chunk, c2: Chunk) -> None:
        """Recompute the (c1, c2) entries by scanning c1's edges (deletion).

        Same hot-loop treatment as :meth:`rebuild_row`: inlined endpoint
        scan over the ``SideRec`` replicas, one batched ``edge_scan``
        charge with the identical total.
        """
        assert c1.id is not None and c2.id is not None
        best: Key = INF_KEY
        scanned = 0
        occ = c1.head
        tail = c1.tail
        while occ is not None:
            vertex = occ.vertex
            if vertex.pc is occ:
                sides = vertex.sides
                scanned += len(sides)
                for s in sides:
                    if s.far.pc.chunk is c2 and s.key < best:  # type: ignore[union-attr]
                        best = s.key
            if occ is tail:
                break
            occ = occ.next
        self.ops.charge("edge_scan", scanned)
        self.set_pair(c1.id, c2.id, best)
        self.ops.charge("entry_update", 2)

    def set_pair(self, i: int, j: int, key: Key) -> None:
        """Write ``key`` at ``(i, j)`` and ``(j, i)`` of ``C``, the live
        lanes and the compiled mirror (uncharged)."""
        views = self.row_views
        views[i][j] = key
        views[j][i] = key
        live = self._live
        if key == INF_KEY:
            live[i].discard(j)
            live[j].discard(i)
        else:
            live[i].add(j)
            live[j].add(i)
        if self.compm is not None:
            self.compm.set_entry(i, j, key)

    def verify_live_lanes(self, max_findings: int = 5) -> list[str]:
        """Audit the live-lane invariant against the authoritative matrix.

        O(Jcap^2), audit-tier only (wired into resilience.checks beside
        the mirror verifies, and into ``audit(matrix=True)``).  Returns
        findings; empty means consistent.
        """
        live = self._live
        out: list[str] = []
        C = self.C
        for i in range(self.Jcap):
            actual = (set() if C is None else
                      {j for j in range(self.Jcap) if C[i][j] != INF_KEY})
            if actual != live[i]:
                out.append(f"live-lane set of row {i}: tracked "
                           f"{sorted(live[i])} != actual {sorted(actual)}")
                if len(out) >= max_findings:
                    break
        return out

    # -- occurrence plumbing (raw; Invariant-1 restoration is in maintenance) --

    def adopt_occurrences(self, c: Chunk) -> None:
        """Stamp ``occ.chunk`` for every occurrence between head and tail
        and recompute ``count``/``n_edges`` (the O(K) scan of Lemma 2.2)."""
        assert c.head is not None and c.tail is not None
        count, n_edges = _restamp(c.head, c.tail, c, c.id)
        self.ops.charge("occ_scan", count)
        c.count = count
        c.n_edges = n_edges

    def adopt_run(self, c: Chunk, head: Occurrence, tail: Occurrence) -> None:
        """Account a run ``head..tail`` just spliced into ``c``: restamp
        it and add its counts (``occ_scan`` is charged the run length)."""
        count, n_edges = _restamp(head, tail, c, c.id)
        self.ops.charge("occ_scan", count)
        c.count += count
        c.n_edges += n_edges

    def run_is_short(self, c: Chunk, first: Occurrence,
                     last: Occurrence) -> bool:
        """Whether ``first .. last`` (both in ``c``) runs forward inside
        ``c`` with fewer than ``K`` units (one per occurrence plus the
        edges of each principal copy).  Walks from ``first`` toward
        ``c``'s tail and gives up at ``K`` units, or at the tail when the
        run wraps; ``occ_scan`` is charged the occurrences walked."""
        K = self.K
        tail = c.tail
        units = scanned = 0
        occ = first
        while True:
            scanned += 1
            vx = occ.vertex
            units += 1 + (len(vx.edges) if vx.pc is occ else 0)
            if units >= K or occ is last or occ is tail:
                break
            occ = occ.next  # type: ignore[assignment]
        self.ops.charge("occ_scan", scanned)
        return units < K and occ is last

    def release_run(self, c: Chunk, first: Occurrence, last: Occurrence,
                    c2: Chunk) -> None:
        """Account a run ``first..last`` just unlinked from ``c`` into the
        fresh id-less chunk ``c2`` (the inverse of :meth:`adopt_run`):
        restamp it and move its counts (``occ_scan`` is charged the run
        length)."""
        count, n_edges = _restamp(first, last, c2, None)
        self.ops.charge("occ_scan", count)
        c2.count = count
        c2.n_edges = n_edges
        c.count -= count
        c.n_edges -= n_edges

    # -- BT_c hooks: no-ops here; the parallel chunk space keeps BT_c --------

    def bt_refresh_occ(self, occ: Occurrence) -> None:
        """Recompute one BT_c leaf aggregate after a degree/principal change."""

    def bt_insert_occ(self, occ: Occurrence, after: Optional[Occurrence]) -> None:
        """Mirror a DLL insertion into BT_c (leaf after ``after`` or first)."""

    def bt_delete_occ(self, occ: Occurrence) -> None:
        """Mirror a DLL deletion out of BT_c."""
