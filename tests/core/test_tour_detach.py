"""Every case of a tree cut, with the excursion unsplice under full audit.

A cut whose one side is a short run -- fewer than ``K`` units, lying in
list order inside one id'd chunk -- cuts that run out whole
(``Fabric.detach_run``: one row rebuild and one ``UpdateAdj`` of the host
chunk) and collapses both seams, instead of rotating, splitting and
joining the long list.  The streams below run on the scalar, compiled and
parallel engines, with the full structural audit (matrix oracle included)
and a Kruskal check after every op, and count each cut case so a stream
that stops reaching one fails loudly:

* a short side on the ``v`` side and on the ``u`` side, a run of one
  occurrence, and the side endpoint's principal copy at the run's first,
  last and a middle occurrence;
* a host seam whose two copies lie in different chunks, a host chunk that
  merges afterwards and a host list that drops its id;
* run vertices holding edges into the host chunk and into other chunks of
  the host list, and an insert whose swap cuts a short side off and keeps
  the cut edge as a non-tree edge;
* cuts that keep rotate-split-join: a short run across a chunk boundary, a
  short run around the list's end (one whose two ends share a chunk, so
  the sizing walk gives up at the tail, included), two long sides, and a
  short list.

The mutation checks -- skipping the host chunk's row rebuild, the host
seam's arc retarget or the host chunk's ``UpdateAdj`` -- must each be
caught by the audit, and on the adversarial stream every cut crosses
chunks, so the sizing walk is never entered.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import compiled, euler
from repro.core.audit import audit
from repro.core.chunks import ChunkSpace
from repro.core.fabric import Fabric
from repro.core.lsds import ListRegistry
from repro.core.msf import DynamicMSF
from repro.core.par import ParallelDynamicMSF
from repro.core.par.engine import ParChunkSpace
from repro.core.seq_msf import SparseDynamicMSF
from repro.reference.oracle import kruskal
from repro.workloads import OpStream, adversarial_cuts

N = 40
K = 12
SEED = 0
N_OPS = 600

FLAVORS = ["scalar", "compiled", "parallel"]

#: the cases :func:`_count_cases` must see on the stream
CASES = ("v_short", "u_short", "one_occ", "pc_first", "pc_last",
         "pc_middle", "seam_boundary", "host_merge", "host_short",
         "edge_host", "edge_far", "swap_nontree", "boundary", "wrap",
         "wrap_walk", "long_long", "short_list")


def _skip_without_extension(flavor: str) -> None:
    if flavor == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")


def _engine(flavor: str):
    if flavor == "parallel":
        return ParallelDynamicMSF(N, K=K)
    return SparseDynamicMSF(N, K=K, backend=flavor)


def _tour(occ) -> list:
    while occ.prev is not None:
        occ = occ.prev
    out = []
    while occ is not None:
        out.append(occ)
        occ = occ.next
    return out


def _units(occ) -> int:
    vx = occ.vertex
    return 1 + (len(vx.edges) if vx.pc is occ else 0)


def _classify(e) -> tuple[str, ...]:
    """The cut cases of tree edge ``e``, read off the tour before it is
    cut (independently of ``euler``'s own case test)."""
    a_u, b_v = e.arc_uv
    c_v, d_u = e.arc_vu
    tour = _tour(a_u)
    if tour[0].chunk.id is None:
        return ("short_list",)
    pos = {id(o): i for i, o in enumerate(tour)}
    short = []
    for side, first, last, x, y in (("v", b_v, c_v, a_u, d_u),
                                    ("u", d_u, a_u, c_v, b_v)):
        i, j = pos[id(first)], pos[id(last)]
        run = tour[i:j + 1] if i <= j else tour[i:] + tour[:j + 1]
        if sum(map(_units, run)) >= K:
            continue
        if i <= j and first.chunk is last.chunk:
            break
        short.append("wrap" if i > j else "boundary")
        if i > j and first.chunk is last.chunk:
            short.append("wrap_walk")
    else:
        return tuple(short) or ("long_long",)
    cases = [f"{side}_short"]
    if first is last:
        cases.append("one_occ")
    else:
        pc = first.vertex.pc
        cases.append("pc_first" if pc is first else
                     "pc_last" if pc is last else "pc_middle")
    if x.chunk is not y.chunk:
        cases.append("seam_boundary")
    in_run = {id(o) for o in run}
    host = first.chunk
    for p in run:
        if p.vertex.pc is p:
            for f in p.vertex.edges:
                far = f.other(p.vertex).pc
                if id(far) not in in_run:
                    cases.append("edge_host" if far.chunk is host
                                 else "edge_far")
    return tuple(cases)


def _count_cases(monkeypatch) -> Counter:
    """Classify every ``cut_tour`` call, flagging a cut made by an insert's
    swap and a host-chunk merge or a host id drop inside an excursion."""
    counts: Counter = Counter()
    state = {"swap": False, "excursion": False}
    cut_tour = euler.cut_tour
    excursion = euler._cut_excursion
    unmake = SparseDynamicMSF._unmake_tree_edge
    merge, make_short = Fabric.merge_chunks, Fabric._make_short

    def counting_cut(fabric, e):
        cases = _classify(e)
        counts.update(cases)
        if state["swap"] and cases[0][1:] == "_short":
            counts["swap_nontree"] += 1
        return cut_tour(fabric, e)

    def flagging_unmake(self, f):
        state["swap"] = True
        try:
            return unmake(self, f)
        finally:
            state["swap"] = False

    def counting_excursion(*args):
        counts["detach"] += 1
        state["excursion"] = True
        try:
            return excursion(*args)
        finally:
            state["excursion"] = False

    def counting_merge(self, cl, cr):
        if state["excursion"]:
            counts["host_merge"] += 1
        return merge(self, cl, cr)

    def counting_make_short(self, lst):
        if state["excursion"]:
            counts["host_short"] += 1
        return make_short(self, lst)

    monkeypatch.setattr(euler, "cut_tour", counting_cut)
    monkeypatch.setattr(euler, "_cut_excursion", counting_excursion)
    monkeypatch.setattr(SparseDynamicMSF, "_unmake_tree_edge",
                        flagging_unmake)
    monkeypatch.setattr(Fabric, "merge_chunks", counting_merge)
    monkeypatch.setattr(Fabric, "_make_short", counting_make_short)
    return counts


def _check(engine) -> None:
    audit(engine, matrix=True)
    want = kruskal((e.u.vid, e.v.vid, e.weight, e.eid)
                   for e in engine.edges.values())
    assert {e.eid for e in engine.msf_edges()} == want


def drive(engine, *, check=None) -> None:
    """``N_OPS`` seeded degree-<=3 inserts and deletes."""
    rng = random.Random(SEED)
    deg = [0] * N
    live: list = []
    for _ in range(N_OPS):
        free = [x for x in range(N) if deg[x] < 3]
        if live and (len(free) < 2 or rng.random() < 0.4):
            e = live.pop(rng.randrange(len(live)))
            deg[e.u.vid] -= 1
            deg[e.v.vid] -= 1
            engine.delete_edge(e)
        else:
            u, v = rng.sample(free, 2)
            live.append(engine.insert_edge(u, v, float(rng.randrange(100))))
            deg[u] += 1
            deg[v] += 1
        if check is not None:
            check(engine)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_every_cut_case_audits_clean(flavor, monkeypatch):
    _skip_without_extension(flavor)
    counts = _count_cases(monkeypatch)
    drive(_engine(flavor), check=_check)
    for case in CASES:
        assert counts[case] > 0, f"stream never reached the {case} case"
    assert counts["detach"] == counts["v_short"] + counts["u_short"]


def _inside_detach(monkeypatch, cls, name: str) -> None:
    """Make ``cls.<name>`` a no-op inside ``Fabric.detach_run``."""
    inside = [False]
    detach, inner = Fabric.detach_run, getattr(cls, name)

    def marking_detach(self, first, last):
        inside[0] = True
        try:
            return detach(self, first, last)
        finally:
            inside[0] = False

    def gated(self, *args):
        if inside[0]:
            return None
        return inner(self, *args)

    monkeypatch.setattr(Fabric, "detach_run", marking_detach)
    monkeypatch.setattr(cls, name, gated)


def test_skipping_the_host_row_rebuild_fails_the_audit(monkeypatch):
    """Mutation check: a host chunk whose row is not rebuilt keeps the
    run's edges in ``C``; the matrix oracle must reject it."""
    _inside_detach(monkeypatch, ChunkSpace, "rebuild_row")
    with pytest.raises(AssertionError, match="C mismatch"):
        drive(SparseDynamicMSF(N, K=K), check=_check)


def test_skipping_the_host_update_adj_fails_the_audit(monkeypatch):
    """Mutation check: a host chunk whose rebuilt row runs no ``UpdateAdj``
    leaves LSDS aggregates stale; the audit must reject it."""
    _inside_detach(monkeypatch, ListRegistry, "update_adj")
    with pytest.raises(AssertionError, match="stale LSDS"):
        drive(SparseDynamicMSF(N, K=K), check=_check)


def test_skipping_the_host_seam_retarget_fails_the_audit(monkeypatch):
    """Mutation check: a host seam collapse that leaves the arc through
    the dropped copy in place breaks the Euler tour; the audit must
    reject it."""
    state = {"calls": 0, "host": False}
    excursion, collapse = euler._cut_excursion, euler._collapse_seam
    retarget = euler._retarget_arc

    def marking_excursion(*args):
        state["calls"] = 0
        return excursion(*args)

    def marking_collapse(fabric, x, y):
        state["calls"] += 1
        state["host"] = state["calls"] == 2   # run seam first, then host
        try:
            return collapse(fabric, x, y)
        finally:
            state["host"] = False

    def gated_retarget(old, new):
        if state["host"]:
            return None
        return retarget(old, new)

    monkeypatch.setattr(euler, "_cut_excursion", marking_excursion)
    monkeypatch.setattr(euler, "_collapse_seam", marking_collapse)
    monkeypatch.setattr(euler, "_retarget_arc", gated_retarget)
    with pytest.raises(AssertionError, match="tour adjacencies"):
        drive(SparseDynamicMSF(N, K=K), check=_check)


@pytest.mark.parametrize("engine", ["facade", "parallel"])
def test_adversarial_cuts_never_enter_the_walk(engine, monkeypatch):
    """Every adversarial cut splits one long path whose two sides each end
    in different chunks: the sizing walk (or the parallel engine's
    ``BT_c`` prefix queries) never runs, so these cuts charge nothing new."""
    calls = Counter()
    for cls in (ChunkSpace, ParChunkSpace):
        inner = cls.__dict__["run_is_short"]

        def counting(self, *args, inner=inner):
            calls["walk"] += 1
            return inner(self, *args)

        monkeypatch.setattr(cls, "run_is_short", counting)
    cuts = Counter()
    cut_tour = euler.cut_tour

    def counting_cut(fabric, e):
        cuts["cut"] += 1
        return cut_tour(fabric, e)

    monkeypatch.setattr(euler, "cut_tour", counting_cut)
    target = (DynamicMSF(256) if engine == "facade"
              else ParallelDynamicMSF(128, audit="fast"))
    stream = OpStream(target)
    for op in adversarial_cuts(256 if engine == "facade" else 128, 30):
        stream.apply(op)
    assert cuts["cut"] >= 30
    assert calls["walk"] == 0
