"""Chunk surgery under churn: splits and merges that walk only what moved.

A small ``K`` makes link/cut churn split and merge chunks hundreds of
times.  After every op the full structural audit runs with the matrix
oracle (``C`` against a brute-force recomputation, every row's live-lane
set against its non-INF lanes, ``count``/``n_edges`` against a recount,
the ``chunk_id`` replicas against their chunks), and
at the end the per-label ``OpCounter`` totals must equal the totals the
full-rescan surgery charged on the same stream (pinned below).  The
stream runs on the scalar backend, the compiled backend and the scalar
backend over the pure-python ``_nplite`` shim.

The mutation check swaps in a merged-row builder that forgets to fold
lane ``id_cr`` into lane ``id_cl``; the audit must catch it.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.core import _nplite, chunks, compiled
from repro.core.audit import audit
from repro.core.fabric import Fabric
from repro.core.seq_msf import SparseDynamicMSF

N = 40
K = 8
N_OPS = 500
SEED = 23

#: ``OpCounter.breakdown()`` of :func:`churn` as charged by the
#: full-rescan surgery (every split re-adopting both halves, every merge
#: re-adopting and rescanning the merged chunk); the surgery that walks
#: only what moved must charge exactly this.  A link of a short tour into
#: a long one (or of an isolated vertex) is one excursion splice, with no
#: tour split or join, so the stream makes fewer surgeries than
#: rotate-split-join links would, and an inserted or deleted edge runs
#: one UpdateAdj; a cut whose one side is a short run inside one id'd
#: chunk is the inverse unsplice, likewise with no split or join
PINNED_BREAKDOWN = {
    "col_mirror": 81_213,
    "col_sweep": 89_346,
    "edge_scan": 17_096,
    "entry_update": 1_512,
    "id_assign": 33_530,
    "id_release": 60_192,
    "lct": 848,
    "lsds_pull": 969_606,
    "mwr_argmin": 2_376,
    "mwr_gamma": 2_376,
    "mwr_scan": 850,
    "occ_delete": 502,
    "occ_insert": 540,
    "occ_scan": 12_261,
    "root_walk": 25_924,
    "row_clear": 81_213,
}

#: at least this many splits and merges, or the stream tests nothing
MIN_SURGERIES = 200


def churn(engine, *, check=None) -> None:
    """Drive ``N_OPS`` seeded inserts and deletes on a degree-<=3 graph
    (70% inserts while two vertices have a free slot), calling ``check``
    after every op."""
    rng = random.Random(SEED)
    deg = [0] * N
    live: list = []
    for _ in range(N_OPS):
        free = [v for v in range(N) if deg[v] < 3]
        if live and (len(free) < 2 or rng.random() < 0.3):
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


def _counting(monkeypatch, counts: dict) -> None:
    split, merge = Fabric.split_chunk, Fabric.merge_chunks

    def split_chunk(self, c, at_occ):
        counts["split"] += 1
        return split(self, c, at_occ)

    def merge_chunks(self, cl, cr):
        counts["merge"] += 1
        return merge(self, cl, cr)

    monkeypatch.setattr(Fabric, "split_chunk", split_chunk)
    monkeypatch.setattr(Fabric, "merge_chunks", merge_chunks)


def _use_nplite(monkeypatch) -> None:
    """Point every loaded ``repro`` module's ``np`` at the shim."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(mod, "np", None) is not None:
            monkeypatch.setattr(mod, "np", _nplite)


@pytest.mark.parametrize("flavor", ["scalar", "compiled", "nplite"])
def test_surgery_audits_clean_and_charges_the_rescan(flavor, monkeypatch):
    if flavor == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")
    if flavor == "nplite":
        _use_nplite(monkeypatch)
    counts = {"split": 0, "merge": 0}
    _counting(monkeypatch, counts)
    engine = SparseDynamicMSF(
        N, K=K, backend="compiled" if flavor == "compiled" else "scalar")
    churn(engine, check=lambda eng: audit(eng, matrix=True))
    if flavor == "nplite":
        assert isinstance(engine.fabric.space.C, _nplite.PyMatrix)
    assert counts["split"] >= MIN_SURGERIES
    assert counts["merge"] >= MIN_SURGERIES
    assert engine.ops.breakdown() == PINNED_BREAKDOWN


def test_merge_without_lane_fold_fails_the_audit(monkeypatch):
    """Mutation check: a merged row whose lane ``id_cr`` is not folded
    into lane ``id_cl`` keeps a stale entry for a freed id and misses the
    edges inside ``cr``; the matrix oracle must reject it."""
    def unfolded(row_l, row_r, lanes, lid, rid):
        return {j: min(row_l[j], row_r[j]) for j in lanes}

    monkeypatch.setattr(chunks, "merge_rows", unfolded)
    engine = SparseDynamicMSF(N, K=K)
    with pytest.raises(AssertionError, match="C mismatch"):
        churn(engine, check=lambda eng: audit(eng, matrix=True))
