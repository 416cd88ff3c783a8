"""Checker coverage: fingerprints of the bare engines, reducer chain shape."""

from __future__ import annotations

from repro.core.degree import DegreeReducer
from repro.core.par import ParallelDynamicMSF
from repro.core.seq_msf import SparseDynamicMSF
from repro.reference.oracle import kruskal
from repro.resilience.checks import check_reducer, state_fingerprint
from repro.workloads import adversarial_cuts


def _replay_cuts(engine, n: int, rounds: int) -> None:
    """An ``adversarial_cuts`` stream, as the pram-cuts benchmark feeds a
    bare engine: inserts return handles, deletes name an insert's op."""
    handles = {}
    for i, op in enumerate(adversarial_cuts(n, rounds, seed=3)):
        if op[0] == "ins":
            handles[i] = engine.insert_edge(*op[1:])
        else:
            engine.delete_edge(handles.pop(op[1]))


def test_state_fingerprint_reads_bare_engines():
    n = 48
    par = ParallelDynamicMSF(n, audit="fast", impl="onepass",
                             backend="scalar")
    seq = SparseDynamicMSF(n)
    for engine in (par, seq):
        _replay_cuts(engine, n, 12)
    fp = state_fingerprint(par)
    assert fp == state_fingerprint(seq)
    edges, msf, weight = fp
    assert len(edges) == len(par.edges)
    assert set(msf) == kruskal((u, v, w, eid) for eid, u, v, w in edges)
    assert weight == sum(w for eid, _u, _v, w in edges if eid in set(msf))
    # a different forest reads differently
    par.delete_edge(next(iter(par.tree_edges)))
    assert state_fingerprint(par) != fp


def _hub(n: int = 6) -> tuple[DegreeReducer, list[int]]:
    red = DegreeReducer(n, max_edges=16, K=4)
    eids = [red.insert_edge(0, v, float(v)) for v in range(1, n)]
    assert check_reducer(red, "full") == []
    return red, eids


def test_check_reducer_finds_a_chain_hole():
    """Free a mid-chain slot without splicing its gadget out: the
    structural tier names the unhosted gadget, the cheap tier does not
    look at chain shape."""
    red, eids = _hub()
    eid = eids[2]
    _u, v, _w, core_edge, hole, hv = red.real.pop(eid)
    red.core.delete_edge(core_edge)
    del red.chains[0].hosted[hole]
    red._release_slot(v, hv, eid)
    assert check_reducer(red, "cheap") == []
    found = check_reducer(red, "structural")
    assert [f.message for f in found] == [
        f"vertex 0: gadget {hole} hosts no edge"]


def test_check_reducer_finds_a_stale_free_slot():
    red, eids = _hub()
    red.chains[0].free = [0]  # the anchor still hosts eids[0]
    found = check_reducer(red, "structural")
    assert len(found) == 1 and "free slots [0]" in found[0].message


def test_check_reducer_survives_a_chain_cycle():
    """A corrupt successor map that loops must end the walk, not hang the
    checker: the tail and the key set disagree with what it reached."""
    red, _eids = _hub()
    chain = red.chains[0]
    chain.succ[chain.tail] = chain.anchor
    found = check_reducer(red, "structural")
    assert found and all("crashed" not in f.message for f in found)
