"""Property/fuzz tests for the coalescing algebra (``serve/batch.py``)
and for malformed input at every front.

The coalescing contract: replaying the *coalesced* batch (deletes-first
canonical order, annihilation, dedupe) against a fresh engine yields a
forest and ``msf_weight`` identical to replaying the *raw* op stream
one op at a time -- across seeded random insert/delete/duplicate-delete
mixes.  This is the algebraic fact the whole serving stack (BatchedMSF
and the sharded cluster alike) leans on.

The rejection contract: a malformed insert interleaved with valid churn
raises :class:`InvalidInputError` -- never :class:`CorruptionError` --
and leaves the front exactly as it was: same ``state_fingerprint``,
forest still the Kruskal MSF of the live edges.
"""

import math
import random

import pytest

from repro import BatchedMSF, ClusterMSF, DynamicMSF
from repro.core import compiled
from repro.core.sparsify import SparsifiedMSF
from repro.reference.oracle import kruskal
from repro.resilience.checks import _weights_agree, state_fingerprint
from repro.resilience.errors import CorruptionError, InvalidInputError
from repro.serve.batch import coalesce


def random_pending(rng, n, n_ops, next_eid, live):
    """One batch's worth of raw ops: inserts, deletes of live edges,
    same-batch insert+delete pairs, and duplicate deletes."""
    pending = []
    batch_ins = []                 # eids inserted (and not yet cancelled)
    deleted = []                   # eids already deleted in this batch
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.45 or not (live or batch_ins or deleted):
            u, v = rng.randrange(n), rng.randrange(n)
            w = round(rng.uniform(0.0, 100.0), 3)
            pending.append(("ins", next_eid, u, v, w))
            batch_ins.append(next_eid)
            next_eid += 1
        elif r < 0.60 and batch_ins:
            eid = batch_ins.pop(rng.randrange(len(batch_ins)))
            pending.append(("del", eid))     # annihilating pair
        elif r < 0.75 and deleted:
            pending.append(("del", rng.choice(deleted)))  # duplicate
        elif live:
            eid = rng.choice(sorted(live))
            live.discard(eid)
            deleted.append(eid)
            pending.append(("del", eid))
    return pending, next_eid


def replay_raw(engine, pending, applied_deletes):
    """Reference semantics: ops in submission order, duplicate deletes
    (and deletes of same-batch inserts already deleted) skipped -- the
    effect coalescing promises to reproduce."""
    deleted = set()
    for op in pending:
        if op[0] == "ins":
            _t, eid, u, v, w = op
            engine.insert_edge(u, v, w, eid=eid)
        else:
            eid = op[1]
            if eid in deleted:
                continue                     # duplicate delete: no-op
            deleted.add(eid)
            engine.delete_edge(eid)
            applied_deletes.add(eid)


@pytest.mark.parametrize("seed", range(8))
def test_coalesced_replay_equals_raw_replay(seed):
    rng = random.Random(seed)
    n = 32
    raw = SparsifiedMSF(n)
    coal = SparsifiedMSF(n)
    live_raw: set[int] = set()
    live_coal: set[int] = set()
    next_eid = 1
    for _batch in range(6):
        live_snapshot = set(live_coal)
        pending, next_eid = random_pending(
            rng, n, rng.randrange(8, 40), next_eid, live_snapshot)

        # raw path: submission order, duplicate deletes skipped
        applied = set()
        replay_raw(raw, pending, applied)
        ins_ids = {op[1] for op in pending if op[0] == "ins"}
        live_raw = (live_raw | ins_ids) - applied

        # coalesced path: canonical deletes-then-inserts
        batch = coalesce(pending, known=live_coal)
        for op in batch.ops():
            if op[0] == "del":
                coal.delete_edge(op[1])
            else:
                _t, eid, u, v, w = op
                coal.insert_edge(u, v, w, eid=eid)
        live_coal.difference_update(batch.deletes)
        live_coal.update(rec[0] for rec in batch.inserts)

        assert live_coal == live_raw
        assert coal.msf_ids() == raw.msf_ids()
        assert coal.edge_count() == raw.edge_count()
        # weights: same edge multiset summed in different op orders --
        # identical up to float associativity, exactly equal re-summed
        assert _weights_agree(coal.msf_weight(), raw.msf_weight())
        resum = lambda t: math.fsum(  # noqa: E731
            sorted(t.edges[eid][2] for eid in t.msf_ids()))
        assert resum(coal) == resum(raw)


@pytest.mark.parametrize("seed", range(4))
def test_coalesced_batch_matches_oracle(seed):
    """End-to-end: the coalesced replay's forest equals the Kruskal MSF
    of the surviving edge set."""
    rng = random.Random(1000 + seed)
    n = 24
    engine = SparsifiedMSF(n)
    live: set[int] = set()
    registry = {}
    next_eid = 1
    for _batch in range(5):
        pending, next_eid = random_pending(
            rng, n, rng.randrange(6, 30), next_eid, set(live))
        batch = coalesce(pending, known=live)
        for op in batch.ops():
            if op[0] == "del":
                engine.delete_edge(op[1])
                registry.pop(op[1])
            else:
                _t, eid, u, v, w = op
                engine.insert_edge(u, v, w, eid=eid)
                registry[eid] = (u, v, w)
        live.difference_update(batch.deletes)
        live.update(rec[0] for rec in batch.inserts)
        want = kruskal((u, v, w, eid)
                       for eid, (u, v, w) in registry.items())
        assert engine.msf_ids() == want


# ------------------------------------------------------- malformed input

FUZZ_N = 10
#: below the degree reducers' default ``max_edges`` (``2 n``)
FUZZ_MAX_LIVE = 16

#: malformed inserts ``(u, v, weight)``: endpoints outside ``0..n-1`` or
#: not integers, weights that are not finite reals
BAD_INSERTS = [
    (0, FUZZ_N, 1.0), (-1, 0, 1.0), (True, 1, 1.0), (0.0, 1, 1.0),
    (0.5, 1, 1.0), ("1", 2, 1.0), (None, 2, 1.0),
    (0, 1, math.nan), (0, 1, math.inf), (0, 1, -math.inf), (0, 1, "1.5"),
    (0, 1, None), (0, 1, True), (0, 1, complex(1, 0)),
]

FUZZ_FRONTS = {
    "facade": lambda b: DynamicMSF(FUZZ_N, backend=b),
    "facade-sparsified": lambda b: DynamicMSF(FUZZ_N, sparsify=True,
                                              backend=b),
    "facade-parallel": lambda b: DynamicMSF(FUZZ_N, engine="parallel",
                                            backend=b),
    "batched-strong": lambda b: BatchedMSF(FUZZ_N, batch_size=4,
                                           pool_size=2, backend=b),
    "batched-deferred": lambda b: BatchedMSF(FUZZ_N, batch_size=4,
                                             pool_size=2, backend=b,
                                             consistency="deferred"),
    # the cluster runs the scalar backend only
    "cluster": lambda b: ClusterMSF(FUZZ_N, pool_size=2, batch_size=4,
                                    processes=False),
}

#: the cluster and the parallel engine run the scalar backend only
FUZZ_CASES = [(f, b) for f in sorted(FUZZ_FRONTS) for b in ("scalar",
                                                           "compiled")
              if not (f in ("cluster", "facade-parallel")
                      and b == "compiled")]


def _settle(front) -> None:
    if hasattr(front, "flush"):
        front.flush()


@pytest.mark.parametrize("front_name,backend", FUZZ_CASES)
def test_malformed_inserts_change_nothing(front_name, backend):
    if backend == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")
    rng = random.Random(f"malformed/{front_name}/{backend}")
    front = FUZZ_FRONTS[front_name](backend)
    live: dict[int, tuple[int, int, float]] = {}
    rejected = 0
    try:
        for _ in range(90):
            r = rng.random()
            if r < 0.3:
                _settle(front)
                before = state_fingerprint(front)
                u, v, w = rng.choice(BAD_INSERTS)
                with pytest.raises(InvalidInputError) as info:
                    front.insert_edge(u, v, w)
                assert not isinstance(info.value, CorruptionError)
                rejected += 1
                assert getattr(front, "pending_ops", 0) == 0
                assert state_fingerprint(front) == before
                assert front.msf_ids() == kruskal(
                    (a, b, x, eid) for eid, (a, b, x) in live.items())
            elif live and (r < 0.55 or len(live) >= FUZZ_MAX_LIVE):
                eid = rng.choice(sorted(live))
                del live[eid]
                front.delete_edge(eid)
            else:
                u, v = rng.sample(range(FUZZ_N), 2)
                w = round(rng.uniform(0.0, 10.0), 2)
                live[front.insert_edge(u, v, w)] = (u, v, w)
        _settle(front)
        assert rejected >= 15
        assert front.msf_ids() == kruskal(
            (a, b, x, eid) for eid, (a, b, x) in live.items())
    finally:
        if hasattr(front, "close"):
            front.close()
