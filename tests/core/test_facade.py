"""DynamicMSF facade: all engine/sparsify combinations against the oracle."""

from __future__ import annotations

import math
import random

import pytest

from repro import DynamicMSF
from repro.reference.oracle import KruskalOracle


def doctest_facade():
    import doctest

    import repro.core.msf as m
    results = doctest.testmod(m)
    assert results.failed == 0


def test_docstring_example_runs():
    doctest_facade()


CONFIGS = [
    dict(engine="sequential"),
    dict(engine="sequential", K=8),
    dict(engine="parallel"),
    dict(engine="sequential", sparsify=True),
]


@pytest.mark.parametrize("cfg", CONFIGS,
                         ids=["seq", "seq-k8", "par", "sparsified"])
def test_facade_churn_matches_oracle(cfg):
    rng = random.Random(42)
    n = 12
    msf = DynamicMSF(n, max_edges=40, **cfg)
    orc = KruskalOracle()
    live = {}
    for _ in range(90):
        if live and rng.random() < 0.45:
            eid = rng.choice(list(live))
            msf.delete_edge(eid)
            if not live.pop(eid):
                orc.delete(eid)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            w = round(rng.uniform(0, 100), 6)
            eid = msf.insert_edge(u, v, w)
            live[eid] = u == v
            if u != v:
                orc.insert(u, v, w, eid)
        assert msf.msf_ids() == orc.msf_ids()
    assert msf.msf_weight() == pytest.approx(orc.msf_weight())
    assert msf.edge_count() == len(live)


def test_parallel_facade_exposes_stats():
    msf = DynamicMSF(6, engine="parallel")
    msf.insert_edge(0, 1, 1.0)
    msf.insert_edge(1, 2, 2.0)
    assert msf.machine.total.violations == 0
    assert len(msf.update_stats) >= 2


@pytest.mark.parametrize("backend", ["scalar", "compiled"])
def test_sequential_facade_exposes_ops(backend):
    """``ops.total`` is current after every update, also while the
    compiled tier batches charges in a stream that drains lazily."""
    if backend == "compiled":
        from repro.core import compiled
        if not compiled.HAVE_COMPILED:
            pytest.skip("compiled extension not built")
    msf = DynamicMSF(16, backend=backend)
    for i in range(15):
        msf.insert_edge(i, i + 1, float(i))
        assert msf.ops.total == msf.ops.grand_total() > 0


def test_sparsified_facade_has_no_single_counter():
    """A sparsified tree runs one counter per node: ``ops`` says so with
    a ``ValueError``, like ``machine`` and ``update_stats``."""
    msf = DynamicMSF(6, sparsify=True)
    for prop in ("ops", "machine", "update_stats"):
        with pytest.raises(ValueError, match="sparsified"):
            getattr(msf, prop)


def test_engine_validation():
    # raised, not asserted: public validation must survive `python -O`
    with pytest.raises(ValueError):
        DynamicMSF(4, engine="quantum")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sparsify", [False, True])
def test_non_finite_weight_rejected_before_state_changes(sparsify, bad):
    """NaN would break the (w, eid) total order; infinities are the
    gadget chains' keys.  Rejection leaves the state and the id stream
    untouched."""
    from repro.resilience.checks import state_fingerprint

    m, twin = DynamicMSF(4, sparsify=sparsify), DynamicMSF(4, sparsify=sparsify)
    for eng in (m, twin):
        eng.insert_edge(0, 1, 1.0)
        eng.insert_edge(1, 2, 2.0)
    before = state_fingerprint(m)
    for u, v in ((0, 1), (2, 3), (3, 3)):  # parallel, fresh, self-loop
        with pytest.raises(ValueError):
            m.insert_edge(u, v, bad)
        assert state_fingerprint(m) == before
    # no id was drawn by a rejection: the next id is the twin's
    assert m.insert_edge(2, 3, 3.0) == twin.insert_edge(2, 3, 3.0)
    assert state_fingerprint(m) == state_fingerprint(twin)
    assert m.connected(0, 3)
    assert m.self_check("full") == []


#: endpoints every insert path must reject on a 4-vertex graph: out of
#: range, then a bool (would alias vertex 1), an integral float, a
#: fractional float and a string
BAD_ENDPOINTS = ((0, 9), (9, 0), (-1, 2), (4, 4),
                 (True, 1), (0.0, 2), (0.5, 2), (1, "2"))


def _assert_bad_endpoints_change_nothing(**config) -> None:
    """Every :data:`BAD_ENDPOINTS` insert and read raises ``ValueError``
    before any state changes or an id is drawn.  Ids 4 and up are the
    degree reducer's gadget nodes: the parallel edge gives vertex 0 a
    gadget, so an unchecked ``connected(4, 4)`` would answer ``True``."""
    from repro.resilience.checks import state_fingerprint

    m = DynamicMSF(4, **config)
    twin = DynamicMSF(4, **config)
    for eng in (m, twin):
        eng.insert_edge(0, 1, 1.0)
        eng.insert_edge(0, 1, 2.0)
    before = (state_fingerprint(m), m.edge_count())
    for u, v in BAD_ENDPOINTS:
        with pytest.raises(ValueError, match="range 0..3"):
            m.insert_edge(u, v, 1.0)
        with pytest.raises(ValueError, match="range 0..3"):
            m.connected(u, v)
        assert (state_fingerprint(m), m.edge_count()) == before
    assert not m.connected(0, 2)
    # no id was drawn by a rejection: the next id is the twin's
    assert m.insert_edge(2, 3, 3.0) == twin.insert_edge(2, 3, 3.0)
    assert m.self_check("full") == []


@pytest.mark.parametrize("engine,backend", [("sequential", "scalar"),
                                            ("parallel", "scalar"),
                                            ("sequential", "compiled")])
def test_out_of_range_endpoint_rejected_without_sparsify(engine, backend):
    """The degree reducer rejects a bad vertex before any state changes
    or an id is drawn."""
    if backend == "compiled":
        from repro.core import compiled
        if not compiled.HAVE_COMPILED:
            pytest.skip("compiled extension not built")
    _assert_bad_endpoints_change_nothing(engine=engine, backend=backend)


@pytest.mark.parametrize("engine", ["sequential", "parallel"])
def test_bad_endpoint_rejected_with_sparsify(engine):
    """The sparsification tree rejects a bad vertex before it draws an id
    or writes its edge registry (``0.5`` used to fail deep inside the
    update, after the registry write)."""
    _assert_bad_endpoints_change_nothing(engine=engine, sparsify=True)


def test_sparsified_batch_rejects_nan_all_or_nothing():
    from repro.core.sparsify import SparsifiedMSF
    from repro.resilience.checks import state_fingerprint

    tree = SparsifiedMSF(8)
    tree.insert_edge(0, 1, 1.0, eid=1)
    before = state_fingerprint(tree)
    nodes = set(tree.nodes)
    with pytest.raises(ValueError):
        tree.apply_batch([("ins", 2, 1, 2, 2.0), ("del", 1),
                          ("ins", 3, 2, 3, math.nan)])
    assert state_fingerprint(tree) == before
    assert set(tree.nodes) == nodes
    with pytest.raises(ValueError):
        tree.insert_reported(4, 5, math.nan, eid=4)
    assert state_fingerprint(tree) == before


@pytest.mark.parametrize("u,v", BAD_ENDPOINTS)
def test_sparsified_batch_rejects_bad_endpoint_all_or_nothing(u, v):
    """A bad endpoint anywhere in a batch rejects the whole batch before
    any op of it is registered."""
    from repro.core.sparsify import SparsifiedMSF
    from repro.resilience.checks import state_fingerprint

    tree = SparsifiedMSF(4)
    before = state_fingerprint(tree)
    with pytest.raises(ValueError, match="range 0..3"):
        tree.apply_batch([("ins", 1, 0, 1, 1.0), ("ins", 2, u, v, 1.0)])
    assert state_fingerprint(tree) == before
    assert tree.edge_count() == 0
    assert tree.self_check("structural") == []


#: batches ``apply_batch`` must reject whole, on a tree holding edges 1
#: (0-1) and 2 (1-2) and self-loop 3 (at 2): a duplicate eid inside the
#: batch, a duplicate of a live edge, an unknown delete after an insert,
#: and two double deletes
BAD_ID_BATCHES = (
    [("ins", 10, 0, 1, 1.0), ("ins", 11, 1, 2, 2.0), ("ins", 10, 2, 3, 3.0)],
    [("ins", 10, 2, 3, 1.0), ("ins", 1, 0, 3, 2.0)],
    [("ins", 10, 0, 1, 1.0), ("del", 99)],
    [("del", 1), ("ins", 10, 2, 3, 1.0), ("del", 1)],
    [("del", 3), ("del", 3)],
)


@pytest.mark.parametrize("ops", BAD_ID_BATCHES)
def test_sparsified_batch_rejects_bad_ids_all_or_nothing(ops):
    """A duplicate eid or an unknown delete anywhere in a batch, judged
    against the registry as the ops before it leave it, rejects the
    whole batch before any op of it is registered."""
    from repro.core.sparsify import SparsifiedMSF
    from repro.resilience.checks import state_fingerprint

    tree = SparsifiedMSF(8)
    tree.apply_batch([("ins", 1, 0, 1, 1.0), ("ins", 2, 1, 2, 2.0),
                      ("ins", 3, 2, 2, 0.5)])

    def observe():
        return (state_fingerprint(tree), dict(tree.edges), tree.msf_ids(),
                dict(tree.self_loops), sorted(tree.nodes),
                tree.ops_by_node())

    before = observe()
    with pytest.raises((ValueError, KeyError)):
        tree.apply_batch(ops)
    assert observe() == before
    assert tree.self_check("full") == []
    # a delete and a re-insert of one eid inside a batch is fine
    tree.apply_batch([("del", 1), ("ins", 1, 0, 3, 4.0), ("del", 3)])
    assert tree.msf_ids() == {1, 2} and tree.self_loops == {}


def test_sparsified_parallel_composition():
    """Theorem 1.1 end-to-end through the facade."""
    msf = DynamicMSF(8, engine="parallel", sparsify=True)
    orc = KruskalOracle()
    rng = random.Random(9)
    live = []
    for _ in range(25):
        u, v = rng.sample(range(8), 2)
        w = round(rng.uniform(0, 9), 6)
        live.append(msf.insert_edge(u, v, w))
        orc.insert(u, v, w, live[-1])
    assert msf.msf_ids() == orc.msf_ids()
    msf.delete_edge(live[0])
    orc.delete(live[0])
    assert msf.msf_ids() == orc.msf_ids()
    assert msf._impl.erew_violations() == 0
    cost = msf._impl.parallel_cost_of_last_update()
    assert cost["measured"] is True
