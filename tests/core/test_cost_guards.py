"""Cost-reporting guards: every configuration answers, none crashes.

``erew_violations()`` and ``parallel_cost_of_last_update()`` must be
callable on *any* backend -- sequential engines, ``parallel=False``
sparsification trees, partially-materialized trees (only the node paths
an update touched exist), and the serving front -- reporting explicit
zeros instead of raising.
"""

from repro import BatchedMSF, DynamicMSF
from repro.core.sparsify import SparsifiedMSF


def _zero_report(rep):
    assert rep == {"depth": 0, "processors": 0, "levels_touched": 0,
                   "measured": False}


def test_fresh_sequential_tree_reports_zero():
    eng = SparsifiedMSF(16)                    # parallel=False, no updates
    assert eng.erew_violations() == 0
    rep = eng.parallel_cost_of_last_update()
    assert rep["levels_touched"] == 0 and rep["measured"] is False
    assert eng.depth_work_by_node() == {}      # no machines anywhere


def test_partially_materialized_tree_guarded():
    """One update materializes only one root-to-leaf path; the guarded
    walks must iterate just the existing nodes."""
    eng = SparsifiedMSF(64)
    eid = eng.insert_edge(3, 40, 1.0)
    assert len(eng.nodes) < 2 * 64             # far from the full tree
    assert eng.erew_violations() == 0          # sequential: no machines
    rep = eng.parallel_cost_of_last_update()
    assert rep["measured"] is False
    assert rep["levels_touched"] >= 1
    assert rep["depth"] >= 1 and rep["processors"] >= 1
    eng.delete_edge(eid)
    assert eng.erew_violations() == 0


def test_parallel_tree_measures():
    eng = SparsifiedMSF(16, parallel=True)
    eng.insert_edge(0, 9, 1.0)
    eng.insert_edge(9, 13, 2.0)
    assert eng.erew_violations() == 0          # strict EREW engines
    rep = eng.parallel_cost_of_last_update()
    assert rep["measured"] is True
    assert rep["depth"] > 0 and rep["processors"] > 0
    assert eng.depth_work_by_node()            # machines exist and counted


def test_facade_guards_every_configuration():
    for kwargs in (dict(), dict(sparsify=True),
                   dict(engine="parallel"),
                   dict(engine="parallel", sparsify=True)):
        msf = DynamicMSF(8, max_edges=16, **kwargs)
        e = msf.insert_edge(0, 1, 1.0)
        assert msf.erew_violations() == 0
        rep = msf.parallel_cost_of_last_update()
        assert set(rep) >= {"depth", "processors", "levels_touched",
                            "measured"}
        if not kwargs.get("sparsify"):
            _zero_report(rep)                  # no level accounting
        msf.delete_edge(e)
        assert msf.erew_violations() == 0


def test_serving_front_guards_every_backend():
    for engine in ("sequential", "parallel"):
        front = BatchedMSF(8, engine=engine)
        front.insert_edge(0, 1, 1.0)           # left pending on purpose
        assert front.erew_violations() == 0    # flushes, then reports
        rep = front.parallel_cost_of_last_update()
        assert set(rep) >= {"depth", "processors", "levels_touched",
                            "measured"}
        assert rep["measured"] is (engine == "parallel")
        assert bool(front.pram_cache_info()) is (engine == "parallel")
