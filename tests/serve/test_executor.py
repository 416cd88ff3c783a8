"""LevelExecutor contract: serial submission order, early exit, errors.

The executor runs a batch's plans one after another in submission
order, each through the sparsification tree's station walk
(``_PropagationPlan.run_serial``), so every station observes the op
sequence of the serial path.  A front's ``pool_size`` is accepted but
inert: the executor a front of any pool size flushes through behaves
the same.  These tests drive it with synthetic plans that record their
execution trace per station.
"""

import pytest

from repro import BatchedMSF
from repro.core.sparsify import _PropagationPlan
from repro.serve.executor import LevelExecutor


class TracePlan:
    """Records (plan_id, station) visits into a shared per-station log."""

    # the tree's own station walk, driven over synthetic steps
    run_serial = _PropagationPlan.run_serial

    def __init__(self, pid, stations, logs, *, stop_at=None, fail_at=None):
        self.pid = pid
        self.stations = list(stations)
        self.logs = logs            # station -> list of pids
        self.stop_at = stop_at      # early-exit after this many steps
        self.fail_at = fail_at      # raise at this station index

    def step(self, pos):
        if self.fail_at is not None and pos == self.fail_at:
            raise RuntimeError(f"plan {self.pid} failed at {pos}")
        self.logs.setdefault(self.stations[pos], []).append(self.pid)
        return self.stop_at is not None and pos + 1 >= self.stop_at


def run_plans(pool, specs):
    """Run specs (list of (stations, kwargs)) through the executor of a
    ``BatchedMSF(pool_size=pool)``; returns the station->pid-order log."""
    logs = {}
    plans = [TracePlan(i, st, logs, **kw) for i, (st, kw) in enumerate(specs)]
    BatchedMSF(2, pool_size=pool).executor.run(plans)
    return logs


STATION_SETS = [
    # classic leaf->root paths sharing upper stations
    [(["a", "x", "r"], {}), (["b", "x", "r"], {}), (["c", "r"], {})],
    # disjoint plans
    [(["a"], {}), (["b"], {}), (["c"], {})],
    # total overlap
    [(["x", "y", "z"], {}), (["x", "y", "z"], {}), (["x", "y", "z"], {})],
]


@pytest.mark.parametrize("pool", [1, 2, 4])
@pytest.mark.parametrize("specs", STATION_SETS)
def test_station_fifo_order_any_pool(pool, specs):
    logs = run_plans(pool, specs)
    for station, pids in logs.items():
        expected = [i for i, (st, _kw) in enumerate(specs) if station in st]
        assert pids == expected, f"station {station!r} order broke"


@pytest.mark.parametrize("pool", [1, 3])
def test_early_exit_releases_downstream_claims(pool):
    # plan 0 stops after its first station; plan 1 shares the later ones
    # and still visits them.
    logs = run_plans(pool, [
        (["a", "x", "r"], {"stop_at": 1}),
        (["x", "r"], {}),
    ])
    assert logs["a"] == [0]
    assert logs["x"] == [1] and logs["r"] == [1]


@pytest.mark.parametrize("pool", [1, 3])
def test_exception_propagates(pool):
    with pytest.raises(RuntimeError, match="failed at"):
        run_plans(pool, [
            (["a", "r"], {}),
            (["b", "r"], {"fail_at": 0}),
        ])


def test_first_failing_plan_error_reaches_caller():
    # both plans would fail; the first one's error is raised and the
    # second plan never runs
    logs = {}
    plans = [TracePlan(0, ["a", "b"], logs, fail_at=1),
             TracePlan(1, ["c"], logs, fail_at=0)]
    with pytest.raises(RuntimeError, match="plan 0"):
        LevelExecutor().run(plans)
    assert logs == {"a": [0]}


def test_empty_and_stationless_plans():
    LevelExecutor().run([])                             # no-op
    logs = run_plans(2, [([], {}), (["a"], {})])
    assert logs == {"a": [1]}


def test_pool_one_is_submission_order_serial():
    logs = run_plans(1, [(["a", "r"], {}), (["b", "r"], {})])
    # serial path: plan 0 fully first (its stations), then plan 1
    assert logs["r"] == [0, 1]
    assert logs["a"] == [0] and logs["b"] == [1]
