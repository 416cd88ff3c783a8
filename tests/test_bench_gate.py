"""The regression gate's comparison rule and sampler, on synthetic data,
and the profiler's argument checks.

``benchmarks/bench_regression.py`` and ``benchmarks/profile_hotspots.py``
are loaded by path; nothing here times anything.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

HOST = {"cpu_count": 2, "implementation": "CPython", "python": "3.11.7",
        "machine": "x86_64", "numpy": "2.4.6", "platform": "Linux-a"}
OTHER_HOST = dict(HOST, cpu_count=1)


def _load(name: str):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location(
            name, BENCHMARKS / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return mod


@pytest.fixture(scope="module")
def gate():
    return _load("bench_regression")


def _row(ups, *, depth=None, work=None, n=128, workload="churn"):
    return {"n": n, "workload": workload, "backend": "scalar",
            "updates_per_s": ups, "depth": depth, "work": work}


def _bench(host, **rows):
    return {"host": host, "quick_engines": rows}


def test_host_mismatch_is_unresolved_not_failed(gate):
    history = [("BENCH_PR10.json", _bench(OTHER_HOST, seq=_row(1000.0)))]
    failures, unresolved = gate.compare({"seq": _row(10.0)}, "quick_engines",
                                        history, HOST, 0.35)
    assert failures == []
    assert unresolved == ["seq"]


def test_host_match_ignores_platform_string(gate):
    history = [("BENCH_PR20.json",
                _bench(dict(HOST, platform="Linux-b"), seq=_row(100.0)))]
    failures, unresolved = gate.compare({"seq": _row(50.0)}, "quick_engines",
                                        history, HOST, 0.35)
    assert unresolved == []
    assert len(failures) == 1 and "BENCH_PR20.json" in failures[0]


def test_baseline_is_best_of_three_newest_host_matched(gate):
    history = [  # newest first, as committed_baselines() returns it
        ("BENCH_PR24.json", _bench(HOST, seq=_row(100.0))),
        ("BENCH_PR23.json", _bench(OTHER_HOST, seq=_row(1000.0))),
        ("BENCH_PR22.json", _bench(HOST, seq=_row(120.0))),
        ("BENCH_PR21.json", _bench(HOST, seq=_row(90.0))),
        ("BENCH_PR20.json", _bench(HOST, seq=_row(500.0))),
    ]
    # floor = 120 * (1 - 0.35) = 78: PR20's 500 is the fourth match and
    # PR23's 1000 is on another host, so neither counts
    ok, unresolved = gate.compare({"seq": _row(80.0)}, "quick_engines",
                                  history, HOST, 0.35)
    assert ok == [] and unresolved == []
    failures, _ = gate.compare({"seq": _row(77.0)}, "quick_engines",
                               history, HOST, 0.35)
    assert len(failures) == 1
    assert "BENCH_PR22.json" in failures[0] and "120.0" in failures[0]


def test_redefined_row_is_not_a_baseline(gate):
    history = [("BENCH_PR20.json", _bench(HOST, seq=_row(1000.0, n=256)))]
    failures, unresolved = gate.compare({"seq": _row(10.0)}, "quick_engines",
                                        history, HOST, 0.35)
    assert failures == []
    assert unresolved == ["seq"]


def test_depth_work_drift_is_caught_across_hosts(gate):
    history = [
        ("BENCH_PR11.json", _bench(OTHER_HOST, other=_row(1.0))),
        ("BENCH_PR10.json",
         _bench(OTHER_HOST, par=_row(5.0, depth=100, work=1000))),
        ("BENCH_PR9.json",
         _bench(OTHER_HOST, par=_row(5.0, depth=150, work=1000))),
    ]
    stable = {"par": _row(5.0, depth=100, work=1000)}
    failures, unresolved = gate.compare(stable, "quick_engines", history,
                                        HOST, 0.15)
    assert failures == [] and unresolved == ["par"]
    drifted = {"par": _row(5.0, depth=150, work=1000)}
    failures, _ = gate.compare(drifted, "quick_engines", history, HOST, 0.15)
    assert len(failures) == 1
    assert "depth drifted 100 -> 150" in failures[0]
    assert "BENCH_PR10.json" in failures[0]


def test_rounds_rotates_arm_order(gate):
    calls = []
    arms = {k: (lambda k=k: calls.append(k) or 0.1) for k in "abc"}
    out = gate.rounds(arms, min_rounds=3, budget_s=0.0)
    assert "".join(calls) == "abc" "bca" "cab"
    assert out == [{"a": 0.1, "b": 0.1, "c": 0.1}] * 3


@pytest.mark.parametrize("min_rounds, budget_s, expected", [
    (1, 0.0, 1),      # one round is always taken
    (5, 0.1, 5),      # min_rounds dominates a spent budget
    (1, 1.2, 3),      # 0.5 s per round: 1.0 s < 1.2 s, 1.5 s is enough
    (2, 1.0, 2),      # both bounds met after two rounds
    (1, 100.0, 12),   # the hard cap stops an unmet budget
    (20, 0.0, 12),    # ... and an unmet min_rounds
])
def test_rounds_stopping_rule(gate, min_rounds, budget_s, expected):
    arms = {"plain": lambda: 0.25, "checked": lambda: 0.25}
    out = gate.rounds(arms, min_rounds=min_rounds, budget_s=budget_s)
    assert len(out) == expected


@pytest.mark.parametrize("engine", ["par", "par-fast"])
def test_profiler_rejects_parallel_on_compiled(engine, capsys):
    """The parallel engine is scalar-only: profiling it with ``--backend
    compiled`` is a usage error (exit 2) before any engine is built."""
    hotspots = _load("profile_hotspots")
    with pytest.raises(SystemExit) as exc:
        hotspots.parse_args([engine, "--backend", "compiled"])
    assert exc.value.code == 2
    assert "scalar-only" in capsys.readouterr().err
    assert hotspots.parse_args([engine]).backend == "scalar"
