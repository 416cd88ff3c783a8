"""Every workload end to end at a small scale, untraced and traced.

Checks the output format: each metric of ``BENCHMARK.json``, and each
extra metric on the workloads it applies to, is printed with its
unit, no op fails, the correctness checks pass, and every declared span
fires in at least one workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench.metrics import EXTRA_METRICS, applies, spec
from bench.trace import SPAN_NAMES
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = spec()


def run(workload: str, trace: int) -> tuple[dict, str]:
    # two seconds give the durable workload's traced segment enough
    # batches to write a snapshot
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "2", "--scale", "0.05",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.fixture(scope="module")
def traced() -> dict:
    return {name: run(name, 1) for name in WORKLOADS}


def printed(text: str) -> dict[str, tuple[float, str]]:
    """The ``name value unit`` lines: name -> (value, unit)."""
    out = {}
    for line in text.splitlines():
        if not line.startswith(("#", "CHECK FAILED")):
            name, value, unit = line.split()[:3]
            out[name] = float(value), unit
    return out


def check_metrics(result: dict, text: str, section: str) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    lines = printed(text)
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert lines[m["name"]][1] == m["unit"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, text = run(workload, 0)
    check_metrics(result, text, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    lines = printed(text)
    for m in EXTRA_METRICS:
        assert (m["name"] in lines) == applies(m, workload), m["name"]
        if applies(m, workload):
            value, unit = lines[m["name"]]
            assert unit == m["unit"]
            assert value > 0 or m["name"] == "error_rate"
    assert lines["error_rate"][0] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload, traced):
    result, text = traced[workload]
    check_metrics(result, text, "per_layer")
    assert result["metrics"]["bench.driver.calls"]["value"] > 0
    # the spans, bench.driver's own self time included, cover the wall
    assert abs(result["metrics"]["trace.unattributed_pct"]["value"]) < 1


def test_every_declared_span_fires_somewhere(traced):
    silent = [name for name in SPAN_NAMES
              if not any(r["metrics"][f"{name}.calls"]["value"]
                         for r, _text in traced.values())]
    assert silent == []


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        wl.why for wl in WORKLOADS.values()]
