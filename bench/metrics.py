"""Metric definitions shared by ``run.py`` and ``compare.py``.

``BENCHMARK.json`` lists the end-to-end metrics that gate a change
(``end_to_end``, each with a regression bound) and the traced run's
layer diagnostics (``per_layer``).  Its format gives each end-to-end
metric to every workload and requires it to be non-zero, and a bound is
only useful where two sets of runs of the same code agree within it.
The benchmark's other end-to-end metrics are listed here, in the same
form plus the workloads they apply to (``None``: every workload) and
the kind of their bound:

* ``relative`` -- a share of the baseline median, as in ``BENCHMARK.json``;
* ``exact`` -- a deterministic count: runs of one seed must agree exactly;
* ``absolute`` -- a distance in the metric's own unit.

The untraced run prints every one that applies, and ``compare.py``
applies its bound.  Why each is here rather than in ``end_to_end``:

* the serving-time metrics: two sets of runs on the reference host
  disagree by more than their 10% bound (README), so ``BENCHMARK.json``
  lists them among the per-layer diagnostics, which the traced run
  reports from its untraced pass;
* ``restore_s`` and the exact counts apply to one or two workloads;
* ``error_rate`` is 0 when all is well.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["spec", "EXTRA_METRICS", "WALL_CLOCK", "applies"]


def spec() -> dict:
    """``BENCHMARK.json``, parsed."""
    return json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())


EXTRA_METRICS = [
    {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher",
     "bound": 0.10, "kind": "relative", "workloads": None},
    # a commit is a call that made updates visible: a call that advanced
    # the front's epoch, or any update of a bare engine
    {"name": "commit_latency_p50_us", "unit": "us", "better": "lower",
     "bound": 0.10, "kind": "relative", "workloads": None},
    # at the highest of p99.9/p99/p95/p90 with ten commits beyond it
    {"name": "commit_latency_tail_us", "unit": "us", "better": "lower",
     "bound": 0.10, "kind": "relative", "workloads": None},
    {"name": "restore_s", "unit": "s", "better": "lower",
     "bound": 0.10, "kind": "relative", "workloads": ["ingest-durable"]},
    {"name": "durable_bytes_per_op", "unit": "B/op", "better": "lower",
     "bound": 0, "kind": "exact", "workloads": ["ingest-durable"]},
    {"name": "charged_ops_per_update", "unit": "ops/update",
     "better": "lower", "bound": 0, "kind": "exact",
     "workloads": ["cuts-worst", "pram-cuts"]},
    {"name": "pram_depth_per_update", "unit": "steps/update",
     "better": "lower", "bound": 0, "kind": "exact",
     "workloads": ["pram-cuts"]},
    {"name": "pram_work_per_update", "unit": "ops/update", "better": "lower",
     "bound": 0, "kind": "exact", "workloads": ["pram-cuts"]},
    # ops that raised or were rejected, per op attempted; a failed
    # correctness check makes it 1
    {"name": "error_rate", "unit": "ops/op", "better": "lower",
     "bound": 0, "kind": "absolute", "workloads": None},
]

#: the wall-clock metrics above; a traced run takes them from its
#: untraced pass
WALL_CLOCK = ("throughput_ops_s", "commit_latency_p50_us",
              "commit_latency_tail_us", "restore_s")


def applies(metric: dict, workload: str) -> bool:
    """Whether ``metric`` (an ``EXTRA_METRICS`` entry) is reported on
    ``workload``."""
    return metric["workloads"] is None or workload in metric["workloads"]
