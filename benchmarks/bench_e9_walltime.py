"""E9 -- wall-clock sanity (pytest-benchmark timings).

Not a paper claim: anchors the op-count model in CPython seconds for each
engine at a few sizes, so readers can relate E1-E8's abstract costs to real
time on their machine.
"""

from __future__ import annotations

import pytest
from _common import banner, render_table, replay

from repro import DynamicMSF
from repro.baselines.recompute import RecomputeMSF
from repro.baselines.scan import ScanDynamicMSF
from repro.core.par import ParallelDynamicMSF
from repro.core.seq_msf import SparseDynamicMSF
from repro.workloads import churn


ENGINES = {
    "seq-core": (lambda n: SparseDynamicMSF(n), True, 3),
    "scan-core": (lambda n: ScanDynamicMSF(n), True, 3),
    "parallel-core": (lambda n: ParallelDynamicMSF(n), True, 3),
    "facade-sequential": (lambda n: DynamicMSF(n, max_edges=4 * n), False, None),
    "facade-sparsified": (lambda n: DynamicMSF(n, sparsify=True), False, None),
    "recompute": (lambda n: RecomputeMSF(n), True, None),
}


@pytest.mark.parametrize("name", list(ENGINES))
@pytest.mark.parametrize("n", [256, 1024])
def test_e9_updates_per_second(benchmark, name, n):
    factory, core_style, max_degree = ENGINES[name]
    if name == "facade-sparsified" and n > 256:
        pytest.skip("sparsified facade timed at n=256 only (slow)")
    ops = list(churn(n, 150 if name != "facade-sparsified" else 60,
                     seed=5, max_degree=max_degree))

    def once():
        replay(factory(n), ops, core_style)

    benchmark.pedantic(once, iterations=1, rounds=3)
    benchmark.extra_info["updates"] = len(ops)


def run_experiment(fast: bool = False) -> str:
    import time
    n = 256 if fast else 1024
    rows = []
    for name, (factory, core_style, max_degree) in ENGINES.items():
        steps = 60 if name == "facade-sparsified" else 150
        size = 256 if name == "facade-sparsified" else n
        ops = list(churn(size, steps, seed=5, max_degree=max_degree))
        t0 = time.perf_counter()
        replay(factory(size), ops, core_style)
        dt = time.perf_counter() - t0
        rows.append([name, size, len(ops), round(dt, 3),
                     round(len(ops) / dt, 1)])
    table = render_table(["engine", "n", "updates", "seconds", "updates/s"],
                         rows, title="E9: wall-clock sanity (random churn)")
    return banner("E9 walltime", table)


if __name__ == "__main__":
    print(run_experiment())
