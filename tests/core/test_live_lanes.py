"""The live-lane sets are audited on every engine.

``ChunkSpace._live[i]`` names exactly the lanes of row ``i`` of ``C`` that
hold a key; row writes, column mirrors and id releases touch only those
lanes, so a stale lane is a silent fault.  Every chunk space keeps them --
scalar and compiled sequential, and the parallel engine's -- and the
structural self-check must report a planted stale lane as a ``sparse``
finding on each.
"""

from __future__ import annotations

import random

import pytest

from repro import DynamicMSF
from repro.core import compiled
from repro.core.model import INF_KEY

N = 24
K = 8

ENGINES = [
    pytest.param("sequential", "scalar", id="scalar"),
    pytest.param("sequential", "compiled", id="compiled"),
    pytest.param("parallel", "scalar", id="parallel"),
]


def _built(engine: str, backend: str) -> DynamicMSF:
    """A front whose core has long lists (chunk ids, a live matrix)."""
    msf = DynamicMSF(N, engine=engine, backend=backend, K=K)
    rng = random.Random(5)
    for v in range(1, N):
        msf.insert_edge(rng.randrange(v), v, float(rng.randrange(1000)))
    for _ in range(N):
        u, v = rng.sample(range(N), 2)
        msf.insert_edge(u, v, float(rng.randrange(1000)))
    return msf


@pytest.mark.parametrize("engine,backend", ENGINES)
def test_planted_stale_lane_is_a_sparse_finding(engine, backend):
    if backend == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")
    msf = _built(engine, backend)
    assert msf.self_check("full") == []
    space = msf._impl.core.fabric.space
    assert space.live_ids > 0 and any(space._live)
    row = next(i for i in range(space.Jcap) if space._live[i])
    lane = next(j for j in range(space.Jcap) if space.C[row, j] == INF_KEY)
    space._live[row].add(lane)
    found = [f for f in msf.self_check("structural")
             if f.component == "sparse"]
    assert found and f"row {row}" in found[0].message
