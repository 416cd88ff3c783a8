"""A facade read of vertices the lazy core has not built builds none: a
build bumps the list registry's version, which drops every chunk's
cached list.  (Reads of ids that are not vertices: ``test_facade.py``.)"""

from __future__ import annotations

import random

import pytest

from repro.core import compiled
from repro.core.msf import DynamicMSF
from repro.reference.oracle import UnionFind

#: (sparsify, engine, backend); the parallel engine is scalar-only
FACADES = [(s, e, b) for s in (False, True)
           for e in ("sequential", "parallel")
           for b in ("scalar", "compiled")
           if (e, b) != ("parallel", "compiled")]


def _core(msf):
    return (msf._impl.root.engine if msf.sparsified else msf._impl).core


def _read_burst(msf, pairs):
    """Answers, and the op and PRAM work the reads charge the root core."""
    core = _core(msf)
    machine = getattr(core, "machine", None)

    def spent():
        return (core.ops.grand_total(),
                machine.total.work if machine is not None else 0)

    before = spent()
    answers = [msf.connected(u, v) for u, v in pairs]
    return answers, [a - b for a, b in zip(spent(), before)]


@pytest.mark.parametrize("cfg", FACADES,
                         ids=lambda c: "-".join(map(str, c)))
def test_read_of_unbuilt_vertices_builds_nothing(cfg):
    """Edges touch vertices below n/2 only.  Reads over every vertex
    leave the registry version and the built vertices as they were,
    answer as union-find does, and charge what the same reads charge on
    a twin whose core has built every vertex."""
    sparsify, engine, backend = cfg
    if backend == "compiled" and not compiled.HAVE_COMPILED:
        pytest.skip("native extension not built")
    n, rng, uf = 64, random.Random(f"facade-reads/{cfg}"), UnionFind()
    msf, twin = (DynamicMSF(n, sparsify=sparsify, engine=engine,
                            backend=backend) for _ in range(2))
    for _ in range(40):
        u, v, w = rng.randrange(n // 2), rng.randrange(n // 2), rng.random()
        msf.insert_edge(u, v, w)
        twin.insert_edge(u, v, w)
        uf.union(u, v)
    for x in range(n):
        _core(twin).vertices[x]              # builds vertex x
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    pairs += [(x, x) for x in range(n // 2, n)]
    core = _core(msf)
    version, built = core.fabric.registry.version, list(core.vertices)
    answers, charged = _read_burst(msf, pairs)
    assert core.fabric.registry.version == version
    assert list(core.vertices) == built
    assert answers == [uf.find(u) == uf.find(v) for u, v in pairs]
    assert (answers, charged) == _read_burst(twin, pairs)
    assert charged[0] > 0 and charged[1] == 0
