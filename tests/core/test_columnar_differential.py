"""What survives of the retired columnar backend's substrate tests.

``backend="columnar"`` is gone; the generic bit-identity contract lives
in ``test_backend_differential.py``.  Kept here, under their original
names, are the checks whose subject outlived the backend:

* the bulk ``BT_c`` build, pinned level by level against the incremental
  insert-after build under the ``(units, edges)`` pull;
* backend selection: unknown and retired backend names, and the parallel
  engine on a backend other than scalar, are rejected at every front;
* the no-numpy degradation path of the scalar backend.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.chunks import ChunkSpace
from repro.core.msf import DynamicMSF
from repro.core.par import ParallelDynamicMSF
from repro.core.par.engine import _bt_pull
from repro.core.sparsify import SparsifiedMSF
from repro.serve import BatchedMSF
from repro.structures import two_three_tree as tt

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


# ------------------------------------------------- BT level aggregation

def _shape_of(root) -> list:
    """Per-level kid-count lists, top-down (leaves excluded)."""
    shape = []
    cur = [root]
    while cur and not cur[0].is_leaf:
        shape.append([len(nd.kids) for nd in cur])
        cur = [k for nd in cur for k in nd.kids]
    return shape


@pytest.mark.parametrize("n_leaves", list(range(1, 41)))
def test_build_rightmost_levels_shape_and_aggs(n_leaves: int) -> None:
    """Exhaustive small-n equality of the ``BT_c`` bulk build that
    ``ParChunkSpace.adopt_occurrences`` runs: ``build_rightmost`` under
    ``_bt_pull`` has, level by level, the shape of the incremental
    insert-after build, and the same ``(units, edges)`` aggregate, as
    python ints, at every node."""
    rng = random.Random(n_leaves)
    degs = [rng.randrange(4) for _ in range(n_leaves)]

    bulk_leaves = [tt.leaf(i, agg=(1 + d, d)) for i, d in enumerate(degs)]
    bulk_root = tt.build_rightmost(bulk_leaves, _bt_pull)

    inc_leaves = [tt.leaf(i, agg=(1 + d, d)) for i, d in enumerate(degs)]
    inc_root = inc_leaves[0]
    for prev, lf in zip(inc_leaves, inc_leaves[1:]):
        inc_root = tt.root_of(tt.insert_after(prev, lf, _bt_pull))

    assert _shape_of(bulk_root) == _shape_of(inc_root)
    for a, b in zip(tt.iter_nodes(bulk_root), tt.iter_nodes(inc_root)):
        assert a.agg == b.agg
        assert type(a.agg[0]) is type(a.agg[1]) is int


# ------------------------------------------------------ backend selection

def test_bad_backend_rejected(monkeypatch) -> None:
    """Only :data:`repro.core.chunks.BACKENDS` are accepted: an unknown
    name and the retired ``"columnar"`` backend raise ``ValueError`` at
    every front, before any engine is built.  The parallel engine is
    scalar-only: ``backend="compiled"`` with ``engine="parallel"`` is a
    ``ValueError`` at all four fronts, extension built or not."""
    for bad in ("simd", "columnar"):
        with pytest.raises(ValueError, match="backend"):
            DynamicMSF(4, backend=bad)
        with pytest.raises(ValueError, match="backend"):
            DynamicMSF(4, sparsify=True, backend=bad)
        with pytest.raises(ValueError, match="backend"):
            BatchedMSF(4, backend=bad)
        with pytest.raises(ValueError, match="backend"):
            ChunkSpace(4, backend=bad)

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built before the check")

    monkeypatch.setattr(SparsifiedMSF, "_get_node", no_engine)
    monkeypatch.setattr(ParallelDynamicMSF, "_build_fabric", no_engine)
    fronts = (
        lambda: DynamicMSF(4, engine="parallel", backend="compiled"),
        lambda: DynamicMSF(4, engine="parallel", sparsify=True,
                           backend="compiled"),
        lambda: BatchedMSF(4, engine="parallel", backend="compiled"),
        lambda: SparsifiedMSF(4, parallel=True, backend="compiled"),
        lambda: ParallelDynamicMSF(4, backend="compiled"),
    )
    for build in fronts:
        with pytest.raises(ValueError, match="scalar"):
            build()


# -------------------------------------------------- no-numpy degradation

def test_backend_unavailable_without_numpy(tmp_path) -> None:
    """Without numpy the scalar backend runs the sparsified facade on the
    pure-python ``_nplite`` shim, and the retired ``"columnar"`` name is
    a plain ``ValueError`` rather than a missing-dependency error --
    exercised in a subprocess with numpy shadowed out."""
    shim = tmp_path / "numpy.py"
    shim.write_text("raise ImportError('numpy disabled for this test')\n")
    code = (
        "import repro.core.chunks as chunks\n"
        "assert chunks.np.__name__ == 'repro.core._nplite'\n"
        "from repro.core.msf import DynamicMSF\n"
        "m = DynamicMSF(8, sparsify=True)\n"
        "e1 = m.insert_edge(0, 1, 1.0); e2 = m.insert_edge(1, 2, 2.0)\n"
        "assert m.connected(0, 2) and m.msf_weight() == 3.0\n"
        "m.delete_edge(e1)\n"
        "assert not m.connected(0, 2)\n"
        "try:\n"
        "    DynamicMSF(8, backend='columnar')\n"
        "except ValueError as exc:\n"
        "    assert 'backend' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('ValueError not raised')\n"
        "print('NO-NUMPY-OK')\n"
    )
    env_path = f"{tmp_path}:{REPO_ROOT / 'src'}"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "NO-NUMPY-OK" in proc.stdout
