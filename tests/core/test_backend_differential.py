"""Backend differential suite: scalar vs compiled.

One contract for the optional execution backend: for any op stream,
``backend="compiled"`` must produce the same forests, edge-id streams,
``msf_weight``, op-counter totals and facade ``state_fingerprint`` as
the scalar path -- only wall clock may differ.  The parallel engine is
scalar-only, so every row here runs the sequential engine.  The suite
is parametrized over :data:`BACKENDS` so any future backend rides the
identical gates instead of growing a diverged copy.  The compiled
tier's own substrate piece (the flat mirror) and the backend-selection
errors are pinned at the end of the file.

Compiled rows skip without a C compiler -- when a compiler exists but
the extension is stale or absent, the fixture builds it on the spot
(the ``repro[compiled]`` extra is a build step, not a dependency).
"""

from __future__ import annotations

import importlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.msf import DynamicMSF
from repro.core.seq_msf import SparseDynamicMSF
from repro.resilience.checks import state_fingerprint
from repro.resilience.soak import run_campaign
from repro.workloads import adversarial_cuts, churn, drive, query_mix, \
    worker_mix

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

BACKENDS = ("compiled",)


def _ensure_compiled():
    """Make ``backend="compiled"`` usable, or return a skip reason.

    Builds the extension with the system compiler when it is absent,
    then rebinds the already-imported package in place (the package and
    its ``matrix`` submodule were loaded in degraded mode, so a plain
    build would not be seen by this process).
    """
    from repro.core import compiled
    if compiled.HAVE_COMPILED:
        return None
    from repro.core.compiled import build
    if build.find_compiler() is None:
        return "no C compiler to build the native extension"
    try:
        build.build()
    except Exception as exc:  # noqa: BLE001 - report, don't crash collect
        return f"native extension build failed: {exc}"
    importlib.reload(compiled)  # re-probes _kernels
    matrix = importlib.reload(sys.modules["repro.core.compiled.matrix"])
    compiled.CompiledMatrix = matrix.CompiledMatrix
    if not compiled.HAVE_COMPILED:
        return "native extension built but import still failed"
    return None


def _require_compiled() -> None:
    reason = _ensure_compiled()
    if reason is not None:
        pytest.skip(reason)


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    _require_compiled()
    return request.param


# --------------------------------------------------------------- facades

def _stream_for(workload: str, n: int, steps: int, seed: int) -> list:
    if workload == "churn":
        return list(churn(n, steps, seed=seed))
    if workload == "query_mix":
        return list(query_mix(n, steps, read_ratio=0.6, seed=seed))
    assert workload == "worker_mix"
    return list(worker_mix(n, steps, shards=4, cross_fraction=0.1,
                           read_ratio=0.3, seed=seed))


def _facade_out(eng, s) -> tuple:
    return (s.results,                       # every intermediate read
            sorted(s.eids.items()),          # eid assignment stream
            tuple(sorted(eng.msf_ids())),
            round(eng.msf_weight(), 9),
            state_fingerprint(eng._impl))


@pytest.mark.parametrize("workload", ["churn", "query_mix", "worker_mix"])
@pytest.mark.parametrize("n", [64, 256])
def test_facade_fuzz_bit_identity(backend: str, workload: str,
                                  n: int) -> None:
    """Seeded fuzz: the sparsified facade under scalar and the optional
    backend replays the same stream to identical read results, eid
    streams, forests, weights and fingerprints."""
    steps = 80 if n >= 256 else 120
    ops = _stream_for(workload, n, steps, seed=n + 13)
    outs = []
    for bk in ("scalar", backend):
        eng = DynamicMSF(n, sparsify=True, backend=bk)
        outs.append(_facade_out(eng, drive(eng, ops)))
        assert eng.self_check("structural") == []
    assert outs[0] == outs[1]


@pytest.mark.parametrize("engine", ["sequential"])
def test_facade_engines_identical(backend: str, engine: str) -> None:
    n = 48
    ops = _stream_for("churn", n, 100, seed=3)
    outs = []
    for bk in ("scalar", backend):
        eng = DynamicMSF(n, engine=engine, sparsify=False, backend=bk)
        outs.append(_facade_out(eng, drive(eng, ops)))
    assert outs[0] == outs[1]


# ------------------------------------------------------------ bare cores

def test_seq_core_counters_and_mirror(backend: str) -> None:
    """Charged op-counter totals are bit-identical (batched backend
    charges must sum to the scalar per-call totals), and the backend's
    mirror of matrix ``C`` agrees entrywise with the object matrix."""
    n = 128
    ops = list(churn(n, 150, seed=9, max_degree=3))
    outs = []
    engines = []
    for bk in ("scalar", backend):
        eng = SparseDynamicMSF(n, K=4, backend=bk)
        handles = {}
        for idx, op in enumerate(ops):
            if op[0] == "ins":
                _t, u, v, w = op
                handles[idx] = eng.insert_edge(u, v, w, eid=10_000 + idx)
            else:
                eng.delete_edge(handles.pop(op[1]))
        outs.append((eng.ops.breakdown(),
                     tuple(sorted(e.eid for e in eng.msf_edges())),
                     round(eng.msf_weight(), 9)))
        engines.append(eng)
    assert outs[0] == outs[1]
    space = engines[1].fabric.space
    assert space.compm is not None
    assert space.compm.verify_against(space.C) == []
    assert engines[0].fabric.space.compm is None


# ------------------------------------- PR 9: structural-plumbing parity

def test_charge_stream_exact_per_op(backend: str) -> None:
    """Charge batching is measurement-neutral *op by op*: after every
    single update the flushed grand total of the batched backend equals
    the scalar per-call path's, not just at the end of the stream.  The
    windowed read itself forces a drain, so this also exercises the
    lazy-drain contract under interleaved reads."""
    n = 96
    for seed in (1, 7, 23):
        ops = list(churn(n, 150, seed=seed, max_degree=3))
        scal = SparseDynamicMSF(n, K=4, backend="scalar")
        other = SparseDynamicMSF(n, K=4, backend=backend)
        hs: dict[int, object] = {}
        ho: dict[int, object] = {}
        for idx, op in enumerate(ops):
            if op[0] == "ins":
                _t, u, v, w = op
                hs[idx] = scal.insert_edge(u, v, w, eid=10_000 + idx)
                ho[idx] = other.insert_edge(u, v, w, eid=10_000 + idx)
            else:
                scal.delete_edge(hs.pop(op[1]))
                other.delete_edge(ho.pop(op[1]))
            assert other.ops.grand_total() == scal.ops.grand_total(), \
                (seed, idx, op)
        assert other.ops.breakdown() == scal.ops.breakdown()


def _connectivity_partition(eng, n: int) -> tuple:
    """Canonical partition of the vertex set into trees."""
    reps: list[int] = []
    groups: list[list[int]] = []
    for v in range(n):
        for rep, grp in zip(reps, groups):
            if eng.connected(rep, v):
                grp.append(v)
                break
        else:
            reps.append(v)
            groups.append([v])
    return tuple(tuple(g) for g in groups)


@pytest.mark.parametrize("workload", ["churn", "adversarial"])
def test_transition_and_splay_parity(backend: str, workload: str) -> None:
    """The backend-routed splay/access loops and the batched charge
    stream must leave the engine a twin of the scalar walks (fabric
    transitions run the one python path on both backends): per-update
    charge totals, connectivity partition, forests, weights and the facade
    fingerprint all agree, and the structural self-check (which audits
    the LCT mirror and live-lane index) stays clean."""
    n = 80
    if workload == "churn":
        ops = list(churn(n, 160, seed=11, max_degree=5))
    else:
        ops = list(adversarial_cuts(n, 6, seed=2))
    outs = []
    for bk in ("scalar", backend):
        eng = DynamicMSF(n, engine="sequential", sparsify=False, backend=bk)
        core = eng._impl.core
        handles: dict[int, object] = {}
        trace = []
        for idx, op in enumerate(ops):
            if op[0] == "ins":
                _t, u, v, w = op
                handles[idx] = eng.insert_edge(u, v, w)
            else:
                eng.delete_edge(handles.pop(op[1]))
            trace.append(core.ops.grand_total())
        outs.append((trace,
                     _connectivity_partition(eng, n),
                     tuple(sorted(eng.msf_ids())),
                     round(eng.msf_weight(), 9),
                     core.ops.breakdown(),
                     state_fingerprint(eng._impl)))
        assert eng.self_check("structural") == []
    assert outs[0] == outs[1]


def test_sparse_lane_scans_match_full_width(backend: str) -> None:
    """Lane-restricted mirror writes keep the flat mirror equal to the
    full-width object matrix whenever the lane set covers the row's live
    entries -- exactly the invariant ``ChunkSpace._live`` maintains.  The
    mirror receives every mutation through ``write_lanes`` only, and
    ``verify_against`` rechecks it entrywise (all ``Jcap x Jcap`` cells)
    after each phase: population, an id release, a row rewrite, and an
    empty lane set."""
    Jcap = 16
    INF = float("inf")
    INF_KEY = (INF, INF)
    from repro.core.compiled.matrix import CompiledMatrix as Mat
    C = [[INF_KEY] * Jcap for _ in range(Jcap)]
    rng = random.Random(97)
    sparse = Mat(Jcap)
    live: dict[int, set[int]] = {i: set() for i in range(Jcap)}
    for _ in range(48):
        i, j = rng.sample(range(Jcap), 2)
        key = (rng.random(), float(rng.randrange(1 << 20)))
        C[i][j] = C[j][i] = key
        sparse.write_lanes(i, [j], C[i])
        live[i].add(j)
        live[j].add(i)
    assert sparse.verify_against(C) == []
    # id release: clear the live lanes of row and column cid
    cid = max(live, key=lambda r: len(live[r]))
    assert live[cid], "population pass should hit the pivot row"
    lanes = live[cid]
    for j in lanes:
        C[cid][j] = C[j][cid] = INF_KEY
        live[j].discard(cid)
    live[cid] = set()
    sparse.write_lanes(cid, lanes, C[cid])
    assert sparse.verify_against(C) == []
    # row rewrite: new lanes written, then mirrored into the column
    lanes = sorted(rng.sample([j for j in range(Jcap) if j != cid], 5))
    for j in lanes:
        C[cid][j] = C[j][cid] = (rng.random(), float(rng.randrange(1 << 20)))
    sparse.write_lanes(cid, set(lanes), C[cid])
    assert sparse.verify_against(C) == []
    # an empty lane set must be a no-op, not a full-width wipe
    sparse.write_lanes(cid, [], C[cid])
    assert sparse.verify_against(C) == []


# ----------------------------------------------- compiled-tier specifics

def test_backend_unavailable_without_extension(tmp_path) -> None:
    """Without the native extension the scalar backend keeps working and
    ``backend="compiled"`` raises ``BackendUnavailable`` naming the build
    command -- exercised in a subprocess with the extension import
    blocked, so it holds on hosts where the extension *is* built."""
    code = (
        "import sys\n"
        "class _Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'repro.core.compiled._kernels':\n"
        "            raise ImportError('extension blocked for this test')\n"
        "        return None\n"
        "sys.meta_path.insert(0, _Block())\n"
        "from repro.core.msf import DynamicMSF\n"
        "from repro.resilience.errors import BackendUnavailable\n"
        "m = DynamicMSF(8, sparsify=True)\n"
        "e1 = m.insert_edge(0, 1, 1.0); e2 = m.insert_edge(1, 2, 2.0)\n"
        "assert m.connected(0, 2) and m.msf_weight() == 3.0\n"
        "m.delete_edge(e1)\n"
        "assert not m.connected(0, 2)\n"
        "try:\n"
        "    DynamicMSF(8, backend='compiled')\n"
        "except BackendUnavailable as exc:\n"
        "    assert 'compiled' in str(exc)\n"
        "    assert 'repro.core.compiled.build' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('BackendUnavailable not raised')\n"
        "print('NO-EXTENSION-OK')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "NO-EXTENSION-OK" in proc.stdout


def test_compiled_mirror_fault_detected_and_recovered() -> None:
    """The seeded ``compiled.kernel`` fault (one float64 of the flat
    mirror skewed) is detected by ``compm.verify_against`` through the
    tiered checks and recovered by the ladder: the campaign must end
    ``ok`` with zero wrong answers."""
    _require_compiled()
    report = run_campaign(7, engine="sequential", backend="compiled",
                          sites=["compiled.kernel"], n=32, n_ops=200,
                          n_faults=4)
    assert report["ok"], report["final"]
    assert report["wrong_answers"] == 0
    assert report["n_detected"] + report["n_masked"] >= report["n_injected"]


def test_compiled_verify_against_pinpoints_skew() -> None:
    """``verify_against`` names the exact skewed entry and caps its
    findings."""
    _require_compiled()
    eng = SparseDynamicMSF(32, K=4, backend="compiled")
    handles = []
    for i in range(10):
        handles.append(eng.insert_edge(i, i + 1, float(i + 1),
                                       eid=100 + i))
    space = eng.fabric.space
    assert space.compm.verify_against(space.C) == []
    view = memoryview(space.compm.buf).cast("d")
    view[2 * (1 * space.Jcap + 2)] += 0.25
    findings = space.compm.verify_against(space.C)
    assert len(findings) == 1
    assert "C[1,2]" in findings[0]
    view[2 * (2 * space.Jcap + 1)] += 0.25
    assert len(space.compm.verify_against(space.C, max_findings=1)) == 1
    assert len(space.compm.verify_against(space.C)) == 2


def test_extension_built_from_this_source() -> None:
    """The loaded extension reports the ``__version__`` of this
    ``_kernels.c``: a stale build (one that still exports kernels the
    source has dropped) fails here and in ``build --check``."""
    _require_compiled()
    from repro.core import compiled
    from repro.core.compiled import build
    assert compiled.compiled_version() == build.source_version()
    assert build.main(["--check"]) == 0
