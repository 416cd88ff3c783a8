"""`DynamicMSF` -- the library's top-level facade.

Composes the three layers of the paper into one general-purpose structure:

* the sparse degree-3 engines (sequential Theorem 1.2 / EREW-PRAM
  Theorem 3.1),
* the dynamic Frederickson degree reduction (arbitrary degrees, parallel
  edges, self-loops), and
* optionally the Eppstein et al. sparsification tree (Section 5), which
  makes per-update cost a function of ``n`` rather than ``m``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .chunks import check_engine_backend
from .degree import DegreeReducer
from .sparsify import SparsifiedMSF

__all__ = ["DynamicMSF"]


class DynamicMSF:
    """Fully dynamic minimum spanning forest of a general graph.

    Parameters
    ----------
    n:
        number of vertices (``0..n-1``).
    engine:
        ``"sequential"`` -- Theorem 1.2's ``O(sqrt(n log n))`` worst-case
        engine (default); ``"parallel"`` -- Theorem 3.1's EREW PRAM engine
        run on the lockstep simulator (depth/work measured per update via
        ``.machine`` / ``.update_stats``).
    sparsify:
        route updates through the sparsification tree (Section 5); required
        when ``m`` may greatly exceed ``n`` and per-update cost should stay
        ``f(n)``.  Composes with both engines; with ``engine="parallel"``
        every tree node runs a strict EREW machine and
        ``_impl.parallel_cost_of_last_update()`` reports the Section 5.3
        measured composition (the full Theorem 1.1).
    max_edges:
        maximum number of concurrently live edges (sizes the degree
        reducer's gadget pool); ignored when ``sparsify=True``.
    K:
        chunk-size override (experiments E7/E8); default per engine flavor.
    backend:
        one of :data:`repro.core.chunks.BACKENDS`.  ``"scalar"`` --
        object-array kernels (default; numpy when installed, else the
        pure-python ``_nplite`` shim); ``"compiled"`` -- native C kernels
        for the tuple-min inner loops (build them with
        ``python -m repro.core.compiled.build``).  Forests, edge-id
        streams and op counters are bit-identical across backends; only
        wall-clock changes.  The parallel engine is scalar-only.  Any
        other value, and ``engine="parallel"`` with ``"compiled"``, raise
        ``ValueError``; ``"compiled"`` raises
        :class:`repro.resilience.errors.BackendUnavailable` when the
        ``_kernels`` C module is absent.

    Examples
    --------
    >>> msf = DynamicMSF(4)
    >>> e1 = msf.insert_edge(0, 1, 1.0)
    >>> e2 = msf.insert_edge(1, 2, 2.0)
    >>> msf.connected(0, 2)
    True
    >>> msf.msf_weight()
    3.0
    >>> msf.delete_edge(e1)
    >>> msf.connected(0, 2)
    False
    """

    def __init__(self, n: int, *, engine: str = "sequential",
                 sparsify: bool = False, max_edges: Optional[int] = None,
                 K: Optional[int] = None, backend: str = "scalar") -> None:
        # raised (not asserted): public entry-point validation must survive
        # `python -O`, where bare asserts vanish
        if engine not in ("sequential", "parallel"):
            raise ValueError(
                f"engine must be 'sequential' or 'parallel', got {engine!r}")
        check_engine_backend(engine, backend)
        self.n = n
        self.engine_kind = engine
        self.sparsified = sparsify
        self.backend = backend
        if sparsify:
            self._impl = SparsifiedMSF(n, K=K,
                                       parallel=(engine == "parallel"),
                                       backend=backend)
        elif engine == "parallel":
            from .par import ParallelDynamicMSF
            self._impl = DegreeReducer(
                n, max_edges, backend=backend,
                engine_factory=lambda nc: ParallelDynamicMSF(
                    nc, K=K, backend=backend))
        else:
            self._impl = DegreeReducer(n, max_edges, K=K, backend=backend)

    def self_check(self, level: str = "cheap") -> list:
        """Tiered structural self-audit; returns a list of findings.

        ``level`` is ``"cheap"`` (O(|MSF|) consistency: registries, the
        incremental-vs-recomputed weight pair), ``"structural"`` (every
        per-structure invariant: chunk DLLs, Euler tours, 2-3-tree shapes
        *and* aggregate recomputation) or ``"full"`` (everything,
        including matrix-C brute force and the Kruskal forest equality).
        Empty list = clean; findings are
        :class:`repro.resilience.checks.Finding` records.
        """
        from ..resilience import checks
        return checks.check_engine(self._impl, level=level)

    # ------------------------------------------------------------- updates

    def insert_edge(self, u: int, v: int, weight: float) -> int:
        """Insert an edge; returns its id (self-loops accepted, ignored)."""
        return self._impl.insert_edge(u, v, weight)

    def delete_edge(self, eid: int) -> None:
        self._impl.delete_edge(eid)

    # ------------------------------------------------------------- queries

    def connected(self, u: int, v: int) -> bool:
        return self._impl.connected(u, v)

    def msf_edges(self) -> Iterator[tuple[int, int, float, int]]:
        """Current MSF as ``(u, v, weight, eid)`` tuples."""
        yield from self._impl.msf_edges()

    def msf_ids(self) -> set[int]:
        return self._impl.msf_ids()

    def msf_weight(self) -> float:
        return self._impl.msf_weight()

    def edge_count(self) -> int:
        return self._impl.edge_count()

    # ------------------------------------------------------------- costs

    def erew_violations(self) -> int:
        """EREW violations across the backing engines, 0 when unmeasured.

        Guarded for every configuration: sparsified trees (including
        partially-materialized ones) delegate to the tree's own guarded
        walk, sequential engines report 0, and the non-sparsified
        parallel engine reads its single machine.
        """
        impl = self._impl
        fn = getattr(impl, "erew_violations", None)
        if fn is not None:
            return fn()
        machine = getattr(getattr(impl, "core", None), "machine", None)
        return machine.total.violations if machine is not None else 0

    def pram_cache_info(self) -> dict:
        """Replay/shape cache counters of the backing engines.

        Mirrors the ``erew_violations`` guard ladder: sparsified engines
        report a ``{level_key: cache_info}`` mapping across materialized
        tree nodes, the non-sparsified parallel engine reports its single
        machine's counters, and unmeasured (sequential) backends report
        ``{}``.
        """
        impl = self._impl
        fn = getattr(impl, "pram_cache_info", None)
        if fn is not None:
            return fn()
        machine = getattr(getattr(impl, "core", None), "machine", None)
        info = getattr(machine, "cache_info", None) if machine is not None else None
        return info() if info is not None else {}

    def parallel_cost_of_last_update(self) -> dict:
        """Section 5.3 cost composition (sparsified engines), or an
        explicit zero-cost report when no level accounting exists."""
        fn = getattr(self._impl, "parallel_cost_of_last_update", None)
        if fn is not None:
            return fn()
        return {"depth": 0, "processors": 0, "levels_touched": 0,
                "measured": False}

    @property
    def machine(self):
        """The PRAM machine (non-sparsified parallel engine only; the
        sparsified-parallel combination has one machine per tree node --
        use ``_impl.erew_violations()`` / ``parallel_cost_of_last_update``)."""
        if self.engine_kind != "parallel" or self.sparsified:
            raise ValueError(
                "machine is only exposed by the non-sparsified parallel "
                "engine; sparsified trees run one machine per tree node")
        return self._impl.core.machine

    @property
    def update_stats(self):
        """Per-core-update KernelStats (non-sparsified parallel engine)."""
        if self.engine_kind != "parallel" or self.sparsified:
            raise ValueError(
                "update_stats is only exposed by the non-sparsified "
                "parallel engine")
        return self._impl.core.update_stats

    @property
    def ops(self):
        """The elementary-operation counter (non-sparsified engines)."""
        if self.sparsified:
            raise ValueError(
                "ops is only exposed by the non-sparsified engines; "
                "sparsified trees run one counter per tree node")
        return self._impl.core.ops
