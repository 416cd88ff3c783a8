"""Outside-in span recorder for the benchmark's traced run.

The program under test is not modified: :meth:`Tracer.install` replaces
the public callables listed in :data:`LAYERS` with timing wrappers by
patching the attribute each caller resolves *at call time* (a module
global such as ``repro.serve.batched.coalesce``, or a class attribute),
and :meth:`Tracer.uninstall` puts every original object back.

Rules the recorder keeps:

* one span stack per thread; a span opened on a thread whose stack is
  empty is parented to the innermost open *adopting* span (the
  ``serve.executor`` span around ``LevelExecutor.run``), so work done on
  the executor's worker threads nests under the batch that forked it;
* a wrapper entered while the innermost span on its thread already has
  the same name records nothing (``super()`` calls and
  ``insert_reported -> insert_edge`` count as one public call);
* every span carries the op index the benchmark loop set (``Tracer.op``);
* spans stay in memory; :func:`spans_json` serializes them at exit.

Self time (:func:`self_times`) is a span's duration minus the union of
its children's intervals.  Where spans on different threads are in
their own (childless) time at once, that stretch is split equally
between them, so the self times of all spans add up to the wall time
the spans cover even when executor threads overlap.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

__all__ = ["LAYERS", "ADOPTING", "SPAN_NAMES", "Span", "Tracer",
           "self_times", "summarize", "spans_json"]


def _methods(module: str, cls: str, *names: str) -> list[tuple[str, str]]:
    return [(module, f"{cls}.{name}") for name in names]


#: span name -> the callables it wraps, as ``(module, attribute path)``.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "serve.flush": [("repro.serve.batched", "BatchedMSF.flush"),
                    ("repro.serve.clustered", "ClusterMSF.flush")],
    # the fronts call the name bound in their own module namespace
    "serve.coalesce": [("repro.serve.batched", "coalesce"),
                       ("repro.serve.clustered", "coalesce")],
    "serve.executor": [("repro.serve.executor", "LevelExecutor.run")],
    "serve.snapshot_build": [("repro.serve.snapshot",
                              "ConnectivitySnapshot.__init__")],
    "serve.snapshot_read": _methods("repro.serve.snapshot",
                                    "ConnectivitySnapshot", "connected",
                                    "component_count"),
    "cluster.apply_batch": [("repro.cluster.coordinator",
                             "Coordinator.apply_batch")],
    "cluster.store_commit": [("repro.cluster.store",
                              "CoordinationStore.commit_batch")],
    "sparsify.apply_batch": [("repro.core.sparsify",
                              "SparsifiedMSF.apply_batch")],
    "degree.update": _methods("repro.core.degree", "DegreeReducer",
                              "insert_edge", "delete_edge",
                              "insert_reported", "delete_reported"),
    "engine.update": (_methods("repro.core.seq_msf", "SparseDynamicMSF",
                               "insert_edge", "delete_edge")
                      + _methods("repro.core.par.engine",
                                 "ParallelDynamicMSF", "insert_edge",
                                 "delete_edge")),
    "engine.mwr": [("repro.core.mwr", "find_mwr")],
    "engine.tour": [("repro.core.euler", "link_tour"),
                    ("repro.core.euler", "cut_tour")],
    "engine.lct": (_methods("repro.structures.link_cut", "LinkCutForest",
                            "path_max", "link_edge", "cut_edge")
                   + _methods("repro.core.compiled.lct",
                              "CompiledLinkCutForest", "path_max",
                              "link_edge", "cut_edge")),
    "pram.launch": _methods("repro.pram.machine", "Machine", "run",
                            "run_recorded", "replay", "charge_shaped"),
    "charge.drain": [("repro.analysis.counters", "OpCounter.flush")],
    "wal.commit": [("repro.persist.wal", "DurableSink.commit")],
    "wal.append": [("repro.persist.wal", "OpLog.append")],
    "snapshot.fingerprint": [("repro.resilience.checks",
                              "state_fingerprint")],
    "snapshot.write": [("repro.persist.snapshot", "write_snapshot")],
    # the package attribute (the function), which the benchmark calls
    "restore.total": [("repro.persist", "restore")],
}

#: spans whose worker-thread work is parented to them
ADOPTING = frozenset({"serve.executor"})

#: every span name the traced run reports; ``bench.driver`` is the root
#: span the benchmark loop opens around each op call
SPAN_NAMES = ("bench.driver", *LAYERS)


class Span:
    """One timed call: ``[start, end)`` in ``perf_counter_ns`` units."""

    __slots__ = ("name", "start", "end", "parent", "op", "thread")

    def __init__(self, name: str, parent: Optional["Span"], op: int,
                 thread: int) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = 0
        self.end = 0


class Tracer:
    """Span recorder plus the patch/unpatch bookkeeping."""

    def __init__(self) -> None:
        #: finished spans, in end order
        self.spans: list[Span] = []
        #: op index stamped on every span opened from now on
        self.op = -1
        #: counts wrappers collect from return values (see ``on_return``)
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._adopt: Optional[Span] = None
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------- spans

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt
        span = Span(name, parent, self.op, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable[["Tracer", object], None]] = None
             ) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        tracer = self
        adopting = name in ADOPTING

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            if adopting:
                outer, tracer._adopt = tracer._adopt, span
            try:
                result = fn(*args, **kwargs)
            finally:
                if adopting:
                    tracer._adopt = outer
                tracer.end(span)
            if on_return is not None:
                on_return(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ---------------------------------------------------------- patching

    def patch(self, owner: object, attr: str, name: str,
              on_return: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span wrapper named ``name``."""
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_return))
        self._patches.append((owner, attr, original, had_own))

    def install(self) -> None:
        """Patch every callable in :data:`LAYERS`."""
        for name, targets in LAYERS.items():
            hook = _count_stations if name == "sparsify.apply_batch" else None
            for module, path in targets:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                self.patch(owner, attr, name, hook)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _count_stations(tracer: Tracer, result) -> None:
    """``SparsifiedMSF.apply_batch`` returns its plan and station counts."""
    tracer.counts["sparsify.plans"] += result["plans"]
    tracer.counts["sparsify.stations"] += result["stations"]


# ------------------------------------------------------------- analysis


def self_times(spans: list[Span]) -> list[float]:
    """Self time (ns) of each span; see the module docstring.

    A sweep over every start and end: at each instant the spans that are
    open and have no open child are "leaves", and the stretch up to the
    next event is shared equally between them.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    parent = [index.get(id(s.parent)) if s.parent is not None else None
              for s in spans]
    events = []
    for i, s in enumerate(spans):
        events.append((s.start, 1, i))
        events.append((s.end, 0, i))
    events.sort()  # at equal times, ends (0) come before starts (1)
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    out = [0.0] * len(spans)
    last = None
    for t, is_start, i in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for j in leaves:
                out[j] += share
        last = t
        p = parent[i]
        if is_start:
            is_open[i] = True
            leaves.add(i)
            if p is not None:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return out


def summarize(spans: list[Span],
              wall_ns: int) -> dict[str, dict[str, float]]:
    """Per name of :data:`SPAN_NAMES`: ``calls``, ``self_ms`` and
    ``self_share`` of ``wall_ns``; names with no span report zeros."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, float] = defaultdict(float)
    for span, ns in zip(spans, self_times(spans)):
        calls[span.name] += 1
        self_ns[span.name] += ns
    return {name: {"calls": calls[name],
                   "self_ms": self_ns[name] / 1e6,
                   "self_share": self_ns[name] / wall_ns if wall_ns else 0.0}
            for name in SPAN_NAMES}


def spans_json(spans: list[Span]) -> list[list]:
    """Spans as ``[name, start_ns, end_ns, parent_index, op, thread]``."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [[s.name, s.start, s.end,
             index.get(id(s.parent)) if s.parent is not None else None,
             s.op, s.thread] for s in spans]
