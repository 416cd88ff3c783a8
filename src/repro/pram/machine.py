"""A deterministic lockstep EREW PRAM simulator.

Why a simulator
---------------
Theorem 1.1's claims are *model* claims -- parallel worst-case time
(**depth**), processor count, total **work**, and legality in the EREW
(exclusive-read exclusive-write) PRAM.  CPython cannot demonstrate wall-clock
speedup (GIL), and even a GIL-free run could not *verify* EREW legality.
This machine runs the paper's parallel kernels synchronously and measures
exactly the quantities the theorems bound, while *rejecting* any same-step
concurrent access to a memory cell.

Execution model
---------------
A **kernel** is a list of processor *programs*: Python generators that yield
one memory operation per machine step (:class:`Read`, :class:`Write`, or
:class:`Nop` to idle a step while staying synchronized).  Local computation
between yields is free, as in the unit-cost PRAM.  Each machine step:

1. every live processor has one pending op;
2. conflicts are checked: in EREW mode *any* two ops touching the same cell
   in the same step are illegal (read/read, write/write, read/write); in
   CREW mode concurrent reads are allowed;
3. all reads observe memory as it was *before* the step's writes
   (synchronous PRAM semantics), writes apply at the end of the step;
4. each generator is resumed with its read value to produce its next op.

Depth = number of steps; work = number of non-:class:`Nop` ops; the machine
also tracks the maximum number of simultaneously live processors.

Execution engines
-----------------
Two step-loop implementations exist:

* ``impl="onepass"`` (default) -- a single fused pass per step interns each
  touched address to a dense int id (:meth:`Mem.intern`), detects conflicts
  on the int-keyed table, performs reads against pre-step memory, buffers
  writes, and then resumes generators.  This is the production loop.
* ``impl="reference"`` -- the original four-pass loop (classify ->
  conflict-scan -> read -> write -> resume) retained verbatim as a
  differential oracle: ``tests/pram/test_machine_fastpath.py`` asserts both
  engines produce bit-identical :class:`KernelStats` on real workloads.

Audit ladder
------------
``audit`` selects how violations are reported and whether kernels may
replay:

* ``"strict"`` -- every step fully checked; violations raise
  :class:`ErewViolation`.  Experiment E4's legality verdict uses only this
  mode.
* ``"count"``  -- fully checked, violations only counted
  (``stats.violations``).
* ``"fast"``   -- benchmark mode: ``strict`` plus the keyed trace-replay
  tier below.  Every :meth:`Machine.run` is still fully checked and
  raises on a violation; only a kernel that supplies a shape key and
  hits a recorded plan skips simulation.  Depth/work/processors are
  identical in all three modes, so ``fast`` is a *measurement*
  optimization -- never a legality verdict (see DESIGN.md).

Trace-replay tier (``audit="fast"`` only)
-----------------------------------------
Kernels whose op stream's per-step (live, reads, writes) counts are a
*pure function of a cheap structural key* -- e.g. the LSDS path-refresh
kernel, whose shape is fully determined by ``(J, kid-counts along the
path)`` -- may skip simulation.  :meth:`Machine.run_recorded` *compiles*
each clean launch into a :class:`TracePlan`: the measured (depth, work,
processors), the per-step op-count fingerprint, and the kernel-declared
number of semantically visible memory effects -- with the
EREW-exclusivity proof established once, at record time, by the fully
checked simulation.  Subsequent launches of the same shape call
:meth:`Machine.replay_plan` and, on a hit, :meth:`Machine.replay`: the
kernel applies its direct host equivalent (only data-dependent values and
buffered writes are evaluated -- no generator resumption, no per-op
conflict re-checking) and the machine charges the recorded stats
**bit-identically** to strict simulation.
``replay`` cross-checks the kernel's declared effect count against the
plan, so a key collision between launches with different write sets is
caught rather than silently mis-charged.

The record/verify/replay contract:

* **record** -- first launch of a key simulates fully checked (strict;
  violations raise regardless of the audit level) and compiles the plan;
* **verify** -- the plan carries the EREW legality proof of that one
  launch; the kernel author owes "equal key => equal per-step op counts
  and equal memory effects" for every later launch of the key;
* **replay** -- later launches charge the plan's stats and skip
  simulation entirely.

Composed plans
--------------
A kernel whose program is one fixed-length *segment* repeated back to
back may build a whole-launch plan from per-segment plans instead of
simulating the whole launch.  The LSDS path refresh is one: processor
``p_j`` runs the same 8-step segment for every node of the refreshed
path, and a node's segment shape is fixed by ``(J, kid count)``.  On a
whole-key miss the kernel records only the segment shapes it has not
seen (:meth:`Machine.run_recorded` with ``account=False``), applies the
host equivalent of every other segment, and hands the segment plans to
:meth:`Machine.run_composed`, which caches and charges the concatenation
as *one* launch.

Soundness: a segment is exactly 8 steps and every processor is live in
all of them, so segment ``i`` of the whole launch occupies steps
``8i+1 .. 8i+8`` and its per-step op counts are the segment plan's.
Within a segment ``p_j`` touches only ``(array, j)`` cells, so no two
processors ever meet on a cell -- neither inside one segment nor across
the boundary of two.  The EREW proof of each segment shape is therefore
the proof of every launch composed from it.  The composed plan's depth,
work and processors are recomputed from the concatenated fingerprints
(:func:`fingerprint_stats`), never summed from the segment plans' stored
stats, so a corrupted segment plan cannot pass its error on; each
segment's declared effect count is cross-checked as :meth:`Machine.replay`
does.

The plan cache is a bounded LRU (:class:`_LRU`) with hit/miss/eviction
counters surfaced by :meth:`Machine.cache_info`; evicting a plan merely
forces a clean re-record on next sighting.
:attr:`Machine.history` is a bounded ring buffer by default
(:class:`KernelHistory`); analysis scripts that need the full launch log
opt in via ``machine.history.set_cap(None)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import (Any, Callable, Generator, Iterable, Iterator, Optional,
                    Sequence)

from ..resilience import faults as _faults
from .memory import Mem

__all__ = [
    "Read",
    "Write",
    "Nop",
    "Machine",
    "KernelStats",
    "KernelHistory",
    "TracePlan",
    "ErewViolation",
    "fingerprint_stats",
]

#: op tags (class attributes on the op types; cheaper than isinstance in
#: the fused step loop)
_TAG_NOP = 0
_TAG_READ = 1
_TAG_WRITE = 2
#: conflict marker bit in the per-step touched table
_FLAG_CONFLICT = 4
#: field mask of a packed fingerprint entry ``(live << 42) | (reads << 21)
#: | writes``
_MASK21 = (1 << 21) - 1


def fingerprint_stats(fingerprint: Sequence[int]) -> tuple[int, int, int]:
    """``(depth, work, processors)`` of a packed per-step fingerprint:
    the number of steps, the sum of reads and writes, and the largest
    live count."""
    work = sum(((p >> 21) & _MASK21) + (p & _MASK21) for p in fingerprint)
    return (len(fingerprint), work,
            max((p >> 42 for p in fingerprint), default=0))


class Read:
    """Read one memory cell this step; the generator receives its value."""

    __slots__ = ("addr",)
    tag = _TAG_READ

    def __init__(self, addr: tuple) -> None:
        self.addr = addr

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Read(addr={self.addr!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Read) and other.addr == self.addr

    def __hash__(self) -> int:
        return hash(("Read", self.addr))


class Write:
    """Write one memory cell this step (applies after all reads)."""

    __slots__ = ("addr", "value")
    tag = _TAG_WRITE

    def __init__(self, addr: tuple, value: Any) -> None:
        self.addr = addr
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Write(addr={self.addr!r}, value={self.value!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Write) and other.addr == self.addr
                and other.value == self.value)


class Nop:
    """Stay synchronized without touching memory (costs depth, not work)."""

    __slots__ = ()
    tag = _TAG_NOP

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "Nop()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Nop)

    def __hash__(self) -> int:
        return hash("Nop")


Program = Generator[Any, Any, Any]


class ErewViolation(RuntimeError):
    """Two processors touched one cell in the same step (in EREW mode)."""

    def __init__(self, step: int, addr: tuple, procs: list[int],
                 kinds: list[str], cell_name: Optional[str] = None):
        self.step = step
        self.addr = addr
        self.procs = procs
        self.kinds = kinds
        self.cell_name = cell_name if cell_name is not None \
            else _short_addr(addr)
        super().__init__(
            f"step {step}: processors {procs} performed {kinds} "
            f"on one cell {self.cell_name}"
        )


def _short_addr(addr: tuple) -> str:
    """Fallback cell rendering when no :class:`Mem` context is available.

    Prefer ``Mem.describe`` (used by the machine when raising), which knows
    registered sequences' debug names; this helper survives for direct
    constructions of :class:`ErewViolation` in tests and external code.
    """
    kind = addr[0]
    if kind == "attr":
        return f"attr({type(addr[1]).__name__}.{addr[2]})"
    if kind == "idx":
        return f"idx(seq{addr[1] % 9973},{addr[2]})"
    return repr(addr)


@dataclass(slots=True)
class KernelStats:
    """Cost of one kernel launch (or an aggregate of several).

    Slotted: tens of thousands of instances flow through
    :meth:`Machine._account` per benchmark run, and the replay fast path
    makes their construction + field access a measurable share of the
    host work.
    """

    depth: int = 0
    work: int = 0
    processors: int = 0  # max processors live in any single step
    launches: int = 0
    violations: int = 0
    label: str = ""

    def add(self, other: "KernelStats") -> None:
        """**Sequential** composition: the aggregate models running ``self``
        *then* ``other`` on the same machine.

        Depths and work add; ``processors`` takes the max because a
        processor pool can be reused across consecutive launches.  Note
        that :attr:`Machine.total` applies this same max-composition across
        *unrelated* charges too (e.g. the analytic ``descr_bcast`` charge
        and a tournament launched later), which is the correct accounting
        for a single machine executing phases one after another.  For
        phases that run *simultaneously on disjoint processors* -- e.g. the
        per-level engines of the sparsification tree (Section 5.3) -- use
        :meth:`parallel_compose`, where depth is the max and processors
        add.
        """
        self.depth += other.depth
        self.work += other.work
        self.processors = max(self.processors, other.processors)
        self.launches += other.launches
        self.violations += other.violations

    @classmethod
    def parallel_compose(cls, parts: Iterable["KernelStats"],
                         label: str = "") -> "KernelStats":
        """**Parallel** composition: the parts run side by side on disjoint
        processor pools.

        Depth is the maximum over parts (they finish when the slowest
        does), work and processors *add* (total operations and pool size),
        as do launches and violations.
        """
        out = cls(label=label)
        for st in parts:
            out.depth = max(out.depth, st.depth)
            out.work += st.work
            out.processors += st.processors
            out.launches += st.launches
            out.violations += st.violations
        return out


class TracePlan:
    """A compiled replay plan for one verified kernel shape.

    Produced by :meth:`Machine.run_recorded` from a clean fully-checked
    launch; consumed by :meth:`Machine.replay`.  Carries the measured
    stats, the per-step op-count fingerprint of the recording launch
    (diagnostic / differential material), and the kernel-declared count of
    semantically visible memory effects, which :meth:`Machine.replay`
    cross-checks on every hit.
    """

    __slots__ = ("key", "label", "depth", "work", "processors",
                 "fingerprint", "n_effects")

    def __init__(self, key: tuple, label: str, depth: int, work: int,
                 processors: int, fingerprint: tuple[int, ...],
                 n_effects: Optional[int]) -> None:
        self.key = key
        self.label = label
        self.depth = depth
        self.work = work
        self.processors = processors
        self.fingerprint = fingerprint
        self.n_effects = n_effects

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"TracePlan(label={self.label!r}, depth={self.depth}, "
                f"work={self.work}, processors={self.processors}, "
                f"n_effects={self.n_effects})")


class _LRU:
    """A bounded mapping with move-to-end recency and telemetry counters.

    The plan cache must be production-shaped: bounded (a long serving
    run must not grow it without limit), with hit/miss/eviction counters
    surfaced via :meth:`Machine.cache_info`.  Eviction is safe by
    construction -- losing an entry only forces a clean re-record of the
    shape on its next sighting, never a wrong answer.

    ``get`` counts hits/misses (the hot-path probe); ``peek`` does not
    (used by :meth:`Machine.charge_shaped` after the probe already
    counted).
    """

    __slots__ = ("data", "cap", "hits", "misses", "evictions")

    def __init__(self, cap: Optional[int]) -> None:
        assert cap is None or cap > 0
        self.data: dict = {}
        self.cap = cap
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        """Counted probe: move-to-end on hit, ``None`` on miss."""
        data = self.data
        val = data.get(key)
        if val is None:
            self.misses += 1
            return None
        self.hits += 1
        del data[key]          # move-to-end: re-insertion refreshes recency
        data[key] = val
        return val

    def peek(self, key):
        """Uncounted, recency-neutral lookup."""
        return self.data.get(key)

    def put(self, key, value) -> None:
        data = self.data
        if key in data:
            del data[key]
        elif self.cap is not None and len(data) >= self.cap:
            del data[next(iter(data))]   # least recently used
            self.evictions += 1
        data[key] = value

    def __contains__(self, key) -> bool:
        return key in self.data

    def __len__(self) -> int:
        return len(self.data)

    def clear(self) -> None:
        self.data.clear()

    def info(self) -> dict:
        return {"size": len(self.data), "cap": self.cap,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


class KernelHistory:
    """Bounded ring buffer of per-launch :class:`KernelStats`.

    ``Machine.history`` used to be an unbounded list -- a memory leak on
    long-lived serving runs (the E9 adversarial workload appends ~47
    entries per update).  The ring keeps the most recent ``cap`` entries
    and counts what it dropped; per-update aggregation no longer reads the
    history at all (see :meth:`Machine.window_begin`), so the default cap
    only affects diagnostics.  Analysis scripts that attribute work by
    label over a whole run opt in to an unbounded log via
    ``set_cap(None)`` *before* running their workload.
    """

    __slots__ = ("_data", "dropped")

    def __init__(self, cap: Optional[int] = 512) -> None:
        self._data: deque = deque(maxlen=cap)
        self.dropped = 0

    @property
    def cap(self) -> Optional[int]:
        return self._data.maxlen

    def set_cap(self, cap: Optional[int]) -> None:
        """Re-bound the ring (``None`` = unbounded opt-in), keeping the
        newest entries that fit."""
        self._data = deque(self._data, maxlen=cap)

    def append(self, stats: "KernelStats") -> None:
        data = self._data
        if data.maxlen is not None and len(data) == data.maxlen:
            self.dropped += 1
        data.append(stats)

    def clear(self) -> None:
        self._data.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator["KernelStats"]:
        return iter(self._data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self._data)[i]
        return self._data[i]

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<KernelHistory len={len(self._data)} cap={self.cap} "
                f"dropped={self.dropped}>")


class _PausedMachine:
    """Cached re-entrant accounting-suspension context manager.

    Module-level for the same reason as ``repro.analysis.counters._Paused``:
    defining the class inside :meth:`Machine.paused` burned one
    ``__build_class__`` per lazily-materialized vertex.
    """

    __slots__ = ("_machine",)

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine

    def __enter__(self) -> None:
        self._machine._paused += 1

    def __exit__(self, *exc) -> bool:
        self._machine._paused -= 1
        return False


class Machine:
    """Lockstep PRAM with EREW/CREW conflict policies.

    Parameters
    ----------
    mode:
        ``"erew"`` (default) raises/records on any same-step shared cell;
        ``"crew"`` permits concurrent reads (used by experiment E4 to show
        which kernels *need* the paper's EREW-specific machinery).
    audit:
        ``"strict"`` (default), ``"count"`` or ``"fast"`` (see the module
        docstring's *Audit ladder*).
    impl:
        step-loop implementation: ``"onepass"`` (default, fused
        interned-address loop) or ``"reference"`` (the retained four-pass
        oracle loop).  Both are fully checked.
    history_cap:
        ring-buffer capacity of :attr:`history` (``None`` = unbounded,
        the legacy behaviour; the default bounds a long serving run's
        memory).  Adjustable later via ``machine.history.set_cap``.
    shaped_cache_cap:
        LRU bound of the trace-plan cache (see :meth:`cache_info`).
    """

    def __init__(self, mode: str = "erew", audit: str = "strict",
                 impl: str = "onepass", *,
                 history_cap: Optional[int] = 512,
                 shaped_cache_cap: Optional[int] = 4096) -> None:
        # raised (not asserted): public entry-point validation must survive
        # `python -O`
        if mode not in ("erew", "crew"):
            raise ValueError(f"mode must be 'erew' or 'crew', got {mode!r}")
        if audit not in ("strict", "count", "fast"):
            raise ValueError(
                f"audit must be 'strict', 'count' or 'fast', got {audit!r}")
        if impl not in ("onepass", "reference"):
            raise ValueError(
                f"impl must be 'onepass' or 'reference', got {impl!r}")
        self.mem = Mem()
        self.mode = mode
        self.audit = audit
        self.impl = impl
        #: violations raise (strict and fast)
        self.strict = audit != "count"
        self.total = KernelStats(label="total")
        #: bounded ring of per-launch/charge stats (diagnostics only --
        #: per-update aggregation uses the window API below)
        self.history = KernelHistory(history_cap)
        #: open measurement window (see `window_begin`); accounted charges
        #: also fold into it so per-update aggregation is O(1) per charge
        self._window: Optional[KernelStats] = None
        self._trace: Optional[Callable[[int, int, Any], None]] = None
        self._paused = 0  # suspended analytic accounting (see `paused`)
        self._paused_cm: Optional[_PausedMachine] = None  # cached CM
        #: kernel-supplied shape key -> :class:`TracePlan` of a
        #: fully-checked clean launch (bounded LRU; see `run_recorded`)
        self._shaped = _LRU(shaped_cache_cap)
        self.fast_hits = 0    # plan replays (simulation skipped)
        self.fast_misses = 0  # recording launches (plan compiled)

    # -- audit ladder ---------------------------------------------------------

    def set_audit(self, audit: str) -> None:
        """Switch the audit level in place (the recovery degrade ladder).

        ``repro.resilience.recover`` moves a machine whose replay plans
        were found corrupted to ``strict``, so later launches simulate
        instead of replaying a poisoned plan.
        Also usable to re-promote after the plans were purged.
        """
        if audit not in ("strict", "count", "fast"):
            raise ValueError(
                f"audit must be 'strict', 'count' or 'fast', got {audit!r}")
        self.audit = audit
        self.strict = audit != "count"

    def purge_replay_caches(self) -> int:
        """Drop every compiled plan; returns how many were dropped.

        The recovery ladder's evict-and-re-record primitive: after a purge
        the next sighting of each shape runs fully checked and re-records
        from scratch.
        """
        dropped = len(self._shaped)
        self._shaped.clear()
        return dropped

    # -- accounting suspension ------------------------------------------------

    def paused(self):
        """Context manager suspending :meth:`charge` /
        :meth:`sequential_charge` accounting.

        Used by the engines when *lazily materializing* structures whose
        construction cost the seed attributed to ``__init__`` (outside any
        per-update measurement window): pausing keeps per-update
        depth/work identical whether a vertex was built eagerly or on
        first touch.  The context manager is a cached module-level
        instance (``_PausedMachine``): the old per-call class definition
        showed up as runtime ``__build_class__`` churn in the E9 profile.
        """
        cm = self._paused_cm
        if cm is None:
            cm = self._paused_cm = _PausedMachine(self)
        return cm

    # -- warm reuse -----------------------------------------------------------

    def reset_stats(self) -> None:
        """Return the machine to its post-construction accounting state.

        Benchmarks that rebuild an engine on a used machine (to measure
        the warm replay tier) call this first.  It clears everything a
        fresh machine would start without -- totals, history, and the
        memory's registrations and scratch registers (:meth:`Mem.clear`,
        the same call that closes every engine update) -- while *keeping*
        the audit="fast" plan cache (``_shaped``): plans are keyed by
        value shapes, never by host objects, and the replay tier's
        guarantee is exactly that a hit charges bit-identical stats to a
        fully simulated launch.
        """
        self.mem.clear()
        self.total = KernelStats(label="total")
        self.history.clear()
        self._window = None
        self._paused = 0
        self.fast_hits = 0
        self.fast_misses = 0

    # -- accounting ----------------------------------------------------------

    def _account(self, stats: KernelStats) -> None:
        """Single funnel for every charge: totals, open window, history.

        Folding into the open window here (sequential composition, exactly
        like :attr:`total`) is what lets per-update measurement drop its
        dependence on an unbounded history: the engine no longer slices
        ``history[mark:]`` -- it opens a window, and every launch/charge
        lands in it as it happens.  The :meth:`KernelStats.add` arithmetic
        is inlined: this funnel runs for every charge and every replay hit.
        """
        depth, work = stats.depth, stats.work
        procs = stats.processors
        launches, violations = stats.launches, stats.violations
        t = self.total
        t.depth += depth
        t.work += work
        if procs > t.processors:
            t.processors = procs
        t.launches += launches
        t.violations += violations
        w = self._window
        if w is not None:
            w.depth += depth
            w.work += work
            if procs > w.processors:
                w.processors = procs
            w.launches += launches
            w.violations += violations
        self.history.append(stats)

    def window_begin(self, label: str = "") -> KernelStats:
        """Open a measurement window; subsequent charges fold into it.

        Windows exist because ``processors`` composes by *max*, so a
        window's stats cannot be recovered by diffing totals.  One window
        is open at a time (the engines measure at the top-level public
        call only).
        """
        w = KernelStats(label=label)
        self._window = w
        return w

    def window_end(self, window: KernelStats) -> KernelStats:
        """Close ``window`` (a no-op if another window replaced it)."""
        if self._window is window:
            self._window = None
        return window

    def cache_info(self) -> dict:
        """Telemetry snapshot of the plan cache, history and memory.

        Production-shaped observability for long-lived serving runs:
        bounded-cache pressure (hit/miss/eviction), history-ring drops,
        and interned-memory size, in one dict.
        """
        return {
            "shaped": self._shaped.info(),
            "history": {"len": len(self.history),
                        "cap": self.history.cap,
                        "dropped": self.history.dropped},
            "memory": self.mem.stats(),
            "fast_hits": self.fast_hits,
            "fast_misses": self.fast_misses,
        }

    # -- kernel execution -----------------------------------------------------

    def run(self, programs: Iterable[Program], label: str = "",
            mode: Optional[str] = None) -> KernelStats:
        """Execute programs in lockstep until all complete.

        ``mode`` overrides the machine's conflict policy for this kernel
        only; the parallel MWR verification runs its membership reads under
        ``"crew"`` and the engine charges the standard CREW->EREW simulation
        factor (JaJa [12]) on top, exactly as the paper does in Lemma 3.3.
        """
        policy = self.mode if mode is None else mode
        assert policy in ("erew", "crew")
        live, pending = _start(programs)
        stats = KernelStats(label=label, launches=1)
        if self.impl == "reference":
            self._run_reference(live, pending, policy, stats)
        else:
            self._run_checked(live, pending, policy, stats,
                              raise_on_conflict=self.strict)
        self._account(stats)
        return stats

    # -- trace-replay tier (audit = "fast" only) ------------------------------

    def replay_plan(self, key: tuple) -> Optional[TracePlan]:
        """The compiled :class:`TracePlan` for ``key``, or ``None``.

        ``None`` outside ``audit="fast"`` (the replay tier never engages
        for strict/count machines -- they simulate every launch) and on a
        cache miss (the caller then records via :meth:`run_recorded`).
        Counts an LRU hit or miss on the plan cache.
        """
        if self.audit != "fast":
            return None
        plan = self._shaped.get(key)
        if _faults.armed and plan is not None:
            _faults.fire("pram.plan", plan=plan, key=key, machine=self)
        return plan

    def run_recorded(self, key: tuple, programs: Iterable[Program],
                     label: str = "", mode: Optional[str] = None,
                     n_effects: Optional[int] = None, *,
                     account: bool = True) -> KernelStats:
        """Fully checked launch that *compiles a replay plan* under a key.

        Runs ``programs`` with strict conflict checking (violations raise,
        regardless of the audit level) and, when the launch is clean,
        caches a :class:`TracePlan` -- measured stats, per-step op-count
        fingerprint, and the kernel-declared number of semantically
        visible effects -- under ``key`` so later launches of the same
        shape can take the :meth:`replay_plan` / :meth:`replay` bypass.
        Counts as a ``fast_miss``.

        ``account=False`` records a *segment* of a composed launch (see
        *Composed plans* in the module docstring): the plan is compiled
        but nothing is charged and no ``fast_miss`` is counted, because
        :meth:`run_composed` charges the whole launch once.
        """
        policy = self.mode if mode is None else mode
        assert policy in ("erew", "crew")
        live, pending = _start(programs)
        stats = KernelStats(label=label, launches=1)
        fingerprint: list[int] = []
        self._run_checked(live, pending, policy, stats,
                          raise_on_conflict=True, fingerprint=fingerprint)
        if stats.violations == 0:
            self._shaped.put(key, TracePlan(
                key, label, stats.depth, stats.work, stats.processors,
                tuple(fingerprint), n_effects))
        if account:
            self.fast_misses += 1
            self._account(stats)
        return stats

    def run_composed(self, key: tuple, parts: Sequence[TracePlan],
                     label: str = "", n_effects: Optional[int] = None,
                     part_effects: Optional[int] = None) -> KernelStats:
        """Compile and charge one launch made of recorded segments.

        ``parts`` are the segment plans in launch order; the launch runs
        them back to back (see *Composed plans* in the module docstring
        for why their EREW proofs prove it).  Each part's recorded effect
        count is cross-checked against ``part_effects``.  The composed
        plan is cached under ``key`` with the concatenated fingerprint,
        and its depth / work / processors are recomputed from that
        fingerprint.  Charged once, as one launch; counts as a
        ``fast_miss`` like the :meth:`run_recorded` launch it replaces.
        """
        for part in parts:
            self._check_effects(part, part_effects)
        fingerprint = tuple(chain.from_iterable(p.fingerprint
                                                for p in parts))
        depth, work, processors = fingerprint_stats(fingerprint)
        self._shaped.put(key, TracePlan(key, label, depth, work, processors,
                                        fingerprint, n_effects))
        self.fast_misses += 1
        stats = KernelStats(depth=depth, work=work, processors=processors,
                            launches=1, label=label)
        self._account(stats)
        return stats

    def peek_plan(self, key: tuple) -> Optional[TracePlan]:
        """The plan cached under ``key``, or ``None``: an uncounted,
        recency-neutral lookup that fires no fault site (a composing
        kernel fetches the segment plan it has just recorded)."""
        return self._shaped.peek(key)

    def replay(self, plan: TracePlan, label: str = "",
               n_effects: Optional[int] = None) -> KernelStats:
        """Charge a compiled plan's stats (a verified replay hit).

        The caller must have applied the kernel's direct host equivalent
        -- only data-dependent values and buffered writes were evaluated;
        no generator resumption, no per-op conflict re-checking.  The
        stats charged are exactly those measured by the plan's recording
        launch, so depth / work / processors are bit-identical to what
        strict simulation would report -- the invariant the differential
        suite pins down.  ``n_effects`` (when both sides declare one) is
        cross-checked against the recording launch to catch shape-key
        collisions between launches with different write sets.
        """
        self._check_effects(plan, n_effects)
        stats = KernelStats(depth=plan.depth, work=plan.work,
                            processors=plan.processors,
                            launches=1, label=label or plan.label)
        self.fast_hits += 1
        self._account(stats)
        return stats

    @staticmethod
    def _check_effects(plan: TracePlan, n_effects: Optional[int]) -> None:
        """Raise when a kernel's declared effect count disagrees with the
        plan's recording launch (a shape-key collision)."""
        if (n_effects is not None and plan.n_effects is not None
                and n_effects != plan.n_effects):
            raise RuntimeError(
                f"replay effect-count mismatch for key {plan.key!r}: "
                f"plan recorded {plan.n_effects}, kernel applied "
                f"{n_effects} -- shape key is not a pure function of the "
                f"memory effects")

    def charge_shaped(self, key: tuple, label: str = "") -> KernelStats:
        """Replay the recorded plan of ``key`` without an effect check.

        An uncounted-probe spelling of :meth:`replay` for callers that
        already hold a recorded key.
        """
        return self.replay(self.peek_plan(key), label)

    # -- one-pass checked loop -------------------------------------------------

    def _run_checked(self, live: dict, pending: dict, policy: str,
                     stats: KernelStats, *, raise_on_conflict: bool,
                     fingerprint: Optional[list[int]] = None) -> None:
        """Fused step loop: intern + conflict-check + read + buffered write
        + resume, one pass over the pending ops per step.

        Reads observe pre-step memory because writes are buffered and
        applied only after the whole step's ops were scanned.  Mutates
        ``stats`` in place; ``fingerprint``, when given, receives the
        packed per-step op counts :meth:`run_recorded` compiles into a
        plan.  Interned cell ids are launch-scoped: the tables are emptied
        when the launch ends, after any violation report has named its
        cell.
        """
        mem = self.mem
        try:
            intern = mem.intern
            intern_get = mem._intern.get
            cells = mem._cells
            write_interned = mem.write_interned
            crew = policy == "crew"
            step = 0
            work = 0
            violations = 0
            max_live = 0
            results: dict[int, Any] = {}
            writes: list = []
            touched: dict[int, int] = {}
            touched_get = touched.get
            while live:
                nlive = len(live)
                if nlive > max_live:
                    max_live = nlive
                step += 1
                results.clear()
                writes.clear()
                touched.clear()
                conflicted: list[int] = []
                nr = nw = 0
                for pid, op in pending.items():
                    tag = op.tag if op.__class__ in _OP_CLASSES else \
                        self._bad_op(pid, op)
                    if tag == _TAG_NOP:
                        continue
                    addr = op.addr
                    aid = intern_get(addr)
                    if aid is None:
                        aid = intern(addr)
                    prev = touched_get(aid)
                    if prev is None:
                        touched[aid] = tag
                    elif prev & _FLAG_CONFLICT:
                        pass  # already recorded for this step
                    elif crew and prev == _TAG_READ and tag == _TAG_READ:
                        pass  # concurrent reads are legal under CREW
                    else:
                        touched[aid] = prev | _FLAG_CONFLICT
                        conflicted.append(aid)
                    work += 1
                    if tag == _TAG_READ:
                        nr += 1
                        cell = cells[aid]
                        kind = cell[0]
                        if kind == 1:      # idx: registered sequence element
                            results[pid] = cell[1][cell[2]]
                        elif kind == 0:    # attr: host-object attribute
                            results[pid] = getattr(cell[1], cell[2])
                        else:              # reg: machine scratch register
                            results[pid] = cell[1].get(cell[2])
                    else:
                        nw += 1
                        writes.append((aid, op.value))
                if conflicted:
                    violations += len(conflicted)
                    if raise_on_conflict:
                        self._raise_violation(step, conflicted[0], pending)
                if fingerprint is not None:
                    fingerprint.append((nlive << 42) | (nr << 21) | nw)
                for aid, value in writes:
                    write_interned(aid, value)
                if _faults.armed:  # between-steps memory corruption site
                    _faults.fire("pram.cell", mem=mem, step=step)
                self._resume(step, live, pending, results)
            stats.depth = step
            stats.work = work
            stats.processors = max_live
            stats.violations = violations
        finally:
            mem.end_launch()

    # -- retained reference loop (differential oracle) ------------------------

    def _run_reference(self, live: dict, pending: dict, policy: str,
                       stats: KernelStats) -> None:
        """The original four-pass step loop, kept as the semantics oracle.

        classify -> conflict-scan -> read -> write -> resume, exactly as
        the seed implemented it; `tests/pram/test_machine_fastpath.py`
        diffs its :class:`KernelStats` against the one-pass loop.
        """
        step = 0
        while live:
            stats.processors = max(stats.processors, len(live))
            step += 1
            # 1-2. conflict detection over this step's ops
            touched: dict[tuple, list[tuple[int, str]]] = {}
            for pid, op in pending.items():
                if isinstance(op, Read):
                    touched.setdefault(op.addr, []).append((pid, "read"))
                elif isinstance(op, Write):
                    touched.setdefault(op.addr, []).append((pid, "write"))
                elif not isinstance(op, Nop):
                    raise TypeError(f"processor {pid} yielded {op!r}")
            for addr, users in touched.items():
                if len(users) < 2:
                    continue
                kinds = [k for _, k in users]
                if policy == "crew" and all(k == "read" for k in kinds):
                    continue
                stats.violations += 1
                if self.strict:
                    raise ErewViolation(step, addr, [p for p, _ in users],
                                        kinds,
                                        cell_name=self.mem.describe(addr))
            # 3. reads before writes
            results: dict[int, Any] = {}
            for pid, op in pending.items():
                if isinstance(op, Read):
                    results[pid] = self.mem.read(op.addr)
                    stats.work += 1
                elif isinstance(op, Write):
                    stats.work += 1
            for pid, op in pending.items():
                if isinstance(op, Write):
                    self.mem.write(op.addr, op.value)
            # 4. resume
            self._resume(step, live, pending, results)
        stats.depth = step

    # -- shared plumbing -------------------------------------------------------

    def _resume(self, step: int, live: dict, pending: dict,
                results: dict) -> None:
        """Resume every live generator with its read result."""
        trace = self._trace
        if trace is not None:
            for pid in live:
                trace(step, pid, pending[pid])
        done: list[int] = []
        get = results.get
        for pid, prog in live.items():
            try:
                pending[pid] = prog.send(get(pid))
            except StopIteration:
                done.append(pid)
        for pid in done:
            del live[pid]
            del pending[pid]

    def _bad_op(self, pid: int, op: Any) -> int:
        raise TypeError(f"processor {pid} yielded {op!r}")

    def _raise_violation(self, step: int, aid: int, pending: dict) -> None:
        """Reconstruct the full (procs, kinds) detail for cell ``aid``."""
        addr = self.mem.address_of(aid)
        procs: list[int] = []
        kinds: list[str] = []
        for pid, op in pending.items():
            tag = getattr(op, "tag", _TAG_NOP)
            if tag != _TAG_NOP and self.mem.intern(op.addr) == aid:
                procs.append(pid)
                kinds.append("read" if tag == _TAG_READ else "write")
        raise ErewViolation(step, addr, procs, kinds,
                            cell_name=self.mem.describe(addr))

    # -- sequential glue -------------------------------------------------------

    def sequential_charge(self, steps: int, label: str = "seq") -> KernelStats:
        """Charge `steps` depth/work for O(1)/O(log n) work done by p_1.

        The paper's update algorithms interleave parallel kernels with short
        sequential sections executed by one processor (e.g. the O(log n)
        link-cut query, Lemma 2.1's O(1) surgery decisions).  Those run as
        ordinary host code; callers account for them explicitly here so the
        reported depth/work include them.
        """
        if self._paused:
            return KernelStats(label=label)
        stats = KernelStats(depth=steps, work=steps, processors=1,
                            launches=0, label=label)
        self._account(stats)
        return stats

    def charge(self, depth: int, work: int, processors: int = 1,
               label: str = "charge") -> KernelStats:
        """Analytic cost for a phase modelled rather than simulated.

        Used for structural plumbing whose PRAM implementation is standard
        and cited by the paper (2-3 tree splits/joins by ``p_1``, the
        restamp of chunk ids with K processors, the CREW->EREW conversion
        factor); DESIGN.md lists every analytic charge site.  Charges made
        inside a :meth:`paused` block (lazy structure materialization) are
        dropped, mirroring the seed's attribution of construction cost to
        ``__init__``.
        """
        if self._paused:
            return KernelStats(label=label)
        stats = KernelStats(depth=depth, work=work, processors=processors,
                            launches=0, label=label)
        self._account(stats)
        return stats


_OP_CLASSES = frozenset((Read, Write, Nop))


def _start(programs: Iterable[Program]) -> tuple[dict, dict]:
    """Prime every program to its first op: ``(live, pending)`` by pid."""
    live: dict[int, Program] = {}
    pending: dict[int, Any] = {}
    for pid, prog in enumerate(programs):
        try:
            pending[pid] = next(prog)
            live[pid] = prog
        except StopIteration:
            pass
    return live, pending
