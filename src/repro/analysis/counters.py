"""Elementary-operation counters for the sequential cost experiments.

The paper's sequential bounds (Theorem 1.2, Lemmas 2.2-2.4) are stated in
elementary structure operations: pointer moves, array-entry reads/writes and
comparisons.  The engines charge those to an :class:`OpCounter`; vectorized
numpy operations are charged their *length* (the model cost), so measured
counts track the paper's accounting rather than CPython constant factors.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["OpCounter"]


class _Paused:
    """Reusable re-entrant context manager suspending a counter.

    Hoisted to module level: the old implementation defined this class
    *inside* :meth:`OpCounter.paused`, so every lazily-materialized vertex
    paid a ``__build_class__`` call -- over a thousand runtime class
    definitions per hundred updates in the E9 churn profile.  ``_paused``
    is a depth counter, so one shared instance per owner nests safely.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "OpCounter") -> None:
        self._owner = owner

    def __enter__(self) -> None:
        owner = self._owner
        owner._paused += 1
        stream = owner._stream
        if stream is not None:
            stream.pause()

    def __exit__(self, *exc) -> bool:
        owner = self._owner
        owner._paused -= 1
        stream = owner._stream
        if stream is not None:
            stream.resume()
        return False


class OpCounter:
    """Named operation counters with checkpointing for per-update costs."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        #: running sum of ``counts.values()``, so :attr:`total` is O(1)
        #: instead of a dict-wide sum.  ``counts`` is only ever mutated
        #: through ``charge``/``charge_many``/``reset``, which keep the two
        #: in lockstep.
        self._total: int = 0
        self._mark: int = 0
        self._paused: int = 0
        self._paused_cm = _Paused(self)
        #: optional batched charge accumulator (the compiled tier's C-side
        #: ChargeStream).  When attached, hot-path charges append to the
        #: stream and are folded into ``counts`` and the running sum at the
        #: next ``flush()``.  Draining is *lazy*: every read (``total``,
        #: ``grand_total``, ``mark``, ``since_mark``, ``breakdown``) flushes
        #: first, so the observed totals are exactly the per-op sums
        #: (int() per add, same labels, same amounts), only batched --
        #: readers must go through those accessors, never raw ``counts``,
        #: when a stream may be attached.
        self._stream = None

    def charge(self, name: str, amount: int = 1) -> None:
        if self._paused:
            return
        stream = self._stream
        if stream is not None:
            stream.add(name, amount)
            return
        amount = int(amount)
        self.counts[name] += amount
        self._total += amount

    def charge_many(self, pairs) -> None:
        """Fold a batch of ``(name, amount)`` charges in one call.

        Equivalent to ``charge(name, amount)`` per pair with accounting
        *unpaused*: callers (the flush path) accumulated each add under the
        pause discipline already, so pairs reaching here are owed in full.
        """
        counts = self.counts
        total = 0
        for name, amount in pairs:
            amount = int(amount)
            counts[name] += amount
            total += amount
        self._total += total

    def attach_stream(self, stream) -> None:
        """Route subsequent charges through a batched accumulator.

        ``stream`` must expose ``add(label, amount)``, ``pause()``,
        ``resume()`` and ``drain() -> [(label, total), ...]``.  Passing
        ``None`` detaches (flushing any pending charges first).
        """
        self.flush()
        self._stream = stream

    def flush(self) -> None:
        """Fold pending stream charges into ``counts`` and the running sum.

        Safe at any point: flushing only moves already-owed sums, so extra
        flushes never change totals.  Nothing flushes eagerly per update;
        every read (``total``/``grand_total``/``mark``/``since_mark``/
        ``breakdown``) flushes first, so it observes the same numbers the
        scalar per-op path would have produced.
        """
        stream = self._stream
        if stream is not None and len(stream):
            self.charge_many(stream.drain())

    @property
    def total(self) -> int:
        """Every charge so far, pending stream charges included."""
        self.flush()
        return self._total

    def grand_total(self) -> int:
        """The same read as :attr:`total`."""
        return self.total

    def paused(self) -> _Paused:
        """Context manager suspending accounting.

        Used when *lazily materializing* structures whose construction the
        eager engines attributed to ``__init__`` (outside any per-update
        measurement window): pausing keeps per-update deltas identical
        whether a vertex was built eagerly or on first touch.  Returns a
        cached re-entrant instance -- no allocation, no runtime class
        definition on the hot path.
        """
        return self._paused_cm

    def mark(self) -> None:
        """Start a per-operation measurement window."""
        self._mark = self.total

    def since_mark(self) -> int:
        return self.total - self._mark

    def breakdown(self) -> dict[str, int]:
        self.flush()
        return dict(sorted(self.counts.items(), key=lambda kv: -kv[1]))

    def reset(self) -> None:
        stream = self._stream
        if stream is not None:
            stream.clear()
        self.counts.clear()
        self._total = 0
        self._mark = 0
