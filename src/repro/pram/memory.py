"""Cell-addressed shared memory for the EREW PRAM simulator.

The simulator checks *exclusive* access at the granularity of memory cells.
A cell address is a hashable tuple naming either

* an attribute of a host Python object: ``("attr", obj, name)``, or
* an element of a registered sequence (list / numpy array):
  ``("idx", seq_id, index)``, or
* a machine register (scratch cell owned by the memory): ``("reg", name)``.

Reads and writes dispatch onto the *real* host objects, so PRAM kernels
mutate the very same chunk/LSDS/tournament structures the sequential code
uses -- the simulator is an instrumentation and legality layer, not a copy
of the state.  (Sequences must be registered because numpy arrays are not
hashable; objects are addressed by identity.)

Address interning
-----------------
The step loop of :class:`repro.pram.machine.Machine` touches millions of
cells per experiment (E4 alone processes >15M memory ops).  Hashing the
3-tuples above for conflict detection *and* re-dispatching ``addr[0]``
string comparisons for every read/write used to dominate the runtime, so
the memory now **interns** addresses: the first touch of a cell assigns it
a dense integer id and resolves its dispatch target once (for ``idx`` cells
the registered sequence object itself, so the per-access ``_seqs[sid]``
lookup disappears).  The hot loop then works on int ids:

* conflict detection keys its per-step table by the int id;
* :meth:`read_interned` / :meth:`write_interned` dispatch through a single
  list indexing instead of tuple destructuring.

Lifetimes
---------
Nothing here outlives the work that uses it, so the memory never pins a
dead host object:

* interned cells live for **one launch**: the machine empties ``_intern``,
  ``_cells`` and ``_addr_of`` when a checked launch ends (:meth:`end_launch`),
  so ids are dense per launch and cell tuples die young;
* sequence registrations and scratch registers live for **one update**:
  the engine calls :meth:`clear` when its top-level public update closes.
  Every kernel re-registers the sequences it addresses on each call, and
  scratch registers carry a fresh run id, so no address is meant to
  survive an update.

Interning is safe against ``id()`` reuse because ``register`` keeps a
strong reference to every registered sequence while it is registered, so no
distinct object can present the same ``seq_id`` within an update.

The tuple-level :meth:`read` / :meth:`write` API is unchanged (host code
and kernels still use it between launches).
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

__all__ = ["Mem", "attr", "idx"]

#: dispatch codes stored per interned cell
_KIND_ATTR = 0
_KIND_IDX = 1
_KIND_REG = 2


def attr(obj: Any, name: str) -> tuple:
    """Address of ``obj.name``."""
    return ("attr", obj, name)


def idx(seq_id: int, index: int) -> tuple:
    """Address of ``seq[index]`` for a sequence registered under ``seq_id``."""
    return ("idx", seq_id, index)


class Mem:
    """Shared memory: host-object dispatch plus scratch registers."""

    __slots__ = ("_seqs", "_regs", "_seq_names", "_intern", "_cells",
                 "_addr_of")

    def __init__(self) -> None:
        self._seqs: dict[int, Any] = {}
        self._regs: dict[Hashable, Any] = {}
        self._seq_names: dict[int, str] = {}
        #: address tuple -> dense cell id
        self._intern: dict[tuple, int] = {}
        #: cell id -> (kind, dispatch object, key)
        self._cells: list[tuple[int, Any, Any]] = []
        #: cell id -> original address tuple (for diagnostics)
        self._addr_of: list[tuple] = []

    # -- address constructors ------------------------------------------------

    def register(self, seq: Any, name: Optional[str] = None) -> int:
        """Register a list/array; returns the id used in ``idx`` addresses.

        ``name`` is an optional debug label surfaced by :meth:`describe`
        (and therefore by :class:`~repro.pram.machine.ErewViolation`
        messages) so violation reports identify the structure by role
        -- e.g. ``C_row[3]`` -- instead of an opaque sequence id.
        """
        sid = id(seq)
        self._seqs[sid] = seq
        if name is not None:
            self._seq_names[sid] = name
        return sid

    def cell(self, seq: Any, index: int) -> tuple:
        """Address of ``seq[index]``, registering ``seq`` if needed."""
        return idx(self.register(seq), index)

    def reg(self, name: Hashable) -> tuple:
        return ("reg", name)

    # -- interning -----------------------------------------------------------

    def intern(self, address: tuple) -> int:
        """Dense int id of ``address`` (assigned at first touch)."""
        aid = self._intern.get(address)
        if aid is not None:
            return aid
        kind = address[0]
        if kind == "attr":
            cell = (_KIND_ATTR, address[1], address[2])
        elif kind == "idx":
            cell = (_KIND_IDX, self._seqs[address[1]], address[2])
        elif kind == "reg":
            cell = (_KIND_REG, self._regs, address[1])
        else:
            raise ValueError(f"bad address {address!r}")
        aid = len(self._cells)
        self._intern[address] = aid
        self._cells.append(cell)
        self._addr_of.append(address)
        return aid

    def end_launch(self) -> None:
        """Forget every interned cell (cell ids are launch-scoped)."""
        self._intern.clear()
        self._cells.clear()
        self._addr_of.clear()

    def clear(self) -> None:
        """Drop registrations and scratch registers (the update scope).

        Also forgets interned cells, so a cleared memory is exactly a
        fresh one -- ``Machine.reset_stats`` and the per-update scope are
        one mechanism.
        """
        self._seqs.clear()
        self._regs.clear()
        self._seq_names.clear()
        self.end_launch()

    def address_of(self, aid: int) -> tuple:
        """The original address tuple of an interned cell id."""
        return self._addr_of[aid]

    def read_interned(self, aid: int) -> Any:
        kind, obj, key = self._cells[aid]
        if kind == _KIND_ATTR:
            return getattr(obj, key)
        if kind == _KIND_IDX:
            return obj[key]
        return obj.get(key)

    def write_interned(self, aid: int, value: Any) -> None:
        kind, obj, key = self._cells[aid]
        if kind == _KIND_ATTR:
            setattr(obj, key, value)
        else:  # idx and reg both dispatch through __setitem__
            obj[key] = value

    # -- access --------------------------------------------------------------

    def read(self, address: tuple) -> Any:
        kind = address[0]
        if kind == "attr":
            return getattr(address[1], address[2])
        if kind == "idx":
            return self._seqs[address[1]][address[2]]
        if kind == "reg":
            return self._regs.get(address[1])
        raise ValueError(f"bad address {address!r}")

    def write(self, address: tuple, value: Any) -> None:
        kind = address[0]
        if kind == "attr":
            setattr(address[1], address[2], value)
        elif kind == "idx":
            self._seqs[address[1]][address[2]] = value
        elif kind == "reg":
            self._regs[address[1]] = value
        else:
            raise ValueError(f"bad address {address!r}")

    # -- diagnostics ---------------------------------------------------------

    def check_interning(self) -> list[str]:
        """Scope check for the resilience tier: the memory must be empty.

        Runs between updates, where any interned cell, registration or
        scratch register outlived its scope and pins host objects, so it is
        reported with the three counts.  Returns a list of problem strings
        (empty = clean) -- the convention of :mod:`repro.resilience.checks`.
        """
        if self._cells or self._seqs or self._regs:
            return [f"mem: {len(self._cells)} cells, {len(self._seqs)} "
                    f"sequences and {len(self._regs)} registers outlived "
                    f"their update"]
        return []

    def stats(self) -> dict:
        """Size telemetry for :meth:`Machine.cache_info`.

        Interned cells and registered sequences pin host objects.  Cells
        are dropped at the end of every launch and registrations and
        registers at the end of every engine update (:meth:`clear`), so
        between updates all three counts read zero -- which is how the
        no-leak contract is observed in production.
        """
        return {"interned_cells": len(self._cells),
                "registered_seqs": len(self._seqs),
                "registers": len(self._regs)}

    def describe(self, address: tuple) -> str:
        """Human-readable cell name for violation reports."""
        kind = address[0]
        if kind == "attr":
            return f"attr({type(address[1]).__name__}.{address[2]})"
        if kind == "idx":
            name = self._seq_names.get(address[1])
            if name is None:
                name = f"seq#{address[1] % 9973}"
            return f"idx({name}[{address[2]}])"
        if kind == "reg":
            return f"reg({address[1]!r})"
        return repr(address)
