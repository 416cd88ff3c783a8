"""Deterministic batch coalescing for the serving layer.

A pending batch is a list of buffered facade ops --
``("ins", eid, u, v, w)`` and ``("del", eid)`` -- in submission order.
:func:`coalesce` rewrites it into a *canonical* batch before any engine
is touched:

* an insert and a delete of the **same edge id** inside one batch
  annihilate (the edge never existed as far as the engines are
  concerned);
* duplicate deletes of one id collapse to a single delete;
* the surviving ops are emitted in a canonical, submission-independent
  order -- **deletes first** (ascending edge id), **then inserts**
  (ascending edge id).

Deletes-first keeps every engine's transient live-edge count bounded by
``max(before, after)``, so the degree reducers' gadget pools are never
stretched past their sizing by a large batch; and because the MSF of a
graph under the strict ``(weight, eid)`` order is *unique*, the final
forest is independent of the order in which independent updates land
(the differential tests in ``tests/serve`` pin this against naive
one-at-a-time application).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..resilience.errors import InvalidInputError, UnknownEdgeError

__all__ = ["CoalescedBatch", "coalesce"]


@dataclass(frozen=True)
class CoalescedBatch:
    """The canonical form of one update batch (see module docstring)."""

    #: surviving inserts as ``(eid, u, v, w)``, ascending eid
    inserts: tuple[tuple[int, int, int, float], ...]
    #: surviving deletes as edge ids, ascending
    deletes: tuple[int, ...]
    #: number of insert+delete pairs that annihilated
    cancelled: int
    #: number of redundant duplicate ops dropped
    deduped: int

    def __len__(self) -> int:
        return len(self.inserts) + len(self.deletes)

    @property
    def submitted(self) -> int:
        """How many raw ops the batch represents."""
        return len(self) + 2 * self.cancelled + self.deduped

    def ops(self) -> list[tuple]:
        """The canonical op stream for ``SparsifiedMSF.apply_batch``."""
        out: list[tuple] = [("del", eid) for eid in self.deletes]
        out.extend(("ins", eid, u, v, w) for eid, u, v, w in self.inserts)
        return out


def coalesce(pending: Sequence[tuple],
             known: Iterable[int] = ()) -> CoalescedBatch:
    """Coalesce buffered ops into a :class:`CoalescedBatch`.

    ``known`` is the set of edge ids live *before* the batch; a delete of
    an id that is neither known nor inserted by the batch raises
    ``KeyError`` (the serving front also guards this at submit time), and
    an insert of an id that is already known or inserted raises
    :class:`~repro.resilience.errors.InvalidInputError`.
    """
    known = set(known)
    inserts: dict[int, tuple[int, int, int, float]] = {}
    deletes: set[int] = set()
    cancelled = 0
    deduped = 0
    for op in pending:
        if op[0] == "ins":
            _t, eid, u, v, w = op
            if eid in inserts or eid in known:
                raise InvalidInputError(
                    f"duplicate insert of edge id {eid}")
            inserts[eid] = (eid, u, v, w)
        elif op[0] == "del":
            eid = op[1]
            if eid in inserts:          # insert->delete pair annihilates
                del inserts[eid]
                cancelled += 1
            elif eid in deletes:        # duplicate delete dedupes
                deduped += 1
            elif eid in known:
                deletes.add(eid)
            else:
                # structured error; still a KeyError subclass, so callers
                # guarding with `except KeyError` keep working
                raise UnknownEdgeError(eid)
        else:
            raise ValueError(f"unknown op tag {op[0]!r}")
    return CoalescedBatch(
        inserts=tuple(sorted(inserts.values())),
        deletes=tuple(sorted(deletes)),
        cancelled=cancelled,
        deduped=deduped,
    )
