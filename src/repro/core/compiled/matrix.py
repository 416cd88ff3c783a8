"""Flat float64 twin of the chunk-adjacency object matrix.

``CompiledMatrix`` is the one mirror ``backend="compiled"`` maintains
of the authoritative ``space.C`` object matrix: the native kernels
traverse it without boxing.  The store is a single row-major
``bytearray`` of interleaved ``(weight, eid)`` float64 pairs -- entry
``(i, j)`` lives at double offset ``2 * (i * Jcap + j)`` -- because the
C side reads it with one macro (``PyByteArray_AS_STRING``) instead of a
buffer acquisition per call.

Key encoding: a ``(weight, eid)`` key is stored as two float64s (edge
ids are < 2**53 so the round trip is exact), ``INF_KEY`` as
``(inf, inf)``.  ``verify_against`` rechecks the mirror entrywise
against the object matrix; the resilience layer points it at the
``compiled.kernel`` fault site.
"""

from __future__ import annotations

from . import kernels

_INF = float("inf")


class CompiledMatrix:
    """Row-major float64 mirror of the ``(weight, eid)`` object matrix."""

    __slots__ = ("Jcap", "buf")

    def __init__(self, Jcap: int) -> None:
        self.Jcap = Jcap
        self.buf = bytearray(16 * Jcap * Jcap)
        kernels.fill_keys(self.buf, 0, Jcap * Jcap, _INF, _INF)

    # ------------------------------------------------------- maintenance

    def write_lanes(self, cid: int, lanes, row) -> None:
        """Write ``row[j]`` at ``(cid, j)`` and ``(j, cid)`` for each lane
        ``j`` of ``lanes`` (``row`` is the object row ``C[cid]``)."""
        kernels.write_lanes(self.buf, self.Jcap, cid, lanes, row)

    def set_entry(self, i: int, j: int, key: tuple) -> None:
        kernels.set_entry(self.buf, self.Jcap, i, j, key[0], key[1])

    # ------------------------------------------------------ verification

    def verify_against(self, C, max_findings: int = 5) -> list:
        """Entrywise recheck of the mirror against the object matrix.

        Returns human-readable findings (empty when consistent), capped
        at ``max_findings``, in the shape the resilience checks report.
        """
        out: list = []
        view = memoryview(self.buf).cast("d")
        for i in range(self.Jcap):
            base = 2 * i * self.Jcap
            row = C[i]
            for j in range(self.Jcap):
                key = row[j]
                w, e = view[base + 2 * j], view[base + 2 * j + 1]
                if w != key[0] or e != key[1]:
                    out.append(
                        f"compiled mirror C[{i},{j}] = ({w!r}, {e!r}) but "
                        f"authoritative key is {key!r}")
                    if len(out) >= max_findings:
                        return out
        return out
