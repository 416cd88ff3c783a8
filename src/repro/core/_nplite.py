"""A tiny pure-python stand-in for the numpy subset the scalar path uses.

The library treats numpy as an *optional* accelerator of the scalar
backend: every scalar-path module imports it as

    try:
        import numpy as np
    except ImportError:
        from . import _nplite as np

so a bare install still runs the full engine, bit-identical in results
and charged work -- only slower.  The shim therefore mirrors numpy's
semantics exactly where the callers rely on them:

* **stable row identity** -- ``C[i]`` returns the *same* :class:`PyArray`
  object every time (PRAM kernels address matrix cells as
  ``(row_view, column)`` and intern by identity);
* **live column views** -- ``C[:, j]`` writes through to the matrix and
  observes later row writes, like a numpy strided view;
* **elementwise comparisons** returning a vector with ``all()``/``any()``
  (arrays keep ``object.__hash__`` so they stay usable as dict keys);
* ``minimum``/``logical_or`` with ``out=``, ``where``, ``argmin`` with
  first-index tie-breaking, and ``nonzero`` over vectors and matrices.

Only what the scalar engine touches is implemented.
"""

from __future__ import annotations

from typing import Iterator, Optional

__all__ = [
    "PyArray", "ColumnView", "PyMatrix", "ndarray", "empty", "zeros",
    "minimum", "logical_or", "where", "argmin", "nonzero",
]

__version__ = "0 (repro._nplite fallback)"


class BoolVec:
    """Result of an elementwise comparison; quacks like a bool ndarray."""

    __slots__ = ("data",)

    def __init__(self, data: list) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[bool]:
        return iter(self.data)

    def __getitem__(self, i: int) -> bool:
        return self.data[i]

    def all(self) -> bool:
        return all(self.data)

    def any(self) -> bool:
        return any(self.data)


def _values(other) -> list:
    if isinstance(other, (PyArray, BoolVec)):
        return other.data
    if isinstance(other, ColumnView):
        return [row.data[other.j] for row in other.matrix.rows]
    if isinstance(other, (list, tuple)):
        return list(other)
    raise TypeError(f"cannot broadcast {type(other).__name__}")


class PyArray:
    """One-dimensional array backed by a plain python list."""

    __slots__ = ("data",)
    __hash__ = object.__hash__  # identity hashing, like numpy interning

    def __init__(self, data: list) -> None:
        self.data = data

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator:
        return iter(self.data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PyArray(self.data[i])
        return self.data[i]

    def __setitem__(self, i, value) -> None:
        if isinstance(i, slice):
            src = _values(value) if not isinstance(value, list) else value
            self.data[i] = list(src)
        else:
            self.data[i] = value

    # -- numpy-ish surface --------------------------------------------------
    def fill(self, value) -> None:
        d = self.data
        for i in range(len(d)):
            d[i] = value

    def copy(self) -> "PyArray":
        return PyArray(list(self.data))

    def tolist(self) -> list:
        return list(self.data)

    def sum(self):
        return sum(self.data)

    def __eq__(self, other) -> BoolVec:  # type: ignore[override]
        ov = _values(other)
        return BoolVec([a == b for a, b in zip(self.data, ov)])

    def __ne__(self, other) -> BoolVec:  # type: ignore[override]
        ov = _values(other)
        return BoolVec([a != b for a, b in zip(self.data, ov)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PyArray({self.data!r})"


class ColumnView:
    """Live view of column ``j`` of a :class:`PyMatrix` (write-through)."""

    __slots__ = ("matrix", "j")
    __hash__ = object.__hash__

    def __init__(self, matrix: "PyMatrix", j: int) -> None:
        self.matrix = matrix
        self.j = j

    def __len__(self) -> int:
        return len(self.matrix.rows)

    def __iter__(self) -> Iterator:
        j = self.j
        return (row.data[j] for row in self.matrix.rows)

    def __getitem__(self, i: int):
        return self.matrix.rows[i].data[self.j]

    def __setitem__(self, i: int, value) -> None:
        self.matrix.rows[i].data[self.j] = value

    def fill(self, value) -> None:
        j = self.j
        for row in self.matrix.rows:
            row.data[j] = value

    def copy(self) -> PyArray:
        return PyArray(list(self))

    def tolist(self) -> list:
        return list(self)

    def __eq__(self, other) -> BoolVec:  # type: ignore[override]
        ov = _values(other)
        return BoolVec([a == b for a, b in zip(self, ov)])

    def __ne__(self, other) -> BoolVec:  # type: ignore[override]
        ov = _values(other)
        return BoolVec([a != b for a, b in zip(self, ov)])


class BoolMatrix:
    """Elementwise comparison result over a matrix (for ``nonzero``)."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[list]) -> None:
        self.rows = rows

    def all(self) -> bool:
        return all(all(r) for r in self.rows)

    def any(self) -> bool:
        return any(any(r) for r in self.rows)


class PyMatrix:
    """Two-dimensional array with stable row objects and live columns."""

    __slots__ = ("rows", "shape")
    __hash__ = object.__hash__

    def __init__(self, nrows: int, ncols: int, fill=None) -> None:
        self.rows = [PyArray([fill] * ncols) for _ in range(nrows)]
        self.shape = (nrows, ncols)

    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            if isinstance(i, slice):         # C[:, j] -> live column view
                return ColumnView(self, j)
            if isinstance(j, slice):         # C[i, :] -> the stable row
                return self.rows[i]
            return self.rows[i].data[j]
        return self.rows[key]                # C[i] -> the stable row

    def __setitem__(self, key, value) -> None:
        if isinstance(key, tuple):
            i, j = key
            if isinstance(i, slice):         # C[:, j] = vector
                src = _values(value)
                for row, v in zip(self.rows, src):
                    row.data[j] = v
                return
            if isinstance(j, slice):         # C[i, :] = vector
                self.rows[i][:] = value
                return
            self.rows[i].data[j] = value
            return
        self.rows[key][:] = value

    def fill(self, value) -> None:
        for row in self.rows:
            row.fill(value)

    def __eq__(self, other) -> BoolMatrix:  # type: ignore[override]
        return BoolMatrix([[a == b for a, b in zip(ra.data, rb.data)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __ne__(self, other) -> BoolMatrix:  # type: ignore[override]
        return BoolMatrix([[a != b for a, b in zip(ra.data, rb.data)]
                           for ra, rb in zip(self.rows, other.rows)])


#: annotation alias (callers annotate ``np.ndarray`` under
#: ``from __future__ import annotations``, so this is never instantiated)
ndarray = PyArray


# -- constructors ----------------------------------------------------------

def _fill_for(dtype) -> object:
    if dtype is bool:
        return False
    if dtype is object or dtype is None:
        return None
    return 0


def empty(shape, dtype=None):
    if isinstance(shape, tuple):
        return PyMatrix(shape[0], shape[1], _fill_for(dtype))
    return PyArray([_fill_for(dtype)] * shape)


def zeros(shape, dtype=None):
    fill = False if dtype is bool else 0
    if isinstance(shape, tuple):
        return PyMatrix(shape[0], shape[1], fill)
    return PyArray([fill] * shape)


# -- ufunc subset ----------------------------------------------------------

def minimum(a, b, out: Optional[PyArray] = None) -> PyArray:
    av, bv = _values(a), _values(b)
    res = [x if x < y else y for x, y in zip(av, bv)]
    if out is None:
        return PyArray(res)
    out[:] = res
    return out


def logical_or(a, b, out: Optional[PyArray] = None) -> PyArray:
    av, bv = _values(a), _values(b)
    res = [bool(x) or bool(y) for x, y in zip(av, bv)]
    if out is None:
        return PyArray(res)
    out[:] = res
    return out


def where(cond, a, b) -> PyArray:
    cv, av, bv = _values(cond), _values(a), _values(b)
    return PyArray([x if c else y for c, x, y in zip(cv, av, bv)])


def argmin(a) -> int:
    it = iter(_values(a))
    best = next(it)
    best_i = 0
    for i, v in enumerate(it, start=1):
        if v < best:          # strict '<' keeps the first index on ties,
            best = v          # matching numpy's argmin contract
            best_i = i
    return best_i


def nonzero(a):
    if isinstance(a, BoolMatrix):
        ris: list[int] = []
        cis: list[int] = []
        for i, row in enumerate(a.rows):
            for j, v in enumerate(row):
                if v:
                    ris.append(i)
                    cis.append(j)
        return (ris, cis)
    return ([i for i, v in enumerate(_values(a)) if v],)
