"""Columnar partition representation: per-column buffers, not row dicts.

Every hot path in the engine historically iterated Python dict rows —
one heap-allocated ``dict`` per record, one boxed object per field.
``ColumnarPartition`` stores a partition column-major instead:

* a column is the buffer its builder hands in — a numpy array
  (``numpy_column`` is then zero-copy), an ``array.array``, or a plain
  object list for dates, strings and None-bearing columns; a 2-D numpy
  buffer is a column of fixed-width vectors, boxed as one tuple per
  row;
* ``slice()`` is zero-copy for numpy-backed columns (views) and
  buffer-protocol cheap for ``array`` columns (``memoryview`` slices);
* the row adapters (``iter_rows`` / ``__iter__`` / ``__getitem__``)
  box dicts lazily, so row-oriented operators keep working unchanged
  and pay for boxing only when a row is actually materialized.

A ``ColumnarPartition`` deliberately quacks like ``Sequence[Row]``
(``len``, ``bool``, iteration, int/slice indexing) so it can be handed
to any ``map_batch`` kernel or ``map_partitions`` function written
against row sequences; kernels that know about columns call
``column``/``numpy_column`` and skip boxing entirely (see
``repro.core.batch.column_values``).
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

try:  # optional acceleration: everything works on array/memoryview alone
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

Row = Dict[str, Any]

#: narrowest table gathered in one pass; see :func:`gather_columns`.
_ONE_PASS_MIN_WIDTH = 8


def gather_columns(rows: Sequence[Row], names: Sequence[Any]) -> List[list]:
    """One value list per name, gathered from dict rows at C level.

    A wide table is read in one pass: ``itemgetter(*names)`` pulls a
    row's values as one tuple, the tuples are chained into one flat
    list and every column is a stride of it, so each dict is visited
    once (3.8 vs 6.6 ms for 10 000 x 14 ``lineitem`` rows against one
    pass per column).  The tuple per row is a fixed cost that a narrow
    table does not earn back (0.9 vs 0.4 ms for 8 000 x 2 ``points``
    rows; the two meet between 6 and 8 columns), so below
    ``_ONE_PASS_MIN_WIDTH`` each column is its own ``itemgetter`` pass
    — which a one-column table needs anyway: ``itemgetter`` with one
    key returns the bare value, and ``chain`` would iterate it (a str
    character by character).  A row lacking one of ``names`` raises
    ``KeyError``.
    """
    width = len(names)
    if width < _ONE_PASS_MIN_WIDTH:
        return [list(map(itemgetter(name), rows)) for name in names]
    flat = list(chain.from_iterable(map(itemgetter(*names), rows)))
    return [flat[j::width] for j in range(width)]


def _buffer_length(buf: Any) -> int:
    return len(buf)


class ColumnarPartition:
    """One partition stored column-major.

    Attributes:
        names: column names, in stable (first-row) order.
    """

    __slots__ = ("_columns", "names", "_length")

    def __init__(self, columns: Dict[str, Any], length: Optional[int] = None,
                 names: Optional[Sequence[str]] = None):
        self._columns = dict(columns)
        self.names: Tuple[str, ...] = tuple(
            names if names is not None else columns.keys()
        )
        if length is None:
            length = (
                _buffer_length(next(iter(columns.values())))
                if columns else 0
            )
        self._length = int(length)
        for name in self.names:
            if _buffer_length(self._columns[name]) != self._length:
                raise ValueError(
                    f"column {name!r} has "
                    f"{_buffer_length(self._columns[name])} values, "
                    f"expected {self._length}"
                )

    # ------------------------------------------------------------------
    # Column access (no boxing)
    # ------------------------------------------------------------------

    def column(self, name: str) -> Any:
        """The raw buffer of one column (array/ndarray/list)."""
        return self._columns[name]

    def numpy_column(self, name: str):
        """A numpy view of one column (zero-copy for typed buffers).

        Object columns come back as ``dtype=object`` arrays; raises
        ``RuntimeError`` when numpy is unavailable.
        """
        if _np is None:  # pragma: no cover - numpy is present in CI
            raise RuntimeError("numpy is not available")
        buf = self._columns[name]
        if isinstance(buf, _np.ndarray):
            return buf
        if isinstance(buf, array):
            return _np.frombuffer(buf, dtype=buf.typecode)
        out = _np.empty(self._length, dtype=object)
        out[:] = buf
        return out

    # ------------------------------------------------------------------
    # Structural operations (zero- or single-copy, never per-row)
    # ------------------------------------------------------------------

    def slice(self, start: int, stop: int) -> "ColumnarPartition":
        """Rows ``[start, stop)`` — numpy columns are zero-copy views."""
        start, stop, _ = slice(start, stop).indices(self._length)
        columns = {
            name: buf[start:stop] for name, buf in self._columns.items()
        }
        return ColumnarPartition(
            columns, length=max(0, stop - start), names=self.names,
        )

    def take(self, indices: Sequence[int]) -> "ColumnarPartition":
        """Sub-partition at ``indices`` (order preserved)."""
        idx = list(indices)
        columns = {}
        for name, buf in self._columns.items():
            if _np is not None and isinstance(buf, _np.ndarray):
                columns[name] = buf[_np.asarray(idx, dtype=int)]
            else:
                columns[name] = type(buf)(
                    buf.typecode, [buf[i] for i in idx]
                ) if isinstance(buf, array) else [buf[i] for i in idx]
        return ColumnarPartition(columns, length=len(idx), names=self.names)

    # ------------------------------------------------------------------
    # Row adapters (boxing happens here, lazily, and nowhere else)
    # ------------------------------------------------------------------

    def iter_rows(self) -> Iterator[Row]:
        """Yield dict rows; the adapter row-oriented operators consume."""
        names = self.names
        columns = [_python_values(self._columns[n]) for n in names]
        for values in zip(*columns):
            yield dict(zip(names, values))
        if not names:  # zero columns still yields len() empty rows
            for _ in range(self._length):
                yield {}

    def row(self, index: int) -> Row:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return {
            name: _python_values(self._columns[name][index:index + 1])[0]
            for name in self.names
        }

    # ------------------------------------------------------------------
    # Sequence protocol — quacks like Sequence[Row]
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Row]:
        return self.iter_rows()

    def __getitem__(self, item):
        if isinstance(item, slice):
            if item.step not in (None, 1):
                indices = range(*item.indices(self._length))
                return self.take(list(indices))
            start, stop, _ = item.indices(self._length)
            return self.slice(start, stop)
        return self.row(int(item))

    def __repr__(self) -> str:
        return (
            f"<ColumnarPartition rows={self._length} "
            f"columns={list(self.names)!r}>"
        )


def _python_values(buf: Any) -> Any:
    """A column's values as the Python objects rows are boxed from.

    numpy scalars become Python numbers (one ``tolist`` per column, not
    one ``item`` per value); a row of a 2-D column becomes a tuple.
    """
    if _np is not None and isinstance(buf, _np.ndarray):
        values = buf.tolist()
        return list(map(tuple, values)) if buf.ndim > 1 else values
    return buf
