"""Vectorized batch kernels shared by the built-in workloads.

The batched monoid protocol (:class:`repro.core.query.MapReduceQuery`)
defaults to looping over the scalar methods; this module supplies the
numpy kernels the hot paths actually run:

* :func:`leave_one_out` — the prefix/suffix fold trick as two cumulative
  sums, so all n "fold everything except element i" aggregates cost a
  few array passes instead of 2n Python-level combines;
* :class:`ScalarSumBatch` — a drop-in mixin implementing the whole
  batched protocol for any query whose monoid is scalar addition (the
  seven TPC-H queries, every sqlbridge-compiled COUNT/SUM, grouped
  per-group queries).

Kernel equivalence is a correctness surface, not a nicety: UPA's
released outputs flow through these folds, so the kernels reproduce the
*same association order* as the scalar path (``np.cumsum`` accumulates
sequentially, exactly like the Python prefix/suffix loops).  The
batched results are therefore bitwise-identical for sum monoids — the
golden-regression seeds do not move — and ``validate_monoid`` guards
the contract for third-party kernels.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from repro.core.query import Row
from repro.engine.columnar import object_column


def column_values(
    records: Sequence[Row], name: str, dtype: Any = float
) -> np.ndarray:
    """One column of a record batch as a numpy array.

    Handles both layouts a ``map_batch`` may receive: a batch with a
    ``numpy_column`` (:class:`~repro.engine.columnar.ColumnarPartition`,
    the session's :class:`~repro.core.sampling.RecordView`) hands back
    its column buffer directly (zero-copy for numeric columns — no
    per-row dict is ever built), while a plain row sequence — or a view
    answering None, it has no buffer for the column — gathers the field
    from each dict.  ``dtype=None`` keeps native values as an object
    array (dates, strings, ``None``-bearing columns).
    """
    column = getattr(records, "numpy_column", None)
    values = column(name) if column is not None else None
    if values is not None:
        if dtype is not None and values.dtype != np.dtype(dtype):
            values = values.astype(dtype)
        return values
    if dtype is None:
        return object_column(map(itemgetter(name), records), len(records))
    return np.asarray([record[name] for record in records], dtype=dtype)


def leave_one_out(stacked: np.ndarray) -> np.ndarray:
    """All-but-one sequential sums of ``stacked`` along axis 0.

    ``out[i] = fold(stacked minus row i)`` where the fold is the same
    left-to-right (prefix) and right-to-left (suffix) accumulation the
    scalar prefix/suffix loops perform, so results match them bitwise.
    """
    stacked = np.asarray(stacked)
    n = stacked.shape[0]
    if n == 0:
        return stacked.copy()
    zeros = np.zeros((1,) + stacked.shape[1:], dtype=stacked.dtype)
    forward = np.cumsum(stacked, axis=0)
    prefix = np.concatenate([zeros, forward[:-1]], axis=0)
    backward = np.cumsum(stacked[::-1], axis=0)[::-1]
    suffix = np.concatenate([backward[1:], zeros], axis=0)
    return prefix + suffix


def sequential_sum(stacked: np.ndarray, zero: Any) -> Any:
    """Fold a stacked batch along axis 0 in sequential (cumsum) order.

    ``np.sum`` uses pairwise accumulation, which is *not* bitwise equal
    to the scalar fold; ``np.cumsum`` is, and the last entry is the
    full fold.
    """
    stacked = np.asarray(stacked)
    if stacked.shape[0] == 0:
        return zero
    return np.cumsum(stacked, axis=0)[-1]


def sequential_dot(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``rows @ vector`` with each row's products summed left to right.

    BLAS ``gemv`` picks its blocking by the matrix shape, so a row's
    dot product can change in the last bit with the rows batched beside
    it; a ``map_batch`` must be row-stable (see
    :class:`~repro.core.query.MapReduceQuery`), and elementwise
    products folded by ``np.cumsum`` are.
    """
    return np.cumsum(rows * vector, axis=1)[:, -1]


class ScalarSumBatch:
    """Batched protocol for queries whose monoid is scalar ``+``.

    Mix into any :class:`~repro.core.query.MapReduceQuery` subclass with
    ``zero() == 0.0`` and ``combine(a, b) == a + b``; the batch layout
    is a float64 ndarray of shape ``(n,)``.  The ``map_batch`` here is
    the fallback — ``map_record`` per row — for a query that defines
    nothing better; the seven TPC-H workloads override it with a mapper over
    :func:`column_values` columns, and
    :class:`~repro.core.sqlbridge.CompiledSQLQuery` with its plan run
    over column blocks.
    """

    def map_batch(self, records: Sequence[Row], aux: Any) -> np.ndarray:
        return np.asarray(
            [self.map_record(record, aux) for record in records], dtype=float
        )

    def prefix_suffix_batch(self, elements: Any) -> np.ndarray:
        return leave_one_out(np.asarray(elements, dtype=float))

    def combine_batch(self, agg: Any, elements: Any) -> np.ndarray:
        return float(agg) + np.asarray(elements, dtype=float)

    def finalize_batch(self, aggs: Any, aux: Any) -> np.ndarray:
        return np.asarray(aggs, dtype=float).reshape(-1, 1)

    def fold_batch(self, elements: Any) -> float:
        total = sequential_sum(np.asarray(elements, dtype=float), 0.0)
        return float(total)
