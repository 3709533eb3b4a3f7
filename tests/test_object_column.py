"""One way to box an object column (``engine.columnar.object_column``).

Each of the six sites that turns dates, strings or None-bearing values
into a ``dtype=object`` array must hand back exactly what its old
construction did: the same shape and, element by element, the very
same objects (``a is b``), so no kernel downstream can see a
difference.
"""

import datetime

import numpy as np
import pytest

from repro.core import batch, table
from repro.core.sampling import RecordView
from repro.core.sqlbridge import _StaticIndex
from repro.engine.columnar import ColumnarPartition, object_column
from repro.sql import vectorized
from repro.sql.expr import col

_D0 = datetime.date(1995, 3, 15)

#: one column of each kind an object buffer holds; "mixed" is a
#: heterogeneous column, which only the row gathers ever box.
_COLUMNS = {
    "date": [_D0 + datetime.timedelta(days=i % 7) for i in range(40)],
    "str": [f"order-{i % 5}" for i in range(40)],
    "none": [None if i % 3 else _D0 for i in range(40)],
    "mixed": [(_D0, f"s{i}", None)[i % 3] for i in range(40)],
}


def _old_slice_assign(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _assert_same_objects(new, old):
    assert new.dtype == object and old.dtype == object
    assert new.shape == old.shape
    assert all(a is b for a, b in zip(new.tolist(), old.tolist()))


def _record_view(values):
    # The view boxes its buffer on first request and indexes into it.
    indices = np.arange(len(values))[::2]
    new = RecordView([], indices, {"c": list(values)}).numpy_column("c")
    return new, np.array(values, dtype=object)[indices]


def _table_joined(values):
    head = object_column(values[:10], 10)
    new = table._joined(head.copy(), values[10:])
    old = np.concatenate([head, np.array(values[10:], dtype=object)])
    return new, old


def _columnar_partition(values):
    new = ColumnarPartition({"c": list(values)}).numpy_column("c")
    return new, _old_slice_assign(values)


def _static_index(values):
    rows = [{"k": i % 4, "c": v} for i, v in enumerate(values)]
    new = _StaticIndex(rows, [col("k")]).column("c")
    return new, _old_slice_assign([row["c"] for row in rows])


def _as_column(values):
    value = values[0]
    return vectorized._as_column(value, 25), _old_slice_assign([value] * 25)


def _column_values(values):
    rows = [{"c": v} for v in values]
    old = np.empty(len(rows), dtype=object)
    for i, row in enumerate(rows):
        old[i] = row["c"]
    return batch.column_values(rows, "c", dtype=None), old


_SITES = {
    "RecordView.numpy_column": _record_view,
    "ProtectedTable._joined": _table_joined,
    "ColumnarPartition.numpy_column": _columnar_partition,
    "_StaticIndex.column": _static_index,
    "vectorized._as_column": _as_column,
    "column_values(dtype=None)": _column_values,
}


@pytest.mark.parametrize("kind", sorted(_COLUMNS))
@pytest.mark.parametrize("site", sorted(_SITES))
def test_site_boxes_the_same_objects_as_before(site, kind):
    new, old = _SITES[site](_COLUMNS[kind])
    _assert_same_objects(new, old)


def test_tuples_stay_one_value_per_row():
    pairs = [(i, i + 1) for i in range(6)]
    boxed = object_column(pairs, len(pairs))
    assert boxed.shape == (6,)
    assert all(a is b for a, b in zip(boxed.tolist(), pairs))
    # the construction it replaced reads the tuples as a second axis
    assert np.array(pairs, dtype=object).shape == (6, 2)


def test_empty_and_short_inputs():
    assert object_column([], 0).shape == (0,)
    with pytest.raises(ValueError):
        object_column(iter(["a"]), 2)
