"""TPC-H Q6: forecast revenue change (arithmetic, UPA-only).

``SUM(l_extendedprice * l_discount)`` over lineitems shipped in 1994
with discount in [0.03, 0.08] and quantity < 40.  FLEX does not support
SUM queries (Table II).  A record's influence is its revenue term —
continuous and wide-ranging, the canonical "arithmetic" case.
"""

from __future__ import annotations

import datetime
from typing import Any, Sequence

import numpy as np

from repro.core.batch import column_values
from repro.core.query import Row, Tables
from repro.tpch.queries.base import TPCHQuery, random_lineitem

_DATE_LO = datetime.date(1994, 1, 1)
_DATE_HI = datetime.date(1995, 1, 1)


class Q6(TPCHQuery):
    """Sum of discounted revenue over the filtered lineitems."""

    name = "tpch6"
    protected_table = "lineitem"
    domain_sampler = random_lineitem
    query_type = "arithmetic"
    flex_supported = False

    def sql_text(self) -> str:
        return (
            "SELECT SUM(l_extendedprice * l_discount) AS result FROM lineitem "
            "WHERE l_shipdate >= DATE '1994-01-01' "
            "AND l_shipdate < DATE '1995-01-01' "
            "AND l_discount BETWEEN 0.03 AND 0.08 "
            "AND l_quantity < 40"
        )

    def build_aux(self, tables: Tables) -> Any:
        return None

    def map_record(self, record: Row, aux: Any) -> float:
        if not _DATE_LO <= record["l_shipdate"] < _DATE_HI:
            return 0.0
        if not 0.03 <= record["l_discount"] <= 0.08:
            return 0.0
        if not record["l_quantity"] < 40:
            return 0.0
        return record["l_extendedprice"] * record["l_discount"]

    def map_batch(self, records: Sequence[Row], aux: Any) -> np.ndarray:
        if not records:
            return np.empty(0)
        # column_values is layout-aware: over a ColumnarPartition the
        # three numeric pulls are zero-copy buffer views, so no row
        # dict is boxed anywhere in this kernel.
        price = column_values(records, "l_extendedprice")
        discount = column_values(records, "l_discount")
        quantity = column_values(records, "l_quantity")
        shipdate = column_values(records, "l_shipdate", dtype=None)
        # numpy's object ufuncs apply date.__ge__ / __lt__ per value at
        # C speed (as sql.vectorized does): map_record's booleans.
        selected = (
            (shipdate >= _DATE_LO)
            & (shipdate < _DATE_HI)
            & (discount >= 0.03)
            & (discount <= 0.08)
            & (quantity < 40)
        )
        return np.where(selected, price * discount, 0.0)
