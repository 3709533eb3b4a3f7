"""TPC-H Q4 (counting form): late lineitems of orders in a quarter.

``COUNT(*)`` over orders joined with their late lineitems
(``l_commitdate < l_receiptdate``) where the order date falls in
[1993-01-01, 1994-01-01).  Protected table: **orders** — removing one
order removes all its late lineitems from the join, so a record's
influence is its late-lineitem multiplicity (1-40 with the generator's
skew), which is what FLEX's max-frequency analysis overestimates.
"""

from __future__ import annotations

import datetime
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core.batch import column_values
from repro.core.query import Row, Tables
from repro.tpch.queries.base import TPCHQuery, lookup_counts, random_order

_DATE_LO = datetime.date(1993, 1, 1)
_DATE_HI = datetime.date(1994, 1, 1)


@dataclass
class _Aux:
    late_counts: Dict[int, int]


class Q4(TPCHQuery):
    """Count (order, late-lineitem) join pairs in the date window."""

    name = "tpch4"
    protected_table = "orders"
    domain_sampler = random_order
    query_type = "count"
    flex_supported = True

    def sql_text(self) -> str:
        return (
            "SELECT COUNT(*) AS result FROM orders, lineitem "
            "WHERE o_orderkey = l_orderkey "
            "AND o_orderdate >= DATE '1993-01-01' "
            "AND o_orderdate < DATE '1994-01-01' "
            "AND l_commitdate < l_receiptdate"
        )

    def build_aux(self, tables: Tables) -> _Aux:
        counts: Counter = Counter()
        for item in tables["lineitem"]:
            if item["l_commitdate"] < item["l_receiptdate"]:
                counts[item["l_orderkey"]] += 1
        return _Aux(dict(counts))

    def map_record(self, record: Row, aux: _Aux) -> float:
        if _DATE_LO <= record["o_orderdate"] < _DATE_HI:
            return float(aux.late_counts.get(record["o_orderkey"], 0))
        return 0.0

    def map_batch(self, records: Sequence[Row], aux: _Aux) -> np.ndarray:
        dates = column_values(records, "o_orderdate", dtype=None)
        counts = lookup_counts(
            aux.late_counts, column_values(records, "o_orderkey", dtype=None)
        )
        in_window = (dates >= _DATE_LO) & (dates < _DATE_HI)
        return np.where(in_window, counts, 0.0)
