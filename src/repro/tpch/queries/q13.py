"""TPC-H Q13 (counting form): customer-order join with comment filter.

``COUNT(*)`` over customer joined with orders whose comment does NOT
match '%special%requests%'.  Protected table: **customer** — removing a
customer removes all of that customer's matching orders from the join,
and the generator's Zipf skew over customers makes the influence
distribution heavy-tailed: exactly the one-to-many case where FLEX
multiplies worst-case frequencies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core.batch import column_values
from repro.core.query import Row, Tables
from repro.sql.expr import col
from repro.tpch.queries.base import (
    TPCHQuery,
    lookup_counts,
    random_customer,
)

_PATTERN = "%special%requests%"


@dataclass
class _Aux:
    order_counts: Dict[int, int]


class Q13(TPCHQuery):
    """Count (customer, order) join pairs with the comment filter."""

    name = "tpch13"
    protected_table = "customer"
    domain_sampler = random_customer
    query_type = "count"
    flex_supported = True

    def sql_text(self) -> str:
        return (
            "SELECT COUNT(*) AS result FROM customer, orders "
            "WHERE c_custkey = o_custkey "
            f"AND o_comment NOT LIKE '{_PATTERN}'"
        )

    def build_aux(self, tables: Tables) -> _Aux:
        matches = col("o_comment").not_like(_PATTERN).compiled()
        counts: Counter = Counter()
        for order in tables["orders"]:
            if matches(order):
                counts[order["o_custkey"]] += 1
        return _Aux(dict(counts))

    def map_record(self, record: Row, aux: _Aux) -> float:
        return float(aux.order_counts.get(record["c_custkey"], 0))

    def map_batch(self, records: Sequence[Row], aux: _Aux) -> np.ndarray:
        return lookup_counts(
            aux.order_counts, column_values(records, "c_custkey", dtype=None)
        )
