"""TPC-H Q21 (counting form): suppliers who kept orders waiting.

Counts (supplier, lineitem l1) pairs where the supplier is in SAUDI
ARABIA, the order's status is 'F', l1 was received late, *some other*
supplier contributed to the same order (EXISTS with a ``<>`` residual),
and *no other* supplier was late on it (NOT EXISTS).  Protected table:
**supplier** — a supplier's influence is its count of qualifying
lineitems, extremely skewed by the generator: Q21 is the paper's
worst-case query (outliers the sampled normal fit misses; FLEX error
compounds across 5 join-like operators and 3 filters).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Sequence, Set

import numpy as np

from repro.core.batch import column_values
from repro.core.query import Row, Tables
from repro.tpch.queries.base import (
    TPCHQuery,
    each,
    lookup_counts,
    random_supplier,
)

_NATION = "SAUDI ARABIA"


@dataclass
class _Aux:
    qualifying_counts: Dict[int, int]  # suppkey -> qualifying l1 rows
    nation_names: Dict[int, str]


class Q21(TPCHQuery):
    """Count qualifying (supplier, late lineitem) pairs for one nation."""

    name = "tpch21"
    protected_table = "supplier"
    domain_sampler = random_supplier
    query_type = "count"
    flex_supported = True

    def sql_text(self) -> str:
        return (
            "SELECT COUNT(*) AS result "
            "FROM supplier, lineitem l1, orders, nation "
            "WHERE s_suppkey = l1.l_suppkey "
            "AND o_orderkey = l1.l_orderkey "
            "AND o_orderstatus = 'F' "
            "AND l1.l_receiptdate > l1.l_commitdate "
            "AND s_nationkey = n_nationkey "
            f"AND n_name = '{_NATION}' "
            "AND EXISTS (SELECT * FROM lineitem l2 "
            "WHERE l2.l_orderkey = l1.l_orderkey "
            "AND l2.l_suppkey <> l1.l_suppkey) "
            "AND NOT EXISTS (SELECT * FROM lineitem l3 "
            "WHERE l3.l_orderkey = l1.l_orderkey "
            "AND l3.l_suppkey <> l1.l_suppkey "
            "AND l3.l_receiptdate > l3.l_commitdate)"
        )

    def build_aux(self, tables: Tables) -> _Aux:
        f_orders: Set[int] = {
            o["o_orderkey"]
            for o in tables["orders"]
            if o["o_orderstatus"] == "F"
        }
        suppkeys_in_order: Dict[int, Set[int]] = defaultdict(set)
        late_suppkeys_in_order: Dict[int, Set[int]] = defaultdict(set)
        for item in tables["lineitem"]:
            orderkey = item["l_orderkey"]
            suppkeys_in_order[orderkey].add(item["l_suppkey"])
            if item["l_receiptdate"] > item["l_commitdate"]:
                late_suppkeys_in_order[orderkey].add(item["l_suppkey"])
        counts: Counter = Counter()
        for item in tables["lineitem"]:
            orderkey = item["l_orderkey"]
            suppkey = item["l_suppkey"]
            if orderkey not in f_orders:
                continue
            if not item["l_receiptdate"] > item["l_commitdate"]:
                continue
            if not suppkeys_in_order[orderkey] - {suppkey}:
                continue  # no other supplier on the order
            if late_suppkeys_in_order[orderkey] - {suppkey}:
                continue  # some other supplier was also late
            counts[suppkey] += 1
        nation_names = {
            n["n_nationkey"]: n["n_name"] for n in tables["nation"]
        }
        return _Aux(dict(counts), nation_names)

    def map_record(self, record: Row, aux: _Aux) -> float:
        if aux.nation_names.get(record["s_nationkey"]) != _NATION:
            return 0.0
        return float(aux.qualifying_counts.get(record["s_suppkey"], 0))

    def map_batch(self, records: Sequence[Row], aux: _Aux) -> np.ndarray:
        nation_keys = {
            key for key, name in aux.nation_names.items() if name == _NATION
        }
        in_nation = each(
            nation_keys.__contains__,
            column_values(records, "s_nationkey", dtype=None),
        )
        counts = lookup_counts(
            aux.qualifying_counts,
            column_values(records, "s_suppkey", dtype=None),
        )
        return np.where(in_nation, counts, 0.0)
