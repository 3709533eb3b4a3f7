"""TPC-H Q16 (counting form): part/supplier relationships.

``COUNT(*)`` over part joined with partsupp, with brand/type/size
filters on part and ``ps_suppkey NOT IN`` the complained-about
suppliers.  Protected table: **part** — removing a part removes its
(2-4, skewed) partsupp rows that survive the supplier anti-join.  The
paper singles out Q16 (with Q21) as where FLEX's error magnifies across
multiple Filter + Join operators.
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
    each,
    lookup_counts,
    random_part,
)

_SIZES = [49, 14, 23, 45, 19, 3, 36, 9]
_BAD_BRAND = "Brand#45"
_BAD_TYPE_PREFIX = "MEDIUM POLISHED%"
_COMPLAINT_PATTERN = "%Customer%Complaints%"


@dataclass
class _Aux:
    ok_partsupp_counts: Dict[int, int]  # partkey -> rows with ok supplier


class Q16(TPCHQuery):
    """Count filtered (part, partsupp) pairs excluding complaint suppliers."""

    name = "tpch16"
    protected_table = "part"
    domain_sampler = random_part
    query_type = "count"
    flex_supported = True

    def sql_text(self) -> str:
        sizes = ", ".join(str(s) for s in _SIZES)
        return (
            "SELECT COUNT(*) AS result FROM part, partsupp "
            "WHERE p_partkey = ps_partkey "
            f"AND p_brand <> '{_BAD_BRAND}' "
            f"AND p_type NOT LIKE '{_BAD_TYPE_PREFIX}' "
            f"AND p_size IN ({sizes}) "
            "AND ps_suppkey NOT IN ("
            "SELECT s_suppkey FROM supplier "
            f"WHERE s_comment LIKE '{_COMPLAINT_PATTERN}')"
        )

    def build_aux(self, tables: Tables) -> _Aux:
        matches = col("s_comment").like(_COMPLAINT_PATTERN).compiled()
        complainers = {
            s["s_suppkey"] for s in tables["supplier"] if matches(s)
        }
        counts: Counter = Counter()
        for ps in tables["partsupp"]:
            if ps["ps_suppkey"] not in complainers:
                counts[ps["ps_partkey"]] += 1
        return _Aux(dict(counts))

    def map_record(self, record: Row, aux: _Aux) -> float:
        if record["p_brand"] == _BAD_BRAND:
            return 0.0
        if record["p_type"].startswith(_BAD_TYPE_PREFIX[:-1]):
            return 0.0
        if record["p_size"] not in _SIZES:
            return 0.0
        return float(aux.ok_partsupp_counts.get(record["p_partkey"], 0))

    def map_batch(self, records: Sequence[Row], aux: _Aux) -> np.ndarray:
        brand = column_values(records, "p_brand", dtype=None)
        kind = column_values(records, "p_type", dtype=None)
        size = column_values(records, "p_size", dtype=None)
        selected = (
            (brand != _BAD_BRAND)
            & ~each(str.startswith, kind, _BAD_TYPE_PREFIX[:-1])
            & each(_SIZES.__contains__, size)
        )
        counts = lookup_counts(
            aux.ok_partsupp_counts,
            column_values(records, "p_partkey", dtype=None),
        )
        return np.where(selected, counts, 0.0)
