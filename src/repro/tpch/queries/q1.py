"""TPC-H Q1 (counting form used by FLEX's evaluation).

``SELECT COUNT(*) FROM lineitem`` — no filter, no join.  The paper uses
it as the base case: FLEX returns the exact local sensitivity (1) and
UPA's only error is distribution-fit noise.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.query import Row, Tables
from repro.tpch.queries.base import TPCHQuery, random_lineitem


class Q1(TPCHQuery):
    """Count all lineitems; protected table: lineitem."""

    name = "tpch1"
    protected_table = "lineitem"
    domain_sampler = random_lineitem
    query_type = "count"
    flex_supported = True

    def sql_text(self) -> str:
        return "SELECT COUNT(*) AS result FROM lineitem"

    def build_aux(self, tables: Tables) -> Any:
        return None

    def map_record(self, record: Row, aux: Any) -> float:
        return 1.0

    def map_batch(self, records: Sequence[Row], aux: Any) -> np.ndarray:
        return np.ones(len(records), dtype=float)
