"""TPC-H Q11 (arithmetic form): value of German suppliers' stock.

``SUM(ps_supplycost * ps_availqty)`` over partsupp rows whose supplier
is in GERMANY.  Protected table: **partsupp** — a record's influence is
its (cost x quantity) term when its supplier is German, zero otherwise,
so the influence distribution mixes a point mass at zero with a wide
continuous component.  FLEX does not support SUM (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set

import numpy as np

from repro.core.batch import column_values
from repro.core.query import Row, Tables
from repro.tpch.queries.base import TPCHQuery, each, random_partsupp

_NATION = "GERMANY"


@dataclass
class _Aux:
    german_suppkeys: Set[int]


class Q11(TPCHQuery):
    """Sum of supplycost * availqty for partsupp rows of German suppliers."""

    name = "tpch11"
    protected_table = "partsupp"
    domain_sampler = random_partsupp
    query_type = "arithmetic"
    flex_supported = False

    def sql_text(self) -> str:
        return (
            "SELECT SUM(ps_supplycost * ps_availqty) AS result "
            "FROM partsupp, supplier, nation "
            "WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey "
            f"AND n_name = '{_NATION}'"
        )

    def build_aux(self, tables: Tables) -> _Aux:
        nation_keys = {
            n["n_nationkey"] for n in tables["nation"] if n["n_name"] == _NATION
        }
        german = {
            s["s_suppkey"]
            for s in tables["supplier"]
            if s["s_nationkey"] in nation_keys
        }
        return _Aux(german)

    def map_record(self, record: Row, aux: _Aux) -> float:
        if record["ps_suppkey"] in aux.german_suppkeys:
            return record["ps_supplycost"] * record["ps_availqty"]
        return 0.0

    def map_batch(self, records: Sequence[Row], aux: _Aux) -> np.ndarray:
        german = each(
            aux.german_suppkeys.__contains__,
            column_values(records, "ps_suppkey", dtype=None),
        )
        value = (
            column_values(records, "ps_supplycost")
            * column_values(records, "ps_availqty")
        )
        return np.where(german, value, 0.0)
