"""Extension workloads beyond the paper's nine: TPC-H Q12 and Q14.

The paper evaluates seven TPC-H queries; these two more show the system
generalizes (and exercise CASE WHEN through the whole stack: parser,
optimizer, physical execution, provenance compilation, UPA).  Both are
scalar forms of the official queries:

* **Q12** — high-priority orders shipped by MAIL/SHIP and received in
  1994: ``SUM(CASE WHEN o_orderpriority IN high THEN 1 ELSE 0 END)``
  over the orders x lineitem join.  Protected table: orders.
* **Q14** — promotional revenue: ``SUM(CASE WHEN p_type LIKE 'PROMO%'
  THEN l_extendedprice * (1 - l_discount) ELSE 0 END)`` over lineitems
  shipped in one year joined with part.  Protected table: lineitem.
  (The official Q14 divides by total revenue; a ratio is not linear in
  records, so the numerator is the released quantity.)
"""

from __future__ import annotations

import datetime
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Set

from repro.core.query import Row, Tables
from repro.tpch.queries.base import TPCHQuery, random_lineitem, random_order

_Q12_DATE_LO = datetime.date(1994, 1, 1)
_Q12_DATE_HI = datetime.date(1995, 1, 1)
_Q12_MODES = ("MAIL", "SHIP")
_HIGH_PRIORITIES = ("1-URGENT", "2-HIGH")

_Q14_DATE_LO = datetime.date(1995, 1, 1)
_Q14_DATE_HI = datetime.date(1996, 1, 1)


@dataclass
class _Q12Aux:
    qualifying_lineitems: Dict[int, int]  # orderkey -> count in mode+window


class Q12(TPCHQuery):
    """High-priority lineitems shipped by MAIL/SHIP (scalar Q12 form)."""

    name = "tpch12"
    protected_table = "orders"
    domain_sampler = random_order
    query_type = "count"
    flex_supported = False  # SUM(CASE ...) is outside FLEX's fragment

    def sql_text(self) -> str:
        modes = ", ".join(f"'{m}'" for m in _Q12_MODES)
        return (
            "SELECT SUM(CASE WHEN o_orderpriority = '1-URGENT' "
            "OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS result "
            "FROM orders, lineitem "
            "WHERE o_orderkey = l_orderkey "
            f"AND l_shipmode IN ({modes}) "
            "AND l_receiptdate >= DATE '1994-01-01' "
            "AND l_receiptdate < DATE '1995-01-01'"
        )

    def build_aux(self, tables: Tables) -> _Q12Aux:
        counts: Counter = Counter()
        for item in tables["lineitem"]:
            if (
                item["l_shipmode"] in _Q12_MODES
                and _Q12_DATE_LO <= item["l_receiptdate"] < _Q12_DATE_HI
            ):
                counts[item["l_orderkey"]] += 1
        return _Q12Aux(dict(counts))

    def map_record(self, record: Row, aux: _Q12Aux) -> float:
        if record["o_orderpriority"] not in _HIGH_PRIORITIES:
            return 0.0
        return float(aux.qualifying_lineitems.get(record["o_orderkey"], 0))


@dataclass
class _Q14Aux:
    promo_partkeys: Set[int]


class Q14(TPCHQuery):
    """Promotional revenue numerator (scalar Q14 form)."""

    name = "tpch14"
    protected_table = "lineitem"
    domain_sampler = random_lineitem
    query_type = "arithmetic"
    flex_supported = False

    def sql_text(self) -> str:
        return (
            "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' "
            "THEN l_extendedprice * (1 - l_discount) ELSE 0 END) AS result "
            "FROM lineitem, part "
            "WHERE l_partkey = p_partkey "
            "AND l_shipdate >= DATE '1995-01-01' "
            "AND l_shipdate < DATE '1996-01-01'"
        )

    def build_aux(self, tables: Tables) -> _Q14Aux:
        return _Q14Aux(
            {
                p["p_partkey"]
                for p in tables["part"]
                if p["p_type"].startswith("PROMO")
            }
        )

    def map_record(self, record: Row, aux: _Q14Aux) -> float:
        if not _Q14_DATE_LO <= record["l_shipdate"] < _Q14_DATE_HI:
            return 0.0
        if record["l_partkey"] not in aux.promo_partkeys:
            return 0.0
        return record["l_extendedprice"] * (1 - record["l_discount"])


def extension_queries():
    """The beyond-paper extension workloads."""
    return [Q12(), Q14()]
