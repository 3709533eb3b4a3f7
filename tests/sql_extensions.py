"""TPC-H Q12 and Q14 beyond the paper's seven, as SQL text only.

Both are scalar forms of the official queries, and both exercise
``SUM(CASE WHEN ...)`` through the whole stack: parser, optimizer,
physical execution, the provenance bridge and UPA.

* **tpch12** — lineitems of high-priority orders shipped by MAIL/SHIP
  and received in 1994, over the orders x lineitem join.  Protected
  table: orders.
* **tpch14** — promotional revenue: lineitems shipped in 1995 joined
  with part.  Protected table: lineitem.  (The official Q14 divides by
  total revenue; a ratio is not linear in records, so the numerator is
  the released quantity.)
"""

from __future__ import annotations

from repro.core.sqlbridge import CompiledSQLQuery, compile_sql
from repro.tpch.queries.base import random_lineitem, random_order

Q12_TEXT = (
    "SELECT SUM(CASE WHEN o_orderpriority = '1-URGENT' "
    "OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS result "
    "FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey "
    "AND l_shipmode IN ('MAIL', 'SHIP') "
    "AND l_receiptdate >= DATE '1994-01-01' "
    "AND l_receiptdate < DATE '1995-01-01'"
)

Q14_TEXT = (
    "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' "
    "THEN l_extendedprice * (1 - l_discount) ELSE 0 END) AS result "
    "FROM lineitem, part "
    "WHERE l_partkey = p_partkey "
    "AND l_shipdate >= DATE '1995-01-01' "
    "AND l_shipdate < DATE '1996-01-01'"
)

#: name -> (SQL text, protected table, domain sampler).
EXTENSIONS = {
    "tpch12": (Q12_TEXT, "orders", random_order),
    "tpch14": (Q14_TEXT, "lineitem", random_lineitem),
}


def compile_extension(name: str, tables) -> CompiledSQLQuery:
    """The extension query ``name`` compiled over ``tables``."""
    text, protected, sampler = EXTENSIONS[name]
    return compile_sql(text, tables, protected, domain_sampler=sampler,
                       name=name)
