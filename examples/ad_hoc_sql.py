"""Ad-hoc SQL under iDP: the "no query modification" workflow.

Run with:  python examples/ad_hoc_sql.py

An analyst types SQL; UPA parses it, checks it is linear in the table
being protected, derives the Mapper/Reducer decomposition automatically
(provenance compilation), infers the sensitivity and releases a noisy
answer — no per-query code, no manual bounds.  Queries that are *not*
linear in the protected table, or that ask for more than one aggregate
row, are rejected with an explanation rather than silently
under-protected.
"""

from repro.common.errors import ParseError, QueryShapeError
from repro.core import UPAConfig, UPASession
from repro.dp import PrivacyAccountant
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.tpch.queries import base as samplers

QUERIES = [
    # (sql, protected table, domain sampler)
    ("SELECT COUNT(*) AS n FROM orders WHERE o_orderpriority = '1-URGENT'",
     "orders", samplers.random_order),
    ("SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue "
     "FROM lineitem WHERE l_shipdate >= DATE '1995-01-01'",
     "lineitem", samplers.random_lineitem),
    ("SELECT COUNT(*) AS n FROM customer, orders "
     "WHERE c_custkey = o_custkey AND c_mktsegment = 'BUILDING'",
     "customer", samplers.random_customer),
    ("SELECT COUNT(*) AS n FROM partsupp WHERE ps_availqty < 500 "
     "AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier "
     "WHERE s_comment LIKE '%Complaints%')",
     "partsupp", samplers.random_partsupp),
]

REJECTED = [
    # GROUP BY is not a scalar release: the parser refuses it
    ("SELECT o_orderpriority, COUNT(*) AS n FROM orders "
     "GROUP BY o_orderpriority", "orders"),
    # AVG is not linear in records
    ("SELECT AVG(l_quantity) AS q FROM lineitem", "lineitem"),
]


def main() -> None:
    tables = TPCHGenerator(TPCHConfig(scale_rows=20_000, seed=1)).generate()
    accountant = PrivacyAccountant(total_epsilon=4.0)
    session = UPASession(
        UPAConfig(sample_size=1000, seed=4), accountant=accountant
    )

    for sql, protect, sampler in QUERIES:
        result = session.run_sql(
            sql, tables, protected_table=protect, epsilon=0.5,
            domain_sampler=sampler,
        )
        print(f"SQL      : {sql}")
        print(f"protects : one record of {protect!r}")
        print(f"true     : {result.plain_output[0]:.2f}")
        print(f"released : {result.noisy_scalar():.2f} "
              f"(sensitivity {result.local_sensitivity:.3f})\n")

    print("queries UPA refuses (not one aggregate linear in the protected "
          "records):")
    for sql, protect in REJECTED:
        try:
            session.run_sql(sql, tables, protected_table=protect, epsilon=0.5)
        except (ParseError, QueryShapeError) as exc:
            print(f"  {sql!r}\n    -> {exc}")


if __name__ == "__main__":
    main()
