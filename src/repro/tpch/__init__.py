"""TPC-H substrate: seeded data generator and the paper's seven queries.

The paper evaluates on 114-133 GB TPC-H datasets; we generate
TPC-H-shaped tables at laptop scale with the *distributional* features
that drive sensitivity: skewed join-key frequencies (lineitems per
order, orders per customer, lineitems per supplier), date ranges,
selective filters, and comment strings that match/miss the LIKE
patterns.

Each query is defined twice, and tests assert the two agree on the
same generated tables:

* as SQL text (``sql_text()``), which :mod:`repro.sql` executes, FLEX
  analyses and :mod:`repro.core.sqlbridge` compiles;
* as a :class:`repro.core.query.MapReduceQuery` (the query object
  itself) that UPA, brute force and the benchmarks run.
"""

from repro.tpch.datagen import TPCHConfig, TPCHGenerator
from repro.tpch.workload import all_queries, query_by_name

__all__ = ["TPCHConfig", "TPCHGenerator", "all_queries", "query_by_name"]
