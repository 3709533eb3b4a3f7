"""A small SQL/DataFrame layer compiled onto the MapReduce engine.

This is the "SparkSQL" stand-in: expression AST, logical plans, a
rule-based optimizer, physical execution over RDDs, a DataFrame builder
API, and a text parser for the SQL subset used by the TPC-H workloads.

The FLEX baseline (:mod:`repro.baselines.flex`) performs its static
analysis directly on the logical plans produced here, exactly as the
original operated on SQL query plans.

Example:
    >>> from repro.sql import SQLSession
    >>> sess = SQLSession()
    >>> _ = sess.create_table("t", [{"a": 1}, {"a": 2}, {"a": 2}])
    >>> sess.sql("SELECT COUNT(*) AS n FROM t WHERE a = 2").collect()
    [{'n': 2}]
"""

from repro.sql.compiler import (
    compile_expression,
    compile_predicate,
    compile_projection,
    expr_fingerprint,
    plan_fingerprint,
)
from repro.sql.dataframe import DataFrame
from repro.sql.expr import Expression, col, lit
from repro.sql.functions import avg, count, count_distinct, count_star, max_, min_, sum_
from repro.sql.session import SQLSession

__all__ = [
    "DataFrame",
    "Expression",
    "SQLSession",
    "avg",
    "col",
    "compile_expression",
    "compile_predicate",
    "compile_projection",
    "count",
    "count_distinct",
    "count_star",
    "expr_fingerprint",
    "lit",
    "max_",
    "min_",
    "plan_fingerprint",
    "sum_",
]
