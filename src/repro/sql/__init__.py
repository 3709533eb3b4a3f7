"""The SQL layer: SQL text, planned and run on the MapReduce engine.

This is the "SparkSQL" stand-in, kept to what a release computes: a
text parser for the subset the TPC-H workloads use, whose planner
places each WHERE conjunct where it reads, logical plans, column
pruning, and physical execution over RDDs.  A query is
one ``SELECT … FROM … [WHERE …]`` that yields plain rows or one global
aggregate row; GROUP BY, HAVING, ORDER BY, LIMIT and UNION ALL are
refused with a :class:`~repro.common.errors.ParseError` that names the
clause.  There is no DataFrame builder: a plan comes from
:meth:`SQLSession.sql`, or from the plan constructors of
:mod:`repro.sql.logical`.

The FLEX baseline (:mod:`repro.baselines.flex`) performs its static
analysis directly on the logical plans produced here, exactly as the
original operated on SQL query plans, and :mod:`repro.core.sqlbridge`
compiles them into UPA queries.

Example:
    >>> from repro.sql import SQLSession
    >>> sess = SQLSession()
    >>> sess.create_table("t", [{"a": 1}, {"a": 2}, {"a": 2}])
    >>> sess.sql("SELECT COUNT(*) AS n FROM t WHERE a = 2").collect()
    [{'n': 2}]
"""

from repro.sql.compiler import (
    compile_expression,
    compile_predicate,
    compile_projection,
    plan_fingerprint,
)
from repro.sql.expr import Expression, col
from repro.sql.session import SQLSession

__all__ = [
    "Expression",
    "SQLSession",
    "col",
    "compile_expression",
    "compile_predicate",
    "compile_projection",
    "plan_fingerprint",
]
