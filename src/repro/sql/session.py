"""SQLSession: catalog + engine + optimizer + parser in one handle.

A plan runs one way: :func:`~repro.sql.optimizer.optimize`, then the
compiled, fused row stages of :class:`~repro.sql.physical.Executor`.
``session.executor.execute(plan)`` runs a plan as written, without the
optimizer (the tests' reference for optimizer equivalence).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.common.config import EngineConfig
from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.sql.catalog import Catalog
from repro.sql.dataframe import DataFrame
from repro.sql.logical import LogicalPlan, Scan
from repro.sql.optimizer import optimize
from repro.sql.physical import Executor
from repro.sql.types import Schema


class SQLSession:
    """Entry point to the SQL layer.

    Example:
        >>> sess = SQLSession()
        >>> _ = sess.create_table("t", [{"a": 1, "b": 2}])
        >>> sess.table("t").select("a").collect()
        [{'a': 1}]
    """

    def __init__(
        self,
        engine: Optional[EngineContext] = None,
        config: Optional[EngineConfig] = None,
    ):
        self.engine = engine or EngineContext(config)
        self.catalog = Catalog(self.engine)
        self.executor = Executor(self)

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        rows: Sequence[Dict[str, Any]],
        schema: Optional[Schema] = None,
    ) -> DataFrame:
        """Register in-memory rows as a named table."""
        self.catalog.register(name, rows, schema)
        return self.table(name)

    def table(self, name: str) -> DataFrame:
        """DataFrame scanning a registered table."""
        table = self.catalog.table(name)
        return DataFrame(self, Scan(name, table.schema))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute_plan(self, plan: LogicalPlan) -> RDD:
        """The optimized plan as an RDD of dict rows."""
        return self.executor.execute(optimize(plan))

    def sql(self, text: str) -> DataFrame:
        """Parse SQL text into a DataFrame (subset grammar, see parser)."""
        from repro.sql.parser import parse_sql

        return DataFrame(self, parse_sql(text, self))
