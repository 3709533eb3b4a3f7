"""SQLSession: catalog + engine + parser + executor in one handle.

SQL text is the one way in: :meth:`SQLSession.sql` parses it into a
:class:`SQLQuery`, whose plan — each WHERE conjunct already placed
where it reads — FLEX analyses and ``core.sqlbridge`` compiles.  A plan
runs one way: :func:`~repro.sql.optimizer.optimize` prunes its columns,
then the compiled, fused row stages of
:class:`~repro.sql.physical.Executor` run it.
``session.executor.execute(plan)`` runs a plan as written, unpruned
(the tests' reference for pruning).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.common.config import EngineConfig
from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.sql.catalog import Catalog
from repro.sql.logical import LogicalPlan
from repro.sql.optimizer import optimize
from repro.sql.physical import Executor
from repro.sql.types import Schema


class SQLQuery:
    """SQL text parsed into a logical plan, and the session that runs it."""

    def __init__(self, session: "SQLSession", plan: LogicalPlan):
        self.session = session
        self.plan = plan

    def collect(self) -> List[Dict[str, Any]]:
        """The plan's rows, its columns pruned."""
        return self.session.execute_plan(self.plan).collect()


class SQLSession:
    """Entry point to the SQL layer.

    Example:
        >>> sess = SQLSession()
        >>> sess.create_table("t", [{"a": 1, "b": 2}])
        >>> sess.sql("SELECT a FROM t").collect()
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

    def create_table(
        self,
        name: str,
        rows: Sequence[Dict[str, Any]],
        schema: Optional[Schema] = None,
    ) -> None:
        """Register in-memory rows as a named table."""
        self.catalog.register(name, rows, schema)

    def execute_plan(self, plan: LogicalPlan) -> RDD:
        """The plan, its columns pruned, as an RDD of dict rows."""
        return self.executor.execute(optimize(plan))

    def sql(self, text: str) -> SQLQuery:
        """Parse SQL text (subset grammar, see parser) into a plan."""
        from repro.sql.parser import parse_sql

        return SQLQuery(self, parse_sql(text, self))
