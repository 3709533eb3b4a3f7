"""Catalog of named tables backing the SQL layer."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import AnalysisError
from repro.engine.rdd import RDD
from repro.sql.types import Schema


class Table:
    """A named table: schema + rows, materialized as an RDD on demand."""

    def __init__(self, name: str, schema: Schema, rows: List[Dict[str, Any]]):
        self.name = name
        self.schema = schema
        self.rows = rows
        self._rdd: Optional[RDD] = None


class Catalog:
    """Maps table names to :class:`Table` objects."""

    def __init__(self, engine):
        self._engine = engine
        self._tables: Dict[str, Table] = {}

    def register(
        self,
        name: str,
        rows: Sequence[Dict[str, Any]],
        schema: Optional[Schema] = None,
    ) -> None:
        """Register (or replace) a table from in-memory rows."""
        rows = list(rows)
        if schema is None:
            schema = Schema.from_rows(rows)
        self._tables[name] = Table(name, schema, rows)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise AnalysisError(f"unknown table {name!r}") from None

    def rdd(self, name: str) -> RDD:
        """RDD of a table's rows (created lazily, reused afterwards)."""
        table = self.table(name)
        if table._rdd is None:
            table._rdd = self._engine.parallelize(table.rows)
        return table._rdd
