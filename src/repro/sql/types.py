"""Schema and column types for the SQL layer.

Rows are plain dicts (column name -> value); the schema carries names
and declared types for analysis (column resolution, pruning, and FLEX's
metadata computation).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple


class DataType:
    """Marker base class for column types."""

    name = "any"

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self).__name__)


class IntegerType(DataType):
    name = "int"


class FloatType(DataType):
    name = "float"


class StringType(DataType):
    name = "string"


class DateType(DataType):
    name = "date"


class BooleanType(DataType):
    name = "bool"


class AnyType(DataType):
    name = "any"


INTEGER = IntegerType()
FLOAT = FloatType()
STRING = StringType()
DATE = DateType()
BOOLEAN = BooleanType()
ANY = AnyType()


def infer_type(value: Any) -> DataType:
    """Best-effort type inference from a Python value."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STRING
    if isinstance(value, datetime.date):
        return DATE
    return ANY


@dataclass(frozen=True)
class Field:
    """A named, typed column."""

    name: str
    dtype: DataType = ANY

    def __repr__(self) -> str:
        return f"{self.name}:{self.dtype.name}"


class Schema:
    """Ordered collection of fields with O(1) name lookup."""

    def __init__(self, fields: Sequence[Field]):
        self.fields: Tuple[Field, ...] = tuple(fields)
        self._by_name: Dict[str, Field] = {f.name: f for f in self.fields}
        if len(self._by_name) != len(self.fields):
            names = [f.name for f in self.fields]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate column names in schema: {dupes}")

    @classmethod
    def from_rows(cls, rows: Sequence[Dict[str, Any]]) -> "Schema":
        """Infer a schema from sample rows (first non-null value per column)."""
        if not rows:
            return cls([])
        names = list(rows[0].keys())
        fields = []
        for name in names:
            dtype: DataType = ANY
            for row in rows:
                value = row.get(name)
                if value is not None:
                    dtype = infer_type(value)
                    break
            fields.append(Field(name, dtype))
        return cls(fields)

    @property
    def names(self) -> List[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {sorted(self._by_name)}"
            ) from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def merge(self, other: "Schema") -> "Schema":
        """Schema of a join output (column names must not collide)."""
        return Schema(list(self.fields) + list(other.fields))

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.fields)
        return f"Schema({inner})"
