"""A protected table registered once and released from many times.

UPA's deployment is one long-lived service holding the data while
analysts resubmit queries (paper section 1, step 4), so what a release
derives from the table alone — every record's content fingerprint, its
partition id, the typed column buffers the hash builds — is derived
once, when a session first sees the table, and kept on a
:class:`ProtectedTable`.  A session's :class:`TableRegistry` finds the
table again on the next submission of the same list and also keeps
what ``query.build_aux`` computed from the unchanged public tables.

Tables are values for the life of a session (DESIGN.md section 5,
item 9): a registered list changes only through :meth:`append` and
:meth:`retire`, and a list whose rows were replaced, reordered, added
or dropped since — behind the session's back, or by ``append()`` /
``retire()`` under a query that protects what this one reads as public
— no longer equals its snapshot, and what was derived from it is
derived again.  :class:`FixedLists` is that guard for public tables.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core import sampling
from repro.core.query import MapReduceQuery, Row, Tables

#: tables (and aux results) one session keeps.  The traffic that needs
#: more than one is RANGE ENFORCER's: x and x - r submitted in turn.
REGISTRY_BOUND = 2


def _numeric(buffer: Any) -> bool:
    return isinstance(buffer, np.ndarray) and buffer.dtype != object


def _same_kind(a: Any, b: Any) -> bool:
    """Whether two column buffers hold one exact value type."""
    if _numeric(a) and _numeric(b):
        return a.dtype == b.dtype and a.shape[1:] == b.shape[1:]
    # Dates or strings: the value list, or the object array the first
    # RecordView to read the column boxed it into.
    return type(a[0]) is type(b[0])


def _joined(a: Any, b: Any) -> Any:
    """Buffer ``a`` grown by the same-kind chunk ``b``."""
    if isinstance(a, list):
        a.extend(b)
        return a
    if a.dtype == object:
        b = np.array(b, dtype=object)
    return np.concatenate([a, b])


class ProtectedTable:
    """The caller's row list and everything hashed from it.

    Attributes:
        rows: the caller's own list — releases read the live rows.
        snapshot: a shallow copy taken when the rows were last known,
            which :meth:`matches` compares against.
        fingerprints: one ``uint64`` content hash per row.
        partition_ids: the rows' two-partition ids (``uint8``).
        buffers: column key -> the typed buffer the hash built, for the
            columns of one exact value type
            (:func:`~repro.core.sampling.fingerprint_columns`).
    """

    __slots__ = (
        "rows", "snapshot", "fingerprints", "partition_ids", "buffers",
    )

    def __init__(self, rows: List[Row]):
        self.rows = rows
        self.snapshot = list(rows)
        self.fingerprints, self.buffers = sampling.fingerprint_columns(rows)
        self.partition_ids = sampling.partition_id_bits(self.fingerprints)

    def matches(self, rows: Any) -> bool:
        """True iff ``rows`` is this table's list, rows unchanged.

        List equality compares pointers before contents, so an
        untouched list of 20 000 rows costs about 13 microseconds; a
        row swapped for another object is compared by value, and an
        equal one hashes the same.  A row *dict* edited in place is
        invisible here (DESIGN.md section 5, item 9).
        """
        return rows is self.rows and rows == self.snapshot

    def dataset_print(self) -> Tuple[int, int]:
        """Record count and the fingerprints summed mod 2**64."""
        return len(self.fingerprints), int(self.fingerprints.sum())

    def append(self, records: List[Row]) -> None:
        """Grow the table by ``records``, hashing only them.

        A column keeps its buffer only while every chunk hashed into
        one of the same kind — what hashing the grown table would give.
        """
        fingerprints, buffers = sampling.fingerprint_columns(records)
        self.rows.extend(records)
        self.snapshot.extend(records)
        self.fingerprints = np.concatenate([self.fingerprints, fingerprints])
        self.partition_ids = np.concatenate(
            [self.partition_ids, sampling.partition_id_bits(fingerprints)]
        )
        self.buffers = {
            key: _joined(buffer, buffers[key])
            for key, buffer in self.buffers.items()
            if key in buffers and _same_kind(buffer, buffers[key])
        }

    def retire(self, count: int) -> None:
        """Drop the ``count`` oldest rows."""
        del self.rows[:count]
        del self.snapshot[:count]
        self.fingerprints = self.fingerprints[count:]
        self.partition_ids = self.partition_ids[count:]
        for key, buffer in self.buffers.items():
            if isinstance(buffer, list):
                del buffer[:count]
            else:
                self.buffers[key] = buffer[count:]


class FixedLists:
    """Named public row lists as they were when something was computed
    from them: the lists and a shallow copy of each.

    One list is public to one query and protected under another, so a
    session's own ``append()`` / ``retire()`` move it in place; object
    identity alone would keep serving what was computed before.
    """

    __slots__ = ("_lists",)

    def __init__(self, lists: Mapping[str, Sequence[Row]]):
        self._lists = {name: (rows, rows[:]) for name, rows in lists.items()}

    def unchanged(self, lists: Mapping[str, Sequence[Row]]) -> bool:
        """True iff ``lists`` are these list objects, rows as they were
        (pointer compares, as in :meth:`ProtectedTable.matches`)."""
        seen = self._lists
        return lists.keys() == seen.keys() and all(
            lists[name] is rows and rows == copy
            for name, (rows, copy) in seen.items()
        )


class TableRegistry:
    """What one session keeps between releases, most recent last."""

    def __init__(self) -> None:
        self._tables: List[ProtectedTable] = []
        #: (query, its public tables, what build_aux returned from them).
        self._aux: List[Tuple[MapReduceQuery, FixedLists, Any]] = []

    def lookup(self, rows: List[Row]) -> Tuple[ProtectedTable, bool]:
        """The table of ``rows``, and whether it was already registered.

        A list that is new, or no longer matches its snapshot (the stale
        entry is dropped), is hashed and registered here.
        """
        for i, table in enumerate(self._tables):
            if table.rows is rows:
                del self._tables[i]
                if table.matches(rows):
                    self._tables.append(table)
                    return table, True
                break
        table = ProtectedTable(rows)
        self._tables.append(table)
        del self._tables[:-REGISTRY_BOUND]
        return table, False

    def aux(self, query: MapReduceQuery, tables: Tables) -> Tuple[Any, bool]:
        """``query.build_aux(tables)``, and whether it was a kept one.

        Aux is a function of the public tables unless the query
        declares ``aux_reads_protected``, so the same query over the
        same unchanged public lists gets the same aux.
        """
        if query.aux_reads_protected:
            return query.build_aux(tables), False
        public = {
            name: rows for name, rows in tables.items()
            if name != query.protected_table
        }
        for i, (seen_query, fixed, aux) in enumerate(self._aux):
            if seen_query is query and fixed.unchanged(public):
                self._aux.append(self._aux.pop(i))
                return aux, True
        aux = query.build_aux(tables)
        self._aux.append((query, FixedLists(public), aux))
        del self._aux[:-REGISTRY_BOUND]
        return aux, False
