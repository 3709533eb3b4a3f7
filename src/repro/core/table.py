"""A protected table registered once and released from many times.

UPA's deployment is one long-lived service holding the data while
analysts resubmit queries (paper section 1, step 4), so what a release
derives from the table alone — every record's content fingerprint, its
partition id, the typed column buffers the hash builds — is derived
once, when a session first sees the table, and kept on a
:class:`ProtectedTable`.  A session's :class:`TableRegistry` finds the
table again on the next submission of the same list, keeps what
``query.build_aux`` computed from the unchanged public tables, and
keeps the releases made from the tables it holds, so that an identical
resubmission is answered by replaying its release (DESIGN.md section
5, item 10).

Tables are values for the life of a session (DESIGN.md section 5,
item 9): a registered list changes only through :meth:`append` and
:meth:`retire`, and a list whose rows were replaced, reordered, added
or dropped since — behind the session's back, or by ``append()`` /
``retire()`` under a query that protects what this one reads as public
— no longer equals its snapshot, and what was derived from it is
derived again.  :class:`FixedLists` is that guard for public tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import sampling
from repro.core.query import MapReduceQuery, Row, Tables
from repro.engine.columnar import object_column

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
        b = object_column(b, len(b))
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
        "_print",
    )

    def __init__(self, rows: List[Row]):
        self.rows = rows
        self.snapshot = list(rows)
        self.fingerprints, self.buffers = sampling.fingerprint_columns(rows)
        self.partition_ids = sampling.partition_id_bits(self.fingerprints)
        self._print = len(self.fingerprints), int(self.fingerprints.sum())

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
        """Record count and the fingerprints summed mod 2**64 (``uint64``
        sums wrap), kept up to date by :meth:`append` and
        :meth:`retire`."""
        return self._print

    def append(self, records: List[Row]) -> None:
        """Grow the table by ``records``, hashing only them.

        A column keeps its buffer only while every chunk hashed into
        one of the same kind — what hashing the grown table would give.
        """
        fingerprints, buffers = sampling.fingerprint_columns(records)
        size, total = self._print
        self._print = (
            size + len(fingerprints),
            (total + int(fingerprints.sum())) % 2**64,
        )
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
        size, total = self._print
        self._print = (
            size - count,
            (total - int(self.fingerprints[:count].sum())) % 2**64,
        )
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
    from them: a shallow copy of each.

    One list is public to one query and protected under another, so a
    session's own ``append()`` / ``retire()`` move it in place; object
    identity alone would keep serving what was computed before.
    """

    __slots__ = ("_lists",)

    def __init__(self, lists: Mapping[str, Sequence[Row]]):
        self._lists = {name: rows[:] for name, rows in lists.items()}

    def unchanged(self, lists: Mapping[str, Sequence[Row]]) -> bool:
        """True iff ``lists`` equal the copies by value.

        List equality compares pointers before contents, so the same
        list, or a new one holding the same row objects, costs a
        pointer walk (as in :meth:`ProtectedTable.matches`).
        """
        seen = self._lists
        return lists.keys() == seen.keys() and all(
            lists[name] == copy for name, copy in seen.items()
        )


def _public(query: MapReduceQuery, tables: Tables) -> Dict[str, Any]:
    return {
        name: rows for name, rows in tables.items()
        if name != query.protected_table
    }


def _identity(query: MapReduceQuery, epsilon: float) -> Tuple[Any, float]:
    """A submission's query and epsilon.  Compiled SQL is identified by
    what it computes, so one text compiled twice is one query."""
    return getattr(query, "plan_fingerprint", query), epsilon


class TableRegistry:
    """What one session keeps between releases, most recent last."""

    def __init__(self) -> None:
        self._tables: List[ProtectedTable] = []
        #: (query, its public tables, what build_aux returned from them).
        self._aux: List[Tuple[MapReduceQuery, FixedLists, Any]] = []
        #: dataset print -> (query identity, epsilon) -> (the public
        #: tables, the release made from them); only the prints of the
        #: tables held in ``_tables`` are kept.
        self._answers: Dict[
            Tuple[int, int], Dict[Tuple[Any, float], Tuple[FixedLists, Any]]
        ] = {}

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
        self._prune()
        return table, False

    def append(self, table: ProtectedTable, records: List[Row]) -> None:
        """:meth:`ProtectedTable.append`; the old content's releases go."""
        table.append(records)
        self._prune()

    def retire(self, table: ProtectedTable, count: int) -> None:
        """:meth:`ProtectedTable.retire`; the old content's releases go."""
        table.retire(count)
        self._prune()

    def aux(self, query: MapReduceQuery, tables: Tables) -> Tuple[Any, bool]:
        """``query.build_aux(tables)``, and whether it was a kept one.

        Aux is a function of the public tables unless the query
        declares ``aux_reads_protected``, so the same query over equal
        public tables gets the same aux.
        """
        if query.aux_reads_protected:
            return query.build_aux(tables), False
        public = _public(query, tables)
        for i, (seen_query, fixed, aux) in enumerate(self._aux):
            if seen_query is query and fixed.unchanged(public):
                self._aux.append(self._aux.pop(i))
                return aux, True
        aux = query.build_aux(tables)
        self._aux.append((query, FixedLists(public), aux))
        del self._aux[:-REGISTRY_BOUND]
        return aux, False

    def replay(self, query: MapReduceQuery, tables: Tables,
               table: ProtectedTable, epsilon: float) -> Optional[Any]:
        """The release an identical submission made, or None.

        Identical means the same query (the object, or the
        ``plan_fingerprint`` of compiled SQL), the same ``epsilon``,
        ``table``'s content and public tables equal to the ones the
        release read.
        """
        kept = self._answers.get(table.dataset_print(), {}).get(
            _identity(query, epsilon)
        )
        if kept is not None and kept[0].unchanged(_public(query, tables)):
            return kept[1]
        return None

    def keep(self, query: MapReduceQuery, tables: Tables,
             table: ProtectedTable, epsilon: float, release: Any) -> None:
        """Remember ``release`` for :meth:`replay`.

        The public tables are snapshotted once per release: the kept
        aux entry the release read them through already holds them.
        """
        public = _public(query, tables)
        fixed = next(
            (
                fixed for seen, fixed, _aux in reversed(self._aux)
                if seen is query and fixed.unchanged(public)
            ),
            None,
        ) or FixedLists(public)
        self._answers.setdefault(table.dataset_print(), {})[
            _identity(query, epsilon)
        ] = (fixed, release)

    def _prune(self) -> None:
        held = {table.dataset_print() for table in self._tables}
        for gone in self._answers.keys() - held:
            del self._answers[gone]
