"""A protected table registered once and released from many times.

UPA's deployment is one long-lived service holding the data while
analysts resubmit queries (paper section 1, step 4), so what a release
derives from the table alone — every record's content fingerprint, its
partition id, the typed column buffers the hash builds — is derived
once, when a session first sees the table, and kept on a
:class:`ProtectedTable`.  A session's :class:`TableRegistry` finds the
table again on the next submission of the same list, keeps what
``query.build_aux`` computed from the public tables it read, and keeps
the releases made from the tables it holds, so that an identical
resubmission is answered by replaying its release (DESIGN.md section
5, item 10).  What a release depends on is what it read: a
:class:`TableReads` records the names ``build_aux`` and the domain
sampler look up, and a table nothing read may change freely.

Tables are values for the life of a session (DESIGN.md section 5,
item 9): a registered list changes only through :meth:`append` and
:meth:`retire`, and a list whose rows were replaced, reordered, added
or dropped since — behind the session's back, or by ``append()`` /
``retire()`` under a query that protects what this one reads as public
— no longer equals its snapshot, and what was derived from it is
derived again.  :class:`FixedLists` is that guard for public tables.
"""

from __future__ import annotations

from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set,
    Tuple,
)

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


class TableReads(Mapping):
    """``tables`` as one release sees them: the names it reads.

    ``[]``, ``get`` and ``in`` record the name asked for, found or not
    (a sampler's ``tables.get("customer", [])`` depends on the table
    being absent); iterating or sizing the mapping records every name,
    and that the set of names itself was read (``listed``).
    """

    __slots__ = ("tables", "names", "listed")

    def __init__(self, tables: Tables):
        self.tables = tables
        self.names: Set[str] = set()
        self.listed = False

    def __getitem__(self, name: str) -> Any:
        self.names.add(name)
        return self.tables[name]

    def __iter__(self) -> Iterator[str]:
        self._list()
        return iter(self.tables)

    def __len__(self) -> int:
        self._list()
        return len(self.tables)

    def _list(self) -> None:
        self.names.update(self.tables)
        self.listed = True


#: what :class:`FixedLists` holds for a name that was read and absent.
_ABSENT = object()


class FixedLists:
    """Named public row lists as they were when something was computed
    from them: a shallow copy of each, or that it was absent.

    One list is public to one query and protected under another, so a
    session's own ``append()`` / ``retire()`` move it in place; object
    identity alone would keep serving what was computed before.
    """

    __slots__ = ("_lists", "_names")

    def __init__(self, tables: Mapping[str, Sequence[Row]],
                 names: Iterable[str],
                 kept: Optional["FixedLists"] = None,
                 listed: bool = False):
        """``kept``'s copies, and a copy of each of ``tables``' lists
        ``names`` that ``kept`` does not hold; ``listed`` (or ``kept``
        holding it) also fixes the set of names in ``tables``."""
        self._lists = dict(kept._lists) if kept is not None else {}
        self._names = (
            frozenset(tables) if listed
            else kept._names if kept is not None else None
        )
        for name in names:
            if name not in self._lists:
                self._lists[name] = (
                    tables[name][:] if name in tables else _ABSENT
                )

    def unchanged(self, tables: Mapping[str, Sequence[Row]]) -> bool:
        """True iff each held name is in ``tables`` equal to its copy by
        value, or absent from it as before, and the set of names is the
        one fixed, if one was; other names are not looked at.

        List equality compares pointers before contents, so the same
        list, or a new one holding the same row objects, costs a
        pointer walk (as in :meth:`ProtectedTable.matches`).
        """
        if self._names is not None and tables.keys() != self._names:
            return False
        return all(
            tables.get(name, _ABSENT) == copy
            for name, copy in self._lists.items()
        )


def _identity(query: MapReduceQuery) -> Any:
    """What identifies a query: compiled SQL by what it computes, so
    one text compiled twice is one query; any other query by itself."""
    return getattr(query, "plan_fingerprint", query)


class TableRegistry:
    """What one session keeps between releases, most recent last."""

    def __init__(self) -> None:
        self._tables: List[ProtectedTable] = []
        #: (query identity, the public tables build_aux read, what it
        #: returned).
        self._aux: List[Tuple[Any, FixedLists, Any]] = []
        #: dataset print -> (query identity, epsilon) -> (the public
        #: tables read, the release made from them); only the prints of
        #: the tables held in ``_tables`` are kept.
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

    def aux(self, query: MapReduceQuery,
            tables: Tables) -> Tuple[Any, FixedLists, bool, bool]:
        """``query.build_aux(tables)``, the public lists it read, whether
        it was a kept one, and whether it read only public lists.

        Aux is a function of the public tables ``build_aux`` reads, so
        the same query (the object, or the ``plan_fingerprint`` of
        compiled SQL) over those tables, equal, gets the same aux.  An
        aux that read the protected table (iterating ``tables`` reads
        every name) moves with the protected rows and is not kept.
        """
        identity = _identity(query)
        for i, (seen, fixed, aux) in enumerate(self._aux):
            if seen == identity and fixed.unchanged(tables):
                self._aux.append(self._aux.pop(i))
                return aux, fixed, True, True
        reads = TableReads(tables)
        aux = query.build_aux(reads)
        public = query.protected_table not in reads.names
        reads.names.discard(query.protected_table)
        fixed = FixedLists(tables, reads.names, listed=reads.listed)
        if public:
            self._aux.append((identity, fixed, aux))
            del self._aux[:-REGISTRY_BOUND]
        return aux, fixed, False, public

    def replay(self, query: MapReduceQuery, tables: Tables,
               table: ProtectedTable, epsilon: float) -> Optional[Any]:
        """The release an identical submission made, or None.

        Identical means the same query (the object, or the
        ``plan_fingerprint`` of compiled SQL), the same ``epsilon``,
        ``table``'s content and the public tables the release read
        equal to what they were; a table it did not read may differ.
        """
        kept = self._answers.get(table.dataset_print(), {}).get(
            (_identity(query), epsilon)
        )
        if kept is not None and kept[0].unchanged(tables):
            return kept[1]
        return None

    def keep(self, query: MapReduceQuery, reads: TableReads,
             aux_read: FixedLists, table: ProtectedTable, epsilon: float,
             release: Any) -> None:
        """Remember ``release`` for :meth:`replay`, with the public
        tables it read: what ``build_aux`` read (``aux_read``, whose
        copies are reused) and what the sampler read through ``reads``.
        """
        names = reads.names - {query.protected_table}
        self._answers.setdefault(table.dataset_print(), {})[
            (_identity(query), epsilon)
        ] = (
            FixedLists(reads.tables, names, aux_read, listed=reads.listed),
            release,
        )

    def _prune(self) -> None:
        held = {table.dataset_print() for table in self._tables}
        for gone in self._answers.keys() - held:
            del self._answers[gone]
