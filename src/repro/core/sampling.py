"""Phase 1 of UPA: Partition & Sample (paper section III, Algorithm 1 l.1-3).

The input dataset is split into **two stable partitions** by a content
hash, so a record lands in the same partition in every submission — the
property RANGE ENFORCER's per-partition comparison relies on: two
datasets that differ by one record produce identical output on the
untouched partition.

From the partitioned records UPA uniformly samples ``n`` *differing
records* S (the records whose removal is simulated); the rest is S'.
It also samples ``n`` records from the domain D that are *not* in x
(one ``sample_domain_batch`` call on the query) for the "+1 record"
neighbours.
"""

from __future__ import annotations

import marshal
import math
import random
import zlib
from dataclasses import dataclass
from datetime import date
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.errors import DPError
from repro.core.query import MapReduceQuery, Row, Tables
from repro.engine.columnar import (
    ColumnarPartition, gather_columns, object_column,
)
from repro.obs.tracing import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.core.table import ProtectedTable

# Content hashing.  A record's fingerprint is a pure function of its
# key -> value content: independent of key order, of the process and
# PYTHONHASHSEED, and of which other records are hashed alongside it
# (DESIGN.md section 5).  Every value hashes by its *exact* type, so
# columns are only a way to hash many values of one type per numpy
# call; a heterogeneous column is hashed type by type.

_U64 = np.uint64
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: one constant per value type, so 1, 1.0 and date.fromordinal(1) differ.
_INT, _FLOAT, _DATE, _STR, _TUPLE, _OTHER = (
    _U64(salt) for salt in (
        0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
        0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0xD6E8FEB86659FD93,
    )
)


def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place: a bijection with full avalanche."""
    h ^= h >> _U64(30)
    h *= _U64(0xBF58476D1CE4E5B9)
    h ^= h >> _U64(27)
    h *= _U64(0x94D049BB133111EB)
    h ^= h >> _U64(31)
    return h


def _hash_grouped(items: Sequence[Any], group_of: Callable[[Any], Any],
                  hasher: Callable[[list], Tuple[np.ndarray, Any]]
                  ) -> Tuple[np.ndarray, None]:
    """Hash ``items`` one ``group_of`` group at a time, in item order.

    The groups' buffers are dropped: no one array holds the column.
    """
    groups: Dict[Any, List[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(group_of(item), []).append(i)
    out = np.empty(len(items), dtype=_U64)
    for indices in groups.values():
        out[indices] = hasher([items[i] for i in indices])[0]
    return out, None


def _crc32s(texts: List[str]) -> np.ndarray:
    return np.fromiter(
        (zlib.crc32(t.encode("utf-8", "surrogatepass")) for t in texts),
        dtype=_U64, count=len(texts),
    )


def _fits_int64(value: int) -> bool:
    return _INT64_MIN <= value <= _INT64_MAX


# Every hasher returns (one uint64 per value, the buffer it hashed
# from).  A buffer exists only for a column of one exact type — the
# int64 / float64 array, the (n, d) float64 array of equal-width float
# tuples, the value list itself for dates and strings — and is what
# RecordView.numpy_column indexes; the values, never the buffer, define
# the hash (DESIGN.md section 5).


def _hash_array(buffer: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hash a native int64 / float64 buffer by its values' bit patterns.

    An ``(n, d)`` float64 buffer is a column of float tuples
    (``features``), hashed position by position like any other tuple.
    """
    bits = buffer.view(_U64) ^ (_INT if buffer.dtype == np.int64 else _FLOAT)
    if buffer.ndim == 1:
        return bits, buffer
    h = np.full(len(buffer), _TUPLE + _U64(buffer.shape[1]), dtype=_U64)
    for position in bits.T:
        h ^= position
        _mix(h)
    return h, buffer


# marshal format 2 writes no back-references: a list is b"[" and its
# length as <i4, then one record per value — b"i" and a <i4 for an int
# within int32, b"g" and a <f8 for a float, b"(" and its length as <i4
# and then its elements for a tuple.  Each record's first byte names its
# value's *exact* type (a bool is b"T" / b"F", an int subclass or a
# numpy scalar another code or a ValueError), so n records of the
# expected codes, laid end to end, are n values of one exact type.
_MARSHAL_VERSION = 2
#: exact scalar type -> (its record, its code, the native buffer dtype).
_RECORDS = {
    int: (np.dtype([("code", "u1"), ("value", "<i4")]), ord("i"), np.int64),
    float: (np.dtype([("code", "u1"), ("value", "<f8")]), ord("g"),
            np.float64),
}


def _hash_marshalled(values: list) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Hash an int, float or float-tuple column in one C pass, or None.

    ``marshal.dumps`` both checks every value's exact type and lays out
    its bytes, where the per-type path needs ``set(map(type, ...))`` and
    ``np.array``.  The column is accepted only when it is exactly
    ``len(values)`` records of its first value's kind; None sends it to
    the per-type path (other types, ints beyond int32, mixed or ragged
    columns, a marshal layout other than the one above).
    """
    first, width = values[0], None
    if type(first) is tuple and first and type(first[0]) is float:
        first, width = first[0], len(first)
    if type(first) not in _RECORDS:
        return None
    record, code, native = _RECORDS[type(first)]
    if width is not None:
        record = np.dtype([
            ("code", "u1"), ("width", "<i4"), ("items", record, (width,)),
        ])
    try:
        data = marshal.dumps(values, _MARSHAL_VERSION)
    except ValueError:  # an unmarshallable value: not one exact type
        return None
    head = b"[" + len(values).to_bytes(4, "little")
    if (len(data) != len(head) + len(values) * record.itemsize
            or not data.startswith(head)):
        return None
    cells = np.frombuffer(data, record, offset=len(head))
    if width is not None:
        if not ((cells["code"] == ord("(")).all()
                and (cells["width"] == width).all()):
            return None
        cells = cells["items"]
    if not (cells["code"] == code).all():
        return None
    # Little-endian records to a native, C-contiguous buffer: the hash
    # reads its bits through a uint64 view.
    return _hash_array(cells["value"].astype(native, order="C"))


def _hash_ints(values: List[int]) -> Tuple[np.ndarray, Any]:
    try:
        buffer = np.array(values, dtype=np.int64)
    except OverflowError:
        # Ints beyond int64 hash by repr; the rest keep their pattern.
        return _hash_grouped(
            values, _fits_int64,
            lambda ints: (
                _hash_ints(ints) if _fits_int64(ints[0]) else _hash_other(ints)
            ),
        )
    return _hash_array(buffer)


def _hash_floats(values: List[float]) -> Tuple[np.ndarray, np.ndarray]:
    return _hash_array(np.array(values, dtype=np.float64))


def _hash_dates(values: List[date]) -> Tuple[np.ndarray, list]:
    ordinals = np.fromiter(
        map(date.toordinal, values), dtype=_U64, count=len(values)
    )
    return ordinals ^ _DATE, values


def _hash_strs(values: List[str]) -> Tuple[np.ndarray, list]:
    distinct = list(set(values))
    memo = dict(zip(distinct, _crc32s(distinct).tolist()))
    crcs = np.fromiter(
        map(memo.__getitem__, values), dtype=_U64, count=len(values)
    )
    return crcs ^ _STR, values


def _hash_tuples(values: List[tuple]) -> Tuple[np.ndarray, Any]:
    if len(set(map(len, values))) > 1:
        # Each width's group may take the one-pass path.
        return _hash_grouped(values, len, _hash_values)
    width = len(values[0])
    flat = list(chain.from_iterable(values))
    if set(map(type, flat)) == {float}:
        # A vector column (``features``): one conversion.
        return _hash_array(np.array(flat, dtype=np.float64).reshape(-1, width))
    h = np.full(len(values), _TUPLE + _U64(width), dtype=_U64)
    for position in zip(*values):
        h ^= _hash_values(list(position))[0]
        _mix(h)
    return h, None


def _hash_other(values: list) -> Tuple[np.ndarray, None]:
    """Per-value fallback (None, bool, huge ints, lists, ...): crc32 of repr."""
    return _crc32s([repr(v) for v in values]) ^ _OTHER, None


_HASHERS: Dict[type, Callable[[list], Tuple[np.ndarray, Any]]] = {
    int: _hash_ints, float: _hash_floats, date: _hash_dates,
    str: _hash_strs, tuple: _hash_tuples,
}


def _hash_values(values: list) -> Tuple[np.ndarray, Any]:
    """One ``uint64`` per value of a non-empty column, and its buffer."""
    marshalled = _hash_marshalled(values)
    if marshalled is not None:
        return marshalled
    types = set(map(type, values))
    if len(types) > 1:
        return _hash_grouped(values, type, _hash_values)
    return _HASHERS.get(types.pop(), _hash_other)(values)


def fingerprint_columns(
    records: Sequence[Row],
) -> Tuple[np.ndarray, Dict[Any, Any]]:
    """Stable content hash of every record, and the column buffers.

    The table is hashed column-wise — the columns gathered once
    (:func:`~repro.engine.columnar.gather_columns`) and each hashed by
    value type with numpy, the column hashes chained in sorted-key
    order with the key's own hash — which is what keeps fingerprinting
    off UPA's per-record hot path.  The second result maps a column's
    key to the buffer its hasher built, for the columns that have one;
    a release reads its columns from there instead of gathering the
    rows again.
    """
    if not records:
        return np.empty(0, dtype=_U64), {}
    keys = sorted(records[0])
    columns = None
    if len(set(map(len, records))) == 1:
        try:
            columns = gather_columns(records, keys)
        except KeyError:
            pass
    if columns is None:
        # Rows with different key sets: hash each key set's rows apart.
        return _hash_grouped(records, frozenset, fingerprint_columns)[0], {}
    h = np.full(len(records), len(keys), dtype=_U64)
    buffers = {}
    for key, column in zip(keys, columns):
        h += _U64(zlib.crc32(repr(key).encode("utf-8", "surrogatepass")))
        hashes, buffer = _hash_values(column)
        h ^= hashes
        _mix(h)
        if buffer is not None:
            buffers[key] = buffer
    return h, buffers


def record_fingerprints(records: Sequence[Row]) -> np.ndarray:
    """Stable content hash of every record: one ``uint64`` each."""
    return fingerprint_columns(records)[0]


def record_fingerprint(record: Row) -> int:
    """Fingerprint of one record: the one-row case of the batch hash.

    Tables go through :func:`record_fingerprints`; a numpy call per
    field makes this several times dearer per record.
    """
    return int(record_fingerprints([record])[0])


def partition_of(record: Row, num_partitions: int = 2) -> int:
    """The stable partition a record belongs to."""
    return record_fingerprint(record) % num_partitions


def partition_id_bits(fingerprints: np.ndarray) -> np.ndarray:
    """The two-partition id of every fingerprint: its low bit, as uint8."""
    return (fingerprints & _U64(1)).astype(np.uint8)


def partition_ids_of(records: Sequence[Row]) -> np.ndarray:
    """:func:`partition_of` (two partitions) of every record, as uint8."""
    return partition_id_bits(record_fingerprints(records))


class RecordView:
    """Some records of a table, by position: rows and columns at once.

    ``rows`` is the caller's own row sequence and ``indices`` the
    table positions the view holds, in order.  Iterating (or indexing)
    yields the caller's dict objects themselves, so a row mapper pays
    nothing for the indirection; ``numpy_column`` — the hook
    :func:`repro.core.batch.column_values` probes — answers from the
    release's shared column ``buffers`` instead of gathering the rows
    again.  A slice is a view over the same rows and buffers.
    """

    __slots__ = ("_rows", "_indices", "_buffers")

    def __init__(self, rows: Sequence[Row], indices: np.ndarray,
                 buffers: Dict[Any, Any]):
        self._rows = rows
        self._indices = indices
        self._buffers = buffers

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self) -> Iterator[Row]:
        return map(self._rows.__getitem__, self._indices.tolist())

    def __getitem__(self, item):
        if isinstance(item, slice):
            return RecordView(self._rows, self._indices[item], self._buffers)
        return self._rows[self._indices[item]]

    def numpy_column(self, name: Any) -> Optional[np.ndarray]:
        """The view's values of one column, or None if it has no buffer.

        None sends ``column_values`` to its row gather: the column is
        heterogeneous.
        """
        buffer = self._buffers.get(name)
        if buffer is None:
            return None
        if not isinstance(buffer, np.ndarray):
            # A date / str column, boxed on first request.  Two threads
            # may both box it; either array serves every later reader.
            buffer = self._buffers[name] = object_column(buffer, len(buffer))
        return buffer[self._indices]


@dataclass
class PartitionedSample:
    """Output of Partition & Sample.

    Attributes:
        table: the registered protected table the sample was drawn
            from: its rows, their partition ids and the column buffers
            the hash built (:class:`~repro.core.table.ProtectedTable`).
        sampled_partitions: partition id of each sampled record (uint8).
        domain_samples: n records from D but not in x, as the row batch
            the query's ``sample_domain_batch`` returned.
        sampled_indices: table-order indices of the sampled records
            (an ascending ``intp`` array).
        remaining_indices: table-order indices of S' = x \\ S, per
            partition.

    ``sampled``, ``remaining`` and ``partitions`` are
    :class:`RecordView`s over the table's live rows and buffers: take
    what you need from them before ``append()`` / ``retire()`` move it.
    """

    table: "ProtectedTable"
    sampled_partitions: np.ndarray
    domain_samples: Sequence[Row]
    sampled_indices: np.ndarray
    remaining_indices: Tuple[np.ndarray, np.ndarray]

    @property
    def records(self) -> Sequence[Row]:
        """The protected table's rows."""
        return self.table.rows

    @property
    def partition_ids(self) -> np.ndarray:
        """Partition id of *every* record, in table order (uint8)."""
        return self.table.partition_ids

    @property
    def buffers(self) -> Dict[Any, Any]:
        """The table's column buffers, by column key."""
        return self.table.buffers

    @property
    def sample_size(self) -> int:
        return len(self.sampled_indices)

    def _view(self, indices: np.ndarray) -> RecordView:
        return RecordView(self.table.rows, indices, self.table.buffers)

    @property
    def sampled(self) -> RecordView:
        """The n differing records S, in table order."""
        return self._view(self.sampled_indices)

    @property
    def remaining(self) -> Tuple[RecordView, RecordView]:
        """S' = x \\ S, per partition, original order preserved."""
        return tuple(map(self._view, self.remaining_indices))

    @property
    def partitions(self) -> Tuple[RecordView, RecordView]:
        """Records of x1 and x2, original order preserved.

        Nothing in the pipeline reads it (S and S' are what the phases
        consume).
        """
        ids = self.table.partition_ids
        return tuple(self._view(np.flatnonzero(ids == p)) for p in (0, 1))


def protected_records(query: MapReduceQuery, tables: Tables) -> Sequence[Row]:
    """The query's protected table, which must be there and non-empty."""
    records = tables.get(query.protected_table)
    if records is None:
        raise DPError(
            f"protected table {query.protected_table!r} is not among the "
            f"submitted tables {sorted(tables)}"
        )
    if not records:
        raise DPError(
            f"protected table {query.protected_table!r} is empty; "
            "nothing to protect"
        )
    return records


def _stdlib_setsize(k: int) -> int:
    """``random.Random.sample``'s pool/set threshold for ``k`` picks,
    computed as the stdlib computes it (4 117 at ``k = 1000``)."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


def _chunk_words(population: int, k: int) -> int:
    """How many 32-bit words :func:`sorted_sample` draws at a time: the
    expected number the stdlib uses, sum_i 2**bits / (population - i),
    plus a few standard deviations.  A shortfall draws another chunk."""
    expected = (1 << population.bit_length()) * math.log(
        (population + 0.5) / (population - k + 0.5)
    )
    return int(expected + 6 * math.sqrt(expected)) + 32


def sorted_sample(rng: random.Random, population: int, k: int) -> np.ndarray:
    """``sorted(rng.sample(range(population), k))``, drawn in one batch.

    Above the stdlib's pool threshold, CPython's ``random.Random.sample``
    takes its set branch: ``k`` distinct ``_randbelow(population)``
    draws, each the top ``population.bit_length()`` bits of one 32-bit
    Mersenne Twister word, retried when not below ``population`` or
    already picked.  This reproduces that branch with one
    ``getrandbits(32 * m)`` call, which lays out the next ``m`` words
    least significant first; numpy keeps the first ``k`` distinct
    accepted candidates.  The rng is then restored and advanced by
    exactly the words the stdlib would have used, so the picks and the
    rng state afterwards are both bit-identical to the stdlib's.

    Wherever the stdlib does something else — its pool branch, a
    population of 2**32 or more (more than one word per draw), an rng
    that is not exactly ``random.Random`` (a subclass may draw
    differently) — ``rng.sample`` itself runs.  Returns the sorted picks
    as an ``intp`` array.
    """
    if (type(rng) is not random.Random or k < 1
            or population <= _stdlib_setsize(k) or population >= 1 << 32):
        return np.array(
            sorted(rng.sample(range(population), k)), dtype=np.intp
        )
    bits = population.bit_length()
    chunk = _chunk_words(population, k)
    state = rng.getstate()
    words = np.empty(0, dtype=np.uint32)
    while True:
        drawn = rng.getrandbits(32 * chunk).to_bytes(4 * chunk, "little")
        words = np.concatenate([words, np.frombuffer(drawn, dtype="<u4")])
        candidates = words >> np.uint32(32 - bits)
        if bits <= 16:
            # np.unique's stable argsort is a radix sort on 16-bit ints.
            candidates = candidates.astype(np.uint16)
        accepted = np.flatnonzero(candidates < population)
        # The distinct candidates in value order, and where each was
        # first accepted.
        picks, first = np.unique(candidates[accepted], return_index=True)
        if len(picks) >= k:
            break
    last = np.partition(first, k - 1)[k - 1]
    rng.setstate(state)
    rng.getrandbits(32 * (int(accepted[last]) + 1))
    return picks[first <= last].astype(np.intp)


def partition_and_sample(
    query: MapReduceQuery,
    tables: Tables,
    sample_size: int,
    rng: random.Random,
    table: Optional["ProtectedTable"] = None,
    tracer: Tracer = NULL_TRACER,
) -> PartitionedSample:
    """Run Partition & Sample for ``query`` over its protected table.

    If the dataset has fewer than ``sample_size`` records, every record
    is sampled (the paper: n is lowered to |x|, giving the *exact*
    neighbour set).

    ``table`` is the protected table as a session registered it, now or
    on an earlier release; a caller without a session passes none and
    the rows are hashed here.  Content hashing is deterministic, so the
    output is bitwise identical either way.  An enabled ``tracer`` gets
    one child span per step.
    """
    records = protected_records(query, tables)
    n = min(sample_size, len(records))

    if table is None:
        # Imported late: core.table hashes with this module's functions.
        from repro.core.table import ProtectedTable

        with tracer.span("sampling.fingerprint"):
            table = ProtectedTable(records)
    elif table.rows is not records:
        raise DPError(
            "the registered table is not the submitted "
            f"{query.protected_table!r} list"
        )
    partition_ids = table.partition_ids

    with tracer.span("sampling.split"):
        sampled_indices = sorted_sample(rng, len(records), n)
        sampled_parts = partition_ids[sampled_indices]
        unsampled = np.ones(len(records), dtype=bool)
        unsampled[sampled_indices] = False
        remaining_indices = tuple(
            np.flatnonzero(unsampled & (partition_ids == p)) for p in (0, 1)
        )

    with tracer.span("sampling.domain_sample", records=n) as span:
        domain_samples = query.sample_domain_batch(rng, tables, n)
        span.set_attribute(
            "batched", isinstance(domain_samples, ColumnarPartition)
        )
    return PartitionedSample(
        table=table,
        sampled_partitions=sampled_parts,
        domain_samples=domain_samples,
        sampled_indices=sampled_indices,
        remaining_indices=remaining_indices,
    )
