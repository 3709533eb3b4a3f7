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

import random
import zlib
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import DPError
from repro.core.query import MapReduceQuery, Row, Tables
from repro.engine.columnar import ColumnarPartition
from repro.obs.tracing import NULL_TRACER, Tracer

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
                  hasher: Callable[[list], np.ndarray]) -> np.ndarray:
    """Hash ``items`` one ``group_of`` group at a time, in item order."""
    groups: Dict[Any, List[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(group_of(item), []).append(i)
    out = np.empty(len(items), dtype=_U64)
    for indices in groups.values():
        out[indices] = hasher([items[i] for i in indices])
    return out


def _crc32s(texts: List[str]) -> np.ndarray:
    return np.fromiter(
        (zlib.crc32(t.encode("utf-8", "surrogatepass")) for t in texts),
        dtype=_U64, count=len(texts),
    )


def _fits_int64(value: int) -> bool:
    return _INT64_MIN <= value <= _INT64_MAX


def _hash_ints(values: List[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64).view(_U64) ^ _INT
    except OverflowError:
        # Ints beyond int64 hash by repr; the rest keep their pattern.
        return _hash_grouped(
            values, _fits_int64,
            lambda ints: (
                _hash_ints(ints) if _fits_int64(ints[0]) else _hash_other(ints)
            ),
        )


def _hash_floats(values: List[float]) -> np.ndarray:
    return np.array(values, dtype=np.float64).view(_U64) ^ _FLOAT


def _hash_dates(values: List[date]) -> np.ndarray:
    ordinals = np.fromiter(
        map(date.toordinal, values), dtype=_U64, count=len(values)
    )
    return ordinals ^ _DATE


def _hash_strs(values: List[str]) -> np.ndarray:
    distinct = list(set(values))
    memo = dict(zip(distinct, _crc32s(distinct).tolist()))
    crcs = np.fromiter(
        map(memo.__getitem__, values), dtype=_U64, count=len(values)
    )
    return crcs ^ _STR


def _hash_tuples(values: List[tuple]) -> np.ndarray:
    if len(set(map(len, values))) > 1:
        return _hash_grouped(values, len, _hash_tuples)
    width = len(values[0])
    h = np.full(len(values), _TUPLE + _U64(width), dtype=_U64)
    for position in zip(*values):
        h ^= _hash_values(list(position))
        _mix(h)
    return h


def _hash_other(values: list) -> np.ndarray:
    """Per-value fallback (None, bool, huge ints, lists, ...): crc32 of repr."""
    return _crc32s([repr(v) for v in values]) ^ _OTHER


_HASHERS: Dict[type, Callable[[list], np.ndarray]] = {
    int: _hash_ints, float: _hash_floats, date: _hash_dates,
    str: _hash_strs, tuple: _hash_tuples,
}


def _hash_values(values: list) -> np.ndarray:
    """One ``uint64`` per value of a non-empty column."""
    types = set(map(type, values))
    if len(types) > 1:
        return _hash_grouped(values, type, _hash_values)
    return _HASHERS.get(types.pop(), _hash_other)(values)


def record_fingerprints(records: Sequence[Row]) -> np.ndarray:
    """Stable content hash of every record: one ``uint64`` each.

    The table is hashed column-wise — each column gathered once and
    hashed by value type with numpy, the column hashes chained in
    sorted-key order with the key's own hash — which is what keeps
    fingerprinting off UPA's per-record hot path.
    """
    if not records:
        return np.empty(0, dtype=_U64)
    keys = sorted(records[0])
    columns = None
    if len(set(map(len, records))) == 1:
        try:
            columns = [[record[key] for record in records] for key in keys]
        except KeyError:
            pass
    if columns is None:
        # Rows with different key sets: hash each key set's rows apart.
        return _hash_grouped(records, frozenset, record_fingerprints)
    h = np.full(len(records), len(keys), dtype=_U64)
    for key, column in zip(keys, columns):
        h += _U64(zlib.crc32(repr(key).encode("utf-8", "surrogatepass")))
        h ^= _hash_values(column)
        _mix(h)
    return h


def record_fingerprint(record: Row) -> int:
    """Fingerprint of one record: the one-row case of the batch hash.

    Tables go through :func:`record_fingerprints`; a numpy call per
    field makes this several times dearer per record.
    """
    return int(record_fingerprints([record])[0])


def partition_of(record: Row, num_partitions: int = 2) -> int:
    """The stable partition a record belongs to."""
    return record_fingerprint(record) % num_partitions


def partition_ids_of(records: Sequence[Row]) -> np.ndarray:
    """:func:`partition_of` (two partitions) of every record, as uint8."""
    return (record_fingerprints(records) & _U64(1)).astype(np.uint8)


@dataclass
class PartitionedSample:
    """Output of Partition & Sample.

    Attributes:
        records: the protected table the sample was drawn from.
        sampled: the n differing records S (in sample order).
        sampled_partitions: partition id of each sampled record.
        domain_samples: n records from D but not in x, as the row batch
            the query's ``sample_domain_batch`` returned.
        partition_ids: partition id of *every* record, in table order
            (a uint8 array).  Partitioning is content-hashed and records
            are immutable within the session contract, so the
            incremental path caches it across runs and only hashes
            appended records.
        sampled_indices: table-order indices of the sampled records.
        remaining_indices: table-order indices of S' = x \\ S, per
            partition.
    """

    records: Sequence[Row]
    sampled: List[Row]
    sampled_partitions: List[int]
    domain_samples: Sequence[Row]
    partition_ids: np.ndarray
    sampled_indices: List[int]
    remaining_indices: Tuple[np.ndarray, np.ndarray]

    @property
    def sample_size(self) -> int:
        return len(self.sampled)

    @cached_property
    def remaining(self) -> Tuple[List[Row], List[Row]]:
        """S' = x \\ S, per partition, original order preserved.

        Taken on first access: an incremental release folds cached
        blocks by ``remaining_indices`` and never reads the rows.
        """
        records = self.records
        return tuple(
            [records[i] for i in indices.tolist()]
            for indices in self.remaining_indices
        )

    @cached_property
    def partitions(self) -> Tuple[List[Row], List[Row]]:
        """Records of x1 and x2, original order preserved.

        Nothing in the pipeline reads it (S and S' are what the phases
        consume).
        """
        records, ids = self.records, self.partition_ids
        return tuple(
            [records[i] for i in np.flatnonzero(ids == p).tolist()]
            for p in (0, 1)
        )


def partition_and_sample(
    query: MapReduceQuery,
    tables: Tables,
    sample_size: int,
    rng: random.Random,
    partition_ids: Optional[np.ndarray] = None,
    tracer: Tracer = NULL_TRACER,
) -> PartitionedSample:
    """Run Partition & Sample for ``query`` over its protected table.

    If the dataset has fewer than ``sample_size`` records, every record
    is sampled (the paper: n is lowered to |x|, giving the *exact*
    neighbour set).

    ``partition_ids`` optionally supplies the precomputed content-hash
    partition of every record (one id per record, table order) so
    incremental runs skip re-fingerprinting the whole table; content
    hashing is deterministic, so the output is bitwise identical either
    way.  An enabled ``tracer`` gets one child span per step.
    """
    records = tables[query.protected_table]
    if not records:
        raise DPError(
            f"protected table {query.protected_table!r} is empty; "
            "nothing to protect"
        )
    n = min(sample_size, len(records))

    with tracer.span("sampling.fingerprint"):
        if partition_ids is None:
            partition_ids = partition_ids_of(records)
        elif len(partition_ids) != len(records):
            raise DPError(
                f"partition_ids has {len(partition_ids)} entries for "
                f"{len(records)} records"
            )

    with tracer.span("sampling.split"):
        sampled_indices = sorted(rng.sample(range(len(records)), n))
        sampled = [records[i] for i in sampled_indices]
        sampled_parts = partition_ids[sampled_indices].tolist()
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
        records=records,
        sampled=sampled,
        sampled_partitions=sampled_parts,
        domain_samples=domain_samples,
        partition_ids=partition_ids,
        sampled_indices=sampled_indices,
        remaining_indices=remaining_indices,
    )
