"""The partitioner decides which reduce partition a key belongs to."""

from __future__ import annotations

import datetime
from typing import Any


def _portable_hash(key: Any) -> int:
    """Deterministic, type-stable hash for partitioning.

    Python's builtin ``hash`` is randomized for strings across processes;
    we need a stable mapping so that repeated runs shuffle identically.
    """
    if key is None:
        return 0
    if isinstance(key, datetime.date):
        return key.toordinal()
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key
    if isinstance(key, float):
        if key.is_integer():
            return int(key)
        return hash(key)
    if isinstance(key, str):
        # FNV-1a, stable across runs.
        acc = 0xCBF29CE484222325
        for ch in key.encode("utf-8"):
            acc ^= ch
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return acc
    if isinstance(key, tuple):
        acc = 0x345678
        for item in key:
            acc = (acc * 1000003) ^ _portable_hash(item)
            acc &= 0xFFFFFFFFFFFFFFFF
        return acc
    return hash(key)


class HashPartitioner:
    """Partition by stable hash of the key (Spark's default)."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        return _portable_hash(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashPartitioner)
            and self.num_partitions == other.num_partitions
        )

    def __hash__(self) -> int:
        return hash(("HashPartitioner", self.num_partitions))
