"""Block store: LRU cache of materialized RDD partitions.

``rdd.cache()`` marks an RDD persistent; the first computation of each
partition stores the realized record list here, and later computations
are served from memory.  Eviction follows LRU with a block-count
capacity.  Losing a block is always safe: the scheduler recomputes it
from lineage (this is exercised by the fault-injection tests).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.engine.metrics import MetricsRegistry

BlockId = Tuple[int, int]  # (rdd_id, partition_index)


class BlockStore:
    """Thread-safe LRU store of partition blocks."""

    def __init__(self, capacity_blocks: int, metrics: MetricsRegistry):
        if capacity_blocks <= 0:
            raise ValueError("capacity_blocks must be positive")
        self._capacity = capacity_blocks
        self._metrics = metrics
        self._lock = threading.Lock()
        self._blocks: "OrderedDict[BlockId, List]" = OrderedDict()

    def get(self, block_id: BlockId) -> Optional[List]:
        """Return the cached block, or None on miss; updates LRU order."""
        with self._lock:
            block = self._blocks.get(block_id)
            if block is None:
                self._metrics.incr(MetricsRegistry.CACHE_MISSES)
                return None
            self._blocks.move_to_end(block_id)
            self._metrics.incr(MetricsRegistry.CACHE_HITS)
            return block

    def put(self, block_id: BlockId, records: List) -> None:
        """Insert a block, evicting LRU blocks past capacity."""
        with self._lock:
            self._blocks[block_id] = records
            self._blocks.move_to_end(block_id)
            while len(self._blocks) > self._capacity:
                self._blocks.popitem(last=False)
                self._metrics.incr(MetricsRegistry.CACHE_EVICTIONS)

    def evict_rdd(self, rdd_id: int) -> int:
        """Drop every block of an RDD (``unpersist``); returns count dropped."""
        with self._lock:
            victims = [bid for bid in self._blocks if bid[0] == rdd_id]
            for bid in victims:
                del self._blocks[bid]
        return len(victims)

    def contains(self, block_id: BlockId) -> bool:
        with self._lock:
            return block_id in self._blocks

    def drop(self, block_id: BlockId) -> bool:
        """Drop one block (used by fault-injection tests). True if present."""
        with self._lock:
            return self._blocks.pop(block_id, None) is not None

    def clear(self) -> int:
        """Drop every block (``EngineContext.stop``); returns count dropped.

        Not counted as evictions: eviction metrics measure capacity
        pressure, and a lifecycle clear is not capacity pressure.
        """
        with self._lock:
            dropped = len(self._blocks)
            self._blocks.clear()
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)
