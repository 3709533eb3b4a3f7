"""Engine configuration.

A single frozen dataclass so configuration is explicit and immutable
once a context is created.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class EngineConfig:
    """Configuration for :class:`repro.engine.context.EngineContext`.

    Attributes:
        default_parallelism: number of partitions used when callers do
            not specify one.
        max_task_retries: how many times a failed task is retried before
            the job is aborted (lineage makes retries cheap).
        cache_capacity_blocks: maximum number of partition blocks kept by
            the block store before LRU eviction.
        shuffle_record_cost: simulated network cost (abstract units) per
            shuffled record, used by the metrics-based cost model.
        broadcast_record_cost: simulated cost per broadcast record.
        seed: base seed for any engine-internal randomness (sampling,
            fault injection).
    """

    default_parallelism: int = 4
    max_task_retries: int = 3
    cache_capacity_blocks: int = 4096
    shuffle_record_cost: float = 1.0
    broadcast_record_cost: float = 0.05
    seed: Optional[int] = 0

    def with_overrides(self, **kwargs) -> "EngineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = EngineConfig()
