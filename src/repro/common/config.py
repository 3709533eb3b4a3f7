"""Engine configuration.

A single frozen dataclass so configuration is explicit and immutable
once a context is created.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """Configuration for :class:`repro.engine.context.EngineContext`.

    Attributes:
        default_parallelism: number of partitions used when callers do
            not specify one.
        max_task_retries: how many times a failed task is retried before
            the job is aborted (lineage makes retries cheap).
    """

    default_parallelism: int = 4
    max_task_retries: int = 3


DEFAULT_CONFIG = EngineConfig()
