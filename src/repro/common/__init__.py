"""Shared utilities used across every subsystem of the UPA reproduction.

This package deliberately holds only small, dependency-free helpers:
error types, seeded randomness, configuration and timing.  Everything
else lives in its own subsystem package (``repro.engine``, ``repro.sql``,
``repro.core``, ...).
"""

from repro.common.config import EngineConfig
from repro.common.errors import (
    DPError,
    EngineError,
    FlexUnsupportedError,
    PrivacyBudgetExceeded,
    ReproError,
    SQLError,
)
from repro.common.rng import derive_seed, make_rng
from repro.common.timing import Timer

__all__ = [
    "DPError",
    "EngineConfig",
    "EngineError",
    "FlexUnsupportedError",
    "PrivacyBudgetExceeded",
    "ReproError",
    "SQLError",
    "Timer",
    "derive_seed",
    "make_rng",
]
