"""Shared fixtures: a small engine, generated datasets, SQL sessions.

Dataset fixtures are session-scoped (generation is deterministic and
read-only across tests); anything mutable (engine contexts, UPA
sessions) is function-scoped.
"""

from __future__ import annotations

import pytest

from repro.common.config import EngineConfig
from repro.engine import EngineContext
from repro.mining import LifeScienceConfig, make_life_science_tables
from repro.sql import SQLSession
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.tpch.datagen import register_tables

SMALL_SCALE = 2000
TPCH_SEED = 11


@pytest.fixture
def ctx() -> EngineContext:
    """A fresh 4-partition engine context."""
    return EngineContext(EngineConfig(default_parallelism=4))


@pytest.fixture(scope="session")
def tpch_tables():
    """Small deterministic TPC-H tables shared by read-only tests."""
    return TPCHGenerator(
        TPCHConfig(scale_rows=SMALL_SCALE, seed=TPCH_SEED)
    ).generate()


@pytest.fixture(scope="session")
def ml_tables():
    """Small deterministic life-science points table."""
    return make_life_science_tables(
        LifeScienceConfig(num_records=800, dim=3, num_clusters=2, seed=5)
    )


@pytest.fixture
def sql_session(tpch_tables) -> SQLSession:
    """A SQL session with all TPC-H tables registered."""
    session = SQLSession()
    register_tables(session, tpch_tables)
    return session
