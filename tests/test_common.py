"""Tests for repro.common: rng, config, timing, error types."""

import time

import pytest

from repro.common import (
    EngineConfig,
    PrivacyBudgetExceeded,
    ReproError,
    Timer,
    derive_seed,
    make_rng,
)
from repro.common.errors import (
    DPError,
    EngineError,
    FlexUnsupportedError,
    ParseError,
    SQLError,
    TaskFailedError,
)
from repro.common.rng import make_numpy_rng


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_derive_seed_label_sensitive(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_derive_seed_parent_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_seed_positive_63bit(self):
        seed = derive_seed(123456789, "label")
        assert 0 <= seed < (1 << 63)

    def test_make_rng_with_label(self):
        a = make_rng(7, "x").random()
        b = make_rng(7, "x").random()
        c = make_rng(7, "y").random()
        assert a == b != c

    def test_make_rng_none_is_nondeterministic_instance(self):
        rng = make_rng(None)
        assert 0.0 <= rng.random() < 1.0

    def test_numpy_rng(self):
        a = make_numpy_rng(3, "z").normal()
        b = make_numpy_rng(3, "z").normal()
        assert a == b


class TestConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.default_parallelism == 4
        assert config.max_task_retries == 3

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().default_parallelism = 99  # type: ignore[misc]


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_zero_before_use(self):
        assert Timer().elapsed == 0.0


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(EngineError, ReproError)
        assert issubclass(SQLError, ReproError)
        assert issubclass(DPError, ReproError)
        assert issubclass(PrivacyBudgetExceeded, DPError)
        assert issubclass(FlexUnsupportedError, DPError)

    def test_budget_error_fields(self):
        err = PrivacyBudgetExceeded(requested=0.5, remaining=0.1)
        assert err.requested == 0.5
        assert err.remaining == 0.1
        assert "0.5" in str(err)

    def test_task_failed_fields(self):
        cause = ValueError("boom")
        err = TaskFailedError(3, 1, 4, cause)
        assert err.stage_id == 3
        assert err.cause is cause

    def test_parse_error_position(self):
        err = ParseError("bad token", position=17)
        assert "17" in str(err)
