"""Tests for whole-system behaviours: fault injection through UPA,
shared enforcer across sessions, parser precedence properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import EngineConfig
from repro.core import UPAConfig, UPASession
from repro.core.range_enforcer import RangeEnforcer
from repro.engine import EngineContext, FaultInjector
from repro.sql import SQLSession
from repro.tpch.workload import query_by_name


def _scalar(query):
    """The one value of a one-row, one-column result."""
    ((value,),) = (row.values() for row in query.collect())
    return value


class TestSystemBehaviours:
    def test_upa_results_survive_task_faults(self, tpch_tables):
        """Engine-level failures must not change UPA's computed values."""
        query = query_by_name("tpch6")
        clean = UPASession(UPAConfig(sample_size=60, seed=4))
        clean_result = clean.run(query, tpch_tables, epsilon=0.5)

        faulty_engine = EngineContext(
            EngineConfig(default_parallelism=2, max_task_retries=8)
        )
        faulty_engine.install_fault_injector(
            FaultInjector(failure_probability=0.25, max_failures=12, seed=5)
        )
        faulty = UPASession(
            UPAConfig(sample_size=60, seed=4), engine=faulty_engine
        )
        faulty_result = faulty.run(query, tpch_tables, epsilon=0.5)

        assert faulty_engine.metrics.get("task_retries") > 0
        assert np.allclose(
            faulty_result.plain_output, clean_result.plain_output
        )
        assert faulty_result.local_sensitivity == pytest.approx(
            clean_result.local_sensitivity
        )

    def test_shared_enforcer_across_sessions(self, tpch_tables):
        """One dataset guarded by one enforcer: a second *session*
        resubmitting a neighbouring dataset is still detected."""
        enforcer = RangeEnforcer()
        query = query_by_name("tpch1")
        first_session = UPASession(
            UPAConfig(sample_size=60, seed=1), enforcer=enforcer
        )
        first_session.run(query, tpch_tables, epsilon=0.5)

        neighbour = dict(tpch_tables)
        neighbour["lineitem"] = tpch_tables["lineitem"][:-1]
        second_session = UPASession(
            UPAConfig(sample_size=60, seed=2), enforcer=enforcer
        )
        result = second_session.run(query, neighbour, epsilon=0.5)
        assert result.enforcement.matched_prior

    def test_session_isolated_enforcers_do_not_detect(self, tpch_tables):
        """Without a shared enforcer the attack is NOT detected — the
        registry is the defence, not the session object."""
        query = query_by_name("tpch1")
        UPASession(UPAConfig(sample_size=60, seed=1)).run(
            query, tpch_tables, epsilon=0.5
        )
        neighbour = dict(tpch_tables)
        neighbour["lineitem"] = tpch_tables["lineitem"][:-1]
        result = UPASession(UPAConfig(sample_size=60, seed=2)).run(
            query, neighbour, epsilon=0.5
        )
        assert not result.enforcement.matched_prior


class TestParserPrecedenceProperties:
    @given(
        a=st.integers(-9, 9), b=st.integers(-9, 9), c=st.integers(1, 9)
    )
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_precedence_matches_python(self, a, b, c):
        session = SQLSession()
        session.create_table("one", [{"x": 1}])
        got = _scalar(session.sql(
            f"SELECT {a} + {b} * {c} AS v FROM one"
        ))
        assert got == a + b * c

    @given(a=st.integers(-9, 9), b=st.integers(-9, 9), c=st.integers(-9, 9))
    @settings(max_examples=40, deadline=None)
    def test_parenthesized_expressions(self, a, b, c):
        session = SQLSession()
        session.create_table("one", [{"x": 1}])
        got = _scalar(session.sql(
            f"SELECT ({a} + {b}) * {c} AS v FROM one"
        ))
        assert got == (a + b) * c

    @given(v=st.integers(-20, 20), lo=st.integers(-10, 10),
           hi=st.integers(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_and_binds_tighter_than_or(self, v, lo, hi):
        session = SQLSession()
        session.create_table("t", [{"x": v}])
        got = _scalar(session.sql(
            f"SELECT COUNT(*) AS n FROM t "
            f"WHERE x = 0 OR x > {lo} AND x < {hi}"
        ))
        expected = 1 if (v == 0 or (v > lo and v < hi)) else 0
        assert got == expected

    @given(v=st.integers(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_unary_minus(self, v):
        session = SQLSession()
        session.create_table("t", [{"x": v}])
        assert _scalar(session.sql("SELECT -x AS n FROM t")) == -v
