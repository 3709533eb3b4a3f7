"""Tests for the extension workloads (Q12/Q14) and CASE WHEN plumbing."""

import pytest

from repro.core import UPAConfig, UPASession
from repro.core.sqlbridge import compile_sql
from repro.sql.expr import CaseWhen, col, lit
from repro.tpch.queries.extras import Q12, Q14, extension_queries


class TestCaseWhenExpression:
    def test_first_matching_branch_wins(self):
        expr = CaseWhen(
            [(col("v") < 0, lit("neg")), (col("v") < 10, lit("small"))],
            lit("big"),
        )
        assert expr.eval({"v": -1}) == "neg"
        assert expr.eval({"v": 5}) == "small"
        assert expr.eval({"v": 50}) == "big"

    def test_no_match_no_default_is_null(self):
        expr = CaseWhen([(col("v") < 0, lit(1))])
        assert expr.eval({"v": 3}) is None

    def test_references(self):
        expr = CaseWhen([(col("a") > 0, col("b"))], col("c"))
        assert expr.references() == {"a", "b", "c"}

    def test_empty_branches_rejected(self):
        from repro.common.errors import AnalysisError

        with pytest.raises(AnalysisError):
            CaseWhen([])

    def test_sql_case_in_projection(self, sql_session):
        rows = sql_session.sql(
            "SELECT CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END AS f "
            "FROM orders LIMIT 5"
        ).collect()
        assert all(r["f"] in (0, 1) for r in rows)

    def test_sql_case_without_else(self, sql_session):
        rows = sql_session.sql(
            "SELECT CASE WHEN o_orderstatus = 'NOPE' THEN 1 END AS x "
            "FROM orders LIMIT 3"
        ).collect()
        assert all(r["x"] is None for r in rows)


class TestExtensionQueries:
    @pytest.mark.parametrize("query", extension_queries(),
                             ids=lambda q: q.name)
    def test_three_forms_agree(self, query, tpch_tables, sql_session):
        mr = query.output(tpch_tables)[0]
        df = query.dataframe(sql_session).collect()[0]["result"] or 0.0
        sql = sql_session.sql(query.sql_text()).collect()[0]["result"] or 0.0
        assert mr == pytest.approx(df)
        assert mr == pytest.approx(sql)

    @pytest.mark.parametrize("query", extension_queries(),
                             ids=lambda q: q.name)
    def test_monoid(self, query, tpch_tables):
        query.validate_monoid(tpch_tables, sample=20)

    @pytest.mark.parametrize("query", extension_queries(),
                             ids=lambda q: q.name)
    def test_provenance_compiler_matches(self, query, tpch_tables):
        compiled = compile_sql(
            query.sql_text(), tpch_tables, query.protected_table,
            domain_sampler=query.sample_domain_record,
        )
        aux = query.build_aux(tpch_tables)
        for record in tpch_tables[query.protected_table][:200]:
            assert compiled.contribution(record) == pytest.approx(
                query.map_record(record, aux)
            )

    @pytest.mark.parametrize("query", extension_queries(),
                             ids=lambda q: q.name)
    def test_runs_under_upa(self, query, tpch_tables):
        session = UPASession(UPAConfig(sample_size=80, seed=2))
        result = session.run(query, tpch_tables, epsilon=0.5)
        assert result.local_sensitivity >= 0

    def test_q12_counts_only_high_priority(self, tpch_tables):
        query = Q12()
        aux = query.build_aux(tpch_tables)
        for order in tpch_tables["orders"][:100]:
            if order["o_orderpriority"] not in ("1-URGENT", "2-HIGH"):
                assert query.map_record(order, aux) == 0.0

    def test_q14_only_promo_parts_contribute(self, tpch_tables):
        query = Q14()
        aux = query.build_aux(tpch_tables)
        promo = aux.promo_partkeys
        for item in tpch_tables["lineitem"][:200]:
            value = query.map_record(item, aux)
            if item["l_partkey"] not in promo and value != 0.0:
                pytest.fail("non-promo part contributed")


class TestReplay:
    def test_replay_returns_identical_result(self, tpch_tables):
        from repro.tpch.workload import query_by_name

        session = UPASession(UPAConfig(sample_size=60, seed=1))
        query = query_by_name("tpch1")
        first = session.run(query, tpch_tables, epsilon=0.5)
        second = session.run(query, tpch_tables, epsilon=0.5)
        assert second is first  # replayed object, no recomputation

    def test_replay_spends_budget_once(self, tpch_tables):
        from repro.dp import PrivacyAccountant
        from repro.tpch.workload import query_by_name

        accountant = PrivacyAccountant(total_epsilon=0.6)
        session = UPASession(
            UPAConfig(sample_size=60, seed=1), accountant=accountant,
        )
        query = query_by_name("tpch1")
        session.run(query, tpch_tables, epsilon=0.5)
        session.run(query, tpch_tables, epsilon=0.5)  # free
        assert accountant.remaining_epsilon() == pytest.approx(0.1)

    def test_a_neighbour_is_not_replayed(self, tpch_tables):
        from repro.tpch.workload import query_by_name

        session = UPASession(UPAConfig(sample_size=60, seed=1))
        query = query_by_name("tpch1")
        first = session.run(query, tpch_tables, epsilon=0.5)
        neighbour = dict(tpch_tables)
        neighbour["lineitem"] = tpch_tables["lineitem"][:-1]
        second = session.run(query, neighbour, epsilon=0.5)
        assert second is not first
        assert second.enforcement.matched_prior  # enforcer still fires
