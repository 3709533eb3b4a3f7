"""Tests for the extension workloads (Q12/Q14 as SQL text) and CASE
WHEN plumbing."""

import datetime

import pytest

from repro.core import UPAConfig, UPASession
from repro.sql.expr import CaseWhen, Literal, col
from tests.sql_extensions import EXTENSIONS, compile_extension


class TestCaseWhenExpression:
    def test_first_matching_branch_wins(self):
        expr = CaseWhen(
            [(col("v") < 0, Literal("neg")), (col("v") < 10, Literal("small"))],
            Literal("big"),
        )
        assert expr.eval({"v": -1}) == "neg"
        assert expr.eval({"v": 5}) == "small"
        assert expr.eval({"v": 50}) == "big"

    def test_no_match_no_default_is_null(self):
        expr = CaseWhen([(col("v") < 0, Literal(1))])
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
            "FROM orders"
        ).collect()
        assert rows and all(r["f"] in (0, 1) for r in rows)

    def test_sql_case_without_else(self, sql_session):
        rows = sql_session.sql(
            "SELECT CASE WHEN o_orderstatus = 'NOPE' THEN 1 END AS x "
            "FROM orders"
        ).collect()
        assert rows and all(r["x"] is None for r in rows)


def _q12_reference(tables):
    """Each order's contribution to Q12, written out in Python: its
    qualifying lineitems if its priority is high, else 0."""
    lo, hi = datetime.date(1994, 1, 1), datetime.date(1995, 1, 1)
    qualifying = {}
    for item in tables["lineitem"]:
        if (item["l_shipmode"] in ("MAIL", "SHIP")
                and lo <= item["l_receiptdate"] < hi):
            key = item["l_orderkey"]
            qualifying[key] = qualifying.get(key, 0) + 1

    def contribution(order):
        if order["o_orderpriority"] not in ("1-URGENT", "2-HIGH"):
            return 0.0
        return float(qualifying.get(order["o_orderkey"], 0))

    return contribution


def _q14_reference(tables):
    """Each lineitem's contribution to Q14, written out in Python: its
    discounted price if shipped in 1995 and its part is promotional."""
    lo, hi = datetime.date(1995, 1, 1), datetime.date(1996, 1, 1)
    promo = {
        p["p_partkey"] for p in tables["part"]
        if p["p_type"].startswith("PROMO")
    }

    def contribution(item):
        if not lo <= item["l_shipdate"] < hi:
            return 0.0
        if item["l_partkey"] not in promo:
            return 0.0
        return item["l_extendedprice"] * (1 - item["l_discount"])

    return contribution


_REFERENCES = {"tpch12": _q12_reference, "tpch14": _q14_reference}


class TestExtensionQueries:
    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    def test_compiled_output_is_the_plain_sql_answer(
        self, name, tpch_tables, sql_session
    ):
        text = EXTENSIONS[name][0]
        compiled = compile_extension(name, tpch_tables).output(tpch_tables)
        sql = sql_session.sql(text).collect()[0]["result"] or 0.0
        assert compiled[0] == pytest.approx(sql)

    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    def test_monoid(self, name, tpch_tables):
        compile_extension(name, tpch_tables).validate_monoid(
            tpch_tables, sample=20
        )

    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    def test_contributions_match_a_python_reference(self, name, tpch_tables):
        compiled = compile_extension(name, tpch_tables)
        aux = compiled.build_aux(tpch_tables)
        reference = _REFERENCES[name](tpch_tables)
        records = tpch_tables[compiled.protected_table]
        assert sum(map(reference, records)) > 0
        for record in records[:200]:
            assert compiled.map_record(record, aux) == pytest.approx(
                reference(record)
            )

    @pytest.mark.parametrize("name", sorted(EXTENSIONS))
    def test_runs_under_upa(self, name, tpch_tables):
        text, protected, sampler = EXTENSIONS[name]
        session = UPASession(UPAConfig(sample_size=80, seed=2))
        result = session.run_sql(
            text, tpch_tables, protected, epsilon=0.5,
            domain_sampler=sampler,
        )
        assert result.local_sensitivity >= 0

    def test_q12_counts_only_high_priority(self, tpch_tables):
        query = compile_extension("tpch12", tpch_tables)
        aux = query.build_aux(tpch_tables)
        for order in tpch_tables["orders"][:100]:
            if order["o_orderpriority"] not in ("1-URGENT", "2-HIGH"):
                assert query.map_record(order, aux) == 0.0

    def test_q14_only_promo_parts_contribute(self, tpch_tables):
        query = compile_extension("tpch14", tpch_tables)
        aux = query.build_aux(tpch_tables)
        promo = {
            p["p_partkey"] for p in tpch_tables["part"]
            if p["p_type"].startswith("PROMO")
        }
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
