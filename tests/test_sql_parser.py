"""Tests for the SQL text parser and its planner."""

import datetime

import pytest

from repro.common.errors import AnalysisError, ParseError
from repro.sql import SQLSession
from repro.sql.parser import tokenize


@pytest.fixture
def session():
    sess = SQLSession()
    sess.create_table(
        "emp",
        [
            {"eid": i, "dept": i % 3, "salary": 1000.0 + 100 * i,
             "name": f"emp{i}",
             "hired": datetime.date(2000 + i % 5, 1, 15)}
            for i in range(30)
        ],
    )
    sess.create_table(
        "dept", [{"did": d, "dname": f"d{d}"} for d in range(3)]
    )
    sess.create_table(
        "bonus", [{"beid": i, "amount": 50 * i} for i in range(0, 30, 3)]
    )
    return sess


def _scalar(query):
    """The one value of a one-row, one-column result."""
    ((value,),) = (row.values() for row in query.collect())
    return value


class TestTokenizer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a FROM t WHERE a >= 1.5")
        kinds = [t.kind for t in tokens]
        assert kinds == ["keyword", "ident", "keyword", "ident",
                         "keyword", "ident", "op", "number", "eof"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "'it''s'"

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT ;")

    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt FROM where")
        assert all(t.kind == "keyword" for t in tokens[:-1])


class TestBasicQueries:
    def test_select_star(self, session):
        rows = session.sql("SELECT * FROM dept").collect()
        assert len(rows) == 3
        assert set(rows[0]) == {"did", "dname"}

    def test_select_columns_and_alias(self, session):
        rows = session.sql(
            "SELECT eid, salary * 2 AS double_pay FROM emp WHERE eid = 0"
        ).collect()
        assert rows == [{"eid": 0, "double_pay": 2000.0}]

    def test_where_comparison(self, session):
        n = _scalar(session.sql("SELECT COUNT(*) AS n FROM emp WHERE salary > 3500"))
        assert n == sum(1 for i in range(30) if 1000 + 100 * i > 3500)

    def test_where_and_or_not(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp "
            "WHERE (dept = 0 OR dept = 1) AND NOT eid = 0"
        ))
        assert n == sum(1 for i in range(1, 30) if i % 3 in (0, 1))

    def test_between(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp WHERE eid BETWEEN 5 AND 7"
        ))
        assert n == 3

    def test_not_between(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp WHERE eid NOT BETWEEN 0 AND 27"
        ))
        assert n == 2

    def test_in_list(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp WHERE eid IN (1, 2, 99)"
        ))
        assert n == 2

    def test_like(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp WHERE name LIKE 'emp1%'"
        ))
        assert n == 11  # emp1, emp10..emp19

    def test_is_null(self, session):
        session.create_table("nulls", [{"x": None}, {"x": 3}])
        assert _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM nulls WHERE x IS NULL"
        )) == 1
        assert _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM nulls WHERE x IS NOT NULL"
        )) == 1

    def test_date_literal_and_interval(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp "
            "WHERE hired < DATE '2003-01-01' - INTERVAL '30' DAY"
        ))
        assert n == sum(1 for i in range(30) if 2000 + i % 5 <= 2002)

    def test_scalar_function(self, session):
        rows = session.sql(
            "SELECT upper(name) AS u FROM emp WHERE eid = 0"
        ).collect()
        assert rows == [{"u": "EMP0"}]

    def test_trailing_garbage_rejected(self, session):
        with pytest.raises(ParseError):
            session.sql("SELECT * FROM dept extra garbage ,")

    def test_unknown_table(self, session):
        with pytest.raises(AnalysisError):
            session.sql("SELECT * FROM nope")

    def test_unknown_column(self, session):
        with pytest.raises(AnalysisError):
            session.sql("SELECT wat FROM dept")


class TestAggregates:
    def test_global_count(self, session):
        assert _scalar(session.sql("SELECT COUNT(*) AS n FROM emp")) == 30

    def test_one_row_of_several_aggregates(self, session):
        rows = session.sql(
            "SELECT COUNT(*) AS n, AVG(salary) AS pay, "
            "MAX(salary) - MIN(salary) AS spread FROM emp WHERE dept = 1"
        ).collect()
        assert rows == [{"n": 10, "pay": 2450.0, "spread": 2700.0}]

    def test_sum_min_max(self, session):
        row = session.sql(
            "SELECT SUM(salary) AS s, MIN(salary) AS lo, MAX(salary) AS hi "
            "FROM emp"
        ).collect()[0]
        assert row["lo"] == 1000.0
        assert row["hi"] == 3900.0
        assert row["s"] == sum(1000.0 + 100 * i for i in range(30))

    def test_count_distinct(self, session):
        assert _scalar(session.sql(
            "SELECT COUNT(DISTINCT dept) AS n FROM emp"
        )) == 3

    def test_aggregate_of_expression(self, session):
        value = _scalar(session.sql(
            "SELECT SUM(salary * 0.1) AS s FROM emp WHERE dept = 0"
        ))
        expected = sum(
            (1000.0 + 100 * i) * 0.1 for i in range(30) if i % 3 == 0
        )
        assert value == pytest.approx(expected)

    def test_select_star_in_aggregate_rejected(self, session):
        with pytest.raises(AnalysisError, match="SELECT \\*"):
            session.sql("SELECT *, COUNT(*) AS n FROM emp")

    def test_column_outside_an_aggregate_rejected(self, session):
        with pytest.raises(AnalysisError, match="outside an aggregate"):
            session.sql("SELECT eid, COUNT(*) AS n FROM emp")


class TestJoinsAndSubqueries:
    def test_comma_join(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp, dept WHERE dept = did"
        ))
        assert n == 30

    def test_three_way_join(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp, dept, bonus "
            "WHERE dept = did AND eid = beid"
        ))
        assert n == 10

    def test_join_with_alias_qualified_columns(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp e, dept d "
            "WHERE e.dept = d.did AND d.did = 1"
        ))
        assert n == 10

    def test_disconnected_tables_rejected(self, session):
        with pytest.raises(AnalysisError):
            session.sql("SELECT COUNT(*) AS n FROM emp, dept")

    def test_exists(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp WHERE EXISTS "
            "(SELECT * FROM bonus WHERE beid = eid AND amount > 100)"
        ))
        assert n == sum(1 for i in range(0, 30, 3) if 50 * i > 100)

    def test_not_exists(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp WHERE NOT EXISTS "
            "(SELECT * FROM bonus WHERE beid = eid)"
        ))
        assert n == 20

    def test_in_subquery(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp WHERE eid IN "
            "(SELECT beid FROM bonus)"
        ))
        assert n == 10

    def test_not_in_subquery(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp WHERE eid NOT IN "
            "(SELECT beid FROM bonus WHERE amount > 500)"
        ))
        big_bonus = {i for i in range(0, 30, 3) if 50 * i > 500}
        assert n == 30 - len(big_bonus)

    def test_scalar_subquery(self, session):
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp "
            "WHERE salary > (SELECT AVG(salary) FROM emp)"
        ))
        assert n == 15

    def test_correlated_residual_inequality(self, session):
        session.create_table(
            "li",
            [{"ok": 1, "sk": 1}, {"ok": 1, "sk": 2}, {"ok": 2, "sk": 9}],
        )
        n = _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM li l1 WHERE EXISTS "
            "(SELECT * FROM li l2 WHERE l2.ok = l1.ok AND l2.sk <> l1.sk)"
        ))
        assert n == 2

    def test_uncorrelated_exists_rejected(self, session):
        with pytest.raises(AnalysisError):
            session.sql(
                "SELECT COUNT(*) AS n FROM emp WHERE EXISTS "
                "(SELECT * FROM bonus WHERE amount > 0)"
            )

    def test_exists_outside_where_rejected(self, session):
        with pytest.raises(ParseError):
            session.sql("SELECT EXISTS (SELECT * FROM dept) FROM emp")


class TestWhatTheGrammarRefuses:
    """The plans hold only what SQL text reaches, and the grammar does
    not reach what they no longer hold."""

    @pytest.mark.parametrize("text", [
        "SELECT DISTINCT dept FROM emp",
        "SELECT SUM(DISTINCT salary) AS s FROM emp",
        "SELECT COUNT(*) AS n FROM emp LEFT JOIN dept ON dept = did",
    ])
    def test_parse_errors(self, session, text):
        with pytest.raises(ParseError):
            session.sql(text)

    @pytest.mark.parametrize("func", ["VAR", "STDDEV"])
    def test_no_variance_aggregates(self, session, func):
        with pytest.raises(AnalysisError, match="unknown scalar function"):
            session.sql(f"SELECT {func}(salary) AS v FROM emp")

    @pytest.mark.parametrize("text, clause", [
        ("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept", "GROUP BY"),
        ("SELECT COUNT(*) AS n FROM emp HAVING COUNT(*) > 1", "HAVING"),
        ("SELECT eid FROM emp ORDER BY eid DESC", "ORDER BY"),
        ("SELECT eid FROM emp WHERE dept = 1 LIMIT 3", "LIMIT"),
        ("SELECT eid FROM emp UNION ALL SELECT beid FROM bonus",
         "UNION ALL"),
        ("SELECT eid FROM emp UNION SELECT beid FROM bonus", "UNION"),
        ("SELECT COUNT(*) AS n FROM emp WHERE eid IN "
         "(SELECT beid FROM bonus ORDER BY beid)", "ORDER BY"),
        ("SELECT COUNT(*) AS n FROM emp WHERE salary > "
         "(SELECT AVG(salary) FROM emp GROUP BY dept)", "GROUP BY"),
    ], ids=["group-by", "having", "order-by", "limit", "union-all",
            "union", "in-subquery", "scalar-subquery"])
    def test_a_query_yields_at_most_one_aggregate_row(
        self, session, text, clause
    ):
        """A query plans plain rows or one aggregate row (up to 1.34.0
        most of these parsed), so each is refused with an error that
        names the clause and points at it."""
        with pytest.raises(ParseError, match=clause) as refused:
            session.sql(text)
        keyword = clause.split()[0]
        assert refused.value.position == text.index(keyword)

    def test_group_by_keeps_its_explanation(self, session):
        with pytest.raises(ParseError,
                           match="GROUP BY output is not a scalar query"):
            session.sql("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept")

    def test_count_distinct_is_the_one_distinct(self, session):
        assert _scalar(session.sql(
            "SELECT COUNT(DISTINCT dept) AS n FROM emp"
        )) == 3


class TestScalarSubqueryTables:
    def test_the_tables_each_scalar_subquery_read(self, session):
        from repro.sql.parser import parse_sql

        read = set()
        plan = parse_sql(
            "SELECT COUNT(*) AS n FROM emp WHERE salary > "
            "(SELECT AVG(amount) FROM bonus) AND dept < "
            "(SELECT COUNT(*) FROM dept WHERE did > "
            "(SELECT MIN(eid) FROM emp))",
            session, read,
        )
        assert read == {"bonus", "dept", "emp"}
        assert plan.base_tables() == {"emp"}

    def test_none_read_without_a_scalar_subquery(self, session):
        from repro.sql.parser import parse_sql

        read = set()
        parse_sql(
            "SELECT COUNT(*) AS n FROM emp WHERE EXISTS "
            "(SELECT * FROM bonus WHERE beid = eid)", session, read,
        )
        assert read == set()


class TestPlaceholdersDoNotReachThePlan:
    """The parser's placeholders are planned away or refused: a plan
    holds only nodes the fingerprints know (``repro.sql.compiler``)."""

    @pytest.mark.parametrize("text", [
        "SELECT COUNT(*) AS n FROM emp "
        "WHERE eid IN (SELECT beid FROM bonus) OR dept = 0",
        "SELECT COUNT(*) AS n FROM emp "
        "WHERE NOT (eid IN (SELECT beid FROM bonus))",
        "SELECT COUNT(*) AS n FROM emp "
        "WHERE NOT EXISTS (SELECT * FROM bonus WHERE beid = eid) "
        "OR dept = 0",
        "SELECT COUNT(*) AS n FROM emp WHERE CASE WHEN EXISTS "
        "(SELECT * FROM bonus WHERE beid = eid) THEN 1 ELSE 0 END = 1",
    ], ids=["or", "not", "not-exists-or", "case"])
    def test_a_subquery_predicate_off_the_top_level_is_refused(
        self, session, text
    ):
        """Up to 1.33.0 these parsed, and every row then raised
        "subquery marker cannot be evaluated directly"."""
        with pytest.raises(ParseError, match="top-level AND conjunct"):
            session.sql(text)

    def test_the_error_points_at_the_subquery(self, session):
        text = ("SELECT COUNT(*) AS n FROM emp "
                "WHERE dept = 0 OR eid IN (SELECT beid FROM bonus)")
        with pytest.raises(ParseError) as refused:
            session.sql(text)
        assert refused.value.position == text.index("(SELECT")

    def test_the_allowed_forms_still_plan(self, session):
        assert _scalar(session.sql(
            "SELECT COUNT(*) AS n FROM emp WHERE dept = 1 "
            "AND eid NOT IN (SELECT beid FROM bonus) "
            "AND NOT EXISTS (SELECT * FROM dept WHERE did = eid)"
        )) == 9  # eid 4, 7, ..., 28

    @pytest.mark.parametrize("text", [
        "SELECT COUNT(*) AS n FROM emp WHERE SUM(salary) > 1",
        "SELECT SUM(COUNT(eid)) AS n FROM emp",
    ], ids=["where", "nested"])
    def test_an_aggregate_outside_select_is_refused(self, session, text):
        with pytest.raises(AnalysisError, match="only in SELECT"):
            session.sql(text)

    def test_a_scalar_subquery_inside_a_subquery_is_refused(self, session):
        with pytest.raises(AnalysisError, match="scalar subquery inside"):
            session.sql(
                "SELECT COUNT(*) AS n FROM emp WHERE EXISTS (SELECT * "
                "FROM bonus WHERE beid = eid "
                "AND amount > (SELECT AVG(amount) FROM bonus))"
            )
