"""Unit tests for the expression AST and aggregate specs."""

import datetime

import pytest

from repro.common.errors import AnalysisError
from repro.sql.expr import (
    Alias,
    BinaryOp,
    FuncCall,
    InOp,
    IsNullOp,
    Literal,
    col,
    combine_conjuncts,
    split_conjuncts,
)
from repro.sql.functions import AggregateSpec

ROW = {"a": 3, "b": 10, "s": "hello", "n": None,
       "d": datetime.date(1994, 5, 1)}


class TestEvaluation:
    def test_column(self):
        assert col("a").eval(ROW) == 3

    def test_missing_column_raises(self):
        with pytest.raises(AnalysisError):
            col("zzz").eval(ROW)

    def test_literal(self):
        assert Literal(42).eval(ROW) == 42

    def test_arithmetic(self):
        assert (col("a") + col("b")).eval(ROW) == 13
        assert (col("b") - 1).eval(ROW) == 9
        assert (col("a") * 2).eval(ROW) == 6
        assert (col("b") / 4).eval(ROW) == 2.5
        assert (1 + col("a")).eval(ROW) == 4
        assert (20 - col("b")).eval(ROW) == 10

    def test_comparisons(self):
        assert (col("a") < col("b")).eval(ROW) is True
        assert (col("a") >= 3).eval(ROW) is True
        assert (col("a") == 3).eval(ROW) is True
        assert (col("a") != 3).eval(ROW) is False

    def test_boolean_connectives(self):
        expr = (col("a") > 1) & (col("b") < 20)
        assert expr.eval(ROW) is True
        assert ((col("a") > 5) | (col("b") == 10)).eval(ROW) is True
        assert (~(col("a") == 3)).eval(ROW) is False

    def test_negation(self):
        assert (-col("a")).eval(ROW) == -3

    def test_null_comparison_is_false(self):
        assert (col("n") == 1).eval(ROW) is False
        assert (col("n") < 1).eval(ROW) is False

    def test_null_arithmetic_propagates(self):
        assert (col("n") + 1).eval(ROW) is None

    def test_like(self):
        assert col("s").like("he%").eval(ROW)
        assert col("s").like("h_llo").eval(ROW)
        assert not col("s").like("x%").eval(ROW)
        assert col("s").not_like("x%").eval(ROW)

    def test_like_null_is_false(self):
        assert col("n").like("%").eval(ROW) is False

    def test_like_escapes_regex_chars(self):
        row = {"s": "a.b"}
        assert col("s").like("a.b").eval(row)
        assert not col("s").like("axb").eval(row)

    def test_isin(self):
        assert InOp(col("a"), [1, 2, 3], negated=False).eval(ROW)
        assert InOp(col("a"), [5, 6], negated=True).eval(ROW)

    def test_is_null(self):
        assert IsNullOp(col("n"), negated=False).eval(ROW)
        assert IsNullOp(col("a"), negated=True).eval(ROW)

    def test_date_comparison(self):
        assert (col("d") < Literal(datetime.date(1995, 1, 1))).eval(ROW)

    def test_func_call(self):
        assert FuncCall("abs", [Literal(-4)]).eval(ROW) == 4
        assert FuncCall("upper", [col("s")]).eval(ROW) == "HELLO"
        assert FuncCall("year", [col("d")]).eval(ROW) == 1994
        assert FuncCall("length", [col("s")]).eval(ROW) == 5
        assert FuncCall("coalesce", [col("n"), Literal(7)]).eval(ROW) == 7

    def test_func_null_safe(self):
        assert FuncCall("abs", [col("n")]).eval(ROW) is None

    def test_unknown_func(self):
        with pytest.raises(AnalysisError):
            FuncCall("no_such_func", [])

    def test_unknown_operator(self):
        with pytest.raises(AnalysisError):
            BinaryOp("%%", Literal(1), Literal(2))


class TestStructure:
    def test_references(self):
        expr = (col("a") + col("b")) > col("c")
        assert expr.references() == {"a", "b", "c"}

    def test_alias_output_name(self):
        assert Alias(col("a") + 1, "a1").output_name() == "a1"
        assert col("a").output_name() == "a"

    def test_split_and_combine_conjuncts(self):
        expr = (col("a") > 1) & (col("b") > 2) & (col("c") > 3)
        parts = split_conjuncts(expr)
        assert len(parts) == 3
        rebuilt = combine_conjuncts(parts)
        row = {"a": 5, "b": 5, "c": 5}
        assert rebuilt.eval(row) == expr.eval(row)

    def test_combine_empty(self):
        assert combine_conjuncts([]) is None

    def test_repr_roundtrippable_text(self):
        assert "a" in repr(col("a") + 1)


class TestAggregateSpecs:
    ROWS = [{"v": 1}, {"v": 3}, {"v": None}, {"v": 3}]

    def _run(self, spec: AggregateSpec):
        acc = spec.zero()
        for row in self.ROWS:
            acc = spec.add(acc, row)
        return spec.finish(acc)

    def test_count_star(self):
        assert self._run(AggregateSpec("count", None, "n")) == 4

    def test_count_column_skips_nulls(self):
        assert self._run(AggregateSpec("count", col("v"), "n")) == 3

    def test_count_distinct(self):
        assert self._run(AggregateSpec("count_distinct", col("v"), "n")) == 2

    def test_sum(self):
        assert self._run(AggregateSpec("sum", col("v"), "s")) == 7

    def test_sum_empty_is_null(self):
        spec = AggregateSpec("sum", col("v"), "s")
        assert spec.finish(spec.zero()) is None

    def test_avg(self):
        assert self._run(AggregateSpec("avg", col("v"), "a")) == pytest.approx(7 / 3)

    def test_avg_empty_is_null(self):
        spec = AggregateSpec("avg", col("v"), "a")
        assert spec.finish(spec.zero()) is None

    def test_min_max(self):
        assert self._run(AggregateSpec("min", col("v"), "m")) == 1
        assert self._run(AggregateSpec("max", col("v"), "m")) == 3

    def test_merge_matches_sequential(self):
        spec = AggregateSpec("sum", col("v"), "s")
        left = spec.zero()
        for row in self.ROWS[:2]:
            left = spec.add(left, row)
        right = spec.zero()
        for row in self.ROWS[2:]:
            right = spec.add(right, row)
        assert spec.finish(spec.merge(left, right)) == 7

    def test_merge_with_null_sides(self):
        spec = AggregateSpec("min", col("v"), "m")
        assert spec.merge(None, 5) == 5
        assert spec.merge(5, None) == 5

    @pytest.mark.parametrize("func", ["median", "var", "stddev"])
    def test_unsupported_aggregate(self, func):
        with pytest.raises(AnalysisError):
            AggregateSpec(func, col("v"), "m")

    def test_non_count_requires_expr(self):
        with pytest.raises(AnalysisError):
            AggregateSpec("sum", None, "s")
