"""Tests for the scalar functions the other suites do not reach."""

from repro.sql import col
from repro.sql.expr import FuncCall, Literal


class TestScalarFunctions:
    ROW = {"s": "Hello", "d": None}

    def test_substring(self):
        expr = FuncCall("substring", [Literal("abcdef"), Literal(2), Literal(3)])
        assert expr.eval({}) == "bcd"

    def test_lower_upper_roundtrip(self):
        lowered = FuncCall("lower", [Literal("MiXeD")])
        assert FuncCall("upper", [lowered]).eval({}) == "MIXED"

    def test_round(self):
        assert FuncCall("round", [Literal(3.14159), Literal(2)]).eval({}) == 3.14

    def test_month(self):
        import datetime

        expr = FuncCall("month", [Literal(datetime.date(1995, 7, 4))])
        assert expr.eval({}) == 7

    def test_coalesce_takes_first_non_null(self):
        expr = FuncCall("coalesce", [col("d"), Literal(None), Literal(9)])
        assert expr.eval(self.ROW) == 9

    def test_coalesce_all_null(self):
        expr = FuncCall("coalesce", [col("d")])
        assert expr.eval(self.ROW) is None
