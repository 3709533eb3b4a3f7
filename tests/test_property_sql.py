"""Property-based tests for the SQL layer.

Column pruning must be semantics-preserving on randomized plans, the
rows of WHERE text over two or three tables must be a nested loop's
wherever the planner places each conjunct, the physical executor must
match a straight-line Python reference for randomized
filter/project/aggregate pipelines, and the expression
compiler (repro.sql.compiler) must agree with interpreted ``eval``
*exactly* — value, None-ness and raised-exception behaviour — on
randomized expression trees over rows containing NULLs.  The same
exactness is then required of whole-column evaluation
(``repro.sql.vectorized``) and of the SQL bridge's compiled plans, whose
``map_batch`` must be ``map_record`` of every record bit for bit.
"""

import itertools
import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import column_values
from repro.core.sampling import RecordView, fingerprint_columns
from repro.core.sqlbridge import _Block, _compile_plan, compile_sql
from repro.engine.columnar import ColumnarPartition
from repro.sql import SQLSession, col
from repro.sql.compiler import compile_expression, compile_predicate
from repro.sql.expr import (
    Alias,
    BinaryOp,
    CaseWhen,
    Expression,
    FuncCall,
    InOp,
    IsNullOp,
    LikeOp,
    Literal,
    UnaryOp,
    combine_conjuncts,
)
from repro.sql.functions import AggregateSpec
from repro.sql.logical import Aggregate, Filter, Join, Project, Scan
from repro.sql.types import Schema
from repro.sql.vectorized import block_mask, block_value

ROWS = st.lists(
    st.fixed_dictionaries(
        {
            "a": st.integers(-20, 20),
            "b": st.integers(0, 5),
            "c": st.sampled_from(["x", "y", "z"]),
        }
    ),
    max_size=40,
)

COMPARISONS = ["<", "<=", ">", ">=", "=", "<>"]


@st.composite
def predicates(draw) -> Expression:
    """A random boolean expression over columns a, b, c."""
    depth = draw(st.integers(0, 2))

    def leaf() -> Expression:
        which = draw(st.integers(0, 2))
        if which == 0:
            op = draw(st.sampled_from(COMPARISONS))
            return BinaryOp(op, col("a"), Literal(draw(st.integers(-20, 20))))
        if which == 1:
            op = draw(st.sampled_from(COMPARISONS))
            return BinaryOp(op, col("b"), Literal(draw(st.integers(0, 5))))
        return col("c") == Literal(draw(st.sampled_from(["x", "y", "z"])))

    expr = leaf()
    for _ in range(depth):
        connective = draw(st.sampled_from(["and", "or"]))
        expr = BinaryOp(connective, expr, leaf())
    return expr


def _scan(session, name):
    return Scan(name, session.catalog.table(name).schema)


def _join(left, right, on, how="inner", residual=None):
    """A join on ``(left name, right name)`` key pairs."""
    keys = [(col(l), col(r)) for l, r in on]
    return Join(left, right, keys, how, residual=residual)


def _aggregate(child, *specs):
    """``(func, expression or None, alias)`` triples over ``child``."""
    return Aggregate(child, [AggregateSpec(*s) for s in specs])


def _rows(session, plan):
    """The pruned plan's rows, as ``SQLSession.sql(...).collect()``
    runs a parsed one."""
    return session.execute_plan(plan).collect()


class TestOptimizerEquivalence:
    @given(rows=ROWS, predicate=predicates())
    @settings(max_examples=50, deadline=None)
    def test_filter_chain_same_with_and_without_optimizer(
        self, rows, predicate
    ):
        session = SQLSession()
        session.create_table("t", rows or [{"a": 0, "b": 0, "c": "x"}])
        plan = Filter(
            Project(Filter(_scan(session, "t"), predicate),
                    [col("a"), col("b")]),
            col("a") >= -20,
        )
        unoptimized = session.executor.execute(plan).collect()
        assert _rows(session, plan) == unoptimized

    @given(rows=ROWS, predicate=predicates())
    @settings(max_examples=50, deadline=None)
    def test_filter_matches_python_reference(self, rows, predicate):
        session = SQLSession()
        session.create_table("t", rows or [{"a": 0, "b": 0, "c": "x"}])
        got = len(_rows(session, Filter(_scan(session, "t"), predicate)))
        expected = sum(
            1 for row in (rows or [{"a": 0, "b": 0, "c": "x"}])
            if predicate.eval(row)
        )
        assert got == expected

    @given(rows=ROWS, predicate=predicates())
    @settings(max_examples=50, deadline=None)
    def test_global_aggregate_matches_reference(self, rows, predicate):
        session = SQLSession()
        session.create_table(  # the schema holds for no rows too
            "t", rows, Schema.from_rows([{"a": 0, "b": 0, "c": "x"}])
        )
        got = _rows(session, _aggregate(
            Filter(_scan(session, "t"), predicate),
            ("count", None, "n"), ("sum", col("a"), "s"),
            ("count_distinct", col("b"), "u"),
        ))
        kept = [row for row in rows if predicate.eval(row)]
        assert got == [{
            "n": len(kept),
            "s": sum(row["a"] for row in kept) if kept else None,
            "u": len({row["b"] for row in kept}),
        }]

    @given(rows=ROWS, predicate=predicates())
    @settings(max_examples=30, deadline=None)
    def test_join_pushdown_equivalence(self, rows, predicate):
        session = SQLSession()
        session.create_table("t", rows or [{"a": 0, "b": 0, "c": "x"}])
        session.create_table("d", [{"k": i, "w": i * 2} for i in range(6)])
        plan = _aggregate(
            Filter(_join(_scan(session, "t"), _scan(session, "d"),
                         [("b", "k")]), predicate),
            ("count", None, "n"),
        )
        (row,) = session.executor.execute(plan).collect()
        assert _rows(session, plan) == [row]


# ---------------------------------------------------------------------------
# Compiler vs interpreter equivalence
# ---------------------------------------------------------------------------

#: rows with NULLs in every column so three-valued logic is exercised.
NULLABLE_ROWS = st.fixed_dictionaries(
    {
        "a": st.one_of(st.none(), st.integers(-10, 10)),
        "b": st.one_of(st.none(), st.integers(-3, 3)),
        "c": st.one_of(
            st.none(), st.sampled_from(["x", "yy", "special requests", ""])
        ),
    }
)

_PATTERNS = ["x%", "%s%", "%special%requests%", "_", "%y_", ""]


@st.composite
def expressions(draw, depth: int = 3) -> Expression:
    """A random expression tree covering every compilable node type."""
    if depth <= 0:
        which = draw(st.integers(0, 2))
        if which == 0:
            return col(draw(st.sampled_from(["a", "b", "c"])))
        if which == 1:
            return Literal(draw(st.one_of(st.none(), st.integers(-10, 10))))
        return Literal(draw(st.sampled_from(["x", "yy", ""])))

    kind = draw(st.integers(0, 8))
    sub = expressions(depth=depth - 1)
    if kind == 0:  # comparison / arithmetic / connective
        op = draw(
            st.sampled_from(
                COMPARISONS + ["+", "-", "*", "/", "and", "or"]
            )
        )
        return BinaryOp(op, draw(sub), draw(sub))
    if kind == 1:
        return UnaryOp(draw(st.sampled_from(["not", "-"])), draw(sub))
    if kind == 2:
        return LikeOp(
            draw(sub),
            draw(st.sampled_from(_PATTERNS)),
            negated=draw(st.booleans()),
        )
    if kind == 3:
        values = draw(
            st.lists(
                st.one_of(st.none(), st.integers(-5, 5),
                          st.sampled_from(["x", "yy"])),
                min_size=1, max_size=4,
            )
        )
        return InOp(draw(sub), [Literal(v) for v in values],
                    negated=draw(st.booleans()))
    if kind == 4:
        return IsNullOp(draw(sub), negated=draw(st.booleans()))
    if kind == 5:
        branches = [
            (draw(sub), draw(sub))
            for _ in range(draw(st.integers(1, 3)))
        ]
        default = draw(sub) if draw(st.booleans()) else None
        return CaseWhen(branches, default)
    if kind == 6:
        name = draw(st.sampled_from(["abs", "coalesce", "length"]))
        n_args = 2 if name == "coalesce" else 1
        return FuncCall(name, [draw(sub) for _ in range(n_args)])
    if kind == 7:
        return Alias(draw(sub), "renamed")
    return draw(sub)


def _outcome(fn, row):
    """(value, type) on success, ('raise', exception type) on failure."""
    try:
        value = fn(row)
    except Exception as exc:  # noqa: BLE001 — parity includes errors
        return ("raise", type(exc))
    return (value, type(value))


class TestCompilerEquivalence:
    @given(row=NULLABLE_ROWS, expr=expressions())
    @settings(max_examples=300, deadline=None)
    def test_compiled_matches_interpreted(self, row, expr):
        compiled = compile_expression(expr)
        assert _outcome(compiled, row) == _outcome(expr.eval, row)

    @given(row=NULLABLE_ROWS, expr=expressions())
    @settings(max_examples=150, deadline=None)
    def test_compiled_predicate_matches_truthiness(self, row, expr):
        predicate = compile_predicate(expr)
        interpreted = _outcome(lambda r: bool(expr.eval(r)), row)
        assert _outcome(predicate, row) == interpreted

    @given(row=NULLABLE_ROWS, expr=expressions())
    @settings(max_examples=150, deadline=None)
    def test_missing_column_error_parity(self, row, expr):
        probe = {"q": 1}  # none of a/b/c present
        compiled = compile_expression(expr)
        assert _outcome(compiled, probe) == _outcome(expr.eval, probe)

    @given(rows=st.lists(NULLABLE_ROWS, min_size=1, max_size=30),
           predicate=expressions())
    @settings(max_examples=60, deadline=None)
    def test_session_filter_matches_eval(self, rows, predicate):
        session = SQLSession()
        session.create_table("t", rows)
        try:
            got = _rows(session, Filter(_scan(session, "t"), predicate))
        except Exception as exc:  # noqa: BLE001 — error parity
            got = ("raise", type(exc))
        try:
            expected = [row for row in rows if predicate.eval(row)]
        except Exception as exc:  # noqa: BLE001 — error parity
            expected = ("raise", type(exc))
        assert got == expected


# ---------------------------------------------------------------------------
# Column-block evaluation: repro.sql.vectorized and the SQL bridge's plans
# ---------------------------------------------------------------------------


class _RowsBlock:
    """The minimal block: rows as object columns gathered on demand."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def numpy_column(self, name):
        return column_values(self.rows, name, dtype=None)


def _columnar(rows):
    """``rows`` as a ColumnarPartition: the hash's typed buffer where it
    builds one, the value list otherwise."""
    buffers = fingerprint_columns(rows)[1]
    return ColumnarPartition({
        name: buffers.get(name, [row[name] for row in rows])
        for name in rows[0]
    })


def _row_outcomes(fn, rows):
    """Per-row (value, type), or the type the first failing row raises."""
    out = []
    for row in rows:
        try:
            value = fn(row)
        except Exception as exc:  # noqa: BLE001 — parity includes errors
            return ("raise", type(exc))
        out.append((value, type(value)))
    return out


def _block_outcomes(fn, block):
    try:
        values = fn(block)
    except Exception as exc:  # noqa: BLE001 — parity includes errors
        return ("raise", type(exc))
    assert isinstance(values, np.ndarray) and len(values) == len(block)
    return [(value, type(value)) for value in values.tolist()]


class TestBlockExpressions:
    """``block_value`` / ``block_mask`` give the row answer — value,
    None-ness, type and raised exception — whatever the expression."""

    @given(rows=st.lists(NULLABLE_ROWS, max_size=12), expr=expressions())
    @settings(max_examples=300, deadline=None)
    def test_block_value_matches_eval(self, rows, expr):
        assert _block_outcomes(block_value(expr), _RowsBlock(rows)) == (
            _row_outcomes(expr.eval, rows)
        )

    @pytest.mark.parametrize("expr", [
        BinaryOp("+", Literal("x"), Literal("x")),
        BinaryOp("*", Literal(0.1), Literal(3)),
        BinaryOp("+", Literal(1 << 62), Literal(1 << 62)),
        UnaryOp("-", BinaryOp("-", Literal(2), Literal(0.5))),
    ], ids=["str", "float", "past-int64", "negated"])
    def test_constant_arithmetic_has_the_row_type(self, expr):
        """Two constants are added as Python adds them: numpy returned
        an ``np.str_`` for two strings."""
        rows = [{"a": 1}, {"a": None}]
        assert _block_outcomes(block_value(expr), _RowsBlock(rows)) == (
            _row_outcomes(expr.eval, rows)
        )

    @given(rows=st.lists(NULLABLE_ROWS, max_size=12), expr=expressions())
    @settings(max_examples=300, deadline=None)
    def test_block_mask_matches_truthiness(self, rows, expr):
        assert _block_outcomes(block_mask(expr), _RowsBlock(rows)) == (
            _row_outcomes(lambda row: bool(expr.eval(row)), rows)
        )

    @given(rows=st.lists(NULLABLE_ROWS, max_size=12), expr=expressions())
    @settings(max_examples=150, deadline=None)
    def test_bridge_block_matches_eval(self, rows, expr):
        """The SQL bridge's block remembers whether a column holds a
        None; the answers are the ones a rescan per node gives."""
        block = _Block(
            np.arange(len(rows)),
            lambda name: column_values(rows, name, dtype=None),
        )
        assert _block_outcomes(block_value(expr), block) == (
            _row_outcomes(expr.eval, rows)
        )
        assert _block_outcomes(block_mask(expr), block) == (
            _row_outcomes(lambda row: bool(expr.eval(row)), rows)
        )

    @pytest.mark.parametrize("hole", [None, 7])
    def test_bridge_block_scans_a_column_for_none_once(
        self, hole, monkeypatch
    ):
        rows = [{"d": value} for value in (3, 9, hole, 12, 5)]
        window = (col("d") >= Literal(4)) & (col("d") < Literal(10))
        scans = []
        real = np.equal

        def counting(a, b, *args, **kwargs):
            if b is None:
                scans.append(len(a))
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "equal", counting)
        mask = block_mask(window)
        expected = [bool(window.eval(row)) for row in rows]
        assert mask(_RowsBlock(rows)).tolist() == expected
        assert scans == [5, 5]  # a block with no memory: once per node
        block = _Block(
            np.arange(5), lambda name: column_values(rows, name, dtype=None)
        )
        assert mask(block).tolist() == expected
        assert scans == [5, 5, 5]

    @given(rows=ROWS.filter(bool), predicate=predicates(),
           value=st.sampled_from(["+", "-", "*", "/"]))
    @settings(max_examples=150, deadline=None)
    def test_typed_columns_match_eval(self, rows, predicate, value):
        """The ufunc subset over typed (int64) buffers, the layout of a
        hashed table and of S-bar."""
        block = _columnar(rows)
        assert block.numpy_column("a").dtype == np.int64
        assert _block_outcomes(block_mask(predicate), block) == (
            _row_outcomes(lambda row: bool(predicate.eval(row)), rows)
        )
        arithmetic = BinaryOp(value, col("a") * Literal(3), col("b"))
        assert _block_outcomes(block_value(arithmetic), block) == (
            _row_outcomes(arithmetic.eval, rows)
        )


#: the static side of the generated joins: names disjoint from a/b/c.
STATIC_ROWS = st.lists(
    st.fixed_dictionaries(
        {
            "da": st.one_of(st.none(), st.integers(-10, 10)),
            "db": st.one_of(st.none(), st.integers(-3, 3)),
            "dc": st.one_of(st.none(), st.sampled_from(["x", "yy", ""])),
        }
    ),
    max_size=12,
)

_NUMERIC = st.sampled_from([
    col("a"), col("b"), col("a") * col("b"), col("a") + Literal(2),
    -col("b"), col("a") * Literal(0.5), Literal(1),
])

_SHAPES = (
    "filter", "join-left", "join-right", "semi", "anti", "semi-residual",
    "anti-residual",
)


def _correlated(prefix: str):
    """Residual conjuncts that read the static side (under ``prefix``:
    ``""`` for an inner join) against the probing row."""
    da, db, dc = (col(prefix + name) for name in ("da", "db", "dc"))
    return st.sampled_from([
        da > col("a"), dc == col("c"), IsNullOp(db, negated=False),
        da * col("b") != Literal(0), db + col("b") < Literal(2),
        dc.like("x%") | (da <= col("b")),
    ])


@st.composite
def bridge_plans(draw):
    """(tables, plan) of a random query of every shape the bridge
    compiles, over NULL-bearing tables."""
    tables = {
        "t": draw(st.lists(NULLABLE_ROWS, min_size=1, max_size=14)),
        "d": draw(STATIC_ROWS),
    }
    session = SQLSession()
    for name, rows in tables.items():
        # A table registers with its first row's names; an empty static
        # side still needs them.
        session.create_table(
            name, rows or [{"da": None, "db": None, "dc": None}]
        )
    if not tables["d"]:
        tables["d"] = session.catalog.table("d").rows
    t, d = _scan(session, "t"), _scan(session, "d")
    condition = draw(expressions(depth=2))
    shape = draw(st.sampled_from(_SHAPES))
    on = [draw(st.sampled_from([("a", "da"), ("b", "db"), ("c", "dc")]))]
    if draw(st.booleans()):
        on.append(("b", "db"))
    prefix = Join.RESIDUAL_RIGHT_PREFIX
    residual = BinaryOp(
        draw(st.sampled_from(["and", "or"])),
        draw(_correlated(prefix)), draw(expressions(depth=1)),
    )
    if shape == "filter":
        frame = Filter(t, condition)
    elif shape == "join-left":
        # An inner join's extra condition filters the merged row: the
        # left side's columns and, unprefixed, the right side's.
        inner_residual = draw(expressions(depth=1))
        if draw(st.booleans()):
            inner_residual = BinaryOp(
                draw(st.sampled_from(["and", "or"])),
                draw(_correlated("")), inner_residual,
            )
        frame = Filter(_join(t, d, on), inner_residual)
        frame = Filter(frame, IsNullOp(col("db"), negated=True) | condition)
    elif shape == "join-right":
        frame = _join(d, t, [(right, left) for left, right in on])
    elif shape in ("semi", "anti"):
        frame = _join(Filter(t, condition), d, on, how=shape)
    else:
        frame = _join(t, d, on, how=shape.split("-")[0], residual=residual)
    aggregate = draw(st.sampled_from(["count*", "count", "sum"]))
    if aggregate == "count*":
        spec = ("count", None, "n")
    elif aggregate == "count":
        spec = ("count", draw(expressions(depth=1)), "n")
    else:
        spec = ("sum", draw(_NUMERIC), "n")
    return tables, _aggregate(frame, spec)


class TestBridgeBatchEvaluation:
    """``CompiledSQLQuery.map_batch`` is ``map_record`` of every record,
    bit for bit, for every plan shape and batch layout."""

    @given(case=bridge_plans())
    @settings(max_examples=250, deadline=None)
    def test_map_batch_is_map_record_bitwise(self, case):
        tables, plan = case
        query = _compile_plan(plan, "t")
        aux = query.build_aux(tables)
        rows = tables["t"]
        reference = _row_outcomes(
            lambda row: query.map_record(row, aux), rows
        )
        _fingerprints, buffers = fingerprint_columns(rows)
        everything = np.arange(len(rows))
        layouts = {
            "list": rows,
            "view+buffers": RecordView(rows, everything, buffers),
            "view-no-buffers": RecordView(rows, everything, {}),
            "columnar": _columnar(rows),
        }
        for layout, batch in layouts.items():
            try:
                mapped = query.map_batch(batch, aux)
            except Exception as exc:  # noqa: BLE001 — parity includes errors
                # Some record raises in the row interpreter too (it
                # meets records one at a time, the plan stage by stage,
                # so *which* error comes first may differ).
                assert reference[0] == "raise", (layout, exc)
                continue
            assert reference[0] != "raise", layout
            expected = np.asarray([value for value, _ in reference])
            assert mapped.dtype == np.float64, layout
            assert (
                mapped.view(np.uint64) == expected.view(np.uint64)
            ).all(), layout
        if reference[0] != "raise":
            # Row-stable: element i is record i's, under any slicing.
            cut = max(1, len(rows) // 3)
            pieces = np.concatenate([
                query.map_batch(rows[lo:lo + cut], aux)
                for lo in range(0, len(rows), cut)
            ])
            assert pieces.tobytes() == query.map_batch(rows, aux).tobytes()
            assert len(query.map_batch([], aux)) == 0


# ---------------------------------------------------------------------------
# Row order contract (DESIGN.md §5): joins against a nested-loop oracle
# ---------------------------------------------------------------------------

#: small key ranges so keys repeat, and NULL keys on both sides.
_KEY = st.one_of(st.none(), st.integers(0, 3))
LEFT_ROWS = st.lists(
    st.fixed_dictionaries({"a": _KEY, "b": _KEY, "x": st.integers(0, 9)}),
    max_size=14,
)
RIGHT_ROWS = st.lists(
    st.fixed_dictionaries({"k": _KEY, "j": _KEY, "y": st.integers(0, 9)}),
    max_size=10,
)
_ON = {
    "one key": [("a", "k")],
    "two keys": [("a", "k"), ("b", "j")],
}


def _order_session(left, right) -> SQLSession:
    """``t`` and ``u`` registered with their schemas, even when empty."""
    session = SQLSession()
    session.create_table(
        "t", left, Schema.from_rows([{"a": 0, "b": 0, "x": 0}])
    )
    session.create_table(
        "u", right, Schema.from_rows([{"k": 0, "j": 0, "y": 0}])
    )
    return session


def _nested_loop(left, right, on, how, residual=None):
    """The join by ``Expression.eval``, one (left, right) pair at a
    time: left-major, a left row's matches in right-table order."""
    condition = combine_conjuncts([col(l) == col(r) for l, r in on])
    prefix = Join.RESIDUAL_RIGHT_PREFIX
    out = []
    for lrow in left:
        matches = [
            rrow for rrow in right if condition.eval({**lrow, **rrow})
        ]
        if residual is not None:
            matches = [
                rrow for rrow in matches
                if residual.eval(
                    {**lrow, **{prefix + n: v for n, v in rrow.items()}}
                )
            ]
        if how == "inner":
            out += [{**lrow, **rrow} for rrow in matches]
        elif bool(matches) == (how == "semi"):
            out.append(lrow)
    return out


class TestJoinOracle:
    """Every join kind equals the nested-loop oracle row for row, in the
    contract order, over NULL keys and duplicate keys on both sides."""

    @pytest.mark.parametrize("how", ["inner", "semi", "anti"])
    @given(left=LEFT_ROWS, right=RIGHT_ROWS, on=st.sampled_from(sorted(_ON)))
    @settings(max_examples=60, deadline=None)
    def test_join_matches_nested_loop(self, how, left, right, on):
        session = _order_session(left, right)
        plan = _join(_scan(session, "t"), _scan(session, "u"), _ON[on], how)
        expected = _nested_loop(left, right, _ON[on], how)
        assert _rows(session, plan) == expected
        assert session.executor.execute(plan).collect() == expected

    @pytest.mark.parametrize("how", ["semi", "anti"])
    @given(left=LEFT_ROWS, right=RIGHT_ROWS, on=st.sampled_from(sorted(_ON)))
    @settings(max_examples=60, deadline=None)
    def test_residual_join_matches_nested_loop(self, how, left, right, on):
        residual = col(Join.RESIDUAL_RIGHT_PREFIX + "y") > col("x")
        session = _order_session(left, right)
        plan = _join(_scan(session, "t"), _scan(session, "u"), _ON[on], how,
                     residual=residual)
        assert _rows(session, plan) == _nested_loop(
            left, right, _ON[on], how, residual
        )


class TestBridgeAgreesWithPlainSQL:
    """The bridge's output is the plain SQL answer, NULL keys included
    (a key holding NULL matches nothing on either path)."""

    @given(case=bridge_plans())
    @settings(max_examples=150, deadline=None)
    def test_output_is_the_plain_answer(self, case):
        tables, plan = case
        query = _compile_plan(plan, "t")
        session = SQLSession()
        for name, rows in tables.items():
            session.create_table(name, rows)
        try:
            (row,) = session.execute_plan(plan).collect()
            expected = query.output(tables)[0]
        except Exception:  # noqa: BLE001 — a raising plan has no answer
            return
        (plain,) = row.values()
        assert expected == pytest.approx(
            0.0 if plain is None else float(plain), rel=1e-9, abs=1e-9
        )


# ---------------------------------------------------------------------------
# WHERE placement: SQL text over two or three tables
# ---------------------------------------------------------------------------

#: table -> its columns; no name repeats across the three.
_PLACED = {"t": ("a", "b", "x"), "u": ("k", "j", "y"), "w": ("m", "n", "z")}
_PLACED_ROWS = {
    name: st.lists(
        st.fixed_dictionaries(
            {column: st.sampled_from([0, 1, 2, None]) for column in columns}
        ),
        min_size=1, max_size=8,
    )
    for name, columns in _PLACED.items()
}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge, "<>": operator.ne, "=": operator.eq}


def _holds(op, left, right) -> bool:
    """A comparison as WHERE keeps it: a NULL side is not true."""
    return left is not None and right is not None and _ORDER[op](left, right)


def _plus(*values):
    return None if None in values else sum(values)


@st.composite
def _placed_conjunct(draw, names):
    """(text, Python oracle over the merged row) of one WHERE conjunct:
    over one table, across tables, over no column, or an equality
    between two tables that the join tree may already have joined."""
    kind = draw(st.sampled_from(["one", "across", "constant", "edge"]))
    if kind == "constant":
        op = draw(st.sampled_from(sorted(_ORDER)))
        left, right = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        return f"{left} {op} {right}", lambda row: _ORDER[op](left, right)
    if kind == "one":
        table = draw(st.sampled_from(names))
        column = draw(st.sampled_from(_PLACED[table]))
        op = draw(st.sampled_from(sorted(_ORDER)))
        value = draw(st.integers(0, 2))
        return (f"{table}.{column} {op} {value}",
                lambda row: _holds(op, row[column], value))
    tables = draw(st.lists(st.sampled_from(names), min_size=2,
                           max_size=len(names), unique=True))
    columns = [draw(st.sampled_from(_PLACED[table])) for table in tables]
    refs = [f"{table}.{column}" for table, column in zip(tables, columns)]
    if kind == "edge":
        return (f"{refs[0]} = {refs[1]}",
                lambda row: _holds("=", row[columns[0]], row[columns[1]]))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "<>"]))
    value = draw(st.integers(0, 5))
    return (f"{' + '.join(refs)} {op} {value}",
            lambda row: _holds(op, _plus(*(row[c] for c in columns)), value))


@st.composite
def placed_queries(draw):
    """(tables, FROM list, WHERE conjuncts as (text, oracle), protected
    table) of a join of two or three tables."""
    names = ["t", "u", "w"][:draw(st.integers(2, 3))]
    tables = {name: draw(_PLACED_ROWS[name]) for name in names}
    edges = [("u.k = t.a", lambda row: _holds("=", row["k"], row["a"]))]
    if "w" in names:
        edges.append(draw(st.sampled_from([
            ("w.m = t.b", lambda row: _holds("=", row["m"], row["b"])),
            ("w.m = u.j", lambda row: _holds("=", row["m"], row["j"])),
        ])))
    others = draw(st.lists(_placed_conjunct(names), max_size=4))
    conjuncts = draw(st.permutations(edges + others))
    return (tables, draw(st.permutations(names)), conjuncts,
            draw(st.sampled_from(names)))


class TestPlacementMatchesNestedLoop:
    """Wherever the planner places a conjunct, the rows are those of a
    nested loop over the FROM tables that keeps a combination when
    every conjunct holds, and the compiled query counts them."""

    @given(case=placed_queries())
    @settings(max_examples=120, deadline=None)
    def test_rows_and_compiled_count(self, case):
        tables, names, conjuncts, protected = case
        merged = [
            {key: value for row in combination for key, value in row.items()}
            for combination in itertools.product(
                *(tables[name] for name in names)
            )
        ]
        expected = Counter(
            tuple(sorted(row.items())) for row in merged
            if all(holds(row) for _text, holds in conjuncts)
        )
        where = " AND ".join(text for text, _holds in conjuncts)
        source = f"FROM {', '.join(names)} WHERE {where}"
        session = SQLSession()
        for name, rows in tables.items():
            session.create_table(name, rows)
        got = session.sql(f"SELECT * {source}").collect()
        assert Counter(tuple(sorted(row.items())) for row in got) == expected
        query = compile_sql(f"SELECT COUNT(*) AS n {source}", tables,
                            protected)
        assert query.output(tables)[0] == sum(expected.values())
