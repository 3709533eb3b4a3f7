"""Property-based tests for the SQL layer.

The optimizer must be semantics-preserving on randomized plans, the
physical executor must match a straight-line Python reference for
randomized filter/project/aggregate pipelines, and the expression
compiler (repro.sql.compiler) must agree with interpreted ``eval``
*exactly* — value, None-ness and raised-exception behaviour — on
randomized expression trees over rows containing NULLs.  The same
exactness is then required of whole-column evaluation
(``repro.sql.vectorized``) and of the SQL bridge's compiled plans, whose
``map_batch`` must be ``map_record`` of every record bit for bit.
"""

import functools
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import column_values
from repro.core.sampling import RecordView, fingerprint_columns
from repro.core.sqlbridge import _Block, compile_plan
from repro.engine.columnar import ColumnarPartition
from repro.sql import SQLSession, col, count_star, sum_
from repro.sql.compiler import compile_expression, compile_predicate
from repro.sql.expr import (
    BinaryOp,
    CaseWhen,
    Expression,
    FuncCall,
    InOp,
    IsNullOp,
    LikeOp,
    UnaryOp,
    combine_conjuncts,
    lit,
)
from repro.sql.functions import count
from repro.sql.logical import Join
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
            return BinaryOp(op, col("a"), lit(draw(st.integers(-20, 20))))
        if which == 1:
            op = draw(st.sampled_from(COMPARISONS))
            return BinaryOp(op, col("b"), lit(draw(st.integers(0, 5))))
        return col("c") == lit(draw(st.sampled_from(["x", "y", "z"])))

    expr = leaf()
    for _ in range(depth):
        connective = draw(st.sampled_from(["and", "or"]))
        expr = BinaryOp(connective, expr, leaf())
    return expr


class TestOptimizerEquivalence:
    @given(rows=ROWS, predicate=predicates())
    @settings(max_examples=50, deadline=None)
    def test_filter_chain_same_with_and_without_optimizer(
        self, rows, predicate
    ):
        session = SQLSession()
        session.create_table("t", rows or [{"a": 0, "b": 0, "c": "x"}])
        df = (
            session.table("t")
            .filter(predicate)
            .select("a", "b")
            .filter(col("a") >= -20)
        )
        unoptimized = session.executor.execute(df.plan).collect()
        assert df.collect() == unoptimized

    @given(rows=ROWS, predicate=predicates())
    @settings(max_examples=50, deadline=None)
    def test_filter_matches_python_reference(self, rows, predicate):
        session = SQLSession()
        session.create_table("t", rows or [{"a": 0, "b": 0, "c": "x"}])
        got = session.table("t").filter(predicate).count()
        expected = sum(
            1 for row in (rows or [{"a": 0, "b": 0, "c": "x"}])
            if predicate.eval(row)
        )
        assert got == expected

    @given(rows=ROWS)
    @settings(max_examples=50, deadline=None)
    def test_group_by_matches_reference(self, rows):
        session = SQLSession()
        session.create_table("t", rows or [{"a": 0, "b": 0, "c": "x"}])
        out = {
            r["b"]: (r["n"], r["s"])
            for r in session.table("t")
            .group_by("b")
            .agg(count_star("n"), sum_(col("a"), "s"))
            .collect()
        }
        expected = {}
        for row in rows or [{"a": 0, "b": 0, "c": "x"}]:
            n, s = expected.get(row["b"], (0, 0))
            expected[row["b"]] = (n + 1, s + row["a"])
        assert out == expected

    @given(rows=ROWS, predicate=predicates())
    @settings(max_examples=30, deadline=None)
    def test_join_pushdown_equivalence(self, rows, predicate):
        session = SQLSession()
        session.create_table("t", rows or [{"a": 0, "b": 0, "c": "x"}])
        session.create_table("d", [{"k": i, "w": i * 2} for i in range(6)])
        df = (
            session.table("t")
            .join(session.table("d"), on=[("b", "k")])
            .filter(predicate)
            .agg(count_star("n"))
        )
        (row,) = session.executor.execute(df.plan).collect()
        assert df.scalar() == row["n"]


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
            return lit(draw(st.one_of(st.none(), st.integers(-10, 10))))
        return lit(draw(st.sampled_from(["x", "yy", ""])))

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
        return InOp(draw(sub), [lit(v) for v in values],
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
        return draw(sub).alias("renamed")
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
            got = session.table("t").filter(predicate).collect()
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
        window = (col("d") >= lit(4)) & (col("d") < lit(10))
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
        arithmetic = BinaryOp(value, col("a") * lit(3), col("b"))
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
    col("a"), col("b"), col("a") * col("b"), col("a") + lit(2),
    -col("b"), col("a") * lit(0.5), lit(1),
])

_SHAPES = (
    "filter", "project", "join-left", "join-right", "semi", "anti",
    "semi-residual", "anti-residual",
)


def _correlated(prefix: str):
    """Residual conjuncts that read the static side (under ``prefix``:
    ``""`` for an inner join) against the probing row."""
    da, db, dc = (col(prefix + name) for name in ("da", "db", "dc"))
    return st.sampled_from([
        da > col("a"), dc == col("c"), db.is_null(), da * col("b") != lit(0),
        db + col("b") < lit(2), dc.like("x%") | (da <= col("b")),
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
        tables["d"] = session.table("d").collect()
    t, d = session.table("t"), session.table("d")
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
        frame = t.filter(condition)
    elif shape == "project":
        frame = t.select(
            condition.alias("c"), col("b"), (col("a") * lit(2)).alias("a"),
        )
    elif shape == "join-left":
        # An inner join's residual reads the merged row: the left
        # side's columns and, unprefixed, the right side's.
        inner_residual = draw(expressions(depth=1))
        if draw(st.booleans()):
            inner_residual = BinaryOp(
                draw(st.sampled_from(["and", "or"])),
                draw(_correlated("")), inner_residual,
            )
        frame = t.join(d, on=on, residual=inner_residual)
        frame = frame.filter(col("db").is_not_null() | condition)
    elif shape == "join-right":
        frame = d.join(t, on=[(right, left) for left, right in on])
    elif shape in ("semi", "anti"):
        frame = t.filter(condition).join(d, on=on, how=shape)
    else:
        frame = t.join(d, on=on, how=shape.split("-")[0], residual=residual)
    aggregate = draw(st.sampled_from(["count*", "count", "sum"]))
    if aggregate == "count*":
        spec = count_star("n")
    elif aggregate == "count":
        spec = count(draw(expressions(depth=1)), "n")
    else:
        spec = sum_(draw(_NUMERIC), "n")
    return tables, frame.agg(spec).plan


class TestBridgeBatchEvaluation:
    """``CompiledSQLQuery.map_batch`` is ``map_record`` of every record,
    bit for bit, for every plan shape and batch layout."""

    @given(case=bridge_plans())
    @settings(max_examples=250, deadline=None)
    def test_map_batch_is_map_record_bitwise(self, case):
        tables, plan = case
        query = compile_plan(plan, tables, "t")
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
        elif how == "left":
            out += [{**lrow, **rrow} for rrow in matches] or [
                {**lrow, "k": None, "j": None, "y": None}
            ]
        elif bool(matches) == (how == "semi"):
            out.append(lrow)
    return out


class TestJoinOracle:
    """Every join kind equals the nested-loop oracle row for row, in the
    contract order, over NULL keys and duplicate keys on both sides."""

    @pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
    @given(left=LEFT_ROWS, right=RIGHT_ROWS, on=st.sampled_from(sorted(_ON)))
    @settings(max_examples=60, deadline=None)
    def test_join_matches_nested_loop(self, how, left, right, on):
        session = _order_session(left, right)
        frame = session.table("t").join(
            session.table("u"), on=_ON[on], how=how
        )
        expected = _nested_loop(left, right, _ON[on], how)
        assert frame.collect() == expected
        assert session.executor.execute(frame.plan).collect() == expected

    @pytest.mark.parametrize("how", ["semi", "anti"])
    @given(left=LEFT_ROWS, right=RIGHT_ROWS, on=st.sampled_from(sorted(_ON)))
    @settings(max_examples=60, deadline=None)
    def test_residual_join_matches_nested_loop(self, how, left, right, on):
        residual = col(Join.RESIDUAL_RIGHT_PREFIX + "y") > col("x")
        session = _order_session(left, right)
        frame = session.table("t").join(
            session.table("u"), on=_ON[on], how=how, residual=residual
        )
        assert frame.collect() == _nested_loop(
            left, right, _ON[on], how, residual
        )


def _sorted_nulls_first(rows, keys):
    """A stable sort by ``(name, ascending)`` keys, NULL below every
    value: one comparison over all keys (the executor sorts one pass
    per key)."""

    def compare(r1, r2):
        for name, ascending in keys:
            v1, v2 = r1[name], r2[name]
            if v1 == v2:
                continue
            if v1 is None or (v2 is not None and v1 < v2):
                order = -1
            else:
                order = 1
            return order if ascending else -order
        return 0

    return sorted(rows, key=functools.cmp_to_key(compare))


class TestWideOperatorOrder:
    @given(left=LEFT_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_group_by_keeps_first_seen_order(self, left):
        session = _order_session(left, [])
        got = (
            session.table("t").group_by("a", "b")
            .agg(count_star("n"), sum_(col("x"), "s")).collect()
        )
        groups = {}
        for row in left:
            n, s = groups.get((row["a"], row["b"]), (0, 0))
            groups[(row["a"], row["b"])] = (n + 1, s + row["x"])
        assert got == [
            {"a": a, "b": b, "n": n, "s": s}
            for (a, b), (n, s) in groups.items()
        ]

    @given(left=LEFT_ROWS)
    @settings(max_examples=60, deadline=None)
    def test_distinct_keeps_first_seen_order(self, left):
        session = _order_session(left, [])
        got = session.table("t").select("a", "b").distinct().collect()
        assert got == [
            {"a": a, "b": b}
            for a, b in dict.fromkeys((r["a"], r["b"]) for r in left)
        ]

    @given(left=LEFT_ROWS,
           keys=st.lists(
               st.tuples(st.sampled_from(["a", "b"]), st.booleans()),
               min_size=1, max_size=2, unique_by=lambda k: k[0],
           ))
    @settings(max_examples=80, deadline=None)
    def test_order_by_is_stable_with_nulls_first(self, left, keys):
        session = _order_session(left, [])
        got = session.table("t").order_by(
            *[name for name, _asc in keys],
            ascending=[asc for _name, asc in keys],
        ).collect()
        assert got == _sorted_nulls_first(left, keys)

    @given(left=LEFT_ROWS, right=RIGHT_ROWS, n=st.integers(0, 20),
           shape=st.sampled_from(["scan", "join", "order", "group"]))
    @settings(max_examples=80, deadline=None)
    def test_limit_is_a_prefix(self, left, right, n, shape):
        session = _order_session(left, right)
        t = session.table("t")
        frame = {
            "scan": t.filter(col("x") > 2),
            "join": t.join(session.table("u"), on=_ON["one key"]),
            "order": t.order_by("b", "x", ascending=[False, True]),
            "group": t.group_by("b").agg(count_star("n")),
        }[shape]
        assert frame.limit(n).collect() == frame.collect()[:n]


class TestBridgeAgreesWithPlainSQL:
    """The bridge's output is the plain SQL answer, NULL keys included
    (a key holding NULL matches nothing on either path)."""

    @given(case=bridge_plans())
    @settings(max_examples=150, deadline=None)
    def test_output_is_the_plain_answer(self, case):
        tables, plan = case
        query = compile_plan(plan, tables, "t")
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
