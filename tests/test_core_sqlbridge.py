"""Tests for the SQL-to-UPA provenance compiler.

The strongest check: for every hand-written TPC-H workload, compiling
its *SQL text* with the same protected table yields identical
per-record contributions and identical query output.
"""

import datetime
import random

import numpy as np
import pytest

from repro.common.errors import AnalysisError, ParseError, QueryShapeError
from repro.core import UPAConfig, UPASession
from repro.core.query import BatchSampler
from repro.core.sampling import RecordView, partition_and_sample
from repro.core.sqlbridge import (
    CompiledSQLQuery,
    _DynFilter,
    _DynJoinStatic,
    _DynScan,
    _DynSemiAnti,
    compile_sql,
)
from repro.dp import PrivacyAccountant
from repro.engine.columnar import ColumnarPartition
from repro.engine.metrics import MetricsRegistry
from repro.sql import SQLSession
from repro.tpch.workload import all_queries


class TestCompileBasics:
    @pytest.fixture
    def tables(self):
        return {
            "t": [{"v": i, "g": i % 3} for i in range(30)],
            "d": [{"k": g, "w": g * 10} for g in range(3)],
        }

    def test_plain_count(self, tables):
        query = compile_sql("SELECT COUNT(*) AS n FROM t", tables, "t")
        assert query.output(tables)[0] == 30
        assert query.map_record(tables["t"][0], query.build_aux(tables)) == 1.0

    @pytest.mark.parametrize("text", [
        "SELECT COUNT(*) AS n FROM t",
        "SELECT COUNT(*) AS n FROM t, d WHERE g = k AND w > 0",
        # a name inside a string literal is not a table the text names
        "SELECT COUNT(*) AS n FROM t WHERE 'skipped' <> 'x'",
    ])
    def test_only_the_tables_the_text_names_are_registered(
        self, tables, text
    ):
        """The parser reads the schemas of the tables the text names;
        compile_sql registers no other table of ``tables``."""

        class Unread(list):
            def __iter__(self):
                raise AssertionError("a table the text does not name was read")

        query = compile_sql(text, {**tables, "skipped": Unread()}, "t")
        assert query.output(tables)[0] == compile_sql(
            text, tables, "t"
        ).output(tables)[0]

    def test_filtered_count(self, tables):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t WHERE v >= 10", tables, "t"
        )
        assert query.output(tables)[0] == 20
        aux = query.build_aux(tables)
        assert query.map_record({"v": 3, "g": 0}, aux) == 0.0
        assert query.map_record({"v": 25, "g": 1}, aux) == 1.0

    def test_sum_query(self, tables):
        query = compile_sql(
            "SELECT SUM(v * 2) AS s FROM t WHERE g = 0", tables, "t"
        )
        expected = sum(i * 2 for i in range(30) if i % 3 == 0)
        assert query.output(tables)[0] == expected

    def test_join_protected_left(self, tables):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t, d WHERE g = k AND w > 5",
            tables, "t",
        )
        expected = sum(1 for i in range(30) if (i % 3) * 10 > 5)
        assert query.output(tables)[0] == expected

    def test_join_protected_on_dimension_side(self, tables):
        # protect the dimension table: each d-row's contribution is the
        # number of fact rows joining it.
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t, d WHERE g = k", tables, "d"
        )
        assert query.output(tables)[0] == 30
        aux = query.build_aux(tables)
        assert query.map_record({"k": 0, "w": 0}, aux) == 10.0
        assert query.map_record({"k": 99, "w": 0}, aux) == 0.0

    def test_exists_over_static_side(self, tables):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t WHERE EXISTS "
            "(SELECT * FROM d WHERE d.k = t.g AND d.w > 5)",
            tables, "t",
        )
        expected = sum(1 for i in range(30) if (i % 3) * 10 > 5)
        assert query.output(tables)[0] == expected

    @pytest.mark.parametrize("text, protected", [
        ("SELECT COUNT(*) AS n FROM t", "t"),
        ("SELECT COUNT(*) AS n FROM t WHERE v >= 10", "t"),
        ("SELECT SUM(v * 2) AS s FROM t WHERE g = 0", "t"),
        ("SELECT COUNT(*) AS n FROM t, d WHERE g = k AND w > 5", "t"),
        ("SELECT COUNT(*) AS n FROM t, d WHERE g = k", "d"),
        ("SELECT COUNT(*) AS n FROM t WHERE EXISTS "
         "(SELECT * FROM d WHERE d.k = t.g AND d.w > 5)", "t"),
    ])
    def test_validate_monoid_passes(self, tables, text, protected):
        compile_sql(text, tables, protected).validate_monoid(tables)

    def test_domain_sampler_used(self, tables):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t", tables, "t",
            domain_sampler=lambda rng, _t: {"v": 99, "g": 0},
        )
        record = query.sample_domain_record(random.Random(0), tables)
        assert record == {"v": 99, "g": 0}

    def test_missing_domain_sampler_raises_on_use(self, tables):
        query = compile_sql("SELECT COUNT(*) AS n FROM t", tables, "t")
        with pytest.raises(QueryShapeError):
            query.sample_domain_record(random.Random(0), tables)

    def test_monoid_laws_hold(self, tables):
        query = compile_sql(
            "SELECT SUM(v) AS s FROM t WHERE g <> 1", tables, "t",
            domain_sampler=lambda rng, _t: {"v": rng.randrange(50), "g": 0},
        )
        query.validate_monoid(tables)


class TestRejections:
    @pytest.fixture
    def tables(self):
        return {
            "t": [{"v": i, "g": i % 2} for i in range(10)],
            "d": [{"k": 0}, {"k": 1}],
        }

    @pytest.mark.parametrize("text, clause", [
        ("SELECT g, COUNT(*) AS n FROM t GROUP BY g", "GROUP BY"),
        ("SELECT COUNT(*) AS n FROM t HAVING COUNT(*) > 1", "HAVING"),
        ("SELECT COUNT(*) AS n FROM t ORDER BY n", "ORDER BY"),
        ("SELECT COUNT(*) AS n FROM t LIMIT 1", "LIMIT"),
        ("SELECT COUNT(*) AS n FROM t UNION ALL "
         "SELECT COUNT(*) AS n FROM t", "UNION ALL"),
    ], ids=["group-by", "having", "order-by", "limit", "union-all"])
    def test_more_than_one_aggregate_row_is_refused_by_the_parser(
        self, tables, text, clause
    ):
        """A text that groups, orders, truncates or concatenates rows
        does not parse, so it never reaches the bridge."""
        with pytest.raises(ParseError, match=clause):
            compile_sql(text, tables, "t")

    def test_more_than_one_aggregate_rejected(self, tables):
        with pytest.raises(QueryShapeError, match="one aggregate"):
            compile_sql(
                "SELECT COUNT(*) AS n, SUM(v) AS s FROM t", tables, "t"
            )

    def test_avg_rejected(self, tables):
        with pytest.raises(QueryShapeError):
            compile_sql("SELECT AVG(v) AS a FROM t", tables, "t")

    def test_no_aggregate_rejected(self, tables):
        with pytest.raises(QueryShapeError):
            compile_sql("SELECT v FROM t", tables, "t")

    def test_self_join_rejected(self, tables):
        with pytest.raises(QueryShapeError, match="self-join"):
            compile_sql(
                "SELECT COUNT(*) AS n FROM t WHERE EXISTS "
                "(SELECT * FROM t u WHERE u.g = t.g AND u.v <> t.v)",
                tables, "t",
            )

    def test_scalar_subquery_over_the_protected_table_rejected(self, tables):
        """The parser evaluates a scalar subquery once, so the plan
        holds AVG(v) as a constant, though every record moves it: up to
        1.32.0 the bridge compiled this as a linear count and released
        it.  Over a public table it stays a constant, and compiles."""
        text = "SELECT COUNT(*) AS n FROM t WHERE v > (SELECT AVG(v) FROM {})"
        with pytest.raises(QueryShapeError, match="scalar subquery"):
            compile_sql(text.format("t"), tables, "t")
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t WHERE v > (SELECT SUM(k) FROM d)",
            tables, "t",
        )
        assert query.output(tables)[0] == 8  # v > 1
        nested = (
            "SELECT COUNT(*) AS n FROM d WHERE k < "
            "(SELECT COUNT(*) FROM t WHERE v > (SELECT AVG(v) FROM t))"
        )
        with pytest.raises(QueryShapeError, match="scalar subquery"):
            compile_sql(nested, tables, "t")

    def test_a_subquery_predicate_under_or_rejected(self, tables):
        """Up to 1.33.0 this compiled, and every record then raised
        "subquery marker cannot be evaluated directly"."""
        with pytest.raises(ParseError, match="top-level AND conjunct"):
            compile_sql(
                "SELECT COUNT(*) AS n FROM t "
                "WHERE g IN (SELECT k FROM d) OR v < 5", tables, "t",
            )

    def test_exists_over_protected_rejected(self, tables):
        with pytest.raises(QueryShapeError):
            compile_sql(
                "SELECT COUNT(*) AS n FROM d WHERE EXISTS "
                "(SELECT * FROM t WHERE t.g = d.k)",
                tables, "t",
            )

    def test_unread_protected_table_rejected(self, tables):
        with pytest.raises(QueryShapeError):
            compile_sql("SELECT COUNT(*) AS n FROM d", tables, "t")

    def test_unknown_protected_table(self, tables):
        with pytest.raises(QueryShapeError):
            compile_sql("SELECT COUNT(*) AS n FROM t", tables, "nope")

    def test_count_distinct_rejected(self, tables):
        with pytest.raises(QueryShapeError):
            compile_sql("SELECT COUNT(DISTINCT v) AS n FROM t", tables, "t")

    def test_a_scanned_table_missing_from_tables(self, tables):
        with pytest.raises(AnalysisError, match="unknown table 'd'"):
            compile_sql(
                "SELECT COUNT(*) AS n FROM t, d WHERE g = k",
                {"t": tables["t"]}, "t",
            )


class TestAgainstHandWrittenQueries:
    @pytest.mark.parametrize("handwritten", all_queries(), ids=lambda q: q.name)
    def test_compiled_contributions_match(self, handwritten, tpch_tables):
        compiled = compile_sql(
            handwritten.sql_text(),
            tpch_tables,
            handwritten.protected_table,
            domain_sampler=handwritten.sample_domain_record,
            name=f"compiled-{handwritten.name}",
        )
        aux = handwritten.build_aux(tpch_tables)
        compiled_aux = compiled.build_aux(tpch_tables)
        records = tpch_tables[handwritten.protected_table]
        for record in records[:300]:
            assert compiled.map_record(record, compiled_aux) == pytest.approx(
                handwritten.map_record(record, aux)
            ), (handwritten.name, record)
        assert compiled.output(tpch_tables)[0] == pytest.approx(
            handwritten.output(tpch_tables)[0]
        )
        compiled.validate_monoid(tpch_tables)

    def test_run_sql_end_to_end(self, tpch_tables):
        from repro.tpch.queries.base import random_lineitem

        session = UPASession(UPAConfig(sample_size=100, seed=3))
        result = session.run_sql(
            "SELECT COUNT(*) AS n FROM lineitem",
            tpch_tables,
            protected_table="lineitem",
            epsilon=0.5,
            domain_sampler=random_lineitem,
        )
        truth = len(tpch_tables["lineitem"])
        assert result.plain_output[0] == truth
        assert result.estimated_local_sensitivity == pytest.approx(1.0)

    def test_compiled_query_sensitivity_matches_handwritten(self, tpch_tables):
        from repro.baselines import exact_local_sensitivity
        from repro.tpch.workload import query_by_name

        handwritten = query_by_name("tpch13")
        compiled = compile_sql(
            handwritten.sql_text(), tpch_tables,
            handwritten.protected_table,
            domain_sampler=handwritten.sample_domain_record,
        )
        a = exact_local_sensitivity(handwritten, tpch_tables)
        b = exact_local_sensitivity(compiled, tpch_tables)
        assert a.local_sensitivity == pytest.approx(b.local_sensitivity)


# ---------------------------------------------------------------------------
# The batch evaluator: map_batch == [map_record(r) for r in batch], bitwise
# ---------------------------------------------------------------------------


def _awkward_tables():
    """A protected table and a static side with everything awkward in
    them: NULLs in keys and values, keys with several matches and with
    none, a column of mixed int/float (no typed buffer), floats whose
    sum depends on the order of addition."""
    rng = random.Random(17)
    t = [
        {
            "k": rng.choice([None, 0, 1, 2, 3, 7, 99]),
            "v": rng.choice([None, -3, 0, 4, 11]),
            "f": rng.choice([0.1, 0.7, 1e-9, 2.5e7, -0.3]),
            "s": rng.choice(["ab", "abc", "zz", ""]),
            "m": rng.choice([1, 2.5, 3, -0.25]),
            "d": datetime.date(1995, 1, 1)
            + datetime.timedelta(days=rng.randrange(400)),
        }
        for _ in range(120)
    ]
    d = [
        {
            "dk": rng.choice([None, 0, 1, 1, 2, 3, 3, 3, 50]),
            "w": rng.choice([None, 1, 5, 9]),
            "g": rng.choice([0.3, 1.7, 1e8, -2.2]),
            "name": rng.choice(["ab", "q"]),
        }
        for _ in range(40)
    ]
    return {"t": t, "d": d}


@BatchSampler
def _random_t(gen, tables, n):
    """S-bar for ``t``: typed key/value columns, the rest plain lists."""
    return {
        "k": gen.integers(0, 5, size=n),
        "v": gen.integers(-3, 12, size=n),
        "f": gen.uniform(-1.0, 3.0, size=n),
        "s": [["ab", "abc", "zz"][i] for i in gen.integers(3, size=n).tolist()],
        "m": [[1, 2.5][i] for i in gen.integers(2, size=n).tolist()],
        "d": [datetime.date(1995, 3, 1)] * n,
    }


_SHAPE_TEXTS = {
    "count": "SELECT COUNT(*) AS n FROM t",
    "filter-count":
        "SELECT COUNT(*) AS n FROM t WHERE v > 0 AND d >= DATE '1995-06-01'",
    "filter-sum-float": "SELECT SUM(f * (1 - f)) AS x FROM t WHERE s <> 'zz'",
    "sum-null-bearing": "SELECT SUM(v * 2 + k) AS x FROM t",
    "sum-mixed-column": "SELECT SUM(m * f) AS x FROM t WHERE m < 3",
    "count-expr-null-bearing": "SELECT COUNT(v + k) AS n FROM t",
    "like-in-isnull-case":
        "SELECT SUM(CASE WHEN v > 0 THEN f ELSE 1 END) AS x FROM t "
        "WHERE s LIKE 'ab%' OR k IN (1, 2) OR v IS NULL",
    "join-left": "SELECT SUM(f * g) AS x FROM t, d WHERE k = dk",
    "join-left-residual": "SELECT SUM(g) AS x FROM t, d WHERE k = dk AND v > 0",
    "join-right-column-residual":
        "SELECT SUM(g * f) AS x FROM t, d WHERE k = dk AND w > v",
    "join-right-residual":
        "SELECT COUNT(w + v) AS n FROM d, t "
        "WHERE dk = k AND w > 1 AND name = 'ab'",
    "semi": "SELECT SUM(f) AS x FROM t WHERE EXISTS "
            "(SELECT * FROM d WHERE d.dk = t.k)",
    "anti": "SELECT COUNT(*) AS n FROM t WHERE NOT EXISTS "
            "(SELECT * FROM d WHERE d.dk = t.k)",
    "semi-residual": "SELECT SUM(f) AS x FROM t WHERE EXISTS "
                     "(SELECT * FROM d WHERE d.dk = t.k AND d.w > t.v)",
    "anti-residual": "SELECT COUNT(*) AS n FROM t WHERE NOT EXISTS "
                     "(SELECT * FROM d WHERE d.dk = t.k "
                     "AND (d.name = t.s OR d.w < 5))",
    "filter-after-join":
        "SELECT SUM(g - f) AS x FROM t, d WHERE k = dk AND g > 0 AND f < 1",
    "semi-two-keys": "SELECT COUNT(*) AS n FROM t WHERE EXISTS "
                     "(SELECT * FROM d WHERE d.dk = t.k AND d.name = t.s)",
}


def _scalar(query):
    """The one value of a one-row, one-column result."""
    ((value,),) = (row.values() for row in query.collect())
    return value


def _layouts(query, tables):
    """The batch layouts phase 2 and S-bar hand to ``map_batch``."""
    rows = tables[query.protected_table]
    sample = partition_and_sample(query, tables, 30, random.Random(5))
    assert sample.buffers  # the hash kept its typed columns
    assert isinstance(sample.domain_samples, ColumnarPartition)
    positions = np.arange(len(rows))[::3]
    return {
        "S-bar": sample.domain_samples,
        "view+buffers:S": sample.sampled,
        "view+buffers:S'": sample.remaining[0],
        "view+buffers:slice": sample.remaining[1][5:40],
        "view-no-buffers": RecordView(rows, positions, {}),
        "columnar": ColumnarPartition({
            name: sample.buffers.get(name, [row[name] for row in rows])[:50]
            for name in rows[0]
        }),
        "list": rows,
        "one": rows[:1],
        "empty-list": [],
        "empty-view": sample.sampled[4:4],
    }


def _assert_batch_is_the_rows(query, tables, batch, label):
    aux = query.build_aux(tables)
    mapped = query.map_batch(batch, aux)
    reference = np.asarray(
        [query.map_record(record, aux) for record in batch], dtype=float
    )
    assert mapped.dtype == np.float64 and mapped.shape == reference.shape, label
    assert (
        mapped.view(np.uint64) == reference.view(np.uint64)
    ).all(), label


class TestBatchEvaluator:
    @pytest.fixture(scope="class")
    def tables(self):
        return _awkward_tables()

    @pytest.fixture(scope="class")
    def session(self, tables):
        session = SQLSession()
        for name, rows in tables.items():
            session.create_table(name, rows)
        return session

    def test_every_shape_and_layout_bitwise(self, tables):
        for shape, text in _SHAPE_TEXTS.items():
            query = compile_sql(text, tables, "t", domain_sampler=_random_t)
            for layout, batch in _layouts(query, tables).items():
                _assert_batch_is_the_rows(
                    query, tables, batch, (shape, layout)
                )

    def test_validate_monoid_passes_every_shape(self, tables):
        for text in _SHAPE_TEXTS.values():
            compile_sql(text, tables, "t").validate_monoid(tables)

    def test_output_is_the_plain_sql_answer(self, tables, session):
        for shape, text in _SHAPE_TEXTS.items():
            query = compile_sql(text, tables, "t")
            plain = _scalar(session.sql(text))
            expected = 0.0 if plain is None else float(plain)
            assert query.output(tables)[0] == pytest.approx(
                expected, rel=1e-12
            ), shape

    def test_none_keys_match_nothing_as_the_plain_executor_does(self):
        # NULL = NULL is not true: a key holding NULL joins no row.
        tables = {
            "t": [{"k": None, "x": 1}, {"k": 1, "x": 2}, {"k": None, "x": 3}],
            "d": [{"dk": None, "w": 10}, {"dk": None, "w": 20}, {"dk": 1, "w": 5}],
        }
        session = SQLSession()
        for name, rows in tables.items():
            session.create_table(name, rows)
        text = "SELECT SUM(w * x) AS s FROM t, d WHERE k = dk"
        query = compile_sql(text, tables, "t")
        aux = query.build_aux(tables)
        assert query.map_batch(tables["t"], aux).tolist() == [0.0, 10.0, 0.0]
        assert query.map_record(tables["t"][0], aux) == 0.0
        assert query.output(tables)[0] == _scalar(session.sql(text)) == 10.0

    @pytest.mark.parametrize("negated, expected", [
        (False, [0.0, 1.0, 0.0]), (True, [1.0, 0.0, 1.0]),
    ])
    def test_none_keys_in_a_subquery_match_nothing(self, negated, expected):
        tables = {
            "t": [{"a": 1, "b": None}, {"a": 2, "b": 3}, {"a": 3, "b": 1}],
            "u": [{"k": None, "v": 1}, {"k": 3, "v": 2}],
        }
        text = (
            "SELECT COUNT(*) AS n FROM t WHERE b "
            f"{'NOT IN' if negated else 'IN'} (SELECT k FROM u)"
        )
        session = SQLSession()
        for name, rows in tables.items():
            session.create_table(name, rows)
        query = compile_sql(text, tables, "t")
        aux = query.build_aux(tables)
        assert query.map_batch(tables["t"], aux).tolist() == expected
        assert [query.map_record(r, aux) for r in tables["t"]] == expected
        assert query.output(tables)[0] == _scalar(session.sql(text))

    def test_map_batch_never_enters_the_row_interpreter(
        self, tables, monkeypatch
    ):
        for shape, text in _SHAPE_TEXTS.items():
            query = compile_sql(text, tables, "t")
            aux = query.build_aux(tables)
            with monkeypatch.context() as patch:
                for node in (
                    _DynScan, _DynFilter, _DynJoinStatic, _DynSemiAnti,
                ):
                    patch.setattr(node, "rows", None)
                patch.setattr(CompiledSQLQuery, "map_record", None)
                assert len(query.map_batch(tables["t"], aux)) == 120, shape

    def test_static_side_is_stored_once(self, tables):
        """A session keeps the index its release built, once; the
        index holds the static table's own rows, not copies."""
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t, d WHERE k = dk", tables, "t",
            domain_sampler=_random_t,
        )
        upa = UPASession(UPAConfig(sample_size=20, seed=3))
        upa.run(query, tables, 0.5)
        (index,), _read, kept, _public = upa._tables.aux(query, tables)
        assert kept
        assert all(a is b for a, b in zip(index.rows, tables["d"]))
        assert sorted(index.row_ids.tolist()) == list(range(len(tables["d"])))
        for key, slot in index.slots.items():
            bucket = index.probe(key)
            assert [row["dk"] for row in bucket] == [key] * index.counts[slot]
            assert all(any(row is other for other in tables["d"])
                       for row in bucket)

    def test_int64_wrap_and_guarded_division_follow_python(self):
        big = 1 << 62
        tables = {"t": [
            {"a": big, "b": 4, "z": 0}, {"a": 3, "b": 0, "z": 2},
            {"a": -big, "b": 5, "z": 1},
        ]}
        wrap = compile_sql("SELECT SUM(a * 4) AS s FROM t", tables, "t")
        aux = wrap.build_aux(tables)
        assert wrap.map_batch(tables["t"], aux).tolist() == [
            float(big * 4), 12.0, float(-big * 4),
        ]
        guarded = compile_sql(
            "SELECT SUM(a / b) AS s FROM t WHERE b <> 0 AND a / b > 0",
            tables, "t",
        )
        _assert_batch_is_the_rows(
            guarded, tables, tables["t"], "guarded division"
        )
        unguarded = compile_sql("SELECT SUM(a / b) AS s FROM t", tables, "t")
        aux = unguarded.build_aux(tables)
        with pytest.raises(ZeroDivisionError):
            unguarded.map_batch(tables["t"], aux)
        with pytest.raises(ZeroDivisionError):
            [unguarded.map_record(r, aux) for r in tables["t"]]

    def test_sum_of_text_raises_like_the_rows(self):
        tables = {"t": [{"c": "12"}, {"c": "7"}]}
        query = compile_sql("SELECT SUM(c) AS s FROM t", tables, "t")
        aux = query.build_aux(tables)
        with pytest.raises(TypeError):
            query.map_batch(tables["t"], aux)
        with pytest.raises(TypeError):
            query.map_record(tables["t"][0], aux)

    def test_missing_column_is_an_analysis_error_either_way(self, tables):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t WHERE v > 1", tables, "t"
        )
        stray = [{"other": 1}]
        aux = query.build_aux(tables)
        with pytest.raises(AnalysisError):
            query.map_record(stray[0], aux)
        with pytest.raises(AnalysisError):
            query.map_batch(stray, aux)


class TestAuxCacheGuardsItsStaticLists:
    def test_a_static_list_grown_by_append_is_compiled_again(self):
        """``b`` is static when ``a`` is protected and protected the
        other way round, so the session's own append() grows the list
        the cached join index was built from; list identity alone
        released 8 572 joined rows where there are 9 862."""
        text = "SELECT COUNT(*) AS n FROM a, b WHERE k = bk"
        tables = {
            "a": [{"k": i % 7, "v": float(i)} for i in range(300)],
            "b": [{"bk": i % 7, "w": float(i)} for i in range(200)],
        }
        samplers = {
            "a": lambda rng, _t: {"k": rng.randrange(7), "v": rng.random()},
            "b": lambda rng, _t: {"bk": rng.randrange(7), "w": rng.random()},
        }
        session = UPASession(UPAConfig(sample_size=40, seed=3))

        def release(protected):
            return session.run_sql(
                text, tables, protected, epsilon=0.5,
                domain_sampler=samplers[protected],
            )

        def joined():
            return sum(
                1 for left in tables["a"] for right in tables["b"]
                if left["k"] == right["bk"]
            )

        assert release("a").plain_output[0] == joined() == 8572
        release("b")
        session.append([{"bk": 2, "w": float(j)} for j in range(30)], 0.5)
        assert release("a").plain_output[0] == joined() == 9862
        hits = session.engine.metrics.get("sql.plan_cache.hits")
        # Another epsilon: a fresh release, from the cached compile.
        again = session.run_sql(
            text, tables, "a", epsilon=0.4, domain_sampler=samplers["a"],
        )
        assert again.plain_output[0] == 9862
        assert session.engine.metrics.get("sql.plan_cache.hits") == hits + 1

    TEXT = "SELECT COUNT(*) AS n FROM a, b WHERE k = bk"

    def _tables(self):
        return {
            "a": [{"k": i % 7, "v": float(i)} for i in range(300)],
            "b": [{"bk": i % 7, "w": float(i)} for i in range(200)],
            "c": [{"ck": i} for i in range(50)],
        }

    def _builds(self, first, second, monkeypatch):
        """Kept aux reused, and static sides built, of releasing TEXT
        over ``first``, then over ``second`` (another epsilon, so it
        does not replay) in one session."""
        built = []
        build = CompiledSQLQuery.build_aux

        def counting(self, tables):
            built.append(tables)
            return build(self, tables)

        monkeypatch.setattr(CompiledSQLQuery, "build_aux", counting)
        session = UPASession(UPAConfig(sample_size=20, seed=3))
        for tables, epsilon in ((first, 0.5), (second, 0.4)):
            session.run_sql(
                self.TEXT, tables, "a", epsilon,
                domain_sampler=lambda rng, _t: {"k": 1, "v": 0.0},
            )
        assert [t.names for t in built] == [{"b"}] * len(built)
        reuses = session.engine.metrics.get(MetricsRegistry.AUX_REUSES)
        return reuses, len(built)

    def test_an_extra_list_hits(self, monkeypatch):
        """One more table in the dict is not read, so the static side
        is not run again."""
        tables = self._tables()
        extra = {**tables, "e": [{"x": 1}]}
        assert self._builds(tables, extra, monkeypatch) == (1, 1)

    def test_a_change_to_an_unscanned_list_hits(self, monkeypatch):
        tables = self._tables()
        changed = {**tables, "c": tables["c"][:-1]}
        assert self._builds(tables, changed, monkeypatch) == (1, 1)
        # ... and a change to the scanned one rebuilds the index.
        grown = {**tables, "b": tables["b"] + [{"bk": 1, "w": 0.5}]}
        assert self._builds(tables, grown, monkeypatch) == (0, 2)


class TestStaticSideFollowsTheTables:
    """A compiled query reads its public tables in ``build_aux``, so it
    answers over the tables it is run with, like a hand-written one."""

    TEXT = "SELECT COUNT(*) AS n FROM t, p WHERE k = pk"

    def _tables(self, parts):
        return {
            "t": [{"k": i % 25} for i in range(100)],
            "p": [{"pk": i % 25} for i in range(parts)],
        }

    def _compile(self, tables):
        return compile_sql(
            self.TEXT, tables, "t",
            domain_sampler=lambda rng, _t: {"k": rng.randrange(25)},
        )

    def test_a_query_compiled_over_one_public_list_runs_over_another(self):
        """Compiled over a ``p`` of 25 rows and run over one of 50, the
        query joins the 50: up to 1.31.0 it answered from the 25 it was
        compiled over (100 joined rows, not 200), in ``output``, in a
        release and in the replay of that release."""
        small, large = self._tables(25), self._tables(50)
        large["t"] = small["t"]
        query = self._compile(small)
        assert query.output(small)[0] == 100
        assert query.output(large)[0] == 200
        assert self._compile(large).output(large)[0] == 200
        session = UPASession(UPAConfig(sample_size=20, seed=3))
        first = session.run(query, small, 0.5)
        assert first.plain_output[0] == 100
        # The same query, protected rows and epsilon over another public
        # list is no replay ...
        second = session.run(query, large, 0.5)
        assert second is not first
        assert second.plain_output[0] == 200
        # ... and over that list again, it is.
        assert session.run(query, large, 0.5) is second

    def test_a_release_replays_after_one_over_other_public_tables(self):
        """x over ``p`` of 25, then of 50, then of 25 again at one
        epsilon: the third replays the first.  Up to 1.32.0 the second
        release overwrote the first, so the third was released afresh:
        1.5 spent, and three RANGE ENFORCER registrations."""
        small, large = self._tables(25), self._tables(50)
        large["t"] = small["t"]
        sampler = lambda rng, _t: {"k": rng.randrange(25)}  # noqa: E731
        session = UPASession(UPAConfig(sample_size=20, seed=3),
                             accountant=PrivacyAccountant(10.0))
        first, second, third = (
            session.run_sql(self.TEXT, tables, "t", 0.5,
                            domain_sampler=sampler)
            for tables in (small, large, small)
        )
        assert second is not first and third is first
        assert session.accountant.spent() == pytest.approx(1.0)
        assert len(session.enforcer) == 2

    def test_one_text_run_twice_reuses_its_static_indexes(self):
        tables = self._tables(25)
        sampler = lambda rng, _t: {"k": rng.randrange(25)}  # noqa: E731
        session = UPASession(UPAConfig(sample_size=20, seed=3))
        metrics = session.engine.metrics
        session.run_sql(self.TEXT, tables, "t", 0.5, domain_sampler=sampler)
        reuses = metrics.get(MetricsRegistry.AUX_REUSES)
        session.run_sql(self.TEXT, tables, "t", 0.4, domain_sampler=sampler)
        assert metrics.get(MetricsRegistry.AUX_REUSES) == reuses + 1

    def test_a_change_to_a_scanned_list_rebuilds_the_indexes(self):
        tables = self._tables(25)
        query = self._compile(tables)
        session = UPASession(UPAConfig(sample_size=20, seed=3))
        metrics = session.engine.metrics
        assert session.run(query, tables, 0.5).plain_output[0] == 100
        tables["p"].extend({"pk": i} for i in range(25))
        reuses = metrics.get(MetricsRegistry.AUX_REUSES)
        assert session.run(query, tables, 0.4).plain_output[0] == 200
        assert metrics.get(MetricsRegistry.AUX_REUSES) == reuses
        assert session.run(query, tables, 0.3).plain_output[0] == 200
        assert metrics.get(MetricsRegistry.AUX_REUSES) == reuses + 1


class TestReplayIdentity:
    """A replay is keyed on what a query computes, not its name."""

    URGENT = ("SELECT COUNT(*) AS n FROM orders "
              "WHERE o_orderpriority = '1-URGENT'")
    OTHERS = ("SELECT COUNT(*) AS n FROM orders "
              "WHERE o_orderpriority <> '1-URGENT'")

    def _session(self):
        return UPASession(UPAConfig(sample_size=50, seed=3))

    def test_two_texts_with_one_display_name_do_not_share(self, tpch_tables):
        from repro.tpch.queries.base import random_order

        assert self.URGENT[:40] == self.OTHERS[:40]  # same display name
        session = self._session()

        def release(text):
            return session.run_sql(
                text, tpch_tables, protected_table="orders", epsilon=0.5,
                domain_sampler=random_order,
            )

        urgent, others = release(self.URGENT), release(self.OTHERS)
        assert others is not urgent
        total = len(tpch_tables["orders"])
        assert urgent.plain_output[0] + others.plain_output[0] == total
        assert 0 < urgent.plain_output[0] < others.plain_output[0]
        # ... and an identical resubmission, compiled again, replays.
        assert release(self.URGENT) is urgent
        assert release(self.OTHERS) is others
        metrics = session.engine.metrics
        assert metrics.get(MetricsRegistry.RELEASE_REPLAYS) == 2
