"""Tests for the SQL-to-UPA provenance compiler.

The strongest check: for every hand-written TPC-H workload, compiling
its *SQL text* with the same protected table yields identical
per-record contributions and identical query output.
"""

import datetime
import random

import numpy as np
import pytest

from repro.common.errors import AnalysisError, QueryShapeError
from repro.core import UPAConfig, UPASession
from repro.core.query import BatchSampler
from repro.core.sampling import RecordView, partition_and_sample
from repro.core.sqlbridge import (
    CompiledSQLQuery,
    _DynFilter,
    _DynJoinStatic,
    _DynProject,
    _DynScan,
    _DynSemiAnti,
    compile_plan,
    compile_sql,
)
from repro.engine.columnar import ColumnarPartition
from repro.engine.metrics import MetricsRegistry
from repro.sql import SQLSession, col, count_star, sum_
from repro.sql.expr import CaseWhen, lit
from repro.sql.functions import count
from repro.sql.logical import Join
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
        assert query.contribution(tables["t"][0]) == 1.0

    def test_filtered_count(self, tables):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t WHERE v >= 10", tables, "t"
        )
        assert query.output(tables)[0] == 20
        assert query.contribution({"v": 3, "g": 0}) == 0.0
        assert query.contribution({"v": 25, "g": 1}) == 1.0

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
        assert query.contribution({"k": 0, "w": 0}) == 10.0
        assert query.contribution({"k": 99, "w": 0}) == 0.0

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

    def test_group_by_rejected(self, tables):
        with pytest.raises(QueryShapeError):
            compile_sql(
                "SELECT g, COUNT(*) AS n FROM t GROUP BY g", tables, "t"
            )

    def test_avg_rejected(self, tables):
        with pytest.raises(QueryShapeError):
            compile_sql("SELECT AVG(v) AS a FROM t", tables, "t")

    def test_no_aggregate_rejected(self, tables):
        with pytest.raises(QueryShapeError):
            compile_sql("SELECT v FROM t", tables, "t")

    def test_self_join_rejected(self, tables):
        session = SQLSession()
        session.create_table("t", tables["t"])
        df = session.table("t").select(col("v").alias("v1"), "g")
        other = session.table("t").select(col("v").alias("v2"),
                                          col("g").alias("g2"))
        joined = df.join(other, on=[("g", "g2")]).agg(count_star("n"))
        with pytest.raises(QueryShapeError):
            compile_plan(joined.plan, tables, "t")

    def test_distinct_and_union_on_the_protected_path_rejected(self, tables):
        session = SQLSession()
        session.create_table("t", tables["t"])
        frame = session.table("t")
        for plan in (
            frame.distinct().agg(count_star("n")).plan,
            frame.union_all(frame).agg(count_star("n")).plan,
        ):
            with pytest.raises(QueryShapeError):
                compile_plan(plan, tables, "t")

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
        session = SQLSession()
        for name, rows in tables.items():
            session.create_table(name, rows)
        plan = session.sql(
            "SELECT COUNT(*) AS n FROM t, d WHERE g = k"
        ).plan
        with pytest.raises(AnalysisError, match="unknown table 'd'"):
            compile_plan(plan, {"t": tables["t"]}, "t")


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
        records = tpch_tables[handwritten.protected_table]
        for record in records[:300]:
            assert compiled.contribution(record) == pytest.approx(
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


def _shapes(session):
    """Every plan shape the bridge accepts, by name."""
    t, d = session.table("t"), session.table("d")
    r = Join.RESIDUAL_RIGHT_PREFIX
    return {
        "count": t.agg(count_star("n")),
        "filter-count": t.filter(
            (col("v") > 0) & (col("d") >= datetime.date(1995, 6, 1))
        ).agg(count_star("n")),
        "filter-sum-float": t.filter(col("s") != "zz").agg(
            sum_(col("f") * (1 - col("f")), "x")
        ),
        "sum-null-bearing": t.agg(sum_(col("v") * 2 + col("k"), "x")),
        "sum-mixed-column": t.filter(col("m") < 3).agg(
            sum_(col("m") * col("f"), "x")
        ),
        "count-expr-null-bearing": t.agg(count(col("v") + col("k"), "n")),
        "like-in-isnull-case": t.filter(
            col("s").like("ab%") | col("k").isin([1, 2]) | col("v").is_null()
        ).agg(sum_(
            CaseWhen([(col("v") > 0, col("f"))], lit(1)), "x"
        )),
        "project-sum": t.select(
            (col("f") * 3).alias("f3"), col("v"), lit(2).alias("two")
        ).filter(col("v").is_not_null()).agg(sum_(col("f3") * col("two"), "x")),
        "join-left": t.join(d, on=[("k", "dk")]).agg(
            sum_(col("f") * col("g"), "x")
        ),
        "join-left-residual": t.join(
            d, on=[("k", "dk")], residual=col("v") > 0
        ).agg(sum_(col("g"), "x")),
        "join-right-column-residual": t.join(
            d, on=[("k", "dk")], residual=col("w") > col("v")
        ).agg(sum_(col("g") * col("f"), "x")),
        "join-right-residual": d.join(
            t, on=[("dk", "k")], residual=col("w") > 1
        ).filter(col("name") == "ab").agg(count(col("w") + col("v"), "n")),
        "join-two-keys": t.join(
            d, on=[("k", "dk"), ("s", "name")]
        ).agg(count_star("n")),
        "semi": t.semi_join(d, on=[("k", "dk")]).agg(sum_(col("f"), "x")),
        "anti": t.anti_join(d, on=[("k", "dk")]).agg(count_star("n")),
        "semi-residual": t.semi_join(
            d, on=[("k", "dk")], residual=col(r + "w") > col("v")
        ).agg(sum_(col("f"), "x")),
        "anti-residual": t.anti_join(
            d, on=[("k", "dk")],
            residual=(col(r + "name") == col("s")) | (col(r + "w") < 5),
        ).agg(count_star("n")),
        "filter-after-join": t.join(d, on=[("k", "dk")]).filter(
            (col("g") > 0) & (col("f") < 1)
        ).agg(sum_(col("g") - col("f"), "x")),
    }


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


def _assert_batch_is_the_rows(query, batch, label):
    mapped = query.map_batch(batch, None)
    reference = np.asarray(
        [query.map_record(record, None) for record in batch], dtype=float
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

    def test_every_shape_and_layout_bitwise(self, tables, session):
        for shape, frame in _shapes(session).items():
            query = compile_plan(
                frame.plan, tables, "t", domain_sampler=_random_t
            )
            for layout, batch in _layouts(query, tables).items():
                _assert_batch_is_the_rows(query, batch, (shape, layout))

    def test_validate_monoid_passes_every_shape(self, tables, session):
        for shape, frame in _shapes(session).items():
            compile_plan(frame.plan, tables, "t").validate_monoid(tables)

    def test_output_is_the_plain_sql_answer(self, tables, session):
        for shape, frame in _shapes(session).items():
            query = compile_plan(frame.plan, tables, "t")
            plain = frame.scalar()
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
        frame = session.table("t").join(
            session.table("d"), on=[("k", "dk")]
        ).agg(sum_(col("w") * col("x"), "s"))
        query = compile_plan(frame.plan, tables, "t")
        assert query.map_batch(tables["t"], None).tolist() == [0.0, 10.0, 0.0]
        assert query.map_record(tables["t"][0], None) == 0.0
        assert query.output(tables)[0] == frame.scalar() == 10.0

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
        query = compile_plan(session.sql(text).plan, tables, "t")
        assert query.map_batch(tables["t"], None).tolist() == expected
        assert [query.map_record(r, None) for r in tables["t"]] == expected
        assert query.output(tables)[0] == session.sql(text).scalar()

    def test_map_batch_never_enters_the_row_interpreter(
        self, tables, session, monkeypatch
    ):
        for shape, frame in _shapes(session).items():
            query = compile_plan(frame.plan, tables, "t")
            with monkeypatch.context() as patch:
                for node in (
                    _DynScan, _DynFilter, _DynProject, _DynJoinStatic,
                    _DynSemiAnti,
                ):
                    patch.setattr(node, "rows", None)
                patch.setattr(CompiledSQLQuery, "contribution", None)
                assert len(query.map_batch(tables["t"], None)) == 120, shape

    def test_static_side_is_stored_once(self, tables, session):
        frame = session.table("t").join(
            session.table("d"), on=[("k", "dk")]
        ).agg(count_star("n"))
        query = compile_plan(frame.plan, tables, "t")
        index = query._dynamic._index
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
        assert wrap.map_batch(tables["t"], None).tolist() == [
            float(big * 4), 12.0, float(-big * 4),
        ]
        guarded = compile_sql(
            "SELECT SUM(a / b) AS s FROM t WHERE b <> 0 AND a / b > 0",
            tables, "t",
        )
        _assert_batch_is_the_rows(guarded, tables["t"], "guarded division")
        unguarded = compile_sql("SELECT SUM(a / b) AS s FROM t", tables, "t")
        with pytest.raises(ZeroDivisionError):
            unguarded.map_batch(tables["t"], None)
        with pytest.raises(ZeroDivisionError):
            [unguarded.map_record(r, None) for r in tables["t"]]

    def test_sum_of_text_raises_like_the_rows(self):
        tables = {"t": [{"c": "12"}, {"c": "7"}]}
        query = compile_sql("SELECT SUM(c) AS s FROM t", tables, "t")
        with pytest.raises(TypeError):
            query.map_batch(tables["t"], None)
        with pytest.raises(TypeError):
            query.map_record(tables["t"][0], None)

    def test_missing_column_is_an_analysis_error_either_way(self, tables):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM t WHERE v > 1", tables, "t"
        )
        stray = [{"other": 1}]
        with pytest.raises(AnalysisError):
            query.map_record(stray[0], None)
        with pytest.raises(AnalysisError):
            query.map_batch(stray, None)


class TestCompileCacheGuardsItsStaticLists:
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

    def _compiles(self, first, second, monkeypatch):
        """Cache hits, and plans compiled, of compiling TEXT over
        ``first``, then over ``second`` (a miss compiles)."""
        from repro.core import sqlbridge
        from repro.engine.context import EngineContext

        compiled = []
        init = sqlbridge._Compiler.__init__

        def counting(self, *args):
            compiled.append(args)
            init(self, *args)

        monkeypatch.setattr(sqlbridge._Compiler, "__init__", counting)
        sqlbridge.clear_bridge_cache()
        engine = EngineContext()
        compile_sql(self.TEXT, first, "a", engine=engine)
        query = compile_sql(self.TEXT, second, "a", engine=engine)
        assert query.scanned_tables == ("b",)
        return (
            engine.metrics.get(MetricsRegistry.SQL_PLAN_CACHE_HITS),
            len(compiled),
        )

    def test_an_extra_list_hits(self, monkeypatch):
        """The key held every non-protected name, so one more table in
        the dict recompiled and re-ran the static subtree."""
        tables = self._tables()
        extra = {**tables, "e": [{"x": 1}]}
        assert self._compiles(tables, extra, monkeypatch) == (1, 1)

    def test_a_change_to_an_unscanned_list_hits(self, monkeypatch):
        tables = self._tables()
        changed = {**tables, "c": tables["c"][:-1]}
        assert self._compiles(tables, changed, monkeypatch) == (1, 1)
        # ... and a change to the scanned one still misses.
        grown = {**tables, "b": tables["b"] + [{"bk": 1, "w": 0.5}]}
        assert self._compiles(tables, grown, monkeypatch) == (0, 2)


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

    def test_compile_plan_default_name_does_not_share(self, tpch_tables):
        from repro.tpch.queries.base import random_order

        sql = SQLSession()
        sql.create_table("orders", tpch_tables["orders"])
        orders = sql.table("orders")
        queries = [
            compile_plan(
                orders.filter(condition).agg(count_star("n")).plan,
                tpch_tables, "orders", domain_sampler=random_order,
            )
            for condition in (
                col("o_orderstatus") == "F", col("o_orderstatus") != "F",
            )
        ]
        assert queries[0].name == queries[1].name == "sql-query"
        session = self._session()
        first, second = (
            session.run(query, tpch_tables, 0.5) for query in queries
        )
        assert second is not first
        assert first.plain_output[0] != second.plain_output[0]
        again = compile_plan(
            orders.filter(col("o_orderstatus") == "F")
            .agg(count_star("n")).plan,
            tpch_tables, "orders", domain_sampler=random_order,
        )
        assert session.run(again, tpch_tables, 0.5) is first
