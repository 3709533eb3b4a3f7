"""Tests for the FLEX baseline and brute-force ground truth."""

import numpy as np
import pytest

from repro.baselines import (
    exact_local_sensitivity,
    flex_local_sensitivity,
)
from repro.baselines.flex import (
    TableMetadata,
    elastic_stability,
    flex_smooth_sensitivity,
    max_frequency,
)
from repro.common.errors import FlexUnsupportedError
from repro.sql import SQLSession, col, count_star, sum_
from repro.tpch.workload import all_queries, query_by_name


class TestMetadata:
    def test_max_frequency(self):
        rows = [{"k": 1}, {"k": 2}, {"k": 1}, {"k": 1}]
        assert max_frequency(rows, "k") == 3

    def test_max_frequency_empty(self):
        assert max_frequency([], "k") == 0

    def test_table_metadata_caches(self):
        rows = [{"k": 1}, {"k": 1}]
        meta = TableMetadata({"t": rows})
        assert meta.max_frequency("t", "k") == 2
        rows.append({"k": 1})  # cache hides the mutation, by design
        assert meta.max_frequency("t", "k") == 2

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            TableMetadata({}).max_frequency("nope", "k")


@pytest.fixture
def star_session():
    """A toy star schema with controlled join-key frequencies."""
    sess = SQLSession()
    sess.create_table("fact", [{"fk": i % 3, "val": i} for i in range(12)])
    sess.create_table("dim", [{"dk": d, "label": f"d{d}"} for d in range(3)])
    return sess


class TestFlexAnalysis:
    def _tables(self, session):
        return {
            name: session.catalog.table(name).rows
            for name in session.catalog.names()
        }

    def test_plain_count_sensitivity_one(self, star_session):
        plan = star_session.table("fact").agg(count_star("n")).plan
        result = flex_local_sensitivity(plan, self._tables(star_session))
        assert result.sensitivity == 1.0
        assert result.factors == []

    def test_join_multiplies_max_frequencies(self, star_session):
        df = star_session.table("fact").join(
            star_session.table("dim"), on=[("fk", "dk")]
        ).agg(count_star("n"))
        result = flex_local_sensitivity(df.plan, self._tables(star_session))
        # mf(fact.fk) = 4, mf(dim.dk) = 1
        assert result.sensitivity == 4.0
        assert len(result.factors) == 1

    def test_filters_ignored_and_recorded(self, star_session):
        df = (
            star_session.table("fact")
            .filter(col("val") > 100)  # filters out everything
            .agg(count_star("n"))
        )
        result = flex_local_sensitivity(df.plan, self._tables(star_session))
        assert result.sensitivity == 1.0  # blind to the filter
        assert len(result.ignored_filters) == 1

    def test_sum_unsupported(self, star_session):
        df = star_session.table("fact").agg(sum_(col("val"), "s"))
        with pytest.raises(FlexUnsupportedError):
            flex_local_sensitivity(df.plan, self._tables(star_session))

    def test_group_by_unsupported(self, star_session):
        df = star_session.table("fact").group_by("fk").agg(count_star("n"))
        with pytest.raises(FlexUnsupportedError):
            flex_local_sensitivity(df.plan, self._tables(star_session))

    def test_no_aggregate_unsupported(self, star_session):
        df = star_session.table("fact").select("val")
        with pytest.raises(FlexUnsupportedError):
            flex_local_sensitivity(df.plan, self._tables(star_session))

    def test_computed_join_key_unsupported(self, star_session):
        df = star_session.table("fact").join(
            star_session.table("dim"), on=[(col("fk") + 0, col("dk"))]
        ).agg(count_star("n"))
        with pytest.raises(FlexUnsupportedError):
            flex_local_sensitivity(df.plan, self._tables(star_session))

    def test_table_ii_support_matrix(self, tpch_tables, sql_session):
        """FLEX supports exactly the five counting TPC-H queries."""
        supported = {}
        for query in all_queries():
            plan = sql_session.sql(query.sql_text()).plan
            try:
                flex_local_sensitivity(plan, tpch_tables)
                supported[query.name] = True
            except FlexUnsupportedError:
                supported[query.name] = False
        assert supported == {
            "tpch1": True,
            "tpch4": True,
            "tpch13": True,
            "tpch16": True,
            "tpch21": True,
            "tpch6": False,
            "tpch11": False,
        }

    def test_flex_overestimates_join_queries(self, tpch_tables, sql_session):
        """The paper's Fig. 2(a) ordering: FLEX >> truth on Q16/Q21."""
        for name in ("tpch16", "tpch21"):
            query = query_by_name(name)
            plan = sql_session.sql(query.sql_text()).plan
            flex = flex_local_sensitivity(plan, tpch_tables).sensitivity
            truth = exact_local_sensitivity(query, tpch_tables).local_sensitivity
            assert flex >= 10 * max(truth, 1.0), name

    def test_flex_exact_on_q1(self, tpch_tables, sql_session):
        query = query_by_name("tpch1")
        plan = sql_session.sql(query.sql_text()).plan
        flex = flex_local_sensitivity(plan, tpch_tables).sensitivity
        truth = exact_local_sensitivity(
            query, tpch_tables, addition_samples=10
        ).local_sensitivity
        assert flex == truth == 1.0

    @pytest.mark.parametrize("name, expected", [
        ("tpch1", 1.0), ("tpch4", 13.0), ("tpch13", 15.0),
        ("tpch16", 52.0), ("tpch21", 1_189_622_772.0),
    ])
    def test_flex_on_the_sql_text(self, name, expected):
        """FLEX's value on each supported query's SQL text over
        generated tables of scale 2000, seed 3: what the DataFrame plans
        the queries had until 1.31.0 gave, query by query."""
        from repro.tpch import TPCHConfig, TPCHGenerator
        from repro.tpch.datagen import register_tables

        tables = TPCHGenerator(TPCHConfig(scale_rows=2000, seed=3)).generate()
        sql = SQLSession()
        register_tables(sql, tables)
        plan = sql.sql(query_by_name(name).sql_text()).plan
        assert flex_local_sensitivity(plan, tables).sensitivity == expected


class TestSmoothSensitivity:
    def test_elastic_stability_at_zero(self):
        assert elastic_stability([3, 5], 0) == 15.0

    def test_elastic_stability_grows(self):
        assert elastic_stability([3, 5], 2) == 5 * 7

    def test_negative_distance_rejected(self):
        from repro.common.errors import DPError

        with pytest.raises(DPError):
            elastic_stability([1], -1)

    def test_smooth_upper_bounds_local(self):
        mfs = [4, 2]
        assert flex_smooth_sensitivity(mfs, beta=0.05) >= elastic_stability(
            mfs, 0
        )

    def test_large_beta_reduces_to_local(self):
        mfs = [4, 2]
        assert flex_smooth_sensitivity(mfs, beta=50.0) == pytest.approx(
            elastic_stability(mfs, 0)
        )

    def test_beta_must_be_positive(self):
        from repro.common.errors import DPError

        with pytest.raises(DPError):
            flex_smooth_sensitivity([1], beta=0.0)


class TestBruteForce:
    def test_range_envelope_contains_output(self, tpch_tables):
        query = query_by_name("tpch6")
        result = exact_local_sensitivity(query, tpch_tables, addition_samples=50)
        assert np.all(result.range_lower <= result.output)
        assert np.all(result.output <= result.range_upper)

    def test_removals_exhaustive(self, tpch_tables):
        query = query_by_name("tpch13")
        result = exact_local_sensitivity(query, tpch_tables)
        assert result.removal_outputs.shape[0] == len(tpch_tables["customer"])

    def test_max_removals_caps(self, tpch_tables):
        query = query_by_name("tpch13")
        result = exact_local_sensitivity(query, tpch_tables, max_removals=5)
        assert result.removal_outputs.shape[0] == 5

    def test_addition_samples_counted(self, tpch_tables):
        query = query_by_name("tpch1")
        result = exact_local_sensitivity(
            query, tpch_tables, addition_samples=17
        )
        assert result.addition_outputs.shape[0] == 17

    def test_count_query_sensitivity_is_one(self, tpch_tables):
        result = exact_local_sensitivity(
            query_by_name("tpch1"), tpch_tables, addition_samples=10
        )
        assert result.local_sensitivity == 1.0
        assert result.range_width == 2.0  # [C-1, C+1]
