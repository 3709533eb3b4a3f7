"""Tests for the TPC-H generator and the seven queries.

The central consistency property: for every query, the MapReduce form,
the DataFrame form, and the SQL-text form produce the same value on the
same tables.
"""

import datetime

import numpy as np
import pytest

from repro.baselines.flex.analysis import flex_fragment_reason
from repro.sql.session import SQLSession
from repro.tpch import TPCHConfig, TPCHGenerator, all_queries, query_by_name
from repro.tpch.datagen import NATION_NAMES, TPCHGenerator as Gen
from repro.tpch.queries.extras import Q12, Q14
from repro.tpch.schema import ALL_SCHEMAS


class TestDatagen:
    def test_deterministic(self):
        a = TPCHGenerator(TPCHConfig(scale_rows=500, seed=9)).generate()
        b = TPCHGenerator(TPCHConfig(scale_rows=500, seed=9)).generate()
        assert a == b

    def test_seed_changes_data(self):
        a = TPCHGenerator(TPCHConfig(scale_rows=500, seed=1)).generate()
        b = TPCHGenerator(TPCHConfig(scale_rows=500, seed=2)).generate()
        assert a["lineitem"] != b["lineitem"]

    def test_lineitem_count_matches_scale(self, tpch_tables):
        assert len(tpch_tables["lineitem"]) == 2000

    def test_all_tables_present(self, tpch_tables):
        assert set(tpch_tables) == set(ALL_SCHEMAS)

    def test_rows_match_schema(self, tpch_tables):
        for name, schema in ALL_SCHEMAS.items():
            for row in tpch_tables[name][:20]:
                assert set(row) == set(schema.names), name

    def test_foreign_keys_resolve(self, tpch_tables):
        orderkeys = {o["o_orderkey"] for o in tpch_tables["orders"]}
        custkeys = {c["c_custkey"] for c in tpch_tables["customer"]}
        suppkeys = {s["s_suppkey"] for s in tpch_tables["supplier"]}
        partkeys = {p["p_partkey"] for p in tpch_tables["part"]}
        for item in tpch_tables["lineitem"]:
            assert item["l_orderkey"] in orderkeys
            assert item["l_suppkey"] in suppkeys
            assert item["l_partkey"] in partkeys
        for order in tpch_tables["orders"]:
            assert order["o_custkey"] in custkeys
        for ps in tpch_tables["partsupp"]:
            assert ps["ps_partkey"] in partkeys
            assert ps["ps_suppkey"] in suppkeys

    def test_nation_region_mapping(self, tpch_tables):
        regions = {r["r_regionkey"] for r in tpch_tables["region"]}
        for nation in tpch_tables["nation"]:
            assert nation["n_regionkey"] in regions
        assert len(tpch_tables["nation"]) == len(NATION_NAMES)

    def test_dates_in_range(self, tpch_tables):
        lo = datetime.date(1992, 1, 1)
        hi = datetime.date(1999, 12, 31)
        for order in tpch_tables["orders"][:200]:
            assert lo <= order["o_orderdate"] <= hi

    def test_comment_rates_roughly_configured(self):
        cfg = TPCHConfig(scale_rows=20_000, seed=0, special_comment_rate=0.35)
        tables = TPCHGenerator(cfg).generate()
        special = sum(
            1 for o in tables["orders"] if "special" in o["o_comment"]
        )
        rate = special / len(tables["orders"])
        assert 0.30 < rate < 0.40

    def test_supplier_skew_present(self, tpch_tables):
        from collections import Counter

        counts = Counter(i["l_suppkey"] for i in tpch_tables["lineitem"])
        values = sorted(counts.values(), reverse=True)
        # Zipf head: the most loaded supplier far exceeds the median.
        assert values[0] >= 5 * values[len(values) // 2]

    def test_scale_too_small_rejected(self):
        with pytest.raises(ValueError):
            TPCHConfig(scale_rows=50)

    def test_zipf_index_bounds(self):
        gen = Gen(TPCHConfig(scale_rows=500))
        import random

        rng = random.Random(0)
        draws = [gen._zipf_index(rng, 10) for _ in range(1000)]
        assert min(draws) == 0
        assert max(draws) <= 9
        # skewed towards 0
        assert draws.count(0) > draws.count(9)


class TestQueryConsistency:
    @pytest.mark.parametrize("query", all_queries(), ids=lambda q: q.name)
    def test_sql_and_mapreduce_forms_agree(
        self, query, tpch_tables, sql_session
    ):
        mr_value = query.output(tpch_tables)[0]
        sql_value = (
            sql_session.sql(query.sql_text()).collect()[0]["result"] or 0.0
        )
        assert mr_value == pytest.approx(sql_value)

    @pytest.mark.parametrize("query", all_queries(), ids=lambda q: q.name)
    def test_monoid_valid(self, query, tpch_tables):
        query.validate_monoid(tpch_tables, sample=20, seed=3)

    @pytest.mark.parametrize("query", all_queries(), ids=lambda q: q.name)
    def test_domain_records_have_protected_schema(self, query, tpch_tables):
        import random

        rng = random.Random(1)
        record = query.sample_domain_record(rng, tpch_tables)
        expected = set(ALL_SCHEMAS[query.protected_table].names)
        assert set(record) == expected

    def test_query_by_name(self):
        assert query_by_name("tpch6").name == "tpch6"
        with pytest.raises(KeyError):
            query_by_name("tpch99")

    def test_support_matrix(self):
        """Each query's declared ``flex_supported`` is what FLEX's
        fragment check says of the plan of its SQL text (Q12 and Q14
        too)."""
        queries = all_queries() + [Q12(), Q14()]
        support = {q.name: q.flex_supported for q in queries}
        assert support == {
            "tpch1": True,
            "tpch4": True,
            "tpch13": True,
            "tpch16": True,
            "tpch21": True,
            "tpch6": False,
            "tpch11": False,
            "tpch12": False,
            "tpch14": False,
        }
        # Plans need schemas, not rows.
        session = SQLSession()
        for name, schema in ALL_SCHEMAS.items():
            session.create_table(name, [], schema)
        for query in queries:
            plan = session.sql(query.sql_text()).plan
            assert query.flex_supported == (
                flex_fragment_reason(plan) is None
            ), query.name


class TestQuerySemantics:
    def test_q1_counts_everything(self, tpch_tables):
        query = query_by_name("tpch1")
        assert query.output(tpch_tables)[0] == len(tpch_tables["lineitem"])

    def test_q1_every_record_contributes_one(self, tpch_tables):
        query = query_by_name("tpch1")
        aux = query.build_aux(tpch_tables)
        assert all(
            query.map_record(r, aux) == 1.0
            for r in tpch_tables["lineitem"][:50]
        )

    def test_q4_contribution_counts_late_lineitems(self, tpch_tables):
        query = query_by_name("tpch4")
        aux = query.build_aux(tpch_tables)
        order = tpch_tables["orders"][0]
        expected = sum(
            1
            for i in tpch_tables["lineitem"]
            if i["l_orderkey"] == order["o_orderkey"]
            and i["l_commitdate"] < i["l_receiptdate"]
        )
        in_window = (
            datetime.date(1993, 1, 1)
            <= order["o_orderdate"]
            < datetime.date(1994, 1, 1)
        )
        assert query.map_record(order, aux) == (expected if in_window else 0)

    def test_q6_respects_filters(self, tpch_tables):
        query = query_by_name("tpch6")
        aux = query.build_aux(tpch_tables)
        for item in tpch_tables["lineitem"][:200]:
            value = query.map_record(item, aux)
            passes = (
                datetime.date(1994, 1, 1)
                <= item["l_shipdate"]
                < datetime.date(1995, 1, 1)
                and 0.03 <= item["l_discount"] <= 0.08
                and item["l_quantity"] < 40
            )
            if passes:
                assert value == pytest.approx(
                    item["l_extendedprice"] * item["l_discount"]
                )
            else:
                assert value == 0.0

    def test_q11_only_german_suppliers_count(self, tpch_tables):
        query = query_by_name("tpch11")
        aux = query.build_aux(tpch_tables)
        german_idx = NATION_NAMES.index("GERMANY")
        german = {
            s["s_suppkey"]
            for s in tpch_tables["supplier"]
            if s["s_nationkey"] == german_idx
        }
        for ps in tpch_tables["partsupp"][:100]:
            value = query.map_record(ps, aux)
            if ps["ps_suppkey"] in german:
                assert value > 0
            else:
                assert value == 0.0

    def test_q13_customer_contribution(self, tpch_tables):
        query = query_by_name("tpch13")
        aux = query.build_aux(tpch_tables)
        total = sum(
            query.map_record(c, aux) for c in tpch_tables["customer"]
        )
        assert total == query.output(tpch_tables)[0]

    def test_q16_new_part_contributes_zero(self, tpch_tables):
        import random

        query = query_by_name("tpch16")
        aux = query.build_aux(tpch_tables)
        fresh = query.sample_domain_record(random.Random(0), tpch_tables)
        assert query.map_record(fresh, aux) == 0.0

    def test_q21_nation_filter(self, tpch_tables):
        query = query_by_name("tpch21")
        aux = query.build_aux(tpch_tables)
        saudi_idx = NATION_NAMES.index("SAUDI ARABIA")
        for supplier in tpch_tables["supplier"]:
            if supplier["s_nationkey"] != saudi_idx:
                assert query.map_record(supplier, aux) == 0.0

    def test_q21_exists_semantics(self):
        """Hand-built micro dataset checks sole-late-supplier logic."""
        day = datetime.date
        lineitem = [
            # order 1: suppliers 1 (late) and 2 (on time) -> supplier 1 counts
            {"l_orderkey": 1, "l_suppkey": 1, "l_receiptdate": day(1995, 2, 1),
             "l_commitdate": day(1995, 1, 1)},
            {"l_orderkey": 1, "l_suppkey": 2, "l_receiptdate": day(1995, 1, 1),
             "l_commitdate": day(1995, 2, 1)},
            # order 2: both suppliers late -> nobody counts
            {"l_orderkey": 2, "l_suppkey": 1, "l_receiptdate": day(1995, 2, 1),
             "l_commitdate": day(1995, 1, 1)},
            {"l_orderkey": 2, "l_suppkey": 2, "l_receiptdate": day(1995, 2, 1),
             "l_commitdate": day(1995, 1, 1)},
            # order 3: single supplier late, no other supplier -> no EXISTS
            {"l_orderkey": 3, "l_suppkey": 1, "l_receiptdate": day(1995, 2, 1),
             "l_commitdate": day(1995, 1, 1)},
        ]
        orders = [
            {"o_orderkey": 1, "o_orderstatus": "F"},
            {"o_orderkey": 2, "o_orderstatus": "F"},
            {"o_orderkey": 3, "o_orderstatus": "F"},
        ]
        nation = [{"n_nationkey": 20, "n_name": "SAUDI ARABIA"}]
        supplier = [
            {"s_suppkey": 1, "s_nationkey": 20},
            {"s_suppkey": 2, "s_nationkey": 20},
        ]
        tables = {
            "lineitem": lineitem,
            "orders": orders,
            "nation": nation,
            "supplier": supplier,
        }
        query = query_by_name("tpch21")
        aux = query.build_aux(tables)
        assert query.map_record(supplier[0], aux) == 1.0
        assert query.map_record(supplier[1], aux) == 0.0
