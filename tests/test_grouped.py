"""Tests for grouped histogram releases."""

import pytest

from repro.common.errors import DPError
from repro.core.grouped import GroupSliceQuery, release_histogram
from repro.tpch.datagen import PRIORITIES
from repro.tpch.queries.base import random_order


class TestGroupedRelease:
    def test_histogram_counts_roughly_correct(self, tpch_tables):
        result = release_histogram(
            tpch_tables,
            protected_table="orders",
            groups=PRIORITIES,
            group_of=lambda o: o["o_orderpriority"],
            epsilon=5.0,
            domain_sampler=random_order,
            sample_size=100,
            seed=2,
        )
        truth_total = sum(result.true_values.values())
        assert truth_total == len(tpch_tables["orders"])
        for group in PRIORITIES:
            assert abs(
                result.released[group] - result.true_values[group]
            ) < 40  # Laplace(2/5) tail

    def test_groups_partition_influence(self, tpch_tables):
        """A record contributes to exactly one group's query."""
        queries = [
            GroupSliceQuery(
                "h", "orders", priority,
                lambda o: o["o_orderpriority"], None, random_order,
            )
            for priority in PRIORITIES
        ]
        for order in tpch_tables["orders"][:50]:
            contributions = [q.map_record(order, None) for q in queries]
            assert sum(contributions) == 1.0
            assert contributions.count(1.0) == 1

    def test_sum_histogram(self, tpch_tables):
        result = release_histogram(
            tpch_tables,
            protected_table="orders",
            groups=["F", "O", "P"],
            group_of=lambda o: o["o_orderstatus"],
            epsilon=5.0,
            value_of=lambda o: 1.0,  # sum of ones == count
            domain_sampler=random_order,
            sample_size=100,
        )
        assert sum(result.true_values.values()) == len(tpch_tables["orders"])

    def test_absent_group_released_as_noise_around_zero(self, tpch_tables):
        result = release_histogram(
            tpch_tables,
            protected_table="orders",
            groups=["NO-SUCH-PRIORITY"],
            group_of=lambda o: o["o_orderpriority"],
            epsilon=5.0,
            domain_sampler=random_order,
            sample_size=100,
        )
        assert result.true_values["NO-SUCH-PRIORITY"] == 0.0
        assert abs(result.released["NO-SUCH-PRIORITY"]) < 30

    def test_duplicate_groups_rejected(self, tpch_tables):
        with pytest.raises(DPError):
            release_histogram(
                tpch_tables, "orders", ["F", "F"],
                lambda o: o["o_orderstatus"], epsilon=1.0,
            )

    def test_invalid_epsilon(self, tpch_tables):
        with pytest.raises(DPError):
            release_histogram(
                tpch_tables, "orders", ["F"],
                lambda o: o["o_orderstatus"], epsilon=0.0,
            )

