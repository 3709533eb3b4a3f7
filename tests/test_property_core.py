"""Property-based tests for UPA's core invariants.

* every workload's reducer is a commutative, associative monoid — the
  property UPA's reuse argument needs;
* prefix/suffix "all-but-one" folds agree with literal re-evaluation
  (brute force correctness);
* the inferred output range always covers the sampled neighbour
  outputs (the iDP clamping precondition);
* Laplace noise satisfies the epsilon-DP likelihood-ratio bound.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import (
    exact_local_sensitivity,
    literal_local_sensitivity,
)
from repro.core.inference import infer_output_range
from repro.core.query import MapReduceQuery, Tables
from repro.mining import LifeScienceConfig, make_life_science_tables
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.workloads import all_workloads


class _SumQuery(MapReduceQuery):
    """Minimal scalar sum query over a 'vals' table for property tests."""

    name = "prop-sum"
    protected_table = "vals"
    output_dim = 1

    def map_record(self, record, aux):
        return float(record["v"])

    def zero(self):
        return 0.0

    def combine(self, a, b):
        return a + b

    def finalize(self, agg, aux):
        return np.asarray([agg], dtype=float)

    def sample_domain_record(self, rng, tables):
        return {"v": rng.uniform(-100, 100)}


def _tables(values) -> Tables:
    return {"vals": [{"v": float(v)} for v in values]}


class TestMonoidLaws:
    @given(values=st.lists(st.integers(-40, 40), min_size=2, max_size=30),
           seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_sum_query_order_invariance(self, values, seed):
        query = _SumQuery()
        tables = _tables(values)
        aux = query.build_aux(tables)
        elements = [query.map_record(r, aux) for r in tables["vals"]]
        rng = random.Random(seed)
        shuffled = list(elements)
        rng.shuffle(shuffled)
        split = rng.randrange(1, len(elements))
        grouped = query.combine(
            query.fold(shuffled[:split]), query.fold(shuffled[split:])
        )
        assert query.finalize(grouped, aux) == pytest.approx(
            query.finalize(query.fold(elements), aux)
        )

    @pytest.mark.parametrize(
        "workload", all_workloads(), ids=lambda w: w.name
    )
    def test_all_nine_workloads_are_monoids(self, workload):
        tables = workload.make_tables(1500, 4)
        workload.query.validate_monoid(tables, sample=24, seed=1)


class TestBruteForceCorrectness:
    @given(values=st.lists(st.integers(-30, 30), min_size=2, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_prefix_suffix_equals_literal(self, values):
        query = _SumQuery()
        tables = _tables(values)
        fast = exact_local_sensitivity(query, tables)
        slow = literal_local_sensitivity(query, tables)
        assert fast.local_sensitivity == pytest.approx(slow)

    @given(values=st.lists(st.integers(-30, 30), min_size=2, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_removal_outputs_match_definition(self, values):
        query = _SumQuery()
        tables = _tables(values)
        result = exact_local_sensitivity(query, tables)
        total = sum(values)
        for i, row in enumerate(result.removal_outputs):
            assert row[0] == pytest.approx(total - values[i])

    def test_literal_matches_fast_on_real_queries(self):
        tables = TPCHGenerator(TPCHConfig(scale_rows=400, seed=2)).generate()
        from repro.tpch.workload import query_by_name

        for name in ("tpch1", "tpch6", "tpch13"):
            query = query_by_name(name)
            fast = exact_local_sensitivity(query, tables)
            slow = literal_local_sensitivity(query, tables, max_removals=50)
            # literal is capped at 50 removals, so it's a lower bound.
            assert fast.local_sensitivity >= slow - 1e-9


class TestInferenceInvariants:
    @given(
        outputs=st.lists(
            st.floats(-1e4, 1e4, allow_nan=False), min_size=3, max_size=200
        ),
        population=st.integers(10, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_envelope_covers_samples(self, outputs, population):
        arr = np.asarray(outputs).reshape(-1, 1)
        inferred = infer_output_range(arr, population)
        assert inferred.coverage(arr) == 1.0

    @given(
        outputs=st.lists(
            st.floats(-1e4, 1e4, allow_nan=False), min_size=3, max_size=100
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_range_ordering(self, outputs):
        arr = np.asarray(outputs).reshape(-1, 1)
        inferred = infer_output_range(arr, 1000)
        assert inferred.lower[0] <= inferred.upper[0]
        assert inferred.local_sensitivity >= 0

    @given(
        center=st.floats(-100, 100, allow_nan=False),
        spread=st.floats(0.1, 50, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_wider_population_never_shrinks_range(self, center, spread):
        rng = np.random.default_rng(0)
        samples = rng.normal(center, spread, size=500).reshape(-1, 1)
        small = infer_output_range(samples, population=500)
        large = infer_output_range(samples, population=500_000)
        assert large.local_sensitivity >= small.local_sensitivity - 1e-9


class TestLaplaceDPProperty:
    def test_likelihood_ratio_bounded(self):
        """Empirical epsilon of the Laplace mechanism stays near epsilon.

        For outputs of two neighbouring values under Laplace(sens/eps),
        the log density ratio is bounded by eps * |delta| / sens.
        """
        from repro.dp.mechanisms import LaplaceMechanism

        epsilon, sensitivity = 0.5, 2.0
        scale = sensitivity / epsilon
        f_x, f_y = 10.0, 12.0  # |delta| = sensitivity

        def log_density(value, mean):
            return -abs(value - mean) / scale - math.log(2 * scale)

        mech = LaplaceMechanism(epsilon, seed=7)
        worst = 0.0
        for _ in range(2000):
            out = mech.randomize(f_x, sensitivity)
            ratio = log_density(out, f_x) - log_density(out, f_y)
            worst = max(worst, abs(ratio))
        assert worst <= epsilon + 1e-9
