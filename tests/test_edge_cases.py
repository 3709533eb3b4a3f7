"""Edge-case tests across the stack: tiny datasets, degenerate configs,
boundary conditions the benchmarks never hit."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import exact_local_sensitivity
from repro.common.errors import DPError
from repro.core import MapReduceQuery, UPAConfig, UPASession
from repro.core.inference import (
    InferredRange,
    infer_local_sensitivity,
    infer_output_range,
    ndtri,
)
from repro.core.sampling import partition_and_sample

# The estimator's discrete-fallback bound, written out for the oracles.
THRESHOLD = 10


def _tail_z(population, m):
    """The normal quantile of the population-extrapolated tail level."""
    return ndtri(1.0 - min(1.0 / (2.0 * max(population, m, 2)), 0.01))


def _per_coordinate_range(outputs, population):
    """``infer_output_range`` written out: a normal fit, one
    ``np.unique`` per coordinate, then the envelope."""
    mean, std = outputs.mean(axis=0), outputs.std(axis=0)
    z = _tail_z(population, outputs.shape[0])
    lower, upper = mean - z * std, mean + z * std
    used = np.zeros(outputs.shape[1], dtype=bool)
    for j in range(outputs.shape[1]):
        distinct = np.unique(outputs[:, j])
        if distinct.shape[0] <= THRESHOLD:
            lower[j] = distinct.min()
            upper[j] = distinct.max()
            used[j] = True
    lower = np.minimum(lower, outputs.min(axis=0))
    upper = np.maximum(upper, outputs.max(axis=0))
    return InferredRange(lower, upper, mean, std, used)


def _per_coordinate_sensitivity(outputs, center, population):
    """``infer_local_sensitivity`` written out on the 1-D deltas:
    ``np.unique`` of them, else their normal tail, never below their
    largest."""
    deltas = np.abs(outputs - center).sum(axis=1)
    if np.unique(deltas).shape[0] <= THRESHOLD:
        return float(deltas.max())
    tail = float(deltas.mean()) + _tail_z(
        population, deltas.shape[0]
    ) * float(deltas.std())
    return max(tail, float(deltas.max()))


def _same_bits(a, b):
    """Both NaN (a NaN's payload is the platform's), or the same bits."""
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class _TinyQuery(MapReduceQuery):
    name = "tiny-sum"
    protected_table = "vals"
    output_dim = 1

    def map_record(self, record, aux):
        return float(record["v"])

    def zero(self):
        return 0.0

    def combine(self, a, b):
        return a + b

    def finalize(self, agg, aux):
        return np.asarray([agg])

    def sample_domain_record(self, rng, tables):
        return {"v": float(rng.randrange(100))}


class _ConstantDomainQuery(_TinyQuery):
    """Domain records always contribute 5 (keeps neighbours two-point)."""

    def sample_domain_record(self, rng, tables):
        return {"v": 5.0}


class _ZeroDomainQuery(_TinyQuery):
    """Domain records contribute nothing."""

    def sample_domain_record(self, rng, tables):
        return {"v": 0.0}


def _tables(values):
    return {"vals": [{"v": float(v)} for v in values]}


class TestTinyDatasets:
    def test_two_record_dataset(self):
        session = UPASession(UPAConfig(sample_size=1000, seed=0))
        result = session.run(_TinyQuery(), _tables([1, 2]), epsilon=1.0)
        # every record sampled; exact neighbour set
        assert result.sample_size == 2
        assert result.plain_output[0] == 3.0

    def test_single_record_dataset(self):
        session = UPASession(UPAConfig(sample_size=10, seed=0))
        result = session.run(_TinyQuery(), _tables([42]), epsilon=1.0)
        assert result.plain_output[0] == 42.0
        assert result.removal_outputs.shape == (1, 1)
        assert result.removal_outputs[0, 0] == 0.0

    def test_all_identical_records(self):
        session = UPASession(UPAConfig(sample_size=50, seed=0))
        result = session.run(
            _ConstantDomainQuery(), _tables([5] * 100), epsilon=1.0
        )
        # removals give sum-5, additions sum+5: two-point distribution,
        # so the discrete fallback produces the exact range.
        assert result.inferred_range.used_fallback[0]
        assert result.local_sensitivity == 10.0

    def test_enforcer_exhaustion_on_tiny_repeats(self):
        """Repeated attacks on a tiny dataset run out of removable
        records and fail closed (exception), never open.  Each
        submission is one record short of the last: a neighbour, never
        an identical resubmission that would be replayed."""
        session = UPASession(UPAConfig(sample_size=10, seed=0))
        query = _TinyQuery()
        with pytest.raises(DPError, match="exhausted sampled records"):
            for size in range(6, 0, -1):
                session.run(query, _tables(range(size)), epsilon=1.0)

    def test_zero_valued_dataset(self):
        """DESIGN.md §5: a query with no public noise floor (this sum
        has no ``query_type``) is noised at its inferred width, which
        can be 0; the same data under a count query is noised at width
        1.  Neither moves the inferred local sensitivity."""
        for query_type in (None, "count"):
            query = _ZeroDomainQuery()
            if query_type is not None:
                query.query_type = query_type
            result = UPASession(UPAConfig(sample_size=10, seed=0)).run(
                query, _tables([0, 0, 0]), epsilon=1.0
            )
            assert result.local_sensitivity == 0.0
            noised = bool(result.noisy_scalar() != result.raw_output[0])
            assert noised == (query_type == "count")


class TestNoiselessRelease:
    """tpch21's x - r* has f = 0 and an inferred local sensitivity of 0.
    Noised at that width, an output of exactly 0.0 would tell x - r*
    from x, which releases 1 + Lap(10); a count query's noise floor of
    width 1 noises both at the same scale.  r* is the record whose
    removal moves f most."""

    EPSILON = 0.1

    @pytest.fixture(scope="class")
    def minus_extreme(self):
        from repro.workloads import workload_by_name

        workload = workload_by_name("tpch21")
        query = workload.query
        tables = workload.make_tables(2000, 3)
        rows = tables[query.protected_table]
        f = query.output(tables)[0]
        # f(x - record_i) of every i (a count: exact in any order).
        without = exact_local_sensitivity(query, tables).removal_outputs
        extreme = int(np.argmax(np.abs(without[:, 0] - f)))
        minus = {
            **tables,
            query.protected_table: rows[:extreme] + rows[extreme + 1:],
        }
        return query, minus, extreme

    def test_the_extreme_record_is_found_by_brute_force(self, minus_extreme):
        query, minus, extreme = minus_extreme
        assert extreme == 27
        assert query.output(minus)[0] == 0.0

    def test_the_ledger_carries_the_noise_scale(self, minus_extreme):
        # logged at width 0, noised at Lap(1/epsilon); the replay too
        from repro.obs.ledger import PrivacyLedger

        query, minus, _extreme = minus_extreme
        ledger = PrivacyLedger()
        session = UPASession(UPAConfig(seed=3), ledger=ledger)
        first = session.run(query, minus, epsilon=self.EPSILON)
        again = session.run(query, minus, epsilon=self.EPSILON)
        assert again is first
        assert first.local_sensitivity == 0.0
        assert first.noise_scale == 1.0 / self.EPSILON
        release, replay = ledger.entries()
        assert (release.cache_hit, replay.cache_hit) == (False, True)
        assert release.local_sensitivity == replay.local_sensitivity == 0.0
        assert release.noise_scale == replay.noise_scale == 10.0

    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_a_release_is_never_noiseless(self, minus_extreme, seed):
        query, minus, _extreme = minus_extreme
        result = UPASession(UPAConfig(seed=seed)).run(
            query, minus, epsilon=self.EPSILON,
        )
        assert not np.array_equal(result.noisy_output, result.raw_output)


class TestNoiseFloor:
    """DESIGN.md §5: a count query's noise is calibrated to a width of
    at least 1; every other query has floor 0.  The floor follows the
    query's Table II kind, whether it is a hand-written TPC-H query or
    its SQL text compiled by the bridge (the ``sql`` digest lane)."""

    COUNTS = {"tpch1", "tpch4", "tpch13", "tpch16", "tpch21"}

    @pytest.mark.parametrize("name", [
        "tpch1", "tpch4", "tpch13", "tpch16", "tpch21", "tpch6", "tpch11",
        "kmeans", "linreg",
    ])
    def test_shipped_workload_floor(self, name):
        from repro.core.session import noise_floor
        from repro.workloads import workload_by_name

        expected = 1.0 if name in self.COUNTS else 0.0
        assert noise_floor(workload_by_name(name).query) == expected

    @pytest.fixture(scope="class")
    def tpch_tables(self):
        from repro.workloads import workload_by_name

        return workload_by_name("tpch1").make_tables(300, 0)

    @pytest.mark.parametrize("name", [
        "tpch1", "tpch4", "tpch13", "tpch16", "tpch21", "tpch6", "tpch11",
        "tpch12", "tpch14",
    ])
    def test_compiled_sql_text_has_the_same_floor(self, tpch_tables, name):
        """A TPC-H text compiles to its hand-written query's kind; Q12
        sums a CASE of integer literals (a count), Q14 a price."""
        from repro.core.session import noise_floor
        from repro.core.sqlbridge import compile_sql
        from repro.tpch import query_by_name
        from tests.sql_extensions import compile_extension

        if name == "tpch12":
            compiled, kind, floor = (
                compile_extension(name, tpch_tables), "count", 1.0
            )
        elif name == "tpch14":
            compiled, kind, floor = (
                compile_extension(name, tpch_tables), "arithmetic", 0.0
            )
        else:
            query = query_by_name(name)
            compiled = compile_sql(
                query.sql_text(), tpch_tables, query.protected_table
            )
            kind, floor = query.query_type, noise_floor(query)
        assert compiled.query_type == kind
        assert noise_floor(compiled) == floor

    @pytest.mark.parametrize("aggregate, kind", [
        ("COUNT(*)", "count"),
        ("SUM(1)", "count"),
        ("SUM(CASE WHEN o_orderstatus = 'F' THEN 2 ELSE 0 END)", "count"),
        ("SUM(CASE WHEN o_orderstatus = 'F' THEN 1 END)", "count"),
        ("SUM(CASE WHEN o_orderstatus = 'F' THEN -1 ELSE 0 END)", "count"),
        ("SUM(-1)", "count"),
        ("SUM(CASE WHEN o_orderstatus = 'F' THEN 1.5 ELSE 0 END)",
         "arithmetic"),
        ("SUM(CASE WHEN o_orderstatus = 'F' THEN -1.5 ELSE 0 END)",
         "arithmetic"),
        ("SUM(CASE WHEN o_orderstatus = 'F' THEN 1 "
         "WHEN o_orderstatus = 'O' THEN -1 END)", "count"),
        ("SUM(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE -1.5 END)",
         "arithmetic"),
        ("SUM(CASE WHEN o_orderstatus = 'F' THEN -o_custkey ELSE 0 END)",
         "arithmetic"),
        ("SUM(-o_custkey)", "arithmetic"),
        ("COUNT(o_custkey)", "count"),
        ("SUM(CASE WHEN o_orderstatus = 'F' THEN o_custkey ELSE 0 END)",
         "arithmetic"),
        ("SUM(o_custkey)", "arithmetic"),
    ])
    def test_whole_number_sums_are_counts(self, tpch_tables, aggregate,
                                          kind):
        # each record moves a SUM of integer literals by a whole number
        from repro.core.sqlbridge import compile_sql

        compiled = compile_sql(
            f"SELECT {aggregate} AS r FROM orders", tpch_tables, "orders"
        )
        assert compiled.query_type == kind

    _NO_ELSE = [
        ("THEN 1 END", "THEN 1 ELSE 0 END"),
        ("THEN -1 END", "THEN -1 ELSE 0 END"),
        ("THEN 2 WHEN o_orderstatus = 'O' THEN -1 END",
         "THEN 2 WHEN o_orderstatus = 'O' THEN -1 ELSE 0 END"),
    ]

    @pytest.mark.parametrize("no_else, twin", _NO_ELSE)
    def test_a_count_without_else_maps_as_its_else_zero_twin(
        self, tpch_tables, no_else, twin
    ):
        # SUM skips the NULL a CASE with no ELSE yields: every record
        # contributes what it does with ELSE 0
        from repro.core.sqlbridge import compile_sql

        rows = tpch_tables["orders"]
        queries = [
            compile_sql(
                "SELECT SUM(CASE WHEN o_orderstatus = 'F' "
                f"{branches}) AS r FROM orders", tpch_tables, "orders",
            )
            for branches in (no_else, twin)
        ]
        mapped = [
            query.map_batch(rows, query.build_aux(tpch_tables))
            for query in queries
        ]
        assert mapped[0].tobytes() == mapped[1].tobytes()

    @pytest.mark.parametrize("branches", [
        "THEN 1 END", "THEN -1 END", "THEN -1 ELSE 0 END",
    ])
    def test_a_count_that_no_record_moves_is_still_noised(
        self, tpch_tables, branches
    ):
        # no order has this status: the inferred width is 0, and the
        # count's floor of 1 is what the noise is drawn at
        from repro.core.session import UPAConfig, UPASession
        from repro.tpch.queries.base import random_order

        epsilon = 0.5
        result = UPASession(UPAConfig(sample_size=50, seed=3)).run_sql(
            "SELECT SUM(CASE WHEN o_orderstatus = 'no such status' "
            f"{branches}) AS r FROM orders", tpch_tables,
            protected_table="orders", epsilon=epsilon,
            domain_sampler=random_order,
        )
        assert result.local_sensitivity == 0.0
        assert result.noise_scale == 1.0 / epsilon
        assert result.noisy_scalar() != result.plain_output[0]


class TestSamplingBoundaries:
    @pytest.mark.parametrize("size", [0, -1, True, False, 10.0, "10", None])
    def test_sample_size_is_checked_when_the_config_is_built(self, size):
        # -1 used to escape mid-release as random.sample's ValueError,
        # and 0 to fail in inference ("zero neighbour outputs").
        with pytest.raises(DPError, match="sample_size must be an int"):
            UPAConfig(sample_size=size)

    def test_sample_size_one(self):
        sample = partition_and_sample(
            _TinyQuery(), _tables(range(50)), 1, random.Random(0)
        )
        assert sample.sample_size == 1

    def test_sample_equals_dataset(self):
        sample = partition_and_sample(
            _TinyQuery(), _tables(range(20)), 20, random.Random(0)
        )
        assert sample.sample_size == 20
        assert [len(part) for part in sample.remaining] == [0, 0]


class TestInferenceBoundaries:
    def test_single_neighbour_output(self):
        inferred = infer_output_range(np.array([[7.0]]), population=100)
        assert inferred.lower[0] <= 7.0 <= inferred.upper[0]

    def test_two_identical_outputs(self):
        inferred = infer_output_range(
            np.array([[3.0], [3.0]]), population=100
        )
        assert inferred.local_sensitivity == 0.0

    def test_population_smaller_than_sample(self):
        rng = np.random.default_rng(0)
        outputs = rng.normal(0, 1, size=(500, 1))
        inferred = infer_output_range(outputs, population=10)
        assert np.isfinite(inferred.local_sensitivity)

    def test_distinct_threshold_boundary(self):
        # exactly ten distinct values still uses the fallback
        outputs = np.arange(10.0).repeat(3)[:, None]
        inferred = infer_output_range(outputs, 1000)
        assert inferred.used_fallback[0]
        assert (inferred.lower[0], inferred.upper[0]) == (0.0, 9.0)
        # an eleventh switches to the normal fit, whose tail lies past them
        outputs = np.arange(11.0).repeat(3)[:, None]
        inferred = infer_output_range(outputs, 1000)
        assert not inferred.used_fallback[0]
        assert inferred.lower[0] < 0.0 and inferred.upper[0] > 10.0

    def test_all_coordinates_fit_like_one_unique_per_coordinate(self):
        threshold = THRESHOLD
        rng = np.random.default_rng(4)
        m = 60
        columns = [
            np.resize([0.0, -0.0, 1.0], m),  # a signed-zero run at the min
            np.resize([-0.0, 2.0, 0.0, -3.0], m),
            np.resize([-1.0, 0.0, -0.0], m),  # ... and at the max
            np.full(m, 7.5),  # constant
            np.full(m, -0.0),
            np.resize(np.arange(threshold, dtype=float), m),  # at the bound
            np.resize(np.arange(threshold + 1, dtype=float), m),  # above
            np.resize([1.0, np.nan, 2.0, np.nan], m),
            rng.normal(size=m),
            rng.integers(0, 4, size=m).astype(float),
        ]
        outputs = np.column_stack([rng.permutation(c) for c in columns])
        got = infer_output_range(outputs, 1000)
        want = _per_coordinate_range(outputs, 1000)
        for field in ("lower", "upper", "mean", "std", "used_fallback"):
            assert getattr(got, field).tobytes() \
                == getattr(want, field).tobytes(), field
        assert got.used_fallback.tolist() == [
            True, True, True, True, True, True, False, True, False, True,
        ]
        for column in columns:
            deltas = column[:, None]
            assert np.array_equal(
                infer_local_sensitivity(deltas, np.zeros(1), 1000),
                _per_coordinate_sensitivity(deltas, np.zeros(1), 1000),
                equal_nan=True,
            )

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 40),
        dim=st.integers(1, 3),
        data=st.data(),
    )
    def test_sensitivity_is_the_deltas_column_bound(self, rows, dim, data):
        """``infer_local_sensitivity`` is the upper bound
        ``infer_output_range`` infers for the column of L1 deltas, bit
        for bit, and the 1-D oracle agrees — NaN, signed-zero, few- and
        many-valued columns included."""
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -2.0, np.nan]),
            st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
        outputs = np.array(
            data.draw(st.lists(
                st.lists(value, min_size=dim, max_size=dim),
                min_size=rows, max_size=rows,
            )),
            dtype=float,
        )
        center = np.array(data.draw(
            st.lists(value, min_size=dim, max_size=dim)
        ))
        population = data.draw(st.integers(1, 10**6))
        got = infer_local_sensitivity(outputs, center, population)
        deltas = np.abs(outputs - center).sum(axis=1)[:, None]
        bound = infer_output_range(deltas, population).upper[0]
        want = _per_coordinate_sensitivity(outputs, center, population)
        assert _same_bits(got, bound) and _same_bits(got, want)

    def test_huge_magnitudes(self):
        outputs = np.array([[1e15], [1.1e15]] * 20)
        inferred = infer_output_range(outputs, 1000)
        assert inferred.contains(np.array([1.05e15]))


class TestVectorOutputs:
    def test_vector_clamp_per_coordinate(self):
        outputs = np.array([[0.0, 100.0], [10.0, 200.0]] * 20)
        inferred = infer_output_range(outputs, 100)
        clamped = inferred.clamp(np.array([-5.0, 150.0]))
        assert clamped[0] == inferred.lower[0]
        assert clamped[1] == 150.0

    def test_vector_coverage_requires_all_coordinates(self):
        outputs = np.array([[0.0, 0.0], [10.0, 10.0]] * 10)
        inferred = infer_output_range(outputs, 100)
        half_out = np.array([[5.0, 99.0]])
        assert inferred.coverage(half_out) == 0.0
