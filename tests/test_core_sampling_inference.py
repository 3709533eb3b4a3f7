"""Tests for Partition & Sample and for sensitivity inference."""

import datetime
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DPError
from repro.core.inference import (
    InferenceConfig,
    infer_local_sensitivity,
    infer_output_range,
)
from repro.core.query import MapReduceQuery
from repro.core.sampling import (
    partition_and_sample,
    partition_ids_of,
    partition_of,
    record_fingerprint,
    record_fingerprints,
)
from repro.workloads import workload_by_name


class _IdentityQuery(MapReduceQuery):
    name = "identity"
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
        return {"v": float(rng.randrange(10_000, 20_000))}


def _tables(n=500):
    return {"vals": [{"v": float(i)} for i in range(n)]}


class TestPartitionAndSample:
    def test_partitions_cover_dataset(self):
        tables = _tables()
        sample = partition_and_sample(
            _IdentityQuery(), tables, 50, random.Random(0)
        )
        merged = sample.partitions[0] + sample.partitions[1]
        assert sorted(r["v"] for r in merged) == sorted(
            r["v"] for r in tables["vals"]
        )

    def test_partitions_keep_table_order(self):
        records = _tables()["vals"]
        sample = partition_and_sample(
            _IdentityQuery(), {"vals": records}, 50, random.Random(0)
        )
        for p in (0, 1):
            assert sample.partitions[p] == [
                r for r, pid in zip(records, sample.partition_ids) if pid == p
            ]

    def test_partition_is_stable_per_record(self):
        record = {"v": 3.0}
        assert partition_of(record) == partition_of(dict(record))

    def test_fingerprint_order_insensitive(self):
        a = {"x": 1, "y": "s"}
        b = {"y": "s", "x": 1}
        assert record_fingerprint(a) == record_fingerprint(b)

    def test_sample_size_respected(self):
        sample = partition_and_sample(
            _IdentityQuery(), _tables(), 64, random.Random(1)
        )
        assert sample.sample_size == 64
        assert len(sample.domain_samples) == 64

    def test_small_dataset_fully_sampled(self):
        sample = partition_and_sample(
            _IdentityQuery(), _tables(10), 1000, random.Random(1)
        )
        assert sample.sample_size == 10
        assert sample.remaining == ([], [])

    def test_sampled_plus_remaining_is_everything(self):
        tables = _tables(200)
        sample = partition_and_sample(
            _IdentityQuery(), tables, 30, random.Random(5)
        )
        reunion = sorted(
            r["v"]
            for r in sample.sampled
            + sample.remaining[0]
            + sample.remaining[1]
        )
        assert reunion == [float(i) for i in range(200)]

    def test_sampled_partitions_consistent(self):
        sample = partition_and_sample(
            _IdentityQuery(), _tables(100), 20, random.Random(2)
        )
        for record, pid in zip(sample.sampled, sample.sampled_partitions):
            assert partition_of(record) == pid

    def test_empty_table_raises(self):
        with pytest.raises(DPError):
            partition_and_sample(
                _IdentityQuery(), {"vals": []}, 10, random.Random(0)
            )

    def test_deterministic_given_rng(self):
        a = partition_and_sample(
            _IdentityQuery(), _tables(), 20, random.Random(9)
        )
        b = partition_and_sample(
            _IdentityQuery(), _tables(), 20, random.Random(9)
        )
        assert a.sampled == b.sampled
        assert a.domain_samples == b.domain_samples

    def test_partitions_roughly_balanced(self):
        sample = partition_and_sample(
            _IdentityQuery(), _tables(2000), 10, random.Random(3)
        )
        sizes = [len(p) for p in sample.partitions]
        assert min(sizes) > 0.35 * sum(sizes)


_scalars = st.one_of(
    st.integers(),  # unbounded: also beyond int64
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, float("nan")]),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.dates(),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple), st.lists(inner, max_size=2)
    ),
    max_leaves=6,
)
#: keys drawn per row, so some rows miss keys others have, and every
#: column mixes value types.
_rows = st.lists(
    st.dictionaries(st.sampled_from("abcd"), _values, max_size=4),
    min_size=1, max_size=8,
)


class TestFingerprintContract:
    """A fingerprint is a pure function of the record's content."""

    @settings(max_examples=300, deadline=None)
    @given(_rows, st.data())
    def test_batch_equals_one_by_one(self, rows, data):
        batch = record_fingerprints(rows).tolist()
        assert batch == [record_fingerprint(r) for r in rows]
        # ... whichever other records are hashed alongside, in any order.
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=8))
        assert record_fingerprints([rows[i] for i in picks]).tolist() == [
            batch[i] for i in picks
        ]

    @settings(max_examples=100, deadline=None)
    @given(_rows)
    def test_key_order_insensitive(self, rows):
        reversed_rows = [dict(reversed(list(r.items()))) for r in rows]
        assert (
            record_fingerprints(reversed_rows).tolist()
            == record_fingerprints(rows).tolist()
        )
        # One reordered row among rows in the original order.
        mixed = reversed_rows[:1] + rows[1:]
        assert (
            record_fingerprints(mixed).tolist()
            == record_fingerprints(rows).tolist()
        )

    def test_type_is_content(self):
        values = [1, 1.0, True, "1", (1,), [1], None,
                  datetime.date.fromordinal(1), 2 ** 64 + 1, -0.0, 0.0]
        prints = record_fingerprints([{"v": v} for v in values]).tolist()
        assert len(set(prints)) == len(values)
        assert record_fingerprint({"v": 1}) != record_fingerprint({"w": 1})
        assert record_fingerprint({"v": 1}) != record_fingerprint(
            {"v": 1, "w": None}
        )

    def test_independent_of_process_and_hash_seed(self):
        rows = [
            {"s": word, "n": i, "d": datetime.date(2020, 1, 1 + i),
             "m": (word, i) if i % 2 else float(i)}
            for i, word in enumerate("the quick brown fox jumps".split())
        ]
        rows.append({"n": None})
        script = (
            "import datetime\n"
            "from repro.core.sampling import record_fingerprints\n"
            f"print(record_fingerprints({rows!r}).tolist())\n"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=60,
            ).stdout)
        assert outputs == {f"{record_fingerprints(rows).tolist()}\n"}

    @pytest.mark.parametrize("name", [  # one workload per protected table
        "tpch1", "tpch4", "tpch13", "tpch16", "tpch21", "tpch11", "kmeans",
    ])
    def test_partitions_balanced_on_workload_tables(self, name):
        workload = workload_by_name(name)
        scale = 8_000 if name == "kmeans" else 20_000
        records = workload.make_tables(scale, 3)[workload.query.protected_table]
        assert 0.4 <= partition_ids_of(records).mean() <= 0.6

    def test_one_field_changes_the_fingerprint(self):
        workload = workload_by_name("tpch6")
        rows = workload.make_tables(2_000, 11)["lineitem"]
        prints = record_fingerprints(rows)
        bump = {
            int: lambda v: v + 1,
            float: lambda v: float(np.nextafter(v, np.inf)),
            str: lambda v: v + " ",
            datetime.date: lambda v: v + datetime.timedelta(days=1),
        }
        for column in rows[0]:
            changed = [
                {**r, column: bump[type(r[column])](r[column])} for r in rows
            ]
            assert (record_fingerprints(changed) != prints).all(), column


class TestRangeInference:
    def test_normal_fit_brackets_gaussian_data(self):
        rng = np.random.default_rng(0)
        outputs = rng.normal(100.0, 5.0, size=(1000, 1))
        inferred = infer_output_range(outputs, population=1000)
        assert inferred.lower[0] < 85 < 115 < inferred.upper[0]

    def test_discrete_fallback_exact_for_counts(self):
        outputs = np.array([[9.0], [11.0]] * 500)
        inferred = infer_output_range(outputs, population=100_000)
        assert inferred.lower[0] == 9.0
        assert inferred.upper[0] == 11.0
        assert inferred.used_fallback[0]
        assert inferred.local_sensitivity == 2.0

    def test_fallback_disabled_uses_normal(self):
        outputs = np.array([[9.0], [11.0]] * 500)
        config = InferenceConfig(discrete_fallback=False, envelope=False)
        inferred = infer_output_range(outputs, 100_000, config)
        assert inferred.upper[0] > 11.0  # normal tail extends past samples

    def test_extrapolation_widens_with_population(self):
        rng = np.random.default_rng(1)
        outputs = rng.normal(0.0, 1.0, size=(500, 1))
        config = InferenceConfig(envelope=False)
        small = infer_output_range(outputs, 1_000, config)
        large = infer_output_range(outputs, 1_000_000, config)
        assert large.local_sensitivity > small.local_sensitivity

    def test_paper_percentiles_without_extrapolation(self):
        rng = np.random.default_rng(2)
        outputs = rng.normal(0.0, 1.0, size=(5000, 1))
        config = InferenceConfig(
            extrapolate=False, envelope=False, discrete_fallback=False
        )
        inferred = infer_output_range(outputs, 10**6, config)
        # 1st..99th percentile of a standard normal ~ +-2.326.
        assert inferred.local_sensitivity == pytest.approx(4.65, rel=0.1)

    def test_multidimensional_ranges(self):
        rng = np.random.default_rng(3)
        outputs = np.column_stack(
            [rng.normal(0, 1, 800), rng.normal(50, 10, 800)]
        )
        inferred = infer_output_range(outputs, 800)
        assert inferred.lower.shape == (2,)
        assert inferred.upper[1] > inferred.upper[0]

    def test_clamp(self):
        outputs = np.array([[0.0], [10.0]] * 50)
        inferred = infer_output_range(outputs, 100)
        assert inferred.clamp(np.array([99.0]))[0] == inferred.upper[0]
        assert inferred.clamp(np.array([-99.0]))[0] == inferred.lower[0]

    def test_contains_and_coverage(self):
        outputs = np.array([[0.0], [10.0]] * 50)
        inferred = infer_output_range(outputs, 100)
        assert inferred.contains(np.array([5.0]))
        assert not inferred.contains(np.array([50.0]))
        cover = inferred.coverage(np.array([[5.0], [50.0]]))
        assert cover == 0.5

    def test_max_deviation(self):
        outputs = np.array([[0.0], [10.0]] * 50)
        inferred = infer_output_range(outputs, 100)
        assert inferred.max_deviation(np.array([10.0])) == pytest.approx(10.0)
        assert inferred.max_deviation(np.array([5.0])) == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(DPError):
            infer_output_range(np.empty((0, 1)), 100)

    def test_invalid_percentiles(self):
        with pytest.raises(DPError):
            InferenceConfig(percentile_low=60.0, percentile_high=40.0)


class TestSensitivityEstimator:
    def test_discrete_deltas_exact(self):
        outputs = np.array([[99.0]] * 500 + [[101.0]] * 500)
        est = infer_local_sensitivity(outputs, np.array([100.0]), 10_000)
        assert est == 1.0

    def test_normal_deltas_extrapolate(self):
        rng = np.random.default_rng(4)
        center = np.array([0.0])
        outputs = rng.normal(0, 1, size=(1000, 1))
        est = infer_local_sensitivity(outputs, center, 100_000)
        # expected max |delta| of 100k half-normal draws ~ 4.5
        assert 3.0 < est < 7.0

    def test_envelope_never_below_sampled_max(self):
        outputs = np.array([[0.0]] * 999 + [[1000.0]])
        est = infer_local_sensitivity(
            outputs, np.array([0.0]), 10_000,
            InferenceConfig(discrete_fallback=False),
        )
        assert est >= 1000.0

    def test_vector_deltas_use_l1(self):
        center = np.zeros(2)
        outputs = np.array([[3.0, 4.0]] * 20)
        est = infer_local_sensitivity(outputs, center, 100)
        assert est == pytest.approx(7.0)
