"""Edge-case tests across the stack: tiny datasets, degenerate configs,
boundary conditions the benchmarks never hit."""

import random

import numpy as np
import pytest

from repro.common.errors import DPError
from repro.core import MapReduceQuery, UPAConfig, UPASession
from repro.core.inference import InferenceConfig, infer_output_range
from repro.core.sampling import partition_and_sample


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
        session = UPASession(UPAConfig(sample_size=10, seed=0))
        result = session.run(
            _ZeroDomainQuery(), _tables([0, 0, 0]), epsilon=1.0
        )
        assert result.local_sensitivity == 0.0
        # zero sensitivity => zero noise
        assert result.noisy_scalar() == result.raw_output[0]


class TestSamplingBoundaries:
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
        # exactly `threshold` distinct values still uses the fallback
        config = InferenceConfig(discrete_distinct_threshold=3)
        outputs = np.array([[1.0], [2.0], [3.0]] * 10)
        inferred = infer_output_range(outputs, 1000, config)
        assert inferred.used_fallback[0]
        # one more distinct value switches to the normal fit
        outputs = np.array([[1.0], [2.0], [3.0], [4.0]] * 10)
        inferred = infer_output_range(outputs, 1000, config)
        assert not inferred.used_fallback[0]

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
