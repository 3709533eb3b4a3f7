"""Tests for the life-science generator, KMeans and Linear Regression."""

import random

import numpy as np
import pytest

from repro.mining import (
    KMeansQuery,
    LifeScienceConfig,
    LinearRegressionQuery,
    make_life_science_tables,
)
from repro.mining.datasets import domain_point


def _inertia(tables, centers):
    """Sum of squared distances to the nearest centers."""
    total = 0.0
    for record in tables["points"]:
        point = np.asarray(record["features"], dtype=float)
        total += float(np.min(np.sum((centers - point) ** 2, axis=1)))
    return total


class TestDataset:
    def test_deterministic(self):
        cfg = LifeScienceConfig(num_records=100, seed=3)
        assert make_life_science_tables(cfg) == make_life_science_tables(cfg)

    def test_shape(self, ml_tables):
        rows = ml_tables["points"]
        assert len(rows) == 800
        assert all(len(r["features"]) == 3 for r in rows[:20])
        assert all(isinstance(r["label"], float) for r in rows[:20])

    def test_outlier_rate(self):
        cfg = LifeScienceConfig(
            num_records=20_000, dim=2, outlier_rate=0.01, seed=1
        )
        rows = make_life_science_tables(cfg)["points"]
        norms = np.array(
            [np.linalg.norm(np.asarray(r["features"])) for r in rows]
        )
        # some points are far outside the +-11 cluster envelope
        assert np.sum(norms > 14) > 10

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LifeScienceConfig(num_records=5)
        with pytest.raises(ValueError):
            LifeScienceConfig(dim=0)

    def test_domain_point_shape(self):
        cfg = LifeScienceConfig(dim=3)
        row = domain_point(random.Random(0), cfg)
        assert len(row["features"]) == 3
        assert "label" in row


class TestLinearRegression:
    def test_single_step_reduces_loss(self, ml_tables):
        query = LinearRegressionQuery(dim=3, learning_rate=0.005)
        before = query.mean_squared_error(
            ml_tables, query.initial_weights
        )
        after_weights = query.output(ml_tables)
        after = query.mean_squared_error(ml_tables, after_weights)
        assert after < before

    def test_training_converges_towards_truth(self, ml_tables):
        query = LinearRegressionQuery(dim=3, learning_rate=0.005)
        weights = query.train(ml_tables, steps=60)
        mse = query.mean_squared_error(ml_tables, weights)
        initial = query.mean_squared_error(ml_tables, query.initial_weights)
        assert mse < initial / 4

    def test_output_dim(self):
        query = LinearRegressionQuery(dim=5)
        assert query.output_dim == 6  # weights + bias

    def test_gradient_matches_numeric(self, ml_tables):
        query = LinearRegressionQuery(dim=3)
        aux = query.build_aux(ml_tables)
        record = ml_tables["points"][0]
        grad, count = query.map_record(record, aux)
        assert count == 1
        x = np.append(np.asarray(record["features"]), 1.0)
        residual = float(x @ aux) - record["label"]
        assert grad == pytest.approx(residual * x)

    def test_finalize_on_empty_returns_initial(self):
        query = LinearRegressionQuery(dim=2)
        out = query.finalize(query.zero(), query.initial_weights)
        assert np.allclose(out, query.initial_weights)

    def test_bad_initial_weights_shape(self):
        with pytest.raises(ValueError):
            LinearRegressionQuery(dim=3, initial_weights=np.zeros(2))

    def test_neighbour_influence_bounded_by_max_gradient(self, ml_tables):
        from repro.baselines.bruteforce import exact_local_sensitivity

        query = LinearRegressionQuery(dim=3, learning_rate=0.005)
        result = exact_local_sensitivity(query, ml_tables)
        assert result.local_sensitivity > 0
        # one record of N shifts the average gradient by O(1/N)
        assert result.local_sensitivity < 1.0


class TestKMeans:
    def test_one_step_reduces_inertia(self, ml_tables):
        query = KMeansQuery(num_clusters=2, dim=3)
        centers0 = query.build_aux(ml_tables)
        centers1 = query.output(ml_tables).reshape(2, 3)
        assert _inertia(ml_tables, centers1) <= _inertia(ml_tables, centers0)

    def test_lloyd_iterations_converge(self, ml_tables):
        centers = KMeansQuery(num_clusters=2, dim=3).build_aux(ml_tables)
        for _ in range(15):  # each release is one Lloyd step
            step = KMeansQuery(2, 3, centers)
            centers = step.output(ml_tables).reshape(2, 3)
        once_more = KMeansQuery(2, 3, centers).output(ml_tables).reshape(2, 3)
        assert np.allclose(centers, once_more, atol=1e-6)

    def test_assignment_one_hot(self, ml_tables):
        query = KMeansQuery(num_clusters=2, dim=3)
        aux = query.build_aux(ml_tables)
        counts, sums = query.map_record(ml_tables["points"][0], aux)
        assert counts.sum() == 1.0
        chosen = int(np.argmax(counts))
        assert np.allclose(
            sums[chosen], np.asarray(ml_tables["points"][0]["features"])
        )

    def test_empty_cluster_keeps_center(self):
        query = KMeansQuery(num_clusters=2, dim=2,
                            initial_centers=np.array([[0.0, 0.0], [100.0, 100.0]]))
        tables = {"points": [{"features": (0.1, 0.1), "label": 0.0}]}
        out = query.finalize(
            query.map_record(tables["points"][0], query.build_aux(tables)),
            query.build_aux(tables),
        ).reshape(2, 2)
        assert np.allclose(out[1], [100.0, 100.0])  # untouched center

    def test_initial_centers_from_data_are_distinct(self, ml_tables):
        query = KMeansQuery(num_clusters=2, dim=3)
        centers = query.build_aux(ml_tables)
        assert not np.allclose(centers[0], centers[1])

    def test_too_few_distinct_points(self):
        query = KMeansQuery(num_clusters=3, dim=1)
        tables = {"points": [{"features": (1.0,), "label": 0.0}] * 5}
        with pytest.raises(ValueError):
            query.build_aux(tables)

    def test_bad_centers_shape(self):
        with pytest.raises(ValueError):
            KMeansQuery(2, 2, initial_centers=np.zeros((3, 2)))

    def test_output_dim(self):
        assert KMeansQuery(num_clusters=3, dim=4).output_dim == 12
