"""Tests for Partition & Sample and for sensitivity inference."""

import datetime
import enum
import hashlib
import os
import random
import struct
import subprocess
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.sampling as sampling_mod
import repro.core.session as session_mod
from repro.baselines.bruteforce import exact_local_sensitivity
from repro.common.errors import DPError
from repro.common.rng import make_rng
from repro.core.batch import column_values
from repro.core.inference import (
    MAX_TAIL_LEVEL,
    infer_local_sensitivity,
    infer_output_range,
    ndtri,
)
from repro.core.query import MapReduceQuery
from repro.core.sampling import (
    fingerprint_columns,
    partition_and_sample,
    partition_id_bits,
    record_fingerprint,
    record_fingerprints,
)
from repro.core.session import UPAConfig, UPASession
from repro.engine.columnar import ColumnarPartition, gather_columns
from repro.mining.datasets import LifeScienceConfig, domain_point
from repro.tpch.datagen import NATION_NAMES, PRIORITIES, SHIPMODES
from repro.tpch.queries import base as samplers
from repro.workloads import all_workloads, workload_by_name


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
        merged = [*sample.partitions[0], *sample.partitions[1]]
        assert sorted(r["v"] for r in merged) == sorted(
            r["v"] for r in tables["vals"]
        )

    def test_partitions_keep_table_order(self):
        records = _tables()["vals"]
        sample = partition_and_sample(
            _IdentityQuery(), {"vals": records}, 50, random.Random(0)
        )
        for p in (0, 1):
            assert list(sample.partitions[p]) == [
                r for r, pid in zip(records, sample.partition_ids) if pid == p
            ]

    def test_partition_is_stable_per_record(self):
        record = {"v": 3.0}
        ids = partition_id_bits(record_fingerprints([record, dict(record)]))
        assert ids[0] == ids[1]

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
        assert [len(part) for part in sample.remaining] == [0, 0]
        assert len(sample.domain_samples) == 10

    def test_sampled_plus_remaining_is_everything(self):
        tables = _tables(200)
        sample = partition_and_sample(
            _IdentityQuery(), tables, 30, random.Random(5)
        )
        reunion = sorted(
            r["v"]
            for r in (*sample.sampled, *sample.remaining[0],
                      *sample.remaining[1])
        )
        assert reunion == [float(i) for i in range(200)]

    def test_sampled_partitions_consistent(self):
        sample = partition_and_sample(
            _IdentityQuery(), _tables(100), 20, random.Random(2)
        )
        ids = partition_id_bits(record_fingerprints(list(sample.sampled)))
        assert ids.tolist() == list(sample.sampled_partitions)

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
        assert list(a.sampled) == list(b.sampled)
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
        ids = partition_id_bits(record_fingerprints(records))
        assert 0.4 <= ids.mean() <= 0.6

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


#: one strategy per column: a column of one exact type, or mixed.
_float_vectors = st.lists(
    st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3,
).map(tuple)
_column_values = st.sampled_from([
    st.integers(-5, 5),
    st.integers(),  # some beyond int64
    st.floats(allow_nan=True, allow_infinity=True),
    st.one_of(st.integers(-5, 5), st.floats(allow_nan=False)),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.text(min_size=1, max_size=4),
    st.dates(),
    _float_vectors,
    st.lists(st.integers(-3, 3), min_size=2, max_size=2).map(tuple),
    st.lists(_scalars, max_size=3).map(tuple),  # differing widths
    _values,
])


@st.composite
def _uniform_tables(draw):
    """Rows that share one key set, each in its own insertion order."""
    # One column to twelve: either side of gather_columns' width rule.
    keys = draw(st.lists(
        st.sampled_from("abcdefghijkl"), min_size=1, max_size=12,
        unique=True,
    ))
    strategies = {key: draw(_column_values) for key in keys}
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.permutations(keys))
        rows.append({key: draw(strategies[key]) for key in order})
    return rows


def _oracle(rows):
    return [record_fingerprint(row) for row in rows]


class TestOnePassGather:
    """The table is read once: ``gather_columns`` + the typed hashers."""

    @settings(max_examples=300, deadline=None)
    @given(_uniform_tables())
    def test_one_pass_is_the_per_key_transposition(self, rows):
        names = sorted(rows[0])
        assert gather_columns(rows, names) == [
            [row[name] for row in rows] for name in names
        ]
        fingerprints, buffers = fingerprint_columns(rows)
        assert fingerprints.tolist() == _oracle(rows)
        for name, buffer in buffers.items():
            column = [row[name] for row in rows]
            if isinstance(buffer, np.ndarray):
                kinds = {int: np.int64, float: np.float64,
                         tuple: np.float64}
                assert buffer.dtype == kinds[type(column[0])]
                assert _bits(buffer.tolist()) == _bits(column)
            else:  # a date / str column hands back its own values
                assert type(column[0]) in (str, datetime.date)
                assert all(a is b for a, b in zip(buffer, column))

    @pytest.mark.parametrize("values", [
        ["abc", "de", ""],  # a bare itemgetter value fed to chain
        ["a", "b", "c"],  # ... is iterated, silently: one char per row
        [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)],
        [("x", 1), ("y", 2), ("z", 3)],
        [(), (), ()],
    ])
    def test_one_key_table_keeps_its_values_whole(self, values):
        rows = [{"only": value} for value in values]
        assert gather_columns(rows, ["only"]) == [values]
        assert record_fingerprints(rows).tolist() == _oracle(rows)
        assert len(set(_oracle(rows))) == len(set(values))

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 14])
    def test_narrow_and_wide_tables_gather_alike(self, width):
        # Below _ONE_PASS_MIN_WIDTH a pass per column, from it one pass
        # per table; str values, which a flattening bug would split.
        names = [f"c{j}" for j in range(width)]
        rows = [
            {name: f"{name}-{i}" * (i % 3) for name in names}
            for i in range(11)
        ]
        assert gather_columns(rows, names) == [
            [row[name] for row in rows] for name in names
        ]
        assert gather_columns(rows, names[::-1])[0] == [
            row[names[-1]] for row in rows
        ]
        assert record_fingerprints(rows).tolist() == _oracle(rows)
        with pytest.raises(KeyError):
            gather_columns(rows + [{"c0": "x"}], names + ["other"])

    def test_rows_in_different_insertion_order(self):
        rows = [{"a": 1, "b": "x", "c": 2.5}, {"c": 3.5, "a": 2, "b": "y"},
                {"b": "z", "c": 4.5, "a": 3}]
        assert gather_columns(rows, ["a", "b", "c"]) == [
            [1, 2, 3], ["x", "y", "z"], [2.5, 3.5, 4.5],
        ]
        fingerprints, buffers = fingerprint_columns(rows)
        assert fingerprints.tolist() == _oracle(rows)
        assert buffers["a"].tolist() == [1, 2, 3]

    @pytest.mark.parametrize("rows", [
        [{"a": 1, "b": 2}, {"a": 1, "c": 2}],  # same width: KeyError
        [{"a": 1, "b": 2}, {"a": 1}],  # a row missing a key
        [{"a": 1}, {"a": 1, "b": 2}, {"a": 3}],  # a row with an extra key
        [dict.fromkeys("abcdefghi", 1),  # ... and from the one-pass gather
         dict.fromkeys("abcdefghj", 1)],
    ])
    def test_other_key_sets_reach_the_grouped_hash(self, rows, monkeypatch):
        grouped = []
        real = sampling_mod._hash_grouped

        def spy(items, group_of, hasher):
            grouped.append(group_of)
            return real(items, group_of, hasher)

        monkeypatch.setattr(sampling_mod, "_hash_grouped", spy)
        fingerprints, buffers = fingerprint_columns(rows)
        assert frozenset in grouped
        assert buffers == {}
        assert fingerprints.tolist() == _oracle(rows)

    @pytest.mark.parametrize("values, buffer", [
        ([1, 2, 3], np.int64),
        ([1.5, -0.0, float("nan")], np.float64),
        ([1, 2.0, 3], None),  # mixed: 1 and 1.0 hash apart, no one array
        ([True, False, True], None),
        ([None, None], None),
        ([1, 2 ** 70, -2 ** 63], None),  # beyond int64
        ([(1.0, 2.0), (3.0, 4.0)], np.float64),
        ([(1.0,), (2.0, 3.0)], None),  # differing widths
        ([(1, 2), (3, 4)], None),  # an int vector is not a float buffer
        ([(1.0, 2), (3.0, 4)], None),
        (["x", "y"], list),
        ([datetime.date(2020, 1, 1), datetime.date(2021, 2, 3)], list),
    ])
    def test_a_buffer_exists_only_for_an_exact_type_column(
        self, values, buffer
    ):
        rows = [{"k": 0.5, "v": value} for value in values]
        fingerprints, buffers = fingerprint_columns(rows)
        assert fingerprints.tolist() == _oracle(rows)
        assert buffers["k"].dtype == np.float64
        if buffer is None:
            assert "v" not in buffers
        elif buffer is list:
            assert buffers["v"] == values
        else:
            assert buffers["v"].dtype == buffer
            assert buffers["v"].shape[0] == len(values)

    def test_empty_table(self):
        fingerprints, buffers = fingerprint_columns([])
        assert fingerprints.shape == (0,) and fingerprints.dtype == np.uint64
        assert buffers == {}
        assert gather_columns([], ["a", "b"]) == [[], []]
        assert gather_columns([], ["a"]) == [[]]
        assert gather_columns([{}, {}], []) == []

    def test_a_block_of_the_hash_buffers_boxes_the_rows(self, tpch_tables):
        rows = tpch_tables["lineitem"][:50]
        buffers = fingerprint_columns(rows)[1]
        assert buffers["l_quantity"].dtype == np.float64
        block = ColumnarPartition(buffers)
        assert set(block.names) == set(rows[0])
        assert list(block) == rows
        assert [type(v) for v in block[3].values()] == [
            type(rows[3][name]) for name in block.names
        ]


def _flatten(values):
    for value in values:
        if isinstance(value, (tuple, list)):
            yield from _flatten(value)
        else:
            yield value


def _bits(values):
    """Floats by bit pattern (nan == nan, 0.0 != -0.0), the rest as is."""
    return [
        np.float64(v).tobytes() if isinstance(v, float) else v
        for v in _flatten(values)
    ]


# An independent reference of the hash contract (DESIGN.md section 5,
# item 4), one value and one record at a time in Python ints: a value
# by its exact type, the per-type constants pinned here.
_MASK = (1 << 64) - 1
_SALTS = {
    int: 0x9E3779B97F4A7C15, float: 0xC2B2AE3D27D4EB4F,
    datetime.date: 0x165667B19E3779F9, str: 0x27D4EB2F165667C5,
    tuple: 0x85EBCA77C2B2AE63,
}
_OTHER_SALT = 0xD6E8FEB86659FD93


def _reference_mix(h):
    h ^= h >> 30
    h = h * 0xBF58476D1CE4E5B9 & _MASK
    h ^= h >> 27
    h = h * 0x94D049BB133111EB & _MASK
    return h ^ h >> 31


def _crc(text):
    return zlib.crc32(text.encode("utf-8", "surrogatepass"))


def _reference_value(value):
    kind = type(value)
    if kind is int and -(1 << 63) <= value < 1 << 63:
        bits = struct.unpack("<Q", struct.pack("<q", value))[0]
    elif kind is float:
        bits = struct.unpack("<Q", struct.pack("<d", value))[0]
    elif kind is datetime.date:
        bits = value.toordinal()
    elif kind is str:
        bits = _crc(value)
    elif kind is tuple:
        h = _SALTS[tuple] + len(value) & _MASK
        for item in value:
            h = _reference_mix(h ^ _reference_value(item))
        return h
    else:
        return _crc(repr(value)) ^ _OTHER_SALT
    return bits ^ _SALTS[kind]


def _reference_fingerprint(row):
    h = len(row)
    for key in sorted(row):
        h = _reference_mix(
            (h + _crc(repr(key)) & _MASK) ^ _reference_value(row[key])
        )
    return h


def _per_type(values):
    """``_hash_values`` with the one-pass path switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling_mod, "_hash_marshalled", lambda values: None)
        return sampling_mod._hash_values(values)


def _assert_same_buffer(mine, theirs):
    if isinstance(theirs, np.ndarray):
        assert isinstance(mine, np.ndarray)
        assert mine.dtype == theirs.dtype and mine.dtype.isnative
        assert mine.shape == theirs.shape and mine.flags.c_contiguous
        assert mine.tobytes() == theirs.tobytes()
    else:  # none, or a date / str column's own values
        assert mine == theirs


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class _Level(enum.IntEnum):
    LOW = 1


class _Celsius(float):
    pass


class TestHashReference:
    """Every hash is the reference's; every buffer the per-type path's."""

    def _check(self, rows):
        fingerprints, buffers = fingerprint_columns(rows)
        assert fingerprints.tolist() == list(map(_reference_fingerprint, rows))
        keys = sorted(rows[0])
        if any(sorted(row) != keys for row in rows):
            return
        for key in keys:
            column = [row[key] for row in rows]
            hashes, buffer = sampling_mod._hash_values(column)
            assert hashes.tolist() == list(map(_reference_value, column))
            per_type = _per_type(column)[1]
            _assert_same_buffer(buffer, per_type)
            _assert_same_buffer(buffers.get(key), per_type)

    @settings(max_examples=300, deadline=None)
    @given(_uniform_tables())
    def test_uniform_tables(self, rows):
        self._check(rows)

    @settings(max_examples=100, deadline=None)
    @given(_rows)
    def test_rows_of_other_key_sets(self, rows):
        self._check(rows)

    @pytest.mark.parametrize("column, one_pass", [
        ([2 ** 31 - 1, -2 ** 31, 0], True),  # the int32 edges
        ([2 ** 31 - 1, -2 ** 31, 2 ** 31], False),  # one beyond
        ([2 ** 31, 5], False),
        ([-2 ** 31 - 1, 5], False),
        ([2 ** 63, 5, -2 ** 63], False),  # int64 and beyond
        ([1, True, 2], False),
        ([True, 1], False),
        ([1, _Level.LOW, 3], False),
        ([_Level.LOW, 2], False),
        ([1.5, _Celsius(2.5)], False),
        ([_Celsius(2.5), 1.5], False),
        ([1.5, np.float64(2.5)], False),
        ([np.float64(2.5), 1.5], False),
        ([4, np.int64(3)], False),
        ([np.int64(3), 4], False),
        ([1, 2.0], False),
        ([1, None], False),
        ([1.0, "1.0"], False),
        ([float("nan"), _nan(0x7FF8000000000001),
          _nan(0xFFF8000000000000), _nan(0x7FF0000000000001)], True),
        ([-0.0, 0.0, -0.0], True),
        ([(-0.0, _nan(0x7FF8000000000002)), (0.0, float("inf"))], True),
        ([(), ()], False),  # width 0
        ([(), (1.0,)], False),
        ([(1.0, 2.0), (3.0,), (4.0, 5.0), ()], False),  # ragged
        ([(1.0, 2.0), (3.0, 4)], False),
        ([(1.0, 2.0), (3.0, np.float64(4.0))], False),
        ([(1.0, 2.0), [3.0, 4.0]], False),
        ([(1, 2.0), (3, 4.0)], False),
    ])
    def test_edge_columns(self, column, one_pass):
        assert (sampling_mod._hash_marshalled(column) is not None) == one_pass
        self._check([{"v": value, "w": i} for i, value in enumerate(column)])

    def test_ragged_groups_take_the_one_pass_path(self, monkeypatch):
        taken = []
        real = sampling_mod._hash_marshalled

        def spy(values):
            result = real(values)
            taken.append((len(values), result is not None))
            return result

        monkeypatch.setattr(sampling_mod, "_hash_marshalled", spy)
        column = [(1.0, 2.0), (3.0,), (4.0, 5.0)]
        self._check([{"v": value} for value in column])
        # The column fails; then its width-2 and width-1 groups pass.
        assert taken[:3] == [(3, False), (2, True), (1, True)]

    @pytest.mark.parametrize("table", ["lineitem", "orders", "points"])
    def test_one_pass_takes_every_numeric_column(
        self, tpch_tables, ml_tables, table
    ):
        rows = (ml_tables if table == "points" else tpch_tables)[table]
        keys = sorted(rows[0])
        numeric = []
        for key, column in zip(keys, gather_columns(rows, keys)):
            marshalled = sampling_mod._hash_marshalled(column)
            if type(column[0]) not in (int, float, tuple):
                assert marshalled is None, key
                continue
            assert marshalled is not None, key
            hashes, buffer = _per_type(column)
            assert marshalled[0].tolist() == hashes.tolist()
            _assert_same_buffer(marshalled[1], buffer)
            numeric.append(key)
        assert len(numeric) >= 2


def _sample_of(name, tables, n=40, **kwargs):
    query = workload_by_name(name).query
    return partition_and_sample(query, tables, n, random.Random(6), **kwargs)


class TestRecordViews:
    """S, S' and the partitions are index views over the caller's rows."""

    def test_views_yield_the_callers_own_dicts(self, tpch_tables):
        records = tpch_tables["lineitem"]
        sample = _sample_of("tpch6", tpch_tables)
        views = (sample.sampled, *sample.remaining, *sample.partitions)
        positions = (
            sample.sampled_indices, *sample.remaining_indices,
            *(np.flatnonzero(sample.partition_ids == p) for p in (0, 1)),
        )
        for view, indices in zip(views, positions):
            assert len(view) == len(indices)
            for row, i in zip(view, indices):
                assert row is records[i]
            assert view[0] is records[indices[0]]
            assert view[-1] is records[indices[-1]]
            piece = view[3:11]
            assert len(piece) == 8
            assert all(a is b for a, b in zip(piece, list(view)[3:11]))
        assert sum(map(len, sample.remaining)) + sample.sample_size == len(
            records
        )
        empty = sample.sampled[5:5]
        assert len(empty) == 0 and not empty and list(empty) == []

    @pytest.mark.parametrize("name, column, dtype", [
        ("tpch6", "l_extendedprice", float),
        ("tpch6", "l_orderkey", float),  # an int64 buffer, cast on the way
        ("tpch6", "l_shipdate", None),
        ("tpch6", "l_shipmode", None),
        ("kmeans", "features", float),  # one (n, d) buffer
        ("kmeans", "label", float),
    ])
    def test_numpy_column_is_the_row_gather(
        self, tpch_tables, ml_tables, name, column, dtype
    ):
        tables = ml_tables if name == "kmeans" else tpch_tables
        sample = _sample_of(name, tables)
        assert column in sample.buffers
        for view in (sample.sampled, sample.remaining[1][7:60],
                     sample.partitions[0]):
            mine = column_values(view, column, dtype)
            rows = column_values(list(view), column, dtype)
            assert mine.shape == rows.shape and len(mine) == len(view)
            if dtype is None:
                assert mine.dtype == object and mine.tolist() == rows.tolist()
            else:
                assert mine.dtype == rows.dtype
                assert mine.tobytes() == rows.tobytes()

    def test_no_buffer_falls_back_to_the_rows(self, ml_tables):
        # ... for a heterogeneous column,
        mixed = {"points": [
            {"features": (1.0, 2), "label": 1},
            {"features": (3.0, 4), "label": 2.5},
            {"features": (5.0, 6), "label": 3},
        ]}
        sample = _sample_of("kmeans", mixed)
        assert sample.buffers == {}
        assert sample.sampled.numpy_column("features") is None
        assert column_values(sample.sampled, "features").tolist() == [
            [1.0, 2.0], [3.0, 4.0], [5.0, 6.0],
        ]
        assert column_values(sample.sampled, "label").tolist() == [
            1.0, 2.5, 3.0,
        ]

    def test_a_registered_table_is_sampled_without_hashing(
        self, ml_tables, monkeypatch
    ):
        hashed = _sample_of("kmeans", ml_tables)
        monkeypatch.setattr(
            sampling_mod, "fingerprint_columns",
            lambda records: pytest.fail("hashed a registered table"),
        )
        sample = _sample_of("kmeans", ml_tables, table=hashed.table)
        assert sample.table is hashed.table
        assert sample.sampled_indices.tolist() == hashed.sampled_indices.tolist()
        assert sample.buffers is hashed.buffers
        with pytest.raises(DPError, match="not the submitted 'points'"):
            _sample_of(
                "kmeans", {"points": list(ml_tables["points"])},
                table=hashed.table,
            )

    def test_boxing_a_column_twice_under_threads_is_harmless(
        self, tpch_tables
    ):
        expected = [
            [row["l_shipdate"] for row in part]
            for part in _sample_of("tpch6", tpch_tables).remaining
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                sample = _sample_of("tpch6", tpch_tables)  # unboxed again
                views = sample.remaining
                results = [None] * 8
                barrier = threading.Barrier(len(results))

                def read(k):
                    barrier.wait(timeout=10)
                    results[k] = views[k % 2].numpy_column("l_shipdate")

                threads = [
                    threading.Thread(target=read, args=(k,))
                    for k in range(len(results))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                for k, column in enumerate(results):
                    assert column.tolist() == expected[k % 2]
        finally:
            sys.setswitchinterval(interval)


_ML_CONFIG = LifeScienceConfig(num_records=800, dim=3, num_clusters=2, seed=5)
#: protected table -> (its sampler, the fixture holding the table).
_SAMPLERS = {
    "lineitem": (samplers.random_lineitem, "tpch_tables"),
    "orders": (samplers.random_order, "tpch_tables"),
    "customer": (samplers.random_customer, "tpch_tables"),
    "part": (samplers.random_part, "tpch_tables"),
    "partsupp": (samplers.random_partsupp, "tpch_tables"),
    "supplier": (samplers.random_supplier, "tpch_tables"),
    "points": (domain_point, "ml_tables"),
}


@pytest.fixture(params=sorted(_SAMPLERS))
def sampler_case(request):
    """(sampler, what it draws against, the protected table's rows)."""
    sampler, fixture = _SAMPLERS[request.param]
    tables = request.getfixturevalue(fixture)
    context = _ML_CONFIG if request.param == "points" else tables
    return sampler, context, tables[request.param]


def _batch_digest(name: str, scale: int, data_seed: int, seed: int,
                  run: int, n: int) -> str:
    """sha256 of the S-bar the ``run``-th release of a session draws."""
    workload = workload_by_name(name)
    sample = partition_and_sample(
        workload.query, workload.make_tables(scale, data_seed), n,
        make_rng(seed, f"upa-run-{run}"),
    )
    return hashlib.sha256(
        repr(list(sample.domain_samples)).encode()
    ).hexdigest()


class TestDomainSamplerContract:
    """S-bar is one column batch, a pure function of (seed, run, tables, n)."""

    def test_one_row_call_is_the_batch_of_one(self, sampler_case):
        sampler, context, _ = sampler_case
        one, batch = random.Random(5), random.Random(5)
        assert sampler(one, context) == sampler.batch(batch, context, 1).row(0)
        # ... and both took one draw from the run's rng.
        assert one.getstate() == batch.getstate()
        assert one.getstate() != random.Random(5).getstate()

    @pytest.mark.parametrize("name", ["tpch4", "tpch6", "kmeans"])
    def test_same_seed_run_tables_n_same_batch(self, name):
        args = (name, 600, 11, 77, 2, 40)
        mine = _batch_digest(*args)
        assert mine == _batch_digest(*args)
        assert mine != _batch_digest(name, 600, 11, 77, 3, 40)
        script = (
            "import sys\n"
            f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "from test_core_sampling_inference import _batch_digest\n"
            f"print(_batch_digest(*{args!r}))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="4",
                   PYTHONPATH=os.pathsep.join(sys.path))
        theirs = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout.strip()
        assert theirs == mine

    def test_rows_fingerprint_like_table_rows(self, sampler_case):
        sampler, context, table = sampler_case
        batch = sampler.batch(random.Random(2), context, 40)
        assert isinstance(batch, ColumnarPartition) and len(batch) == 40
        model = table[0]
        for row in batch:
            assert set(row) == set(model)
            for column, value in row.items():
                assert type(value) is type(model[column]), column
                if isinstance(value, tuple):
                    assert len(value) == len(model[column])
                    assert all(type(v) is float for v in value)
        assert record_fingerprints(batch).tolist() == [
            record_fingerprint(row) for row in batch
        ]

    @pytest.mark.parametrize("name", [w.name for w in all_workloads()])
    def test_columns_map_like_rows(self, name):
        workload = workload_by_name(name)
        tables = workload.make_tables(600, 11)
        query = workload.query
        aux = query.build_aux(tables)
        batch = query.sample_domain_batch(random.Random(3), tables, 30)
        columns = list(query.iter_batch(query.map_batch(batch, aux)))
        boxed = list(query.iter_batch(query.map_batch(list(batch), aux)))
        assert len(columns) == 30
        for a, b in zip(columns, boxed):
            for x, y in zip(a if isinstance(a, tuple) else (a,),
                            b if isinstance(b, tuple) else (b,)):
                assert np.asarray(x, float).tobytes() == \
                    np.asarray(y, float).tobytes()

    def test_lineitem_support(self, tpch_tables):
        n = 3000
        batch = samplers.random_lineitem.batch(random.Random(1), tpch_tables, n)
        col = batch.column
        order_dates = {
            o["o_orderkey"]: o["o_orderdate"] for o in tpch_tables["orders"]
        }
        assert set(col("l_orderkey").tolist()) <= set(order_dates)
        assert set(col("l_linenumber").tolist()) == {999}
        assert set(col("l_quantity").tolist()) == {float(q) for q in range(1, 51)}
        assert set(col("l_discount").tolist()) == {k / 100.0 for k in range(11)}
        assert set(col("l_tax").tolist()) == {k / 100.0 for k in range(9)}
        unit_price = col("l_extendedprice") / col("l_quantity")
        assert 899.99 < unit_price.min() and unit_price.max() < 1100.01
        assert np.array_equal(
            col("l_extendedprice"), np.round(col("l_extendedprice"), 2)
        )
        for key, table, column in (("l_partkey", "part", "p_partkey"),
                                   ("l_suppkey", "supplier", "s_suppkey")):
            top = max(row[column] for row in tpch_tables[table])
            assert 1 <= col(key).min() and col(key).max() <= top
        assert set(col("l_returnflag")) == {"A", "N", "R"}
        assert set(col("l_linestatus")) == {"F", "O"}
        assert set(col("l_shipmode")) == set(SHIPMODES)
        base = [order_dates[key] for key in col("l_orderkey").tolist()]
        offsets = {
            "ship": {(s - b).days for s, b in zip(col("l_shipdate"), base)},
            "commit": {(c - b).days for c, b in zip(col("l_commitdate"), base)},
            "receipt": {
                (r - s).days
                for r, s in zip(col("l_receiptdate"), col("l_shipdate"))
            },
        }
        assert offsets["ship"] == set(range(1, 121))
        assert offsets["commit"] == set(range(60, 151))
        assert offsets["receipt"] == set(range(1, 31))

    @pytest.mark.parametrize("table, key, name", [
        ("orders", "o_orderkey", None),
        ("customer", "c_custkey", ("c_name", "Customer#{:09d}")),
        ("part", "p_partkey", ("p_name", "part {}")),
        ("supplier", "s_suppkey", ("s_name", "Supplier#{:09d}")),
    ])
    def test_fresh_keys_are_above_every_key_in_x(
        self, tpch_tables, table, key, name
    ):
        sampler, _ = _SAMPLERS[table]
        batch = sampler.batch(random.Random(1), tpch_tables, 2000)
        top = max(row[key] for row in tpch_tables[table])
        keys = batch.column(key)
        assert top < keys.min() and keys.max() <= top + 1000
        assert len(set(keys.tolist())) > 800  # spread over the 1000 slots
        if name is not None:
            column, pattern = name
            assert batch.column(column) == [
                pattern.format(k) for k in keys.tolist()
            ]

    def test_remaining_column_supports(self, tpch_tables, ml_tables):
        n = 2000
        rng = random.Random(1)

        def top(table, column):
            return max(row[column] for row in tpch_tables[table])

        orders = samplers.random_order.batch(rng, tpch_tables, n)
        custkeys = orders.column("o_custkey")
        assert 1 <= custkeys.min()
        assert custkeys.max() <= top("customer", "c_custkey")
        assert set(orders.column("o_orderstatus")) == {"F", "O", "P"}
        assert set(orders.column("o_orderpriority")) == set(PRIORITIES)
        dates = orders.column("o_orderdate")
        assert datetime.date(1992, 1, 1) <= min(dates)
        assert max(dates) <= datetime.date(1998, 12, 31)
        special = [c for c in orders.column("o_comment") if "special" in c]
        assert 0.10 < len(special) / n < 0.20
        assert len(set(orders.column("o_comment"))) == 2

        customers = samplers.random_customer.batch(rng, tpch_tables, n)
        assert set(customers.column("c_nationkey").tolist()) == set(
            range(len(NATION_NAMES))
        )
        assert set(customers.column("c_mktsegment")) == {"BUILDING"}

        parts = samplers.random_part.batch(rng, tpch_tables, n)
        assert set(parts.column("p_size").tolist()) == set(range(1, 51))
        assert set(parts.column("p_brand")) == {
            f"Brand#{a}{b}" for a in range(1, 6) for b in range(1, 6)
        }
        assert set(parts.column("p_type")) == {"STANDARD ANODIZED TIN"}

        partsupp = samplers.random_partsupp.batch(rng, tpch_tables, n)
        for key, table, column in (("ps_partkey", "part", "p_partkey"),
                                   ("ps_suppkey", "supplier", "s_suppkey")):
            keys = partsupp.column(key)
            assert 1 <= keys.min() and keys.max() <= top(table, column)
        qty = partsupp.column("ps_availqty")
        assert 1 <= qty.min() and qty.max() <= 9999
        cost = partsupp.column("ps_supplycost")
        assert 1.0 <= cost.min() and cost.max() <= 1000.0
        assert np.array_equal(cost, np.round(cost, 2))

        suppliers = samplers.random_supplier.batch(rng, tpch_tables, n)
        assert set(suppliers.column("s_nationkey").tolist()) == set(
            range(len(NATION_NAMES))
        )
        balance = suppliers.column("s_acctbal")
        assert -999.99 <= balance.min() and balance.max() <= 9999.99
        complaints = [
            c for c in suppliers.column("s_comment") if "Complaints" in c
        ]
        assert 0.02 < len(complaints) / n < 0.09

        points = domain_point.batch(rng, _ML_CONFIG, n)
        features = points.column("features")
        assert features.shape == (n, _ML_CONFIG.dim)
        assert -13.0 <= features.min() and features.max() <= 13.0
        labels = points.column("label")
        assert -40.0 <= labels.min() and labels.max() <= 40.0

    def test_dates_box_like_fromordinal(self):
        # Every day the TPC-H samplers can draw: orders from 1992-01-01
        # for 2557 days, lineitem dates up to 150 days after an order.
        first = datetime.date(1992, 1, 1).toordinal()
        ordinals = np.arange(first - 400, first + 2557 + 400, dtype=np.int64)
        dates = samplers._dates(ordinals)
        assert dates == list(map(datetime.date.fromordinal, ordinals.tolist()))
        assert all(type(d) is datetime.date for d in dates)

    def test_columns_are_uniform(self, tpch_tables):
        # Fixed seeds: these p-values are constants, not flaky draws.
        stats = pytest.importorskip("scipy.stats")
        lineitems = samplers.random_lineitem.batch(
            random.Random(8), tpch_tables, 5000
        )
        counts = np.bincount(
            lineitems.column("l_quantity").astype(int), minlength=51
        )[1:]
        assert stats.chisquare(counts).pvalue > 0.01
        labels = domain_point.batch(random.Random(8), _ML_CONFIG, 5000)
        assert stats.kstest(
            labels.column("label"), "uniform", args=(-40.0, 80.0)
        ).pvalue > 0.01

    def test_empty_batch(self, sampler_case):
        sampler, context, table = sampler_case
        batch = sampler.batch(random.Random(0), context, 0)
        assert len(batch) == 0 and list(batch) == []
        assert set(batch.names) == set(table[0])

    @pytest.mark.parametrize("name", ["tpch6", "tpch13", "kmeans"])
    def test_no_addition_neighbours(self, name):
        workload = workload_by_name(name)
        tables = workload.make_tables(400, 11)
        result = exact_local_sensitivity(
            workload.query, tables, addition_samples=0, max_removals=20
        )
        assert result.addition_outputs.shape == (0, workload.query.output_dim)

    def test_per_record_samplers_take_the_default_loop(self):
        # A query that only has sample_domain_record ...
        tables = _tables(300)
        sample = partition_and_sample(
            _IdentityQuery(), tables, 25, random.Random(4)
        )
        assert isinstance(sample.domain_samples, list)
        assert len(sample.domain_samples) == 25
        result = UPASession(UPAConfig(sample_size=25, seed=4)).run(
            _IdentityQuery(), tables, epsilon=0.5
        )
        assert result.addition_outputs.shape == (25, 1)
        # ... and a lambda handed to run_sql.
        calls = []

        def sampler(rng, _tables):
            calls.append(1)
            return {"v": float(rng.randrange(10_000, 20_000))}

        result = UPASession(UPAConfig(sample_size=25, seed=4)).run_sql(
            "SELECT SUM(v) AS s FROM vals", tables, "vals", epsilon=0.5,
            domain_sampler=sampler,
        )
        assert len(calls) == 25
        assert result.addition_outputs.min() >= result.plain_output[0] + 10_000

    def test_fresh_keys_follow_append_and_retire(self, monkeypatch):
        """max_key was memoised by (id(rows), len(rows)): after append(k)
        and retire(k) the table has its old length and a new maximum."""
        samples = []
        real = session_mod.partition_and_sample

        def spy(*args, **kwargs):
            samples.append(real(*args, **kwargs))
            return samples[-1]

        monkeypatch.setattr(session_mod, "partition_and_sample", spy)
        workload = workload_by_name("tpch4")
        tables = workload.make_tables(4000, 11)
        orders = tables["orders"]
        held = orders[-50:]
        del orders[-50:]
        assert max(o["o_orderkey"] for o in held) > max(
            o["o_orderkey"] for o in orders
        )
        session = UPASession(UPAConfig(sample_size=500, seed=77))
        steps = (
            lambda: session.run(workload.query, tables, epsilon=0.5),
            lambda: session.append(held, epsilon=0.5),
            lambda: session.retire(50, epsilon=0.5),
        )
        for step in steps:
            try:
                step()
            except DPError as exc:  # S-bar is drawn before enforcement
                assert "RANGE ENFORCER" in str(exc)
            in_x = {o["o_orderkey"] for o in orders}
            fresh = samples[-1].domain_samples.column("o_orderkey").tolist()
            assert len(fresh) == 500 and not in_x & set(fresh)
        assert len(samples) == 3


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

    def test_extrapolation_widens_with_population(self):
        rng = np.random.default_rng(1)
        outputs = rng.normal(0.0, 1.0, size=(500, 1))
        small = infer_output_range(outputs, 1_000)
        large = infer_output_range(outputs, 1_000_000)
        assert large.local_sensitivity > small.local_sensitivity
        # the larger population's tail lies past every sampled output
        assert large.upper[0] > outputs.max()

    def test_paper_percentiles_without_extrapolation(self):
        # 40 sampled outputs of a population of 10: the extrapolated
        # level 1/80 is capped at the paper's 1st/99th percentiles.
        outputs = np.random.default_rng(2).normal(0.0, 1.0, size=(40, 1))
        inferred = infer_output_range(outputs, 10)
        spread = ndtri(0.99) * outputs.std(axis=0)
        mean = outputs.mean(axis=0)
        assert inferred.lower.tobytes() == np.minimum(
            mean - spread, outputs.min(axis=0)
        ).tobytes()
        assert inferred.upper.tobytes() == np.maximum(
            mean + spread, outputs.max(axis=0)
        ).tobytes()
        # 1st..99th percentile of a standard normal ~ +-2.326.
        assert inferred.local_sensitivity == pytest.approx(4.65, rel=0.25)

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

    def test_tail_quantile_is_norm_ppf_bit_for_bit(self):
        """``ndtri`` replaced ``stats.norm.ppf``: same bits at every
        level a release can ask for."""
        stats = pytest.importorskip("scipy.stats")
        levels = {MAX_TAIL_LEVEL} | {p / 100.0 for p in (0.5, 2.5, 5.0)}
        levels |= {1.0 / (2.0 * population) for population in
                   (2, 3, 10, 999, 8_000, 10_000, 20_001, 10**6, 10**9)}
        for level in sorted(levels):
            assert np.float64(ndtri(1.0 - level)).tobytes() == np.float64(
                stats.norm.ppf(1.0 - level)
            ).tobytes(), level
        outputs = np.random.default_rng(7).normal(3.0, 2.0, size=(400, 2))
        inferred = infer_output_range(outputs, 12_345)
        z = stats.norm.ppf(1.0 - 1.0 / (2.0 * 12_345))
        tail = outputs.mean(axis=0) + z * outputs.std(axis=0)
        assert (tail > outputs.max(axis=0)).all()  # the envelope is slack
        assert inferred.upper.tobytes() == tail.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(DPError):
            infer_output_range(np.empty((0, 1)), 100)


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
        # 1 000 distinct deltas (no fallback) whose normal tail at
        # 10 000 neighbours (~126) falls far short of the outlier
        outputs = np.arange(1000.0)[:, None] / 1000.0
        outputs[-1] = 1000.0
        est = infer_local_sensitivity(outputs, np.array([0.0]), 10_000)
        deltas = outputs[:, 0]
        tail = deltas.mean() + ndtri(1.0 - 1.0 / 20_000) * deltas.std()
        assert tail < 1000.0
        assert est == 1000.0

    def test_vector_deltas_use_l1(self):
        center = np.zeros(2)
        outputs = np.array([[3.0, 4.0]] * 20)
        est = infer_local_sensitivity(outputs, center, 100)
        assert est == pytest.approx(7.0)
