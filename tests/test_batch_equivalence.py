"""Batched monoid protocol: equivalence with the scalar monoid.

The batched kernels (``map_batch`` / ``prefix_suffix_batch`` /
``combine_batch`` / ``finalize_batch`` / ``fold_batch``) are a pure
performance overlay — every value they produce must match what the
scalar monoid methods produce, element for element.  These tests check
that property for all nine shipped workloads (7 TPC-H + KMeans +
Linear Regression) plus a sqlbridge-compiled query, across batch sizes
including the empty batch, and then compare two full UPA sessions — one
batched, one forced through the scalar defaults — end to end.

Phase 2 maps and folds S' through the same kernels, one call per engine
slice (cold) or per cached block (``append``/``retire``), so the file
also pins what that rests on: ``map_batch`` is row-stable, the
structural helpers round-trip, an empty slice folds to ``zero()``, and
every slice's partial aggregate equals the scalar fold of its records
bit for bit.  ``TestValidateMonoid`` hands ``validate_monoid`` queries
that each break one thing the reuse of mapped elements rests on.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DPError, QueryShapeError
from repro.core import session as session_mod
from repro.core.batch import column_values
from repro.core.grouped import GroupSliceQuery
from repro.core.query import BATCH_METHODS, MapReduceQuery, Tables
from repro.core.sampling import partition_and_sample
from repro.core.session import UPAConfig, UPASession
from repro.core.sqlbridge import compile_sql
from repro.core.table import TableReads
from repro.dp import PrivacyAccountant
from repro.engine.metrics import MetricsRegistry
from repro.mining import (
    KMeansQuery,
    LifeScienceConfig,
    LinearRegressionQuery,
    make_life_science_tables,
)
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.tpch.queries import base as samplers
from repro.tpch.workload import all_queries as tpch_queries
from repro.workloads import all_workloads, workload_by_name

BATCH_SIZES = (0, 1, 17, 256)


@pytest.fixture(scope="module")
def big_tpch_tables() -> Tables:
    """TPC-H tables large enough for 256-record batches."""
    return TPCHGenerator(TPCHConfig(scale_rows=900, seed=3)).generate()


@pytest.fixture(scope="module")
def big_ml_tables() -> Tables:
    return make_life_science_tables(
        LifeScienceConfig(num_records=300, dim=4, num_clusters=3, seed=7)
    )


def _all_queries(tpch_tables: Tables, ml_tables: Tables
                 ) -> List[Tuple[MapReduceQuery, Tables]]:
    pairs: List[Tuple[MapReduceQuery, Tables]] = [
        (q, tpch_tables) for q in tpch_queries()
    ]
    pairs.append((KMeansQuery(num_clusters=3, dim=4), ml_tables))
    pairs.append((LinearRegressionQuery(dim=4), ml_tables))
    return pairs


def scalarized(query: MapReduceQuery) -> MapReduceQuery:
    """A copy of ``query`` forced through the scalar batch defaults."""
    cls = type(query)
    scalar_cls = type(
        f"Scalarized{cls.__name__}",
        (cls,),
        {name: getattr(MapReduceQuery, name) for name in BATCH_METHODS},
    )
    clone = object.__new__(scalar_cls)
    clone.__dict__.update(query.__dict__)
    return clone


def _reference_loo(query: MapReduceQuery, records, aux) -> np.ndarray:
    """finalize(zero + fold(all-but-i)) through the scalar monoid only."""
    mapped = [query.map_record(r, aux) for r in records]
    rows = []
    for i in range(len(mapped)):
        agg = query.zero()
        for j, m in enumerate(mapped):
            if j != i:
                agg = query.combine(agg, m)
        rows.append(query.finalize(query.combine(query.zero(), agg), aux))
    if not rows:
        return np.empty((0, query.output_dim))
    return np.vstack(rows)


class TestKernelEquivalence:
    """Batched kernels vs literal scalar folds, per workload and size."""

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_all_workloads_loo_and_fold_match_scalar(
        self, big_tpch_tables, big_ml_tables, n
    ):
        for query, tables in _all_queries(big_tpch_tables, big_ml_tables):
            records = tables[query.protected_table][:n]
            aux = query.build_aux(tables)
            batch = query.map_batch(records, aux)
            assert query.batch_length(batch) == len(records), query.name

            # Leave-one-out pipeline (what removal neighbours use).
            loo = query.finalize_batch(
                query.combine_batch(
                    query.zero(), query.prefix_suffix_batch(batch)
                ),
                aux,
            )
            loo = np.asarray(loo, dtype=float)
            reference = _reference_loo(query, records, aux)
            assert loo.shape == (len(records), query.output_dim), query.name
            np.testing.assert_allclose(
                loo, reference, rtol=1e-9, atol=1e-12,
                err_msg=f"{query.name} loo mismatch at n={len(records)}",
            )

            # Full fold (what the final aggregate uses).
            folded = query.finalize(query.fold_batch(batch), aux)
            scalar_fold = query.finalize(
                query.fold(query.map_record(r, aux) for r in records), aux
            )
            np.testing.assert_allclose(
                np.asarray(folded, dtype=float),
                np.asarray(scalar_fold, dtype=float),
                rtol=1e-9, atol=1e-12,
                err_msg=f"{query.name} fold mismatch at n={len(records)}",
            )

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_combine_batch_with_nonzero_aggregate(
        self, big_tpch_tables, big_ml_tables, n
    ):
        """Addition neighbours: finalize(combine(f_x_agg, m)) per record."""
        for query, tables in _all_queries(big_tpch_tables, big_ml_tables):
            records = tables[query.protected_table][:n]
            base_records = tables[query.protected_table][n:n + 50]
            aux = query.build_aux(tables)
            agg = query.fold(query.map_record(r, aux) for r in base_records)
            batch = query.map_batch(records, aux)
            batched = np.asarray(
                query.finalize_batch(query.combine_batch(agg, batch), aux),
                dtype=float,
            )
            reference_rows = [
                query.finalize(
                    query.combine(agg, query.map_record(r, aux)), aux
                )
                for r in records
            ]
            reference = (
                np.vstack(reference_rows)
                if reference_rows
                else np.empty((0, query.output_dim))
            )
            np.testing.assert_allclose(
                batched, reference, rtol=1e-9, atol=1e-12,
                err_msg=f"{query.name} combine mismatch at n={len(records)}",
            )

    def test_empty_batch_shapes(self, big_tpch_tables, big_ml_tables):
        for query, tables in _all_queries(big_tpch_tables, big_ml_tables):
            aux = query.build_aux(tables)
            batch = query.map_batch([], aux)
            assert query.batch_length(batch) == 0, query.name
            out = query.finalize_batch(
                query.combine_batch(
                    query.zero(), query.prefix_suffix_batch(batch)
                ),
                aux,
            )
            assert np.asarray(out).shape == (0, query.output_dim), query.name
            # The empty fold is the monoid identity, bit for bit, and
            # stays it when a task's zero is combined in front.
            folded = query.fold_batch(batch)
            assert _bits(folded) == _bits(query.zero()), query.name
            assert _bits(query.combine(query.zero(), folded)) == _bits(
                query.zero()
            ), query.name

    def test_validate_monoid_cross_checks_batch_kernels(
        self, big_tpch_tables, big_ml_tables
    ):
        """validate_monoid now exercises the batched kernels too."""
        for query, tables in _all_queries(big_tpch_tables, big_ml_tables):
            query.validate_monoid(tables)

    def test_validate_monoid_rejects_broken_batch_kernel(
        self, big_tpch_tables
    ):
        from repro.tpch import query_by_name

        broken_cls = type(
            "BrokenBatch",
            (type(query_by_name("tpch1")),),
            {
                "prefix_suffix_batch":
                    lambda self, elements:
                        np.asarray(elements, dtype=float) * 2.0,
            },
        )
        broken = broken_cls()
        with pytest.raises(QueryShapeError):
            broken.validate_monoid(big_tpch_tables)

    def test_sqlbridge_compiled_query_batches(self, big_tpch_tables):
        query = compile_sql(
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_discount >= 0.02",
            big_tpch_tables,
            "lineitem",
        )
        records = big_tpch_tables["lineitem"][:64]
        aux = query.build_aux(big_tpch_tables)
        batch = query.map_batch(records, aux)
        loo = query.finalize_batch(
            query.combine_batch(
                query.zero(), query.prefix_suffix_batch(batch)
            ),
            aux,
        )
        np.testing.assert_allclose(
            np.asarray(loo, dtype=float),
            _reference_loo(query, records, aux),
            rtol=1e-9,
        )


class TestSessionEquivalence:
    """Full pipeline: batched session vs scalar-forced session."""

    CONFIG = dict(sample_size=40, seed=123)

    def _run_pair(self, query, tables):
        batched = UPASession(UPAConfig(**self.CONFIG)).run(
            query, tables, epsilon=0.5
        )
        scalar = UPASession(UPAConfig(**self.CONFIG)).run(
            scalarized(query), tables, epsilon=0.5
        )
        return batched, scalar

    @pytest.mark.parametrize("name", ["tpch1", "tpch6"])
    def test_sum_workloads_bitwise_identical(self, name, tpch_tables):
        from repro.tpch import query_by_name

        batched, scalar = self._run_pair(query_by_name(name), tpch_tables)
        assert np.array_equal(batched.noisy_output, scalar.noisy_output)
        assert np.array_equal(batched.removal_outputs, scalar.removal_outputs)
        assert np.array_equal(
            batched.addition_outputs, scalar.addition_outputs
        )
        assert batched.local_sensitivity == scalar.local_sensitivity
        assert np.array_equal(
            batched.partition_outputs[0], scalar.partition_outputs[0]
        )
        assert np.array_equal(
            batched.partition_outputs[1], scalar.partition_outputs[1]
        )

    def test_ml_workloads_allclose(self, ml_tables):
        for query in (
            KMeansQuery(num_clusters=2, dim=3),
            LinearRegressionQuery(dim=3),
        ):
            batched, scalar = self._run_pair(query, ml_tables)
            np.testing.assert_allclose(
                batched.noisy_output, scalar.noisy_output, rtol=1e-9,
                err_msg=query.name,
            )
            np.testing.assert_allclose(
                batched.removal_outputs, scalar.removal_outputs, rtol=1e-9,
                atol=1e-12, err_msg=query.name,
            )
            np.testing.assert_allclose(
                batched.addition_outputs, scalar.addition_outputs, rtol=1e-9,
                atol=1e-12, err_msg=query.name,
            )
            assert batched.local_sensitivity == pytest.approx(
                scalar.local_sensitivity, rel=1e-9
            )

    def test_tiny_dataset_smaller_than_sample(self):
        """n is lowered to |x|; removal pipeline sees a 3-element batch."""
        from repro.tpch import query_by_name

        query = query_by_name("tpch6")
        tables = TPCHGenerator(TPCHConfig(scale_rows=100, seed=1)).generate()
        tables["lineitem"] = tables["lineitem"][:3]
        result = UPASession(UPAConfig(sample_size=40, seed=9)).run(
            query, tables, epsilon=0.5
        )
        assert result.sample_size == 3
        assert result.removal_outputs.shape == (3, 1)


def _compiled_join(tables: Tables) -> MapReduceQuery:
    """A sqlbridge query with a one-to-many join and a float SUM."""
    return compile_sql(
        "SELECT SUM(o_orderkey * 0.1) AS s FROM customer, orders "
        "WHERE c_custkey = o_custkey AND o_orderstatus <> 'P'",
        tables, "customer", domain_sampler=samplers.random_customer,
    )


def _bits(value: Any) -> Any:
    """A monoid element/aggregate as comparable bytes (tuples per slot)."""
    if isinstance(value, tuple):
        return tuple(_bits(slot) for slot in value)
    array = np.asarray(value, dtype=float)
    return (array.shape, array.tobytes())


class TestRowStability:
    """Element i of ``map_batch`` depends on record i alone, bit for bit."""

    def _queries(self, tpch_tables, ml_tables):
        pairs = _all_queries(tpch_tables, ml_tables)
        # Non-zero weights: the dot product is no longer 0 * x, so a
        # shape-dependent BLAS blocking would show.
        weights = np.random.default_rng(5).normal(size=5)
        pairs.append(
            (LinearRegressionQuery(dim=4, initial_weights=weights), ml_tables)
        )
        # A compiled plan: each customer's orders are summed by
        # np.bincount, whose slots must not feel their neighbours.
        pairs.append((_compiled_join(tpch_tables), tpch_tables))
        return pairs

    def test_element_does_not_depend_on_batch(
        self, big_tpch_tables, big_ml_tables
    ):
        for query, tables in self._queries(big_tpch_tables, big_ml_tables):
            records = tables[query.protected_table][:300]
            aux = query.build_aux(tables)
            whole = list(query.iter_batch(query.map_batch(records, aux)))
            for cut in (1, 7, 64):
                pieces = [
                    element
                    for lo in range(0, len(records), cut)
                    for element in query.iter_batch(
                        query.map_batch(records[lo:lo + cut], aux)
                    )
                ]
                assert [_bits(e) for e in pieces] == [
                    _bits(e) for e in whole
                ], (query.name, cut)
            query.validate_monoid(tables)

    def test_validate_monoid_rejects_row_unstable_kernel(
        self, big_ml_tables
    ):
        class GemvRegression(LinearRegressionQuery):
            """map_batch whose elements feel the size of their batch."""

            def map_batch(self, records, aux):
                gradients, counts = super().map_batch(records, aux)
                return (gradients * (1.0 + 1e-15 * len(records)), counts)

        weights = np.random.default_rng(5).normal(size=5)
        query = GemvRegression(dim=4, initial_weights=weights)
        with pytest.raises(QueryShapeError, match="row-stable"):
            query.validate_monoid(big_ml_tables)


class _ListQuery(MapReduceQuery):
    """Generic-list layout: no batch kernel overridden, int elements."""

    name = "ints"
    protected_table = "t"

    def map_record(self, record, aux):
        return record["v"]

    def zero(self):
        return 0

    def combine(self, a, b):
        return a + b

    def finalize(self, agg, aux):
        return np.asarray([float(agg)])


def _make_batch(layout: str, values: List[int]) -> Any:
    """``values`` as a batch in one of the three canonical layouts."""
    if layout == "list":
        return list(values)
    array = np.asarray(values, dtype=float)
    if layout == "array":
        return array
    return (array, np.stack([array, -array], axis=1).reshape(-1, 2, 1))


class TestBatchStructure:
    """batch_concat / batch_select / slicing round-trip in every layout."""

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["list", "array", "tuple"]),
        lengths=st.lists(st.integers(0, 6), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_concat_select_round_trip(self, layout, lengths, data):
        query = _ListQuery()
        values = list(range(sum(lengths)))
        parts, start = [], 0
        for length in lengths:
            parts.append(_make_batch(layout, values[start:start + length]))
            start += length
        whole = query.batch_concat(parts)
        assert query.batch_length(whole) == len(values)
        expected = [_bits(e) for e in
                    query.iter_batch(_make_batch(layout, values))]
        assert [_bits(e) for e in query.iter_batch(whole)] == expected
        lo = data.draw(st.integers(0, len(values)))
        hi = data.draw(st.integers(lo, len(values)))
        for indices in (range(lo, hi), np.arange(lo, hi)):
            piece = query.batch_select(whole, indices)
            assert query.batch_length(piece) == hi - lo
            assert [_bits(e) for e in query.iter_batch(piece)] \
                == expected[lo:hi]
        # Cutting at the part boundaries gives the parts back.
        start = 0
        for part, length in zip(parts, lengths):
            piece = query.batch_select(whole, range(start, start + length))
            assert [_bits(e) for e in query.iter_batch(piece)] == [
                _bits(e) for e in query.iter_batch(part)
            ]
            start += length

    @pytest.mark.parametrize("layout", ["list", "array", "tuple"])
    def test_concat_of_one_part_is_the_part(self, layout):
        part = _make_batch(layout, [3, 1, 2])
        assert _ListQuery().batch_concat([part]) is part


class TestZeroCombinedInFront:
    """A task's ``zero (+) fold_batch(slice)`` is the slice's scalar fold."""

    def test_negative_zero_and_int_counts_fold_like_the_scalar_path(self):
        from repro.tpch import query_by_name

        scalar_sum = query_by_name("tpch6")
        for elements in ([-0.0], [-0.0, -0.0], [-0.0, 2.5], [0.0, -0.0]):
            batch = np.asarray(elements, dtype=float)
            assert _bits(
                scalar_sum.combine(scalar_sum.zero(),
                                   scalar_sum.fold_batch(batch))
            ) == _bits(scalar_sum.fold(elements)), elements
        generic = _ListQuery()
        assert generic.fold_batch(generic.map_batch([], None)) == 0
        partial = generic.combine(generic.zero(), generic.fold_batch([2, 3]))
        assert partial == 5 and isinstance(partial, int)
        linreg = LinearRegressionQuery(dim=2)
        mapped = [
            (np.asarray([-0.0, 1.0, -0.0]), 1),
            (np.asarray([-0.0, 2.0, 0.0]), 1),
        ]
        batch = linreg.batch_stack(mapped)
        assert _bits(
            linreg.combine(linreg.zero(), linreg.fold_batch(batch))
        ) == _bits(linreg.fold(mapped))


def _spy_phase2(monkeypatch):
    """Record, per release, what phase 2 mapped and what its tasks returned.

    Each entry is ``(query, aux, sample, incremental, jobs, remaining)``
    where ``jobs`` holds the scheduler's per-slice results of the two
    S' jobs, in partition order, and ``remaining`` the rows of S' per
    partition.
    """
    captured: list = []
    reduce_phase = session_mod.reduce_phase

    def spy(query, aux, sample, rng, *, engine, premapped=None, **kwargs):
        scheduler = engine.scheduler
        run_job = scheduler.run_job
        jobs: list = []

        def recording(rdd, func, partitions=None):
            results = run_job(rdd, func, partitions)
            jobs.append(results)
            return results

        scheduler.run_job = recording
        try:
            out = reduce_phase(query, aux, sample, rng, engine=engine,
                               premapped=premapped, **kwargs)
        finally:
            del scheduler.run_job
        # ``remaining`` are views of the live table, which the next
        # append()/retire() mutates: take the rows within the release.
        captured.append((
            query, aux, sample, premapped is not None, jobs,
            [list(part) for part in sample.remaining],
        ))
        return out

    monkeypatch.setattr(session_mod, "reduce_phase", spy)
    return captured


def _assert_slices_match_scalar_fold(entry, parts: int) -> None:
    """Every slice's partial == fold(map_record(r) for r in slice), bitwise."""
    query, aux, _sample, _incremental, jobs, remaining = entry
    assert len(jobs) == 2, query.name
    for records, partials in zip(remaining, jobs):
        assert len(partials) == parts
        total = len(records)
        for k, partial in enumerate(partials):
            piece = records[k * total // parts:(k + 1) * total // parts]
            reference = query.fold(query.map_record(r, aux) for r in piece)
            assert _bits(partial) == _bits(reference), (query.name, k)


def _release(step) -> None:
    """Run one release; RANGE ENFORCER may dead-end on tiny tables.

    Phase 2 has run (and been recorded) by then, and the incremental
    state is already refreshed, so the sequence goes on.
    """
    try:
        step()
    except DPError as exc:
        assert "RANGE ENFORCER" in str(exc)


class TestSlicedPhase2:
    """R(M(S')) one task per engine slice == the per-record fold, bitwise."""

    #: engine slice counts: one task, an uneven split, more slices.
    PARTS = (1, 3, 5)

    @pytest.mark.parametrize("parts", PARTS)
    @pytest.mark.parametrize("name", [w.name for w in all_workloads()])
    def test_cold_append_retire_slices_bitwise(self, monkeypatch, name,
                                               parts):
        captured = _spy_phase2(monkeypatch)
        workload = workload_by_name(name)
        tables = workload.make_tables(1200, 11)
        protected = workload.query.protected_table
        rows = tables[protected]
        held = max(4, len(rows) // 8)
        tables[protected] = list(rows[:-held])
        session = UPASession(
            UPAConfig(sample_size=12, seed=77, engine_partitions=parts),
        )
        _release(lambda: session.run(workload.query, tables))
        _release(lambda: session.append(rows[-held:-held // 2]))
        _release(lambda: session.append(rows[-held // 2:]))
        metrics = session.engine.metrics
        mark = metrics.mark()
        _release(lambda: session.retire(20))
        assert [entry[3] for entry in captured] == [False, True, True, True]
        for entry in captured:
            _assert_slices_match_scalar_fold(entry, parts)
        # the retire's incremental phase, counted even if refused
        counted = metrics.since(mark)
        mapped = counted.get(MetricsRegistry.INCR_RECORDS_MAPPED)
        reused = counted.get(MetricsRegistry.INCR_RECORDS_REUSED)
        assert mapped + reused == len(tables[protected])
        reads = TableReads(tables)
        workload.query.build_aux(reads)
        if protected in reads.names:  # kmeans: aux moves with the rows
            assert reused == 0
        else:
            assert mapped == 0  # retire maps nothing

    @pytest.mark.parametrize("parts", PARTS)
    def test_compiled_sql_slices_bitwise(self, monkeypatch, parts):
        """A sqlbridge query through the same four steps."""
        captured = _spy_phase2(monkeypatch)
        tables = workload_by_name("tpch13").make_tables(2400, 11)
        rows = tables["customer"]
        held = max(4, len(rows) // 8)
        tables["customer"] = list(rows[:-held])
        query = _compiled_join(tables)
        session = UPASession(
            UPAConfig(sample_size=12, seed=77, engine_partitions=parts),
        )
        _release(lambda: session.run(query, tables))
        _release(lambda: session.append(rows[-held:-held // 2]))
        _release(lambda: session.append(rows[-held // 2:]))
        _release(lambda: session.retire(20))
        assert [entry[3] for entry in captured] == [False, True, True, True]
        for entry in captured:
            _assert_slices_match_scalar_fold(entry, parts)


def _release_queries(tables, ml_tables):
    """The nine workloads, a compiled SQL query and a group slice."""
    pairs = [(w.query, tables if w.query.protected_table in tables
              else ml_tables) for w in all_workloads()]
    pairs.append((
        compile_sql(
            "SELECT SUM(l_quantity) FROM lineitem "
            "WHERE l_discount >= 0.02",
            tables, "lineitem",
            domain_sampler=samplers.random_lineitem,
        ),
        tables,
    ))
    pairs.append((
        GroupSliceQuery(
            "by_flag", "lineitem", "R",
            lambda r: r["l_returnflag"], None, samplers.random_lineitem,
        ),
        tables,
    ))
    return pairs


class TestEmptyAndShortSPrime:
    """|x| <= n leaves S' empty; few records leave some slices empty."""

    @pytest.mark.parametrize("parts", [1, 2, 3, 5])
    @pytest.mark.parametrize("spare", [0, 3])
    def test_slices_and_outputs(
        self, monkeypatch, big_tpch_tables, big_ml_tables, parts, spare
    ):
        captured = _spy_phase2(monkeypatch)
        sample_size = 25
        for query, source in _release_queries(big_tpch_tables, big_ml_tables):
            tables = dict(source)
            tables[query.protected_table] = source[query.protected_table][
                :sample_size + spare
            ]
            size = len(tables[query.protected_table])
            result = UPASession(UPAConfig(
                sample_size=sample_size, seed=9, engine_partitions=parts,
            )).run(query, tables, epsilon=0.5)
            entry = captured[-1]
            assert sum(map(len, entry[5])) == (
                spare if size > sample_size else 0
            )
            _assert_slices_match_scalar_fold(entry, parts)
            if not spare:
                # f(x) is then the fold of S alone: 0 (+) 0 (+) fold(S).
                aux = query.build_aux(tables)
                assert result.sample_size == size
                assert _bits(result.plain_output) == _bits(query.finalize(
                    query.combine(
                        query.combine(query.zero(), query.zero()),
                        query.fold_batch(
                            query.map_batch(entry[2].sampled, aux)
                        ),
                    ),
                    aux,
                )), query.name
            assert result.removal_outputs.shape == (
                result.sample_size, query.output_dim
            )


class TestViewsMapLikeRows:
    """Phase 2 maps ``RecordView``s: same bits as mapping their rows."""

    def test_map_batch_of_a_view_is_map_batch_of_its_rows(
        self, big_tpch_tables, big_ml_tables
    ):
        for query, tables in _release_queries(big_tpch_tables, big_ml_tables):
            sample = partition_and_sample(
                query, tables, 40, random.Random(8)
            )
            aux = query.build_aux(tables)
            views = (
                sample.sampled, sample.remaining[0],
                sample.remaining[1][5:90], sample.sampled[3:3],
            )
            for view in views:
                mapped = query.map_batch(view, aux)
                rows = query.map_batch(list(view), aux)
                assert query.batch_length(mapped) == len(view)
                assert [_bits(e) for e in query.iter_batch(mapped)] == [
                    _bits(e) for e in query.iter_batch(rows)
                ], query.name
                assert _bits(query.fold_batch(mapped)) == _bits(
                    query.fold_batch(rows)
                ), query.name

    @pytest.mark.parametrize("name", ["kmeans", "linreg"])
    def test_append_keeps_the_buffers(self, monkeypatch, name):
        """Only the appended rows are hashed; the table's buffers grow
        by theirs, so S reads ``features`` from the (n, d) buffer as on
        a cold run: same bits as the row gather."""
        samples = []
        real = session_mod.partition_and_sample

        def spy(*args, **kwargs):
            samples.append(real(*args, **kwargs))
            return samples[-1]

        monkeypatch.setattr(session_mod, "partition_and_sample", spy)
        workload = workload_by_name(name)
        rows = workload.make_tables(900, 11)["points"]
        config = UPAConfig(sample_size=60, seed=5)
        grown = UPASession(config)
        grown.run(workload.query, {"points": list(rows[:800])}, epsilon=0.5)
        appended = grown.append(rows[800:], epsilon=0.5)
        cold = UPASession(config)
        cold.run(workload.query, {"points": list(rows[:800])}, epsilon=0.5)
        rerun = cold.run(workload.query, {"points": list(rows)}, epsilon=0.5)
        assert [sorted(sample.buffers) for sample in samples] == [
            ["features", "label"]
        ] * 4
        assert samples[1].table is samples[0].table
        for column in ("features", "label"):
            assert _bits(samples[1].sampled.numpy_column(column)) == _bits(
                column_values(list(samples[1].sampled), column)
            )
            assert _bits(samples[1].buffers[column]) == _bits(
                samples[3].buffers[column]
            )
        for field in ("noisy_output", "plain_output", "removal_outputs",
                      "addition_outputs", "partition_outputs"):
            assert _bits(getattr(appended, field)) == _bits(
                getattr(rerun, field)
            ), field


class _CountQuery(MapReduceQuery):
    """A well-behaved count over ``t``; each fixture below breaks one
    thing a release assumes of it."""

    name = "count"
    protected_table = "t"
    output_dim = 1

    def map_record(self, record, aux):
        return 1.0

    def zero(self):
        return 0.0

    def combine(self, a, b):
        return a + b

    def finalize(self, agg, aux):
        return np.asarray([float(agg)], dtype=float)

    def sample_domain_record(self, rng, tables):
        return {"v": float(rng.randrange(10))}


class _RandomMapper(_CountQuery):
    refusal = "map_record is not deterministic"

    def map_record(self, record, aux):
        return random.random()


#: the captured state ``_CapturedStateMapper`` mutates.
_SEEN: list = []


class _CapturedStateMapper(_CountQuery):
    refusal = "map_record is not deterministic"

    def map_record(self, record, aux):
        _SEEN.append(record)
        return float(len(_SEEN))


#: the captured dict ``_CapturedDictMapper`` writes into.
_COUNTS: dict = {}


class _CapturedDictMapper(_CountQuery):
    refusal = "map_record is not deterministic"

    def map_record(self, record, aux):
        key = record["v"]
        _COUNTS[key] = _COUNTS.get(key, 0) + 1
        return float(_COUNTS[key])


class _MutableDefaultMapper(_CountQuery):
    refusal = "map_record is not deterministic"

    def map_record(self, record, aux, _seen=[]):  # noqa: B006
        _seen.append(record)
        return float(len(_seen))


class _WritesRightOperand(_CountQuery):
    refusal = "combine wrote into its right argument"

    def map_record(self, record, aux):
        return [1.0]

    def zero(self):
        return [0.0]

    def combine(self, a, b):
        b.extend(a)
        return b

    def finalize(self, agg, aux):
        return np.asarray([float(sum(agg))], dtype=float)


class _NonCommutative(_CountQuery):
    refusal = "not commutative"

    def map_record(self, record, aux):
        return float(record["v"])

    def combine(self, a, b):
        return 2.0 * a + b


class _ArrayBatches(_CountQuery):
    """Batch kernels with their scalar partners, on float arrays."""

    def map_batch(self, records, aux):
        return np.ones(len(records), dtype=float)


class _NoisyMapBatch(_ArrayBatches):
    refusal = "map_batch is not deterministic"

    def map_batch(self, records, aux):
        return np.full(len(records), random.random())


class _FoldsInPlace(_ArrayBatches):
    refusal = "fold_batch wrote into the batch"

    def fold_batch(self, elements):
        if len(elements) == 0:
            return 0.0
        return float(np.cumsum(elements, out=elements)[-1])


class _LeavesOneOutInPlace(_ArrayBatches):
    refusal = "prefix_suffix_batch wrote into the batch"

    def prefix_suffix_batch(self, elements):
        return np.subtract(np.sum(elements), elements, out=elements)


class _CombinesInPlace(_ArrayBatches):
    refusal = "combine_batch wrote into the batch"

    def combine_batch(self, agg, elements):
        elements += agg
        return elements


class _OrphanMapBatch(MapReduceQuery):
    """``map_batch`` without the ``map_record`` it is checked against."""

    name = "orphan"
    protected_table = "t"
    refusal = "map_record is not implemented"

    def zero(self):
        return 0.0

    def combine(self, a, b):
        return a + b

    def finalize(self, agg, aux):
        return np.asarray([float(agg)], dtype=float)

    def map_batch(self, records, aux):
        return np.ones(len(records), dtype=float)


def _tiny_tables() -> Tables:
    return {"t": [{"v": float(i)} for i in range(8)]}


class TestValidateMonoid:
    """validate_monoid runs the query and refuses what a release cannot
    reuse: each fixture is one such query."""

    @pytest.mark.parametrize("fixture", [
        _RandomMapper, _CapturedStateMapper, _CapturedDictMapper,
        _MutableDefaultMapper, _NoisyMapBatch,
        _WritesRightOperand, _NonCommutative, _FoldsInPlace,
        _LeavesOneOutInPlace, _CombinesInPlace, _OrphanMapBatch,
    ], ids=lambda fixture: fixture.__name__.strip("_"))
    def test_rejects(self, fixture):
        with pytest.raises(QueryShapeError, match=fixture.refusal):
            fixture().validate_monoid(_tiny_tables())

    def test_clean_fixtures_pass(self):
        for query in (_CountQuery(), _ArrayBatches()):
            query.validate_monoid(_tiny_tables())

    def test_strict_gate_rejects_impure_query_before_spend(self):
        acct = PrivacyAccountant(total_epsilon=1.0)
        session = UPASession(
            UPAConfig(sample_size=4, seed=0, strict=True), accountant=acct
        )
        with pytest.raises(QueryShapeError, match="not deterministic"):
            session.run(_RandomMapper(), _tiny_tables(), epsilon=0.5)
        assert acct.spent() == (0.0, 0.0)  # rejected before charging

    def test_strict_gate_runs_validate_monoid(self):
        class RuntimeNonCommutative(_CountQuery):
            name = "sneaky"

            def map_record(self, record, aux):
                return float(record["v"])

            def combine(self, a, b):
                return a + b * 0.5

        session = UPASession(UPAConfig(sample_size=4, seed=0, strict=True))
        with pytest.raises(QueryShapeError):
            session.run(RuntimeNonCommutative(), _tiny_tables(), epsilon=0.5)

    def test_strict_mode_passes_clean_query(self):
        session = UPASession(UPAConfig(sample_size=4, seed=0, strict=True))
        result = session.run(_CountQuery(), _tiny_tables(), epsilon=0.5)
        assert result.plain_output[0] == 8.0
