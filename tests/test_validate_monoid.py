"""``validate_monoid`` on the shipped queries, and the aux-read observation.

A release reuses one mapped element across the ~2n sampled neighbours
and across releases, so it rests on ``map_record`` / ``map_batch``
giving the same element every time and on ``combine`` and the batch
kernels leaving their operands as they were.  ``validate_monoid``
checks that by running the query.  Each test here takes one shipped
query (the nine workloads, and TPC-H Q12 and Q14 compiled from their
SQL text), breaks one of those
properties in a copy of it, and expects ``QueryShapeError`` naming
what broke; the unbroken query passes.

Whether ``build_aux`` read the protected table is observed through
``TableReads``, not declared: the last class pins what is observed for
every shipped query and that a session's second release on a smaller
protected table is a fresh session's.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import numpy as np
import pytest

from repro.common.errors import QueryShapeError
from repro.core.query import MapReduceQuery, Tables
from repro.core.session import UPAConfig, UPASession
from repro.core.table import TableReads
from repro.mining import LifeScienceConfig, make_life_science_tables
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.workloads import all_workloads, workload_by_name
from tests.sql_extensions import EXTENSIONS, compile_extension

ML = ("kmeans", "linreg")
NAMES = [w.name for w in all_workloads()] + sorted(EXTENSIONS)
KERNELS = ("fold_batch", "prefix_suffix_batch", "combine_batch")


@pytest.fixture(scope="module")
def catalog() -> Dict[str, Tables]:
    return {
        "tpch": TPCHGenerator(TPCHConfig(scale_rows=6000, seed=3)).generate(),
        "ml": make_life_science_tables(
            LifeScienceConfig(num_records=300, dim=4, num_clusters=3, seed=7)
        ),
    }


def _shipped(catalog: Dict[str, Tables], name: str) -> MapReduceQuery:
    """A fresh instance of the shipped query called ``name``."""
    if name in EXTENSIONS:
        return compile_extension(name, catalog["tpch"])
    return workload_by_name(name).query


def _tables(catalog: Dict[str, Tables], name: str) -> Tables:
    return catalog["ml" if name in ML else "tpch"]


def _with(query: MapReduceQuery, **methods: Callable) -> MapReduceQuery:
    """A copy of ``query`` whose class overrides ``methods``."""
    cls = type(query)
    broken = object.__new__(type(f"Broken{cls.__name__}", (cls,), methods))
    broken.__dict__.update(query.__dict__)
    return broken


def _shift(value: Any, k: float) -> Any:
    """``value`` with ``k`` added to every number in it (a new object)."""
    if isinstance(value, tuple):
        return tuple(_shift(v, k) for v in value)
    return value + k


def _scribble(batch: Any) -> None:
    """Write into a mapped batch: its first array gains 1.0."""
    leaf = batch[0] if isinstance(batch, tuple) else batch
    np.add(leaf, 1.0, out=leaf, casting="unsafe")


def _drifting(real: Callable) -> Callable:
    """``real`` whose result drifts by the number of earlier calls."""
    calls = []

    def drift(self, records, aux):
        calls.append(None)
        return _shift(real(self, records, aux), float(len(calls)))

    return drift


class TestShippedQueries:
    @pytest.mark.parametrize("name", NAMES)
    def test_passes(self, catalog, name):
        _shipped(catalog, name).validate_monoid(_tables(catalog, name))

    @pytest.mark.parametrize("name", NAMES)
    def test_strict_session_releases_what_a_lax_one_does(self, catalog,
                                                         name):
        """The strict gate draws from no session RNG and maps under its
        own aux: turning it on moves no released bit."""
        tables = _tables(catalog, name)
        query = _shipped(catalog, name)
        results = [
            UPASession(UPAConfig(sample_size=40, seed=5, strict=strict))
            .run(query, tables, epsilon=0.5)
            for strict in (False, True)
        ]
        lax, strict = (
            (r.noisy_output.tobytes(), r.plain_output.tobytes(),
             r.removal_outputs.tobytes(), r.local_sensitivity)
            for r in results
        )
        assert lax == strict


class TestReplay:
    """A record mapped twice must give the same element, bit for bit."""

    @pytest.mark.parametrize("name", NAMES)
    def test_map_record_drift_refused(self, catalog, name):
        query = _shipped(catalog, name)
        broken = _with(query, map_record=_drifting(type(query).map_record))
        with pytest.raises(QueryShapeError,
                           match="map_record is not deterministic"):
            broken.validate_monoid(_tables(catalog, name))

    @pytest.mark.parametrize("name", NAMES)
    def test_map_batch_drift_refused(self, catalog, name):
        query = _shipped(catalog, name)
        broken = _with(query, map_batch=_drifting(type(query).map_batch))
        with pytest.raises(QueryShapeError,
                           match="map_batch is not deterministic"):
            broken.validate_monoid(_tables(catalog, name))


class TestBorrowedOperands:
    """``combine`` must leave its right argument, a mapped element the
    reduce reuses, as it was.  Only the ML queries have mutable
    elements; a TPC-H element is a float and cannot be written into."""

    @pytest.mark.parametrize("name", ML)
    def test_combine_writing_its_right_argument_refused(self, catalog, name):
        query = _shipped(catalog, name)
        real = type(query).combine

        def combine(self, a, b):
            out = real(self, a, b)
            _scribble(b)
            return out

        with pytest.raises(QueryShapeError,
                           match="combine wrote into its right argument"):
            _with(query, combine=combine).validate_monoid(
                _tables(catalog, name)
            )


class TestBorrowedBatches:
    """The session hands the batch kernels one mapped batch after
    another; each must leave the batch it is given as it was."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", NAMES)
    def test_kernel_writing_its_batch_refused(self, catalog, name, kernel):
        query = _shipped(catalog, name)
        real = getattr(type(query), kernel)

        def writes(self, *args):
            out = real(self, *args)
            _scribble(args[-1])  # the batch is the last argument
            return out

        with pytest.raises(QueryShapeError,
                           match=f"{kernel} wrote into the batch"):
            _with(query, **{kernel: writes}).validate_monoid(
                _tables(catalog, name)
            )


class _Counts(MapReduceQuery):
    """A count over ``t`` with vectorized kernels and its scalar monoid;
    ``TestMissingScalarPartner`` takes one scalar method away."""

    name = "counts"
    protected_table = "t"

    def map_record(self, record, aux):
        return 1.0

    def zero(self):
        return 0.0

    def combine(self, a, b):
        return a + b

    def finalize(self, agg, aux):
        return np.asarray([float(agg)])

    def map_batch(self, records, aux):
        return np.ones(len(records))

    def fold_batch(self, elements):
        return float(np.sum(elements))


class TestMissingScalarPartner:
    """Batch kernels are checked against the scalar monoid, so a missing
    scalar method is named, not left to a bare NotImplementedError."""

    def test_complete_query_passes(self):
        _Counts().validate_monoid({"t": [{"v": i} for i in range(8)]})

    @pytest.mark.parametrize(
        "method", ("map_record", "zero", "combine", "finalize")
    )
    def test_names_the_missing_method(self, method):
        cls = type("Missing", (_Counts,),
                   {method: getattr(MapReduceQuery, method)})
        with pytest.raises(QueryShapeError,
                           match=f"{method} is not implemented"):
            cls().validate_monoid({"t": [{"v": i} for i in range(8)]})


class TestObservedAuxReads:
    @pytest.mark.parametrize("name", NAMES)
    def test_only_kmeans_aux_reads_its_protected_table(self, catalog, name):
        query = _shipped(catalog, name)
        reads = TableReads(_tables(catalog, name))
        query.build_aux(reads)
        assert (query.protected_table in reads.names) == (name == "kmeans")

    @pytest.mark.parametrize("name", NAMES)
    def test_release_on_fewer_rows_is_a_fresh_sessions(self, catalog, name):
        """Released on x, then on x minus 10 protected rows, in one
        session: the second plain output is a fresh session's, whether
        the aux was kept (it read public tables only) or rebuilt."""
        query = _shipped(catalog, name)
        x = _tables(catalog, name)
        protected = query.protected_table
        minus = {**x, protected: x[protected][: len(x[protected]) // 2]}
        config = UPAConfig(sample_size=120, seed=5)
        session = UPASession(config)
        session.run(query, x, 0.5)
        again = session.run(query, minus, 0.5)
        fresh = UPASession(config).run(query, minus, 0.5)
        # Up to the last ulp: which partition half a record lands in
        # may differ between the two sessions (DESIGN.md section 5).
        for expected in (fresh.plain_output, query.output(minus)):
            np.testing.assert_allclose(
                again.plain_output, expected, rtol=1e-12, atol=1e-12
            )

