"""Tests for ``core.table``: a protected table registered once.

Two contracts.  ``ProtectedTable.append`` / ``retire`` leave exactly
what hashing the grown or shrunk rows afresh would give.  And a session
that finds its tables and aux registered releases the same bits as one
that is handed a fresh copy of every table on every submission — "hit
is miss", for all nine workloads.
"""

from __future__ import annotations

import dataclasses
from datetime import date

import numpy as np
import pytest

import repro.core.sampling as sampling_mod
import repro.core.session as session_mod
from repro.common.errors import DPError, PrivacyBudgetExceeded
from repro.core.query import MapReduceQuery
from repro.core.session import UPAConfig, UPAResult, UPASession
from repro.core.table import (
    REGISTRY_BOUND,
    FixedLists,
    ProtectedTable,
    TableReads,
    TableRegistry,
)
from repro.dp.budget import PrivacyAccountant
from repro.engine.metrics import MetricsRegistry
from repro.mining import KMeansQuery
from repro.obs.ledger import PrivacyLedger
from repro.obs.report import ObservedRun
from repro.obs.tracing import Tracer
from repro.workloads import all_workloads, workload_by_name

SEED = 11
SAMPLE = 60


def _rows(lo, hi, **override):
    return [
        {
            "k": i, "price": i * 1.25, "day": date.fromordinal(730_000 + i),
            "flag": "NR"[i % 2], "vec": (float(i), i / 7.0),
            **{name: make(i) for name, make in override.items()},
        }
        for i in range(lo, hi)
    ]


def _assert_same_state(table, fresh):
    assert table.rows == fresh.rows == table.snapshot
    assert table.fingerprints.tobytes() == fresh.fingerprints.tobytes()
    assert table.partition_ids.tobytes() == fresh.partition_ids.tobytes()
    assert table.dataset_print() == fresh.dataset_print()
    assert sorted(table.buffers) == sorted(fresh.buffers)
    for key, buffer in table.buffers.items():
        expected = fresh.buffers[key]
        if isinstance(expected, np.ndarray):
            assert buffer.dtype == expected.dtype
            assert buffer.tobytes() == expected.tobytes()
        else:
            assert list(buffer) == expected


class TestProtectedTable:
    def test_append_and_retire_equal_a_fresh_hash(self):
        table = ProtectedTable(_rows(0, 50))
        assert sorted(table.buffers) == ["day", "flag", "k", "price", "vec"]
        table.append(_rows(50, 70))
        _assert_same_state(table, ProtectedTable(_rows(0, 70)))
        table.retire(30)
        _assert_same_state(table, ProtectedTable(_rows(30, 70)))
        table.append(_rows(70, 71))
        _assert_same_state(table, ProtectedTable(_rows(30, 71)))

    def test_only_the_appended_rows_are_hashed(self, monkeypatch):
        table = ProtectedTable(_rows(0, 50))
        hashed = []
        real = sampling_mod.fingerprint_columns
        monkeypatch.setattr(
            sampling_mod, "fingerprint_columns",
            lambda records: hashed.append(len(records)) or real(records),
        )
        table.append(_rows(50, 58))
        table.retire(5)
        assert hashed == [8]

    def test_a_boxed_column_grows_boxed(self):
        """A view that read a date column left it as an object array."""
        table = ProtectedTable(_rows(0, 20))
        table.buffers["day"] = np.array(table.buffers["day"], dtype=object)
        table.append(_rows(20, 25))
        table.retire(3)
        assert table.buffers["day"].dtype == object
        assert table.buffers["day"].tolist() == [
            row["day"] for row in _rows(3, 25)
        ]
        assert isinstance(table.buffers["flag"], list)

    @pytest.mark.parametrize("column, make", [
        ("k", float),                       # int64 column, float chunk
        ("price", lambda i: "free"),        # float column, str chunk
        ("day", lambda i: str(i)),          # date column, str chunk
        ("vec", lambda i: (1.0, 2.0, 3.0)),  # another width
        ("vec", lambda i: (1.0, i)),        # no buffer in the chunk
        ("flag", lambda i: None if i % 2 else "N"),  # mixed chunk
    ])
    def test_a_chunk_of_another_kind_drops_the_columns_buffer(
        self, column, make
    ):
        table = ProtectedTable(_rows(0, 30))
        chunk = _rows(30, 40, **{column: make})
        table.append(chunk)
        fresh = ProtectedTable(_rows(0, 30) + chunk)
        assert column not in table.buffers and column not in fresh.buffers
        _assert_same_state(table, fresh)

    def test_matches_its_own_unchanged_list_only(self):
        rows = _rows(0, 40)
        table = ProtectedTable(rows)
        assert table.matches(rows)
        assert not table.matches(list(rows))
        rows[3], rows[4] = rows[4], rows[3]  # reordered
        assert not table.matches(rows)
        rows[3], rows[4] = rows[4], rows[3]
        assert table.matches(rows)
        rows[7] = dict(rows[7])  # an equal row hashes the same
        assert table.matches(rows)
        rows[7] = dict(rows[8])  # replaced, same length
        assert not table.matches(rows)
        rows[7] = table.snapshot[7]
        rows.append(rows[0])
        assert not table.matches(rows)
        del rows[-2:]
        assert not table.matches(rows)


class TestTableRegistry:
    def test_keeps_the_most_recent_tables(self):
        registry = TableRegistry()
        lists = [_rows(0, 5) for _ in range(REGISTRY_BOUND + 1)]
        tables = []
        for rows in lists:
            table, registered = registry.lookup(rows)
            assert table.rows is rows and not registered
            tables.append(table)
        # lists[0] was evicted; finding lists[1] makes it the most
        # recent, so one more registration evicts lists[2] instead.
        assert registry.lookup(lists[1]) == (tables[1], True)
        registry.lookup(_rows(0, 5))
        assert registry.lookup(lists[1]) == (tables[1], True)
        again, registered = registry.lookup(lists[2])
        assert again is not tables[2] and not registered

    def test_a_changed_list_is_registered_afresh(self):
        registry = TableRegistry()
        rows = _rows(0, 5)
        first, _ = registry.lookup(rows)
        rows[0] = dict(rows[1])
        second, registered = registry.lookup(rows)
        assert second is not first and not registered
        assert second.snapshot == rows
        assert registry.lookup(rows) == (second, True)
        assert len(registry._tables) == 1  # the stale entry went


class TestFixedLists:
    def test_unchanged_means_equal_by_value(self):
        orders, parts = _rows(0, 6), _rows(0, 3)
        fixed = FixedLists(
            {"orders": orders, "parts": parts}, ("orders", "parts"),
        )
        assert fixed.unchanged({"orders": orders, "parts": parts})
        assert not fixed.unchanged({"orders": orders})
        # a new list of the same rows, or of equal copies of them
        assert fixed.unchanged({"orders": list(orders), "parts": parts})
        assert fixed.unchanged(
            {"orders": [dict(row) for row in orders], "parts": parts}
        )
        other = _rows(9, 10)[0]
        orders.append(other)  # grown in place: the same object
        assert not fixed.unchanged({"orders": orders, "parts": parts})
        del orders[0], orders[-1]
        orders.insert(0, other)  # the same length again
        assert not fixed.unchanged({"orders": orders, "parts": parts})


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

RESULT_FIELDS = [
    f.name for f in dataclasses.fields(UPAResult)
    if f.name not in ("elapsed_seconds", "metrics")
]


def _flat(value):
    if dataclasses.is_dataclass(value):
        return [_flat(v) for v in dataclasses.astuple(value)]
    if isinstance(value, tuple):
        return [_flat(v) for v in value]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return value


def _assert_identical(hit, miss, step):
    for name in RESULT_FIELDS:
        assert _flat(getattr(hit, name)) == _flat(getattr(miss, name)), (
            step, name,
        )


def _continued_no_window(counted) -> bool:
    """The counts ``counted`` mapped and reused no window record: no
    incremental phase ran (a cold release, or a replay)."""
    return not (
        counted.get(MetricsRegistry.INCR_RECORDS_MAPPED)
        or counted.get(MetricsRegistry.INCR_RECORDS_REUSED)
    )


def _release(call):
    """The release, or the RANGE ENFORCER refusal it ended in."""
    try:
        return call()
    except DPError as exc:
        assert "RANGE ENFORCER" in str(exc)
        return None


def _count_build_aux(monkeypatch, query):
    calls = []
    real = type(query).build_aux

    def counting(self, tables):
        calls.append(tables)
        return real(self, tables)

    monkeypatch.setattr(type(query), "build_aux", counting)
    return calls


class TestHitIsMiss:
    """One session is handed the same list objects, so the registry and
    the kept aux serve it; the other gets a record-by-record copy of
    the protected table and new public lists on every submission, so
    it registers every protected list afresh (equal public lists still
    find their aux).  Same seeds, same sequence: same results.  Each
    step has its own epsilon, so every step is a fresh release, not a
    replay."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("name", [w.name for w in all_workloads()])
    def test_identical_results_field_by_field(self, name, parts):
        workload = workload_by_name(name)
        query = workload.query
        protected = query.protected_table
        generated = workload.make_tables(400, SEED)
        rows = generated[protected]
        held = max(4, len(rows) // 10)
        chunks = [
            rows[-held:-held // 2], rows[-held // 2:],
        ]
        x = dict(generated)
        x[protected] = rows[:-held]
        minus = dict(x)
        minus[protected] = x[protected][:-1]

        def copied(tables):
            return {
                table: (
                    [dict(row) for row in records] if table == protected
                    else list(records)
                )
                for table, records in tables.items()
            }

        config = UPAConfig(
            sample_size=SAMPLE, seed=SEED, engine_partitions=parts,
        )
        hit, miss = UPASession(config), UPASession(config)
        retire_n = max(1, held // 3)
        steps = [
            ("run x", x, lambda e: hit.run(query, x, e)),
            ("run x-1", minus, lambda e: hit.run(query, minus, e)),
            ("run x again", x, lambda e: hit.run(query, x, e)),
            ("append", x, lambda e: hit.append(list(chunks[0]), e)),
            ("append again", x, lambda e: hit.append(list(chunks[1]), e)),
            ("retire", x, lambda e: hit.retire(retire_n, e)),
            ("run x-1 again", minus, lambda e: hit.run(query, minus, e)),
            ("run grown x", x, lambda e: hit.run(query, x, e)),
        ]
        for i, (step, submitted, call) in enumerate(steps):
            epsilon = 0.5 + i / 100
            released = _release(lambda: call(epsilon))
            # The hit session's lists are the state to mirror: append()
            # and retire() have moved x[protected] by now.
            mirrored = _release(
                lambda: miss.run(query, copied(submitted), epsilon)
            )
            assert (released is None) == (mirrored is None), step
            if released is not None:
                _assert_identical(released, mirrored, step)
        metrics = hit.engine.metrics
        assert metrics.get(MetricsRegistry.RELEASE_REPLAYS) == 0
        assert metrics.get(MetricsRegistry.TABLE_REGISTRATIONS) == 2
        assert metrics.get(MetricsRegistry.TABLE_REUSES) == len(steps) - 2
        cold = miss.engine.metrics
        assert cold.get(MetricsRegistry.TABLE_REGISTRATIONS) == len(steps)
        assert cold.get(MetricsRegistry.TABLE_REUSES) == 0
        # Aux is kept per public tables, compared by value, unless it
        # read the protected table (kmeans).
        reads = TableReads(x)
        query.build_aux(reads)
        for session_metrics in (metrics, cold):
            assert session_metrics.get(MetricsRegistry.AUX_REUSES) == (
                0 if protected in reads.names else len(steps) - 1
            )


class TestAuxIsKeptPerPublicTables:
    def _session(self):
        return UPASession(UPAConfig(sample_size=SAMPLE, seed=SEED))

    def test_built_once_for_the_same_public_tables(self, monkeypatch):
        workload = workload_by_name("tpch13")
        tables = workload.make_tables(400, SEED)
        minus = dict(tables)
        minus["customer"] = tables["customer"][:-1]
        calls = _count_build_aux(monkeypatch, workload.query)
        session = self._session()
        for epsilon, submitted in zip(
            (0.5, 0.6, 0.7, 0.8), (tables, minus, tables, minus),
        ):
            _release(lambda: session.run(workload.query, submitted, epsilon))
        assert len(calls) == 1
        assert session.engine.metrics.get(MetricsRegistry.AUX_REUSES) == 3

    def test_a_swapped_public_table_rebuilds_it(self, monkeypatch):
        workload = workload_by_name("tpch13")
        tables = workload.make_tables(400, SEED)
        calls = _count_build_aux(monkeypatch, workload.query)
        session = self._session()
        first = session.run(workload.query, tables, 0.5)
        swapped = dict(tables)
        swapped["orders"] = tables["orders"][: len(tables["orders"]) // 2]
        second = session.run(workload.query, swapped, 0.5)
        assert len(calls) == 2
        assert second.plain_output[0] < first.plain_output[0]
        np.testing.assert_array_equal(
            second.plain_output, session.run_vanilla(workload.query, swapped)[0]
        )

    def test_a_public_list_grown_by_append_rebuilds_it(self):
        """``orders`` is public to tpch13 and protected under tpch4, so
        the session's own append() grows the list tpch13's aux was
        counted from; list identity alone served the old counts."""
        q13 = workload_by_name("tpch13").query
        q4 = workload_by_name("tpch4").query
        generated = workload_by_name("tpch4").make_tables(400, SEED)
        orders = generated["orders"]
        new_orders, more_orders = orders[-60:-30], orders[-30:]
        del orders[-60:]

        def copied():
            return {name: list(rows) for name, rows in generated.items()}

        config = UPAConfig(sample_size=SAMPLE, seed=SEED)
        session, fresh = UPASession(config), UPASession(config)
        steps = [
            (q13, lambda e: session.run(q13, generated, e)),
            (q4, lambda e: session.run(q4, generated, e)),
            (q4, lambda e: session.append(new_orders, e)),
            (q13, lambda e: session.run(q13, generated, e)),
            # ... and back to the same length: retire what was appended.
            (q4, lambda e: session.run(q4, generated, e)),
            (q4, lambda e: session.append(more_orders, e)),
            (q4, lambda e: session.retire(len(more_orders), e)),
            (q13, lambda e: session.run(q13, generated, e)),
        ]
        for step, (query, call) in enumerate(steps):
            epsilon = 0.5 + step / 100  # a fresh release, not a replay
            released = _release(lambda: call(epsilon))
            mirrored = _release(lambda: fresh.run(query, copied(), epsilon))
            assert (released is None) == (mirrored is None), step
            if released is not None:
                _assert_identical(released, mirrored, step)
        # q13's aux was never served from before a change to ``orders``
        # (q4's own aux reads lineitem, which nothing moved).
        assert session.engine.metrics.get(MetricsRegistry.AUX_REUSES) == 4

    def test_another_query_object_builds_its_own(self, monkeypatch):
        tables = workload_by_name("tpch13").make_tables(400, SEED)
        queries = [workload_by_name("tpch13").query for _ in range(2)]
        calls = _count_build_aux(monkeypatch, queries[0])
        session = self._session()
        for query in queries:
            _release(lambda: session.run(query, tables, 0.5))
        assert len(calls) == 2

    def test_aux_that_reads_the_protected_table_is_never_kept(
        self, monkeypatch
    ):
        workload = workload_by_name("kmeans")
        tables = workload.make_tables(400, SEED)
        reads = TableReads(tables)
        workload.query.build_aux(reads)
        assert "points" in reads.names
        calls = _count_build_aux(monkeypatch, workload.query)
        session = self._session()
        for epsilon in (0.5, 0.6, 0.7):
            session.run(workload.query, tables, epsilon)
        assert len(calls) == 3
        assert session.engine.metrics.get(MetricsRegistry.AUX_REUSES) == 0
        assert session.engine.metrics.get(MetricsRegistry.TABLE_REUSES) == 2

    def test_run_vanilla_builds_its_own(self, monkeypatch):
        workload = workload_by_name("tpch13")
        tables = workload.make_tables(400, SEED)
        calls = _count_build_aux(monkeypatch, workload.query)
        session = self._session()
        session.run(workload.query, tables, 0.5)
        before = session.engine.metrics.snapshot()
        for _ in range(2):
            session.run_vanilla(workload.query, tables)
        assert len(calls) == 3
        moved = session.engine.metrics.snapshot().diff(before)
        for counter in (MetricsRegistry.TABLE_REGISTRATIONS,
                        MetricsRegistry.TABLE_REUSES,
                        MetricsRegistry.AUX_REUSES):
            assert moved.get(counter) == 0


class TestTablesAreValues:
    def _primed(self):
        """tpch6 run and appended to once; a filtered-out row of the
        base, a contributing row, and one more chunk to append."""
        workload = workload_by_name("tpch6")
        query = workload.query
        tables = workload.make_tables(4400, SEED)
        rows = tables["lineitem"]
        held = rows[-200:]
        del rows[-200:]
        victim = next(
            i for i, row in enumerate(rows)
            if query.map_record(row, None) == 0.0
        )
        other = next(
            row for row in rows if query.map_record(row, None) > 0.0
        )
        session = UPASession(UPAConfig(sample_size=100, seed=SEED))
        session.run(query, tables, 0.5)
        session.append(held[:100], 0.5)
        return session, query, tables, victim, other, held[100:]

    def test_a_replaced_row_of_equal_length_is_not_released_stale(self):
        """identity + length alone kept the replaced row's cached block
        and partition id: plain_output 271 519.35 against 272 344.75."""
        session, query, tables, victim, other, chunk = self._primed()
        rows = tables["lineitem"]
        rows[victim] = dict(other)
        with pytest.raises(DPError, match="changed outside"):
            session.append(chunk, 0.5)
        with pytest.raises(DPError, match="changed outside"):
            session.retire(10, 0.5)
        metrics = session.engine.metrics
        invalidations = metrics.get(MetricsRegistry.INCR_INVALIDATIONS)
        registrations = metrics.get(MetricsRegistry.TABLE_REGISTRATIONS)
        mark = metrics.mark()
        result = session.run(query, tables, 0.5)
        assert _continued_no_window(metrics.since(mark))
        assert metrics.get(
            MetricsRegistry.INCR_INVALIDATIONS
        ) == invalidations + 1
        assert metrics.get(
            MetricsRegistry.TABLE_REGISTRATIONS
        ) == registrations + 1
        fresh = UPASession(UPAConfig(sample_size=100, seed=SEED))
        expected = fresh.run_vanilla(
            query, {**tables, "lineitem": [dict(row) for row in rows]}
        )[0]
        # (the stale answer was off by 3e-3; vanilla folds in another
        # order, so the last bits may differ)
        np.testing.assert_allclose(result.plain_output, expected, rtol=1e-9)
        # ... and the session carries on from the re-registered table.
        appended = session.append(chunk, 0.5)
        np.testing.assert_allclose(
            appended.plain_output, fresh.run_vanilla(query, tables)[0],
            rtol=1e-9,
        )

    def test_swapped_rows_run_cold(self):
        session, query, tables, victim, _other, _chunk = self._primed()
        rows = tables["lineitem"]
        rows[victim], rows[victim + 1] = rows[victim + 1], rows[victim]
        mark = session.engine.metrics.mark()
        session.run(query, tables, 0.5)
        assert _continued_no_window(session.engine.metrics.since(mark))

    def test_eviction_beyond_the_bound_runs_cold(self):
        session, query, tables, _victim, _other, chunk = self._primed()
        primed = session._incr
        assert primed.window is not None
        others = [
            {**tables, "lineitem": tables["lineitem"][:-300 * (k + 1)]}
            for k in range(REGISTRY_BOUND)
        ]
        for submitted in others:
            session.run(query, submitted, 0.5)
        assert session._incr is not primed
        assert session._incr.window is None
        metrics = session.engine.metrics
        registrations = metrics.get(MetricsRegistry.TABLE_REGISTRATIONS)
        reuses = metrics.get(MetricsRegistry.TABLE_REUSES)
        mark = metrics.mark()
        session.run(query, tables, 0.5)
        assert _continued_no_window(metrics.since(mark))
        assert metrics.get(
            MetricsRegistry.TABLE_REGISTRATIONS
        ) == registrations + 1
        assert metrics.get(MetricsRegistry.TABLE_REUSES) == reuses
        # primes the new registration
        appended = session.append(chunk, 0.5)
        assert appended.metrics.get(MetricsRegistry.INCR_RECORDS_REUSED) == 0


class TestReplay:
    """An identical resubmission gets its release back, for free
    (DESIGN.md section 5, item 10); anything else is released afresh."""

    def _session(self, accountant=None):
        return UPASession(
            UPAConfig(sample_size=SAMPLE, seed=SEED),
            accountant=accountant, ledger=PrivacyLedger(),
        )

    def _x(self):
        """tpch13's tables with 20 customers held back, and them."""
        generated = workload_by_name("tpch13").make_tables(4000, SEED)
        customers = generated["customer"]
        return {**generated, "customer": customers[:-20]}, customers[-20:]

    def test_a_replay_is_the_release_at_zero_epsilon(self, monkeypatch):
        query = workload_by_name("tpch13").query
        x, _chunk = self._x()
        accountant = PrivacyAccountant(total_epsilon=10.0)
        session = self._session(accountant)
        first = session.run(query, x, 0.5)
        registry, counter = len(session.enforcer), session._run_counter
        metrics = session.engine.metrics
        jobs = metrics.get(MetricsRegistry.JOBS)
        sampled = []
        real = session_mod.partition_and_sample
        monkeypatch.setattr(
            session_mod, "partition_and_sample",
            lambda *args, **kwargs: sampled.append(args)
            or real(*args, **kwargs),
        )
        assert session.run(query, x, 0.5) is first
        assert accountant.spent()[0] == pytest.approx(0.5)
        assert [
            (entry.cache_hit, entry.epsilon_charged)
            for entry in session.ledger.entries()
        ] == [(False, 0.5), (True, 0.0)]
        assert len(session.enforcer) == registry
        assert session._run_counter == counter
        assert sampled == []
        assert metrics.get(MetricsRegistry.JOBS) == jobs
        assert metrics.get(MetricsRegistry.RELEASE_REPLAYS) == 1

    @pytest.mark.parametrize("change", [
        "neighbour", "epsilon", "query object", "public table", "append",
        "retire",
    ])
    def test_anything_else_is_released_afresh(self, change):
        query = workload_by_name("tpch13").query
        x, chunk = self._x()
        session = self._session()
        first = session.run(query, x, 0.5)
        calls = {
            "neighbour": lambda: session.run(
                query, {**x, "customer": x["customer"][:-1]}, 0.5,
            ),
            "epsilon": lambda: session.run(query, x, 0.4),
            "query object": lambda: session.run(
                workload_by_name("tpch13").query, x, 0.5,
            ),
            "public table": lambda: session.run(
                query, {**x, "orders": x["orders"][:-1]}, 0.5,
            ),
            "append": lambda: session.append(chunk, 0.5),
            "retire": lambda: session.retire(5, 0.5),
        }
        again = calls[change]()
        assert again is not first
        assert session.engine.metrics.get(MetricsRegistry.RELEASE_REPLAYS) == 0
        assert not session.ledger.entries()[-1].cache_hit

    def test_a_content_equal_copy_replays(self):
        query = workload_by_name("tpch13").query
        x, _chunk = self._x()
        session = self._session()
        first = session.run(query, x, 0.5)
        copy = {
            name: (
                [dict(row) for row in rows] if name == "customer"
                else list(rows)
            )
            for name, rows in x.items()
        }
        assert session.run(query, copy, 0.5) is first
        metrics = session.engine.metrics
        assert metrics.get(MetricsRegistry.TABLE_REGISTRATIONS) == 2

    def test_the_kept_releases_stay_bounded(self):
        """Releases are kept only for the content of the tables the
        registry holds, so an append/retire loop keeps one."""
        workload = workload_by_name("tpch6")
        generated = workload.make_tables(600, SEED)
        rows = generated["lineitem"]
        reserve = rows[400:]
        tables = {**generated, "lineitem": rows[:400]}
        session = self._session()
        session.run(workload.query, tables, 0.5)
        answers = session._tables._answers
        for pair in range(50):
            _release(lambda: session.append(
                reserve[4 * pair:4 * pair + 4], 0.5,
            ))
            _release(lambda: session.retire(4, 0.5))
            assert len(answers) <= REGISTRY_BOUND
            assert sum(map(len, answers.values())) <= REGISTRY_BOUND
        assert len(answers) == 1

    def test_an_exhausted_accountant_still_replays(self):
        query = workload_by_name("tpch13").query
        x, _chunk = self._x()
        accountant = PrivacyAccountant(total_epsilon=0.5)
        session = self._session(accountant)
        first = session.run(query, x, 0.5)
        assert session.run(query, x, 0.5) is first
        with pytest.raises(PrivacyBudgetExceeded):
            session.run(query, x, 0.4)
        assert accountant.spent()[0] == pytest.approx(0.5)

    def test_a_changed_public_table_is_not_replayed_stale(self):
        """A replay keyed on the protected table alone returned 192
        for tpch4 over public tables cut to their first half: 103."""
        workload = workload_by_name("tpch4")
        query = workload.query
        tables = workload.make_tables(4000, SEED)
        halved = {
            name: rows if name == query.protected_table
            else rows[:len(rows) // 2]
            for name, rows in tables.items()
        }
        session = UPASession(UPAConfig(sample_size=100, seed=1))
        first = session.run(query, tables)
        second = session.run(query, halved)
        assert second is not first
        assert first.plain_output[0] == 192
        assert second.plain_output[0] == 103
        assert session.run(query, halved) is second

    def test_two_queries_of_one_class_do_not_share(self):
        """A replay keyed on the class-level name gave the 12-value
        answer of three clusters to the query for two."""
        tables = workload_by_name("kmeans").make_tables(400, SEED)
        session = self._session()
        three = session.run(KMeansQuery(num_clusters=3), tables, 0.5)
        two = session.run(KMeansQuery(num_clusters=2), tables, 0.5)
        assert three.noisy_output.shape == (12,)
        assert two.noisy_output.shape == (8,)

    def test_append_after_a_replay_grows_the_replayed_table(self):
        """run(x), run(y), run(x) replays, append(chunk): the chunk
        grows x (it grew y) and the release equals a cold one of
        x + chunk."""
        workload = workload_by_name("tpch6")
        query = workload.query
        generated = workload.make_tables(600, SEED)
        rows = generated["lineitem"]
        chunk = rows[-100:]
        x = {**generated, "lineitem": rows[:-100]}
        y = {**generated, "lineitem": rows[:-300]}
        session, mirror = self._session(), self._session()
        first = session.run(query, x, 0.5)
        session.run(query, y, 0.5)
        assert session.run(query, x, 0.5) is first
        appended = session.append(chunk, 0.5)
        assert len(x["lineitem"]) == 600 and len(y["lineitem"]) == 300
        for submitted in (x["lineitem"][:-100], y["lineitem"]):
            mirror.run(query, {**generated, "lineitem": list(submitted)}, 0.5)
        mirror.run(
            query, {**generated, "lineitem": list(x["lineitem"][:-100])}, 0.5,
        )
        cold = mirror.run(
            query, {**generated, "lineitem": list(x["lineitem"])}, 0.5,
        )
        _assert_identical(appended, cold, "append after a replay")


class _SpyList(list):
    """A row list that counts the comparisons made with it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.compared = 0

    def __eq__(self, other):
        self.compared += 1
        return super().__eq__(other)

    __hash__ = None


class _MeanQuery(MapReduceQuery):
    """The mean of ``t.v``: each record contributes ``v / |t|``, so aux
    reads the protected table, and nothing says so."""

    name = "mean"
    protected_table = "t"

    def build_aux(self, tables):
        return len(tables["t"])

    def map_record(self, record, aux):
        return record["v"] / aux

    def zero(self):
        return 0.0

    def combine(self, a, b):
        return a + b

    def finalize(self, agg, aux):
        return np.asarray([float(agg)])

    def sample_domain_record(self, rng, tables):
        return {"v": float(rng.randrange(100))}


class TestReadScope:
    """A release depends on the public tables it read: what
    ``build_aux`` and the domain sampler looked up, and what a compiled
    plan scanned.  Only those are compared on a replay."""

    def _session(self):
        return UPASession(
            UPAConfig(sample_size=SAMPLE, seed=SEED), ledger=PrivacyLedger(),
        )

    def _x(self):
        # tpch13 protects customer and reads orders; lineitem is unread.
        return workload_by_name("tpch13").make_tables(1000, SEED)

    def test_an_unread_public_list_may_change(self):
        query = workload_by_name("tpch13").query
        x = self._x()
        accountant = PrivacyAccountant(total_epsilon=10.0)
        session = UPASession(
            UPAConfig(sample_size=SAMPLE, seed=SEED),
            accountant=accountant, ledger=PrivacyLedger(),
        )
        first = session.run(query, x, 0.5)
        changed = {
            **x, "lineitem": x["lineitem"][::-1][:10], "extra": [{"e": 1}],
        }
        assert session.run(query, changed, 0.5) is first
        assert accountant.spent()[0] == pytest.approx(0.5)
        assert [
            (entry.cache_hit, entry.epsilon_charged)
            for entry in session.ledger.entries()
        ] == [(False, 0.5), (True, 0.0)]

    def test_a_read_public_list_grown_in_place_re_releases(self):
        query = workload_by_name("tpch13").query
        x = self._x()
        session = self._session()
        first = session.run(query, x, 0.5)
        customers = {row["c_custkey"] for row in x["customer"]}
        counted = next(
            order for order in x["orders"]
            if order["o_custkey"] in customers
            and query.build_aux({"orders": [order]}).order_counts
        )
        x["orders"].append(dict(counted, o_orderkey=10**9))
        again = session.run(query, x, 0.5)
        assert again is not first
        assert not session.ledger.entries()[-1].cache_hit
        assert again.plain_output[0] == first.plain_output[0] + 1

    def test_a_table_probed_absent_then_added_re_releases(self):
        """tpch4's sampler draws o_custkey from ``tables.get("customer",
        [])``: the release depends on customer being absent."""
        workload = workload_by_name("tpch4")
        generated = workload.make_tables(1000, SEED)
        x = {
            name: rows for name, rows in generated.items()
            if name != "customer"
        }
        session = self._session()
        first = session.run(workload.query, x, 0.5)
        assert session.run(workload.query, dict(x), 0.5) is first
        x["customer"] = generated["customer"]
        assert session.run(workload.query, x, 0.5) is not first
        assert session.engine.metrics.get(
            MetricsRegistry.RELEASE_REPLAYS
        ) == 1

    def test_listing_the_tables_reads_their_names(self, monkeypatch):
        """Iterating ``tables`` reads the set of names too: a table
        added afterwards rebuilds aux and re-releases."""
        query = workload_by_name("tpch13").query
        real = type(query).build_aux
        calls = []

        def listing(self, tables):
            calls.append(sorted(tables))
            return real(self, tables)

        monkeypatch.setattr(type(query), "build_aux", listing)
        x = self._x()
        session = self._session()
        first = session.run(query, x, 0.5)
        assert session.run(query, dict(x), 0.5) is first
        assert session.run(query, {**x, "extra": []}, 0.5) is not first
        assert len(calls) == 2
        assert session.engine.metrics.get(MetricsRegistry.AUX_REUSES) == 0

    def test_compiled_sql_depends_on_the_tables_it_scans(self):
        text = "SELECT COUNT(*) AS n FROM a, b WHERE k = bk"
        x = {
            "a": [{"k": i % 7, "v": float(i)} for i in range(300)],
            "b": [{"bk": i % 7, "w": float(i)} for i in range(200)],
            "c": [{"ck": i} for i in range(50)],
        }
        session = self._session()

        def release(tables):
            return session.run_sql(
                text, tables, "a", epsilon=0.5,
                domain_sampler=lambda rng, _tables: {
                    "k": rng.randrange(7), "v": rng.random(),
                },
            )

        first = release(x)
        assert release({**x, "c": x["c"][:10]}) is first
        grown = release({**x, "b": x["b"] + [{"bk": 3, "w": 0.5}]})
        assert grown is not first
        assert grown.plain_output[0] == first.plain_output[0] + 43

    def test_a_replay_never_compares_an_unread_list(self):
        query = workload_by_name("tpch13").query
        x = self._x()
        x["lineitem"] = _SpyList(x["lineitem"])
        x["orders"] = _SpyList(x["orders"])
        session = self._session()
        first = session.run(query, x, 0.5)
        for _ in range(3):
            assert session.run(query, x, 0.5) is first
        assert x["lineitem"].compared == 0
        assert x["orders"].compared == 3

    def test_aux_that_reads_the_protected_table_follows_it(self):
        """An aux normalised by ``len(tables["t"])``, with nothing
        declared: released on x, then on x minus 10 rows, in one
        session, the second release uses the aux of x minus 10 rows."""
        query = _MeanQuery()
        x = {"t": [{"v": float(i % 10)} for i in range(50)]}
        minus = {"t": x["t"][:-10]}
        config = UPAConfig(sample_size=SAMPLE, seed=SEED)
        session = UPASession(config)
        session.run(query, x, 0.5)
        again = session.run(query, minus, 0.5)
        fresh = UPASession(config).run(query, minus, 0.5)
        assert again.plain_output[0] == pytest.approx(4.5)  # not 3.6
        assert _flat(again.plain_output) == _flat(fresh.plain_output)
        assert session.engine.metrics.get(MetricsRegistry.AUX_REUSES) == 0

    def test_append_remaps_under_the_new_aux(self):
        """append() maps no element under the aux of the smaller table:
        the release is a fresh session's over the grown table."""
        query = _MeanQuery()
        rows = [{"v": float(i % 10)} for i in range(60)]
        config = UPAConfig(sample_size=SAMPLE, seed=SEED)
        session = UPASession(config)
        session.run(query, {"t": rows[:50]}, 0.5)
        grown = session.append(rows[50:], 0.6)
        assert grown.metrics.get(MetricsRegistry.INCR_RECORDS_REUSED) == 0
        fresh = UPASession(config)
        fresh.run(query, {"t": rows[:50]}, 0.5)
        assert grown.plain_output[0] == pytest.approx(4.5)  # not 5.4
        assert _flat(grown.plain_output) == _flat(
            fresh.run(query, {"t": list(rows)}, 0.6).plain_output
        )

    def test_append_after_a_read_public_list_changed_remaps(self):
        """tpch13's aux counts ``orders``; halving that list between two
        appends makes the cached elements those of another aux."""
        workload = workload_by_name("tpch13")
        generated = workload.make_tables(4000, SEED)
        rows = generated["customer"]
        k = len(rows) // 10
        x = {**generated, "customer": rows[:-2 * k],
             "orders": list(generated["orders"])}
        session = self._session()
        session.run(workload.query, x, 0.5)
        session.append(rows[-2 * k:-k], 0.6)
        del x["orders"][: len(x["orders"]) // 2]
        grown = session.append(rows[-k:], 0.7)
        assert grown.metrics.get(MetricsRegistry.INCR_RECORDS_REUSED) == 0
        assert grown.plain_output[0] == workload.query.output(x)[0]

    def test_kmeans_rebuilds_aux_on_every_release(self, monkeypatch):
        """kmeans' aux reads its protected table, so it is never kept;
        a replay builds nothing, and reads no public table."""
        workload = workload_by_name("kmeans")
        tables = workload.make_tables(400, SEED)
        calls = _count_build_aux(monkeypatch, workload.query)
        session = self._session()
        first = session.run(workload.query, tables, 0.5)
        session.run(workload.query, tables, 0.6)
        minus = {**tables, "points": tables["points"][:-1]}
        session.run(workload.query, minus, 0.5)
        assert len(calls) == 3
        assert session.run(
            workload.query, {**tables, "other": [{"o": 1}]}, 0.5,
        ) is first
        assert len(calls) == 3
        assert session.engine.metrics.get(MetricsRegistry.AUX_REUSES) == 0


class TestObservability:
    def test_a_first_release_reused_nothing(self):
        """The table is registered before phase 1 runs, to look for a
        replay; the span and the counter still say this release
        hashed."""
        workload = workload_by_name("tpch6")
        tables = workload.make_tables(400, SEED)
        tracer = Tracer()
        session = UPASession(
            UPAConfig(sample_size=SAMPLE, seed=SEED), tracer=tracer,
        )
        session.run(workload.query, tables, 0.5)
        session.run(workload.query, tables, 0.4)  # another epsilon
        assert [
            span.attributes["registered"]
            for span in tracer.find("phase:partition_sample")
        ] == [False, True]
        metrics = session.engine.metrics
        assert metrics.get(MetricsRegistry.TABLE_REGISTRATIONS) == 1
        assert metrics.get(MetricsRegistry.TABLE_REUSES) == 1

    def test_the_partition_sample_span_says_registered(self):
        workload = workload_by_name("tpch13")
        tables = workload.make_tables(400, SEED)
        minus = dict(tables)
        minus["customer"] = tables["customer"][:-1]
        tracer = Tracer()
        session = UPASession(
            UPAConfig(sample_size=SAMPLE, seed=SEED), tracer=tracer,
        )
        for epsilon, submitted in zip(
            (0.5, 0.6, 0.7, 0.8), (tables, minus, tables, minus),
        ):
            _release(lambda: session.run(workload.query, submitted, epsilon))
        spans = [
            span for span in tracer.spans()
            if span.name == "phase:partition_sample"
        ]
        assert [span.attributes["registered"] for span in spans] == [
            False, False, True, True,
        ]
        report = ObservedRun.from_live(tracer)
        assert report.domain_sampling_summary()["registered"] == 2
        assert report.to_dict()["domain_sampling"]["registered"] == 2
        line = next(
            line for line in report.render_text().splitlines()
            if line.startswith("domain sampling:")
        )
        assert "2 of them from a registered table" in line
        metrics = session.engine.metrics
        assert [
            metrics.get(name) for name in (
                MetricsRegistry.TABLE_REGISTRATIONS,
                MetricsRegistry.TABLE_REUSES,
                MetricsRegistry.AUX_REUSES,
            )
        ] == [2, 2, 3]
