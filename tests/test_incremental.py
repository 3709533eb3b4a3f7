"""Tests for the incremental session path (append/retire).

The contract under test is the one the performance claim rests on:
``session.append(records)`` / ``session.retire(count)`` release answers
that are **bitwise identical** to cold re-runs over the same grown or
shrunk dataset under fixed seeds — the incremental path may only skip
recomputation, never change results.  The cold reference session always
performs the same *sequence* of releases, so its per-run RNG streams
(sample draw, noise) line up with the incremental session's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DPError, TaskFailedError
from repro.core import session as session_mod
from repro.core.range_enforcer import RangeEnforcer
from repro.core.session import UPAConfig, UPASession
from repro.core.table import TableReads
from repro.dp.budget import PrivacyAccountant
from repro.dp.mechanisms import LaplaceMechanism
from repro.engine.fault import FaultInjector
from repro.engine.metrics import MetricsRegistry
from repro.obs.ledger import PrivacyLedger
from repro.obs.tracing import Tracer, use_tracer
from repro.workloads import all_workloads, workload_by_name
from tests.spans import find

SEED = 11
SAMPLE = 60
#: session seed of the four tpch6/800 tests that append 2.5 % twice.
#: RANGE ENFORCER's removal picks are drawn from the run's rng after
#: S-bar, so they moved with the batched domain sampler, and at SEED
#: they now exhaust S (as they did at seeds 1, 6 and 10 before).
SMALL_APPEND_SEED = 12


def _session(**config):
    config.setdefault("seed", SEED)
    config.setdefault("sample_size", SAMPLE)
    return UPASession(UPAConfig(**config))


def _grown_tables(workload, scale_rows, delta_frac=0.1):
    """(tables with the protected tail held back, the held-back records).

    Everything is generated once, then the last ``delta_frac`` of the
    *protected* table is held back for appending — the base prefix and
    the appended tail are rows of one coherent dataset.  Sizing by
    fraction matters because workloads protect different tables whose
    row counts scale differently from ``scale_rows``.
    """
    tables = workload.make_tables(scale_rows, SEED)
    protected = workload.query.protected_table
    records = tables[protected]
    delta_n = max(2, int(len(records) * delta_frac))
    delta = records[-delta_n:]
    del records[-delta_n:]
    return tables, delta


def _fresh_copy(tables, protected):
    return {
        name: (list(rows) if name == protected else rows)
        for name, rows in tables.items()
    }


def _counted(session, release):
    """Run ``release()``; the records its incremental phase mapped and
    reused (both 0 when it ran cold), read from ``session``'s counters
    so that a release RANGE ENFORCER refuses is counted too."""
    metrics = session.engine.metrics
    mark = metrics.mark()
    release()
    counted = metrics.since(mark)
    return {
        "records_mapped": counted.get(MetricsRegistry.INCR_RECORDS_MAPPED),
        "records_reused": counted.get(MetricsRegistry.INCR_RECORDS_REUSED),
    }


def _delta_fraction(result):
    """Records mapped / records in the window of an incremental release."""
    mapped = result.metrics.get(MetricsRegistry.INCR_RECORDS_MAPPED)
    reused = result.metrics.get(MetricsRegistry.INCR_RECORDS_REUSED)
    return mapped / (mapped + reused)


def _assert_results_equal(a, b):
    np.testing.assert_array_equal(a.noisy_output, b.noisy_output)
    np.testing.assert_array_equal(a.plain_output, b.plain_output)
    np.testing.assert_array_equal(a.removal_outputs, b.removal_outputs)
    np.testing.assert_array_equal(a.addition_outputs, b.addition_outputs)
    assert a.local_sensitivity == b.local_sensitivity


def _paired_release(do_incr, do_cold):
    """Run one release on both sessions and demand identical behavior.

    Count-style workloads can produce an output matching a prior
    release, sending RANGE ENFORCER into its separation loop, which may
    legitimately exhaust the sample (a DPError) — on *both* paths.
    Bitwise equivalence therefore means: same result, or the same
    failure.
    """
    try:
        r_i = do_incr()
    except DPError as exc:
        with pytest.raises(DPError, match="RANGE ENFORCER"):
            do_cold()
        assert "RANGE ENFORCER" in str(exc)
        return None
    r_c = do_cold()
    _assert_results_equal(r_i, r_c)
    return r_i


class TestAppendRetireEquivalence:
    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads()]
    )
    def test_bitwise_equal_to_cold_rerun(self, name):
        """run+append+retire == three cold releases, for all nine
        workloads (small scale)."""
        workload = workload_by_name(name)
        protected = workload.query.protected_table
        tables, delta = _grown_tables(workload, 400)
        retire_n = max(1, len(delta) // 2)

        incr = _session()
        cold = _session()
        tab_i = _fresh_copy(tables, protected)
        tab_c = _fresh_copy(tables, protected)

        _paired_release(
            lambda: incr.run(workload.query, tab_i),
            lambda: cold.run(workload.query, tab_c),
        )

        tab_c[protected].extend(delta)
        _paired_release(
            lambda: incr.append(delta),
            lambda: cold.run(workload.query, tab_c),
        )

        del tab_c[protected][:retire_n]
        _paired_release(
            lambda: incr.retire(retire_n),
            lambda: cold.run(workload.query, tab_c),
        )

    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads()]
    )
    def test_retire_slices_the_window_and_maps_nothing(self, name):
        """retire(k) drops the window's head: the window stays aligned
        with the protected rows, and the release after it maps no
        record (every record when aux reads the protected table)."""
        workload = workload_by_name(name)
        protected = workload.query.protected_table
        tables, delta = _grown_tables(workload, 400)
        retire_n = max(1, len(delta) // 2)

        incr = _session()
        cold = _session()
        tab_i = _fresh_copy(tables, protected)
        tab_c = _fresh_copy(tables, protected)
        _paired_release(
            lambda: incr.run(workload.query, tab_i),
            lambda: cold.run(workload.query, tab_c),
        )
        tab_c[protected].extend(delta)
        _paired_release(
            lambda: incr.append(delta),
            lambda: cold.run(workload.query, tab_c),
        )
        del tab_c[protected][:retire_n]
        stats = _counted(incr, lambda: _paired_release(
            lambda: incr.retire(retire_n),
            lambda: cold.run(workload.query, tab_c),
        ))

        reads = TableReads(tab_i)
        workload.query.build_aux(reads)
        window = incr._incr.window
        if protected in reads.names:  # aux moves with the rows
            assert window is None
            assert stats["records_reused"] == 0
            assert stats["records_mapped"] == len(tab_i[protected])
        else:
            assert workload.query.batch_length(window) == len(
                tab_i[protected]
            )
            assert stats["records_mapped"] == 0
            assert stats["records_reused"] == len(tab_i[protected])

    def test_second_append_reuses_blocks_bitwise_equal(self):
        """tpch6 append path: the second append reuses the mapped window."""
        workload = workload_by_name("tpch6")
        protected = workload.query.protected_table
        tables, delta = _grown_tables(workload, 1500, 0.04)

        incr = _session()
        cold = _session()
        tab_i = _fresh_copy(tables, protected)
        tab_c = _fresh_copy(tables, protected)
        incr.run(workload.query, tab_i)
        cold.run(workload.query, tab_c)
        half = len(delta) // 2
        r_i = incr.append(delta[:half])
        tab_c[protected].extend(delta[:half])
        r_c = cold.run(workload.query, tab_c)
        _assert_results_equal(r_i, r_c)
        r_i = incr.append(delta[half:])
        tab_c[protected].extend(delta[half:])
        r_c = cold.run(workload.query, tab_c)
        _assert_results_equal(r_i, r_c)
        assert r_i.metrics.get(MetricsRegistry.INCR_RECORDS_REUSED) > 0
        assert _delta_fraction(r_i) < 0.1

    def test_an_append_maps_only_the_new_records_and_s_bar(
        self, monkeypatch
    ):
        """S is read from the cached window, not mapped a second time."""
        workload = workload_by_name("tpch6")
        tables, delta = _grown_tables(workload, 1500, 0.04)
        half = len(delta) // 2
        session = _session()
        session.run(workload.query, tables)
        session.append(delta[:half])  # primes the window
        mapped = []
        map_batch = type(workload.query).map_batch

        def counting(query, records, aux):
            mapped.append(len(records))
            return map_batch(query, records, aux)

        monkeypatch.setattr(type(workload.query), "map_batch", counting)
        result = session.append(delta[half:])
        assert sum(mapped) == len(delta) - half + result.sample_size

    def test_window_reuse_metrics(self):
        workload = workload_by_name("tpch6")
        protected = workload.query.protected_table
        tables, delta = _grown_tables(workload, 800, 0.05)
        base_len = len(tables[protected])
        half = len(delta) // 2
        session = _session(seed=SMALL_APPEND_SEED)
        session.run(workload.query, tables)
        first = session.append(delta[:half])  # primes the window
        last = session.append(delta[half:])
        # Both appends continued the window (a cold release counts
        # neither).
        for result in (first, last):
            assert result.metrics.get(MetricsRegistry.INCR_RECORDS_MAPPED)
        m = session.engine.metrics
        assert m.get(MetricsRegistry.INCR_RECORDS_REUSED) >= base_len
        assert m.get(MetricsRegistry.INCR_RECORDS_MAPPED) >= len(delta)
        assert 0.0 < _delta_fraction(last) < 0.1
        # The table grew in place.
        assert len(tables[protected]) == base_len + len(delta)

    def test_append_requires_prior_run(self):
        session = _session()
        with pytest.raises(DPError, match="requires a completed run"):
            session.append([{"v": 1.0}])

    def test_append_rejects_empty_delta(self):
        workload = workload_by_name("tpch6")
        tables, _ = _grown_tables(workload, 300)
        session = _session()
        session.run(workload.query, tables)
        with pytest.raises(DPError, match="at least one record"):
            session.append([])

    def test_retire_bounds_checked(self):
        workload = workload_by_name("tpch6")
        tables, _ = _grown_tables(workload, 300)
        size = len(tables[workload.query.protected_table])
        session = _session()
        session.run(workload.query, tables)
        with pytest.raises(DPError, match="positive"):
            session.retire(0)
        with pytest.raises(DPError, match="empty the protected table"):
            session.retire(size)

    @pytest.mark.parametrize("count", [True, 2.5])
    def test_retire_count_must_be_a_positive_int(self, count):
        """Refused before a record leaves the table: ``True`` is not 1."""
        workload = workload_by_name("tpch6")
        tables, _ = _grown_tables(workload, 300)
        rows = tables[workload.query.protected_table]
        size = len(rows)
        session = _session()
        session.run(workload.query, tables)
        with pytest.raises(DPError, match="positive int"):
            session.retire(count)
        assert len(rows) == size

    def test_append_after_external_mutation_raises(self):
        workload = workload_by_name("tpch6")
        protected = workload.query.protected_table
        tables, delta = _grown_tables(workload, 300, 0.05)
        session = _session()
        session.run(workload.query, tables)
        tables[protected].append(delta[0])
        with pytest.raises(DPError, match="changed outside"):
            session.append(delta[1:])


class TestBudgetAndLedger:
    def test_each_release_charges_fresh_epsilon(self):
        workload = workload_by_name("tpch6")
        tables, delta = _grown_tables(workload, 800, 0.05)
        half = len(delta) // 2
        accountant = PrivacyAccountant(total_epsilon=1.0)
        session = UPASession(
            UPAConfig(seed=SMALL_APPEND_SEED, sample_size=SAMPLE),
            accountant=accountant,
        )
        session.run(workload.query, tables, epsilon=0.1)
        session.append(delta[:half], epsilon=0.2)
        session.append(delta[half:], epsilon=0.3)
        assert accountant.spent() == pytest.approx(0.6)
        assert accountant.remaining_epsilon() == pytest.approx(0.4)

    def test_budget_exhaustion_stops_append(self):
        workload = workload_by_name("tpch6")
        tables, delta = _grown_tables(workload, 400, 0.05)
        accountant = PrivacyAccountant(total_epsilon=0.15)
        session = UPASession(
            UPAConfig(seed=SEED, sample_size=SAMPLE),
            accountant=accountant,
        )
        session.run(workload.query, tables, epsilon=0.1)
        with pytest.raises(DPError):
            session.append(delta, epsilon=0.1)

    def test_ledger_records_incremental_releases(self):
        workload = workload_by_name("tpch6")
        tables, delta = _grown_tables(workload, 800, 0.05)
        half = len(delta) // 2
        ledger = PrivacyLedger()
        session = UPASession(
            UPAConfig(seed=SMALL_APPEND_SEED, sample_size=SAMPLE), ledger=ledger,
        )
        session.run(workload.query, tables, epsilon=0.1)
        header = dict(ledger.header)
        session.append(delta[:half], epsilon=0.1)
        last = session.append(delta[half:], epsilon=0.1)
        # The header is written once, by the first release.
        assert ledger.header == header
        assert not any(
            key.startswith(("incremental", "sql_plan_cache"))
            for key in header
        )
        # The second append maps what it appended and reuses the rest.
        assert last.metrics.get(MetricsRegistry.INCR_RECORDS_MAPPED) == (
            len(delta) - half
        )
        assert last.metrics.get(MetricsRegistry.INCR_RECORDS_REUSED) == (
            len(tables[workload.query.protected_table]) - (len(delta) - half)
        )
        entries = ledger.entries()
        assert len(entries) == 3
        assert all(e.epsilon_charged == 0.1 for e in entries)


class TestInvalidation:
    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads()]
    )
    def test_second_append_maps_only_what_it_appended(self, name):
        """Two appends: the second maps only the records it appended
        (all of them when aux reads the protected table), invalidates
        nothing and stays bitwise equal to a cold rerun."""
        workload = workload_by_name(name)
        protected = workload.query.protected_table
        tables, delta = _grown_tables(workload, 500)
        half = len(delta) // 2

        incr = _session()
        cold = _session()
        tab_i = _fresh_copy(tables, protected)
        tab_c = _fresh_copy(tables, protected)
        _paired_release(
            lambda: incr.run(workload.query, tab_i),
            lambda: cold.run(workload.query, tab_c),
        )
        tab_c[protected].extend(delta[:half])
        _paired_release(
            lambda: incr.append(delta[:half]),
            lambda: cold.run(workload.query, tab_c),
        )

        tab_c[protected].extend(delta[half:])
        stats = _counted(incr, lambda: _paired_release(
            lambda: incr.append(delta[half:]),
            lambda: cold.run(workload.query, tab_c),
        ))
        # The window was continued, not dropped: every record of the
        # grown table was either mapped or reused.
        assert stats["records_mapped"] + stats["records_reused"] == len(
            tab_i[protected]
        )
        reads = TableReads(tab_i)
        workload.query.build_aux(reads)
        if protected in reads.names:  # aux moves with the rows
            assert stats["records_reused"] == 0
            assert stats["records_mapped"] == len(tab_i[protected])
        else:
            assert stats["records_mapped"] == len(delta) - half
            assert stats["records_reused"] == len(tab_i[protected]) - (
                len(delta) - half
            )

    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads()]
    )
    def test_fault_injection_equivalence(self, name):
        """Injected task failures (retried from lineage) must not
        perturb an incremental release."""
        workload = workload_by_name(name)
        protected = workload.query.protected_table
        tables, delta = _grown_tables(workload, 800, 0.05)

        plain = _session()
        faulty = _session()
        injector = FaultInjector(
            failure_probability=0.25, max_failures=3, seed=5
        )
        faulty.engine.install_fault_injector(injector)
        tab_p = _fresh_copy(tables, protected)
        tab_f = _fresh_copy(tables, protected)
        _paired_release(
            lambda: faulty.run(workload.query, tab_f),
            lambda: plain.run(workload.query, tab_p),
        )
        _paired_release(
            lambda: faulty.append(delta),
            lambda: plain.append(delta),
        )
        assert injector.failures_injected >= 1

    def test_external_mutation_falls_back_to_cold_run(self):
        """Mutating the table outside append() must not corrupt run():
        the session detects it and reruns cold, still bitwise equal."""
        workload = workload_by_name("tpch6")
        protected = workload.query.protected_table
        tables, delta = _grown_tables(workload, 800, 0.05)
        half = len(delta) // 2

        incr = _session(seed=SMALL_APPEND_SEED)
        cold = _session(seed=SMALL_APPEND_SEED)
        tab_i = _fresh_copy(tables, protected)
        tab_c = _fresh_copy(tables, protected)
        incr.run(workload.query, tab_i)
        cold.run(workload.query, tab_c)
        incr.append(delta[:half])  # primes the incremental state
        tab_c[protected].extend(delta[:half])
        cold.run(workload.query, tab_c)

        tab_i[protected].extend(delta[half:])  # behind the session's back
        tab_c[protected].extend(delta[half:])
        tracer = Tracer()
        with use_tracer(tracer):
            r_i = incr.run(workload.query, tab_i)
        r_c = cold.run(workload.query, tab_c)
        _assert_results_equal(r_i, r_c)
        assert r_i.metrics.get(MetricsRegistry.INCR_RECORDS_MAPPED) == 0
        assert r_i.metrics.get(MetricsRegistry.INCR_RECORDS_REUSED) == 0
        (sampled,) = find(tracer, "phase:partition_sample")
        assert sampled.attributes["incremental"] is False

    @settings(max_examples=10, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(1, 30)),
                st.tuples(st.just("retire"), st.integers(1, 40)),
            ),
            min_size=1, max_size=5,
        )
    )
    def test_random_append_retire_sequences_bitwise_equal(self, ops):
        """Property: any interleaving of append/retire produces the
        same releases as a cold mirror session that only ever mutates
        the table externally and reruns."""
        workload = workload_by_name("tpch6")
        protected = workload.query.protected_table
        tables, pool = _grown_tables(workload, 500, 0.4)

        incr = _session(sample_size=40)
        cold = _session(sample_size=40)
        tab_i = _fresh_copy(tables, protected)
        tab_c = _fresh_copy(tables, protected)
        _assert_results_equal(
            incr.run(workload.query, tab_i),
            cold.run(workload.query, tab_c),
        )
        taken = 0
        for kind, n in ops:
            if kind == "append":
                chunk = pool[taken:taken + n]
                if not chunk:  # held-back pool exhausted
                    continue
                taken += len(chunk)
                tab_c[protected].extend(chunk)
                do_incr = lambda chunk=chunk: incr.append(chunk)
            else:
                n = min(n, len(tab_i[protected]) - 1)
                del tab_c[protected][:n]
                do_incr = lambda n=n: incr.retire(n)
            # The mirror's run counter must advance in lockstep, so
            # every release is compared against a cold run with the
            # same per-run RNG stream.
            result = _paired_release(
                do_incr, lambda: cold.run(workload.query, tab_c)
            )
            if result is None:
                # Both sessions exhausted RANGE ENFORCER identically —
                # behavior matched; nothing more to compare.
                break


class _Boom(RuntimeError):
    """The failure injected into one phase of a release."""


def _boom(*_args, **_kwargs):
    raise _Boom("injected")


#: where a release is made to fail, and what it then raises: phase 2
#: through the engine's fault injector (every task attempt fails, so
#: its retries run out), the later phases by replacing the call.
_FAILURES = {
    "map": TaskFailedError,
    "inference": _Boom,
    "enforce": _Boom,
    "noise": _Boom,
}


def _inject(point, sessions, monkeypatch):
    if point == "map":
        for session in sessions:
            session.engine.install_fault_injector(
                FaultInjector(failure_probability=1.0)
            )
        return
    owner, name = {
        "inference": (session_mod, "infer_output_range"),
        "enforce": (RangeEnforcer, "enforce"),
        "noise": (LaplaceMechanism, "randomize"),
    }[point]
    monkeypatch.setattr(owner, name, _boom)


def _clear(sessions, monkeypatch):
    monkeypatch.undo()
    for session in sessions:
        session.engine.install_fault_injector(None)


def _registry(session):
    return {
        shape: (list(prior.ids), prior.rows[:len(prior.ids)].tobytes())
        for shape, prior in session.enforcer._by_shape.items()
    }


def _kept_releases(session):
    """(dataset print, query, epsilon, id of the release) kept for
    replay."""
    return {
        (print_, identity, id(release))
        for print_, answers in session._tables._answers.items()
        for identity, kept in answers.items()
        for _public, release in kept
    }


def _cursor(session):
    incr = session._incr
    return (
        incr.query, incr.tables, incr.table, incr.primed,
    )


def _assert_spend_is_ledgered(session):
    assert session.accountant.spent() == pytest.approx(
        session.ledger.totals()["epsilon_charged"]
    )


#: the appending workload -> another query over the same tables, the
#: submission that fails in the ``other_query`` case.
_OTHER_QUERY = {
    "tpch1": "tpch6",
    "tpch6": "tpch1",
    "linreg": "kmeans",
    "kmeans": "linreg",
}


class TestReleaseAtomicity:
    """A release that raises leaves budget, ledger and caches agreeing.

    The commit point is RANGE ENFORCER registering the submission: a
    failure before it (phase 2, inference, enforcement) changes neither
    the registry, nor the releases kept for replay, nor the append
    cursor.  The
    noise draw after it fails before epsilon is charged.  Either way
    the accountant's spend equals the ledger's total, and the release
    after the failure still equals its cold mirror, which meets the
    same failure at the same point so the two sessions' per-run rng
    streams stay in lockstep.
    """

    @pytest.mark.parametrize("failing", ["append", "other_query"])
    @pytest.mark.parametrize("point", sorted(_FAILURES))
    @pytest.mark.parametrize("name", sorted(_OTHER_QUERY))
    def test_failed_release_commits_nothing(self, name, point, failing,
                                            monkeypatch):
        workload = workload_by_name(name)
        query = workload.query
        protected = query.protected_table
        tables, delta = _grown_tables(workload, 800, 0.06)
        third = len(delta) // 3
        chunks = [delta[:third], delta[third:2 * third], delta[2 * third:]]

        def make():
            return UPASession(
                UPAConfig(seed=SMALL_APPEND_SEED, sample_size=SAMPLE),
                accountant=PrivacyAccountant(total_epsilon=100.0),
                ledger=PrivacyLedger(),
            )

        incr, cold = make(), make()
        tab_i = _fresh_copy(tables, protected)
        tab_c = _fresh_copy(tables, protected)
        _assert_results_equal(
            incr.run(query, tab_i), cold.run(query, tab_c)
        )
        tab_c[protected].extend(chunks[0])
        _assert_results_equal(incr.append(chunks[0]), cold.run(query, tab_c))

        registry = _registry(incr)
        registered = len(incr.enforcer)
        kept = _kept_releases(incr)
        cursor = _cursor(incr)
        _inject(point, (incr, cold), monkeypatch)
        if failing == "append":
            with pytest.raises(_FAILURES[point]):
                incr.append(chunks[1])
            tab_c[protected].extend(chunks[1])
            with pytest.raises(_FAILURES[point]):
                cold.run(query, tab_c)
        else:
            other = workload_by_name(_OTHER_QUERY[name]).query
            for session in (incr, cold):
                with pytest.raises(_FAILURES[point]):
                    session.run(other, _fresh_copy(tables, protected))
        _clear((incr, cold), monkeypatch)

        for session in (incr, cold):
            _assert_spend_is_ledgered(session)
        assert len(incr.ledger) == 2
        # The failed release kept nothing for replay.  A failed append
        # still grew the table, so the release of its old content went.
        assert _kept_releases(incr) == (set() if failing == "append" else kept)
        assert len(kept) == 1
        assert _cursor(incr) == cursor
        if point == "noise":
            assert len(incr.enforcer) == registered + 1
        else:
            assert _registry(incr) == registry

        tab_c[protected].extend(chunks[2])
        _assert_results_equal(incr.append(chunks[2]), cold.run(query, tab_c))
        for session in (incr, cold):
            _assert_spend_is_ledgered(session)


class TestBridgeCacheEviction:
    def test_an_evicted_plan_is_compiled_again(self, monkeypatch):
        """The bridge keeps one compiled tree here and the session two
        static sides (``REGISTRY_BOUND``): an evicted plan is compiled
        again, and its static side built again once the session has
        evicted it too."""
        from repro.core import sqlbridge
        from repro.core.table import REGISTRY_BOUND
        from repro.tpch.queries.base import random_lineitem

        monkeypatch.setattr(sqlbridge, "_BRIDGE_CACHE_SIZE", 1)
        sqlbridge.clear_bridge_cache()
        workload = workload_by_name("tpch6")
        tables = workload.make_tables(300, SEED)
        session = _session()
        metrics = session.engine.metrics
        hits, reuses = [], []
        # Another epsilon each time, so nothing replays.
        for run, cutoff in enumerate((24, 10, 24, 5, 10)):
            session.run_sql(
                "SELECT COUNT(*) AS n FROM lineitem, orders "
                f"WHERE l_orderkey = o_orderkey AND l_quantity < {cutoff}",
                tables, protected_table="lineitem",
                epsilon=0.5 + run / 10, domain_sampler=random_lineitem,
            )
            hits.append(metrics.get(MetricsRegistry.SQL_PLAN_CACHE_HITS))
            reuses.append(metrics.get(MetricsRegistry.AUX_REUSES))
        sqlbridge.clear_bridge_cache()
        # Each plan pushed the one before out of the one-entry cache,
        # so none was hit.
        assert hits == [0, 0, 0, 0, 0]
        # The session held the last two static sides: 24 was kept for
        # its second run; 10 was not, after 24 and 5.
        assert REGISTRY_BOUND == 2
        assert reuses == [0, 0, 1, 1, 1]
