"""A release made by :func:`repro.core.session.release`, without a session.

``release`` over a ``ProtectedTable``, the session's per-run counter
and its RANGE ENFORCER is what ``UPASession(UPAConfig(seed=seed))``
releases, bit for bit, in every field ``benchmarks/release_digests.py``
hashes: on a first submission, on a second one against the enforcer
the first left, and on an ``append`` handed the mapped window.  Called
with a fresh enforcer and the same ``run`` it gives the same bits —
one trial of the mechanism, the unit of an empirical privacy audit.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.baselines import exact_local_sensitivity
from repro.common.rng import make_rng
from repro.core import session as session_mod
from repro.core.range_enforcer import RangeEnforcer
from repro.core.sampling import partition_and_sample
from repro.core.session import (
    ReleaseRefused,
    UPAConfig,
    UPASession,
    reduce_phase,
    release,
)
from repro.core.table import ProtectedTable
from repro.engine.context import EngineContext
from repro.obs.ledger import PrivacyLedger
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.workloads import all_workloads, workload_by_name
from tests.spans import find, from_live

SEED, SCALE, EPSILON = 3, 2000, 0.1
CONFIG = UPAConfig(seed=SEED)


def _bits(*values) -> bytes:
    return b"".join(
        np.ascontiguousarray(value, dtype=float).tobytes() for value in values
    )


def _enforcer(config=CONFIG) -> RangeEnforcer:
    """A fresh RANGE ENFORCER, seeded as a session seeds its own."""
    return RangeEnforcer(rng=make_rng(config.seed, "range-enforcer"))


def _release(query, tables, enforcer, *, run=1, window=None,
             config=CONFIG, epsilon=EPSILON):
    """``release`` of ``query`` over ``tables`` as a session's
    ``run``-th release under ``config``."""
    return release(
        query, tables, ProtectedTable(tables[query.protected_table]),
        epsilon, seed=config.seed, run=run, sample_size=config.sample_size,
        parts=config.engine_partitions, enforcer=enforcer,
        engine=EngineContext(), aux=query.build_aux(tables), window=window,
    )


def _fields(result) -> dict:
    inferred = result.inferred_range
    enforcement = result.enforcement
    return {
        "plain_output": result.plain_output,
        "removal_outputs": result.removal_outputs,
        "partition_outputs": result.partition_outputs,
        "addition_outputs": result.addition_outputs,
        "inferred_range": (
            inferred.lower, inferred.upper, inferred.mean, inferred.std,
        ),
        "local_sensitivity": result.local_sensitivity,
        "estimated_local_sensitivity": result.estimated_local_sensitivity,
        "noise_scale": result.noise_scale,
        "raw_output": result.raw_output,
        "noisy_output": result.noisy_output,
        "matched_prior": enforcement.matched_prior,
        "records_removed": enforcement.records_removed,
        "clamped": enforcement.clamped,
    }


def _assert_same_bits(mine, theirs, label) -> None:
    mine, theirs = _fields(mine), _fields(theirs)
    for field, value in mine.items():
        other = theirs[field]
        if not isinstance(value, tuple):
            value, other = (value,), (other,)
        assert _bits(*value) == _bits(*other), (label, field)


def _record_samples(monkeypatch) -> list:
    """Every PartitionedSample phase 1 draws from now on."""
    drawn = []
    real = session_mod.partition_and_sample

    def recording(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(session_mod, "partition_and_sample", recording)
    return drawn


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_release_is_what_a_session_releases(monkeypatch, name):
    workload = workload_by_name(name)
    query = workload.query
    tables = workload.make_tables(SCALE, SEED)

    drawn = _record_samples(monkeypatch)
    result = UPASession(CONFIG).run(query, tables, EPSILON)
    mine = _release(query, tables, _enforcer())
    monkeypatch.undo()

    session_sample, sample = drawn
    for attr in ("sampled_indices", "partition_ids"):
        assert _bits(getattr(sample, attr)) == _bits(
            getattr(session_sample, attr)
        ), (name, attr)
    _assert_same_bits(mine, result, name)


@pytest.mark.parametrize("name", ["tpch6", "tpch13", "kmeans"])
def test_a_second_submission_meets_the_enforcer_the_first_left(name):
    """x, then x minus its last record: the second release reads the
    registry the first one wrote, in the session and out of it."""
    workload = workload_by_name(name)
    query = workload.query
    tables = workload.make_tables(SCALE, SEED)
    protected = query.protected_table
    minus = {**tables, protected: tables[protected][:-1]}

    session = UPASession(CONFIG)
    enforcer = _enforcer()
    for run, submitted in enumerate((tables, minus), start=1):
        _assert_same_bits(
            _release(query, submitted, enforcer, run=run),
            session.run(query, submitted, EPSILON),
            (name, run),
        )
    assert len(enforcer) == len(session.enforcer) == 2


@pytest.mark.parametrize("name", ["tpch1", "tpch13", "linreg"])
def test_an_append_is_a_release_over_the_window(name):
    """``session.append`` releases what ``release(..., window=...)``
    does over the grown table — and what a cold ``release`` does."""
    workload = workload_by_name(name)
    query = workload.query
    protected = query.protected_table
    tables = workload.make_tables(SCALE, SEED)
    rows = tables[protected]
    held = len(rows) // 10
    base = {**tables, protected: rows[:-held]}
    grown = {**tables, protected: list(rows)}

    enforcer = _enforcer()
    _release(query, base, enforcer)
    session = UPASession(CONFIG)
    session.run(query, base, EPSILON)
    appended = session.append(rows[-held:], EPSILON)  # grows base

    cold_enforcer = copy.deepcopy(enforcer)
    window = query.map_batch(grown[protected], query.build_aux(grown))
    mine = _release(query, grown, enforcer, run=2, window=window)
    _assert_same_bits(mine, appended, name)
    _assert_same_bits(
        _release(query, grown, cold_enforcer, run=2), appended, name
    )


REFUSED_CONFIG = UPAConfig(sample_size=100, seed=0)


def _refused_append(tracer=None):
    """tpch21 appended to twice in small steps: the second append looks
    neighbouring to the first and RANGE ENFORCER refuses it.  The
    session's ledger, the refusal, and the three tables released from."""
    workload = workload_by_name("tpch21")
    query = workload.query
    protected = query.protected_table
    tables = workload.make_tables(2040, 0)
    rows = tables[protected]
    held = rows[-40:]
    del rows[-40:]
    snapshots = [
        {**tables, protected: rows + held[:k]} for k in (0, 20, 40)
    ]

    ledger = PrivacyLedger()
    session = UPASession(REFUSED_CONFIG, ledger=ledger, tracer=tracer)
    session.run(query, tables, EPSILON)
    session.append(held[:20], EPSILON)
    with pytest.raises(ReleaseRefused) as refused:
        session.append(held[20:], EPSILON)
    return ledger, refused.value, snapshots


def test_a_refusal_carries_the_fit_of_its_ledger_row():
    query = workload_by_name("tpch21").query
    config = REFUSED_CONFIG
    ledger, refusal, snapshots = _refused_append()
    *released, row = ledger.entries()
    assert [entry.refused for entry in released] == [False, False]
    assert row.refused and row.epsilon_charged == 0.0

    inferred = refusal.inferred
    assert row.range_lower == tuple(inferred.lower)
    assert row.range_upper == tuple(inferred.upper)
    assert row.fitted_mean == tuple(inferred.mean)
    assert row.fitted_std == tuple(inferred.std)
    assert row.local_sensitivity == inferred.local_sensitivity
    assert row.estimated_local_sensitivity == (
        refusal.estimated_local_sensitivity
    )
    assert row.sample_size == refusal.sample_size

    # Out of the session, the third release is refused with that fit.
    enforcer = _enforcer(config)
    for run, snapshot in enumerate(snapshots[:2], start=1):
        _release(query, snapshot, enforcer, run=run, config=config)
    with pytest.raises(ReleaseRefused) as mine:
        _release(query, snapshots[2], enforcer, run=3, config=config)
    assert _bits(
        mine.value.inferred.lower, mine.value.inferred.upper,
        mine.value.estimated_local_sensitivity,
    ) == _bits(
        inferred.lower, inferred.upper, refusal.estimated_local_sensitivity,
    )
    assert str(mine.value) == str(refusal)


def test_a_refusal_counts_the_records_its_removal_loop_took_out():
    """The refusal, its ledger row, its ``phase:enforce`` span and the
    report's range-enforcer line say how many sampled records RANGE
    ENFORCER removed before it gave up (the row used to say 0, and the
    report to count only the releases' removals)."""
    tracer = Tracer()
    ledger, refusal, _ = _refused_append(tracer)
    removed = refusal.records_removed
    assert removed > 0 and refusal.sweeps >= 1
    assert f"after removing {removed} records" in str(refusal)
    row = ledger.entries()[-1]
    assert row.refused and row.matched_prior
    assert row.records_removed == removed
    *_, enforce = find(tracer, "phase:enforce")
    assert enforce.attributes["refused"] is True
    assert enforce.attributes["matched_prior"] is True
    assert enforce.attributes["sweeps"] == refusal.sweeps
    assert enforce.attributes["records_removed"] == removed
    report = from_live(tracer=tracer, ledger=ledger)
    summary = report.enforcement_summary()
    assert (summary["releases"], summary["refused"]) == (2, 1)
    assert summary["refused_records_removed"] == removed
    assert (
        f"; 1 refused after {refusal.sweeps} sweeps and {removed} records "
        "removed"
    ) in report.render_text()


def test_a_trial_is_reproducible_from_its_run():
    """Two calls with fresh enforcers and the same ``run`` give the same
    bits; another ``run`` draws another sample and other noise."""
    workload = workload_by_name("tpch6")
    query = workload.query
    tables = workload.make_tables(SCALE, SEED)
    first = _release(query, tables, _enforcer(), run=5)
    _assert_same_bits(
        _release(query, tables, _enforcer(), run=5), first, "run 5",
    )
    other = _release(query, tables, _enforcer(), run=6)
    assert _bits(other.noisy_output) != _bits(first.noisy_output)


@pytest.mark.parametrize("name", ["tpch6", "linreg"])
def test_removal_outputs_are_the_exact_neighbours_of_the_sample(name):
    """o_i from R(M(S')) and the all-but-one folds of S equals brute
    force's f(x - s_i) at the sampled records."""
    workload = workload_by_name(name)
    query = workload.query
    tables = workload.make_tables(1200, 4)
    config = UPAConfig(sample_size=50, seed=4)
    rng = make_rng(config.seed, "upa-run-1")
    sample = partition_and_sample(query, tables, config.sample_size, rng)
    state = reduce_phase(
        query, query.build_aux(tables), sample, rng, engine=EngineContext(),
        parts=config.engine_partitions, tracer=NULL_TRACER,
    )
    exact = exact_local_sensitivity(query, tables)
    assert state.removal.shape == (config.sample_size, query.output_dim)
    assert np.allclose(
        state.removal, exact.removal_outputs[sample.sampled_indices]
    )
    result = UPASession(config).run(query, tables)
    np.testing.assert_array_equal(result.removal_outputs, state.removal)
