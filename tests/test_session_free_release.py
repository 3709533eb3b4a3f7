"""A release run from the phase functions alone, without a session.

``partition_and_sample → reduce_phase → infer_output_range /
infer_local_sensitivity → RangeEnforcer.enforce → add_noise`` (at
``max(local sensitivity, noise_floor(query))``) over a
``ProtectedTable``, the first per-run rng and a fresh RANGE ENFORCER is
what ``UPASession(UPAConfig(seed=seed)).run`` releases on its first
submission, bit for bit, in every field ``benchmarks/release_digests.py``
hashes.  This is the entry point for running many independent trials of
the mechanism (an empirical privacy audit) without a session's state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import exact_local_sensitivity
from repro.common.rng import derive_seed, make_rng
from repro.core import session as session_mod
from repro.core.inference import infer_local_sensitivity, infer_output_range
from repro.core.range_enforcer import RangeEnforcer
from repro.core.sampling import partition_and_sample
from repro.core.session import (
    UPAConfig,
    UPASession,
    add_noise,
    noise_floor,
    reduce_phase,
)
from repro.core.table import ProtectedTable
from repro.engine.context import EngineContext
from repro.obs.tracing import NULL_TRACER
from repro.workloads import all_workloads, workload_by_name

SEED, SCALE, EPSILON = 3, 2000, 0.1


def _bits(*values) -> bytes:
    return b"".join(
        np.ascontiguousarray(value, dtype=float).tobytes() for value in values
    )


def _release_without_session(query, tables, seed, epsilon):
    """(sample, fields) of one release made from the phase functions."""
    config = UPAConfig(seed=seed)
    table = ProtectedTable(tables[query.protected_table])
    rng = make_rng(seed, "upa-run-1")
    enforcer = RangeEnforcer(rng=make_rng(seed, "range-enforcer"))

    sample = partition_and_sample(
        query, tables, config.sample_size, rng, table=table,
    )
    state = reduce_phase(
        query, query.build_aux(tables), sample, rng, engine=EngineContext(),
        parts=config.engine_partitions, tracer=NULL_TRACER,
    )
    inferred = infer_output_range(state.neighbours, state.population)
    estimated = infer_local_sensitivity(
        state.neighbours, state.plain, state.population
    )
    partition_outputs = state.partition_outputs()
    enforcement = enforcer.enforce(state, inferred)
    noisy = add_noise(
        enforcement.output,
        max(inferred.local_sensitivity, noise_floor(query)),
        epsilon,
        derive_seed(seed, "noise-1"),
    )
    return sample, {
        "plain_output": state.plain,
        "removal_outputs": state.removal,
        "partition_outputs": partition_outputs,
        "addition_outputs": state.addition,
        "inferred_range": (
            inferred.lower, inferred.upper, inferred.mean, inferred.std,
        ),
        "local_sensitivity": inferred.local_sensitivity,
        "estimated_local_sensitivity": estimated,
        "raw_output": enforcement.output,
        "noisy_output": np.asarray(noisy, dtype=float).reshape(-1),
        "matched_prior": enforcement.matched_prior,
        "records_removed": enforcement.records_removed,
        "clamped": enforcement.clamped,
    }


def _session_fields(result) -> dict:
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
        "raw_output": result.raw_output,
        "noisy_output": result.noisy_output,
        "matched_prior": enforcement.matched_prior,
        "records_removed": enforcement.records_removed,
        "clamped": enforcement.clamped,
    }


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_phase_functions_release_what_a_session_releases(monkeypatch, name):
    workload = workload_by_name(name)
    query = workload.query
    tables = workload.make_tables(SCALE, SEED)

    drawn = []
    real = session_mod.partition_and_sample

    def recording(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(session_mod, "partition_and_sample", recording)
    result = UPASession(UPAConfig(seed=SEED)).run(query, tables, EPSILON)
    monkeypatch.undo()

    sample, fields = _release_without_session(query, tables, SEED, EPSILON)
    (session_sample,) = drawn
    for attr in ("sampled_indices", "partition_ids"):
        assert _bits(getattr(sample, attr)) == _bits(
            getattr(session_sample, attr)
        ), (name, attr)
    expected = _session_fields(result)
    assert fields.keys() == expected.keys()
    for field, mine in fields.items():
        theirs = expected[field]
        if not isinstance(mine, tuple):
            mine, theirs = (mine,), (theirs,)
        assert _bits(*mine) == _bits(*theirs), (name, field)


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
