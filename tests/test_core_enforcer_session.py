"""Tests for RANGE ENFORCER (Algorithm 2) and the end-to-end UPASession."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DPError, PrivacyBudgetExceeded
from repro.common.rng import make_rng
import repro.core.sampling as sampling_mod
from repro.core import UPAConfig, UPASession
from repro.core.inference import infer_output_range
from repro.core.range_enforcer import EnforcementResult, RangeEnforcer
from repro.core.sampling import partition_and_sample
from repro.core.session import _PipelineState, reduce_phase
from repro.dp.budget import PrivacyAccountant
from repro.engine.context import EngineContext
from repro.engine.metrics import MetricsRegistry
from repro.obs.ledger import PrivacyLedger
from repro.obs.tracing import NULL_TRACER
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.tpch.workload import query_by_name
from repro.workloads import workload_by_name


class _FakeRuntime:
    """Scriptable EnforcerRuntime for unit tests."""

    def __init__(self, partition_outputs, final, removable=10):
        self._outputs = [np.asarray(p, dtype=float) for p in partition_outputs]
        self._final = np.asarray(final, dtype=float)
        self._removable = removable
        self.removals = 0

    def partition_outputs(self):
        return (self._outputs[0], self._outputs[1])

    def final_output(self):
        return self._final

    def remove_two_records(self):
        if self._removable < 2:
            return False
        self._removable -= 2
        self.removals += 2
        # removing records perturbs both partitions' outputs
        self._outputs = [o - 1.0 for o in self._outputs]
        self._final = self._final - 2.0
        return True


def _range(lo, hi):
    return infer_output_range(np.array([[lo], [hi]] * 10), 100)


class TestRangeEnforcer:
    def test_first_submission_registers(self):
        enforcer = RangeEnforcer()
        runtime = _FakeRuntime([[5.0], [7.0]], [12.0])
        result = enforcer.enforce(runtime, _range(0.0, 20.0))
        assert not result.matched_prior
        assert result.records_removed == 0
        assert len(enforcer) == 1

    def test_distinct_queries_do_not_trigger_removal(self):
        enforcer = RangeEnforcer()
        enforcer.enforce(_FakeRuntime([[5.0], [7.0]], [12.0]), _range(0, 20))
        result = enforcer.enforce(
            _FakeRuntime([[50.0], [70.0]], [120.0]), _range(0, 200)
        )
        assert not result.matched_prior

    def test_neighbouring_submission_forces_removals(self):
        enforcer = RangeEnforcer()
        enforcer.enforce(_FakeRuntime([[5.0], [7.0]], [12.0]), _range(0, 20))
        # same first partition output -> looks like a neighbouring dataset
        runtime = _FakeRuntime([[5.0], [8.0]], [13.0])
        result = enforcer.enforce(runtime, _range(0, 20))
        assert result.matched_prior
        assert result.records_removed >= 2

    def test_identical_submission_forces_removals(self):
        enforcer = RangeEnforcer()
        enforcer.enforce(_FakeRuntime([[5.0], [7.0]], [12.0]), _range(0, 20))
        result = enforcer.enforce(
            _FakeRuntime([[5.0], [7.0]], [12.0]), _range(0, 20)
        )
        assert result.matched_prior

    def test_exhausted_removals_raise(self):
        enforcer = RangeEnforcer()
        enforcer.enforce(_FakeRuntime([[1.0], [2.0]], [3.0]), _range(0, 20))
        enforcer.enforce(_FakeRuntime([[5.0], [7.0]], [12.0]), _range(0, 20))
        enforcer.enforce(_FakeRuntime([[4.0], [6.0]], [10.0]), _range(0, 20))
        # Matches submission 1, and one removal later submission 2.
        runtime = _FakeRuntime([[5.0], [7.0]], [12.0], removable=2)
        with pytest.raises(DPError) as raised:
            enforcer.enforce(runtime, _range(0, 20))
        message = str(raised.value)
        assert "exhausted sampled records" in message
        assert "removing 2 records" in message
        assert "registered submission 2 of 3" in message
        assert "fewer than two sampled records are left" in message
        assert len(enforcer) == 3

    def test_out_of_range_output_replaced_with_in_range(self):
        enforcer = RangeEnforcer(rng=random.Random(0))
        runtime = _FakeRuntime([[5.0], [7.0]], [999.0])
        inferred = _range(0.0, 20.0)
        result = enforcer.enforce(runtime, inferred)
        assert result.clamped
        assert inferred.contains(result.output)

    def test_in_range_output_untouched(self):
        enforcer = RangeEnforcer()
        result = enforcer.enforce(
            _FakeRuntime([[5.0], [7.0]], [12.0]), _range(0, 20)
        )
        assert not result.clamped
        assert result.output[0] == 12.0


class _PerPriorEnforcer:
    """Reference oracle: Algorithm 2 as one Python loop over the priors.

    ``RangeEnforcer.enforce`` as it was before the registry became
    stacked arrays — two ``np.allclose`` per prior, the removal loop
    inside the scan.  Kept here, and only here, to pin the decisions of
    the vectorised sweep.
    """

    def __init__(self, rng, equality_rtol):
        self.registry = []
        self._rng = rng
        self._rtol = equality_rtol

    def _same(self, a, b):
        if a.shape != b.shape:
            return False
        return bool(np.allclose(a, b, rtol=self._rtol, atol=0.0))

    def enforce(self, runtime, inferred):
        matched = False
        removed = 0
        current = runtime.partition_outputs()
        for prior in self.registry:
            diff_num = sum(
                0 if self._same(prior[j], current[j]) else 1 for j in range(2)
            )
            while diff_num < 2:
                matched = True
                if not runtime.remove_two_records():
                    raise DPError("exhausted sampled records")
                removed += 2
                current = runtime.partition_outputs()
                diff_num = sum(
                    0 if self._same(prior[j], current[j]) else 1
                    for j in range(2)
                )
        output = runtime.final_output()
        clamped = not inferred.contains(output)
        if clamped:
            span = inferred.upper - inferred.lower
            output = inferred.lower + np.array(
                [self._rng.random() for _ in range(span.shape[0])]
            ) * span
        self.registry.append((current[0].copy(), current[1].copy()))
        return EnforcementResult(
            output=output, matched_prior=matched, records_removed=removed,
            clamped=clamped,
        )


class _ScriptedRuntime:
    """EnforcerRuntime that steps through given partition outputs.

    Each ``remove_two_records`` moves to the next ``(f(x1), f(x2))``
    pair and fails once they run out; every call is logged.
    """

    def __init__(self, states, final):
        self._states = states
        self._final = final
        self._at = 0
        self.calls = []

    def partition_outputs(self):
        self.calls.append("partition_outputs")
        return self._states[self._at]

    def final_output(self):
        self.calls.append("final_output")
        return np.array([self._final - self._at])

    def remove_two_records(self):
        self.calls.append("remove_two_records")
        if self._at + 1 == len(self._states):
            return False
        self._at += 1
        return True


def _registered(enforcer):
    """(shape, (2, d) outputs) of every submission, in registration order."""
    rows = {}
    for shape, priors in enforcer._by_shape.items():
        for row, submission in zip(priors.rows, priors.ids):
            rows[submission] = (shape, row)
    assert sorted(rows) == list(range(len(enforcer)))
    return [rows[i] for i in range(len(enforcer))]


def _assert_same_decisions(rtol, submissions):
    """Drive both enforcers with ``submissions``; returns the outcomes.

    A submission is ``(states, final)``: the partition-output pairs its
    runtime steps through, and its raw output.
    """
    enforcer = RangeEnforcer(random.Random(3), equality_rtol=rtol)
    oracle = _PerPriorEnforcer(random.Random(3), rtol)
    outcomes = []
    for states, final in submissions:
        seen = []
        for subject in (enforcer, oracle):
            runtime = _ScriptedRuntime(states, final)
            try:
                result = subject.enforce(runtime, _range(0.0, 20.0))
                outcome = (
                    result.matched_prior, result.records_removed,
                    result.clamped, result.output.tolist(),
                )
            except DPError:
                outcome = "DPError"
            seen.append((outcome, runtime.calls))
        assert seen[0] == seen[1]
        outcomes.append(seen[0][0])
        assert len(enforcer) == len(oracle.registry)
        for (shape, row), (first, second) in zip(
            _registered(enforcer), oracle.registry
        ):
            assert shape == first.shape == second.shape
            assert np.array_equal(
                row, [first.ravel(), second.ravel()], equal_nan=True
            )
    return outcomes


def _pair(first, second):
    return (np.array([first]), np.array([second]))


#: five priors no two of which look neighbouring.
_DISTINCT = [([_pair(float(k), 100.0 + k)], 12.0) for k in range(5)]

#: entries the hypothesis registries are built from, and the factors
#: that move them across ``rtol`` = 1e-9 and 0.1 in both directions.
_ENTRIES = (0.0, 1.0, -1.0, 2.0, 3.0, 7.0, -40.0, 1e300, 1e-300, np.nan,
            np.inf, -np.inf)
_FACTORS = (1.0, 1.0 + 5e-10, 1.0 + 2e-9, 1.05, 1.11, 1 / 1.11)
_SHAPES = ((1,), (4,), (10,), (2, 2))


@st.composite
def _sessions(draw):
    """(rtol, submissions) whose outputs collide often, in mixed shapes."""
    rtol = draw(st.sampled_from([1e-9, 0.1]))
    shapes = draw(st.lists(
        st.sampled_from(_SHAPES), min_size=1, max_size=3, unique=True,
    ))
    outputs = {}
    for shape in shapes:
        size = int(np.prod(shape))
        bases = draw(st.lists(
            st.lists(st.sampled_from(_ENTRIES), min_size=size,
                     max_size=size).map(np.array),
            min_size=3, max_size=3,
        ))
        outputs[shape] = [
            (draw(st.sampled_from(bases)) * draw(st.one_of(
                st.sampled_from(_FACTORS),
                st.lists(st.sampled_from(_FACTORS), min_size=size,
                         max_size=size).map(np.array),
            ))).reshape(shape)
            for _ in range(6)
        ]
    steps = st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        min_size=1, max_size=6,
    )
    submissions = []
    for _ in range(draw(st.integers(1, 12))):
        variants = outputs[draw(st.sampled_from(shapes))]
        submissions.append((
            [(variants[i], variants[j]) for i, j in draw(steps)],
            draw(st.sampled_from([12.0, 999.0])),
        ))
    return rtol, submissions


class TestEnforcerMatchesPerPriorLoop:
    """The vectorised sweep decides what the per-prior loop decided."""

    @settings(max_examples=150, deadline=None)
    @given(_sessions())
    def test_generated_registries(self, session):
        _assert_same_decisions(*session)

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_match_at_first_middle_and_last_prior(self, at):
        states = [_pair(float(at), 55.0), _pair(50.0, 55.0)]
        outcomes = _assert_same_decisions(1e-9, _DISTINCT + [(states, 12.0)])
        assert outcomes[-1] == (True, 2, False, [11.0])

    def test_several_matches_in_one_release(self):
        # Matches prior 1; one removal later prior 3; the state after
        # that would match prior 0, which the scan is already past.
        states = [_pair(1.0, 55.0), _pair(50.0, 103.0), _pair(0.0, 55.0)]
        outcomes = _assert_same_decisions(1e-9, _DISTINCT + [(states, 12.0)])
        assert outcomes[-1] == (True, 4, False, [10.0])

    def test_removal_loop_stays_on_one_prior(self):
        states = [_pair(2.0, 55.0), _pair(50.0, 102.0), _pair(2.0, 102.0),
                  _pair(50.0, 55.0)]
        outcomes = _assert_same_decisions(1e-9, _DISTINCT + [(states, 12.0)])
        assert outcomes[-1] == (True, 6, False, [9.0])

    def test_exhaustion_registers_nothing(self):
        states = [_pair(4.0, 55.0), _pair(50.0, 104.0)]
        outcomes = _assert_same_decisions(
            1e-9, _DISTINCT + [(states, 12.0), ([_pair(50.0, 55.0)], 12.0)]
        )
        assert outcomes[-2:] == ["DPError", (False, 0, False, [12.0])]

    def test_nan_never_matches_and_equal_infinities_do(self):
        prior = ([_pair(np.nan, np.inf)], 12.0)
        again = ([_pair(np.nan, np.inf), _pair(np.nan, -np.inf)], 12.0)
        nan_only = ([_pair(np.nan, 3.0)], 12.0)
        outcomes = _assert_same_decisions(1e-9, [prior, again, nan_only])
        assert [o[:2] for o in outcomes] == [
            (False, 0), (True, 2), (False, 0),
        ]

    def test_tolerance_scales_with_the_current_output(self):
        # |1.0 - 1.11| is within 10% of 1.11 but not of 1.0.
        small, large = ([_pair(1.0, 5.0)], 12.0), ([_pair(1.11, 6.0)], 12.0)
        separated = _pair(50.0, 55.0)
        up = _assert_same_decisions(
            0.1, [small, (large[0] + [separated], 12.0)]
        )
        down = _assert_same_decisions(0.1, [large, small])
        assert up[-1][0] and not down[-1][0]

    def test_same_width_other_shape_is_not_compared(self):
        flat = (np.arange(4.0), np.arange(4.0) + 10)
        square = tuple(a.reshape(2, 2) for a in flat)
        outcomes = _assert_same_decisions(
            1e-9, [([flat], 12.0), ([square], 12.0)]
        )
        assert not outcomes[-1][0]

    def test_clamped_output_draws_the_same_random_value(self):
        outcomes = _assert_same_decisions(1e-9, _DISTINCT[:1] + [
            ([_pair(0.0, 55.0), _pair(50.0, 55.0)], 999.0),
        ])
        matched, removed, clamped, output = outcomes[-1]
        assert (matched, removed, clamped) == (True, 2, True)
        assert 0.0 <= output[0] <= 20.0


class TestEnforcerScaling:
    """Cost per release follows the matches, not the registry length."""

    @pytest.fixture(scope="class")
    def deep(self):
        enforcer = RangeEnforcer()
        for k in range(5000):
            enforcer.enforce(
                _FakeRuntime([[float(k)], [10_000.0 + k]], [12.0]),
                _range(0, 20),
            )
        return enforcer

    @staticmethod
    def _count_isclose(monkeypatch):
        calls = []
        isclose = np.isclose

        def counting(*args, **kwargs):
            calls.append(1)
            return isclose(*args, **kwargs)

        monkeypatch.setattr(np, "isclose", counting)
        return calls

    def test_no_match_is_one_sweep(self, deep, monkeypatch):
        calls = self._count_isclose(monkeypatch)
        result = deep.enforce(
            _FakeRuntime([[-5.0], [-7.0]], [12.0]), _range(0, 20)
        )
        assert not result.matched_prior
        assert result.sweeps == 1
        assert len(calls) <= 2

    def test_k_matches_are_at_most_k_plus_one_sweeps(self, deep, monkeypatch):
        # Partition 0 meets prior 100, then partition 1 meets priors
        # 200 and 300, one removal each.
        calls = self._count_isclose(monkeypatch)
        states = [
            (np.array([100.0]), np.array([-1.0])),
            (np.array([-2.0]), np.array([10_200.0])),
            (np.array([-3.0]), np.array([10_300.0])),
            (np.array([-4.0]), np.array([-5.0])),
        ]
        before = len(deep)
        result = deep.enforce(_ScriptedRuntime(states, 12.0), _range(0, 20))
        assert result.records_removed == 6
        assert result.sweeps <= 3 + 1
        # per sweep, and per removal to re-check the one matched prior.
        assert len(calls) <= 2 * (result.sweeps + 3)
        assert len(deep) == before + 1

    def test_registry_grows_past_its_first_allocation(self, deep):
        (priors,) = deep._by_shape.values()
        assert len(priors.ids) == len(deep) <= len(priors.rows)
        assert priors.rows[4999].tolist() == [[4999.0], [14_999.0]]


@pytest.fixture(scope="module")
def tpch21_x():
    """The benchmarks/e2e/README.md reproducer's data: tpch21 at
    20 000 rows, data seed 3."""
    workload = workload_by_name("tpch21")
    return workload.query, workload.make_tables(20_000, 3)


@pytest.fixture(scope="module")
def small_tables():
    return TPCHGenerator(TPCHConfig(scale_rows=3000, seed=13)).generate()


class TestPipelineState:
    """The reduce-side state RANGE ENFORCER calls back into."""

    @staticmethod
    def _count_computations(monkeypatch):
        """Log every (non-memoised) per-partition fold of the samples."""
        folds = []
        fold_samples_in = _PipelineState._fold_samples_in

        def counting(self, partition):
            folds.append(partition)
            return fold_samples_in(self, partition)

        monkeypatch.setattr(_PipelineState, "_fold_samples_in", counting)
        return folds

    def test_partition_outputs_computed_once_without_removal(
        self, small_tables, monkeypatch
    ):
        folds = self._count_computations(monkeypatch)
        session = UPASession(UPAConfig(sample_size=60, seed=3))
        result = session.run(query_by_name("tpch1"), small_tables, 0.5)
        assert result.enforcement.records_removed == 0
        # run() reads the pair for UPAResult, enforce() reads it again.
        assert folds == [0, 1]

    def test_partition_outputs_recomputed_after_each_removal(
        self, small_tables, monkeypatch
    ):
        query = query_by_name("tpch1")
        session = UPASession(UPAConfig(sample_size=60, seed=3))
        session.run(query, small_tables, 0.5)
        neighbour = dict(small_tables)
        neighbour["lineitem"] = small_tables["lineitem"][:-1]
        folds = self._count_computations(monkeypatch)
        result = session.run(query, neighbour, 0.5)
        removals = result.enforcement.records_removed // 2
        assert removals >= 1
        assert folds == [0, 1] * (1 + removals)
        # the pair on the result is the one from before the removals.
        assert result.partition_outputs[0] + result.partition_outputs[1] \
            == pytest.approx(result.plain_output)

    def test_remove_two_records_picks(self, small_tables):
        query = query_by_name("tpch6")
        rng = make_rng(9, "upa-run-1")
        sample = partition_and_sample(query, small_tables, 40, rng)
        state = reduce_phase(
            query, query.build_aux(small_tables), sample, rng,
            engine=EngineContext(), parts=2, tracer=NULL_TRACER,
        )
        mapped, parts = state.mapped, state._parts.tolist()
        before = state.partition_outputs()
        assert state.partition_outputs() is before

        # The picks of the list-based version: two successive
        # ``del keep[randrange(len(keep))]``.
        state._rng, rng = random.Random(5), random.Random(5)
        keep = list(range(len(parts)))
        for _ in range(2):
            del keep[rng.randrange(len(keep))]
        assert state.remove_two_records()
        assert state._parts.tolist() == [parts[i] for i in keep]
        assert np.array_equal(
            np.asarray(state.mapped),
            np.asarray(query.batch_select(mapped, keep)),
        )
        after = state.partition_outputs()
        assert after is not before
        assert after[0] + after[1] == pytest.approx(state.final_output())


class TestUPASession:
    def test_plain_output_matches_reference(self, small_tables):
        query = query_by_name("tpch6")
        session = UPASession(UPAConfig(sample_size=200, seed=0))
        result = session.run(query, small_tables)
        assert result.plain_output[0] == pytest.approx(
            query.output(small_tables)[0]
        )

    def test_vanilla_matches_reference(self, small_tables):
        query = query_by_name("tpch6")
        session = UPASession()
        output, elapsed = session.run_vanilla(query, small_tables)
        assert output[0] == pytest.approx(query.output(small_tables)[0])
        assert elapsed >= 0

    @pytest.mark.parametrize("parts", [0, -2, 2.5, True])
    def test_engine_partitions_must_be_a_positive_int(self, parts):
        with pytest.raises(DPError, match="engine_partitions must be an int"):
            UPAConfig(engine_partitions=parts)

    def test_removal_outputs_match_bruteforce_subset(self, small_tables):
        """Every sampled removal output equals f(x - s_i) exactly."""
        query = query_by_name("tpch1")
        session = UPASession(UPAConfig(sample_size=100, seed=7))
        result = session.run(query, small_tables)
        expected = len(small_tables["lineitem"]) - 1
        assert np.all(result.removal_outputs == expected)

    def test_noise_changes_with_seed(self, small_tables):
        query = query_by_name("tpch1")
        a = UPASession(UPAConfig(sample_size=50, seed=1)).run(query, small_tables)
        b = UPASession(UPAConfig(sample_size=50, seed=2)).run(query, small_tables)
        assert a.noisy_scalar() != b.noisy_scalar()

    def test_same_seed_reproducible(self, small_tables):
        query = query_by_name("tpch1")
        a = UPASession(UPAConfig(sample_size=50, seed=5)).run(query, small_tables)
        b = UPASession(UPAConfig(sample_size=50, seed=5)).run(query, small_tables)
        assert a.noisy_scalar() == b.noisy_scalar()

    def test_epsilon_must_be_positive(self, small_tables):
        session = UPASession()
        with pytest.raises(DPError):
            session.run(query_by_name("tpch1"), small_tables, epsilon=0.0)

    def test_budget_accounting(self, small_tables):
        accountant = PrivacyAccountant(total_epsilon=0.15)
        session = UPASession(
            UPAConfig(sample_size=50, seed=0), accountant=accountant
        )
        query = query_by_name("tpch1")
        session.run(query, small_tables, epsilon=0.1)
        # A neighbour is a fresh release; an identical resubmission
        # would replay for free.
        neighbour = dict(small_tables)
        neighbour["lineitem"] = small_tables["lineitem"][:-1]
        with pytest.raises(PrivacyBudgetExceeded):
            session.run(query, neighbour, epsilon=0.1)

    @pytest.mark.parametrize("tables", [{"lineitem": []}, {}])
    def test_refused_table_costs_nothing(self, tables):
        """An empty or absent protected table is refused before ε is
        charged: accountant, ledger and enforcer registry stay as is."""
        accountant = PrivacyAccountant(total_epsilon=1.0)
        ledger = PrivacyLedger()
        session = UPASession(
            UPAConfig(sample_size=50, seed=0),
            accountant=accountant, ledger=ledger,
        )
        with pytest.raises(DPError, match="protected table 'lineitem'"):
            session.run(query_by_name("tpch6"), tables, epsilon=0.1)
        assert accountant.spent() == 0
        assert len(ledger) == 0
        assert len(session.enforcer) == 0
        assert session._tables._answers == {}

    def test_refused_release_costs_nothing_and_is_logged(self, tpch21_x):
        """tpch21 on x, then on x minus its last k records for k = 1,
        2, ... — every submission a neighbour of the one before, none
        an identical resubmission — dead-ends RANGE ENFORCER.  Epsilon
        is charged at the commit point, so accountant and ledger agree
        and every refusal leaves a zero-epsilon ``refused`` row."""
        query, tables = tpch21_x
        rows = tables[query.protected_table]
        accountant = PrivacyAccountant(total_epsilon=1e9)
        ledger = PrivacyLedger()
        session = UPASession(
            UPAConfig(sample_size=1000, epsilon=0.1, seed=3),
            accountant=accountant, ledger=ledger,
        )
        released = 0
        for k in range(20):
            shrunk = {**tables, query.protected_table: rows[:len(rows) - k]}
            try:
                session.run(query, shrunk)
                released += 1
            except DPError as error:
                assert "exhausted sampled records" in str(error)
        assert released == 5
        refused = [entry for entry in ledger if entry.refused]
        assert len(ledger) == 20 and len(refused) == 15
        assert all(
            entry.epsilon_charged == 0.0 and entry.matched_prior
            and entry.noise_scale is None
            for entry in refused
        )
        assert all(
            entry.noise_scale == max(entry.local_sensitivity, 1.0) / 0.1
            for entry in ledger if not entry.refused
        )
        spent = accountant.spent()
        assert spent == pytest.approx(0.5)
        assert spent == pytest.approx(ledger.totals()["epsilon_charged"])
        assert len(accountant.history()) == len(session.enforcer) == 5
        assert refused[-1].accountant_spent_epsilon == pytest.approx(0.5)

    def test_resubmitting_x_and_x_minus_one_never_dead_ends(self, tpch21_x):
        """The benchmarks/e2e/README.md reproducer: tpch21 on x and on
        x minus its last record, 200 times in turn.  Only the first
        two are releases; the rest replay them, so RANGE ENFORCER never
        sees a resubmission and nothing is refused."""
        query, tables = tpch21_x
        minus_one = dict(tables)
        minus_one[query.protected_table] = tables[query.protected_table][:-1]
        accountant = PrivacyAccountant(total_epsilon=1e9)
        ledger = PrivacyLedger()
        session = UPASession(
            UPAConfig(sample_size=1000, epsilon=0.1, seed=3),
            accountant=accountant, ledger=ledger,
        )
        for i in range(200):
            session.run(query, tables if i % 2 == 0 else minus_one)
        totals = ledger.totals()
        assert totals["refused"] == 0 and totals["cache_hits"] == 198
        spent = accountant.spent()
        assert spent == pytest.approx(totals["epsilon_charged"])
        assert spent == pytest.approx(2 * 0.1)
        assert len(session.enforcer) == 2

    def test_unaffordable_release_is_refused_before_any_work(
        self, small_tables
    ):
        """The up-front balance check registers nothing with the
        enforcer and draws nothing from the session's rng."""
        accountant = PrivacyAccountant(total_epsilon=0.05)
        session = UPASession(
            UPAConfig(sample_size=50, seed=0), accountant=accountant
        )
        with pytest.raises(PrivacyBudgetExceeded):
            session.run(query_by_name("tpch1"), small_tables, epsilon=0.1)
        assert len(session.enforcer) == 0
        assert session.engine.metrics.get(MetricsRegistry.JOBS) == 0
        assert accountant.spent() == 0

    def test_replays_hash_a_table_once_per_session(
        self, small_tables, monkeypatch
    ):
        """A replay is found by the registered table's stored
        fingerprints: one hash for k identical submissions, and every
        replay still writes its zero-epsilon ledger row."""
        calls = []
        real = sampling_mod.fingerprint_columns

        def counting(records):
            calls.append(len(records))
            return real(records)

        monkeypatch.setattr(sampling_mod, "fingerprint_columns", counting)
        query = query_by_name("tpch6")
        rows = len(small_tables["lineitem"])
        ledger = PrivacyLedger()
        session = UPASession(UPAConfig(sample_size=50, seed=0), ledger=ledger)
        first = session.run(query, small_tables, epsilon=0.5)
        for _ in range(3):
            assert session.run(query, small_tables, epsilon=0.5) is first
        assert calls == [rows]
        assert [
            (entry.cache_hit, entry.epsilon_charged)
            for entry in ledger.entries()
        ] == [(False, 0.5)] + [(True, 0.0)] * 3
        metrics = session.engine.metrics
        assert metrics.get(MetricsRegistry.RELEASE_REPLAYS) == 3
        assert metrics.get(MetricsRegistry.TABLE_REGISTRATIONS) == 1
        # the first release paid the hash: only the replays reused it.
        assert metrics.get(MetricsRegistry.TABLE_REUSES) == 3
        del calls[:]
        plain = UPASession(UPAConfig(sample_size=50, seed=0)).run(
            query, small_tables, epsilon=0.5
        )
        assert calls == [rows]
        np.testing.assert_array_equal(first.noisy_output, plain.noisy_output)
        np.testing.assert_array_equal(
            first.removal_outputs, plain.removal_outputs
        )

    def test_smaller_epsilon_noisier(self, small_tables):
        query = query_by_name("tpch6")
        spreads = {}
        for epsilon in (10.0, 0.01):
            outs = []
            for seed in range(8):
                session = UPASession(UPAConfig(sample_size=50, seed=seed))
                outs.append(
                    session.run(query, small_tables, epsilon=epsilon)
                    .noisy_scalar()
                )
            spreads[epsilon] = np.std(outs)
        assert spreads[0.01] > 10 * spreads[10.0]

    def test_repeated_query_detected_as_attack(self, small_tables):
        """The paper's threat scenario: same query, neighbouring input."""
        query = query_by_name("tpch1")
        session = UPASession(UPAConfig(sample_size=60, seed=3))
        first = session.run(query, small_tables, epsilon=0.5)
        assert not first.enforcement.matched_prior

        neighbour_tables = dict(small_tables)
        neighbour_tables["lineitem"] = small_tables["lineitem"][:-1]
        second = session.run(query, neighbour_tables, epsilon=0.5)
        assert second.enforcement.matched_prior
        assert second.enforcement.records_removed >= 2

    def test_enforced_output_always_in_range(self, small_tables):
        query = query_by_name("tpch13")
        session = UPASession(UPAConfig(sample_size=100, seed=1))
        result = session.run(query, small_tables)
        assert result.inferred_range.contains(result.raw_output)

    def test_metrics_capture_shuffle_free_run(self, small_tables):
        query = query_by_name("tpch1")
        session = UPASession(UPAConfig(sample_size=50, seed=2))
        result = session.run(query, small_tables)
        assert result.metrics.get(MetricsRegistry.JOBS) > 0

    def test_vector_query_end_to_end(self, ml_tables):
        from repro.mining import LinearRegressionQuery

        query = LinearRegressionQuery(dim=3)
        session = UPASession(UPAConfig(sample_size=80, seed=6))
        result = session.run(query, ml_tables, epsilon=1.0)
        assert result.noisy_output.shape == (4,)
        assert result.local_sensitivity > 0

    def test_infer_sensitivity_no_budget_no_registration(self, small_tables):
        accountant = PrivacyAccountant(total_epsilon=0.1)
        session = UPASession(
            UPAConfig(sample_size=40, seed=0), accountant=accountant
        )
        session.infer_sensitivity(query_by_name("tpch1"), small_tables)
        assert accountant.remaining_epsilon() == pytest.approx(0.1)
        assert len(session.enforcer) == 0

    def test_estimated_ls_close_to_truth_for_count(self, small_tables):
        from repro.baselines import exact_local_sensitivity

        query = query_by_name("tpch1")
        session = UPASession(UPAConfig(sample_size=100, seed=0))
        result = session.run(query, small_tables)
        truth = exact_local_sensitivity(
            query, small_tables, addition_samples=100
        )
        assert result.estimated_local_sensitivity == pytest.approx(
            truth.local_sensitivity
        )
