"""Tests for the mechanism choice in UPASession (Laplace vs Gaussian)."""

import numpy as np
import pytest

from repro.common.errors import DPError, PrivacyBudgetExceeded
from repro.core import UPAConfig, UPASession
from repro.dp import PrivacyAccountant
from repro.obs.ledger import PrivacyLedger
from repro.tpch import TPCHConfig, TPCHGenerator
from repro.tpch.workload import query_by_name
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def tables():
    return TPCHGenerator(TPCHConfig(scale_rows=1500, seed=6)).generate()


class TestMechanismChoice:
    def test_invalid_mechanism_rejected(self):
        with pytest.raises(DPError):
            UPAConfig(mechanism="exponential")

    def test_gaussian_runs(self, tables):
        session = UPASession(
            UPAConfig(sample_size=60, seed=1, mechanism="gaussian",
                      delta=1e-6)
        )
        result = session.run(query_by_name("tpch1"), tables, epsilon=0.5)
        assert np.isfinite(result.noisy_scalar())

    def test_gaussian_charges_delta(self, tables):
        accountant = PrivacyAccountant(total_epsilon=1.0, total_delta=1.5e-6)
        session = UPASession(
            UPAConfig(sample_size=60, seed=1, mechanism="gaussian",
                      delta=1e-6),
            accountant=accountant,
        )
        query = query_by_name("tpch1")
        session.run(query, tables, epsilon=0.3)
        _eps, delta = accountant.spent()
        assert delta == pytest.approx(1e-6)
        # A neighbour is a fresh release (an identical resubmission
        # would replay for free): its delta no longer fits.
        neighbour = {**tables, "lineitem": tables["lineitem"][:-1]}
        with pytest.raises(PrivacyBudgetExceeded):
            session.run(query, neighbour, epsilon=0.3)

    def test_laplace_charges_no_delta(self, tables):
        accountant = PrivacyAccountant(total_epsilon=1.0, total_delta=0.0)
        session = UPASession(
            UPAConfig(sample_size=60, seed=1), accountant=accountant
        )
        session.run(query_by_name("tpch1"), tables, epsilon=0.3)
        assert accountant.spent()[1] == 0.0

    def test_noise_reproducible_per_mechanism(self, tables):
        def release(mechanism):
            session = UPASession(
                UPAConfig(sample_size=60, seed=9, mechanism=mechanism)
            )
            return session.run(
                query_by_name("tpch1"), tables, epsilon=0.5
            ).noisy_scalar()

        assert release("laplace") == release("laplace")
        assert release("gaussian") == release("gaussian")
        assert release("laplace") != release("gaussian")

    def test_gaussian_epsilon_must_be_subunit(self, tables):
        session = UPASession(
            UPAConfig(sample_size=60, seed=1, mechanism="gaussian")
        )
        with pytest.raises(DPError):
            session.run(query_by_name("tpch1"), tables, epsilon=2.0)

    @pytest.mark.parametrize("epsilon, delta, message", [
        (1.5, 1e-6, "0 < epsilon < 1"),
        (1.0, 1e-6, "0 < epsilon < 1"),
        (0.5, 0.0, "delta must be in"),
        (0.5, 1.0, "delta must be in"),
    ])
    def test_invalid_gaussian_release_charges_nothing(
        self, epsilon, delta, message
    ):
        """The Gaussian parameters are checked before the accountant is
        asked, so a release the mechanism rejects spends no epsilon or
        delta and leaves no ledger row."""
        workload = workload_by_name("tpch6")
        accountant = PrivacyAccountant(10.0, 1e-3)
        ledger = PrivacyLedger()
        session = UPASession(
            UPAConfig(mechanism="gaussian", delta=delta, sample_size=200,
                      seed=77),
            accountant=accountant, ledger=ledger,
        )
        with pytest.raises(DPError, match=message):
            session.run(workload.query, workload.make_tables(4000, 11),
                        epsilon=epsilon)
        assert accountant.spent() == (0.0, 0.0)
        assert len(ledger) == 0

    @pytest.mark.parametrize("step", ["append", "retire"])
    def test_invalid_gaussian_incremental_release_charges_nothing(
        self, step
    ):
        """append() and retire() answer through run(), so the same check
        guards them: only the valid first release is charged."""
        workload = workload_by_name("tpch6")
        tables = workload.make_tables(4000, 11)
        rows = tables["lineitem"]
        held = rows[-40:]
        del rows[-40:]
        accountant = PrivacyAccountant(10.0, 1e-3)
        ledger = PrivacyLedger()
        session = UPASession(
            UPAConfig(mechanism="gaussian", delta=1e-6, sample_size=200,
                      seed=77),
            accountant=accountant, ledger=ledger,
        )
        session.run(workload.query, tables, epsilon=0.5)
        with pytest.raises(DPError, match="0 < epsilon < 1"):
            if step == "append":
                session.append(held, epsilon=1.5)
            else:
                session.retire(40, epsilon=1.5)
        assert accountant.spent() == (0.5, 1e-6)
        assert len(ledger) == 1
        assert ledger.totals()["epsilon_charged"] == 0.5
