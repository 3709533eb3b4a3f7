"""Tests for UPASession's noise mechanism: Laplace, charged at delta 0."""

import pytest

from repro.common.errors import DPError
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
    def test_config_has_no_mechanism_choice(self):
        with pytest.raises(TypeError):
            UPAConfig(mechanism="gaussian")
        with pytest.raises(TypeError):
            UPAConfig(delta=1e-6)

    def test_laplace_charges_no_delta(self, tables):
        accountant = PrivacyAccountant(total_epsilon=1.0, total_delta=0.0)
        session = UPASession(
            UPAConfig(sample_size=60, seed=1), accountant=accountant
        )
        session.run(query_by_name("tpch1"), tables, epsilon=0.3)
        assert accountant.spent()[1] == 0.0

    def test_non_finite_epsilon_rejected(self, tables):
        session = UPASession(UPAConfig(sample_size=4, seed=0))
        with pytest.raises(Exception, match="finite"):
            session.run(query_by_name("tpch1"), tables,
                        epsilon=float("inf"))

    def test_noise_reproducible_from_the_seed(self, tables):
        def release(seed):
            session = UPASession(UPAConfig(sample_size=60, seed=seed))
            return session.run(
                query_by_name("tpch1"), tables, epsilon=0.5
            ).noisy_scalar()

        assert release(9) == release(9)
        assert release(9) != release(10)

    @pytest.mark.parametrize("epsilon", [
        0.0, -0.5, float("nan"), float("inf"),
    ])
    def test_invalid_release_charges_nothing(self, epsilon):
        """epsilon is checked before the accountant is asked, so a
        release the session rejects spends nothing and leaves no ledger
        row."""
        workload = workload_by_name("tpch6")
        accountant = PrivacyAccountant(10.0)
        ledger = PrivacyLedger()
        session = UPASession(
            UPAConfig(sample_size=200, seed=77),
            accountant=accountant, ledger=ledger,
        )
        with pytest.raises(DPError, match="positive and finite"):
            session.run(workload.query, workload.make_tables(4000, 11),
                        epsilon=epsilon)
        assert accountant.spent() == (0.0, 0.0)
        assert len(ledger) == 0

    @pytest.mark.parametrize("step", ["append", "retire"])
    def test_invalid_incremental_release_charges_nothing(self, step):
        """append() and retire() answer through run(), so the same check
        guards them: only the valid first release is charged."""
        workload = workload_by_name("tpch6")
        tables = workload.make_tables(4000, 11)
        rows = tables["lineitem"]
        held = rows[-40:]
        del rows[-40:]
        accountant = PrivacyAccountant(10.0)
        ledger = PrivacyLedger()
        session = UPASession(
            UPAConfig(sample_size=200, seed=77),
            accountant=accountant, ledger=ledger,
        )
        session.run(workload.query, tables, epsilon=0.5)
        with pytest.raises(DPError, match="positive and finite"):
            if step == "append":
                session.append(held, epsilon=-1.0)
            else:
                session.retire(40, epsilon=-1.0)
        assert accountant.spent() == (0.5, 0.0)
        assert len(ledger) == 1
        assert ledger.totals()["epsilon_charged"] == 0.5
