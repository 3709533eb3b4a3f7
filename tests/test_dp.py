"""Tests for DP foundations: the Laplace mechanism and budget accounting."""

import random

import numpy as np
import pytest

from repro.common.errors import DPError, PrivacyBudgetExceeded
from repro.dp import (
    LaplaceMechanism,
    PrivacyAccountant,
    laplace_noise,
)


class TestLaplace:
    def test_scale(self):
        assert LaplaceMechanism(0.5).scale(2.0) == 4.0

    def test_zero_sensitivity_adds_no_noise(self):
        mech = LaplaceMechanism(1.0, seed=1)
        assert mech.randomize(5.0, 0.0) == 5.0

    def test_deterministic_with_seed(self):
        a = LaplaceMechanism(1.0, seed=42).randomize(0.0, 1.0)
        b = LaplaceMechanism(1.0, seed=42).randomize(0.0, 1.0)
        assert a == b

    def test_noise_magnitude_statistics(self):
        mech = LaplaceMechanism(1.0, seed=0)
        draws = np.array([mech.randomize(0.0, 1.0) for _ in range(4000)])
        # Laplace(0, 1): mean 0, variance 2.
        assert abs(draws.mean()) < 0.1
        assert abs(draws.var() - 2.0) < 0.3

    def test_vector_output(self):
        mech = LaplaceMechanism(1.0, seed=3)
        out = mech.randomize(np.zeros(5), 1.0)
        assert out.shape == (5,)
        assert not np.allclose(out, 0.0)

    def test_invalid_epsilon(self):
        with pytest.raises(DPError):
            LaplaceMechanism(0.0)

    def test_negative_sensitivity(self):
        with pytest.raises(DPError):
            LaplaceMechanism(1.0).randomize(0.0, -1.0)

    def test_laplace_noise_validation(self):
        with pytest.raises(DPError):
            laplace_noise(-1.0)

    def test_smaller_epsilon_means_more_noise(self):
        tight = LaplaceMechanism(10.0, seed=5)
        loose = LaplaceMechanism(0.01, seed=5)
        tight_spread = np.std(
            [tight.randomize(0.0, 1.0) for _ in range(500)]
        )
        loose_spread = np.std(
            [loose.randomize(0.0, 1.0) for _ in range(500)]
        )
        assert loose_spread > 50 * tight_spread


class TestAccountant:
    def test_charges_accumulate(self):
        acct = PrivacyAccountant(total_epsilon=1.0)
        acct.charge(0.3, label="q1")
        acct.charge(0.3, label="q2")
        assert acct.remaining_epsilon() == pytest.approx(0.4)
        assert acct.history() == [(0.3, "q1"), (0.3, "q2")]

    def test_balance_is_the_sum_of_the_charges_bit_for_bit(self):
        # The running totals replace a sum() over every charge, per
        # read; they must be what that sum returned, on this Python.
        rng = random.Random(8)
        epsilons = [rng.uniform(1e-4, 0.3) for _ in range(3000)]
        epsilons[::97] = [rng.uniform(1e3, 1e6) for _ in epsilons[::97]]
        epsilons[::89] = [rng.uniform(1e-12, 1e-9) for _ in epsilons[::89]]
        acct = PrivacyAccountant(total_epsilon=1e12)
        for i, eps in enumerate(epsilons):
            acct.charge(eps)
            if i % 500 == 0 or i == len(epsilons) - 1:
                assert acct.spent().hex() == sum(epsilons[:i + 1]).hex()
        assert acct.spent() == sum(epsilons)
        assert acct.remaining_epsilon() == 1e12 - sum(epsilons)

    def test_int_charges_stay_ints_until_a_float(self):
        acct = PrivacyAccountant(total_epsilon=10)
        acct.charge(1)
        acct.charge(2)
        assert acct.spent() == 3 and type(acct.spent()) is int
        acct.charge(0.1)
        assert acct.spent() == sum([1, 2, 0.1])

    def test_exceeding_budget_raises(self):
        acct = PrivacyAccountant(total_epsilon=0.5)
        acct.charge(0.4)
        with pytest.raises(PrivacyBudgetExceeded):
            acct.charge(0.2)

    def test_rejected_charge_not_recorded(self):
        acct = PrivacyAccountant(total_epsilon=0.5)
        acct.charge(0.4)
        try:
            acct.charge(0.2)
        except PrivacyBudgetExceeded:
            pass
        assert acct.remaining_epsilon() == pytest.approx(0.1)

    def test_require_raises_what_charge_would_and_records_nothing(self):
        acct = PrivacyAccountant(total_epsilon=0.5)
        acct.require(0.5)
        assert acct.spent() == 0 and acct.history() == []
        acct.charge(0.4)
        with pytest.raises(PrivacyBudgetExceeded):
            acct.require(0.2)
        with pytest.raises(DPError):
            acct.require(0.0)
        assert acct.remaining_epsilon() == pytest.approx(0.1)

    def test_there_is_no_delta(self):
        """Every mechanism is pure epsilon-DP: no delta is settable."""
        with pytest.raises(TypeError):
            PrivacyAccountant(1.0, total_delta=1e-5)
        acct = PrivacyAccountant(1.0)
        with pytest.raises(TypeError):
            acct.charge(0.1, delta=1e-9)
        with pytest.raises(TypeError):
            acct.require(0.1, delta=1e-9)
        assert not hasattr(acct, "remaining_delta")

    def test_invalid_budgets(self):
        with pytest.raises(DPError):
            PrivacyAccountant(total_epsilon=0.0)

    def test_invalid_charges(self):
        acct = PrivacyAccountant(1.0)
        with pytest.raises(DPError):
            acct.charge(0.0)


class TestAccountantHardening:
    def test_repr_shows_spend_and_remaining(self):
        from repro.dp import PrivacyAccountant

        acct = PrivacyAccountant(total_epsilon=1.0)
        acct.charge(0.25, label="q")
        text = repr(acct)
        assert "0.25" in text and "0.75" in text and "queries=1" in text

    def test_non_finite_parameters_rejected(self):
        from repro.common.errors import DPError
        from repro.dp import PrivacyAccountant

        for bad in (float("nan"), float("inf")):
            with pytest.raises(DPError):
                PrivacyAccountant(total_epsilon=bad)
        acct = PrivacyAccountant(total_epsilon=1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DPError):
                acct.charge(bad)

    def test_spent_and_charge_agree(self):
        from repro.dp import PrivacyAccountant

        acct = PrivacyAccountant(total_epsilon=1.0)
        acct.charge(0.3, label="a")
        acct.charge(0.2, label="b")
        assert acct.spent() == pytest.approx(0.5)
        assert acct.remaining_epsilon() == pytest.approx(0.5)
