"""Tests for the monthly series analyses (Figures 1-4)."""

import numpy as np
import pytest

from repro.analysis.monthly import (
    completion_month,
    completion_times,
    monthly_growth,
    type_proportions,
    visibility_share,
)
from repro.core import ContractType, Month


class TestMonthlyGrowth:
    def test_created_totals_match(self, dataset):
        growth = monthly_growth(dataset)
        assert sum(g.contracts_created for g in growth) == len(dataset.contracts)

    def test_completed_totals_match(self, dataset):
        growth = monthly_growth(dataset)
        assert sum(g.contracts_completed for g in growth) == len(dataset.completed())

    def test_new_members_sum_to_participants(self, dataset):
        growth = monthly_growth(dataset)
        assert sum(g.new_members_created for g in growth) == len(
            dataset.participant_ids()
        )

    def test_new_members_completed_never_exceed_created_cumulative(self, dataset):
        growth = monthly_growth(dataset)
        total_completed_members = sum(g.new_members_completed for g in growth)
        total_created_members = sum(g.new_members_created for g in growth)
        assert total_completed_members <= total_created_members

    def test_months_sorted(self, dataset):
        growth = monthly_growth(dataset)
        months = [g.month for g in growth]
        assert months == sorted(months)

    def test_march_2019_member_influx(self, dataset):
        growth = {g.month: g for g in monthly_growth(dataset)}
        feb = growth[Month(2019, 2)].new_members_created
        mar = growth[Month(2019, 3)].new_members_created
        assert mar > 1.5 * feb


class TestVisibilityShare:
    def test_shares_in_unit_interval(self, dataset):
        shares = visibility_share(dataset)
        for values in shares.values():
            assert 0.0 <= values["created"] <= 1.0
            assert 0.0 <= values["completed"] <= 1.0

    def test_early_months_high_public(self, dataset):
        shares = visibility_share(dataset)
        assert shares[Month(2018, 6)]["created"] > 0.3

    def test_stable_months_low_public(self, dataset):
        shares = visibility_share(dataset)
        assert shares[Month(2019, 8)]["created"] < 0.2

    def test_completed_share_usually_higher(self, seed_markets):
        # Stated over the seed markets: one 2% draw can leave most of its
        # thin months with few completed public contracts.
        fractions = []
        for market in seed_markets:
            shares = visibility_share(market)
            higher = sum(
                1 for v in shares.values() if v["completed"] >= v["created"]
            )
            fractions.append(higher / len(shares))
        assert np.mean(fractions) > 0.55


class TestTypeProportions:
    def test_shares_sum_to_one(self, dataset):
        proportions = type_proportions(dataset)
        for values in proportions.values():
            assert sum(values.values()) == pytest.approx(1.0)

    def test_completed_only_variant(self, dataset):
        proportions = type_proportions(dataset, completed_only=True)
        for values in proportions.values():
            assert sum(values.values()) == pytest.approx(1.0)

    def test_sale_share_jumps_at_stable(self, dataset):
        proportions = type_proportions(dataset)
        before = proportions[Month(2019, 2)][ContractType.SALE]
        after = proportions[Month(2019, 4)][ContractType.SALE]
        assert after > before + 0.12


class TestCompletionTimes:
    def test_only_dated_completions_counted(self, dataset):
        times = completion_times(dataset)
        assert times  # non-empty
        for values in times.values():
            for hours in values.values():
                assert hours > 0

    def test_decline_over_study(self, dataset):
        times = completion_times(dataset)
        early = times[Month(2018, 7)][ContractType.SALE]
        late = times[Month(2020, 5)][ContractType.SALE]
        assert late < early

    def test_completion_month_helper(self, dataset):
        for contract in dataset.completed()[:50]:
            month = completion_month(contract)
            assert month is not None
        for contract in dataset.contracts:
            if not contract.is_complete:
                assert completion_month(contract) is None
                break
