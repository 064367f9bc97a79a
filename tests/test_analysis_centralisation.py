"""Tests for the centralisation analyses (Figures 5 and 6)."""

import numpy as np
import pytest

from repro.analysis.centralisation import (
    concentration_curves,
    key_share_by_month,
)


class TestConcentrationCurves:
    def test_curves_monotone(self, dataset):
        curves = concentration_curves(dataset, percents=(5, 10, 30, 70, 100))
        for curve in (curves.users_created, curves.threads_created):
            values = [curve[p] for p in (5, 10, 30, 70, 100)]
            assert values == sorted(values)

    def test_full_percent_covers_everything(self, dataset):
        curves = concentration_curves(dataset, percents=(100,))
        assert curves.users_created[100] == pytest.approx(1.0)
        assert curves.threads_created[100] == pytest.approx(1.0)

    def test_market_concentrated(self, seed_markets):
        # Paper: ~5% of users cover >70% of contracts.  At 2% scale the
        # bar is stated on the mean over the seed markets, not one draw.
        shares = [
            concentration_curves(market, percents=(5,)).users_created[5]
            for market in seed_markets
        ]
        assert np.mean(shares) > 0.45

    def test_threads_concentrated(self, dataset):
        # Paper: top 30% of threads cover ~70% of thread-linked contracts.
        curves = concentration_curves(dataset, percents=(30,))
        assert curves.threads_created[30] > 0.5

    def test_gini_high(self, dataset):
        curves = concentration_curves(dataset)
        assert curves.user_gini_created > 0.5


class TestKeyShare:
    def test_shares_in_unit_interval(self, dataset):
        for point in key_share_by_month(dataset):
            for value in (
                point.key_members_created,
                point.key_members_completed,
                point.key_threads_created,
                point.key_threads_completed,
            ):
                assert 0.0 <= value <= 1.0

    def test_key_members_substantial(self, dataset):
        points = key_share_by_month(dataset)
        mean_share = sum(p.key_members_created for p in points) / len(points)
        assert mean_share > 0.25

    def test_monthly_grid_complete(self, dataset):
        points = key_share_by_month(dataset)
        months = [p.month for p in points]
        assert months == sorted(months)
        # 25 study months, plus possibly July 2020 when a late-June deal
        # records its completion a few days past the collection window
        assert 25 <= len(months) <= 26

    def test_custom_percent(self, dataset):
        wide = key_share_by_month(dataset, percent=50.0)
        narrow = key_share_by_month(dataset, percent=5.0)
        for w, n in zip(wide, narrow):
            assert w.key_members_created >= n.key_members_created
