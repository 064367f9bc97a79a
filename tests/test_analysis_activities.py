"""Tests for the trading-activity and payment-method analyses."""

import pytest

from repro.analysis.activities import product_evolution, top_trading_activities
from repro.analysis.payments import (
    payment_evolution,
    payment_related_contracts,
    top_payment_methods,
)


class TestTradingActivities:
    def test_currency_exchange_tops_table(self, dataset):
        table = top_trading_activities(dataset)
        top = table.top(15)
        assert top[0].category == "currency_exchange"

    def test_currency_exchange_majority_share(self, dataset):
        table = top_trading_activities(dataset)
        assert table.share("currency_exchange") > 0.5

    def test_both_leq_makers_plus_takers(self, dataset):
        table = top_trading_activities(dataset)
        for row in table.rows.values():
            assert row.both_contracts <= row.maker_contracts + row.taker_contracts
            assert row.both_contracts >= max(row.maker_contracts, row.taker_contracts)

    def test_currency_exchange_both_below_sum(self, dataset):
        # both sides are one category -> total smaller than makers+takers
        row = table = top_trading_activities(dataset).rows["currency_exchange"]
        assert row.both_contracts < row.maker_contracts + row.taker_contracts

    def test_all_row_bounds(self, dataset):
        table = top_trading_activities(dataset)
        assert table.all_row.both_contracts <= table.n_contracts

    def test_unique_users_at_most_two_per_contract(self, dataset):
        table = top_trading_activities(dataset)
        for row in table.rows.values():
            assert len(row.both_users) <= 2 * max(row.both_contracts, 1)

    def test_giftcard_in_top_five(self, dataset):
        table = top_trading_activities(dataset)
        top_keys = [r.category for r in table.top(5)]
        assert "giftcard" in top_keys

    def test_restricted_contract_list(self, dataset):
        subset = dataset.completed_public()[:50]
        table = top_trading_activities(dataset.subset(subset))
        assert table.n_contracts == 50


class TestProductEvolution:
    def test_excludes_currency_and_payments(self, dataset):
        evolution = product_evolution(dataset)
        assert "currency_exchange" not in evolution
        assert "payments" not in evolution

    def test_top_n_respected(self, dataset):
        assert len(product_evolution(dataset, top_n=3)) == 3

    def test_monthly_counts_positive(self, dataset):
        evolution = product_evolution(dataset)
        for series in evolution.values():
            assert all(count > 0 for count in series.values())

    def test_giftcard_is_tracked(self, dataset):
        assert "giftcard" in product_evolution(dataset)


class TestPaymentMethods:
    def test_bitcoin_and_paypal_top_two(self, dataset):
        table = top_payment_methods(dataset)
        top = [row.method for row in table.top(2)]
        assert top == ["bitcoin", "paypal"]

    def test_bitcoin_share_majority(self, dataset):
        table = top_payment_methods(dataset)
        assert table.share("bitcoin") > 0.5

    def test_selected_contracts_payment_related(self, dataset):
        selected = payment_related_contracts(dataset)
        assert 0 < len(selected) <= len(dataset.completed_public())

    def test_all_row_counts(self, dataset):
        table = top_payment_methods(dataset)
        assert table.all_row.both_contracts <= table.n_contracts

    def test_transactions_per_trader(self, dataset):
        table = top_payment_methods(dataset)
        for row in table.top(5):
            assert row.transactions_per_trader >= 0.5

    def test_evolution_tracks_top_methods(self, dataset):
        evolution = payment_evolution(dataset)
        assert "bitcoin" in evolution
        assert "paypal" in evolution
        assert len(evolution) == 5

    def test_evolution_counts_positive(self, dataset):
        for series in payment_evolution(dataset).values():
            assert all(count > 0 for count in series.values())
