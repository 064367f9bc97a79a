"""Tests that generated obligations are recoverable by the text pipeline.

The specs are the generator's own: one market with a flat public-share
curve of 1.0, so nearly every contract is public and carries the
obligation texts it emitted and the :class:`ObligationSpec` recording
what it meant to say.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.core import ContractType
from repro.core.columns import CTYPE_ORDER, era_indexes_of
from repro.synth import SimulationConfig
from repro.synth.engine import run_engine
from repro.text.payments import extract_payment_methods
from repro.text.taxonomy import UNCATEGORISED, categorize_sides
from repro.text.values import extract_values


@pytest.fixture(scope="module")
def market():
    return run_engine(SimulationConfig(
        scale=0.05, seed=42, public_share=[("2018-06", 1.0)],
        generate_posts=False,
    ))


@pytest.fixture(scope="module")
def specs(market):
    """ctype -> [(era index, spec)] over the market's public contracts."""
    tables = market.dataset.tables
    eras = era_indexes_of(tables["c_created_us"])
    by_type = defaultdict(list)
    for row, contract_id in enumerate(tables["c_id"].tolist()):
        spec = market.truth.specs.get(contract_id)
        if spec is not None:
            ctype = CTYPE_ORDER[int(tables["c_type"][row])]
            by_type[ctype].append((int(eras[row]), spec))
    return by_type


def of_type(specs, ctype, vague=True):
    return [
        spec for _, spec in specs[ctype]
        if vague or spec.categories != {UNCATEGORISED}
    ]


def every(specs):
    return [spec for pairs in specs.values() for _, spec in pairs]


class TestCategoryRecovery:
    @pytest.mark.parametrize("ctype", list(ContractType))
    def test_intended_categories_recovered(self, specs, ctype):
        """The regex taxonomy must find the generator's intended buckets."""
        checked = of_type(specs, ctype, vague=False)
        hits = sum(
            1 for spec in checked
            if spec.categories & categorize_sides(spec.maker_text, spec.taker_text)
        )
        assert len(checked) > 20
        assert hits / len(checked) > 0.95

    def test_vague_specs_uncategorised(self, specs):
        vague = [spec for spec in every(specs)
                 if spec.categories == {UNCATEGORISED}]
        assert vague
        for spec in vague:
            found = categorize_sides(spec.maker_text, spec.taker_text)
            assert found == {UNCATEGORISED}

    def test_exchange_mostly_currency(self, specs):
        exchange = of_type(specs, ContractType.EXCHANGE)
        currency = sum(1 for s in exchange if "currency_exchange" in s.categories)
        assert currency / len(exchange) > 0.6

    def test_vouch_copy_is_hackforums(self, specs):
        real = of_type(specs, ContractType.VOUCH_COPY, vague=False)
        assert real
        assert all("hackforums_related" in s.categories for s in real)


class TestMethodAndValueRecovery:
    def test_methods_recovered(self, specs):
        checked = [s for s in of_type(specs, ContractType.EXCHANGE) if s.methods]
        hits = sum(
            1 for spec in checked
            if spec.methods <= extract_payment_methods(
                spec.maker_text + " " + spec.taker_text
            )
        )
        assert hits / len(checked) > 0.9

    def test_values_extractable(self, specs):
        checked = [s for s in of_type(specs, ContractType.SALE) if s.value_usd > 0]
        hits = sum(
            1 for spec in checked
            if extract_values(spec.maker_text) + extract_values(spec.taker_text)
        )
        assert hits / len(checked) > 0.95

    def test_values_capped(self, specs):
        assert all(s.value_usd <= 9900.0 for s in every(specs))

    def test_exchange_two_distinct_methods(self, specs):
        exchanges = [
            s for s in of_type(specs, ContractType.EXCHANGE)
            if "currency_exchange" in s.categories
        ]
        assert any(len(spec.methods) >= 2 for spec in exchanges)

    def test_bitcoin_flag_consistent(self, specs):
        for spec in every(specs):
            assert spec.uses_bitcoin == ("bitcoin" in spec.methods)

    def test_purchase_maker_is_payer(self, specs):
        """PURCHASE: the maker (buyer) side should carry payment text."""
        goods = [
            spec for spec in of_type(specs, ContractType.PURCHASE, vague=False)
            if "currency_exchange" not in spec.categories
        ]
        payer_sides = sum(
            1 for spec in goods if extract_payment_methods(spec.maker_text)
        )
        assert goods
        assert payer_sides / len(goods) > 0.9

    def test_typo_flag_inflates_stated_value(self, specs):
        typo_specs = [
            spec for spec in of_type(specs, ContractType.EXCHANGE) if spec.is_typo
        ]
        for spec in typo_specs:
            values = extract_values(spec.maker_text)
            if not values:
                continue
            stated = max(v.amount for v in values if v.currency == "USD")
            assert stated > spec.maker_usd * 5


class TestSamplers:
    def test_era_factor_shifts_categories(self, specs):
        # hackforums-related surges in COVID (era factor 2.2 vs 1.3)
        def share(era):
            sale = [spec for era_index, spec in specs[ContractType.SALE]
                    if era_index == era]
            hits = sum(1 for s in sale if "hackforums_related" in s.categories)
            return hits / len(sale)

        assert share(2) > share(0)

    def test_pick_method_exclusion(self, specs):
        # The second method is drawn excluding the first, so no exchange
        # names one method twice, bitcoin-paid ones included.
        exchanges = [s for s in every(specs) if "currency_exchange" in s.categories]
        assert any(spec.uses_bitcoin for spec in exchanges)
        assert all(len(spec.methods) == 2 for spec in exchanges)

    def test_pick_value_positive(self, specs):
        valued = [s for s in every(specs) if s.maker_usd is not None]
        assert valued
        assert all(s.value_usd > 0 and s.maker_usd > 0 and s.taker_usd > 0
                   for s in valued)
        assert np.all(np.isfinite([s.value_usd for s in valued]))
