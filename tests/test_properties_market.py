"""Property-based tests over market-domain components (hypothesis)."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain.chain import Ledger, make_address, make_txhash
from repro.blockchain.rates import RateOracle
from repro.core import Visibility
from repro.synth import SimulationConfig
from repro.synth.config import interpolate_curve
from repro.synth.engine import run_engine
from repro.core.timeutils import Month, month_range

_ORACLE = RateOracle()

days = st.dates(min_value=dt.date(2018, 6, 1), max_value=dt.date(2020, 6, 30))
amounts = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)
currencies = st.sampled_from(_ORACLE.supported())


class TestRateProperties:
    @given(days, currencies)
    def test_rates_positive_and_deterministic(self, day, currency):
        rate = _ORACLE.usd_per_unit(currency, day)
        assert rate > 0
        assert rate == _ORACLE.usd_per_unit(currency, day)

    @given(days, currencies, amounts)
    def test_conversion_roundtrip(self, day, currency, amount):
        usd = _ORACLE.to_usd(amount, currency, day)
        back = _ORACLE.from_usd(usd, currency, day)
        assert back == pytest.approx(amount, rel=1e-9)

    @given(days)
    def test_btc_in_era_plausible_band(self, day):
        rate = _ORACLE.usd_per_unit("BTC", day)
        assert 3000 < rate < 12000


class TestLedgerProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**6), unique=True,
                    min_size=1, max_size=30))
    def test_all_recorded_found(self, seeds):
        ledger = Ledger()
        when = dt.datetime(2019, 6, 1)
        for seed in seeds:
            ledger.record(seed, make_address(seed), when, 0.01)
        assert len(ledger) == len(seeds)
        for seed in seeds:
            assert ledger.lookup(make_txhash(seed)) is not None

    @given(st.integers(min_value=0, max_value=10**9))
    def test_address_format(self, seed):
        address = make_address(seed)
        assert address.startswith("1")
        assert len(address) == 34
        txhash = make_txhash(seed)
        assert len(txhash) == 64
        int(txhash, 16)  # valid hex


class TestObligationProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_spec_invariants(self, seed):
        # A public-share curve of 1.0 makes (nearly) every contract
        # public, and every public contract carries a spec.
        result = run_engine(SimulationConfig(
            scale=0.002, seed=seed, public_share=[("2018-06", 1.0)],
            generate_posts=False,
        ))
        tables = result.dataset.tables
        specs = result.truth.specs
        public = tables["c_visibility"] == tuple(Visibility).index(Visibility.PUBLIC)
        assert sorted(specs) == tables["c_id"][public].tolist()
        for row in np.flatnonzero(public).tolist():
            spec = specs[int(tables["c_id"][row])]
            assert spec.maker_text == tables["c_maker_obligation"][row]
            assert spec.taker_text == tables["c_taker_obligation"][row]
            assert 0.0 <= spec.value_usd <= 9900.0
            assert spec.categories
            if spec.uses_bitcoin:
                assert "bitcoin" in spec.methods


class TestCurveProperties:
    anchors = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=24),
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda kv: kv[0],
    )

    @given(anchors)
    def test_interpolation_bounded_by_anchor_range(self, points):
        months = month_range(Month(2018, 6), Month(2020, 6))
        curve = [(str(months[i]), v) for i, v in points]
        values = interpolate_curve(curve, months)
        lo = min(v for _, v in points)
        hi = max(v for _, v in points)
        for value in values.values():
            assert lo - 1e-9 <= value <= hi + 1e-9

    @given(anchors)
    def test_every_month_covered(self, points):
        months = month_range(Month(2018, 6), Month(2020, 6))
        curve = [(str(months[i]), v) for i, v in points]
        values = interpolate_curve(curve, months)
        assert set(values) == set(months)
