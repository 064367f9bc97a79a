"""Property-based tests (hypothesis) on core data structures and invariants."""

import datetime as dt
import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.partitions import PartitionStore, PartitionWriter
from repro.core.schema import GLOBAL_KEYS, empty_column
from repro.core.timeutils import Month, add_months, month_of, month_range
from repro.report.tables import render_table
from repro.stats.descriptive import gini, herfindahl, lorenz_curve, top_share
from repro.stats.information import aic, bic
from repro.stats.kmeans import kmeans
from repro.stats.preprocessing import Standardizer, sqrt_transform
from repro.text.normalize import normalize
from repro.text.values import extract_values

months = st.builds(
    Month,
    year=st.integers(min_value=1990, max_value=2100),
    month=st.integers(min_value=1, max_value=12),
)

positive_floats = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestMonthProperties:
    @given(months)
    def test_next_prev_inverse(self, month):
        assert month.next().prev() == month
        assert month.prev().next() == month

    @given(months, st.integers(min_value=-600, max_value=600))
    def test_add_months_consistent_with_index(self, month, offset):
        shifted = add_months(month, offset)
        assert shifted.index_from(month) == offset

    @given(months)
    def test_str_parse_roundtrip(self, month):
        assert Month.parse(str(month)) == month

    @given(months)
    def test_first_last_day_same_month(self, month):
        assert month_of(month.first_day()) == month
        assert month_of(month.last_day()) == month

    @given(months, st.integers(min_value=0, max_value=60))
    def test_month_range_length(self, start, span):
        end = add_months(start, span)
        assert len(month_range(start, end)) == span + 1

    @given(months)
    def test_days_in_valid_range(self, month):
        assert 28 <= month.days() <= 31


class TestConcentrationProperties:
    @given(st.lists(positive_floats, min_size=1, max_size=200))
    def test_gini_bounds(self, values):
        coefficient = gini(values)
        assert -1e-9 <= coefficient < 1.0

    @given(st.lists(positive_floats, min_size=1, max_size=100))
    def test_scale_invariance(self, values):
        if sum(values) == 0:
            return
        assert gini(values) == pytest.approx(gini([v * 3.5 for v in values]), abs=1e-9)

    @given(st.lists(positive_floats, min_size=1, max_size=100),
           st.floats(min_value=1.0, max_value=100.0))
    def test_top_share_bounds(self, values, percent):
        share = top_share(values, percent)
        assert 0.0 <= share <= 1.0 + 1e-12

    @given(st.lists(positive_floats, min_size=2, max_size=100))
    def test_top_share_monotone(self, values):
        small = top_share(values, 10)
        large = top_share(values, 90)
        assert large >= small - 1e-12

    @given(st.lists(positive_floats, min_size=1, max_size=100))
    def test_lorenz_monotone_and_bounded(self, values):
        population, share = lorenz_curve(values)
        assert (np.diff(share) >= -1e-12).all()
        assert share[-1] <= 1.0 + 1e-9

    @given(st.lists(positive_floats, min_size=1, max_size=100))
    def test_herfindahl_bounds(self, values):
        index = herfindahl(values)
        assert 0.0 <= index <= 1.0 + 1e-12


class TestInformationProperties:
    @given(st.floats(min_value=-1e6, max_value=-1e-3),
           st.integers(min_value=1, max_value=100),
           st.integers(min_value=2, max_value=10**6))
    def test_bic_penalises_more_than_aic_for_large_n(self, loglik, k, n):
        if n >= 8:  # ln(n) > 2
            assert bic(loglik, k, n) >= aic(loglik, k)


class TestTextProperties:
    @given(st.text(max_size=300))
    def test_normalize_total(self, text):
        result = normalize(text)
        assert isinstance(result, str)
        assert "  " not in result

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200))
    def test_normalize_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.integers(min_value=1, max_value=10**6))
    def test_dollar_extraction_exact(self, amount):
        values = extract_values(f"sending ${amount:,} paypal")
        assert any(v.amount == float(amount) and v.currency == "USD" for v in values)

    @given(st.floats(min_value=0.001, max_value=10.0, allow_nan=False))
    def test_btc_extraction(self, amount):
        values = extract_values(f"{amount:.4f} btc")
        assert any(v.currency == "BTC" for v in values)


class TestStandardizerProperties:
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip(self, n, d, seed):
        X = np.random.default_rng(seed).normal(size=(n, d)) * 10 + 3
        scaler = Standardizer.fit(X)
        assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_sqrt_transform_monotone(self, seed):
        X = np.abs(np.random.default_rng(seed).normal(size=(10, 2))) * 5
        out = sqrt_transform(X)
        order_in = np.argsort(X[:, 0])
        order_out = np.argsort(out[:, 0])
        assert (order_in == order_out).all()


class TestKMeansProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=5, max_value=40),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_labels_and_inertia_invariants(self, n, k, seed):
        X = np.random.default_rng(seed).normal(size=(n, 2))
        result = kmeans(X, min(k, n), seed=0, n_init=2)
        assert len(result.labels) == n
        assert result.inertia >= -1e-9
        assert result.labels.max() < result.k


class TestRenderTableProperties:
    @given(
        st.lists(
            st.lists(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=8),
                     min_size=2, max_size=2),
            min_size=0, max_size=10,
        )
    )
    def test_consistent_line_count(self, rows):
        lines = render_table(["a", "b"], rows)
        assert len(lines) == 2 + len(rows)


#: Text a stored column can hold: UTF-8 encodable (no lone surrogates)
#: and NUL-free, as NUL is the ``np.str_`` padding character.
nul_free_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00")
)


class TestPartitionTextProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(nul_free_text, max_size=8), min_size=1, max_size=4),
        st.lists(nul_free_text, max_size=8),
    )
    @example(months=[[]], titles=[])  # zero-row month, empty global column
    @example(months=[["", ""], [], [""]], titles=["", ""])  # all empty
    @example(months=[["é", "", "€ 50"], ["𝄞 ok", "日本語"]], titles=["ß"])
    def test_text_columns_round_trip(self, months, titles):
        with tempfile.TemporaryDirectory() as root:
            writer = PartitionWriter(f"{root}/store")
            next_id = 0
            for offset, texts in enumerate(months):
                writer.add_month(600 + offset, {
                    "c_id": np.arange(next_id, next_id + len(texts)),
                    "c_terms": texts,
                    "c_btc_txhash": [text[::-1] for text in texts],
                })
                next_id += len(texts)
            global_tables = {key: empty_column(key) for key in GLOBAL_KEYS}
            global_tables["t_title"] = titles
            writer.set_global(global_tables)
            writer.finalize()

            tables = PartitionStore.open(f"{root}/store").tables()
        flat = [text for texts in months for text in texts]
        assert tables["c_terms"].tolist() == flat
        assert tables["c_btc_txhash"].tolist() == [t[::-1] for t in flat]
        assert tables["t_title"].tolist() == titles
        assert tables["c_terms"].dtype == np.asarray(flat, dtype=np.str_).dtype
