"""Payment-method analysis (§4.4): Table 4 and Figure 10.

Contracts classified into *currency exchange*, *payments* or *giftcard*
are run through the payment-method regex set; counts are reported per
side with unique users, exactly like the activity table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import numpy as np

from ..core.dataset import MarketDataset
from ..core.entities import Contract
from ..core.timeutils import Month
from ..text.payments import PAYMENT_LABELS, PAYMENT_METHODS
from ..text.taxonomy import PAYMENT_RELATED_CATEGORIES
from .textfeatures import (
    TextFeatures,
    category_bits,
    method_bits,
    side_tallies,
    text_features,
    top_monthly,
)

__all__ = [
    "PaymentRow",
    "PaymentTable",
    "payment_related_contracts",
    "top_payment_methods",
    "payment_evolution",
]


@dataclass
class PaymentRow:
    """One Table 4 row: contract and unique-user counts for a method."""

    method: str
    label: str
    maker_contracts: int = 0
    maker_users: Set[int] = field(default_factory=set)
    taker_contracts: int = 0
    taker_users: Set[int] = field(default_factory=set)
    both_contracts: int = 0
    both_users: Set[int] = field(default_factory=set)

    @property
    def transactions_per_trader(self) -> float:
        """Repeat-transaction rate (the paper notes V-bucks tops at 8.37)."""
        users = len(self.both_users)
        return self.both_contracts / users if users else 0.0


@dataclass
class PaymentTable:
    """Table 4: per-method rows plus an all-methods summary row."""

    rows: Dict[str, PaymentRow]
    all_row: PaymentRow
    n_contracts: int

    def top(self, count: int = 10) -> List[PaymentRow]:
        rows = sorted(self.rows.values(), key=lambda r: -r.both_contracts)
        return [row for row in rows if row.both_contracts > 0][:count]

    def share(self, method: str) -> float:
        row = self.rows.get(method)
        if row is None or not self.all_row.both_contracts:
            return 0.0
        return row.both_contracts / self.all_row.both_contracts


def _payment_related(features: TextFeatures) -> np.ndarray:
    """Mask over the feature rows of payment-related contracts."""
    return (features.joined_categories & category_bits(PAYMENT_RELATED_CATEGORIES)) != 0


def payment_related_contracts(dataset: MarketDataset) -> List[Contract]:
    """Completed public contracts in currency-exchange/payments/giftcard."""
    features = text_features(dataset)
    return dataset.contracts_at(features.rows[_payment_related(features)])


def top_payment_methods(dataset: MarketDataset) -> PaymentTable:
    """Table 4: payment methods in completed public payment-related deals."""
    store = dataset.columns()
    features = text_features(dataset)
    related = _payment_related(features)
    rows = features.rows[related]
    maker_ids = store.maker_id[rows]
    taker_ids = store.taker_id[rows]
    maker_m = features.maker_methods[related]
    taker_m = features.taker_methods[related]
    table_rows: Dict[str, PaymentRow] = {}
    for key in PAYMENT_METHODS:
        bit = method_bits((key,))
        table_rows[key] = PaymentRow(
            key,
            PAYMENT_LABELS.get(key, key),
            *side_tallies(
                (maker_m & bit) != 0, (taker_m & bit) != 0, maker_ids, taker_ids
            ),
        )
    all_row = PaymentRow(
        "all",
        "All Methods",
        *side_tallies(maker_m != 0, taker_m != 0, maker_ids, taker_ids),
    )
    return PaymentTable(rows=table_rows, all_row=all_row, n_contracts=len(rows))


def payment_evolution(
    dataset: MarketDataset, top_n: int = 5
) -> Dict[str, Dict[Month, int]]:
    """Figure 10: monthly completed contracts per top payment method."""
    store = dataset.columns()
    features = text_features(dataset)
    related = _payment_related(features)
    months = store.month_idx[features.rows[related]]
    methods = features.maker_methods[related] | features.taker_methods[related]
    bits = {key: method_bits((key,)) for key in PAYMENT_METHODS}
    return top_monthly(months, methods, bits, top_n)
