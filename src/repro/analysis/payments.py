"""Payment-method analysis (§4.4): Table 4 and Figure 10.

Contracts classified into *currency exchange*, *payments* or *giftcard*
are run through the payment-method regex set; counts are reported per
side with unique users, exactly like the activity table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.dataset import MarketDataset
from ..core.entities import Contract
from ..core.timeutils import Month, month_of
from ..text.payments import PAYMENT_LABELS, PAYMENT_METHODS, PaymentExtractor
from ..text.taxonomy import PAYMENT_RELATED_CATEGORIES, ActivityCategorizer

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


def payment_related_contracts(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
    contracts: Optional[Sequence[Contract]] = None,
) -> List[Contract]:
    """Completed public contracts in currency-exchange/payments/giftcard."""
    categorizer = categorizer or ActivityCategorizer()
    subset = list(contracts) if contracts is not None else dataset.completed_public()
    selected: List[Contract] = []
    for contract in subset:
        categories = categorizer.categorize_sides(
            contract.maker_obligation, contract.taker_obligation
        )
        if categories & PAYMENT_RELATED_CATEGORIES:
            selected.append(contract)
    return selected


def top_payment_methods(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
    extractor: Optional[PaymentExtractor] = None,
    contracts: Optional[Sequence[Contract]] = None,
) -> PaymentTable:
    """Table 4: payment methods in completed public payment-related deals."""
    extractor = extractor or PaymentExtractor()
    selected = payment_related_contracts(dataset, categorizer, contracts)

    rows: Dict[str, PaymentRow] = {
        key: PaymentRow(key, PAYMENT_LABELS.get(key, key)) for key in PAYMENT_METHODS
    }
    all_row = PaymentRow("all", "All Methods")

    for contract in selected:
        maker_methods = extractor.extract(contract.maker_obligation)
        taker_methods = extractor.extract(contract.taker_obligation)
        both_methods = maker_methods | taker_methods
        for method in maker_methods:
            rows[method].maker_contracts += 1
            rows[method].maker_users.add(contract.maker_id)
        for method in taker_methods:
            rows[method].taker_contracts += 1
            rows[method].taker_users.add(contract.taker_id)
        for method in both_methods:
            rows[method].both_contracts += 1
            rows[method].both_users.add(contract.maker_id)
            rows[method].both_users.add(contract.taker_id)
        if maker_methods:
            all_row.maker_contracts += 1
            all_row.maker_users.add(contract.maker_id)
        if taker_methods:
            all_row.taker_contracts += 1
            all_row.taker_users.add(contract.taker_id)
        if both_methods:
            all_row.both_contracts += 1
            all_row.both_users.add(contract.maker_id)
            all_row.both_users.add(contract.taker_id)

    return PaymentTable(rows=rows, all_row=all_row, n_contracts=len(selected))


def payment_evolution(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
    extractor: Optional[PaymentExtractor] = None,
    top_n: int = 5,
) -> Dict[str, Dict[Month, int]]:
    """Figure 10: monthly completed contracts per top payment method."""
    extractor = extractor or PaymentExtractor()
    selected = payment_related_contracts(dataset, categorizer)

    monthly: Dict[str, Dict[Month, int]] = {}
    totals: Dict[str, int] = {}
    for contract in selected:
        methods = extractor.extract_sides(
            contract.maker_obligation, contract.taker_obligation
        )
        month = month_of(contract.created_at)
        for method in methods:
            monthly.setdefault(method, {})
            monthly[method][month] = monthly[method].get(month, 0) + 1
            totals[method] = totals.get(method, 0) + 1

    winners = sorted(totals, key=lambda m: (-totals[m], m))[:top_n]
    return {method: dict(sorted(monthly[method].items())) for method in winners}
