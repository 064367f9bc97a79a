"""Trading-activity analysis (§4.3): Table 3 and Figure 9.

The pipeline mirrors the paper: take the obligation sections of *public*
contracts, normalise, categorise with the regex taxonomy, then count
contracts and unique users per category, split by maker and taker side.
A contract can land in several categories; for activities where both
sides are one category (currency exchange), the "both sides" column
counts the contract once, so the total is smaller than makers + takers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..core.dataset import MarketDataset
from ..core.timeutils import Month
from ..text.taxonomy import CATEGORIES, CATEGORY_LABELS, UNCATEGORISED
from .textfeatures import (
    CONCRETE_CATEGORIES,
    category_bits,
    side_tallies,
    text_features,
    top_monthly,
)

__all__ = [
    "ActivityRow",
    "ActivityTable",
    "top_trading_activities",
    "product_evolution",
    "EVOLUTION_EXCLUDED",
]

#: Figure 9 excludes these (examined separately in §4.4).
EVOLUTION_EXCLUDED = ("currency_exchange", "payments")


@dataclass
class ActivityRow:
    """One Table 3 row: contract and unique-user counts for a category."""

    category: str
    label: str
    maker_contracts: int = 0
    maker_users: Set[int] = field(default_factory=set)
    taker_contracts: int = 0
    taker_users: Set[int] = field(default_factory=set)
    both_contracts: int = 0
    both_users: Set[int] = field(default_factory=set)

    def as_tuple(self) -> Tuple[str, int, int, int, int, int, int]:
        """(label, makers, maker_users, takers, taker_users, both, both_users)."""
        return (
            self.label,
            self.maker_contracts,
            len(self.maker_users),
            self.taker_contracts,
            len(self.taker_users),
            self.both_contracts,
            len(self.both_users),
        )


@dataclass
class ActivityTable:
    """Table 3: per-category rows plus the all-activities summary row."""

    rows: Dict[str, ActivityRow]
    all_row: ActivityRow
    n_contracts: int  # contracts analysed (completed public)

    def top(self, count: int = 15, include_uncategorised: bool = False) -> List[ActivityRow]:
        """Rows sorted by both-sides contract count, descending."""
        rows = [
            row
            for key, row in self.rows.items()
            if include_uncategorised or key != UNCATEGORISED
        ]
        rows.sort(key=lambda r: -r.both_contracts)
        return rows[:count]

    def share(self, category: str) -> float:
        """Share of analysed contracts touching ``category``."""
        row = self.rows.get(category)
        if row is None or not self.all_row.both_contracts:
            return 0.0
        return row.both_contracts / self.all_row.both_contracts


def top_trading_activities(dataset: MarketDataset) -> ActivityTable:
    """Categorise completed public contracts into activity buckets.

    The per-text regex pass is memoized on the columnar store
    (:func:`~repro.analysis.textfeatures.text_features`) and all counting
    happens on bitmask arrays.  Restrict the contracts analysed (for
    per-era tables) with ``dataset.subset(contracts)``.
    """
    store = dataset.columns()
    features = text_features(dataset)
    maker_ids = store.maker_id[features.rows]
    taker_ids = store.taker_id[features.rows]
    maker_m = features.maker_categories
    taker_m = features.taker_categories
    table_rows: Dict[str, ActivityRow] = {}
    for key in tuple(CATEGORIES) + (UNCATEGORISED,):
        bit = category_bits((key,))
        table_rows[key] = ActivityRow(
            key,
            CATEGORY_LABELS.get(key, key),
            *side_tallies(
                (maker_m & bit) != 0, (taker_m & bit) != 0, maker_ids, taker_ids
            ),
        )
    all_row = ActivityRow(
        "all",
        "All Trading Activities",
        *side_tallies(
            (maker_m & CONCRETE_CATEGORIES) != 0,
            (taker_m & CONCRETE_CATEGORIES) != 0,
            maker_ids,
            taker_ids,
        ),
    )
    return ActivityTable(
        rows=table_rows, all_row=all_row, n_contracts=len(features.rows)
    )


def product_evolution(
    dataset: MarketDataset,
    top_n: int = 5,
    exclude: Sequence[str] = EVOLUTION_EXCLUDED,
) -> Dict[str, Dict[Month, int]]:
    """Figure 9: monthly completed-public contracts for the top products.

    Currency exchange and payments are excluded (per the paper); the top
    ``top_n`` remaining categories by total volume are tracked.  The
    memoized both-sides bitmasks are bincounted into per-category
    monthly series.
    """
    store = dataset.columns()
    features = text_features(dataset)
    excluded = set(exclude) | {UNCATEGORISED}
    bits = {key: category_bits((key,)) for key in CATEGORIES if key not in excluded}
    return top_monthly(
        store.month_idx[features.rows], features.joined_categories, bits, top_n
    )
