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

import numpy as np

from ..core.dataset import MarketDataset
from ..core.timeutils import Month
from ..text.taxonomy import (
    CATEGORIES,
    CATEGORY_LABELS,
    UNCATEGORISED,
    ActivityCategorizer,
)
from .monthly import _month_counts

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


#: Bit index reserved for the uncategorised marker in activity bitmasks.
_UNCAT_BIT = len(CATEGORIES)
#: Mask selecting only the concrete (non-uncategorised) category bits.
_CAT_BITS = np.uint32((1 << _UNCAT_BIT) - 1)
_BIT_OF = {key: i for i, key in enumerate(CATEGORIES)}
_BIT_OF[UNCATEGORISED] = _UNCAT_BIT


def _mask_of(categories: Set[str]) -> int:
    mask = 0
    for key in categories:
        mask |= 1 << _BIT_OF[key]
    return mask


def _activity_masks(
    dataset: MarketDataset,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Category bitmasks for every completed public contract, memoized.

    Returns ``(rows, maker, taker, sides)``: the store row indexes of the
    completed-public subset plus one uint32 bitmask per row for the maker
    obligation, the taker obligation, and the combined (both-sides) text.
    The regex pass is the irreducibly per-text part of §4.3, so it runs
    once per dataset and is cached on ``ColumnStore.derived`` — Table 3,
    Figure 9, and repeat calls all reuse it.
    """
    store = dataset.columns()
    cached = store.derived.get("activity_masks")
    if cached is not None:
        return cached
    categorizer = ActivityCategorizer()
    rows = np.flatnonzero(store.completed_public_mask())
    maker = np.zeros(len(rows), dtype=np.uint32)
    taker = np.zeros(len(rows), dtype=np.uint32)
    sides = np.zeros(len(rows), dtype=np.uint32)
    contracts = dataset.contracts
    for i, row in enumerate(rows.tolist()):
        contract = contracts[row]
        maker[i] = _mask_of(categorizer.categorize(contract.maker_obligation))
        taker[i] = _mask_of(categorizer.categorize(contract.taker_obligation))
        sides[i] = _mask_of(
            categorizer.categorize_sides(
                contract.maker_obligation, contract.taker_obligation
            )
        )
    store.derived["activity_masks"] = (rows, maker, taker, sides)
    return rows, maker, taker, sides


def _id_set(ids: np.ndarray) -> Set[int]:
    return set(ids.tolist())


def top_trading_activities(dataset: MarketDataset) -> ActivityTable:
    """Categorise completed public contracts into activity buckets.

    The per-text regex pass is memoized on the columnar store and all
    counting happens on bitmask arrays.  Restrict the contracts analysed
    (for per-era tables) with ``dataset.subset(contracts)``.
    """
    store = dataset.columns()
    rows, maker_m, taker_m, _ = _activity_masks(dataset)
    maker_ids = store.maker_id[rows]
    taker_ids = store.taker_id[rows]
    both_m = maker_m | taker_m
    table_rows: Dict[str, ActivityRow] = {}
    for key in tuple(CATEGORIES) + (UNCATEGORISED,):
        bit = np.uint32(1 << _BIT_OF[key])
        m_sel = (maker_m & bit) != 0
        t_sel = (taker_m & bit) != 0
        b_sel = (both_m & bit) != 0
        table_rows[key] = ActivityRow(
            key,
            CATEGORY_LABELS.get(key, key),
            maker_contracts=int(m_sel.sum()),
            maker_users=_id_set(np.unique(maker_ids[m_sel])),
            taker_contracts=int(t_sel.sum()),
            taker_users=_id_set(np.unique(taker_ids[t_sel])),
            both_contracts=int(b_sel.sum()),
            both_users=_id_set(
                np.unique(np.concatenate([maker_ids[b_sel], taker_ids[b_sel]]))
            ),
        )
    m_any = (maker_m & _CAT_BITS) != 0
    t_any = (taker_m & _CAT_BITS) != 0
    b_any = (both_m & _CAT_BITS) != 0
    all_row = ActivityRow(
        "all",
        "All Trading Activities",
        maker_contracts=int(m_any.sum()),
        maker_users=_id_set(np.unique(maker_ids[m_any])),
        taker_contracts=int(t_any.sum()),
        taker_users=_id_set(np.unique(taker_ids[t_any])),
        both_contracts=int(b_any.sum()),
        both_users=_id_set(
            np.unique(np.concatenate([maker_ids[b_any], taker_ids[b_any]]))
        ),
    )
    return ActivityTable(rows=table_rows, all_row=all_row, n_contracts=len(rows))


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
    rows, _, _, sides_m = _activity_masks(dataset)
    months = store.month_idx[rows]
    excluded = set(exclude) | {UNCATEGORISED}
    monthly: Dict[str, Dict[Month, int]] = {}
    totals: Dict[str, int] = {}
    for key in CATEGORIES:
        if key in excluded:
            continue
        sel = (sides_m & np.uint32(1 << _BIT_OF[key])) != 0
        total = int(sel.sum())
        if not total:
            continue
        totals[key] = total
        monthly[key] = _month_counts(months[sel])
    # Ties broken by category key so the pick is hash-seed independent.
    winners = sorted(totals, key=lambda c: (-totals[c], c))[:top_n]
    return {category: monthly[category] for category in winners}
