"""Dispute analysis.

The paper tracks disputes as the market's conflict signal: dispute rates
sit around 1% of contracts, peak at 2–3% over the last six months of
SET-UP (Tuckman's *storming*), and halve at the start of STABLE (§5.1,
§6).  §4.5 additionally looks at who disputes: most users are involved in
a single dispute, with one outlier on 21.

This module computes the monthly dispute-rate series, per-era rates, the
per-user dispute distribution, and the goods involved in disputed deals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.columns import month_from_index
from ..core.dataset import MarketDataset
from ..core.entities import ContractStatus
from ..core.eras import ERAS
from ..core.timeutils import Month
from ..text.taxonomy import UNCATEGORISED, ActivityCategorizer

__all__ = [
    "DisputeSummary",
    "dispute_rate_by_month",
    "dispute_rate_by_era",
    "disputes_per_user",
    "disputed_goods",
    "dispute_summary",
]


def dispute_rate_by_month(dataset: MarketDataset) -> Dict[Month, float]:
    """Share of contracts created each month that ended disputed."""
    store = dataset.columns()
    months, month_pos = np.unique(store.month_idx, return_inverse=True)
    month_pos = month_pos.reshape(-1)
    totals = np.bincount(month_pos, minlength=len(months)).tolist()
    disputed = np.bincount(
        month_pos[store.status_mask(ContractStatus.DISPUTED)],
        minlength=len(months),
    ).tolist()
    return {
        month_from_index(month): count / total
        for month, count, total in zip(months.tolist(), disputed, totals)
    }


def dispute_rate_by_era(dataset: MarketDataset) -> Dict[str, float]:
    """Dispute rate per era (created contracts)."""
    store = dataset.columns()
    disputed = store.status_mask(ContractStatus.DISPUTED)
    rates: Dict[str, float] = {}
    for index, era in enumerate(ERAS):
        in_era = store.era_mask(index)
        total = int(in_era.sum())
        rates[era.name] = int(disputed[in_era].sum()) / total if total else 0.0
    return rates


def disputes_per_user(dataset: MarketDataset) -> Dict[int, int]:
    """Number of disputed contracts each user was party to (>=1 only)."""
    store = dataset.columns()
    disputed = store.status_mask(ContractStatus.DISPUTED)
    counts = np.bincount(
        np.concatenate([store.maker_code[disputed], store.taker_code[disputed]]),
        minlength=store.n_users,
    )
    users = np.flatnonzero(counts)
    return dict(zip(store.user_ids[users].tolist(), counts[users].tolist()))


def disputed_goods(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
) -> List[Tuple[str, int]]:
    """Trading-activity categories of disputed contracts, most common
    first.  Disputed contracts are always public, so their obligations are
    observable — the paper finds most disputed deals exchange Bitcoin."""
    categorizer = categorizer or ActivityCategorizer()
    store = dataset.columns()
    rows = np.flatnonzero(store.status_mask(ContractStatus.DISPUTED))
    tally: Counter = Counter()
    for contract in dataset.contracts_at(rows):
        categories = categorizer.categorize_sides(
            contract.maker_obligation, contract.taker_obligation
        )
        tally.update(categories - {UNCATEGORISED})
    return sorted(tally.items(), key=lambda item: (-item[1], item[0]))


@dataclass
class DisputeSummary:
    """Headline dispute statistics."""

    total_disputes: int
    overall_rate: float
    rate_by_era: Dict[str, float]
    peak_month: Optional[Month]
    peak_rate: float
    max_disputes_one_user: int
    users_with_one_dispute_share: float


def dispute_summary(dataset: MarketDataset) -> DisputeSummary:
    """Compute the paper's headline dispute statistics."""
    store = dataset.columns()
    monthly = dispute_rate_by_month(dataset)
    per_user = disputes_per_user(dataset)
    total = int(store.status_mask(ContractStatus.DISPUTED).sum())
    peak_month = max(monthly, key=lambda m: monthly[m]) if monthly else None
    singles = sum(1 for count in per_user.values() if count == 1)
    return DisputeSummary(
        total_disputes=total,
        overall_rate=total / store.n if store.n else 0.0,
        rate_by_era=dispute_rate_by_era(dataset),
        peak_month=peak_month,
        peak_rate=monthly.get(peak_month, 0.0) if peak_month else 0.0,
        max_disputes_one_user=max(per_user.values()) if per_user else 0,
        users_with_one_dispute_share=(
            singles / len(per_user) if per_user else 0.0
        ),
    )
