"""Reputation as trust infrastructure (§6's discussion, quantified).

The paper argues the semi-public transaction record acts as a trust
infrastructure that "particularly benefit[s] the concentration of the
market over time around a core of power-users".  This module tracks that
process directly on the reputation record:

* cumulative reputation concentration (Gini / top-share) month by month;
* cohort trajectories — the median reputation of users who first became
  active in each era, followed through time (do SET-UP incumbents stay
  ahead?);
* the reputation premium — the mean counterparty reputation on completed
  versus failed deals, per era.  Note this is a *diagnostic*, not a
  causal claim: hub takers hold enormous reputation and dominate both
  completed and failed volume, so the sign depends on the failure base
  rates of the contract types they absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..core.columns import era_indexes_of, month_from_index, month_index_of
from ..core.dataset import MarketDataset
from ..core.entities import ContractStatus
from ..core.eras import ERAS
from ..core.timeutils import Month, month_of
from ..stats.descriptive import gini, top_share

__all__ = [
    "reputation_concentration_by_month",
    "cohort_reputation_trajectories",
    "ReputationPremium",
    "reputation_premium_by_era",
]


def _cumulative_scores(dataset: MarketDataset) -> Tuple[np.ndarray, np.ndarray]:
    """Reputation per user at the end of each month with a rating.

    Returns ``(months, scores)``: the rated months ascending, as months
    since 1970-01, and ``scores[i, code]``, the score sum of every rating
    user ``code`` received up to the end of ``months[i]``.
    """
    store = dataset.columns()
    ratings = store.ratings
    months, month_pos = np.unique(ratings.month_idx, return_inverse=True)
    grid = np.zeros((len(months), store.n_users), dtype=np.int64)
    np.add.at(grid, (month_pos.reshape(-1), ratings.ratee_code), ratings.score)
    return months, np.cumsum(grid, axis=0)


def reputation_concentration_by_month(
    dataset: MarketDataset,
) -> Dict[Month, Tuple[float, float]]:
    """Per month: (Gini, top-5% share) of cumulative positive reputation.

    Rising concentration is the paper's 'trust accrues to the core'
    claim made measurable.
    """
    result: Dict[Month, Tuple[float, float]] = {}
    months, scores = _cumulative_scores(dataset)
    for month, row in zip(months.tolist(), scores):
        positives = row[row > 0]
        if len(positives) < 10:
            continue
        result[month_from_index(month)] = (gini(positives), top_share(positives, 5.0))
    return result


def cohort_reputation_trajectories(
    dataset: MarketDataset,
) -> Dict[str, Dict[Month, float]]:
    """Median cumulative reputation per first-activity cohort over time.

    Users are assigned to the era in which they were first party to a
    contract; each cohort's median reputation is then tracked monthly.
    """
    store = dataset.columns()
    never = np.iinfo(np.int64).max
    first_active = np.full(store.n_users, never, dtype=np.int64)
    for code in (store.maker_code, store.taker_code):
        np.minimum.at(first_active, code, store.created_us)
    cohort = np.where(
        first_active != never, era_indexes_of(first_active), np.int8(-1)
    )

    months, scores = _cumulative_scores(dataset)
    trajectories: Dict[str, Dict[Month, float]] = {era.name: {} for era in ERAS}
    for index, era in enumerate(ERAS):
        members = np.flatnonzero(cohort == index)
        if not len(members):
            continue
        start = month_index_of(month_of(era.start))
        for month, row in zip(months.tolist(), scores):
            if month >= start:
                trajectories[era.name][month_from_index(month)] = float(
                    np.median(row[members])
                )
    return trajectories


@dataclass(frozen=True)
class ReputationPremium:
    """Mean counterparty reputation on completed vs failed deals."""

    era: str
    completed_mean: float
    failed_mean: float
    n_completed: int
    n_failed: int

    @property
    def premium(self) -> float:
        """Ratio of completed-deal to failed-deal counterparty reputation."""
        if self.failed_mean <= 0:
            return float("inf") if self.completed_mean > 0 else 1.0
        return self.completed_mean / self.failed_mean


def reputation_premium_by_era(dataset: MarketDataset) -> Dict[str, ReputationPremium]:
    """Does reputation at deal time predict completion?  Per era.

    For each contract, the taker's cumulative reputation as of the
    creation month is looked up; completed and failed
    (incomplete/cancelled/expired) deals are then compared.
    """
    months, scores = _cumulative_scores(dataset)
    if not len(months):
        return {}
    store = dataset.columns()
    # The taker's score at the end of the last rated month before the
    # contract's month (0 before the first).
    slot = np.searchsorted(months, store.month_idx - 1, side="right") - 1
    reputation = np.where(
        slot >= 0, scores[np.maximum(slot, 0), store.taker_code], 0
    ).astype(float)
    failed = (
        store.status_mask(ContractStatus.INCOMPLETE)
        | store.status_mask(ContractStatus.CANCELLED)
        | store.status_mask(ContractStatus.EXPIRED)
    )

    result: Dict[str, ReputationPremium] = {}
    for index, era in enumerate(ERAS):
        in_era = store.era_mask(index)
        completed_scores = reputation[in_era & store.is_complete]
        failed_scores = reputation[in_era & failed]
        if not len(completed_scores) or not len(failed_scores):
            continue
        result[era.name] = ReputationPremium(
            era=era.name,
            completed_mean=float(np.mean(completed_scores)),
            failed_mean=float(np.mean(failed_scores)),
            n_completed=len(completed_scores),
            n_failed=len(failed_scores),
        )
    return result
