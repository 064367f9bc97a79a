"""Market centralisation (§4.2): Figures 5 and 6.

Figure 5 plots the share of contracts covered by the top percentile of
users (by contracts they are party to) and of threads (by linked
contracts).  Figure 6 tracks, month by month, the share of that month's
contracts involving its *key* (top-5%) members and threads — key sets are
recomputed each month.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.columns import month_from_index
from ..core.dataset import MarketDataset
from ..core.timeutils import Month
from ..stats.descriptive import gini

__all__ = [
    "ConcentrationCurves",
    "KeySharePoint",
    "concentration_curves",
    "key_share_by_month",
    "KEY_PERCENT",
]

#: The paper's definition of 'key': top 5% each month.
KEY_PERCENT = 5.0


@dataclass
class ConcentrationCurves:
    """Figure 5: top-percentile concentration for users and threads.

    Each curve maps percentile p -> share of contracts covered by the top
    p% of users/threads, for created and completed contract sets.
    """

    users_created: Dict[float, float]
    users_completed: Dict[float, float]
    threads_created: Dict[float, float]
    threads_completed: Dict[float, float]
    user_gini_created: float
    thread_gini_created: float


def _involvement_values(codes: np.ndarray) -> np.ndarray:
    """Per-actor involvement counts from a (repeated) actor-code column."""
    if not len(codes):
        return np.zeros(0, dtype=np.int64)
    return np.unique(codes, return_counts=True)[1]


def _curve_from_values(
    values: np.ndarray, percents: Sequence[float]
) -> Dict[float, float]:
    """Top-percentile shares via one descending sort + cumulative sum."""
    if not len(values):
        return {float(p): 0.0 for p in percents}
    ordered = np.sort(values.astype(np.float64))[::-1]
    cumulative = np.cumsum(ordered)
    total = cumulative[-1]
    n = len(ordered)
    out: Dict[float, float] = {}
    for p in percents:
        count = max(1, int(np.ceil(n * p / 100.0)))
        out[float(p)] = float(cumulative[count - 1] / total) if total else 0.0
    return out


def concentration_curves(
    dataset: MarketDataset,
    percents: Sequence[float] = tuple(range(1, 101)),
) -> ConcentrationCurves:
    """Compute Figure 5's four concentration curves (plus Ginis).

    All involvement counts come from the columnar store, and each curve
    is one sort + cumsum.
    """
    store = dataset.columns()
    completed = store.is_complete
    threaded = store.thread_id >= 0
    parties = np.concatenate([store.maker_code, store.taker_code])
    parties_completed = np.concatenate(
        [store.maker_code[completed], store.taker_code[completed]]
    )
    users_created_v = _involvement_values(parties)
    threads_created_v = _involvement_values(store.thread_id[threaded])
    return ConcentrationCurves(
        users_created=_curve_from_values(users_created_v, percents),
        users_completed=_curve_from_values(
            _involvement_values(parties_completed), percents
        ),
        threads_created=_curve_from_values(threads_created_v, percents),
        threads_completed=_curve_from_values(
            _involvement_values(store.thread_id[threaded & completed]), percents
        ),
        user_gini_created=(
            gini(users_created_v.tolist()) if len(users_created_v) else 0.0
        ),
        thread_gini_created=(
            gini(threads_created_v.tolist()) if len(threads_created_v) else 0.0
        ),
    )


@dataclass
class KeySharePoint:
    """One month of Figure 6: shares covered by that month's key actors."""

    month: Month
    key_members_created: float
    key_members_completed: float
    key_threads_created: float
    key_threads_completed: float


def _key_share_values(values: np.ndarray, percent: float) -> float:
    """Share of involvement covered by the top ``percent`` % of actors."""
    if not len(values):
        return 0.0
    ordered = np.sort(values)[::-1]
    k = max(1, int(round(len(ordered) * percent / 100.0)))
    total = int(ordered.sum())
    return float(ordered[:k].sum() / total) if total else 0.0


def key_share_by_month(
    dataset: MarketDataset, percent: float = KEY_PERCENT
) -> List[KeySharePoint]:
    """Figure 6: per-month share of contracts made by key members/threads.

    Key members and key threads are recomputed for every month (both as
    maker and taker, per the paper).
    """
    store = dataset.columns()
    present = np.unique(
        np.concatenate(
            [
                store.month_idx[store.month_idx >= 0],
                store.settled_month_idx[store.settled_month_idx >= 0],
            ]
        )
    )
    series: List[KeySharePoint] = []
    threaded = store.thread_id >= 0
    for idx in present.tolist():
        created = store.month_idx == idx
        settled = store.settled_month_idx == idx
        members_created = _involvement_values(
            np.concatenate([store.maker_code[created], store.taker_code[created]])
        )
        members_completed = _involvement_values(
            np.concatenate([store.maker_code[settled], store.taker_code[settled]])
        )
        series.append(
            KeySharePoint(
                month=month_from_index(idx),
                key_members_created=_key_share_values(members_created, percent),
                key_members_completed=_key_share_values(members_completed, percent),
                key_threads_created=_key_share_values(
                    _involvement_values(store.thread_id[created & threaded]),
                    percent,
                ),
                key_threads_completed=_key_share_values(
                    _involvement_values(store.thread_id[settled & threaded]),
                    percent,
                ),
            )
        )
    return series
