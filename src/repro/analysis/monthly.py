"""Monthly series: growth, visibility, type mix, completion times.

Implements Figures 1–4.  Completed contracts are bucketed by their
completion month when the completion date is recorded, otherwise by
creation month (the paper notes only ~70% of completed contracts carry a
completion date; Figure 4 uses only those that do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.columns import CTYPE_ORDER, month_from_index
from ..core.dataset import MarketDataset
from ..core.entities import Contract, ContractType
from ..core.timeutils import Month, month_of

__all__ = [
    "GrowthPoint",
    "monthly_growth",
    "visibility_share",
    "type_proportions",
    "completion_times",
    "completion_month",
]


def completion_month(contract: Contract) -> Optional[Month]:
    """Month a completed contract settles in (creation month if undated)."""
    if not contract.is_complete:
        return None
    when = contract.completed_at or contract.created_at
    return month_of(when)


@dataclass
class GrowthPoint:
    """One month of Figure 1."""

    month: Month
    contracts_created: int
    contracts_completed: int
    new_members_created: int    # first-ever party to a created contract
    new_members_completed: int  # first-ever party to a completed contract


def _month_counts(month_idx: np.ndarray) -> Dict[Month, int]:
    """Bincount a month-index column (−1 entries excluded) into a dict."""
    valid = month_idx[month_idx >= 0]
    if not len(valid):
        return {}
    base = int(valid.min())
    counts = np.bincount(valid - base)
    return {
        month_from_index(base + i): int(c) for i, c in enumerate(counts) if c
    }


def _first_month_counts(
    codes: List[np.ndarray], month_idx: List[np.ndarray], n_users: int
) -> Dict[Month, int]:
    """Per-month counts of users whose *first* appearance is that month."""
    sentinel = np.iinfo(np.int64).max
    first = np.full(n_users, sentinel, dtype=np.int64)
    for code, months in zip(codes, month_idx):
        np.minimum.at(first, code, months)
    return _month_counts(np.where(first == sentinel, np.int64(-1), first))


def monthly_growth(dataset: MarketDataset) -> List[GrowthPoint]:
    """Figure 1: monthly created/completed contracts and new members.

    Every count is an ``np.bincount`` over the columnar store.
    """
    store = dataset.columns()
    created_counts = _month_counts(store.month_idx)
    completed_counts = _month_counts(store.settled_month_idx)
    new_created = _first_month_counts(
        [store.maker_code, store.taker_code],
        [store.month_idx, store.month_idx],
        store.n_users,
    )
    settled = store.settled_month_idx >= 0
    new_completed = _first_month_counts(
        [store.maker_code[settled], store.taker_code[settled]],
        [store.settled_month_idx[settled]] * 2,
        store.n_users,
    )
    months = sorted(set(created_counts) | set(completed_counts))
    return [
        GrowthPoint(
            month=month,
            contracts_created=created_counts.get(month, 0),
            contracts_completed=completed_counts.get(month, 0),
            new_members_created=new_created.get(month, 0),
            new_members_completed=new_completed.get(month, 0),
        )
        for month in months
    ]


def visibility_share(dataset: MarketDataset) -> Dict[Month, Dict[str, float]]:
    """Figure 2: share of public contracts per month.

    Returns ``{month: {"created": share, "completed": share}}``.
    """
    store = dataset.columns()
    created_total = _month_counts(store.month_idx)
    created_public = _month_counts(store.month_idx[store.is_public])
    completed_total = _month_counts(store.settled_month_idx)
    completed_public = _month_counts(store.settled_month_idx[store.is_public])
    result: Dict[Month, Dict[str, float]] = {}
    for month in sorted(set(created_total) | set(completed_total)):
        created = created_total.get(month, 0)
        completed = completed_total.get(month, 0)
        result[month] = {
            "created": created_public.get(month, 0) / created if created else 0.0,
            "completed": completed_public.get(month, 0) / completed if completed else 0.0,
        }
    return result


def type_proportions(
    dataset: MarketDataset, completed_only: bool = False
) -> Dict[Month, Dict[ContractType, float]]:
    """Figure 3: monthly share of each contract type.

    Shares are of contracts created that month (or completed, when
    ``completed_only``); they sum to 1 per month.
    """
    store = dataset.columns()
    month_idx = store.settled_month_idx if completed_only else store.month_idx
    valid = month_idx >= 0
    months_v = month_idx[valid]
    types_v = store.ctype[valid].astype(np.int64)
    if not len(months_v):
        return {}
    base = int(months_v.min())
    n_types = len(CTYPE_ORDER)
    grid = np.bincount(
        (months_v - base) * n_types + types_v,
        minlength=(int(months_v.max()) - base + 1) * n_types,
    ).reshape(-1, n_types)
    result: Dict[Month, Dict[ContractType, float]] = {}
    for offset, row in enumerate(grid):
        total = int(row.sum())
        if not total:
            continue
        result[month_from_index(base + offset)] = {
            ctype: int(row[code]) / total
            for code, ctype in enumerate(CTYPE_ORDER)
        }
    return result


def completion_times(
    dataset: MarketDataset,
) -> Dict[Month, Dict[ContractType, float]]:
    """Figure 4: average completion hours per type per (creation) month.

    Only contracts with a recorded completion date contribute; months or
    types with no such contracts are absent from the inner dict.
    """
    store = dataset.columns()
    mask = store.is_complete & store.has_completed
    if not mask.any():
        return {}
    months_v = store.month_idx[mask]
    types_v = store.ctype[mask].astype(np.int64)
    hours_v = store.completion_hours[mask]
    base = int(months_v.min())
    n_types = len(CTYPE_ORDER)
    cells = (months_v - base) * n_types + types_v
    n_cells = (int(months_v.max()) - base + 1) * n_types
    sums_grid = np.zeros(n_cells, dtype=np.float64)
    np.add.at(sums_grid, cells, hours_v)
    counts_grid = np.bincount(cells, minlength=n_cells)
    result: Dict[Month, Dict[ContractType, float]] = {}
    for offset in range(n_cells // n_types):
        row = slice(offset * n_types, (offset + 1) * n_types)
        row_counts = counts_grid[row]
        if not row_counts.any():
            continue
        result[month_from_index(base + offset)] = {
            CTYPE_ORDER[code]: float(
                sums_grid[offset * n_types + code] / row_counts[code]
            )
            for code in range(n_types)
            if row_counts[code]
        }
    return result
