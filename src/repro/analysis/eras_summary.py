"""Per-era summaries and the stimulus-vs-transformation test (§6).

The paper's central COVID-19 claim is that the pandemic *stimulated* the
market without *transforming* it: volumes rose across the board while the
composition of activity (contract types, products, users) stayed put.
This module makes that claim testable:

* :func:`era_profile` — one row of headline statistics per era;
* :func:`composition_distance` — total-variation distance between two
  eras' contract-type (or product-category) distributions;
* :func:`stimulus_test` — the formal check: volume ratio across the
  STABLE -> COVID-19 boundary vs composition drift, plus a chi-square
  test of the type mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from ..core.columns import CTYPE_ORDER, ColumnStore
from ..core.dataset import MarketDataset
from ..core.entities import ContractType
from ..core.eras import COVID19, ERAS, STABLE, Era
from ..stats.contingency import chi2_contingency
from .textfeatures import category_keys, text_features

__all__ = [
    "EraProfile",
    "era_profile",
    "era_profiles",
    "composition_distance",
    "StimulusResult",
    "stimulus_test",
]


@dataclass
class EraProfile:
    """Headline statistics for one era."""

    era: str
    short: str
    contracts: int
    contracts_per_month: float
    completed: int
    completion_rate: float
    public_share: float
    members: int
    new_members: int
    type_shares: Dict[ContractType, float]


def _members(store: ColumnStore, era: Era) -> List[int]:
    """Ids of the users party to a contract created in ``era``."""
    in_era = store.created_in(era)
    codes = np.unique(np.concatenate([store.maker_code[in_era], store.taker_code[in_era]]))
    return store.user_ids[codes].tolist()


def era_profile(dataset: MarketDataset, era: Era,
                seen_before: Optional[set] = None) -> EraProfile:
    """Compute one era's profile; ``seen_before`` marks prior members."""
    store = dataset.columns()
    in_era = store.created_in(era)
    n_contracts = int(in_era.sum())
    members = _members(store, era)
    prior = seen_before or set()
    completed = int(store.is_complete[in_era].sum())
    public = int(store.is_public[in_era].sum())
    counts = np.bincount(store.ctype[in_era], minlength=len(CTYPE_ORDER)).tolist()
    total = max(1, n_contracts)
    return EraProfile(
        era=era.name,
        short=era.short,
        contracts=n_contracts,
        contracts_per_month=n_contracts / (era.days / 30.44),
        completed=completed,
        completion_rate=completed / total,
        public_share=public / total,
        members=len(members),
        new_members=len(set(members) - prior),
        type_shares={t: count / total for t, count in zip(CTYPE_ORDER, counts)},
    )


def era_profiles(dataset: MarketDataset) -> List[EraProfile]:
    """Profiles for all three eras, with new-member accounting."""
    store = dataset.columns()
    seen: set = set()
    profiles = []
    for era in ERAS:
        profiles.append(era_profile(dataset, era, seen_before=seen))
        seen.update(_members(store, era))
    return profiles


def _tally(values: np.ndarray, keys_of: Callable[[int], Iterable[str]]) -> Dict[str, int]:
    """Rows per key, where row ``i`` counts for each of
    ``keys_of(values[i])``.  Keys come in the order of their first row,
    as a per-row loop fills them, so a float sum over them rounds the
    same way."""
    distinct, first, count = np.unique(values, return_index=True, return_counts=True)
    counts: Dict[str, int] = {}
    for i in np.argsort(first).tolist():
        for key in keys_of(int(distinct[i])):
            counts[key] = counts.get(key, 0) + int(count[i])
    return counts


def composition_distance(
    dataset: MarketDataset,
    era_a: Era,
    era_b: Era,
    by: str = "type",
) -> float:
    """Total-variation distance between two eras' activity composition.

    ``by`` is "type" (contract types) or "category" (trading activities of
    completed public contracts).  0 = identical mix, 1 = disjoint.
    """
    store = dataset.columns()

    def distribution(era: Era) -> Dict[str, float]:
        in_era = store.created_in(era)
        if by == "type":
            counts = _tally(store.ctype[in_era], lambda code: (CTYPE_ORDER[code].name,))
        elif by == "category":
            features = text_features(dataset)
            counts = _tally(
                features.joined_categories[in_era[features.rows]], category_keys
            )
        else:
            raise ValueError("by must be 'type' or 'category'")
        total = sum(counts.values())
        return {k: v / total for k, v in counts.items()} if total else {}

    dist_a = distribution(era_a)
    dist_b = distribution(era_b)
    keys = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0)) for k in keys)


@dataclass
class StimulusResult:
    """Outcome of the stimulus-vs-transformation check."""

    volume_ratio: float          # COVID monthly rate / late-STABLE monthly rate
    type_drift: float            # total-variation distance of type mix
    category_drift: float        # total-variation distance of product mix
    chi2_statistic: float
    chi2_p_value: float

    @property
    def is_stimulus(self) -> bool:
        """Volumes up while the mix barely moves.

        The COVID-19 surge is a short-lived peak (April 2020) followed by
        a drop, so the *era-average* volume ratio is modest even when the
        peak is dramatic; 1.05 on the era average corresponds to a much
        larger peak-month jump.
        """
        return self.volume_ratio > 1.05 and self.type_drift < 0.1

    @property
    def is_transformation(self) -> bool:
        return self.type_drift >= 0.2


def stimulus_test(
    dataset: MarketDataset,
    reference_months: int = 3,
) -> StimulusResult:
    """The paper's §6 COVID-19 conclusion as a computation.

    Compares the COVID-19 era against the last ``reference_months`` of
    STABLE: the monthly contract rate should jump (stimulus) while the
    contract-type mix stays put (no transformation).  A chi-square test on
    the type contingency table quantifies mix stability (note: with large
    n even tiny drifts are 'significant'; the drift magnitudes are the
    interpretable numbers).
    """
    import datetime as dt

    from ..core.eras import Era

    late_stable_start = STABLE.end - dt.timedelta(days=int(30.44 * reference_months))
    late_stable = Era("late-STABLE", "E2b", late_stable_start, STABLE.end)

    store = dataset.columns()
    in_stable = store.created_in(late_stable)
    in_covid = store.created_in(COVID19)
    stable_rate = int(in_stable.sum()) / (late_stable.days / 30.44)
    covid_rate = int(in_covid.sum()) / (COVID19.days / 30.44)

    type_drift = composition_distance(dataset, late_stable, COVID19, by="type")
    category_drift = composition_distance(dataset, late_stable, COVID19, by="category")

    matrix = np.asarray([
        np.bincount(store.ctype[mask], minlength=len(CTYPE_ORDER))
        for mask in (in_stable, in_covid)
    ], dtype=float)
    keep = matrix.sum(axis=0) > 0
    matrix = matrix[:, keep]
    if matrix.shape[1] >= 2 and matrix.sum() > 0:
        chi2, p_value = chi2_contingency(matrix)
    else:
        chi2, p_value = 0.0, 1.0

    return StimulusResult(
        volume_ratio=covid_rate / stable_rate if stable_rate else float("inf"),
        type_drift=type_drift,
        category_drift=category_drift,
        chi2_statistic=float(chi2),
        chi2_p_value=float(p_value),
    )
