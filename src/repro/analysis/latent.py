"""Latent class / latent transition analysis (§5.1).

Each user-month is a case described by ten counts: contracts *made* and
*accepted* in each of the five types.  A Poisson latent-class model
(Table 6's 12 classes, selected by AIC/BIC) classifies the cases; class
assignments then drive:

* Figures 12/13 — monthly transactions made/accepted per class;
* Table 8 — top maker-class -> taker-class flows per type per era;
* the latent *transition* matrix between consecutive months.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dataset import MarketDataset
from ..core.entities import ContractType
from ..core.eras import ERAS, Era
from ..core.timeutils import Month, month_of
from ..stats.ltm import LatentTransitionResult, fit_latent_transitions
from ..stats.mixture import PoissonMixtureResult, select_poisson_mixture

__all__ = [
    "FEATURE_NAMES",
    "LatentClassModel",
    "FlowRow",
    "user_month_profiles",
    "fit_latent_classes",
    "class_activity_series",
    "era_transition_matrices",
    "top_flows",
]

_TYPES = (
    ContractType.EXCHANGE,
    ContractType.PURCHASE,
    ContractType.SALE,
    ContractType.TRADE,
    ContractType.VOUCH_COPY,
)

#: The ten count features of one user-month case.
FEATURE_NAMES: Tuple[str, ...] = tuple(
    [f"make_{t.name}" for t in _TYPES] + [f"take_{t.name}" for t in _TYPES]
)


def user_month_profiles(
    dataset: MarketDataset,
) -> Tuple[List[Dict[Hashable, np.ndarray]], List[Month]]:
    """Build the user-month count panel.

    Returns one dict per month (user id -> 10-vector) covering only users
    party to at least one contract created that month, plus the month
    grid — the paper "treats each month's activity for each user as a
    separate case".
    """
    panel_map: Dict[Month, Dict[int, np.ndarray]] = {}
    type_index = {ctype: i for i, ctype in enumerate(_TYPES)}
    for contract in dataset.contracts:
        month = month_of(contract.created_at)
        period = panel_map.setdefault(month, {})
        maker = period.get(contract.maker_id)
        if maker is None:
            maker = np.zeros(len(FEATURE_NAMES))
            period[contract.maker_id] = maker
        maker[type_index[contract.ctype]] += 1
        taker = period.get(contract.taker_id)
        if taker is None:
            taker = np.zeros(len(FEATURE_NAMES))
            period[contract.taker_id] = taker
        taker[len(_TYPES) + type_index[contract.ctype]] += 1

    months = sorted(panel_map)
    return [panel_map[m] for m in months], months


def _behaviour_label(rates: np.ndarray) -> str:
    """Auto-label a class from its rate vector (Table 6's last column)."""
    total = float(rates.sum())
    tier = "Power" if total >= 15 else ("Mid-level" if total >= 2.5 else "Single")
    dominant = int(np.argmax(rates))
    side = "maker" if dominant < len(_TYPES) else "taker"
    ctype = _TYPES[dominant % len(_TYPES)]
    noun = {
        ContractType.EXCHANGE: "Exchanger",
        ContractType.PURCHASE: "PURCHASE",
        ContractType.SALE: "SALE",
        ContractType.TRADE: "TRADE",
        ContractType.VOUCH_COPY: "VOUCH COPY",
    }[ctype]
    if noun == "Exchanger":
        return f"{tier} Exchanger ({side})"
    return f"{tier} {noun} {side}"


@dataclass
class LatentClassModel:
    """The fitted §5.1 model: measurement classes + monthly transitions."""

    ltm: LatentTransitionResult
    months: List[Month]
    class_labels: List[str]
    bic_by_k: Dict[int, float]

    @property
    def k(self) -> int:
        return self.ltm.k

    @property
    def mixture(self) -> PoissonMixtureResult:
        return self.ltm.mixture

    def table6(self) -> List[Tuple[str, List[float], str]]:
        """Table 6 rows: (class id, ten mean monthly rates, label)."""
        rows = []
        for index in range(self.k):
            rows.append(
                (
                    chr(ord("A") + index) if index < 26 else f"C{index}",
                    [float(r) for r in self.mixture.rates[index]],
                    self.class_labels[index],
                )
            )
        return rows

    def assignment_for(self, month: Month) -> Dict[Hashable, int]:
        """User -> class table for one month (empty dict if absent)."""
        try:
            position = self.months.index(month)
        except ValueError:
            return {}
        return self.ltm.assignments[position]


def fit_latent_classes(
    dataset: MarketDataset,
    k: int = 12,
    select: bool = False,
    k_range: Tuple[int, int] = (6, 14),
    seed: int = 0,
    n_init: int = 3,
) -> LatentClassModel:
    """Fit the latent class + transition model on the user-month panel.

    With ``select=True`` the class count is chosen by BIC over
    ``k_range`` (the paper found 12 "most accurate and parsimonious per
    AIC and BIC"); otherwise ``k`` is used directly.
    """
    panel, months = user_month_profiles(dataset)
    if not panel:
        raise ValueError("dataset has no contracts")
    bic_by_k: Dict[int, float] = {}
    mixture: Optional[PoissonMixtureResult] = None
    if select:
        pooled = np.vstack([np.vstack(list(p.values())) for p in panel if p])
        mixture, bic_by_k = select_poisson_mixture(
            pooled, k_range=k_range, seed=seed, n_init=n_init,
            feature_names=list(FEATURE_NAMES),
        )
        k = mixture.k
    ltm = fit_latent_transitions(
        panel, k=k, seed=seed, n_init=n_init,
        feature_names=list(FEATURE_NAMES), mixture=mixture,
    )
    labels = [_behaviour_label(ltm.mixture.rates[i]) for i in range(ltm.k)]
    return LatentClassModel(ltm=ltm, months=months, class_labels=labels, bic_by_k=bic_by_k)


def class_activity_series(
    dataset: MarketDataset,
    model: LatentClassModel,
    role: str = "made",
    types: Sequence[ContractType] = (
        ContractType.EXCHANGE,
        ContractType.PURCHASE,
        ContractType.SALE,
    ),
) -> Dict[ContractType, Dict[int, Dict[Month, int]]]:
    """Figures 12/13: monthly transactions per class.

    ``role`` is "made" (classify by the maker's class that month, Figure
    12) or "accepted" (taker's class, Figure 13).  Returns
    ``{ctype: {class_index: {month: count}}}``.
    """
    if role not in ("made", "accepted"):
        raise ValueError("role must be 'made' or 'accepted'")
    month_positions = {month: i for i, month in enumerate(model.months)}
    wanted = set(types)
    # Keyed in ``types`` order: a set's iteration order follows the
    # string hash seed, and the figures render the sections in key order.
    series: Dict[ContractType, Dict[int, Dict[Month, int]]] = {
        ctype: {} for ctype in types
    }
    for contract in dataset.contracts:
        if contract.ctype not in wanted:
            continue
        month = month_of(contract.created_at)
        position = month_positions.get(month)
        if position is None:
            continue
        user = contract.maker_id if role == "made" else contract.taker_id
        klass = model.ltm.assignments[position].get(user)
        if klass is None:
            continue
        bucket = series[contract.ctype].setdefault(klass, {})
        bucket[month] = bucket.get(month, 0) + 1
    return series


def era_transition_matrices(
    model: LatentClassModel, smoothing: float = 0.5
) -> Dict[str, np.ndarray]:
    """Per-era class-transition matrices.

    The pooled LTM gives one transition matrix for the whole window; the
    paper's narrative, however, is about how mobility *changes* between
    eras (SET-UP's orientation phase vs STABLE's settled roles).  This
    aggregates consecutive-month transitions separately within each era
    and returns one row-stochastic matrix per era name.
    """
    k = model.k
    counts: Dict[str, np.ndarray] = {
        era.name: np.full((k, k), smoothing) for era in ERAS
    }
    for position in range(len(model.months) - 1):
        month = model.months[position]
        mid = month.first_day().replace(day=15)
        era = None
        for candidate in ERAS:
            if candidate.contains(mid):
                era = candidate
                break
        if era is None:
            continue
        now = model.ltm.assignments[position]
        nxt = model.ltm.assignments[position + 1]
        matrix = counts[era.name]
        for user, source in now.items():
            target = nxt.get(user)
            if target is not None:
                matrix[source, target] += 1.0
    return {
        name: matrix / matrix.sum(axis=1, keepdims=True)
        for name, matrix in counts.items()
    }


@dataclass(frozen=True)
class FlowRow:
    """One Table 8 row: a maker-class -> taker-class flow within an era."""

    era: str
    ctype: ContractType
    maker_class: int
    taker_class: int
    total: int
    avg_per_month: float
    share_of_type: float


def top_flows(
    dataset: MarketDataset,
    model: LatentClassModel,
    top_n: int = 3,
    types: Sequence[ContractType] = (
        ContractType.EXCHANGE,
        ContractType.PURCHASE,
        ContractType.SALE,
    ),
) -> List[FlowRow]:
    """Table 8: the top maker->taker class flows per type per era."""
    month_positions = {month: i for i, month in enumerate(model.months)}
    wanted = set(types)

    flows: Dict[Tuple[Era, ContractType, int, int], int] = {}
    type_totals: Dict[Tuple[Era, ContractType], int] = {}
    for contract in dataset.contracts:
        if contract.ctype not in wanted:
            continue
        era = dataset.era_of_contract(contract)
        if era is None:
            continue
        month = month_of(contract.created_at)
        position = month_positions.get(month)
        if position is None:
            continue
        assignment = model.ltm.assignments[position]
        maker_class = assignment.get(contract.maker_id)
        taker_class = assignment.get(contract.taker_id)
        if maker_class is None or taker_class is None:
            continue
        key = (era, contract.ctype, maker_class, taker_class)
        flows[key] = flows.get(key, 0) + 1
        type_totals[(era, contract.ctype)] = type_totals.get((era, contract.ctype), 0) + 1

    rows: List[FlowRow] = []
    for era in ERAS:
        months_in_era = len(era.months())
        for ctype in types:
            candidates = [
                (key, count)
                for key, count in flows.items()
                if key[0] == era and key[1] == ctype
            ]
            candidates.sort(key=lambda kv: -kv[1])
            total_of_type = type_totals.get((era, ctype), 0)
            for (era_, ctype_, maker_class, taker_class), count in candidates[:top_n]:
                rows.append(
                    FlowRow(
                        era=era.name,
                        ctype=ctype,
                        maker_class=maker_class,
                        taker_class=taker_class,
                        total=count,
                        avg_per_month=count / months_in_era,
                        share_of_type=count / total_of_type if total_of_type else 0.0,
                    )
                )
    return rows
