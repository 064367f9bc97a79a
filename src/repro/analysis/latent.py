"""Latent class / latent transition analysis (§5.1).

Each user-month is a case described by ten counts: contracts *made* and
*accepted* in each of the five types.  A Poisson latent-class model
(Table 6's 12 classes, selected by AIC/BIC) classifies the cases; class
assignments then drive:

* Figures 12/13 — monthly transactions made/accepted per class;
* Table 8 — top maker-class -> taker-class flows per type per era;
* the latent *transition* matrix between consecutive months.

The cases form a panel keyed by (month, user code), built by one
group-by over the column store; every later step finds a contract's
maker or taker case by searching that key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.columns import CTYPE_ORDER, month_from_index, month_index_of
from ..core.dataset import MarketDataset
from ..core.entities import ContractType
from ..core.eras import ERAS, era_of
from ..core.timeutils import Month
from ..obs.tracer import get_tracer
from ..stats.ltm import LatentTransitionResult, fit_latent_transitions, successor_rows
from ..stats.mixture import PoissonMixtureResult, select_poisson_mixture

__all__ = [
    "FEATURE_NAMES",
    "LatentClassModel",
    "FlowRow",
    "UserMonthPanel",
    "class_id",
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

#: The ``make_*`` feature column of each store type code (``take_*`` is
#: five further on).
_MAKE_COLUMN = np.array([_TYPES.index(ctype) for ctype in CTYPE_ORDER])


@dataclass(frozen=True)
class UserMonthPanel:
    """The user-month cases, one row per user and month in which the
    user was party to a contract, sorted by (month, user code).

    ``counts[i]`` holds row ``i``'s :data:`FEATURE_NAMES` counts,
    ``month_pos[i]`` indexes ``month_index`` (the panel's months as
    months since 1970-01, ascending) and ``user_code[i]`` is a store
    user code, whose id is ``user_ids[user_code[i]]``.
    """

    counts: np.ndarray
    month_pos: np.ndarray
    user_code: np.ndarray
    month_index: np.ndarray
    user_ids: np.ndarray

    @property
    def months(self) -> List[Month]:
        return [month_from_index(int(i)) for i in self.month_index]

    def rows_of(self, month_idx: np.ndarray, user_code: np.ndarray) -> np.ndarray:
        """The row of each (month since 1970-01, user code) case; −1
        where that user has no case in that month."""
        if not len(self.counts):
            return np.full(len(month_idx), -1, dtype=np.int64)
        width = len(self.user_ids)
        keys = self.month_pos * width + self.user_code
        pos = np.searchsorted(self.month_index, month_idx)
        pos = np.minimum(pos, len(self.month_index) - 1)
        wanted = pos * width + user_code
        slot = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        found = (keys[slot] == wanted) & (self.month_index[pos] == month_idx)
        return np.where(found, slot, -1)


def user_month_profiles(dataset: MarketDataset) -> UserMonthPanel:
    """Build the user-month count panel.

    A row covers a user party to at least one contract created that
    month — the paper "treats each month's activity for each user as a
    separate case".
    """
    store = dataset.columns()
    width = len(FEATURE_NAMES)
    n_users = store.n_users
    month_index, month_pos = np.unique(store.month_idx, return_inverse=True)
    base = month_pos.reshape(-1) * n_users
    column = _MAKE_COLUMN[store.ctype]
    # Each contract counts once for its maker (make_*), once for its taker.
    keys, row = np.unique(
        np.concatenate([base + store.maker_code, base + store.taker_code]),
        return_inverse=True,
    )
    feature = np.concatenate([column, column + len(_TYPES)])
    counts = np.bincount(
        row.reshape(-1) * width + feature, minlength=len(keys) * width
    ).reshape(len(keys), width).astype(float)
    return UserMonthPanel(
        counts=counts,
        month_pos=keys // n_users,
        user_code=keys % n_users,
        month_index=month_index,
        user_ids=store.user_ids,
    )


def class_id(index: int) -> str:
    """The printed id of latent class ``index``: A to Z, then C26, C27, ..."""
    return chr(ord("A") + index) if index < 26 else f"C{index}"


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
    """The fitted §5.1 model: measurement classes + monthly transitions.

    ``ltm.assignments[i]`` is the class of ``panel`` row ``i``.
    """

    ltm: LatentTransitionResult
    panel: UserMonthPanel
    class_labels: List[str]
    bic_by_k: Dict[int, float]

    @property
    def k(self) -> int:
        return self.ltm.k

    @property
    def months(self) -> List[Month]:
        return self.panel.months

    @property
    def mixture(self) -> PoissonMixtureResult:
        return self.ltm.mixture

    def table6(self) -> List[Tuple[str, List[float], str]]:
        """Table 6 rows: (class id, ten mean monthly rates, label)."""
        rows = []
        for index in range(self.k):
            rows.append(
                (
                    class_id(index),
                    [float(r) for r in self.mixture.rates[index]],
                    self.class_labels[index],
                )
            )
        return rows

    def assignment_for(self, month: Month) -> Dict[Hashable, int]:
        """User id -> class table for one month (empty dict if absent)."""
        panel = self.panel
        rows = np.flatnonzero(
            panel.month_index[panel.month_pos] == month_index_of(month)
        )
        users = panel.user_ids[panel.user_code[rows]]
        return dict(zip(users.tolist(), self.ltm.assignments[rows].tolist()))


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
    tracer = get_tracer()
    with tracer.span("latent.fit"):
        panel = user_month_profiles(dataset)
        if not len(panel.counts):
            raise ValueError("dataset has no contracts")
        bic_by_k: Dict[int, float] = {}
        mixture: Optional[PoissonMixtureResult] = None
        if select:
            mixture, bic_by_k = select_poisson_mixture(
                panel.counts, k_range=k_range, seed=seed, n_init=n_init,
                feature_names=list(FEATURE_NAMES),
            )
            k = mixture.k
        ltm = fit_latent_transitions(
            panel.counts, panel.month_pos, panel.user_code, k=k, seed=seed,
            n_init=n_init, feature_names=list(FEATURE_NAMES), mixture=mixture,
        )
    # EM's cost per iteration follows the distinct profiles, not the rows.
    tracer.gauge("latent.rows", ltm.mixture.n_obs)
    tracer.gauge("latent.profiles", ltm.mixture.n_profiles)
    # The best restart may stop at the iteration cap before the EM
    # tolerance; Table 6 does not say so, the trace does.
    tracer.gauge("latent.iterations", ltm.mixture.n_iter)
    tracer.gauge("latent.converged", float(ltm.mixture.converged))
    labels = [_behaviour_label(ltm.mixture.rates[i]) for i in range(ltm.k)]
    return LatentClassModel(ltm=ltm, panel=panel, class_labels=labels, bic_by_k=bic_by_k)


def _contract_classes(
    dataset: MarketDataset, model: LatentClassModel, codes: np.ndarray
) -> np.ndarray:
    """The class of each contract's party ``codes`` (a maker or taker
    code column) in the contract's month; −1 where that party has no
    case in ``model``'s panel."""
    rows = model.panel.rows_of(dataset.columns().month_idx, codes)
    return np.where(rows >= 0, model.ltm.assignments[rows], -1)


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
    ``{ctype: {class_index: {month: count}}}``, classes and months
    ascending, with the types in ``types`` order (the figures render the
    sections in key order).
    """
    if role not in ("made", "accepted"):
        raise ValueError("role must be 'made' or 'accepted'")
    store = dataset.columns()
    klass = _contract_classes(
        dataset, model, store.maker_code if role == "made" else store.taker_code
    )
    months, month_pos = np.unique(store.month_idx, return_inverse=True)
    n_months = len(months)
    series: Dict[ContractType, Dict[int, Dict[Month, int]]] = {}
    for ctype in types:
        sel = store.ctype_mask(ctype) & (klass >= 0)
        grid = np.bincount(
            klass[sel] * n_months + month_pos.reshape(-1)[sel],
            minlength=model.k * n_months,
        ).reshape(model.k, n_months)
        series[ctype] = {
            int(index): {
                month_from_index(int(months[pos])): int(grid[index, pos])
                for pos in np.flatnonzero(grid[index])
            }
            for index in np.flatnonzero(grid.sum(axis=1))
        }
    return series


def era_transition_matrices(
    model: LatentClassModel, smoothing: float = 0.5
) -> Dict[str, np.ndarray]:
    """Per-era class-transition matrices.

    The pooled LTM gives one transition matrix for the whole window; the
    paper's narrative, however, is about how mobility *changes* between
    eras (SET-UP's orientation phase vs STABLE's settled roles).  This
    aggregates consecutive-month transitions separately within each era
    (the era holding the earlier month's 15th) and returns one
    row-stochastic matrix per era name.
    """
    k = model.k
    panel = model.panel
    era_of_month = []
    for month in model.months:
        era = era_of(month.first_day().replace(day=15))
        era_of_month.append(ERAS.index(era) if era is not None else -1)
    row_era = np.asarray(era_of_month, dtype=np.int64)[panel.month_pos]
    nxt = successor_rows(panel.month_pos, panel.user_code)
    sel = (nxt >= 0) & (row_era >= 0)
    labels = model.ltm.assignments
    counts = np.full((len(ERAS), k, k), smoothing)
    np.add.at(counts, (row_era[sel], labels[sel], labels[nxt[sel]]), 1.0)
    return {
        era.name: matrix / matrix.sum(axis=1, keepdims=True)
        for era, matrix in zip(ERAS, counts)
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
    store = dataset.columns()
    k = model.k
    maker = _contract_classes(dataset, model, store.maker_code)
    taker = _contract_classes(dataset, model, store.taker_code)
    classified = (maker >= 0) & (taker >= 0)

    rows: List[FlowRow] = []
    for era_index, era in enumerate(ERAS):
        months_in_era = len(era.months())
        in_era = classified & store.era_mask(era_index)
        for ctype in types:
            sel = in_era & store.ctype_mask(ctype)
            flows = np.bincount(maker[sel] * k + taker[sel], minlength=k * k)
            total_of_type = int(flows.sum())
            # Ties rank by (maker, taker) class, not by contract order.
            for flow in np.argsort(-flows, kind="stable")[:top_n].tolist():
                count = int(flows[flow])
                if not count:
                    break
                rows.append(
                    FlowRow(
                        era=era.name,
                        ctype=ctype,
                        maker_class=flow // k,
                        taker_class=flow % k,
                        total=count,
                        avg_per_month=count / months_in_era,
                        share_of_type=count / total_of_type,
                    )
                )
    return rows
