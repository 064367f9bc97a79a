"""The market model shared by the generator, and what a run produces.

:mod:`repro.synth.fastgen` generates markets; this module holds the
pieces of the model it draws from — each month's era position, the
per-type status distribution and the per-type class distributions —
and the result types: :class:`SimulationResult` bundles the dataset, the
simulated blockchain, the rate oracle and a ground-truth record used
only by tests and calibration checks.  :func:`result_from_tables` wraps
a finished table dict (generated, cached or read back from a
partitioned store) in one.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..blockchain.chain import ChainTransaction, Ledger
from ..blockchain.rates import RateOracle
from ..core.columns import datetime_from_us
from ..core.dataset import MarketDataset
from ..core.entities import ContractStatus, ContractType
from ..core.eras import ERAS, era_of
from ..core.lazy import ColumnBackedDataset
from ..core.timeutils import Month
from . import config as cfg
from .config import SimulationConfig
from .obligations import ObligationSpec

__all__ = [
    "SimulationTruth",
    "SimulationResult",
    "era_position",
    "status_probs",
    "class_probs",
    "result_from_tables",
]

_TYPES = (
    ContractType.EXCHANGE,
    ContractType.PURCHASE,
    ContractType.SALE,
    ContractType.TRADE,
    ContractType.VOUCH_COPY,
)
_STATUSES = (
    ContractStatus.COMPLETE,
    ContractStatus.ACTIVE_DEAL,
    ContractStatus.DISPUTED,
    ContractStatus.INCOMPLETE,
    ContractStatus.CANCELLED,
    ContractStatus.DENIED,
    ContractStatus.EXPIRED,
)


def era_position(month: Month) -> Tuple[int, float]:
    """Era index and within-era fraction for a month (by its 15th).

    The era schedules (class weights, reuse probabilities) interpolate
    on this fraction.
    """
    mid = _dt.date(month.year, month.month, 15)
    era = era_of(mid)
    if era is None:
        era = ERAS[0] if mid < ERAS[0].start else ERAS[-1]
    era_index = ERAS.index(era)
    era_months = era.months()
    position = month.index_from(era_months[0])
    span = max(1, len(era_months) - 1)
    return era_index, min(1.0, max(0.0, position / span))


def status_probs(ctype: ContractType, dispute_modifier: float) -> np.ndarray:
    """Status distribution over ``_STATUSES`` for one (type, month).

    Applies the month's dispute modifier and pre-inflates COMPLETE to
    compensate for non-completer demotions, pulling the extra mass
    proportionally from the failure statuses.
    """
    base = cfg.STATUS_PROBS[ctype]
    probs = np.asarray([base[s] for s in _STATUSES], dtype=float)
    disputed_index = _STATUSES.index(ContractStatus.DISPUTED)
    probs[disputed_index] *= dispute_modifier
    complete_index = _STATUSES.index(ContractStatus.COMPLETE)
    extra = probs[complete_index] * (cfg.COMPLETION_INFLATION[ctype] - 1.0)
    failure = [
        _STATUSES.index(s)
        for s in (
            ContractStatus.INCOMPLETE,
            ContractStatus.CANCELLED,
            ContractStatus.EXPIRED,
        )
    ]
    failure_mass = probs[failure].sum()
    if failure_mass > extra:
        probs[complete_index] += extra
        for index in failure:
            probs[index] -= extra * probs[index] / failure_mass
    return probs / probs.sum()


def class_probs(
    config: SimulationConfig,
    table: Dict[str, Dict[ContractType, float]],
    ctype: ContractType,
    era_index: int,
    era_fraction: float,
) -> np.ndarray:
    """Behavioural-class distribution for one (rate table, type, month)."""
    weights = np.asarray(
        [
            config.class_weight(name, era_index, era_fraction)
            * table[name][ctype]
            for name in cfg.CLASS_NAMES
        ],
        dtype=float,
    )
    total = weights.sum()
    if total <= 0:  # fall back to population weights alone
        weights = np.asarray(
            [
                config.class_weight(name, era_index, era_fraction)
                for name in cfg.CLASS_NAMES
            ],
            dtype=float,
        )
        total = weights.sum()
    return weights / total


@dataclass
class SimulationTruth:
    """Ground truth kept aside for validation (never used by analyses)."""

    user_class: Dict[int, str] = field(default_factory=dict)
    maker_class: Dict[int, str] = field(default_factory=dict)
    taker_class: Dict[int, str] = field(default_factory=dict)
    specs: Dict[int, ObligationSpec] = field(default_factory=dict)


@dataclass
class SimulationResult:
    """Everything one simulator run produces."""

    dataset: MarketDataset
    ledger: Ledger
    rates: RateOracle
    truth: SimulationTruth
    config: SimulationConfig


def _ledger_from_columns(cols: Dict[str, np.ndarray]) -> Ledger:
    ledger = Ledger()
    for txhash, address, when_us, btc in zip(
        cols["x_txhash"], cols["x_address"],
        np.asarray(cols["x_timestamp_us"]).tolist(),
        np.asarray(cols["x_btc"]).tolist(),
    ):
        ledger.add(
            ChainTransaction(
                txhash=str(txhash),
                address=str(address),
                timestamp=datetime_from_us(when_us),
                btc_amount=btc,
            )
        )
    return ledger


def result_from_tables(
    cols: Dict[str, np.ndarray],
    config: SimulationConfig,
    truth: Optional[SimulationTruth] = None,
) -> SimulationResult:
    """A :class:`SimulationResult` over cache-schema tables.

    The dataset is a lazy :class:`~repro.core.lazy.ColumnBackedDataset`
    (analyses read the arrays; entity objects are built only for
    callers that iterate them) and the ledger is rebuilt from the
    ``x_*`` columns.  ``truth`` defaults to an empty record: cached and
    stored markets keep none.
    """
    return SimulationResult(
        dataset=ColumnBackedDataset(cols),
        ledger=_ledger_from_columns(cols),
        rates=RateOracle(),
        truth=truth if truth is not None else SimulationTruth(),
        config=config,
    )
