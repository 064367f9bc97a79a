"""Trading-value estimation (§4.5): totals, Table 5, Figure 11.

The pipeline follows the paper step by step:

1. extract stated values from the obligation sections of *completed
   public* economic contracts (VOUCH_COPY excluded) and convert to USD at
   the transaction-time rate;
2. emulate the manual check of high-value (>$1,000) transactions: resolve
   Bitcoin references against the (simulated) blockchain; contracts whose
   chain value differs get corrected, values exceeding $10,000 with no
   chain confirmation are treated as 10x typing errors and divided down;
3. report the total/average/maximum per contract type, the naive Table 5
   sums per trading activity and payment method, the top-user value
   concentration, and the private+public extrapolation (a lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..blockchain.chain import Ledger
from ..blockchain.rates import RateOracle
from ..blockchain.verify import (
    HIGH_VALUE_THRESHOLD_USD,
    Verdict,
    VerificationSummary,
    verify_contract_value,
)
from ..core.dataset import MarketDataset
from ..core.entities import Contract, ContractType
from ..core.timeutils import Month, month_of
from ..stats.descriptive import top_share
from ..text.payments import PAYMENT_LABELS
from ..text.taxonomy import CATEGORY_LABELS
from ..text.values import ContractValue, contract_value
from .activities import EVOLUTION_EXCLUDED
from .textfeatures import category_keys, method_keys, text_features

__all__ = [
    "ValuedContract",
    "ValueReport",
    "estimate_dataset_values",
    "total_values",
    "value_tables",
    "value_evolution",
    "TYPO_CUTOFF_USD",
]

#: Stated values above this with no chain confirmation are treated as
#: 10x typing errors (§4.5 found most values over $10,000 were typos).
TYPO_CUTOFF_USD = 10_000.0


@dataclass
class ValuedContract:
    """A completed public contract with its (possibly corrected) value."""

    contract: Contract
    raw: ContractValue
    corrected_usd: float
    verdict: Optional[Verdict] = None

    @property
    def maker_usd(self) -> float:
        """Maker-side value (equal-value assumption when unstated)."""
        base = self.raw.maker_usd if self.raw.maker_usd is not None else self.raw.usd
        return base * self._correction_factor()

    @property
    def taker_usd(self) -> float:
        base = self.raw.taker_usd if self.raw.taker_usd is not None else self.raw.usd
        return base * self._correction_factor()

    def _correction_factor(self) -> float:
        if self.raw.usd <= 0:
            return 1.0
        return self.corrected_usd / self.raw.usd


def estimate_dataset_values(
    dataset: MarketDataset,
    rates: RateOracle,
    ledger: Optional[Ledger] = None,
) -> Dict[int, ValuedContract]:
    """Estimate (and manually check) values for completed public deals."""
    features = text_features(dataset)
    contracts = dataset.contracts
    result: Dict[int, ValuedContract] = {}
    for i, row in enumerate(features.rows.tolist()):
        contract = contracts[row]
        if not contract.is_economic:
            continue
        raw = contract_value(
            contract, features.maker_values[i], features.taker_values[i], rates
        )
        if raw is None or raw.usd <= 0:
            continue
        corrected = raw.usd
        verdict: Optional[Verdict] = None
        if raw.usd > HIGH_VALUE_THRESHOLD_USD and ledger is not None:
            check = verify_contract_value(contract, raw.usd, ledger, rates)
            verdict = check.verdict
            corrected = check.corrected_usd
            if verdict == Verdict.UNCONFIRMED and raw.usd > TYPO_CUTOFF_USD:
                corrected = raw.usd / 10.0  # assume a typing error
        elif raw.usd > TYPO_CUTOFF_USD:
            corrected = raw.usd / 10.0
        result[contract.contract_id] = ValuedContract(
            contract=contract, raw=raw, corrected_usd=corrected, verdict=verdict
        )
    return result


@dataclass
class ValueReport:
    """§4.5's headline numbers."""

    total_usd: float
    average_usd: float
    maximum_usd: float
    n_valued: int
    per_type: Dict[ContractType, Tuple[float, float, float]]  # total, avg, max
    top10pct_user_share: float
    average_per_participant: float
    extrapolated_total_usd: float
    verification: Optional[VerificationSummary] = None


def total_values(
    dataset: MarketDataset,
    rates: RateOracle,
    ledger: Optional[Ledger] = None,
    valued: Optional[Dict[int, ValuedContract]] = None,
) -> ValueReport:
    """Compute §4.5's totals, concentration and extrapolation."""
    if valued is None:
        valued = estimate_dataset_values(dataset, rates, ledger)
    values = [v.corrected_usd for v in valued.values()]
    total = sum(values)
    n = len(values)

    per_type: Dict[ContractType, Tuple[float, float, float]] = {}
    for ctype in (
        ContractType.EXCHANGE,
        ContractType.SALE,
        ContractType.PURCHASE,
        ContractType.TRADE,
    ):
        subset = [v.corrected_usd for v in valued.values() if v.contract.ctype == ctype]
        if subset:
            per_type[ctype] = (sum(subset), sum(subset) / len(subset), max(subset))
        else:
            per_type[ctype] = (0.0, 0.0, 0.0)

    # Per-user value (as maker or taker) for the concentration statistic.
    user_value: Dict[int, float] = {}
    for v in valued.values():
        for user in v.contract.parties():
            user_value[user] = user_value.get(user, 0.0) + v.corrected_usd
    share = top_share(list(user_value.values()), 10.0) if user_value else 0.0
    participants = dataset.participant_ids()
    per_participant = total / len(participants) if participants else 0.0

    # Extrapolate to private contracts: assume private completed deals of
    # each type are at least as valuable on average as public ones.
    extrapolated = 0.0
    for ctype, (type_total, type_avg, _) in per_type.items():
        completed_all = sum(
            1 for c in dataset.contracts if c.is_complete and c.ctype == ctype
        )
        extrapolated += type_avg * completed_all

    return ValueReport(
        total_usd=total,
        average_usd=total / n if n else 0.0,
        maximum_usd=max(values) if values else 0.0,
        n_valued=n,
        per_type=per_type,
        top10pct_user_share=share,
        average_per_participant=per_participant,
        extrapolated_total_usd=extrapolated,
    )


def value_tables(
    dataset: MarketDataset,
    rates: RateOracle,
    ledger: Optional[Ledger] = None,
    top_n: int = 10,
    valued: Optional[Dict[int, ValuedContract]] = None,
) -> Tuple[List[Tuple[str, float, float, float]], List[Tuple[str, float, float, float]]]:
    """Table 5: top activities and payment methods by traded value.

    Returns two lists of ``(label, maker_value, taker_value, total)``
    sorted by total, the paper's naive per-category sums (a contract in
    two categories contributes to both).
    """
    if valued is None:
        valued = estimate_dataset_values(dataset, rates, ledger)
    features = text_features(dataset)
    joined = features.joined_categories.tolist()
    maker_methods = features.maker_methods.tolist()
    taker_methods = features.taker_methods.tolist()

    activity_maker: Dict[str, float] = {}
    activity_taker: Dict[str, float] = {}
    method_maker: Dict[str, float] = {}
    method_taker: Dict[str, float] = {}

    for v in valued.values():
        i = features.position[v.contract.contract_id]
        for category in category_keys(joined[i]):
            activity_maker[category] = activity_maker.get(category, 0.0) + v.maker_usd
            activity_taker[category] = activity_taker.get(category, 0.0) + v.taker_usd
        for method in method_keys(maker_methods[i]):
            method_maker[method] = method_maker.get(method, 0.0) + v.maker_usd
        for method in method_keys(taker_methods[i]):
            method_taker[method] = method_taker.get(method, 0.0) + v.taker_usd

    def build(
        maker: Dict[str, float], taker: Dict[str, float], labels: Dict[str, str]
    ) -> List[Tuple[str, float, float, float]]:
        rows = []
        for key in set(maker) | set(taker):
            m = maker.get(key, 0.0)
            t = taker.get(key, 0.0)
            rows.append((labels.get(key, key), m, t, m + t))
        rows.sort(key=lambda r: (-r[3], r[0]))
        return rows[:top_n]

    return (
        build(activity_maker, activity_taker, CATEGORY_LABELS),
        build(method_maker, method_taker, PAYMENT_LABELS),
    )


def value_evolution(
    dataset: MarketDataset,
    rates: RateOracle,
    ledger: Optional[Ledger] = None,
    top_n: int = 5,
    valued: Optional[Dict[int, ValuedContract]] = None,
) -> Dict[str, Dict[str, Dict[Month, float]]]:
    """Figure 11: monthly USD value by type, payment method and product.

    Returns ``{"by_type": ..., "by_method": ..., "by_product": ...}``,
    each mapping series label -> {month: usd}.  Products exclude currency
    exchange and payments, as in Figure 9/11.
    """
    if valued is None:
        valued = estimate_dataset_values(dataset, rates, ledger)
    features = text_features(dataset)
    joined = features.joined_categories.tolist()
    methods = (features.maker_methods | features.taker_methods).tolist()

    by_type: Dict[str, Dict[Month, float]] = {}
    by_method: Dict[str, Dict[Month, float]] = {}
    by_product: Dict[str, Dict[Month, float]] = {}
    method_totals: Dict[str, float] = {}
    product_totals: Dict[str, float] = {}

    for v in valued.values():
        contract = v.contract
        i = features.position[contract.contract_id]
        month = month_of(contract.created_at)
        label = contract.ctype.name
        by_type.setdefault(label, {})
        by_type[label][month] = by_type[label].get(month, 0.0) + v.corrected_usd

        for method in method_keys(methods[i]):
            name = PAYMENT_LABELS.get(method, method)
            by_method.setdefault(name, {})
            by_method[name][month] = by_method[name].get(month, 0.0) + v.corrected_usd
            method_totals[name] = method_totals.get(name, 0.0) + v.corrected_usd

        for category in category_keys(joined[i]):
            if category in EVOLUTION_EXCLUDED:
                continue
            name = CATEGORY_LABELS.get(category, category)
            by_product.setdefault(name, {})
            by_product[name][month] = by_product[name].get(month, 0.0) + v.corrected_usd
            product_totals[name] = product_totals.get(name, 0.0) + v.corrected_usd

    # Rankings break ties on the label and type columns follow the enum,
    # so the output never depends on the order contracts are stored in.
    top_methods = sorted(method_totals, key=lambda m: (-method_totals[m], m))[:top_n]
    top_products = sorted(product_totals, key=lambda p: (-product_totals[p], p))[:top_n]
    return {
        "by_type": {
            ctype.name: dict(sorted(by_type[ctype.name].items()))
            for ctype in ContractType
            if ctype.name in by_type
        },
        "by_method": {k: dict(sorted(by_method[k].items())) for k in top_methods},
        "by_product": {k: dict(sorted(by_product[k].items())) for k in top_products},
    }
