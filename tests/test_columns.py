"""Parity tests: every columnar kernel must match an entity-object reference.

The ``ref_*`` functions below walk the dataset's entity lists
(``ds.contracts``, ``ds.ratings``, ``ds.posts``) one object at a time —
the slow, obviously correct formulation of each analysis.  Each columnar
kernel in ``src/`` is checked against its reference on two seeds.
Integer counts must match exactly; float curves are compared with
``np.allclose``.  The text-driven analyses (Tables 3–5, Figures 9–11,
§6's category drift) read the memoized obligation-text features instead
of re-running the regexes per contract; they must match their
per-contract references exactly, floats included.  So must the era
profiles, disputes, reputation, cold-start and §4.5 totals.  The §5.1
references take the panel as one ``{user id: ...}`` dict per month, so
their outputs are compared as mappings keyed by (month, user), and row
order does not enter.
"""

from __future__ import annotations

import datetime as dt
import sys
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.analysis.activities import (
    EVOLUTION_EXCLUDED,
    ActivityRow,
    ActivityTable,
    product_evolution,
    top_trading_activities,
)
from repro.analysis.centralisation import (
    KEY_PERCENT,
    ConcentrationCurves,
    KeySharePoint,
    concentration_curves,
    key_share_by_month,
)
from repro.analysis.coldstart import (
    ColdStartClustering,
    ColdStartSummary,
    _era_bounds,
    cluster_cold_starters,
    cold_start_summary,
    cold_starters,
)
from repro.analysis.disputes import (
    DisputeSummary,
    dispute_rate_by_era,
    dispute_rate_by_month,
    dispute_summary,
    disputed_goods,
    disputes_per_user,
)
from repro.analysis.eras_summary import (
    EraProfile,
    StimulusResult,
    composition_distance,
    era_profiles,
    stimulus_test,
)
from repro.analysis.funnel import (
    ContractFunnel,
    _funnel_from_status_counts,
    contract_funnel,
    funnel_by_era,
)
from repro.analysis.latent import _TYPES as LATENT_TYPES
from repro.analysis.latent import (
    FEATURE_NAMES,
    FlowRow,
    class_activity_series,
    era_transition_matrices,
    fit_latent_classes,
    top_flows,
    user_month_profiles,
)
from repro.analysis.monthly import (
    GrowthPoint,
    completion_month,
    completion_times,
    monthly_growth,
    type_proportions,
    visibility_share,
)
from repro.analysis.payments import (
    PaymentRow,
    PaymentTable,
    payment_evolution,
    payment_related_contracts,
    top_payment_methods,
)
from repro.analysis.reputation import (
    ReputationPremium,
    cohort_reputation_trajectories,
    reputation_concentration_by_month,
    reputation_premium_by_era,
)
from repro.analysis.taxonomy import (
    TaxonomyTable,
    VisibilityTable,
    contract_taxonomy,
    visibility_table,
)
from repro.analysis.values import (
    TYPO_CUTOFF_USD,
    ValuedContract,
    ValueReport,
    estimate_dataset_values,
    total_values,
    value_evolution,
    value_tables,
)
from repro.blockchain.chain import Ledger
from repro.blockchain.rates import RateOracle
from repro.blockchain.verify import (
    HIGH_VALUE_THRESHOLD_USD,
    Verdict,
    verify_contract_value,
)
from repro.core.columns import (
    CTYPE_ORDER,
    NAT_US,
    STATUS_ORDER,
    ColumnStore,
    datetime_from_us,
    month_from_index,
)
from repro.core.dataset import MarketDataset, UserActivity
from repro.core.entities import Contract, ContractStatus, ContractType
from repro.core.eras import COVID19, ERAS, SETUP, STABLE, Era, era_of
from repro.core.lazy import ColumnBackedDataset
from repro.core.timeutils import Month, month_of
from repro.network.degrees import (
    DegreeDistributions,
    DegreeGrowthPoint,
    dataset_degree_distributions,
    degree_distributions,
    degree_growth,
)
from repro.network.graph import ContractGraph
from repro.obs import disable_tracing, enable_tracing
from repro.stats.contingency import chi2_contingency
from repro.stats.descriptive import concentration_curve, gini, top_share
from repro.stats.mixture import PoissonMixtureResult, fit_poisson_mixture
from repro.synth import MarketSimulator, SimulationConfig
from repro.text.payments import PAYMENT_LABELS, PAYMENT_METHODS, PaymentExtractor
from repro.text.taxonomy import (
    CATEGORIES,
    CATEGORY_LABELS,
    PAYMENT_RELATED_CATEGORIES,
    UNCATEGORISED,
    ActivityCategorizer,
)
from repro.text.values import estimate_contract_value


# --------------------------------------------------------------------- #
# entity-object references: MarketDataset
# --------------------------------------------------------------------- #


def ref_participant_ids(ds: MarketDataset) -> Set[int]:
    ids: Set[int] = set()
    for contract in ds.contracts:
        ids.add(contract.maker_id)
        ids.add(contract.taker_id)
    return ids


def ref_user_activity(
    ds: MarketDataset,
    start: Optional[dt.datetime] = None,
    end: Optional[dt.datetime] = None,
) -> Dict[int, UserActivity]:
    def in_window(when: Optional[dt.datetime]) -> bool:
        if when is None:
            return False
        if start is not None and when < start:
            return False
        if end is not None and when > end:
            return False
        return True

    activity: Dict[int, UserActivity] = {}

    def get(user_id: int) -> UserActivity:
        record = activity.get(user_id)
        if record is None:
            record = UserActivity(user_id=user_id)
            activity[user_id] = record
        return record

    for contract in ds.contracts:
        if not in_window(contract.created_at):
            continue
        maker = get(contract.maker_id)
        taker = get(contract.taker_id)
        maker.initiated += 1
        taker.accepted += 1
        for record in (maker, taker):
            if record.first_contract_at is None or contract.created_at < record.first_contract_at:
                record.first_contract_at = contract.created_at
            if record.last_active_at is None or contract.created_at > record.last_active_at:
                record.last_active_at = contract.created_at
        if contract.is_complete:
            maker.completed += 1
            taker.completed += 1
        if contract.status == ContractStatus.DISPUTED:
            maker.disputes += 1
            taker.disputes += 1

    for rating in ds.ratings:
        if not in_window(rating.created_at):
            continue
        record = get(rating.ratee_id)
        if rating.score > 0:
            record.positive_ratings += 1
        else:
            record.negative_ratings += 1

    for post in ds.posts:
        if not in_window(post.created_at):
            continue
        record = get(post.author_id)
        record.total_posts += 1
        if post.is_marketplace:
            record.marketplace_posts += 1
        if record.first_post_at is None or post.created_at < record.first_post_at:
            record.first_post_at = post.created_at
        if record.last_active_at is None or post.created_at > record.last_active_at:
            record.last_active_at = post.created_at

    return activity


def ref_summary(ds: MarketDataset) -> Dict[str, int]:
    participant_set: Set[int] = set()
    completed = public = 0
    for contract in ds.contracts:
        if contract.is_complete:
            completed += 1
        if contract.is_public:
            public += 1
        participant_set.add(contract.maker_id)
        participant_set.add(contract.taker_id)
    participants = len(participant_set)
    counts = ds._entity_counts()
    return {
        "users": counts["users"],
        "contracts": counts["contracts"],
        "completed_contracts": completed,
        "public_contracts": public,
        "threads": counts["threads"],
        "posts": counts["posts"],
        "ratings": counts["ratings"],
        "participants": participants,
    }


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.monthly
# --------------------------------------------------------------------- #


def ref_monthly_growth(dataset: MarketDataset) -> List[GrowthPoint]:
    created_counts: Dict[Month, int] = {}
    completed_counts: Dict[Month, int] = {}
    first_created: Dict[int, Month] = {}
    first_completed: Dict[int, Month] = {}

    for contract in dataset.contracts:
        created_in = month_of(contract.created_at)
        created_counts[created_in] = created_counts.get(created_in, 0) + 1
        for user in contract.parties():
            if user not in first_created or created_in < first_created[user]:
                first_created[user] = created_in
        settled = completion_month(contract)
        if settled is not None:
            completed_counts[settled] = completed_counts.get(settled, 0) + 1
            for user in contract.parties():
                if user not in first_completed or settled < first_completed[user]:
                    first_completed[user] = settled

    new_created: Dict[Month, int] = {}
    for month in first_created.values():
        new_created[month] = new_created.get(month, 0) + 1
    new_completed: Dict[Month, int] = {}
    for month in first_completed.values():
        new_completed[month] = new_completed.get(month, 0) + 1

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


def ref_visibility_share(dataset: MarketDataset) -> Dict[Month, Dict[str, float]]:
    created_total: Dict[Month, int] = {}
    created_public: Dict[Month, int] = {}
    completed_total: Dict[Month, int] = {}
    completed_public: Dict[Month, int] = {}
    for contract in dataset.contracts:
        month = month_of(contract.created_at)
        created_total[month] = created_total.get(month, 0) + 1
        if contract.is_public:
            created_public[month] = created_public.get(month, 0) + 1
        settled = completion_month(contract)
        if settled is not None:
            completed_total[settled] = completed_total.get(settled, 0) + 1
            if contract.is_public:
                completed_public[settled] = completed_public.get(settled, 0) + 1

    result = {}
    for month in sorted(set(created_total) | set(completed_total)):
        created = created_total.get(month, 0)
        completed = completed_total.get(month, 0)
        result[month] = {
            "created": created_public.get(month, 0) / created if created else 0.0,
            "completed": completed_public.get(month, 0) / completed if completed else 0.0,
        }
    return result


def ref_type_proportions(
    dataset: MarketDataset, completed_only: bool = False
) -> Dict[Month, Dict[ContractType, float]]:
    counts: Dict[Month, Dict[ContractType, int]] = {}
    for contract in dataset.contracts:
        if completed_only:
            month = completion_month(contract)
            if month is None:
                continue
        else:
            month = month_of(contract.created_at)
        bucket = counts.setdefault(month, {})
        bucket[contract.ctype] = bucket.get(contract.ctype, 0) + 1

    result = {}
    for month in sorted(counts):
        total = sum(counts[month].values())
        result[month] = {
            ctype: counts[month].get(ctype, 0) / total for ctype in ContractType
        }
    return result


def ref_completion_times(
    dataset: MarketDataset,
) -> Dict[Month, Dict[ContractType, float]]:
    sums: Dict[Month, Dict[ContractType, float]] = {}
    counts: Dict[Month, Dict[ContractType, int]] = {}
    for contract in dataset.contracts:
        hours = contract.completion_hours
        if hours is None or not contract.is_complete:
            continue
        month = month_of(contract.created_at)
        sums.setdefault(month, {}).setdefault(contract.ctype, 0.0)
        counts.setdefault(month, {}).setdefault(contract.ctype, 0)
        sums[month][contract.ctype] += hours
        counts[month][contract.ctype] += 1

    return {
        month: {
            ctype: sums[month][ctype] / counts[month][ctype]
            for ctype in sums[month]
        }
        for month in sorted(sums)
    }


# --------------------------------------------------------------------- #
# entity-object references: taxonomy and funnel
# --------------------------------------------------------------------- #


def ref_contract_taxonomy(dataset: MarketDataset) -> TaxonomyTable:
    counts: Dict = {}
    for contract in dataset.contracts:
        key = (contract.ctype, contract.status)
        counts[key] = counts.get(key, 0) + 1
    return TaxonomyTable(counts=counts, total=len(dataset.contracts))


def ref_visibility_table(dataset: MarketDataset) -> VisibilityTable:
    created: Dict = {}
    completed: Dict = {}
    for contract in dataset.contracts:
        key = (contract.ctype, contract.visibility)
        created[key] = created.get(key, 0) + 1
        if contract.is_complete:
            completed[key] = completed.get(key, 0) + 1
    return VisibilityTable(created=created, completed=completed)


def ref_contract_funnel(
    dataset: MarketDataset, contracts: Optional[Sequence[Contract]] = None
) -> ContractFunnel:
    subset = list(contracts) if contracts is not None else dataset.contracts
    by_status: Dict[ContractStatus, int] = {}
    for contract in subset:
        by_status[contract.status] = by_status.get(contract.status, 0) + 1
    return _funnel_from_status_counts(by_status)


def ref_funnel_by_era(dataset: MarketDataset) -> Dict[str, ContractFunnel]:
    return {
        era.name: ref_contract_funnel(dataset, dataset.in_era(era))
        for era in ERAS
    }


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.centralisation
# --------------------------------------------------------------------- #


def _user_involvement(contracts: Sequence[Contract]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for contract in contracts:
        for user in contract.parties():
            counts[user] = counts.get(user, 0) + 1
    return counts


def _thread_involvement(contracts: Sequence[Contract]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for contract in contracts:
        if contract.thread_id is not None:
            counts[contract.thread_id] = counts.get(contract.thread_id, 0) + 1
    return counts


def _key_share(counts: Dict[int, int], percent: float) -> float:
    """Share of involvement covered by the top ``percent`` % of actors."""
    if not counts:
        return 0.0
    values = sorted(counts.values(), reverse=True)
    k = max(1, int(round(len(values) * percent / 100.0)))
    total = sum(values)
    return sum(values[:k]) / total if total else 0.0


def ref_concentration_curves(
    dataset: MarketDataset,
    percents: Sequence[float] = tuple(range(1, 101)),
) -> ConcentrationCurves:
    created = dataset.contracts
    completed = dataset.completed()

    users_created = _user_involvement(created)
    users_completed = _user_involvement(completed)
    threads_created = _thread_involvement(created)
    threads_completed = _thread_involvement(completed)

    def curve(counts: Dict[int, int]) -> Dict[float, float]:
        values = list(counts.values())
        if not values:
            return {float(p): 0.0 for p in percents}
        return {float(p): s for p, s in concentration_curve(values, percents).items()}

    return ConcentrationCurves(
        users_created=curve(users_created),
        users_completed=curve(users_completed),
        threads_created=curve(threads_created),
        threads_completed=curve(threads_completed),
        user_gini_created=gini(list(users_created.values())) if users_created else 0.0,
        thread_gini_created=gini(list(threads_created.values())) if threads_created else 0.0,
    )


def ref_key_share_by_month(
    dataset: MarketDataset, percent: float = KEY_PERCENT
) -> List[KeySharePoint]:
    created_by_month: Dict[Month, List[Contract]] = {}
    completed_by_month: Dict[Month, List[Contract]] = {}
    for contract in dataset.contracts:
        created_by_month.setdefault(month_of(contract.created_at), []).append(contract)
        settled = completion_month(contract)
        if settled is not None:
            completed_by_month.setdefault(settled, []).append(contract)

    months = sorted(set(created_by_month) | set(completed_by_month))
    series = []
    for month in months:
        created = created_by_month.get(month, [])
        completed = completed_by_month.get(month, [])
        series.append(
            KeySharePoint(
                month=month,
                key_members_created=_key_share(_user_involvement(created), percent),
                key_members_completed=_key_share(_user_involvement(completed), percent),
                key_threads_created=_key_share(_thread_involvement(created), percent),
                key_threads_completed=_key_share(_thread_involvement(completed), percent),
            )
        )
    return series


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.activities
# --------------------------------------------------------------------- #


def ref_top_trading_activities(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
    contracts: Optional[Sequence[Contract]] = None,
) -> ActivityTable:
    categorizer = categorizer or ActivityCategorizer()
    subset = list(contracts) if contracts is not None else dataset.completed_public()

    rows: Dict[str, ActivityRow] = {
        key: ActivityRow(key, CATEGORY_LABELS.get(key, key))
        for key in tuple(CATEGORIES) + (UNCATEGORISED,)
    }
    all_row = ActivityRow("all", "All Trading Activities")

    for contract in subset:
        maker_cats = categorizer.categorize(contract.maker_obligation)
        taker_cats = categorizer.categorize(contract.taker_obligation)
        both_cats = maker_cats | taker_cats
        for category in maker_cats:
            row = rows[category]
            row.maker_contracts += 1
            row.maker_users.add(contract.maker_id)
        for category in taker_cats:
            row = rows[category]
            row.taker_contracts += 1
            row.taker_users.add(contract.taker_id)
        for category in both_cats:
            row = rows[category]
            row.both_contracts += 1
            row.both_users.add(contract.maker_id)
            row.both_users.add(contract.taker_id)
        if both_cats - {UNCATEGORISED}:
            all_row.both_contracts += 1
            all_row.both_users.add(contract.maker_id)
            all_row.both_users.add(contract.taker_id)
        if maker_cats - {UNCATEGORISED}:
            all_row.maker_contracts += 1
            all_row.maker_users.add(contract.maker_id)
        if taker_cats - {UNCATEGORISED}:
            all_row.taker_contracts += 1
            all_row.taker_users.add(contract.taker_id)

    return ActivityTable(rows=rows, all_row=all_row, n_contracts=len(subset))


def ref_product_evolution(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
    top_n: int = 5,
    exclude: Sequence[str] = EVOLUTION_EXCLUDED,
) -> Dict[str, Dict[Month, int]]:
    categorizer = categorizer or ActivityCategorizer()
    subset = dataset.completed_public()

    monthly: Dict[str, Dict[Month, int]] = {}
    totals: Dict[str, int] = {}
    excluded = set(exclude) | {UNCATEGORISED}
    for contract in subset:
        categories = categorizer.categorize_sides(
            contract.maker_obligation, contract.taker_obligation
        )
        month = month_of(contract.created_at)
        for category in categories - excluded:
            monthly.setdefault(category, {})
            monthly[category][month] = monthly[category].get(month, 0) + 1
            totals[category] = totals.get(category, 0) + 1

    # Ties broken by category key so the pick is hash-seed independent.
    winners = sorted(totals, key=lambda c: (-totals[c], c))[:top_n]
    return {category: dict(sorted(monthly[category].items())) for category in winners}


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.payments
# --------------------------------------------------------------------- #


def ref_payment_related_contracts(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
    contracts: Optional[Sequence[Contract]] = None,
) -> List[Contract]:
    """Completed public contracts in currency-exchange/payments/giftcard."""
    categorizer = categorizer or ActivityCategorizer()
    subset = list(contracts) if contracts is not None else dataset.completed_public()
    selected: List[Contract] = []
    for contract in subset:
        categories = categorizer.categorize_sides(
            contract.maker_obligation, contract.taker_obligation
        )
        if categories & PAYMENT_RELATED_CATEGORIES:
            selected.append(contract)
    return selected


def ref_top_payment_methods(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
    extractor: Optional[PaymentExtractor] = None,
    contracts: Optional[Sequence[Contract]] = None,
) -> PaymentTable:
    """Table 4: payment methods in completed public payment-related deals."""
    extractor = extractor or PaymentExtractor()
    selected = ref_payment_related_contracts(dataset, categorizer, contracts)

    rows: Dict[str, PaymentRow] = {
        key: PaymentRow(key, PAYMENT_LABELS.get(key, key)) for key in PAYMENT_METHODS
    }
    all_row = PaymentRow("all", "All Methods")

    for contract in selected:
        maker_methods = extractor.extract(contract.maker_obligation)
        taker_methods = extractor.extract(contract.taker_obligation)
        both_methods = maker_methods | taker_methods
        for method in maker_methods:
            rows[method].maker_contracts += 1
            rows[method].maker_users.add(contract.maker_id)
        for method in taker_methods:
            rows[method].taker_contracts += 1
            rows[method].taker_users.add(contract.taker_id)
        for method in both_methods:
            rows[method].both_contracts += 1
            rows[method].both_users.add(contract.maker_id)
            rows[method].both_users.add(contract.taker_id)
        if maker_methods:
            all_row.maker_contracts += 1
            all_row.maker_users.add(contract.maker_id)
        if taker_methods:
            all_row.taker_contracts += 1
            all_row.taker_users.add(contract.taker_id)
        if both_methods:
            all_row.both_contracts += 1
            all_row.both_users.add(contract.maker_id)
            all_row.both_users.add(contract.taker_id)

    return PaymentTable(rows=rows, all_row=all_row, n_contracts=len(selected))


def ref_payment_evolution(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
    extractor: Optional[PaymentExtractor] = None,
    top_n: int = 5,
) -> Dict[str, Dict[Month, int]]:
    """Figure 10: monthly completed contracts per top payment method."""
    extractor = extractor or PaymentExtractor()
    selected = ref_payment_related_contracts(dataset, categorizer)

    monthly: Dict[str, Dict[Month, int]] = {}
    totals: Dict[str, int] = {}
    for contract in selected:
        methods = extractor.extract_sides(
            contract.maker_obligation, contract.taker_obligation
        )
        month = month_of(contract.created_at)
        for method in methods:
            monthly.setdefault(method, {})
            monthly[method][month] = monthly[method].get(month, 0) + 1
            totals[method] = totals.get(method, 0) + 1

    winners = sorted(totals, key=lambda m: (-totals[m], m))[:top_n]
    return {method: dict(sorted(monthly[method].items())) for method in winners}


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.values
# --------------------------------------------------------------------- #


def ref_estimate_dataset_values(
    dataset: MarketDataset,
    rates: RateOracle,
    ledger: Optional[Ledger] = None,
) -> Dict[int, ValuedContract]:
    """Estimate (and manually check) values for completed public deals."""
    result: Dict[int, ValuedContract] = {}
    for contract in dataset.contracts:
        if not contract.is_complete or not contract.is_public or not contract.is_economic:
            continue
        raw = estimate_contract_value(contract, rates)
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


def ref_value_tables(
    dataset: MarketDataset,
    rates: RateOracle,
    ledger: Optional[Ledger] = None,
    categorizer: Optional[ActivityCategorizer] = None,
    extractor: Optional[PaymentExtractor] = None,
    top_n: int = 10,
    valued: Optional[Dict[int, ValuedContract]] = None,
) -> Tuple[List[Tuple[str, float, float, float]], List[Tuple[str, float, float, float]]]:
    """Table 5: top activities and payment methods by traded value.

    Returns two lists of ``(label, maker_value, taker_value, total)``
    sorted by total, the paper's naive per-category sums (a contract in
    two categories contributes to both).
    """
    categorizer = categorizer or ActivityCategorizer()
    extractor = extractor or PaymentExtractor()
    if valued is None:
        valued = ref_estimate_dataset_values(dataset, rates, ledger)

    activity_maker: Dict[str, float] = {}
    activity_taker: Dict[str, float] = {}
    method_maker: Dict[str, float] = {}
    method_taker: Dict[str, float] = {}

    for v in valued.values():
        contract = v.contract
        categories = categorizer.categorize_sides(
            contract.maker_obligation, contract.taker_obligation
        ) - {UNCATEGORISED}
        for category in categories:
            activity_maker[category] = activity_maker.get(category, 0.0) + v.maker_usd
            activity_taker[category] = activity_taker.get(category, 0.0) + v.taker_usd
        maker_methods = extractor.extract(contract.maker_obligation)
        taker_methods = extractor.extract(contract.taker_obligation)
        for method in maker_methods:
            method_maker[method] = method_maker.get(method, 0.0) + v.maker_usd
        for method in taker_methods:
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


def ref_value_evolution(
    dataset: MarketDataset,
    rates: RateOracle,
    ledger: Optional[Ledger] = None,
    categorizer: Optional[ActivityCategorizer] = None,
    extractor: Optional[PaymentExtractor] = None,
    top_n: int = 5,
    valued: Optional[Dict[int, ValuedContract]] = None,
) -> Dict[str, Dict[str, Dict[Month, float]]]:
    """Figure 11: monthly USD value by type, payment method and product.

    Returns ``{"by_type": ..., "by_method": ..., "by_product": ...}``,
    each mapping series label -> {month: usd}.  Products exclude currency
    exchange and payments, as in Figure 9/11.
    """
    categorizer = categorizer or ActivityCategorizer()
    extractor = extractor or PaymentExtractor()
    if valued is None:
        valued = ref_estimate_dataset_values(dataset, rates, ledger)

    by_type: Dict[str, Dict[Month, float]] = {}
    by_method: Dict[str, Dict[Month, float]] = {}
    by_product: Dict[str, Dict[Month, float]] = {}
    method_totals: Dict[str, float] = {}
    product_totals: Dict[str, float] = {}

    for v in valued.values():
        contract = v.contract
        month = month_of(contract.created_at)
        label = contract.ctype.name
        by_type.setdefault(label, {})
        by_type[label][month] = by_type[label].get(month, 0.0) + v.corrected_usd

        methods = extractor.extract_sides(
            contract.maker_obligation, contract.taker_obligation
        )
        for method in methods:
            name = PAYMENT_LABELS.get(method, method)
            by_method.setdefault(name, {})
            by_method[name][month] = by_method[name].get(month, 0.0) + v.corrected_usd
            method_totals[name] = method_totals.get(name, 0.0) + v.corrected_usd

        categories = categorizer.categorize_sides(
            contract.maker_obligation, contract.taker_obligation
        ) - {UNCATEGORISED, "currency_exchange", "payments"}
        for category in categories:
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


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.eras_summary
# --------------------------------------------------------------------- #


def ref_composition_distance(
    dataset: MarketDataset,
    era_a: Era,
    era_b: Era,
    by: str = "type",
    categorizer: Optional[ActivityCategorizer] = None,
) -> float:
    """Total-variation distance between two eras' activity composition.

    ``by`` is "type" (contract types) or "category" (trading activities of
    completed public contracts).  0 = identical mix, 1 = disjoint.
    """
    def distribution(era: Era) -> Dict[str, float]:
        contracts = dataset.in_era(era)
        if by == "type":
            counts: Dict[str, float] = {}
            for contract in contracts:
                counts[contract.ctype.name] = counts.get(contract.ctype.name, 0) + 1
        elif by == "category":
            cat = categorizer or ActivityCategorizer()
            counts = {}
            for contract in contracts:
                if not (contract.is_complete and contract.is_public):
                    continue
                for key in cat.categorize_sides(
                    contract.maker_obligation, contract.taker_obligation
                ) - {UNCATEGORISED}:
                    counts[key] = counts.get(key, 0) + 1
        else:
            raise ValueError("by must be 'type' or 'category'")
        total = sum(counts.values())
        return {k: v / total for k, v in counts.items()} if total else {}

    dist_a = distribution(era_a)
    dist_b = distribution(era_b)
    keys = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0)) for k in keys)


def ref_era_profile(dataset: MarketDataset, era: Era,
                    seen_before: Optional[set] = None) -> EraProfile:
    """Compute one era's profile; ``seen_before`` marks prior members."""
    contracts = dataset.in_era(era)
    members = {u for c in contracts for u in c.parties()}
    prior = seen_before or set()
    completed = sum(1 for c in contracts if c.is_complete)
    public = sum(1 for c in contracts if c.is_public)
    counts = {t: 0 for t in ContractType}
    for contract in contracts:
        counts[contract.ctype] += 1
    total = max(1, len(contracts))
    return EraProfile(
        era=era.name,
        short=era.short,
        contracts=len(contracts),
        contracts_per_month=len(contracts) / (era.days / 30.44),
        completed=completed,
        completion_rate=completed / total,
        public_share=public / total,
        members=len(members),
        new_members=len(members - prior),
        type_shares={t: counts[t] / total for t in ContractType},
    )


def ref_era_profiles(dataset: MarketDataset) -> List[EraProfile]:
    """Profiles for all three eras, with new-member accounting."""
    seen: set = set()
    profiles = []
    for era in ERAS:
        profile = ref_era_profile(dataset, era, seen_before=seen)
        profiles.append(profile)
        seen |= {u for c in dataset.in_era(era) for u in c.parties()}
    return profiles


def ref_stimulus_test(
    dataset: MarketDataset,
    reference_months: int = 3,
) -> Tuple[StimulusResult, float]:
    """The paper's §6 COVID-19 conclusion as a computation, and the
    chi-square test's p-value."""
    late_stable_start = STABLE.end - dt.timedelta(days=int(30.44 * reference_months))
    late_stable = Era("late-STABLE", "E2b", late_stable_start, STABLE.end)

    stable_contracts = dataset.in_era(late_stable)
    covid_contracts = dataset.in_era(COVID19)
    stable_rate = len(stable_contracts) / (late_stable.days / 30.44)
    covid_rate = len(covid_contracts) / (COVID19.days / 30.44)

    type_drift = ref_composition_distance(dataset, late_stable, COVID19, by="type")
    category_drift = ref_composition_distance(dataset, late_stable, COVID19, by="category")

    table = []
    for contracts in (stable_contracts, covid_contracts):
        row = [sum(1 for c in contracts if c.ctype == t) for t in ContractType]
        table.append(row)
    matrix = np.asarray(table, dtype=float)
    keep = matrix.sum(axis=0) > 0
    matrix = matrix[:, keep]
    if matrix.shape[1] >= 2 and matrix.sum() > 0:
        chi2, p_value = chi2_contingency(matrix)
        dof = (matrix.shape[0] - 1) * (matrix.shape[1] - 1)
    else:
        chi2, p_value, dof = 0.0, 1.0, 0

    return StimulusResult(
        volume_ratio=covid_rate / stable_rate if stable_rate else float("inf"),
        type_drift=type_drift,
        category_drift=category_drift,
        chi2_statistic=float(chi2),
        chi2_dof=dof,
    ), float(p_value)


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.disputes
# --------------------------------------------------------------------- #


def ref_dispute_rate_by_month(dataset: MarketDataset) -> Dict[Month, float]:
    """Share of contracts created each month that ended disputed."""
    totals: Dict[Month, int] = {}
    disputed: Dict[Month, int] = {}
    for contract in dataset.contracts:
        month = month_of(contract.created_at)
        totals[month] = totals.get(month, 0) + 1
        if contract.status == ContractStatus.DISPUTED:
            disputed[month] = disputed.get(month, 0) + 1
    return {
        month: disputed.get(month, 0) / totals[month] for month in sorted(totals)
    }


def ref_dispute_rate_by_era(dataset: MarketDataset) -> Dict[str, float]:
    """Dispute rate per era (created contracts)."""
    rates: Dict[str, float] = {}
    for era in ERAS:
        contracts = dataset.in_era(era)
        if not contracts:
            rates[era.name] = 0.0
            continue
        count = sum(1 for c in contracts if c.status == ContractStatus.DISPUTED)
        rates[era.name] = count / len(contracts)
    return rates


def ref_disputes_per_user(dataset: MarketDataset) -> Dict[int, int]:
    """Number of disputed contracts each user was party to (>=1 only)."""
    counts: Dict[int, int] = {}
    for contract in dataset.contracts:
        if contract.status != ContractStatus.DISPUTED:
            continue
        for user in contract.parties():
            counts[user] = counts.get(user, 0) + 1
    return counts


def ref_disputed_goods(
    dataset: MarketDataset,
    categorizer: Optional[ActivityCategorizer] = None,
) -> List[Tuple[str, int]]:
    """Trading-activity categories of disputed contracts, most common
    first."""
    categorizer = categorizer or ActivityCategorizer()
    tally: Counter = Counter()
    for contract in dataset.contracts:
        if contract.status != ContractStatus.DISPUTED:
            continue
        categories = categorizer.categorize_sides(
            contract.maker_obligation, contract.taker_obligation
        )
        tally.update(categories - {UNCATEGORISED})
    return sorted(tally.items(), key=lambda item: (-item[1], item[0]))


def ref_dispute_summary(dataset: MarketDataset) -> DisputeSummary:
    """Compute the paper's headline dispute statistics in one pass."""
    monthly = ref_dispute_rate_by_month(dataset)
    per_user = ref_disputes_per_user(dataset)
    total = sum(
        1 for c in dataset.contracts if c.status == ContractStatus.DISPUTED
    )
    peak_month = max(monthly, key=lambda m: monthly[m]) if monthly else None
    singles = sum(1 for count in per_user.values() if count == 1)
    return DisputeSummary(
        total_disputes=total,
        overall_rate=total / len(dataset.contracts) if len(dataset) else 0.0,
        rate_by_era=ref_dispute_rate_by_era(dataset),
        peak_month=peak_month,
        peak_rate=monthly.get(peak_month, 0.0) if peak_month else 0.0,
        max_disputes_one_user=max(per_user.values()) if per_user else 0,
        users_with_one_dispute_share=(
            singles / len(per_user) if per_user else 0.0
        ),
    )


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.reputation
# --------------------------------------------------------------------- #


def ref_cumulative_scores(dataset: MarketDataset) -> Dict[Month, Dict[int, int]]:
    """Reputation per user at the end of each month (cumulative)."""
    by_month: Dict[Month, Dict[int, int]] = {}
    running: Dict[int, int] = defaultdict(int)
    ratings = sorted(dataset.ratings, key=lambda r: r.created_at)
    if not ratings:
        return {}
    months = sorted({month_of(r.created_at) for r in ratings})
    index = 0
    for month in months:
        end = dt.datetime.combine(month.last_day(), dt.time.max)
        while index < len(ratings) and ratings[index].created_at <= end:
            running[ratings[index].ratee_id] += ratings[index].score
            index += 1
        by_month[month] = dict(running)
    return by_month


def ref_reputation_concentration_by_month(
    dataset: MarketDataset,
) -> Dict[Month, Tuple[float, float]]:
    """Per month: (Gini, top-5% share) of cumulative positive reputation."""
    result: Dict[Month, Tuple[float, float]] = {}
    for month, scores in ref_cumulative_scores(dataset).items():
        positives = [score for score in scores.values() if score > 0]
        if len(positives) < 10:
            continue
        result[month] = (gini(positives), top_share(positives, 5.0))
    return dict(sorted(result.items()))


def ref_cohort_reputation_trajectories(
    dataset: MarketDataset,
) -> Dict[str, Dict[Month, float]]:
    """Median cumulative reputation per first-activity cohort over time."""
    first_active: Dict[int, dt.datetime] = {}
    for contract in dataset.contracts:
        for user in contract.parties():
            when = contract.created_at
            if user not in first_active or when < first_active[user]:
                first_active[user] = when

    cohorts: Dict[str, List[int]] = {era.name: [] for era in ERAS}
    for user, when in first_active.items():
        era = era_of(when)
        if era is not None:
            cohorts[era.name].append(user)

    trajectories: Dict[str, Dict[Month, float]] = {era.name: {} for era in ERAS}
    for month, scores in ref_cumulative_scores(dataset).items():
        for era in ERAS:
            members = cohorts[era.name]
            if not members or month < month_of(era.start):
                continue
            values = [scores.get(user, 0) for user in members]
            trajectories[era.name][month] = float(np.median(values))
    return trajectories


def ref_reputation_premium_by_era(dataset: MarketDataset) -> Dict[str, ReputationPremium]:
    """Does reputation at deal time predict completion?  Per era."""
    scores_by_month = ref_cumulative_scores(dataset)
    months = sorted(scores_by_month)
    if not months:
        return {}

    def reputation_at(user: int, month: Month) -> int:
        # Last known cumulative score at or before the month.
        previous = [m for m in months if m <= month]
        if not previous:
            return 0
        return scores_by_month[previous[-1]].get(user, 0)

    failed_statuses = {
        ContractStatus.INCOMPLETE,
        ContractStatus.CANCELLED,
        ContractStatus.EXPIRED,
    }
    sums: Dict[Tuple[str, bool], List[float]] = defaultdict(list)
    for contract in dataset.contracts:
        era = era_of(contract.created_at)
        if era is None:
            continue
        if contract.is_complete:
            completed = True
        elif contract.status in failed_statuses:
            completed = False
        else:
            continue
        month = month_of(contract.created_at).prev()
        sums[(era.name, completed)].append(
            float(reputation_at(contract.taker_id, month))
        )

    result: Dict[str, ReputationPremium] = {}
    for era in ERAS:
        completed_scores = sums.get((era.name, True), [])
        failed_scores = sums.get((era.name, False), [])
        if not completed_scores or not failed_scores:
            continue
        result[era.name] = ReputationPremium(
            era=era.name,
            completed_mean=float(np.mean(completed_scores)),
            failed_mean=float(np.mean(failed_scores)),
            n_completed=len(completed_scores),
            n_failed=len(failed_scores),
        )
    return result


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.coldstart
# --------------------------------------------------------------------- #


def ref_cold_starters(dataset: MarketDataset, era: Era = STABLE) -> List[int]:
    """Users who accepted their *first* contract during ``era``."""
    first_accept: Dict[int, dt.datetime] = {}
    for contract in dataset.contracts:
        taker = contract.taker_id
        when = contract.created_at
        if taker not in first_accept or when < first_accept[taker]:
            first_accept[taker] = when
    return sorted(user for user, when in first_accept.items() if era.contains(when))


def ref_cold_start_summary(
    dataset: MarketDataset,
    clustering: ColdStartClustering,
) -> ColdStartSummary:
    """Lifespan, continuation and reputation comparisons for cold starters."""
    all_activity = dataset.user_activity()

    def lifespan(user: int) -> float:
        activity = all_activity.get(user)
        return activity.lifespan_days() if activity else 0.0

    def reputation(user: int) -> float:
        activity = all_activity.get(user)
        return float(activity.reputation) if activity else 0.0

    covid_start, covid_end = _era_bounds(COVID19)
    covid_takers = {
        c.taker_id
        for c in dataset.contracts
        if covid_start <= c.created_at <= covid_end
    }

    def continuation(users: Sequence[int]) -> float:
        if not users:
            return 0.0
        return sum(1 for u in users if u in covid_takers) / len(users)

    setup_starters = ref_cold_starters(dataset, SETUP)

    def median_of(values: Sequence[float]) -> float:
        return float(np.median(values)) if len(values) else 0.0

    return ColdStartSummary(
        n_cold_starters=len(clustering.users),
        n_outliers=len(clustering.outlier_users),
        major_share=clustering.major_share,
        median_lifespan_all_days=median_of([lifespan(u) for u in clustering.users]),
        median_lifespan_outliers_days=median_of(
            [lifespan(u) for u in clustering.outlier_users]
        ),
        continue_into_covid_all=continuation(clustering.users),
        continue_into_covid_outliers=continuation(clustering.outlier_users),
        median_reputation_all=median_of([reputation(u) for u in clustering.users]),
        median_reputation_outliers=median_of(
            [reputation(u) for u in clustering.outlier_users]
        ),
        median_reputation_setup_starters=median_of(
            [reputation(u) for u in setup_starters]
        ),
    )


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.values totals
# --------------------------------------------------------------------- #


def ref_total_values(
    dataset: MarketDataset,
    valued: Dict[int, ValuedContract],
) -> ValueReport:
    """Compute §4.5's totals, concentration and extrapolation."""
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
    participants = ref_participant_ids(dataset)
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


# --------------------------------------------------------------------- #
# entity-object references: repro.analysis.latent and repro.stats.ltm
# --------------------------------------------------------------------- #

#: One period's latent-class assignments: user id -> class.
Assignment = Dict[int, int]


def ref_user_month_profiles(
    dataset: MarketDataset,
) -> Tuple[List[Dict[int, np.ndarray]], List[Month]]:
    """Build the user-month count panel: one dict per month (user id ->
    10-vector) plus the month grid."""
    panel_map: Dict[Month, Dict[int, np.ndarray]] = {}
    type_index = {ctype: i for i, ctype in enumerate(LATENT_TYPES)}
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
        taker[len(LATENT_TYPES) + type_index[contract.ctype]] += 1

    months = sorted(panel_map)
    return [panel_map[m] for m in months], months


def ref_fit_latent_transitions(
    panel: Sequence[Dict[int, np.ndarray]],
    k: int,
    seed: int = 0,
    n_init: int = 3,
    smoothing: float = 0.5,
    feature_names: Optional[Sequence[str]] = None,
    mixture: Optional[PoissonMixtureResult] = None,
) -> Tuple[PoissonMixtureResult, np.ndarray, np.ndarray, List[Assignment]]:
    """Fit the measurement model and estimate monthly transitions:
    ``(mixture, transition, occupancy, assignments)``."""
    if not panel:
        raise ValueError("panel must contain at least one period")
    pooled_rows: List[np.ndarray] = []
    for period in panel:
        pooled_rows.extend(np.asarray(v, dtype=float) for v in period.values())
    if not pooled_rows:
        raise ValueError("panel contains no observations")
    Y = np.vstack(pooled_rows)

    if mixture is None:
        mixture = fit_poisson_mixture(
            Y, k, n_init=n_init, seed=seed, feature_names=feature_names
        )
    n_classes = mixture.k

    assignments: List[Assignment] = []
    occupancy = np.zeros((len(panel), n_classes))
    for t, period in enumerate(panel):
        users = list(period)
        if users:
            rows = np.vstack([np.asarray(period[u], dtype=float) for u in users])
            labels = mixture.assign(rows)
        else:
            labels = np.empty(0, dtype=int)
        table = {user: int(label) for user, label in zip(users, labels)}
        assignments.append(table)
        for label in table.values():
            occupancy[t, label] += 1

    counts = np.full((n_classes, n_classes), smoothing, dtype=float)
    for t in range(len(panel) - 1):
        now, nxt = assignments[t], assignments[t + 1]
        for user, source in now.items():
            target = nxt.get(user)
            if target is not None:
                counts[source, target] += 1.0
    transition = counts / counts.sum(axis=1, keepdims=True)
    return mixture, transition, occupancy, assignments


def ref_class_activity_series(
    dataset: MarketDataset,
    months: List[Month],
    assignments: List[Assignment],
    role: str = "made",
    types: Sequence[ContractType] = (
        ContractType.EXCHANGE,
        ContractType.PURCHASE,
        ContractType.SALE,
    ),
) -> Dict[ContractType, Dict[int, Dict[Month, int]]]:
    """Figures 12/13: monthly transactions per class."""
    month_positions = {month: i for i, month in enumerate(months)}
    wanted = set(types)
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
        klass = assignments[position].get(user)
        if klass is None:
            continue
        bucket = series[contract.ctype].setdefault(klass, {})
        bucket[month] = bucket.get(month, 0) + 1
    return series


def ref_era_transition_matrices(
    months: List[Month], assignments: List[Assignment], k: int,
    smoothing: float = 0.5,
) -> Dict[str, np.ndarray]:
    """Per-era class-transition matrices."""
    counts: Dict[str, np.ndarray] = {
        era.name: np.full((k, k), smoothing) for era in ERAS
    }
    for position in range(len(months) - 1):
        month = months[position]
        mid = month.first_day().replace(day=15)
        era = None
        for candidate in ERAS:
            if candidate.contains(mid):
                era = candidate
                break
        if era is None:
            continue
        now = assignments[position]
        nxt = assignments[position + 1]
        matrix = counts[era.name]
        for user, source in now.items():
            target = nxt.get(user)
            if target is not None:
                matrix[source, target] += 1.0
    return {
        name: matrix / matrix.sum(axis=1, keepdims=True)
        for name, matrix in counts.items()
    }


def ref_top_flows(
    dataset: MarketDataset,
    months: List[Month],
    assignments: List[Assignment],
    top_n: int = 3,
    types: Sequence[ContractType] = (
        ContractType.EXCHANGE,
        ContractType.PURCHASE,
        ContractType.SALE,
    ),
) -> List[FlowRow]:
    """Table 8: the top maker->taker class flows per type per era."""
    month_positions = {month: i for i, month in enumerate(months)}
    wanted = set(types)

    flows: Dict[Tuple[Era, ContractType, int, int], int] = {}
    type_totals: Dict[Tuple[Era, ContractType], int] = {}
    for contract in dataset.contracts:
        if contract.ctype not in wanted:
            continue
        era = era_of(contract.created_at)
        if era is None:
            continue
        month = month_of(contract.created_at)
        position = month_positions.get(month)
        if position is None:
            continue
        assignment = assignments[position]
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
            # Ties rank by (maker, taker) class, not by contract order.
            candidates.sort(key=lambda kv: (-kv[1], kv[0][2], kv[0][3]))
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


# --------------------------------------------------------------------- #
# entity-object references: repro.network.degrees
# --------------------------------------------------------------------- #


def ref_dataset_degree_distributions(
    dataset: MarketDataset, completed_only: bool = False
) -> DegreeDistributions:
    contracts = dataset.completed() if completed_only else dataset.contracts
    return degree_distributions(contracts)


def ref_degree_growth(
    dataset: MarketDataset, completed_only: bool = False
) -> List[DegreeGrowthPoint]:
    contracts = dataset.completed() if completed_only else dataset.contracts
    if not contracts:
        return []
    by_month: Dict[Month, List[Contract]] = {}
    for contract in contracts:
        by_month.setdefault(month_of(contract.created_at), []).append(contract)

    months = sorted(by_month)
    graph = ContractGraph([])
    series = []
    first, last = months[0], months[-1]
    current = first
    while current <= last:
        for contract in by_month.get(current, ()):  # grow incrementally
            graph.add_contract(contract)
        series.append(
            DegreeGrowthPoint(
                month=current,
                average_raw=graph.average_degree("raw"),
                max_raw=graph.max_degree("raw"),
                max_inbound=graph.max_degree("inbound"),
                max_outbound=graph.max_degree("outbound"),
            )
        )
        current = current.next()
    return series


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module", params=[0, 99])
def market(request):
    return MarketSimulator(SimulationConfig(scale=0.02, seed=request.param)).run()


@pytest.fixture(scope="module")
def ds(market):
    return market.dataset


@pytest.fixture(scope="module")
def store(ds):
    return ds.columns()


# --------------------------------------------------------------------- #
# the store itself
# --------------------------------------------------------------------- #


def test_store_is_cached(ds):
    assert ds.columns() is ds.columns()


def test_store_row_parity(ds, store):
    assert store.n == len(ds.contracts)
    for row in (0, store.n // 2, store.n - 1):
        contract = ds.contracts[row]
        assert int(store.contract_id[row]) == contract.contract_id
        assert CTYPE_ORDER[store.ctype[row]] is contract.ctype
        assert STATUS_ORDER[store.status[row]] is contract.status
        assert int(store.maker_id[row]) == contract.maker_id
        assert int(store.taker_id[row]) == contract.taker_id
        assert datetime_from_us(int(store.created_us[row])) == contract.created_at
        assert bool(store.is_complete[row]) == contract.is_complete
        assert bool(store.is_public[row]) == contract.is_public
        assert month_from_index(int(store.month_idx[row])) == month_of(
            contract.created_at
        )


def test_store_completed_timestamps_exact(ds, store):
    for row, contract in enumerate(ds.contracts):
        us = int(store.completed_us[row])
        if contract.completed_at is None:
            assert us == NAT_US
        else:
            assert datetime_from_us(us) == contract.completed_at
            assert store.completion_hours[row] == pytest.approx(
                contract.completion_hours, rel=0, abs=0
            )


def test_store_user_codes_round_trip(store):
    assert store.n_users == len(store.user_ids)
    codes = store.user_code_array(store.user_ids)
    assert (codes == np.arange(store.n_users)).all()


def test_empty_dataset_store():
    store = ColumnStore(MarketDataset())
    assert store.n == 0 and store.n_users == 0
    assert len(store.ratings.score) == 0 and len(store.posts.author_code) == 0


# --------------------------------------------------------------------- #
# dataset-level kernels
# --------------------------------------------------------------------- #


def test_summary_parity(ds):
    assert ds.summary() == ref_summary(ds)


def test_participant_ids_parity(ds):
    assert ds.participant_ids() == ref_participant_ids(ds)


def test_user_activity_parity(ds):
    fast, slow = ds.user_activity(), ref_user_activity(ds)
    assert set(fast) == set(slow)
    for user_id in fast:
        assert fast[user_id] == slow[user_id]


def test_user_activity_window_parity(ds):
    start, end = dt.datetime(2019, 3, 1), dt.datetime(2020, 3, 10)
    fast = ds.user_activity(start, end)
    slow = ref_user_activity(ds, start, end)
    assert set(fast) == set(slow)
    for user_id in fast:
        assert fast[user_id] == slow[user_id]


def test_empty_dataset_parity():
    empty = MarketDataset()
    assert empty.summary() == ref_summary(empty)
    assert empty.participant_ids() == ref_participant_ids(empty) == set()
    assert empty.user_activity() == ref_user_activity(empty) == {}


# --------------------------------------------------------------------- #
# analysis kernels — exact counts
# --------------------------------------------------------------------- #


def test_taxonomy_parity(ds):
    fast, slow = contract_taxonomy(ds), ref_contract_taxonomy(ds)
    assert fast.counts == slow.counts and fast.total == slow.total


def test_visibility_table_parity(ds):
    fast, slow = visibility_table(ds), ref_visibility_table(ds)
    assert fast.created == slow.created and fast.completed == slow.completed


def test_monthly_growth_parity(ds):
    assert monthly_growth(ds) == ref_monthly_growth(ds)


def test_funnel_parity(ds):
    assert contract_funnel(ds) == ref_contract_funnel(ds)
    assert funnel_by_era(ds) == ref_funnel_by_era(ds)


def test_degree_distributions_parity(ds):
    for completed_only in (False, True):
        fast = dataset_degree_distributions(ds, completed_only)
        slow = ref_dataset_degree_distributions(ds, completed_only)
        assert fast.histogram == slow.histogram
        assert fast.max_degree == slow.max_degree
        assert fast.n_users == slow.n_users
        assert fast.n_contracts == slow.n_contracts
        assert fast.average_degree == pytest.approx(slow.average_degree)


def test_degree_distributions_matches_sequence_api(ds):
    via_store = dataset_degree_distributions(ds)
    via_objects = degree_distributions(ds.contracts)
    assert via_store.histogram == via_objects.histogram


def test_degree_growth_parity(ds):
    for completed_only in (False, True):
        fast = degree_growth(ds, completed_only)
        slow = ref_degree_growth(ds, completed_only)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.month == b.month
            assert (a.max_raw, a.max_inbound, a.max_outbound) == (
                b.max_raw, b.max_inbound, b.max_outbound,
            )
            assert a.average_raw == pytest.approx(b.average_raw)


def test_degree_growth_empty():
    empty = MarketDataset()
    assert degree_growth(empty) == ref_degree_growth(empty) == []
    assert dataset_degree_distributions(empty).n_users == 0


def test_activities_parity(ds):
    fast = top_trading_activities(ds)
    slow = ref_top_trading_activities(ds)
    assert fast.n_contracts == slow.n_contracts
    assert set(fast.rows) == set(slow.rows)
    for key in fast.rows:
        assert fast.rows[key].as_tuple() == slow.rows[key].as_tuple()
        assert fast.rows[key].both_users == slow.rows[key].both_users
    assert fast.all_row.as_tuple() == slow.all_row.as_tuple()


def test_activities_subset_parity(ds):
    some = ds.completed_public()[::3]
    fast = top_trading_activities(ds.subset(some))
    slow = ref_top_trading_activities(ds, contracts=some)
    assert fast.n_contracts == slow.n_contracts == len(some)
    for key in fast.rows:
        assert fast.rows[key].as_tuple() == slow.rows[key].as_tuple()
    assert fast.all_row.as_tuple() == slow.all_row.as_tuple()


def test_product_evolution_parity(ds):
    assert product_evolution(ds) == ref_product_evolution(ds)


def _ordered(value):
    """Nested dicts as nested item lists, so order is compared as well."""
    if isinstance(value, dict):
        return [(key, _ordered(item)) for key, item in value.items()]
    return value


def test_payment_related_contracts_parity(ds):
    assert payment_related_contracts(ds) == ref_payment_related_contracts(ds)


def test_top_payment_methods_parity(ds):
    fast, slow = top_payment_methods(ds), ref_top_payment_methods(ds)
    assert fast.n_contracts == slow.n_contracts
    assert list(fast.rows.items()) == list(slow.rows.items())
    assert fast.all_row == slow.all_row


def test_payment_evolution_parity(ds):
    assert _ordered(payment_evolution(ds)) == _ordered(ref_payment_evolution(ds))


def test_estimate_dataset_values_parity(market):
    fast = estimate_dataset_values(market.dataset, market.rates, market.ledger)
    slow = ref_estimate_dataset_values(market.dataset, market.rates, market.ledger)
    assert fast and list(fast.items()) == list(slow.items())


def test_value_tables_parity(market):
    ds, rates, ledger = market.dataset, market.rates, market.ledger
    valued = ref_estimate_dataset_values(ds, rates, ledger)
    fast = value_tables(ds, rates, ledger, valued=valued)
    assert fast == ref_value_tables(ds, rates, ledger, valued=valued)
    assert value_tables(ds, rates, ledger) == fast


def test_value_evolution_parity(market):
    ds, rates, ledger = market.dataset, market.rates, market.ledger
    valued = ref_estimate_dataset_values(ds, rates, ledger)
    fast = _ordered(value_evolution(ds, rates, ledger, valued=valued))
    assert fast == _ordered(ref_value_evolution(ds, rates, ledger, valued=valued))
    assert _ordered(value_evolution(ds, rates, ledger)) == fast


def test_composition_distance_parity(ds):
    for era_a in ERAS:
        for era_b in ERAS:
            for by in ("type", "category"):
                fast = composition_distance(ds, era_a, era_b, by=by)
                assert fast == ref_composition_distance(ds, era_a, era_b, by=by)


def test_era_profiles_parity(ds):
    assert era_profiles(ds) == ref_era_profiles(ds)


def test_stimulus_test_parity(ds):
    result = stimulus_test(ds)
    reference, p_value = ref_stimulus_test(ds)
    assert result == reference
    assert result.chi2_p_value == p_value


def test_disputes_parity(ds):
    assert _ordered(dispute_rate_by_month(ds)) == _ordered(ref_dispute_rate_by_month(ds))
    assert dispute_rate_by_era(ds) == ref_dispute_rate_by_era(ds)
    assert disputes_per_user(ds) == ref_disputes_per_user(ds)
    assert disputed_goods(ds) == ref_disputed_goods(ds)
    assert dispute_summary(ds) == ref_dispute_summary(ds)


def test_reputation_parity(ds):
    assert _ordered(reputation_concentration_by_month(ds)) == _ordered(
        ref_reputation_concentration_by_month(ds)
    )
    assert _ordered(cohort_reputation_trajectories(ds)) == _ordered(
        ref_cohort_reputation_trajectories(ds)
    )
    assert reputation_premium_by_era(ds) == ref_reputation_premium_by_era(ds)


def test_cold_start_parity(ds):
    for era in ERAS:
        assert cold_starters(ds, era) == ref_cold_starters(ds, era)
    clustering = cluster_cold_starters(ds)
    assert cold_start_summary(ds, clustering) == ref_cold_start_summary(ds, clustering)


def test_total_values_parity(market):
    ds, rates, ledger = market.dataset, market.rates, market.ledger
    valued = estimate_dataset_values(ds, rates, ledger)
    assert total_values(ds, rates, ledger, valued=valued) == ref_total_values(ds, valued)


# --------------------------------------------------------------------- #
# the §5.1 latent panel: compared as mappings keyed by (month, user)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def latent(ds):
    return fit_latent_classes(ds, k=12, seed=0, n_init=2)


def _assignment_tables(model) -> List[Assignment]:
    """``model``'s assignments as one {user id: class} dict per month."""
    return [model.assignment_for(month) for month in model.months]


def test_user_month_profiles_parity(ds):
    panel = user_month_profiles(ds)
    periods, months = ref_user_month_profiles(ds)
    assert panel.months == months
    users = panel.user_ids[panel.user_code].tolist()
    fast = {
        (months[pos], user): tuple(row)
        for pos, user, row in zip(panel.month_pos.tolist(), users, panel.counts.tolist())
    }
    slow = {
        (month, user): tuple(vector.tolist())
        for month, period in zip(months, periods)
        for user, vector in period.items()
    }
    assert fast == slow
    # One row per case, sorted by (month, user code).
    keys = panel.month_pos * len(panel.user_ids) + panel.user_code
    assert (np.diff(keys) > 0).all()


def test_fit_latent_transitions_parity(latent):
    """Fed the same cases in the same order, the array fit and the
    per-period reference agree on every output."""
    panel = latent.panel
    periods: List[Dict[int, np.ndarray]] = [{} for _ in panel.months]
    for pos, code, row in zip(panel.month_pos.tolist(), panel.user_code.tolist(), panel.counts):
        periods[pos][code] = row
    mixture, transition, occupancy, assignments = ref_fit_latent_transitions(
        periods, k=12, seed=0, n_init=2, feature_names=list(FEATURE_NAMES)
    )
    assert np.array_equal(mixture.rates, latent.mixture.rates)
    assert np.array_equal(mixture.weights, latent.mixture.weights)
    assert np.array_equal(transition, latent.ltm.transition)
    assert np.array_equal(occupancy, latent.ltm.occupancy)
    fast = {
        (pos, code): klass
        for pos, code, klass in zip(
            panel.month_pos.tolist(), panel.user_code.tolist(),
            latent.ltm.assignments.tolist(),
        )
    }
    slow = {
        (pos, code): klass
        for pos, table in enumerate(assignments)
        for code, klass in table.items()
    }
    assert fast == slow


def test_latent_consumers_parity(ds, latent):
    months, tables = latent.months, _assignment_tables(latent)
    for role in ("made", "accepted"):
        assert class_activity_series(ds, latent, role) == ref_class_activity_series(
            ds, months, tables, role
        )
    assert top_flows(ds, latent) == ref_top_flows(ds, months, tables)
    fast = era_transition_matrices(latent)
    slow = ref_era_transition_matrices(months, tables, latent.k)
    assert list(fast) == list(slow)
    assert all(np.array_equal(fast[name], slow[name]) for name in fast)


def test_report_builds_no_entity_list():
    """The 29 experiments read columns: on a column-backed market they
    run without materializing a whole entity list."""
    from repro.report.experiments import ExperimentContext, run_all_experiments

    result = MarketSimulator(SimulationConfig(scale=0.02, seed=7)).run()
    assert isinstance(result.dataset, ColumnBackedDataset)
    tracer = enable_tracing()
    try:
        runs = run_all_experiments(ExperimentContext(result))
    finally:
        disable_tracing()
    assert len(runs) == 29 and all(run.ok for run in runs)
    assert tracer.counters.get("lazy.materializations", 0) == 0


def _calls_of(func, run) -> int:
    """How many times ``func`` is entered while ``run()`` executes."""
    code = func.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_text_artefacts_unify_each_text_once(market):
    """Tables 3–5, Figures 9–11, §4.5 and §6 share one text pass.

    Each completed public contract's maker, taker and joined text is
    synonym-unified once: three calls per contract, whichever artefacts
    run and however often.
    """
    from repro.report.experiments import ExperimentContext, run_experiment
    from repro.text.normalize import unify_synonyms

    market.dataset.columns().derived.pop("text_features", None)
    ctx = ExperimentContext(market, latent_k=12)
    ids = ("table3", "table4", "table5", "fig09", "fig10", "fig11", "sec45", "eras")

    def run():
        for experiment_id in ids + ids:
            run_experiment(experiment_id, ctx)

    calls = _calls_of(unify_synonyms, run)
    n_contracts = len(market.dataset.completed_public())
    assert n_contracts and 0 < calls <= 3 * n_contracts


# --------------------------------------------------------------------- #
# analysis kernels — float curves
# --------------------------------------------------------------------- #


def _allclose_dict(fast, slow):
    assert list(fast) == list(slow)
    assert np.allclose(list(fast.values()), list(slow.values()))


def test_visibility_share_parity(ds):
    fast, slow = visibility_share(ds), ref_visibility_share(ds)
    assert list(fast) == list(slow)
    for month in fast:
        assert fast[month]["created"] == pytest.approx(slow[month]["created"])
        assert fast[month]["completed"] == pytest.approx(slow[month]["completed"])


def test_type_proportions_parity(ds):
    for completed_only in (False, True):
        fast = type_proportions(ds, completed_only)
        slow = ref_type_proportions(ds, completed_only)
        assert set(fast) == set(slow)
        for month in fast:
            for ctype in slow[month]:
                assert fast[month][ctype] == pytest.approx(slow[month][ctype])


def test_completion_times_parity(ds):
    fast, slow = completion_times(ds), ref_completion_times(ds)
    assert set(fast) == set(slow)
    for month in fast:
        assert set(fast[month]) == set(slow[month])
        for ctype in fast[month]:
            assert fast[month][ctype] == pytest.approx(slow[month][ctype])


def test_concentration_curves_parity(ds):
    fast = concentration_curves(ds)
    slow = ref_concentration_curves(ds)
    for name in ("users_created", "users_completed", "threads_created",
                 "threads_completed"):
        _allclose_dict(getattr(fast, name), getattr(slow, name))
    assert fast.user_gini_created == pytest.approx(slow.user_gini_created)
    assert fast.thread_gini_created == pytest.approx(slow.thread_gini_created)


def test_key_share_parity(ds):
    fast = key_share_by_month(ds)
    slow = ref_key_share_by_month(ds)
    assert [p.month for p in fast] == [p.month for p in slow]
    for a, b in zip(fast, slow):
        for name in ("key_members_created", "key_members_completed",
                     "key_threads_created", "key_threads_completed"):
            assert getattr(a, name) == pytest.approx(getattr(b, name))


# --------------------------------------------------------------------- #
# subset index reuse
# --------------------------------------------------------------------- #


def test_cache_round_trip_exact(market, tmp_path):
    from repro.synth.cache import cached_generate, save_result

    save_result(market, str(tmp_path))
    loaded, hit = cached_generate(
        scale=market.config.scale, seed=market.config.seed, cache_dir=str(tmp_path)
    )
    assert hit
    assert loaded.dataset.contracts == market.dataset.contracts
    assert loaded.dataset.users == market.dataset.users
    assert loaded.dataset.ratings == market.dataset.ratings
    assert len(loaded.ledger) == len(market.ledger)


def test_cache_miss_on_config_change(market, tmp_path):
    from repro.synth.cache import load_result
    from repro.synth.config import SimulationConfig

    changed = SimulationConfig(
        scale=market.config.scale, seed=market.config.seed, thread_link_prob=0.99
    )
    assert load_result(changed, str(tmp_path)) is None


def test_run_all_experiments_parallel_matches_serial(market):
    from repro.report.experiments import ExperimentContext, run_all_experiments

    ctx = ExperimentContext(market, latent_k=12)
    wanted = ["table1", "fig01", "funnel"]
    serial = run_all_experiments(ctx, wanted, parallel=1)
    parallel = run_all_experiments(ctx, wanted, parallel=2)
    assert [r.experiment_id for r in serial] == wanted
    assert all(r.seconds >= 0 for r in serial)
    assert [(r.experiment_id, r.title, r.lines) for r in serial] == [
        (r.experiment_id, r.title, r.lines) for r in parallel
    ]


def test_subset_shares_parent_indexes(ds):
    some = ds.contracts[: len(ds.contracts) // 2]
    ds.user(some[0].maker_id)  # force the parent index to exist
    child = ds.subset(some)
    assert len(child.contracts) == len(some)
    # The child reuses the parent's already-built id index.
    assert child._users_by_id is ds._users_by_id
    kept = {c.contract_id for c in child.contracts}
    assert all(r.contract_id in kept for r in child.ratings)
