"""Parity tests: every columnar kernel must match an entity-object reference.

The ``ref_*`` functions below walk the dataset's entity lists
(``ds.contracts``, ``ds.ratings``, ``ds.posts``) one object at a time —
the slow, obviously correct formulation of each analysis.  Each columnar
kernel in ``src/`` is checked against its reference on two seeds.
Integer counts must match exactly; float curves are compared with
``np.allclose``.
"""

from __future__ import annotations

import datetime as dt
from typing import Dict, List, Optional, Sequence, Set

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
from repro.analysis.funnel import (
    ContractFunnel,
    _funnel_from_status_counts,
    contract_funnel,
    funnel_by_era,
)
from repro.analysis.monthly import (
    GrowthPoint,
    completion_month,
    completion_times,
    monthly_growth,
    type_proportions,
    visibility_share,
)
from repro.analysis.taxonomy import (
    TaxonomyTable,
    VisibilityTable,
    contract_taxonomy,
    visibility_table,
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
from repro.core.eras import ERAS
from repro.core.timeutils import Month, month_of
from repro.network.degrees import (
    DegreeDistributions,
    DegreeGrowthPoint,
    dataset_degree_distributions,
    degree_distributions,
    degree_growth,
)
from repro.network.graph import ContractGraph
from repro.stats.descriptive import concentration_curve, gini
from repro.synth import MarketSimulator, SimulationConfig
from repro.text.taxonomy import (
    CATEGORIES,
    CATEGORY_LABELS,
    UNCATEGORISED,
    ActivityCategorizer,
)


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
