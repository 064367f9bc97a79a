"""Cold-start analysis (§5.2): clustering and Zero-Inflated Poisson models.

The *cold start variables* are, per user and era: positive and negative
ratings received, disputed transactions, marketplace post count, contracts
initiated and accepted, and length of participation since first activity.
Completed contracts are the outcome.

Three pipelines:

* :func:`cluster_cold_starters` — two-stage k-means over users who
  accepted their first contract in STABLE: a dominant low-activity
  cluster vs a small outlier group (97.7% / 2.3%), then eight clusters
  within the outliers (Table 7).
* :func:`zip_all_users` — per-era ZIP regressions over all contract-system
  users (Table 9), with Vuong tests against plain Poisson.
* :func:`zip_subsamples` — first-time vs existing users in STABLE and
  COVID-19 (Table 10), with prior-era dispute/negative-rating covariates
  for existing users.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dataset import MarketDataset, UserActivity
from ..core.entities import ContractStatus
from ..core.eras import COVID19, ERAS, SETUP, STABLE, Era
from ..stats.kmeans import KMeansResult, kmeans
from ..stats.poisson_glm import fit_poisson
from ..stats.preprocessing import Standardizer, sqrt_transform
from ..stats.vuong import VuongResult, vuong_test
from ..stats.zip_model import ZIPResult, fit_zip

__all__ = [
    "UserEraRecord",
    "cold_start_records",
    "EraZip",
    "zip_all_users",
    "zip_subsamples",
    "ColdStartClustering",
    "cluster_cold_starters",
    "ColdStartSummary",
    "cold_start_summary",
    "CLUSTER_VARIABLES",
]

#: Variables used for the Table 7 clustering, in column order.
CLUSTER_VARIABLES = (
    "disputes",
    "posts",
    "positive",
    "negative",
    "marketplace_posts",
    "initiated",
    "accepted",
)


def _era_bounds(era: Era) -> Tuple[_dt.datetime, _dt.datetime]:
    start = _dt.datetime.combine(era.start, _dt.time.min)
    end = _dt.datetime.combine(era.end, _dt.time.max)
    return start, end


@dataclass
class UserEraRecord:
    """One user's cold-start variables measured within one era."""

    user_id: int
    disputes: int
    positive: int
    negative: int
    posts: int
    marketplace_posts: int
    initiated: int
    accepted: int
    completed: int
    length_days: float
    first_time: bool
    prev_disputes: int = 0
    prev_negative: int = 0

    def feature(self, name: str) -> float:
        return float(getattr(self, name))


def cold_start_records(
    dataset: MarketDataset, era: Era
) -> List[UserEraRecord]:
    """Measure the cold-start variables for every contract-system user of
    an era (users party to at least one contract *created* in the era).

    Tables 9 and 10 both read the STABLE and COVID-19 records, so each
    era's records are built once per dataset and memoized on
    ``ColumnStore.derived``; callers get their own list.
    """
    derived = dataset.columns().derived
    # Keyed by the bounds too: an ablation may shift an era and keep its name.
    key = f"cold_start_records.{era.name}.{era.start}.{era.end}"
    if key not in derived:
        derived[key] = _build_records(dataset, era)
    return list(derived[key])


def _build_records(dataset: MarketDataset, era: Era) -> List[UserEraRecord]:
    start, end = _era_bounds(era)
    window = dataset.user_activity(start, end)
    overall = dataset.user_activity(None, end)
    before = dataset.user_activity(None, start - _dt.timedelta(seconds=1))

    records: List[UserEraRecord] = []
    for user_id, activity in sorted(window.items()):
        if activity.initiated + activity.accepted == 0:
            continue  # posted in the window but never used the contract system
        prior = before.get(user_id)
        first_time = prior is None or (prior.initiated + prior.accepted) == 0
        lifetime = overall.get(user_id, activity)
        records.append(
            UserEraRecord(
                user_id=user_id,
                disputes=activity.disputes,
                positive=activity.positive_ratings,
                negative=activity.negative_ratings,
                posts=activity.total_posts,
                marketplace_posts=activity.marketplace_posts,
                initiated=activity.initiated,
                accepted=activity.accepted,
                completed=activity.completed,
                length_days=lifetime.length_days(end),
                first_time=first_time,
                prev_disputes=prior.disputes if prior else 0,
                prev_negative=prior.negative_ratings if prior else 0,
            )
        )
    return records


# --------------------------------------------------------------------- #
# ZIP regressions (Tables 9 and 10)
# --------------------------------------------------------------------- #


@dataclass
class EraZip:
    """One fitted ZIP model plus its Vuong comparison and metadata."""

    era: str
    subsample: str  # "all", "first_time" or "existing"
    zip_result: ZIPResult
    vuong: VuongResult
    n_obs: int
    count_names: List[str]
    zero_names: List[str]


def _design(
    records: Sequence[UserEraRecord],
    include_first_time: bool,
    include_prev: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[str], List[str]]:
    """Build (X_count, Z_zero, y) with the paper's transforms.

    All skewed covariates are square-root transformed; ``length`` (days)
    and the outcome are left untouched, matching §5.2.
    """
    count_names = [
        "Disputes",
        "Positive Rating",
        "Negative Rating",
        "Marketplace Post Count",
        "No. of Initiated Contracts",
        "No. of Accepted Contracts",
    ]
    columns = [
        [r.disputes for r in records],
        [r.positive for r in records],
        [r.negative for r in records],
        [r.marketplace_posts for r in records],
        [r.initiated for r in records],
        [r.accepted for r in records],
    ]
    zero_names = ["Disputes", "Negative Rating"]
    zero_columns = [
        [r.disputes for r in records],
        [r.negative for r in records],
    ]
    if include_prev:
        count_names = count_names  # prior-era effects enter the zero model
        zero_names = zero_names + ["Disputes (prev era)", "Negative Rating (prev era)"]
        zero_columns = zero_columns + [
            [r.prev_disputes for r in records],
            [r.prev_negative for r in records],
        ]
    if include_first_time:
        count_names = count_names + ["First-Time Contract Users"]
        columns = columns + [[1.0 if r.first_time else 0.0 for r in records]]
        zero_names = zero_names + ["First-Time Contract User"]
        zero_columns = zero_columns + [[1.0 if r.first_time else 0.0 for r in records]]
    count_names = count_names + ["Length"]
    columns = columns + [[r.length_days for r in records]]
    zero_names = zero_names + ["Length"]
    zero_columns = zero_columns + [[r.length_days for r in records]]

    X = np.asarray(columns, dtype=float).T
    Z = np.asarray(zero_columns, dtype=float).T
    # sqrt-transform everything except the binary first-time flag and length
    skip_x = [i for i, name in enumerate(count_names) if name in ("First-Time Contract Users", "Length")]
    skip_z = [i for i, name in enumerate(zero_names) if "First-Time" in name or name == "Length"]
    X = sqrt_transform(X, skip_columns=skip_x)
    Z = sqrt_transform(Z, skip_columns=skip_z)
    y = np.asarray([r.completed for r in records], dtype=float)
    return X, Z, y, count_names, zero_names


def _fit_era(
    records: Sequence[UserEraRecord],
    era_name: str,
    subsample: str,
    include_first_time: bool,
    include_prev: bool = False,
) -> EraZip:
    X, Z, y, count_names, zero_names = _design(records, include_first_time, include_prev)
    zip_result = fit_zip(X, y, Z, count_names=count_names, zero_names=zero_names)
    poisson = fit_poisson(X, y)
    vuong = vuong_test(
        zip_result.loglik_terms(X, Z, y),
        poisson.loglik_terms(X, y),
        zip_result.n_params,
        len(poisson.coef),
    )
    return EraZip(
        era=era_name,
        subsample=subsample,
        zip_result=zip_result,
        vuong=vuong,
        n_obs=len(records),
        count_names=["(Intercept)"] + count_names,
        zero_names=["(Intercept)"] + zero_names,
    )


def zip_all_users(dataset: MarketDataset) -> Dict[str, EraZip]:
    """Table 9: the all-users ZIP model for each of the three eras.

    The first-time-user indicator only exists from STABLE onwards (every
    SET-UP user of the brand-new contract system is first-time).
    """
    results: Dict[str, EraZip] = {}
    for era in ERAS:
        records = cold_start_records(dataset, era)
        if len(records) < 30:
            continue
        include_first_time = era is not SETUP
        results[era.name] = _fit_era(records, era.name, "all", include_first_time)
    return results


def zip_subsamples(dataset: MarketDataset) -> Dict[Tuple[str, str], EraZip]:
    """Table 10: first-time vs existing users, STABLE and COVID-19.

    Existing-user models add the user's prior-era disputes and negative
    ratings to the zero-inflation component, as in the paper.
    """
    results: Dict[Tuple[str, str], EraZip] = {}
    for era in (STABLE, COVID19):
        records = cold_start_records(dataset, era)
        first = [r for r in records if r.first_time]
        existing = [r for r in records if not r.first_time]
        if len(first) >= 30:
            results[(era.name, "first_time")] = _fit_era(
                first, era.name, "first_time", include_first_time=False
            )
        if len(existing) >= 30:
            results[(era.name, "existing")] = _fit_era(
                existing, era.name, "existing", include_first_time=False, include_prev=True
            )
    return results


# --------------------------------------------------------------------- #
# clustering (Table 7) and the cold-start summary
# --------------------------------------------------------------------- #


def cold_starters(dataset: MarketDataset, era: Era = STABLE) -> List[int]:
    """Users who accepted their *first* contract during ``era``, by id."""
    store = dataset.columns()
    # Users who never accepted keep int64-max, past any era's end.
    first_accept = np.full(store.n_users, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_accept, store.taker_code, store.created_us)
    starters = store.window_mask(first_accept, *_era_bounds(era))
    return store.user_ids[starters].tolist()


@dataclass
class ColdStartClustering:
    """Two-stage clustering output (§5.2 and Table 7)."""

    users: List[int]
    features: np.ndarray                  # raw (unstandardised) features
    stage1: KMeansResult
    major_share: float                    # share of users in the big cluster
    outlier_users: List[int]
    stage2: Optional[KMeansResult]
    outlier_medians: List[Dict[str, float]]  # per stage-2 cluster
    outlier_sizes: List[int]

    @property
    def outlier_share(self) -> float:
        return 1.0 - self.major_share


def _feature_matrix(
    dataset: MarketDataset, users: Sequence[int], era: Era
) -> np.ndarray:
    start, end = _era_bounds(era)
    window = dataset.user_activity(start, end)
    rows = []
    for user in users:
        activity = window.get(user, UserActivity(user_id=user))
        rows.append(
            [
                activity.disputes,
                activity.total_posts,
                activity.positive_ratings,
                activity.negative_ratings,
                activity.marketplace_posts,
                activity.initiated,
                activity.accepted,
            ]
        )
    return np.asarray(rows, dtype=float)


def cluster_cold_starters(
    dataset: MarketDataset,
    era: Era = STABLE,
    outlier_k: int = 8,
    seed: int = 0,
) -> ColdStartClustering:
    """Run the paper's two-stage k-means over STABLE cold starters."""
    users = cold_starters(dataset, era)
    if len(users) < max(outlier_k + 2, 10):
        raise ValueError("not enough cold starters to cluster")
    features = _feature_matrix(dataset, users, era)
    standardized = Standardizer.fit(features).transform(features)

    stage1 = kmeans(standardized, 2, seed=seed)
    sizes = stage1.cluster_sizes()
    major = int(np.argmax(sizes))
    major_share = float(sizes[major] / sizes.sum())
    outlier_mask = stage1.labels != major
    outlier_users = [u for u, keep in zip(users, outlier_mask) if keep]
    outlier_features = features[outlier_mask]

    stage2: Optional[KMeansResult] = None
    medians: List[Dict[str, float]] = []
    cluster_sizes: List[int] = []
    if len(outlier_users) >= outlier_k:
        outlier_std = Standardizer.fit(outlier_features).transform(outlier_features)
        stage2 = kmeans(outlier_std, outlier_k, seed=seed)
        for cluster in range(outlier_k):
            members = outlier_features[stage2.labels == cluster]
            cluster_sizes.append(int(len(members)))
            if len(members):
                med = np.median(members, axis=0)
            else:
                med = np.zeros(len(CLUSTER_VARIABLES))
            medians.append(dict(zip(CLUSTER_VARIABLES, (float(x) for x in med))))

    return ColdStartClustering(
        users=users,
        features=features,
        stage1=stage1,
        major_share=major_share,
        outlier_users=outlier_users,
        stage2=stage2,
        outlier_medians=medians,
        outlier_sizes=cluster_sizes,
    )


@dataclass
class ColdStartSummary:
    """§5.2's narrative numbers around the clustering."""

    n_cold_starters: int
    n_outliers: int
    major_share: float
    median_lifespan_all_days: float
    median_lifespan_outliers_days: float
    continue_into_covid_all: float      # share accepting contracts in E3
    continue_into_covid_outliers: float
    median_reputation_all: float
    median_reputation_outliers: float
    median_reputation_setup_starters: float


def cold_start_summary(
    dataset: MarketDataset,
    clustering: Optional[ColdStartClustering] = None,
    seed: int = 0,
) -> ColdStartSummary:
    """Lifespan, continuation and reputation comparisons for cold starters."""
    if clustering is None:
        clustering = cluster_cold_starters(dataset, seed=seed)

    all_activity = dataset.user_activity()

    def lifespan(user: int) -> float:
        activity = all_activity.get(user)
        return activity.lifespan_days() if activity else 0.0

    def reputation(user: int) -> float:
        activity = all_activity.get(user)
        return float(activity.reputation) if activity else 0.0

    store = dataset.columns()
    covid_takers = set(
        store.taker_id[store.window_mask(store.created_us, *_era_bounds(COVID19))]
        .tolist()
    )

    def continuation(users: Sequence[int]) -> float:
        if not users:
            return 0.0
        return sum(1 for u in users if u in covid_takers) / len(users)

    setup_starters = cold_starters(dataset, SETUP)

    def median_of(users: Sequence[int], value: Callable[[int], float]) -> float:
        return float(np.median([value(u) for u in users])) if len(users) else 0.0

    return ColdStartSummary(
        n_cold_starters=len(clustering.users),
        n_outliers=len(clustering.outlier_users),
        major_share=clustering.major_share,
        median_lifespan_all_days=median_of(clustering.users, lifespan),
        median_lifespan_outliers_days=median_of(clustering.outlier_users, lifespan),
        continue_into_covid_all=continuation(clustering.users),
        continue_into_covid_outliers=continuation(clustering.outlier_users),
        median_reputation_all=median_of(clustering.users, reputation),
        median_reputation_outliers=median_of(clustering.outlier_users, reputation),
        median_reputation_setup_starters=median_of(setup_starters, reputation),
    )
