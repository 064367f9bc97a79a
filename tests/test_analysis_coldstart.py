"""Tests for the cold-start analysis (§5.2, Tables 7, 9, 10)."""

import dataclasses
import datetime

import numpy as np
import pytest

from repro.analysis.coldstart import (
    CLUSTER_VARIABLES,
    cluster_cold_starters,
    cold_start_records,
    cold_start_summary,
    cold_starters,
    zip_all_users,
    zip_subsamples,
)
from repro.core import COVID19, SETUP, STABLE
from repro.core.eras import Era
from repro.core.dataset import MarketDataset
from repro.report.experiments import ExperimentContext, run_experiment


@pytest.fixture(scope="module")
def records_stable(dataset):
    return cold_start_records(dataset, STABLE)


@pytest.fixture(scope="module")
def all_zip(dataset):
    return zip_all_users(dataset)


@pytest.fixture(scope="module")
def clustering(dataset):
    return cluster_cold_starters(dataset, seed=0)


class TestRecords:
    def test_every_record_used_contract_system(self, records_stable):
        for record in records_stable:
            assert record.initiated + record.accepted >= 1

    def test_counts_non_negative(self, records_stable):
        for record in records_stable:
            assert record.disputes >= 0
            assert record.completed >= 0
            assert record.length_days >= 0

    def test_first_time_flags_consistent(self, dataset):
        setup_records = {r.user_id: r for r in cold_start_records(dataset, SETUP)}
        stable_records = cold_start_records(dataset, STABLE)
        for record in stable_records:
            if record.user_id in setup_records:
                assert not record.first_time

    def test_stable_mostly_first_time(self, records_stable):
        share = sum(1 for r in records_stable if r.first_time) / len(records_stable)
        assert share > 0.6  # paper: 16,123 of 19,657

    def test_prev_era_covariates_zero_for_first_time(self, records_stable):
        for record in records_stable:
            if record.first_time:
                assert record.prev_disputes == 0
                assert record.prev_negative == 0


class TestRecordsMemo:
    def test_tables_9_and_10_build_each_era_once(self, sim_small, monkeypatch):
        """Table 10 reuses Table 9's STABLE and COVID-19 records: three
        eras built once, three ``user_activity`` scans each."""
        d = sim_small.dataset
        fresh = MarketDataset(d.users, d.contracts, d.threads, d.posts, d.ratings)
        ctx = ExperimentContext(dataclasses.replace(sim_small, dataset=fresh))
        scans = []
        scan = MarketDataset.user_activity

        def counted(self, *args, **kwargs):
            scans.append(args)
            return scan(self, *args, **kwargs)

        monkeypatch.setattr(MarketDataset, "user_activity", counted)
        run_experiment("table9", ctx)
        run_experiment("table10", ctx)
        assert len(scans) == 9
        monkeypatch.undo()
        # Each call gets its own copy of what a fresh build gives.
        uncached = MarketDataset(d.users, d.contracts, d.threads, d.posts, d.ratings)
        for era in (STABLE, COVID19):
            records = cold_start_records(fresh, era)
            assert records is not cold_start_records(fresh, era)
            assert records == cold_start_records(uncached, era)

    def test_shifted_era_with_the_same_name_is_built_anew(self, dataset):
        shifted = Era(STABLE.name, STABLE.short,
                      STABLE.start + datetime.timedelta(days=30), STABLE.end)
        stable = cold_start_records(dataset, STABLE)
        late = cold_start_records(dataset, shifted)
        assert 0 < len(late) < len(stable)
        d = dataset
        uncached = MarketDataset(d.users, d.contracts, d.threads, d.posts, d.ratings)
        assert late == cold_start_records(uncached, shifted)


class TestZipAllUsers:
    def test_all_three_eras_fitted(self, all_zip):
        assert set(all_zip) == {"SET-UP", "STABLE", "COVID-19"}

    def test_setup_has_no_first_time_var(self, all_zip):
        assert "First-Time Contract Users" not in all_zip["SET-UP"].count_names
        assert "First-Time Contract Users" in all_zip["STABLE"].count_names

    def test_initiated_contracts_increase_completions(self, all_zip):
        for era_zip in all_zip.values():
            index = era_zip.count_names.index("No. of Initiated Contracts")
            assert era_zip.zip_result.count_coef[index] > 0

    def test_positive_rating_increases_completions(self, all_zip):
        for era_zip in all_zip.values():
            index = era_zip.count_names.index("Positive Rating")
            assert era_zip.zip_result.count_coef[index] > 0

    def test_first_time_users_complete_less(self, all_zip):
        # The paper's conditional first-time effect is negative in both
        # eras; at test scale the STABLE estimate is noisy, so we require
        # a clear negative in COVID-19 and no clear positive in STABLE.
        covid = all_zip["COVID-19"]
        index = covid.count_names.index("First-Time Contract Users")
        assert covid.zip_result.count_coef[index] < 0.0
        stable = all_zip["STABLE"]
        index = stable.count_names.index("First-Time Contract Users")
        assert stable.zip_result.count_coef[index] < 0.5  # full scale: -0.25***

    def test_zip_preferred_over_poisson(self, seed_markets):
        # The paper's Vuong tests favour ZIP in every era; at test scale
        # only the large STABLE sample has reliable power, so we require a
        # clear win there and no decisive loss elsewhere — in the median
        # over the seed markets, since one 2% draw's COVID-19 sample is
        # small enough to favour Poisson.
        statistics = {}
        for market in seed_markets:
            for era, era_zip in zip_all_users(market).items():
                statistics.setdefault(era, []).append(era_zip.vuong.statistic)
        assert np.median(statistics["STABLE"]) > 1.0
        for values in statistics.values():
            assert np.median(values) > -3.0

    def test_mcfadden_in_paper_range(self, all_zip):
        for era_zip in all_zip.values():
            assert 0.4 < era_zip.zip_result.mcfadden_r2 < 0.9

    def test_pct_zero_plausible(self, all_zip):
        for era_zip in all_zip.values():
            assert 15 < era_zip.zip_result.pct_zero < 60


class TestZipSubsamples:
    def test_four_models(self, dataset):
        subs = zip_subsamples(dataset)
        assert ("STABLE", "first_time") in subs
        assert ("STABLE", "existing") in subs
        assert ("COVID-19", "first_time") in subs
        assert ("COVID-19", "existing") in subs

    def test_existing_models_have_prev_covariates(self, dataset):
        subs = zip_subsamples(dataset)
        existing = subs[("STABLE", "existing")]
        assert any("prev era" in n for n in existing.zero_names)
        first = subs[("STABLE", "first_time")]
        assert not any("prev era" in n for n in first.zero_names)

    def test_existing_users_higher_r2(self, dataset):
        # Paper: existing users' models fit better (0.762 vs 0.528 in E2)
        subs = zip_subsamples(dataset)
        assert (
            subs[("STABLE", "existing")].zip_result.mcfadden_r2
            > subs[("STABLE", "first_time")].zip_result.mcfadden_r2 - 0.05
        )


class TestClustering:
    def test_cold_starters_in_stable_only(self, dataset):
        starters = set(cold_starters(dataset, STABLE))
        setup_takers = {
            c.taker_id for c in dataset.contracts if SETUP.contains(c.created_at)
        }
        assert not (starters & setup_takers)

    def test_major_cluster_dominates(self, clustering):
        assert clustering.major_share > 0.8

    def test_outliers_more_active(self, dataset, clustering):
        features = clustering.features
        accepted_col = CLUSTER_VARIABLES.index("accepted")
        outlier_mask = np.array(
            [u in set(clustering.outlier_users) for u in clustering.users]
        )
        outlier_mean = features[outlier_mask, accepted_col].mean()
        major_mean = features[~outlier_mask, accepted_col].mean()
        assert outlier_mean > 3 * major_mean

    def test_eight_outlier_clusters(self, seed_markets):
        # Stage 2 needs at least eight outliers, which a 2% draw does not
        # always leave: it must run on most seed markets, with eight
        # clusters covering every outlier wherever it runs.
        ran = 0
        for market in seed_markets:
            clustering = cluster_cold_starters(market, seed=0)
            if clustering.stage2 is None:
                continue
            ran += 1
            assert clustering.stage2.k == 8
            assert len(clustering.outlier_medians) == 8
            assert sum(clustering.outlier_sizes) == len(clustering.outlier_users)
        assert ran > len(seed_markets) / 2

    def test_medians_keyed_by_variables(self, clustering):
        for median in clustering.outlier_medians:
            assert set(median) == set(CLUSTER_VARIABLES)

    def test_too_few_starters_raises(self, dataset):
        from repro.core import MarketDataset

        with pytest.raises(ValueError):
            cluster_cold_starters(MarketDataset())


class TestSummary:
    def test_summary_shape(self, dataset, clustering):
        summary = cold_start_summary(dataset, clustering)
        assert summary.n_cold_starters == len(clustering.users)
        assert summary.n_outliers == len(clustering.outlier_users)

    def test_outliers_live_longer(self, dataset, clustering):
        summary = cold_start_summary(dataset, clustering)
        assert (
            summary.median_lifespan_outliers_days
            > summary.median_lifespan_all_days
        )

    def test_outliers_continue_into_covid_more(self, dataset, clustering):
        summary = cold_start_summary(dataset, clustering)
        assert (
            summary.continue_into_covid_outliers
            > summary.continue_into_covid_all
        )

    def test_outliers_higher_reputation(self, dataset, clustering):
        summary = cold_start_summary(dataset, clustering)
        assert (
            summary.median_reputation_outliers
            >= summary.median_reputation_all
        )
