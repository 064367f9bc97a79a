"""Incremental streaming kernels: exact parity with the resident
kernels (two seeds, full history and per era), merge algebra, window
selection, the streamed store's equality with the resident market, the
partitioned cache entry, and the streaming experiment registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.centralisation import (
    concentration_curves,
    key_share_by_month,
)
from repro.analysis.funnel import contract_funnel, funnel_by_era
from repro.analysis.monthly import monthly_growth, type_proportions
from repro.analysis.streaming import (
    FunnelKernel,
    MonthlyVolumeKernel,
    fold_partitions,
    streaming_concentration_curves,
    streaming_contract_funnel,
    streaming_contract_taxonomy,
    streaming_degree_growth,
    streaming_funnel_by_era,
    streaming_key_share_by_month,
    streaming_monthly_growth,
    streaming_type_proportions,
)
from repro.analysis.taxonomy import contract_taxonomy
from repro.core.columns import month_from_index
from repro.core.eras import COVID19, ERAS
from repro.core.partitions import PartitionStore
from repro.core.timeutils import Month
from repro.network.degrees import degree_growth
from repro.obs import disable_tracing, enable_tracing
from repro.report.stream_experiments import (
    STREAM_EXPERIMENTS,
    run_stream_experiment,
)
from repro.synth import SimulationConfig
from repro.synth.cache import cached_generate, cached_partitioned_store
from repro.synth.engine import generate_market
from repro.synth.streamgen import stream_partitioned

SCALE = 0.02
SEEDS = (7, 11)


@pytest.fixture(autouse=True)
def _reset_tracer():
    disable_tracing()
    yield
    disable_tracing()


def _assert_same_tables(got, want):
    assert sorted(got) == sorted(want)
    for key, column in want.items():
        if column.dtype == object:
            column = column.astype(np.str_)
        assert np.array_equal(got[key], column), key


@pytest.fixture(scope="module", params=SEEDS)
def seed(request):
    return request.param


@pytest.fixture(scope="module")
def resident(seed):
    """The resident market — the resident-kernel reference."""
    return generate_market(scale=SCALE, seed=seed).dataset


@pytest.fixture(scope="module")
def store(seed, tmp_path_factory):
    """The same market, streamed month-by-month into a partitioned store."""
    path = str(tmp_path_factory.mktemp(f"stream-{seed}") / "market-p3")
    stream_partitioned(SimulationConfig(scale=SCALE, seed=seed), path)
    return PartitionStore.open(path)


class TestKernelParity:
    """Folding month partitions must reproduce the resident kernels
    exactly — same counts, same floats."""

    def test_monthly_growth(self, resident, store):
        assert streaming_monthly_growth(store) == monthly_growth(resident)

    @pytest.mark.parametrize("completed_only", [False, True])
    def test_type_proportions(self, resident, store, completed_only):
        assert streaming_type_proportions(
            store, completed_only=completed_only
        ) == type_proportions(resident, completed_only=completed_only)

    def test_taxonomy(self, resident, store):
        want = contract_taxonomy(resident)
        got = streaming_contract_taxonomy(store)
        assert got.counts == want.counts
        assert got.total == want.total

    def test_funnel_full_history(self, resident, store):
        assert streaming_contract_funnel(store) == contract_funnel(resident)

    def test_funnel_by_era(self, resident, store):
        want = funnel_by_era(resident)
        got = streaming_funnel_by_era(store)
        assert set(got) == set(want)
        for era in ERAS:
            assert got[era.name] == want[era.name]

    @pytest.mark.parametrize("era", [e.name for e in ERAS])
    def test_single_era_funnel_opens_only_era_months(self, resident, store,
                                                     era):
        tracer = enable_tracing()
        got = streaming_contract_funnel(store, era=era)
        opened = tracer.snapshot()["counters"].get("partition.opened")
        assert got == funnel_by_era(resident)[era]
        assert opened == len(store.select_months(era=era))

    def test_key_share(self, resident, store):
        assert streaming_key_share_by_month(store) == \
            key_share_by_month(resident)

    def test_concentration(self, resident, store):
        assert streaming_concentration_curves(store) == \
            concentration_curves(resident)

    @pytest.mark.parametrize("completed_only", [False, True])
    def test_degree_growth(self, resident, store, completed_only):
        assert streaming_degree_growth(
            store, completed_only=completed_only
        ) == degree_growth(resident, completed_only=completed_only)


class TestMergeAlgebra:
    """Partial states must merge commutatively and associatively — the
    contract that makes windowed folds and future parallel folds safe."""

    def _per_month_kernels(self, store, factory):
        kernels = []
        for part in store.iter_months():
            kernel = factory()
            kernel.update(part)
            kernels.append(kernel)
        return kernels

    @pytest.mark.parametrize("factory", [MonthlyVolumeKernel, FunnelKernel])
    def test_merge_groupings_agree(self, store, factory):
        sequential = factory()
        for part in store.iter_months():
            sequential.update(part)
        want = sequential.finalize()

        left = self._per_month_kernels(store, factory)
        head = left[0]
        for kernel in left[1:]:
            head = head.merge(kernel)
        assert head.finalize() == want

        right = self._per_month_kernels(store, factory)
        tail = right[-1]
        for kernel in reversed(right[:-1]):
            tail = kernel.merge(tail)
        assert tail.finalize() == want

    def test_window_fold_equals_full_on_full_range(self, store):
        full = streaming_monthly_growth(store)
        months = [month_from_index(m) for m in store.months]
        windowed = streaming_monthly_growth(
            store, start=months[0], end=months[-1]
        )
        assert windowed == full

    def test_window_taxonomy_matches_resident_created_counts(self, resident,
                                                             store):
        start, end = Month(2019, 6), Month(2019, 9)
        kernel_total = streaming_contract_taxonomy(
            store, start=start, end=end
        ).total
        by_month = {
            point.month: point.contracts_created
            for point in monthly_growth(resident)
        }
        want = sum(count for month, count in by_month.items()
                   if start <= month <= end)
        assert kernel_total == want


class TestStreamedStore:
    """stream_partitioned writes the same market the resident build
    concatenates."""

    def test_entity_counts_match_batch(self, resident, store):
        tables = store.tables()
        assert len(tables["c_id"]) == len(resident.tables["c_id"])
        assert len(tables["user_id"]) == len(resident.tables["user_id"])
        assert len(tables["p_id"]) == len(resident.tables["p_id"])
        assert len(tables["x_txhash"]) == len(resident.tables["x_txhash"])

    def test_row_content_matches_batch(self, resident, store):
        """Every column equal, ids and row order included."""
        _assert_same_tables(store.tables(), resident.tables)

    def test_streaming_is_deterministic(self, seed, store, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("again") / "market-p3")
        stream_partitioned(SimulationConfig(scale=SCALE, seed=seed), path)
        again = PartitionStore.open(path)
        assert again.manifest["checksums"] == store.manifest["checksums"]


class TestPartitionedCache:
    def test_miss_then_hit(self, tmp_path):
        kwargs = dict(scale=SCALE, seed=5, cache_dir=str(tmp_path))
        store, hit = cached_partitioned_store(**kwargs)
        assert hit is False
        again, hit = cached_partitioned_store(**kwargs)
        assert hit is True
        assert again.manifest["checksums"] == store.manifest["checksums"]

    def test_store_matches_resident_cache(self, tmp_path):
        # Serve's compute scale: the store tier and the resident cache
        # hold one market, column for column.
        kwargs = dict(scale=0.004, seed=9, cache_dir=str(tmp_path))
        store, _ = cached_partitioned_store(**kwargs)
        result, _ = cached_generate(**kwargs)
        _assert_same_tables(store.tables(), result.dataset.tables)

    def test_refresh_rebuilds(self, tmp_path):
        kwargs = dict(scale=SCALE, seed=5, cache_dir=str(tmp_path))
        cached_partitioned_store(**kwargs)
        _, hit = cached_partitioned_store(refresh=True, **kwargs)
        assert hit is False


class TestStreamExperiments:
    def test_every_experiment_renders(self, store):
        for experiment_id in STREAM_EXPERIMENTS:
            report = run_stream_experiment(experiment_id, store)
            assert report.experiment_id == f"stream-{experiment_id}"
            assert report.lines

    def test_era_scoped_funnel_matches_resident(self, resident, store):
        report = run_stream_experiment("funnel", store, era="COVID-19")
        assert report.data == funnel_by_era(resident)[COVID19.name]
        assert "era=COVID-19" in report.title
