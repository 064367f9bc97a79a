"""The month-partitioned store: writer/reader round-trips, manifest
validation and quarantine, lazy shard opening (partition.opened
accounting), the resident-table splitter, and the legacy
materialization path that cache-loaded lazy datasets must keep
byte-identical to an eager load."""

from __future__ import annotations

import json
import os
import shutil
import zipfile

import numpy as np
import pytest

from repro.core.columns import month_index_of, month_indexes_of
from repro.core.eras import COVID19, ERAS, all_months
from repro.core.partitions import (
    GLOBAL_SHARD,
    MANIFEST_NAME,
    PARTITION_FORMAT_VERSION,
    CorruptStoreError,
    MonthPartition,
    PartitionStore,
    PartitionWriter,
    StaleStoreError,
    open_or_quarantine,
    partition_tables,
    write_tables,
)
from repro.core.schema import COLUMN_SCHEMA
from repro.core.timeutils import Month
from repro.obs import disable_tracing, enable_tracing
from repro.synth import SimulationConfig
from repro.synth.cache import cached_generate, cached_partitioned_store
from repro.synth.fastgen import generate_market_fast

SCALE = 0.02
SEED = 7


@pytest.fixture(autouse=True)
def _reset_tracer():
    disable_tracing()
    yield
    disable_tracing()


@pytest.fixture(scope="module")
def batch_result():
    return generate_market_fast(scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def batch_tables(batch_result):
    return batch_result.dataset.tables


@pytest.fixture(scope="module")
def store_path(batch_tables, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("stores") / "market-p3")
    write_tables(batch_tables, path, meta={"fingerprint": "fp-test"})
    return path


@pytest.fixture()
def store(store_path):
    return PartitionStore.open(store_path)


def _sorted_rows(tables, id_key, keys):
    order = np.argsort(np.asarray(tables[id_key]), kind="stable")
    return {key: np.asarray(tables[key])[order] for key in keys}


class TestRoundTrip:
    def test_contract_rows_survive(self, batch_tables, store):
        got = store.tables()
        keys = [k for k in batch_tables if k.startswith("c_")]
        want_rows = _sorted_rows(batch_tables, "c_id", keys)
        got_rows = _sorted_rows(got, "c_id", keys)
        for key in keys:
            assert np.array_equal(
                want_rows[key].astype(got_rows[key].dtype), got_rows[key]
            ), key

    def test_post_and_rating_rows_survive(self, batch_tables, store):
        got = store.tables()
        post_keys = [k for k in batch_tables if k.startswith("p_")]
        want = _sorted_rows(batch_tables, "p_id", post_keys)
        have = _sorted_rows(got, "p_id", post_keys)
        for key in post_keys:
            assert np.array_equal(
                want[key].astype(have[key].dtype), have[key]
            ), key
        # ratings have no id column: compare as lexsorted row multisets
        rating_keys = sorted(k for k in batch_tables if k.startswith("r_"))
        want_r = [np.asarray(batch_tables[k]) for k in rating_keys]
        have_r = [np.asarray(got[k]) for k in rating_keys]
        want_order = np.lexsort(want_r)
        have_order = np.lexsort(have_r)
        for w, h in zip(want_r, have_r):
            assert np.array_equal(w[want_order].astype(h.dtype),
                                  h[have_order])

    def test_global_tables_survive(self, batch_tables, store):
        got = store.global_tables()
        for key in ("user_id", "user_class", "t_id", "x_txhash"):
            want = np.asarray(batch_tables[key])
            assert np.array_equal(want.astype(got[key].dtype), got[key]), key

    def test_months_bucket_by_creation(self, store):
        for part in store.iter_months():
            assert part.month_idx == month_index_of(part.month)
            created = part.created_us
            months = np.full(len(created), part.month_idx)
            assert np.array_equal(month_indexes_of(created), months)

    def test_materialize_matches_tables(self, store, batch_result):
        dataset = store.materialize()
        assert len(dataset.tables["c_id"]) == len(
            batch_result.dataset.tables["c_id"]
        )
        assert len(dataset.users) == len(batch_result.dataset.users)


class TestManifest:
    def test_missing_manifest_is_corrupt(self, store_path, tmp_path):
        broken = str(tmp_path / "broken")
        shutil.copytree(store_path, broken)
        os.remove(os.path.join(broken, MANIFEST_NAME))
        with pytest.raises(CorruptStoreError):
            PartitionStore.open(broken)

    def test_malformed_manifest_is_corrupt(self, store_path, tmp_path):
        broken = str(tmp_path / "broken")
        shutil.copytree(store_path, broken)
        with open(os.path.join(broken, MANIFEST_NAME), "w") as handle:
            handle.write("[1, 2]")
        with pytest.raises(CorruptStoreError):
            PartitionStore.open(broken)

    def test_old_format_version_is_stale(self, store_path, tmp_path):
        old = str(tmp_path / "old")
        shutil.copytree(store_path, old)
        manifest_path = os.path.join(old, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["version"] = PARTITION_FORMAT_VERSION - 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StaleStoreError):
            PartitionStore.open(old)
        # stale reads as a miss, not a quarantine
        assert open_or_quarantine(old) is None
        assert os.path.isdir(old)

    def test_fingerprint_mismatch_is_stale(self, store_path):
        with pytest.raises(StaleStoreError):
            PartitionStore.open(store_path, expect_fingerprint="other")
        assert PartitionStore.open(
            store_path, expect_fingerprint="fp-test"
        ) is not None

    def test_corrupt_shard_quarantines(self, store_path, tmp_path):
        broken = str(tmp_path / "scrambled")
        shutil.copytree(store_path, broken)
        store = PartitionStore.open(broken)
        name = store.manifest["months"][0]["file"]
        with open(os.path.join(broken, name), "r+b") as handle:
            handle.seek(200)
            handle.write(b"\xff" * 32)
        with pytest.raises(CorruptStoreError):
            store.partition(store.months[0])

    def test_missing_shard_is_corrupt(self, store_path, tmp_path):
        broken = str(tmp_path / "missing-shard")
        shutil.copytree(store_path, broken)
        store = PartitionStore.open(broken)
        os.remove(os.path.join(broken, store.manifest["months"][0]["file"]))
        with pytest.raises(CorruptStoreError):
            store.partition(store.months[0])


def _payload_bytes(archive: zipfile.ZipFile, key: str) -> int:
    """Bytes the members storing column ``key`` hold beyond npy headers."""
    total = 0
    for info in archive.infolist():
        if not info.filename.startswith(key + "."):
            continue
        with archive.open(info) as member:
            version = np.lib.format.read_magic(member)
            if version == (1, 0):
                np.lib.format.read_array_header_1_0(member)
            else:
                np.lib.format.read_array_header_2_0(member)
            total += info.file_size - member.tell()
    return total


class TestTextLayout:
    def test_text_members_cost_their_utf8_bytes(self, store):
        """Text is stored as its UTF-8 bytes plus int64 row offsets,
        without fixed-width padding (~60x the text as UTF-32)."""
        text = {k for k, kind in COLUMN_SCHEMA.items() if kind == "str"}
        shards = [(GLOBAL_SHARD, store.global_tables())]
        for entry in store.manifest["months"]:
            part = store.partition(entry["month"])
            shards.append((entry["file"], {
                key: part.col(key) for key in text if key.startswith("c_")
            }))
        for name, columns in shards:
            with zipfile.ZipFile(os.path.join(store.path, name)) as archive:
                for key in sorted(text & set(columns)):
                    rows = columns[key].tolist()
                    utf8 = sum(len(row.encode("utf-8")) for row in rows)
                    assert _payload_bytes(archive, key) <= \
                        utf8 + 8 * (len(rows) + 1), (name, key)


class TestFormatVersion:
    def test_v3_store_at_the_entry_is_a_stale_miss(self, tmp_path):
        """A store of the previous format at the entry path reads as a
        plain miss (not corruption) and is rebuilt in place."""
        kwargs = dict(scale=0.004, seed=SEED, cache_dir=str(tmp_path),
                      generate_posts=False)
        built, hit = cached_partitioned_store(**kwargs)
        assert not hit
        manifest_path = os.path.join(built.path, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["version"] = 3
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)

        tracer = enable_tracing()
        rebuilt, hit = cached_partitioned_store(**kwargs)
        counters = tracer.snapshot()["counters"]
        assert not hit
        assert counters.get("cache.misses") == 1
        assert counters.get("partition.corrupt") is None
        assert not [n for n in os.listdir(tmp_path) if ".corrupt-" in n]
        assert rebuilt.path == built.path
        assert rebuilt.manifest["version"] == PARTITION_FORMAT_VERSION


class TestSelection:
    def test_select_all_months(self, store):
        assert store.select_months() == store.months

    def test_window_selection(self, store):
        lo, hi = Month(2019, 3), Month(2019, 8)
        selected = store.select_months(start=lo, end=hi)
        assert selected == [
            m for m in store.months
            if month_index_of(lo) <= m <= month_index_of(hi)
        ]

    def test_era_selection_is_minimal(self, store):
        selected = store.select_months(era="COVID-19")
        assert len(selected) == len(list(COVID19.months()))

    def test_opened_counter_tracks_partitions(self, store_path):
        tracer = enable_tracing()
        store = PartitionStore.open(store_path)
        wanted = store.select_months(era="COVID-19")
        list(store.iter_months(era="COVID-19"))
        counters = tracer.snapshot()["counters"]
        assert counters.get("partition.opened") == len(wanted)
        assert counters.get("partition.materialized") is None

    def test_materialize_counter(self, store_path):
        tracer = enable_tracing()
        PartitionStore.open(store_path).materialize()
        counters = tracer.snapshot()["counters"]
        assert counters.get("partition.materialized") == 1
        assert counters.get("partition.opened") == len(all_months())

    def test_era_mask_covers_boundary_month(self, store):
        boundary = month_index_of(Month(2020, 3))
        part = store.partition(boundary)
        covid = ERAS.index(COVID19)
        mask = part.era_mask(covid)
        # March 2020 straddles STABLE/COVID-19: both sides present
        assert 0 < int(mask.sum()) < len(mask)
        inner = store.partition(month_index_of(Month(2020, 5)))
        assert bool(inner.era_mask(covid).all())


class TestWriter:
    def test_months_must_increase(self, tmp_path):
        writer = PartitionWriter(str(tmp_path / "w"))
        writer.add_month(600, {})
        with pytest.raises(ValueError):
            writer.add_month(600, {})
        writer.abort()

    def test_unknown_column_rejected(self, tmp_path):
        writer = PartitionWriter(str(tmp_path / "w"))
        with pytest.raises(KeyError):
            writer.add_month(600, {"c_bogus": np.zeros(1)})
        writer.abort()

    def test_finalize_requires_global(self, tmp_path):
        writer = PartitionWriter(str(tmp_path / "w"))
        writer.add_month(600, {})
        with pytest.raises(RuntimeError):
            writer.finalize()
        writer.abort()

    def test_abort_drops_staging(self, tmp_path):
        final = str(tmp_path / "w")
        writer = PartitionWriter(final)
        writer.add_month(600, {})
        writer.abort()
        assert not os.path.exists(final)
        assert not os.path.exists(writer.stage)

    def test_empty_month_round_trips(self, tmp_path, batch_tables):
        """A month with zero rows must map back as empty columns (the
        zero-size-member mmap special case)."""
        final = str(tmp_path / "empty")
        global_tables, _ = partition_tables(batch_tables)
        writer = PartitionWriter(final)
        writer.add_month(600, {})
        writer.set_global(global_tables)
        writer.finalize()
        store = PartitionStore.open(final)
        part = store.partition(600)
        assert isinstance(part, MonthPartition)
        assert part.n_contracts == 0
        assert len(part.col("c_id")) == 0
        assert len(part.col("p_id")) == 0
        assert part.col("c_created_us").dtype == np.dtype(np.int64)

    def test_publish_is_atomic_over_existing(self, store_path, batch_tables):
        """Re-publishing over a live store swaps wholesale."""
        before = PartitionStore.open(store_path).manifest["checksums"]
        write_tables(batch_tables, store_path, meta={"fingerprint": "fp-test"})
        after = PartitionStore.open(store_path, "fp-test").manifest["checksums"]
        assert set(before) == set(after)
        assert os.path.isfile(os.path.join(store_path, GLOBAL_SHARD))


class TestLegacyMaterialization:
    """Satellite: cache-loaded lazy datasets must stay identical to an
    eager in-memory load when legacy consumers touch ``.users`` /
    ``.contracts``."""

    @pytest.mark.parametrize("engine", ["fastgen", "object"])
    def test_entity_views_match_eager_load(self, tmp_path, engine):
        kwargs = dict(scale=SCALE, seed=SEED, engine=engine,
                      cache_dir=str(tmp_path))
        eager, hit = cached_generate(**kwargs)
        assert hit is False
        loaded, hit = cached_generate(**kwargs)
        assert hit is True
        assert len(loaded.dataset.users) == len(eager.dataset.users)
        assert [u.user_id for u in loaded.dataset.users] == \
            [u.user_id for u in eager.dataset.users]
        assert [u.joined_forum_at for u in loaded.dataset.users] == \
            [u.joined_forum_at for u in eager.dataset.users]
        assert len(loaded.dataset.contracts) == len(eager.dataset.contracts)
        for got, want in zip(loaded.dataset.contracts,
                             eager.dataset.contracts):
            assert got.contract_id == want.contract_id
            assert got.ctype == want.ctype
            assert got.status == want.status
            assert got.created_at == want.created_at
