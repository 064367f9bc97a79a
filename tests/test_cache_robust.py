"""Cache robustness: the rating-0 round-trip regression, corruption
quarantine, crash-safe publication and the concurrent-generation lock.

A cache entry is a month-partitioned store.  The corruption fixtures
come from the fault harness (:mod:`repro.devtools.faults`); every
scenario here must end in either a correct load or a quarantined entry
plus a clean miss — never a crash.  A corrupt shard found by a
whole-history read is rebuilt in the same call; one found by a slice
fails that slice and is rebuilt by the next open.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import struct
import zipfile

import numpy as np
import pytest

from repro.core.lazy import ColumnBackedDataset
from repro.core.partitions import PARTITION_FORMAT_VERSION, open_or_quarantine
from repro.devtools import faults
from repro.obs.tracer import NullTracer, Tracer, set_tracer
from repro.robust import InjectedCrash, disarm_all_crash_points
from repro.runs import context_for, open_market, run_results
from repro.synth import MarketSimulator, SimulationConfig
from repro.synth.cache import (
    RATING_SENTINEL,
    cache_path,
    cached_generate,
    cached_partitioned_store,
    config_fingerprint,
    load_result,
    save_result,
)

#: One tiny market, generated once; tests that need a pristine entry
#: re-save it into their own tmp cache dir.
SCALE, SEED = 0.004, 9


@pytest.fixture(scope="module")
def tiny_result():
    config = SimulationConfig(scale=SCALE, seed=SEED, generate_posts=False)
    return MarketSimulator(config).run()


@pytest.fixture
def tracer():
    installed = set_tracer(Tracer())
    yield installed
    set_tracer(NullTracer())


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.reset()
    disarm_all_crash_points()


def entry_of(tiny_result, cache_dir):
    return cache_path(tiny_result.config, str(cache_dir))


# --------------------------------------------------------------------- #
# rating round-trip (regression: 0 used to come back as None)
# --------------------------------------------------------------------- #


class TestRatingRoundTrip:
    def test_zero_rating_survives_the_cache(self, tiny_result, tmp_path):
        # Rate the first contract 0 on both sides, in the rating columns
        # the cache writes.
        tables = dict(tiny_result.dataset.tables)
        for key in ("c_maker_rating", "c_taker_rating"):
            tables[key] = tables[key].copy()
            tables[key][0] = 0
        edited = dataclasses.replace(
            tiny_result, dataset=ColumnBackedDataset(tables)
        )
        save_result(edited, str(tmp_path))
        loaded = load_result(tiny_result.config, str(tmp_path))
        assert loaded is not None
        victim = int(tables["c_id"][0])
        match = next(
            c for c in loaded.dataset.contracts if c.contract_id == victim
        )
        # The old encoding used 0 as the None sentinel, so a
        # legitimate 0 rating came back as None.
        assert match.maker_rating == 0
        assert match.taker_rating == 0

    def test_none_rating_still_round_trips(self, tiny_result, tmp_path):
        unrated = [
            c for c in tiny_result.dataset.contracts if c.maker_rating is None
        ]
        assert unrated, "fixture market should contain unrated contracts"
        save_result(tiny_result, str(tmp_path))
        loaded = load_result(tiny_result.config, str(tmp_path))
        match = next(
            c for c in loaded.dataset.contracts
            if c.contract_id == unrated[0].contract_id
        )
        assert match.maker_rating is None

    def test_sentinel_is_outside_rating_range(self, tiny_result):
        scores = [
            r for c in tiny_result.dataset.contracts
            for r in (c.maker_rating, c.taker_rating) if r is not None
        ]
        assert scores and all(s > RATING_SENTINEL for s in scores)


# --------------------------------------------------------------------- #
# corruption -> quarantine -> miss
# --------------------------------------------------------------------- #


def _assert_quarantined_miss(config, cache_dir, tracer, expected_corrupt=1):
    loaded = load_result(config, str(cache_dir))
    assert loaded is None
    entry = cache_path(config, str(cache_dir))
    assert not os.path.exists(entry)
    assert os.path.isdir(entry + ".corrupt-1")
    assert tracer.counters.get("cache.corrupt", 0) == expected_corrupt


class TestCorruptEntries:
    def test_truncated_npz_is_quarantined(self, tiny_result, tmp_path, tracer):
        entry = save_result(tiny_result, str(tmp_path))
        faults.truncate_npz(entry)
        _assert_quarantined_miss(tiny_result.config, tmp_path, tracer)

    def test_scrambled_npz_caught_by_checksum(self, tiny_result, tmp_path, tracer):
        entry = save_result(tiny_result, str(tmp_path))
        faults.scramble_npz(entry, seed=7)
        _assert_quarantined_miss(tiny_result.config, tmp_path, tracer)

    def test_malformed_meta_is_quarantined(self, tiny_result, tmp_path, tracer):
        entry = save_result(tiny_result, str(tmp_path))
        faults.corrupt_meta(entry, mode="malformed")
        _assert_quarantined_miss(tiny_result.config, tmp_path, tracer)

    def test_partial_meta_is_quarantined(self, tiny_result, tmp_path, tracer):
        entry = save_result(tiny_result, str(tmp_path))
        faults.corrupt_meta(entry, mode="partial")
        _assert_quarantined_miss(tiny_result.config, tmp_path, tracer)

    def test_falsified_checksum_is_quarantined(self, tiny_result, tmp_path, tracer):
        entry = save_result(tiny_result, str(tmp_path))
        faults.corrupt_meta(entry, mode="checksum")
        _assert_quarantined_miss(tiny_result.config, tmp_path, tracer)

    def test_missing_data_file_is_quarantined(self, tiny_result, tmp_path, tracer):
        entry = save_result(tiny_result, str(tmp_path))
        os.unlink(os.path.join(entry, "m000581.npz"))  # June 2018
        _assert_quarantined_miss(tiny_result.config, tmp_path, tracer)

    def test_stale_version_misses_without_quarantine(
        self, tiny_result, tmp_path, tracer
    ):
        entry = save_result(tiny_result, str(tmp_path))
        manifest_path = os.path.join(entry, "manifest.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["version"] = PARTITION_FORMAT_VERSION - 1
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        assert load_result(tiny_result.config, str(tmp_path)) is None
        # A stale entry is valid data for another version: left in place.
        assert os.path.isdir(entry)
        assert tracer.counters.get("cache.corrupt", 0) == 0

    def test_retired_single_file_entry_is_replaced(
        self, tiny_result, tmp_path, tracer
    ):
        # The retired format kept `data.npz` + `meta.json` at the path a
        # store now takes: a stale miss, rebuilt there, not quarantined.
        entry = entry_of(tiny_result, tmp_path)
        os.makedirs(entry)
        for name in ("data.npz", "meta.json"):
            with open(os.path.join(entry, name), "w", encoding="utf-8") as handle:
                handle.write("{}")
        _, hit = cached_generate(
            scale=SCALE, seed=SEED, cache_dir=str(tmp_path),
            generate_posts=False,
        )
        assert hit is False
        assert sorted(os.listdir(tmp_path)) == sorted(
            [os.path.basename(entry), os.path.basename(entry) + ".lock"]
        )
        assert os.path.isfile(os.path.join(entry, "manifest.json"))
        assert not os.path.exists(os.path.join(entry, "meta.json"))
        assert tracer.counters.get("cache.corrupt", 0) == 0

    def test_regeneration_replaces_quarantined_entry(
        self, tiny_result, tmp_path, tracer
    ):
        entry = save_result(tiny_result, str(tmp_path))
        faults.truncate_npz(entry)
        result, hit = cached_generate(
            scale=SCALE, seed=SEED, cache_dir=str(tmp_path),
            generate_posts=False,
        )
        assert hit is False  # corruption degraded to a miss + regenerate
        assert os.path.isdir(entry)
        assert os.path.isdir(entry + ".corrupt-1")
        again = load_result(tiny_result.config, str(tmp_path))
        assert again is not None
        assert len(again.dataset.contracts) == len(result.dataset.contracts)


# --------------------------------------------------------------------- #
# a store whose shard fails its checksum, or whose manifest has none
# --------------------------------------------------------------------- #


def _overwrite(path, offset, data):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(data)


def _first_shard(store):
    return os.path.join(store.path, store.manifest["months"][0]["file"])


def _bump_first_created(shard_path):
    """Add 1 to the first ``c_created_us`` value of a shard, in place,
    leaving the zip container readable.  Returns the new value."""
    with zipfile.ZipFile(shard_path) as archive:
        offset = archive.getinfo("c_created_us.npy").header_offset
    with open(shard_path, "rb") as handle:
        handle.seek(offset + 26)
        name_len, extra_len = struct.unpack("<HH", handle.read(4))
        npy = offset + 30 + name_len + extra_len
        handle.seek(npy + 8)
        (header_len,) = struct.unpack("<H", handle.read(2))
        handle.seek(npy + 10 + header_len)
        (value,) = struct.unpack("<q", handle.read(8))
    _overwrite(shard_path, npy + 10 + header_len, struct.pack("<q", value + 1))
    return value + 1


class TestCorruptShards:
    """Shard corruption found after the manifest opened cleanly."""

    KWARGS = dict(scale=SCALE, seed=5)

    def test_whole_history_read_rebuilds_in_the_same_call(self, tmp_path, tracer):
        store, _ = cached_partitioned_store(cache_dir=str(tmp_path), **self.KWARGS)
        _overwrite(_first_shard(store), 200, b"\xff" * 32)
        config = SimulationConfig(**self.KWARGS)
        context = context_for("report", config, ["table1"], store="partitioned")
        market = open_market(context, cache_dir=str(tmp_path))
        assert not market.hit  # quarantined, then rebuilt by this call
        assert os.path.isdir(store.path + ".corrupt-1")
        assert tracer.counters.get("cache.corrupt") == 1
        (result,) = run_results(context, market)
        assert result.ok
        again, hit = cached_generate(cache_dir=str(tmp_path), **self.KWARGS)
        assert hit
        fresh = MarketSimulator(config).run()
        for key, col in fresh.dataset.tables.items():
            assert np.array_equal(again.dataset.tables[key], col), key

    def test_slice_quarantines_so_the_next_open_rebuilds(self, tmp_path, tracer):
        store, _ = cached_partitioned_store(cache_dir=str(tmp_path), **self.KWARGS)
        _overwrite(_first_shard(store), 200, b"\xff" * 32)
        config = SimulationConfig(**self.KWARGS)
        context = context_for(
            "stream", config, ["stream-growth"], store="partitioned"
        )
        market = open_market(context, cache_dir=str(tmp_path))
        assert market.hit  # the manifest is intact
        (result,) = run_results(context, market)
        assert not result.ok
        assert result.error["type"] == "CorruptStoreError"
        assert os.path.isdir(store.path + ".corrupt-1")
        assert tracer.counters.get("cache.corrupt") == 1

        market = open_market(context, cache_dir=str(tmp_path))
        assert not market.hit
        (result,) = run_results(context, market)
        assert result.ok

    def test_manifest_without_checksums_is_quarantined(self, tmp_path, tracer):
        store, _ = cached_partitioned_store(cache_dir=str(tmp_path), **self.KWARGS)
        manifest_path = os.path.join(store.path, "manifest.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        del manifest["checksums"]
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        _bump_first_created(_first_shard(store))
        fingerprint = config_fingerprint(SimulationConfig(**self.KWARGS))
        # Without checksums the changed value would read back unnoticed.
        assert open_or_quarantine(store.path, fingerprint) is None
        assert not os.path.exists(store.path)
        assert os.path.isdir(store.path + ".corrupt-1")
        assert tracer.counters.get("cache.corrupt") == 1


# --------------------------------------------------------------------- #
# crash-safe publication
# --------------------------------------------------------------------- #


class TestCrashSafety:
    def test_crash_before_publish_preserves_old_entry(
        self, tiny_result, tmp_path
    ):
        entry = save_result(tiny_result, str(tmp_path))
        before = sorted(os.listdir(entry))
        faults.crash_on("partition.save.before_publish")
        with pytest.raises(InjectedCrash):
            save_result(tiny_result, str(tmp_path))
        disarm_all_crash_points()
        # The previous entry is untouched and still loads.
        assert sorted(os.listdir(entry)) == before
        assert load_result(tiny_result.config, str(tmp_path)) is not None
        # Only a tmp-<pid> staging dir may remain; a rerun clears it.
        leftovers = [
            name for name in os.listdir(tmp_path)
            if ".tmp-" in name
        ]
        assert len(leftovers) <= 1
        save_result(tiny_result, str(tmp_path))
        assert not any(".tmp-" in name for name in os.listdir(tmp_path))

    def test_crash_mid_write_never_publishes_torn_entry(
        self, tiny_result, tmp_path
    ):
        faults.crash_on("partition.save.mid_write")
        with pytest.raises(InjectedCrash):
            save_result(tiny_result, str(tmp_path))
        disarm_all_crash_points()
        # No entry was published at all: a clean miss, not a torn read.
        assert load_result(tiny_result.config, str(tmp_path)) is None
        save_result(tiny_result, str(tmp_path))
        assert load_result(tiny_result.config, str(tmp_path)) is not None


# --------------------------------------------------------------------- #
# concurrent generation
# --------------------------------------------------------------------- #


def _generate_into(cache_dir, ready, go, out):
    ready.set()
    go.wait(timeout=30.0)
    result, hit = cached_generate(
        scale=SCALE, seed=SEED, cache_dir=cache_dir, generate_posts=False,
    )
    out.put((hit, result.dataset.summary()))


class TestConcurrentGenerate:
    def test_two_processes_generate_once(self, tmp_path):
        context = multiprocessing.get_context("fork")
        out = context.Queue()
        go = context.Event()
        workers, readies = [], []
        for _ in range(2):
            ready = context.Event()
            worker = context.Process(
                target=_generate_into, args=(str(tmp_path), ready, go, out)
            )
            worker.start()
            workers.append(worker)
            readies.append(ready)
        for ready in readies:
            assert ready.wait(timeout=30.0)
        go.set()  # release both as close to simultaneously as possible
        results = [out.get(timeout=180.0) for _ in workers]
        for worker in workers:
            worker.join(timeout=30.0)
        hits = sorted(hit for hit, _ in results)
        # Exactly one process generated; the other waited on the lock,
        # re-checked the cache and loaded the winner's entry.
        assert hits == [False, True]
        summaries = [summary for _, summary in results]
        assert summaries[0] == summaries[1]
