"""JSONL round-trip tests."""

import os

import pytest

from repro.core import load_dataset, save_dataset
from repro.core.io import DATASET_FILES


class TestRoundTrip:
    def test_exact_roundtrip(self, tmp_path, dataset):
        directory = str(tmp_path / "market")
        save_dataset(dataset, directory)
        loaded = load_dataset(directory)

        assert len(loaded.contracts) == len(dataset.contracts)
        assert len(loaded.users) == len(dataset.users)
        assert len(loaded.threads) == len(dataset.threads)
        assert len(loaded.posts) == len(dataset.posts)
        assert len(loaded.ratings) == len(dataset.ratings)

        # load_dataset returns a MarketDataset, which sorts contracts and
        # posts by (created_at, id); a generated dataset keeps the
        # generator's row order.
        def chronological(entities, ident):
            return sorted(entities, key=lambda e: (e.created_at, getattr(e, ident)))

        assert loaded.contracts == chronological(dataset.contracts, "contract_id")
        assert loaded.posts == chronological(dataset.posts, "post_id")
        assert loaded.users == dataset.users
        assert loaded.threads == dataset.threads
        assert loaded.ratings == dataset.ratings

    def test_files_created(self, tmp_path, dataset):
        directory = str(tmp_path / "market")
        save_dataset(dataset, directory)
        for name in DATASET_FILES:
            assert os.path.exists(os.path.join(directory, name))

    def test_missing_file_raises(self, tmp_path, dataset):
        directory = str(tmp_path / "market")
        save_dataset(dataset, directory)
        os.remove(os.path.join(directory, "posts.jsonl"))
        with pytest.raises(FileNotFoundError) as exc:
            load_dataset(directory)
        assert "posts.jsonl" in str(exc.value)

    def test_load_nonexistent_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(str(tmp_path / "nowhere"))

    def test_overwrite_existing(self, tmp_path, dataset):
        directory = str(tmp_path / "market")
        save_dataset(dataset, directory)
        save_dataset(dataset, directory)  # no error on rewrite
        loaded = load_dataset(directory)
        assert len(loaded.contracts) == len(dataset.contracts)

    def test_summary_preserved(self, tmp_path, dataset):
        directory = str(tmp_path / "market")
        save_dataset(dataset, directory)
        loaded = load_dataset(directory)
        assert loaded.summary() == dataset.summary()
