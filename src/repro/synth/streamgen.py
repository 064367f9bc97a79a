"""Streaming partitioned generation: emit each month as it completes.

The batch fastgen path runs every cohort's whole month loop and
concatenates full-history tables; at paper scale the string columns of
those tables dominate the ~617 MB peak RSS recorded in BENCH_gen.json.
This module runs the same :class:`~repro.synth.fastgen._CohortGenerator`
machinery *in lockstep* instead: all cohorts generate month M, the
per-cohort chunks are merged into one shard and written to the
month-partitioned store (:mod:`repro.core.partitions`), and the chunk
memory is dropped before month M+1 starts.  Only the month-free
lifetime state (users, threads, ledger — a few MB) survives to the end.

Identity policy: the batch merge renumbers users and threads with
*final* per-cohort offsets, which are unknowable mid-stream.  Streamed
stores instead give each cohort a fixed id stripe of
:data:`STREAM_ID_STRIDE` (mirroring fastgen's per-cohort chain-seed
stripes), so ids are assignable the moment a row is generated.  Row
*content* is identical to the batch engine — the per-cohort RNG draw
order does not change — only the id labels and the row order differ
(month-major here, cohort-major in batch), and every analysis kernel is
invariant to both (``tests/test_streaming_kernels.py`` asserts exact
equality of kernel outputs).

Streaming is serial by construction: lockstep months need every cohort
in one process.  Use the batch engine when wall-clock beats memory.
"""

from __future__ import annotations

import logging
import time
from typing import Dict, List, Optional

import numpy as np

from ..blockchain.chain import make_txhash
from ..core.columns import NAT_US, month_index_of
from ..core.eras import all_months
from ..core.partitions import PartitionWriter
from ..obs.tracer import get_tracer, peak_rss_bytes
from .config import SimulationConfig
from .fastgen import _CLASS_NAME_ARR, _CohortGenerator

__all__ = ["STREAM_ID_STRIDE", "stream_partitioned"]

logger = logging.getLogger(__name__)

#: Per-cohort id stripe for users and threads in streamed stores.  Wide
#: enough that no cohort ever overflows its stripe (2^40 users ≫ any
#: run), narrow enough that int64 holds thousands of cohorts.
STREAM_ID_STRIDE = 2 ** 40


def _merge_month_chunks(
    chunks: List[Dict[str, object]], next_contract_id: int, next_post_id: int
):
    """Merge per-cohort month chunks into one shard table dict.

    User and thread references get their cohort's id stripe; contract
    and post ids are assigned sequentially in emission order (month-
    major), so they are unique and ascending across the whole store.
    Returns ``(shard, next_contract_id, next_post_id)``.
    """

    def cat(key: str, dtype) -> np.ndarray:
        return np.concatenate(
            [np.asarray(chunk[key], dtype=dtype) for chunk in chunks]
        )

    def cat_users(key: str) -> np.ndarray:
        return np.concatenate([
            np.asarray(chunk[key], dtype=np.int64) + 1 + i * STREAM_ID_STRIDE
            for i, chunk in enumerate(chunks)
        ])

    def cat_threads(key: str) -> np.ndarray:
        return np.concatenate([
            np.where(
                np.asarray(chunk[key], dtype=np.int64) >= 0,
                np.asarray(chunk[key], dtype=np.int64) + 1
                + i * STREAM_ID_STRIDE,
                np.int64(-1),
            )
            for i, chunk in enumerate(chunks)
        ])

    def cat_strs(key: str) -> List[str]:
        values: List[str] = []
        for chunk in chunks:
            values.extend(chunk[key])
        return values

    n_contracts = sum(len(chunk["c_type"]) for chunk in chunks)
    n_posts = sum(len(chunk["p_thread"]) for chunk in chunks)
    n_ratings = sum(len(chunk["r_ratee"]) for chunk in chunks)
    shard = {
        "c_id": np.arange(
            next_contract_id, next_contract_id + n_contracts, dtype=np.int64
        ),
        "c_type": cat("c_type", np.int8),
        "c_status": cat("c_status", np.int8),
        "c_visibility": cat("c_visibility", np.int8),
        "c_maker": cat_users("c_maker"),
        "c_taker": cat_users("c_taker"),
        "c_created_us": cat("c_created_us", np.int64),
        "c_completed_us": cat("c_completed_us", np.int64),
        "c_maker_obligation": cat_strs("maker_ob"),
        "c_taker_obligation": cat_strs("taker_ob"),
        "c_terms": cat_strs("terms"),
        "c_maker_rating": cat("c_maker_rating", np.int8),
        "c_taker_rating": cat("c_taker_rating", np.int8),
        "c_thread": cat_threads("c_thread"),
        "c_btc_address": cat_strs("btc_addr"),
        "c_btc_txhash": cat_strs("btc_tx"),
        "p_id": np.arange(next_post_id, next_post_id + n_posts, dtype=np.int64),
        "p_thread": cat_threads("p_thread") if n_posts else
        np.empty(0, dtype=np.int64),
        "p_author": cat_users("p_author") if n_posts else
        np.empty(0, dtype=np.int64),
        "p_created_us": cat("p_created_us", np.int64),
        "p_marketplace": cat("p_marketplace", np.bool_),
        "r_contract": np.zeros(n_ratings, dtype=np.int64),
        "r_rater": np.zeros(n_ratings, dtype=np.int64),
        "r_ratee": cat_users("r_ratee") if n_ratings else
        np.empty(0, dtype=np.int64),
        "r_score": cat("r_score", np.int8),
        "r_created_us": cat("r_created_us", np.int64),
    }
    return shard, next_contract_id + n_contracts, next_post_id + n_posts


def _merge_global(generators: List[_CohortGenerator]) -> Dict[str, object]:
    """Month-free tables from the finished cohorts (striped ids)."""
    lifetimes = [gen.lifetime_dict() for gen in generators]

    user_ids, joined, first_post, classes = [], [], [], []
    t_ids, t_authors, t_created, t_titles = [], [], [], []
    x_seed, x_address, x_when, x_btc = [], [], [], []
    for i, life in enumerate(lifetimes):
        n_users = int(life["n_users"])
        user_ids.append(
            np.arange(1, n_users + 1, dtype=np.int64) + i * STREAM_ID_STRIDE
        )
        joined.append(np.asarray(life["user_joined_us"], dtype=np.int64))
        first_post.append(np.full(n_users, NAT_US, dtype=np.int64))
        classes.append(_CLASS_NAME_ARR[life["user_class_code"]])
        n_threads = len(life["t_author"])
        t_ids.append(
            np.arange(1, n_threads + 1, dtype=np.int64) + i * STREAM_ID_STRIDE
        )
        t_authors.append(
            np.asarray(life["t_author"], dtype=np.int64) + 1
            + i * STREAM_ID_STRIDE
        )
        t_created.append(np.asarray(life["t_created_us"], dtype=np.int64))
        t_titles.extend(life["t_title"])
        x_seed.append(np.asarray(life["x_seed"], dtype=np.int64))
        x_address.extend(life["x_address"])
        x_when.append(np.asarray(life["x_when_us"], dtype=np.int64))
        x_btc.append(np.asarray(life["x_btc"], dtype=np.float64))

    seeds = np.concatenate(x_seed) if x_seed else np.empty(0, np.int64)
    n_threads_total = int(sum(len(t) for t in t_ids))
    return {
        "user_id": np.concatenate(user_ids),
        "user_joined_us": np.concatenate(joined),
        "user_first_post_us": np.concatenate(first_post),
        "user_class": np.concatenate(classes),
        "t_id": np.concatenate(t_ids),
        "t_author": np.concatenate(t_authors),
        "t_created_us": np.concatenate(t_created),
        "t_title": t_titles,
        "t_marketplace": np.ones(n_threads_total, dtype=np.bool_),
        "x_txhash": [make_txhash(int(seed)) for seed in seeds],
        "x_address": x_address,
        "x_timestamp_us": np.concatenate(x_when),
        "x_btc": np.concatenate(x_btc),
    }


def stream_partitioned(
    config: SimulationConfig,
    final_path: str,
    meta: Optional[Dict] = None,
) -> str:
    """Generate a market straight into a partitioned store at ``final_path``.

    All cohorts advance month by month in lockstep; each month's merged
    shard is written (``partition.written``) and freed before the next
    month runs, so peak memory is one month of columns plus the small
    lifetime state.  The store is published atomically on success and
    the staging directory is dropped on failure.  Returns the store
    path.
    """
    tracer = get_tracer()
    logger.info(
        "streamgen: scale=%.3g seed=%d cohorts=%d -> %s",
        config.scale, config.seed, config.n_cohorts, final_path,
    )
    start = time.perf_counter()
    writer = PartitionWriter(final_path, meta=meta)
    try:
        with tracer.span("streamgen.generate"):
            generators = [
                _CohortGenerator(config, cohort)
                for cohort in range(config.n_cohorts)
            ]
            next_contract_id, next_post_id = 1, 1
            n_contracts = 0
            for month_index, month in enumerate(all_months()):
                with tracer.span("streamgen.month"):
                    chunks = [
                        gen.run_month(month_index, month)
                        for gen in generators
                    ]
                    shard, next_contract_id, next_post_id = (
                        _merge_month_chunks(
                            chunks, next_contract_id, next_post_id
                        )
                    )
                    n_contracts += len(shard["c_id"])
                    writer.add_month(month_index_of(month), shard)
            with tracer.span("streamgen.finalize"):
                writer.set_global(_merge_global(generators))
                path = writer.finalize()
    # robust: cleanup-and-reraise — staging must not leak, nothing is swallowed
    except BaseException:
        writer.abort()
        raise
    elapsed = max(time.perf_counter() - start, 1e-9)
    tracer.count("streamgen.contracts.generated", n_contracts)
    tracer.gauge("streamgen.contracts_per_sec", n_contracts / elapsed)
    rss = peak_rss_bytes()
    if rss is not None:
        tracer.gauge("streamgen.peak_rss_bytes", float(rss))
    logger.info(
        "streamgen done: %d contracts in %.2fs -> %s",
        n_contracts, elapsed, path,
    )
    return path
