"""On-disk dataset cache for simulator runs.

Regenerating a market is by far the most expensive step of ``repro
report`` — the simulator walks every month, renders obligation texts and
emits posts and ratings.  This module persists a finished
:class:`~repro.synth.marketsim.SimulationResult` as compressed columnar
arrays (one ``.npz`` plus a ``meta.json``) keyed by ``(scale, seed,
config-fingerprint)``, so warm runs skip generation entirely.

Layout under the cache root (``--cache-dir``, ``$REPRO_CACHE_DIR`` or
``~/.cache/repro``)::

    market_s<scale>_r<seed>_<fingerprint12>/
        data.npz    # users/contracts/threads/posts/ratings/ledger columns
        meta.json   # version, scale, seed, full fingerprint, entity counts

The fingerprint is the SHA-256 of the canonical JSON of the full
:class:`SimulationConfig` (every curve anchor included), so *any* config
override produces a distinct cache entry.  Ground truth is not cached —
it exists for calibration tests only — and the deterministic
:class:`RateOracle` is rebuilt on load.

Crash safety (see ``docs/robustness.md`` and :mod:`repro.robust`):
entries are *published atomically* — staged in a ``tmp-<pid>`` sibling,
fsynced, then ``os.replace``d into place — and ``meta.json`` carries a
sha256 checksum of ``data.npz`` that is verified on load.  Any corrupt
entry (torn write, truncated archive, bit rot) is **quarantined** to
``<entry>.corrupt-<n>`` and treated as a miss, counted as
``cache.corrupt`` on the tracer.  ``cached_generate`` holds an advisory
``<entry>.lock`` file lock while generating, so concurrent processes
asked for the same config generate once and share the result.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
import shutil
import zipfile
from dataclasses import asdict
from typing import Dict, Optional, Tuple

import numpy as np

from ..blockchain.chain import ChainTransaction, Ledger
from ..blockchain.rates import RateOracle
from ..core.columns import (
    CTYPE_ORDER,
    NAT_US,
    STATUS_ORDER,
    VISIBILITY_ORDER,
    datetime_from_us,
)
from ..core.lazy import RATING_SENTINEL, ColumnBackedDataset
from ..obs.tracer import get_tracer
from ..robust.atomic import publish_dir, sha256_file, staging_dir
from ..robust.crashpoints import crash_point
from ..robust.locks import FileLock, LockTimeout
from ..robust.quarantine import quarantine_dir
from .config import DEFAULT_CONFIG, SimulationConfig
from .engine import run_engine
from .marketsim import SimulationResult, SimulationTruth

__all__ = [
    "CACHE_VERSION",
    "RATING_SENTINEL",
    "CorruptEntryError",
    "default_cache_dir",
    "config_fingerprint",
    "cache_path",
    "save_result",
    "load_result",
    "cached_generate",
    "partitioned_cache_path",
    "cached_partitioned_store",
    "result_from_partitioned_store",
]

#: Bump when the on-disk layout changes; stale entries are regenerated.
#: v2: per-entry sha256 checksums in meta.json, and the nullable rating
#: columns moved from a 0 sentinel (which clobbered legitimate 0
#: ratings) to :data:`RATING_SENTINEL`.
CACHE_VERSION = 2


class CorruptEntryError(Exception):
    """A cache entry exists but cannot be trusted (torn/corrupt/stale-
    but-matching-version); the loader quarantines it and reports a miss."""


class _StaleEntry(Exception):
    """Entry belongs to another CACHE_VERSION or config; plain miss."""


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


#: Config fields deliberately *excluded* from the structural fingerprint.
#: Anything listed here changes generated output for cache purposes not
#: at all — runtime knobs only (worker counts live outside the config
#: dataclass precisely so they never need an entry).  Every entry must
#: carry a ``cache-key`` justification comment on its line; reprolint
#: R010 cross-checks that no excluded field is actually read by
#: generation code reachable from the engine entry points.
NON_STRUCTURAL_FIELDS: "frozenset[str]" = frozenset()


def config_fingerprint(config: SimulationConfig) -> str:
    """SHA-256 over the canonical JSON of the structural configuration.

    Structural means every field of :class:`SimulationConfig` except
    the explicit :data:`NON_STRUCTURAL_FIELDS` exclusions (currently
    none), so *any* config override produces a distinct cache entry.
    The engine enters as :attr:`~SimulationConfig.resolved_engine`: an
    ``auto`` spelling and the engine it resolves to generate the same
    market, so they share one entry.
    """
    fields = asdict(config)
    fields["engine"] = config.resolved_engine
    for name in NON_STRUCTURAL_FIELDS:
        fields.pop(name, None)
    payload = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_path(config: SimulationConfig, cache_dir: Optional[str] = None) -> str:
    """Directory holding the cache entry for ``config``."""
    root = cache_dir or default_cache_dir()
    fingerprint = config_fingerprint(config)
    name = f"market_s{config.scale:g}_r{config.seed}_{fingerprint[:12]}"
    return os.path.join(root, name)


# --------------------------------------------------------------------- #
# serialisation helpers
# --------------------------------------------------------------------- #


def _us(when: Optional[_dt.datetime]) -> int:
    if when is None:
        return int(NAT_US)
    return int(np.datetime64(when, "us").astype(np.int64))


def _str_column(values) -> np.ndarray:
    # Fixed-width unicode keeps the npz pickle-free; '' encodes None.
    return np.asarray([v if v is not None else "" for v in values], dtype=np.str_)


def _int_column(values, sentinel: int = -1) -> np.ndarray:
    return np.asarray(
        [v if v is not None else sentinel for v in values], dtype=np.int64
    )


def _columns_of(result: SimulationResult) -> Dict[str, np.ndarray]:
    dataset = result.dataset
    if isinstance(dataset, ColumnBackedDataset):
        # Columnar engine: the tables already *are* the cache schema.
        # Object-dtype string columns (cheap pointer copies in memory)
        # must become fixed-width unicode so the npz stays pickle-free.
        return {
            key: (col.astype(np.str_) if col.dtype == object else col)
            for key, col in dataset.tables.items()
        }
    users, contracts = dataset.users, dataset.contracts
    threads, posts, ratings = dataset.threads, dataset.posts, dataset.ratings
    transactions = list(result.ledger)
    return {
        "user_id": _int_column(u.user_id for u in users),
        "user_joined_us": np.asarray([_us(u.joined_forum_at) for u in users], np.int64),
        "user_first_post_us": np.asarray([_us(u.first_post_at) for u in users], np.int64),
        "user_class": _str_column(u.latent_class for u in users),
        "c_id": _int_column(c.contract_id for c in contracts),
        "c_type": np.asarray([CTYPE_ORDER.index(c.ctype) for c in contracts], np.int8),
        "c_status": np.asarray(
            [STATUS_ORDER.index(c.status) for c in contracts], np.int8
        ),
        "c_visibility": np.asarray(
            [VISIBILITY_ORDER.index(c.visibility) for c in contracts], np.int8
        ),
        "c_maker": _int_column(c.maker_id for c in contracts),
        "c_taker": _int_column(c.taker_id for c in contracts),
        "c_created_us": np.asarray([_us(c.created_at) for c in contracts], np.int64),
        "c_completed_us": np.asarray([_us(c.completed_at) for c in contracts], np.int64),
        "c_maker_obligation": _str_column(c.maker_obligation for c in contracts),
        "c_taker_obligation": _str_column(c.taker_obligation for c in contracts),
        "c_terms": _str_column(c.terms for c in contracts),
        "c_maker_rating": np.asarray(
            [RATING_SENTINEL if c.maker_rating is None else c.maker_rating
             for c in contracts], np.int8
        ),
        "c_taker_rating": np.asarray(
            [RATING_SENTINEL if c.taker_rating is None else c.taker_rating
             for c in contracts], np.int8
        ),
        "c_thread": _int_column(c.thread_id for c in contracts),
        "c_btc_address": _str_column(c.btc_address for c in contracts),
        "c_btc_txhash": _str_column(c.btc_txhash for c in contracts),
        "t_id": _int_column(t.thread_id for t in threads),
        "t_author": _int_column(t.author_id for t in threads),
        "t_created_us": np.asarray([_us(t.created_at) for t in threads], np.int64),
        "t_title": _str_column(t.title for t in threads),
        "t_marketplace": np.asarray([t.is_marketplace for t in threads], np.bool_),
        "p_id": _int_column(p.post_id for p in posts),
        "p_thread": _int_column(p.thread_id for p in posts),
        "p_author": _int_column(p.author_id for p in posts),
        "p_created_us": np.asarray([_us(p.created_at) for p in posts], np.int64),
        "p_marketplace": np.asarray([p.is_marketplace for p in posts], np.bool_),
        "r_contract": _int_column(r.contract_id for r in ratings),
        "r_rater": _int_column(r.rater_id for r in ratings),
        "r_ratee": _int_column(r.ratee_id for r in ratings),
        "r_score": np.asarray([r.score for r in ratings], np.int8),
        "r_created_us": np.asarray([_us(r.created_at) for r in ratings], np.int64),
        "x_txhash": _str_column(t.txhash for t in transactions),
        "x_address": _str_column(t.address for t in transactions),
        "x_timestamp_us": np.asarray(
            [_us(t.timestamp) for t in transactions], np.int64
        ),
        "x_btc": np.asarray([t.btc_amount for t in transactions], np.float64),
    }


def save_result(result: SimulationResult, cache_dir: Optional[str] = None) -> str:
    """Persist ``result`` under its config's cache entry; returns the path.

    The entry is published atomically: both files are staged in a
    ``tmp-<pid>`` sibling directory, fsynced, and swapped into place
    with ``os.replace`` (:func:`repro.robust.atomic.publish_dir`).  A
    crash at any point leaves either the previous entry or no entry —
    never a torn one.  ``meta.json`` records a sha256 checksum of
    ``data.npz`` that :func:`load_result` verifies.
    """
    entry = cache_path(result.config, cache_dir)
    os.makedirs(os.path.dirname(entry) or ".", exist_ok=True)
    stage = staging_dir(entry)
    if os.path.exists(stage):
        shutil.rmtree(stage)
    os.makedirs(stage)
    # A failure below leaves only the staged tmp-<pid> directory behind
    # (exactly what a dead process would leave); readers never look at
    # it and the next save from this pid replaces it.
    data_path = os.path.join(stage, "data.npz")
    np.savez_compressed(data_path, **_columns_of(result))
    crash_point("cache.save.mid_write")
    meta = {
        "version": CACHE_VERSION,
        "scale": result.config.scale,
        "seed": result.config.seed,
        "fingerprint": config_fingerprint(result.config),
        "checksums": {"data.npz": sha256_file(data_path)},
        "counts": {
            **result.dataset._entity_counts(),
            "transactions": len(result.ledger),
        },
    }
    with open(os.path.join(stage, "meta.json"), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
    crash_point("cache.save.before_publish")
    publish_dir(stage, entry)
    crash_point("cache.save.after_publish")
    return entry


def _ledger_from_columns(cols: Dict[str, np.ndarray]) -> Ledger:
    ledger = Ledger()
    for i in range(len(cols["x_txhash"])):
        ledger.add(
            ChainTransaction(
                txhash=str(cols["x_txhash"][i]),
                address=str(cols["x_address"][i]),
                timestamp=datetime_from_us(int(cols["x_timestamp_us"][i])),
                btc_amount=float(cols["x_btc"][i]),
            )
        )
    return ledger


def _result_from_tables(
    cols: Dict[str, np.ndarray], config: SimulationConfig
) -> SimulationResult:
    """A lazy :class:`SimulationResult` over cache-schema tables.

    Whichever engine generated them, the tables come back as a
    :class:`ColumnBackedDataset`: analyses read the arrays, and entity
    objects are built only for callers that iterate them.
    """
    return SimulationResult(
        dataset=ColumnBackedDataset(cols),
        ledger=_ledger_from_columns(cols),
        rates=RateOracle(),
        truth=SimulationTruth(),
        config=config,
    )


def _load_columns(entry: str, config: SimulationConfig) -> SimulationResult:
    with np.load(os.path.join(entry, "data.npz")) as data:
        return _result_from_tables({key: data[key] for key in data.files}, config)


def _load_entry(entry: str, config: SimulationConfig) -> SimulationResult:
    """Load one entry directory, raising on anything untrustworthy.

    Raises :class:`_StaleEntry` for version/fingerprint mismatches (a
    plain miss: the entry is valid, just not ours) and
    :class:`CorruptEntryError` for everything that should never happen
    to a healthy entry: missing files, unreadable or partial
    ``meta.json``, a checksum mismatch, or any decode failure from the
    archive itself — including ``zipfile.BadZipFile``/``EOFError`` from
    truncation.
    """
    meta_path = os.path.join(entry, "meta.json")
    data_path = os.path.join(entry, "data.npz")
    if not (os.path.exists(meta_path) and os.path.exists(data_path)):
        raise CorruptEntryError(f"torn entry (missing files): {entry}")
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CorruptEntryError(f"unreadable meta.json: {exc}") from exc
    if not isinstance(meta, dict):
        raise CorruptEntryError("meta.json is not a JSON object")
    if meta.get("version") != CACHE_VERSION:
        raise _StaleEntry()
    if meta.get("fingerprint") != config_fingerprint(config):
        raise _StaleEntry()
    checksums = meta.get("checksums")
    if not isinstance(checksums, dict) or "data.npz" not in checksums:
        raise CorruptEntryError("meta.json missing the data.npz checksum")
    digest = sha256_file(data_path)
    if digest != checksums["data.npz"]:
        raise CorruptEntryError(
            f"data.npz checksum mismatch (meta {checksums['data.npz'][:12]}…, "
            f"file {digest[:12]}…)"
        )
    try:
        return _load_columns(entry, config)
    except (OSError, KeyError, ValueError, EOFError,
            zipfile.BadZipFile) as exc:
        raise CorruptEntryError(f"undecodable entry: {exc!r}") from exc


def load_result(
    config: SimulationConfig, cache_dir: Optional[str] = None
) -> Optional[SimulationResult]:
    """Load the cache entry for ``config``, or None on any miss.

    A *corrupt* entry — torn write, truncated or scrambled archive,
    malformed metadata, checksum mismatch — is quarantined to
    ``<entry>.corrupt-<n>`` (counted as ``cache.corrupt``) and reported
    as a miss, so one bad file costs a regeneration, never a crash.
    Stale entries (other ``CACHE_VERSION``/config) are left in place
    and simply miss; regeneration replaces them atomically.
    """
    entry = cache_path(config, cache_dir)
    if not os.path.isdir(entry):
        return None
    try:
        return _load_entry(entry, config)
    except _StaleEntry:
        return None
    except CorruptEntryError:
        quarantine_dir(entry)
        return None


def cached_generate(
    scale: float = 1.0,
    seed: int = DEFAULT_CONFIG.seed,
    cache_dir: Optional[str] = None,
    refresh: bool = False,
    lock_timeout: Optional[float] = 600.0,
    gen_workers: int = 1,
    **overrides,
) -> Tuple[SimulationResult, bool]:
    """Generate a market through the cache.

    Returns ``(result, hit)``: ``hit`` is True when the dataset came from
    disk.  ``refresh`` forces regeneration (and rewrites the entry).  The
    cached result carries an empty :class:`SimulationTruth` — analyses
    never read truth, only calibration tests do, and those generate fresh.

    ``gen_workers`` is a *runtime* knob for the ``engine="fastgen"``
    path: how many forked processes generate the cohort shards.  It is
    deliberately **not** part of the config fingerprint — the columnar
    engine shards by ``config.n_cohorts`` regardless of worker count, so
    the same config produces byte-identical tables (and hits the same
    cache entry) at any worker count.

    Concurrency: before generating, an advisory ``<entry>.lock`` file
    lock is taken (waiting up to ``lock_timeout`` seconds) and the cache
    is re-checked, so two processes racing on the same config generate
    once — the loser waits and loads the winner's entry.  A lock that
    cannot be acquired in time is counted (``cache.lock_timeout``) and
    generation proceeds unlocked; publication stays atomic either way,
    so the worst case is duplicate work, not a torn entry.
    """
    tracer = get_tracer()
    config = SimulationConfig(scale=scale, seed=seed, **overrides)
    if not refresh:
        with tracer.span("cache.lookup"):
            cached = load_result(config, cache_dir)
        if cached is not None:
            tracer.count("cache.hits")
            return cached, True

    entry = cache_path(config, cache_dir)
    os.makedirs(os.path.dirname(entry) or ".", exist_ok=True)
    lock = FileLock(entry + ".lock", timeout=lock_timeout)
    try:
        with tracer.span("cache.lock"):
            lock.acquire()
    except LockTimeout:
        tracer.count("cache.lock_timeout")
    try:
        if not refresh:
            # Double-check under the lock: the previous holder may have
            # generated exactly this entry while we waited.
            cached = load_result(config, cache_dir)
            if cached is not None:
                tracer.count("cache.hits")
                return cached, True
        tracer.count("cache.misses")
        result = run_engine(config, workers=gen_workers)
        with tracer.span("cache.save"):
            save_result(result, cache_dir)
        return result, False
    finally:
        lock.release()


# --------------------------------------------------------------------- #
# Cache format v4: month-partitioned stores
# --------------------------------------------------------------------- #

def result_from_partitioned_store(store, config: SimulationConfig) -> SimulationResult:
    """Materialize a partitioned store into a full :class:`SimulationResult`.

    The legacy bridge for resident analyses that need the whole history:
    concatenates every shard (month-major) behind a lazy
    :class:`ColumnBackedDataset` and rebuilds the ledger from the global
    ``x_*`` columns.  Streaming kernels should fold the store instead.
    """
    return _result_from_tables(store.tables(), config)


def partitioned_cache_path(
    config: SimulationConfig, cache_dir: Optional[str] = None
) -> str:
    """Directory holding the *partitioned* entry for ``config``.

    Lives beside the monolithic v2 entry under the same cache root, with
    a ``-p3`` marker in the name so the two families never collide.  The
    marker names the partitioned family, not its format version (now
    v4): a store of an older version at this path reads as a stale miss
    and the next build overwrites it.
    """
    root = cache_dir or default_cache_dir()
    fingerprint = config_fingerprint(config)
    name = f"market_s{config.scale:g}_r{config.seed}_{fingerprint[:12]}-p3"
    return os.path.join(root, name)


def cached_partitioned_store(
    scale: float = 1.0,
    seed: int = DEFAULT_CONFIG.seed,
    cache_dir: Optional[str] = None,
    refresh: bool = False,
    lock_timeout: Optional[float] = 600.0,
    **overrides,
):
    """Open (or build) the month-partitioned store for a config.

    Returns ``(store, hit)`` where ``store`` is a
    :class:`~repro.core.partitions.PartitionStore`.  The fastgen engine
    streams shards to disk month by month
    (:func:`repro.synth.streamgen.stream_partitioned`) without ever
    holding full-history tables; other engines generate resident tables
    and split them with
    :func:`~repro.core.partitions.write_tables`.  Locking, atomic
    publication and corrupt-entry quarantine mirror
    :func:`cached_generate`; stale (old-format or other-fingerprint)
    stores read as plain misses and are overwritten on publish.
    """
    from ..core.partitions import (
        PartitionStore, open_or_quarantine, write_tables,
    )

    tracer = get_tracer()
    config = SimulationConfig(scale=scale, seed=seed, **overrides)
    fingerprint = config_fingerprint(config)
    entry = partitioned_cache_path(config, cache_dir)
    if not refresh:
        with tracer.span("cache.lookup"):
            store = open_or_quarantine(entry, fingerprint)
        if store is not None:
            tracer.count("cache.hits")
            return store, True

    os.makedirs(os.path.dirname(entry) or ".", exist_ok=True)
    lock = FileLock(entry + ".lock", timeout=lock_timeout)
    try:
        with tracer.span("cache.lock"):
            lock.acquire()
    except LockTimeout:
        tracer.count("cache.lock_timeout")
    try:
        if not refresh:
            store = open_or_quarantine(entry, fingerprint)
            if store is not None:
                tracer.count("cache.hits")
                return store, True
        tracer.count("cache.misses")
        meta = {
            "fingerprint": fingerprint,
            "scale": config.scale,
            "seed": config.seed,
            "engine": config.resolved_engine,
        }
        with tracer.span("cache.save"):
            if config.resolved_engine == "fastgen":
                from .streamgen import stream_partitioned
                stream_partitioned(config, entry, meta=meta)
            else:
                result = run_engine(config)
                write_tables(_columns_of(result), entry, meta=meta)
        return PartitionStore.open(entry, fingerprint), False
    finally:
        lock.release()
