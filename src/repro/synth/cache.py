"""On-disk dataset cache: one month-partitioned store per config.

Regenerating a market is by far the most expensive step of ``repro
report`` — the simulator walks every month, renders obligation texts and
emits posts and ratings.  This module keeps each generated market as a
month-partitioned store (:mod:`repro.core.partitions`) keyed by
``(scale, seed, config-fingerprint)``, so warm runs skip generation
entirely.  One entry serves every reader: ``repro report`` and serve's
experiments read it whole (:func:`cached_generate`), ``repro stream``
and serve's slices fold only the months they touch
(:func:`cached_partitioned_store`).

Layout under the cache root (``--cache-dir``, ``$REPRO_CACHE_DIR`` or
``~/.cache/repro``)::

    market_s<scale>_r<seed>_<fingerprint12>/
        manifest.json   # format version, fingerprint, months, checksums
        global.npz      # users/threads/ledger columns
        m000581.npz     # contracts/posts/ratings created in month 581
        ...

The fingerprint is the SHA-256 of the canonical JSON of the full
:class:`SimulationConfig` (every curve anchor included), so *any* config
override produces a distinct cache entry.  Ground truth is not cached —
it exists for calibration tests only — and the deterministic
:class:`RateOracle` is rebuilt on load.

Crash safety (see ``docs/robustness.md`` and :mod:`repro.robust`):
entries are *published atomically* — staged in a ``tmp-<pid>`` sibling,
fsynced, then ``os.replace``d into place — and the manifest carries a
sha256 checksum of every shard, verified when the shard is read.  A
corrupt entry (torn write, truncated shard, bit rot, a manifest without
checksums) is **quarantined** to ``<entry>.corrupt-<n>``, counted as
``cache.corrupt``: at lookup it is a miss and is rebuilt in the same
call; found later by a slice, it fails that read and the next lookup
rebuilds it.  A cache lookup holds an advisory ``<entry>.lock`` file
lock while building, so concurrent processes asked for the same config
generate once and share the result.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import Optional, Tuple

from ..core.lazy import RATING_SENTINEL
from ..core.partitions import (
    CorruptStoreError,
    PartitionStore,
    open_or_quarantine,
    write_tables,
)
from ..obs.tracer import get_tracer
from ..robust.locks import FileLock, LockTimeout
from .config import DEFAULT_CONFIG, SimulationConfig
from .marketsim import SimulationResult, result_from_tables

__all__ = [
    "RATING_SENTINEL",
    "default_cache_dir",
    "config_fingerprint",
    "cache_path",
    "save_result",
    "load_result",
    "cached_market",
    "cached_generate",
    "cached_partitioned_store",
]


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


def _meta(config: SimulationConfig) -> dict:
    """What an entry's manifest records about its config."""
    return {
        "fingerprint": config_fingerprint(config),
        "scale": config.scale,
        "seed": config.seed,
        "engine": config.resolved_engine,
    }


def _lookup(
    config: SimulationConfig, entry: str, resident: bool
) -> Optional[Tuple[PartitionStore, Optional[SimulationResult]]]:
    """The healthy entry for ``config`` — with its resident market when
    ``resident`` — or ``None`` on a miss.

    A corrupt entry is quarantined and misses: at open for a torn or
    checksum-less manifest, or while the whole history is read for a
    shard that fails its checksum.
    """
    store = open_or_quarantine(entry, config_fingerprint(config))
    if store is None:
        return None
    if not resident:
        return store, None
    try:
        return store, result_from_tables(store.tables(), config)
    except CorruptStoreError:
        return None  # the store has moved itself aside: rebuild it


def cached_market(
    config: SimulationConfig,
    cache_dir: Optional[str] = None,
    refresh: bool = False,
    lock_timeout: Optional[float] = 600.0,
    resident: bool = True,
) -> Tuple[PartitionStore, Optional[SimulationResult], bool]:
    """Open (or build) the cache entry for ``config``.

    Returns ``(store, result, hit)``: the entry's
    :class:`~repro.core.partitions.PartitionStore`, the resident market
    when ``resident`` is asked for (else ``None``), and whether the
    entry came from disk.  A hit reads the resident market from the
    store, every shard checked; a miss generates it, writing each month
    to the new entry as it completes, and reads nothing back.  A miss
    that needs no resident market streams the months to disk without
    holding them (:func:`repro.synth.streamgen.stream_partitioned`).
    ``refresh`` forces a rebuild.  A cached market carries an empty
    :class:`SimulationTruth` — analyses never read truth, only
    calibration tests do, and those generate fresh.

    Concurrency: before building, an advisory ``<entry>.lock`` file lock
    is taken (waiting up to ``lock_timeout`` seconds) and the entry is
    looked up again, so two processes racing on the same config generate
    once — the loser waits and reads the winner's entry.  A lock that
    cannot be acquired in time is counted (``cache.lock_timeout``) and
    the build proceeds unlocked; publication stays atomic either way, so
    the worst case is duplicate work, not a torn entry.  Stale entries
    (another format version or fingerprint) miss and are overwritten.
    """
    tracer = get_tracer()
    entry = cache_path(config, cache_dir)
    if not refresh:
        with tracer.span("cache.lookup"):
            found = _lookup(config, entry, resident)
        if found is not None:
            tracer.count("cache.hits")
            return found[0], found[1], True

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
            # built exactly this entry while we waited.
            found = _lookup(config, entry, resident)
            if found is not None:
                tracer.count("cache.hits")
                return found[0], found[1], True
        tracer.count("cache.misses")
        with tracer.span("cache.save"):
            from .streamgen import stream_partitioned

            result = stream_partitioned(
                config, entry, meta=_meta(config), resident=resident
            )
        store = PartitionStore.open(entry, config_fingerprint(config))
        return store, result, False
    finally:
        lock.release()


def cached_generate(
    scale: float = 1.0,
    seed: int = DEFAULT_CONFIG.seed,
    cache_dir: Optional[str] = None,
    refresh: bool = False,
    lock_timeout: Optional[float] = 600.0,
    **overrides,
) -> Tuple[SimulationResult, bool]:
    """The resident market for a config, through the cache.

    Returns ``(result, hit)``; see :func:`cached_market`.
    """
    config = SimulationConfig(scale=scale, seed=seed, **overrides)
    _, result, hit = cached_market(config, cache_dir, refresh, lock_timeout)
    assert result is not None
    return result, hit


def cached_partitioned_store(
    scale: float = 1.0,
    seed: int = DEFAULT_CONFIG.seed,
    cache_dir: Optional[str] = None,
    refresh: bool = False,
    lock_timeout: Optional[float] = 600.0,
    **overrides,
) -> Tuple[PartitionStore, bool]:
    """The month-partitioned store for a config, through the cache.

    Returns ``(store, hit)``; a hit reads only the manifest, and shards
    are read as their months are asked for.  See :func:`cached_market`.
    """
    config = SimulationConfig(scale=scale, seed=seed, **overrides)
    store, _, hit = cached_market(
        config, cache_dir, refresh, lock_timeout, resident=False
    )
    return store, hit


def save_result(result: SimulationResult, cache_dir: Optional[str] = None) -> str:
    """Publish ``result`` as its config's cache entry; returns the path.

    For callers holding a market generated outside the cache: the
    tables are split into month partitions
    (:func:`~repro.core.partitions.write_tables`), which for a generated
    market writes the bytes a cache build writes.
    """
    entry = cache_path(result.config, cache_dir)
    write_tables(result.dataset.tables, entry, meta=_meta(result.config))
    return entry


def load_result(
    config: SimulationConfig, cache_dir: Optional[str] = None
) -> Optional[SimulationResult]:
    """The cached resident market for ``config``, or ``None`` on a miss
    (a corrupt entry is quarantined first).  Never generates."""
    found = _lookup(config, cache_path(config, cache_dir), resident=True)
    return None if found is None else found[1]
