"""Columnar market generation: vectorized, cohort-sharded synthesis.

:class:`FastMarketSimulator` reproduces the statistical model of
:class:`~repro.synth.marketsim.MarketSimulator` — same calibration
curves, same era schedules, same per-type status/class math (imported
from :mod:`repro.synth.marketsim`, one source of truth) — but generates
*columns*, not objects:

* per-(month, type) batched draws replace the per-contract Python loop:
  statuses, timestamps, completion hours, visibility rolls, demotions
  and B-ratings are whole-array operations;
* the population is the array-backed
  :class:`~repro.synth.population.ArrayPopulation` (alias-sampling
  preferential attachment, vectorized roster cull and batch spawns);
* obligation texts are drawn in per-kind batches (vague / currency
  exchange / trade / vouch / goods) from the same template tables as
  :mod:`repro.synth.obligations`, with only the final f-string render
  running per public row;
* thread linking uses the *event-list* equivalence: a thread with
  ``1 + use`` weight owns ``1 + use`` entries in an event list, so the
  weighted pick of the object path becomes a uniform pick;
* the result is a dict of cache-schema arrays wrapped in
  :class:`~repro.core.lazy.ColumnBackedDataset` — analyses get a
  :class:`~repro.core.columns.ColumnStore` with zero object
  construction, legacy callers materialize objects lazily.

Sharding: users are split into ``config.n_cohorts`` disjoint cohorts,
each generated with an independent ``SeedSequence``-spawned stream and
its own population.  Cohorts never interact (contracts, threads and
posts stay within a cohort), so shards can run in parallel processes
(:func:`repro.robust.parallel.forked_map`) and concatenate into one
store.  ``n_cohorts`` is part of the config fingerprint; the *worker
count* is not — the same config yields bit-identical datasets whether
shards run serially or across N processes.

Parity with the object engine is **statistical**, not bitwise: fixed
seeds give different streams, but era shares, type mixes, status and
visibility rates, monthly volumes and degree tails agree within the
tolerances asserted by ``tests/test_synth_fastgen.py``.
"""

from __future__ import annotations

import datetime as _dt
import logging
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..blockchain.chain import ChainTransaction, Ledger, make_address, make_txhash
from ..blockchain.rates import RateOracle
from ..core.columns import CTYPE_ORDER, NAT_US, STATUS_ORDER, VISIBILITY_ORDER
from ..core.entities import ContractStatus, ContractType, Visibility
from ..core.eras import all_months
from ..core.lazy import RATING_SENTINEL, ColumnBackedDataset
from ..core.timeutils import Month
from ..obs.tracer import get_tracer, peak_rss_bytes
from ..robust.parallel import forked_map
from . import config as cfg
from . import obligations as obl
from .config import SimulationConfig, interpolate_curve
from .engine import run_engine
from .marketsim import (
    _STATUSES,
    _TYPES,
    SimulationResult,
    SimulationTruth,
    class_probs,
    era_position,
    status_probs,
)
from .obligations import ObligationSpec
from .population import ArrayPopulation

__all__ = ["FastMarketSimulator", "generate_market_fast"]

logger = logging.getLogger(__name__)

_US_PER_SECOND = 1_000_000
_US_PER_HOUR = 3_600_000_000
_US_PER_DAY = 86_400_000_000
_EPOCH_DATE = _dt.date(1970, 1, 1)
_EPOCH_DATE_TIME = _dt.datetime(1970, 1, 1)
#: Chain seeds are partitioned per cohort so addresses/txhashes never
#: collide across shards without any post-merge renumbering.
_CHAIN_SEED_STRIDE = 2 ** 40

# Drawn status indices follow marketsim's internal _STATUSES order; the
# emitted columns use the canonical cache/ColumnStore code orders.
_COMPLETE = _STATUSES.index(ContractStatus.COMPLETE)
_DISPUTED = _STATUSES.index(ContractStatus.DISPUTED)
_INCOMPLETE = _STATUSES.index(ContractStatus.INCOMPLETE)
_STATUS_TO_CODE = np.asarray(
    [STATUS_ORDER.index(status) for status in _STATUSES], dtype=np.int8
)
_TYPE_CODE = {ctype: CTYPE_ORDER.index(ctype) for ctype in _TYPES}
_PUBLIC = VISIBILITY_ORDER.index(Visibility.PUBLIC)
_PRIVATE = VISIBILITY_ORDER.index(Visibility.PRIVATE)

_CLASS_NAME_ARR = np.asarray(cfg.CLASS_NAMES)
# Hot-loop aliases into the obligation template tables (module-global
# lookups beat attribute chains at tens of thousands of calls per run).
_METHOD_TEXT = obl._METHOD_TEXT
_METHOD_CURRENCY = obl._METHOD_CURRENCY
_TIER_POSTS = np.asarray(
    [cfg.POSTS_PER_MONTH[cfg.CLASS_TIERS[name]] for name in cfg.CLASS_NAMES],
    dtype=np.float64,
)


def _month_first_day_us(month: Month) -> int:
    return (month.first_day() - _EPOCH_DATE).days * _US_PER_DAY


def _choice(rng: np.random.Generator, probs: np.ndarray, size: int) -> np.ndarray:
    """Categorical draw via cumsum + searchsorted.

    Equivalent to ``rng.choice(len(probs), size=size, p=probs)`` but
    skips choice's per-call probability validation and permutation
    machinery — measurable when called hundreds of times per shard on
    small batches.
    """
    cum = np.cumsum(probs)
    return np.searchsorted(cum, rng.random(size) * cum[-1], side="right")


class _CohortGenerator:
    """Generates one cohort's shard of the market as raw arrays."""

    def __init__(self, config: SimulationConfig, cohort: int) -> None:
        self.config = config
        self.cohort = cohort
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(cohort,))
        self.rng = np.random.default_rng(seq)
        self.rates = RateOracle()
        self.pop = ArrayPopulation(self.rng, config.attachment_alpha)
        self.months = all_months()
        self._created_curve = interpolate_curve(config.created_per_month, self.months)
        self._public_curve = interpolate_curve(config.public_share, self.months)
        self._hours_curve = interpolate_curve(config.completion_hours, self.months)
        self._dispute_curve = interpolate_curve(config.dispute_modifier, self.months)
        self._type_share_curves = {
            ctype: interpolate_curve(curve, self.months)
            for ctype, curve in cfg.TYPE_SHARES.items()
        }

        # Contract/post/rating accumulators are *per-month* buffers
        # (reset by _begin_month_buffers, drained by _collect_month into
        # one chunk dict per month).  Batch callers concatenate the
        # chunks; the streaming emitter writes each chunk to its month
        # partition and drops it, so no full-history column ever sits in
        # memory during generation.
        self._begin_month_buffers()

        # threads: local index order; event lists encode (1 + use) weights
        self._t_author: List[int] = []
        self._t_created: List[int] = []
        self._t_title: List[str] = []
        self._thread_events: List[int] = []
        self._author_events: Dict[int, List[int]] = {}
        self._events_arr = np.empty(0, dtype=np.int64)

        self._x_seed: List[int] = []
        self._x_address: List[str] = []
        self._x_when: List[int] = []
        self._x_btc: List[float] = []

        self._chain_seed = 1 + cohort * _CHAIN_SEED_STRIDE
        self._dispute_counts = np.zeros(0, dtype=np.int64)
        self._rate_cache: Dict[Tuple[str, int], float] = {}
        self._date_cache: Dict[int, _dt.date] = {}
        self._category_cache: Dict[Tuple[ContractType, int], tuple] = {}
        self._method_cache: Dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _date_of_us(self, us: int) -> _dt.date:
        day = int(us // _US_PER_DAY)
        found = self._date_cache.get(day)
        if found is None:
            found = _EPOCH_DATE + _dt.timedelta(days=day)
            self._date_cache[day] = found
        return found

    def _dates_for(self, created_rows: np.ndarray) -> List[_dt.date]:
        """Calendar dates for an array of microsecond timestamps."""
        cache = self._date_cache
        out = []
        for day in (created_rows // _US_PER_DAY).tolist():
            found = cache.get(day)
            if found is None:
                found = _EPOCH_DATE + _dt.timedelta(days=day)
                cache[day] = found
            out.append(found)
        return out

    def _usd_per_unit(self, code: str, when: _dt.date) -> float:
        key = (code, when.toordinal())
        rate = self._rate_cache.get(key)
        if rate is None:
            rate = self.rates.usd_per_unit(code, when)
            self._rate_cache[key] = rate
        return rate

    def _payment_text(
        self, method: str, usd: float, when: _dt.date, pay_word: bool
    ) -> str:
        currency = _METHOD_CURRENCY.get(method)
        if currency is not None:
            units = usd / self._usd_per_unit(currency, when)
            amt = f"{units:.4f}" if units < 10 else f"{units:,.0f}"
        elif method == "vbucks":
            amt = f"{int(usd * 100):,}"
        else:
            amt = ""
        usd_s = f"{usd:,.0f}" if usd >= 10 else f"{usd:.2f}"
        body = _METHOD_TEXT[method].format(usd=usd_s, amt=amt)
        return ("payment of " if pay_word else "sending ") + body

    def _disputes_of(self, users: np.ndarray) -> np.ndarray:
        counts = self._dispute_counts
        if not len(counts):
            return np.zeros(len(users), dtype=np.int64)
        inside = users < len(counts)
        return np.where(inside, counts[np.minimum(users, len(counts) - 1)], 0)

    def _category_probs(self, ctype: ContractType, era_index: int):
        cached = self._category_cache.get((ctype, era_index))
        if cached is not None:
            return cached
        base = cfg.CATEGORY_WEIGHTS[ctype]
        keys = list(base)
        weights = np.asarray(
            [
                base[key] * cfg.CATEGORY_ERA_FACTOR.get(key, (1, 1, 1))[era_index]
                for key in keys
            ],
            dtype=float,
        )
        cached = (keys, weights / weights.sum())
        self._category_cache[(ctype, era_index)] = cached
        return cached

    def _method_probs(self, era_index: int):
        cached = self._method_cache.get(era_index)
        if cached is not None:
            return cached
        keys = list(cfg.PAYMENT_WEIGHTS)
        weights = np.asarray(
            [
                cfg.PAYMENT_WEIGHTS[key]
                * cfg.PAYMENT_ERA_FACTOR.get(key, (1, 1, 1))[era_index]
                for key in keys
            ],
            dtype=float,
        )
        cached = (keys, weights / weights.sum())
        self._method_cache[era_index] = cached
        return cached

    def _lognormal_by_category(self, categories: List[str]) -> np.ndarray:
        mus = np.asarray(
            [cfg.VALUE_PARAMS.get(c, (3.0, 1.0))[0] for c in categories]
        )
        sigmas = np.asarray(
            [cfg.VALUE_PARAMS.get(c, (3.0, 1.0))[1] for c in categories]
        )
        values = self.rng.lognormal(mus, sigmas)
        return np.minimum(values, cfg.VALUE_CAP_USD)

    def _goods_text(self, category: str, pick: float, usd: Optional[float]) -> str:
        phrases = obl._GOODS[category]
        phrase = phrases[int(pick * len(phrases))]
        if usd is not None:
            return f"{phrase} - ${obl._format_usd(usd)}"
        return phrase

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #

    def generate(self) -> Dict[str, object]:
        """Run the cohort's month loop and return its shard dict."""
        chunks = [
            self.run_month(month_index, month)
            for month_index, month in enumerate(self.months)
        ]
        return self._shard_dict(chunks)

    def _begin_month_buffers(self) -> None:
        """Reset the per-month contract/post/rating accumulators."""
        self._c_type: List[np.ndarray] = []
        self._c_status: List[np.ndarray] = []
        self._c_vis: List[np.ndarray] = []
        self._c_maker: List[np.ndarray] = []
        self._c_taker: List[np.ndarray] = []
        self._c_created: List[np.ndarray] = []
        self._c_completed: List[np.ndarray] = []
        self._c_maker_rating: List[np.ndarray] = []
        self._c_taker_rating: List[np.ndarray] = []
        self._c_thread: List[np.ndarray] = []
        self._c_maker_class: List[np.ndarray] = []
        self._c_taker_class: List[np.ndarray] = []
        self._maker_ob: List[str] = []
        self._taker_ob: List[str] = []
        self._terms: List[str] = []
        self._btc_addr: List[str] = []
        self._btc_tx: List[str] = []
        self._specs: List[Optional[ObligationSpec]] = []
        self._p_thread: List[np.ndarray] = []
        self._p_author: List[np.ndarray] = []
        self._p_created: List[np.ndarray] = []
        self._p_market: List[np.ndarray] = []
        self._r_ratee: List[np.ndarray] = []
        self._r_score: List[np.ndarray] = []
        self._r_created: List[np.ndarray] = []

    def _collect_month(self) -> Dict[str, object]:
        """Drain the month buffers into one chunk dict."""

        def cat(chunks: List[np.ndarray], dtype) -> np.ndarray:
            if not chunks:
                return np.empty(0, dtype=dtype)
            return np.concatenate(chunks).astype(dtype, copy=False)

        return {
            "c_type": cat(self._c_type, np.int8),
            "c_status": cat(self._c_status, np.int8),
            "c_visibility": cat(self._c_vis, np.int8),
            "c_maker": cat(self._c_maker, np.int64),
            "c_taker": cat(self._c_taker, np.int64),
            "c_created_us": cat(self._c_created, np.int64),
            "c_completed_us": cat(self._c_completed, np.int64),
            "c_maker_rating": cat(self._c_maker_rating, np.int8),
            "c_taker_rating": cat(self._c_taker_rating, np.int8),
            "c_thread": cat(self._c_thread, np.int64),
            "c_maker_class": cat(self._c_maker_class, np.int8),
            "c_taker_class": cat(self._c_taker_class, np.int8),
            "maker_ob": self._maker_ob,
            "taker_ob": self._taker_ob,
            "terms": self._terms,
            "btc_addr": self._btc_addr,
            "btc_tx": self._btc_tx,
            "specs": self._specs,
            "p_thread": cat(self._p_thread, np.int64),
            "p_author": cat(self._p_author, np.int64),
            "p_created_us": cat(self._p_created, np.int64),
            "p_marketplace": cat(self._p_market, np.bool_),
            "r_ratee": cat(self._r_ratee, np.int64),
            "r_score": cat(self._r_score, np.int8),
            "r_created_us": cat(self._r_created, np.int64),
        }

    def run_month(self, month_index: int, month: Month) -> Dict[str, object]:
        """Generate exactly one month and return its chunk dict.

        The batch path (:meth:`generate`) concatenates the chunks it
        returns; the streaming path
        (:func:`repro.synth.streamgen.stream_partitioned`) writes each
        chunk straight to its month partition.  The per-cohort RNG draw
        order is identical either way, so both paths produce the same
        rows for a given config.
        """
        self._begin_month_buffers()
        scale = self.config.scale / self.config.n_cohorts
        self.pop.begin_month(month_index)
        era_index, era_fraction = era_position(month)
        month_us = _month_first_day_us(month)
        month_days = month.days()

        target = self._created_curve[month] * scale
        month_maker: List[np.ndarray] = []
        month_taker: List[np.ndarray] = []
        month_complete: List[np.ndarray] = []
        month_disputed: List[np.ndarray] = []
        if target > 0:
            total = int(self.rng.poisson(target))
            if total:
                shares = np.asarray(
                    [self._type_share_curves[t][month] for t in _TYPES]
                )
                type_counts = self.rng.multinomial(total, shares / shares.sum())
                for ctype, count in zip(_TYPES, type_counts):
                    if not count:
                        continue
                    maker, taker, complete, disputed = self._type_month(
                        ctype,
                        int(count),
                        month_index,
                        month,
                        era_index,
                        era_fraction,
                        month_us,
                        month_days,
                    )
                    month_maker.append(maker)
                    month_taker.append(taker)
                    month_complete.append(complete)
                    month_disputed.append(disputed)

        self._finish_month(
            month_maker, month_taker, month_complete, month_disputed,
            month_us, month_days,
        )
        return self._collect_month()

    def _resolve_classes(
        self,
        class_indices: np.ndarray,
        month_index: int,
        month_us: int,
        era_index: int,
        era_fraction: float,
    ) -> np.ndarray:
        out = np.empty(len(class_indices), dtype=np.int64)
        for class_index in np.unique(class_indices):
            positions = np.nonzero(class_indices == class_index)[0]
            out[positions] = self.pop.acquire(
                cfg.CLASS_NAMES[int(class_index)],
                len(positions),
                month_index,
                month_us,
                era_index,
                era_fraction,
            )
        return out

    def _type_month(
        self,
        ctype: ContractType,
        count: int,
        month_index: int,
        month: Month,
        era_index: int,
        era_fraction: float,
        month_us: int,
        month_days: int,
    ):
        rng = self.rng
        maker_probs = class_probs(
            self.config, cfg.MAKE_RATES, ctype, era_index, era_fraction
        )
        taker_probs = class_probs(
            self.config, cfg.TAKE_RATES, ctype, era_index, era_fraction
        )
        maker_classes = _choice(rng, maker_probs, count)
        taker_classes = _choice(rng, taker_probs, count)

        # One resolve pass over both parties halves the per-class
        # acquire calls (the dominant fixed cost at small batch sizes).
        both = self._resolve_classes(
            np.concatenate([maker_classes, taker_classes]),
            month_index, month_us, era_index, era_fraction,
        )
        maker, taker = both[:count], both[count:].copy()
        taker = self.pop.resolve_collisions(
            maker, taker, taker_classes, month_index, month_us, era_index
        )

        statuses = _choice(
            rng, status_probs(ctype, self._dispute_curve[month]), count
        )
        created_us = month_us + (
            rng.uniform(0, month_days * 86400.0, size=count) * _US_PER_SECOND
        ).astype(np.int64)
        mean_hours = self._hours_curve[month] * cfg.COMPLETION_TYPE_FACTOR[ctype]
        if ctype == ContractType.TRADE and month in cfg.TRADE_NOISE_MONTHS:
            mean_hours *= cfg.TRADE_NOISE_MONTHS[month]
        sigma = 0.9
        mu = np.log(max(mean_hours, 0.5)) - 0.5 * sigma * sigma
        completion_hours = rng.lognormal(mu, sigma, size=count)
        pub_rolls = rng.random(count)
        date_recorded = rng.random(count) < cfg.COMPLETION_DATE_RECORDED

        # COMPLETE demotions: non-completers, then first-month friction
        # (newcomers build trust via exchanges, §5.2).
        complete = statuses == _COMPLETE
        flagged = self.pop.non_completer[maker] | self.pop.non_completer[taker]
        demote = (
            complete & flagged & (rng.random(count) < cfg.NON_COMPLETER_DEMOTE)
        )
        if ctype != ContractType.EXCHANGE:
            young = (
                (month_index - self.pop.spawn_month[maker] < cfg.FIRST_MONTH_WINDOW)
                | (month_index - self.pop.spawn_month[taker] < cfg.FIRST_MONTH_WINDOW)
            )
            friction = (
                complete
                & ~flagged
                & young
                & (rng.random(count) < cfg.FIRST_MONTH_FRICTION)
            )
            demote = demote | friction
        statuses = np.where(demote, _INCOMPLETE, statuses)
        complete = statuses == _COMPLETE
        disputed = statuses == _DISPUTED

        completed_us = np.where(
            complete & date_recorded,
            created_us + (completion_hours * _US_PER_HOUR).astype(np.int64),
            NAT_US,
        )

        base_public = self._public_curve[month]
        public_prob = np.where(
            complete,
            min(0.95, base_public * cfg.PUBLIC_COMPLETED_BOOST),
            base_public,
        )
        is_public = disputed | (pub_rolls < public_prob)

        maker_rating, taker_rating = self._emit_b_ratings(
            maker, taker, complete, count
        )

        maker_ob = [""] * count
        taker_ob = [""] * count
        terms = [""] * count
        btc_addr = [""] * count
        btc_tx = [""] * count
        thread_col = np.full(count, -1, dtype=np.int64)
        specs: List[Optional[ObligationSpec]] = [None] * count

        pub_rows = np.nonzero(is_public)[0]
        if len(pub_rows):
            self._emit_obligations(
                ctype, era_index, pub_rows, created_us, maker_ob, taker_ob,
                terms, specs,
            )
            self._emit_chain_refs(
                pub_rows, specs, statuses, created_us, completed_us,
                btc_addr, btc_tx,
            )
            if self.config.generate_threads:
                self._link_threads(
                    pub_rows, maker, created_us, maker_ob, thread_col
                )

        self._c_type.append(
            np.full(count, _TYPE_CODE[ctype], dtype=np.int8)
        )
        self._c_status.append(_STATUS_TO_CODE[statuses])
        self._c_vis.append(
            np.where(is_public, _PUBLIC, _PRIVATE).astype(np.int8)
        )
        self._c_maker.append(maker)
        self._c_taker.append(taker)
        self._c_created.append(created_us)
        self._c_completed.append(completed_us)
        self._c_maker_rating.append(maker_rating)
        self._c_taker_rating.append(taker_rating)
        self._c_thread.append(thread_col)
        self._c_maker_class.append(maker_classes.astype(np.int8))
        self._c_taker_class.append(taker_classes.astype(np.int8))
        self._maker_ob.extend(maker_ob)
        self._taker_ob.extend(taker_ob)
        self._terms.extend(terms)
        self._btc_addr.extend(btc_addr)
        self._btc_tx.extend(btc_tx)
        self._specs.extend(specs)
        return maker, taker, complete, statuses == _DISPUTED

    def _emit_b_ratings(
        self,
        maker: np.ndarray,
        taker: np.ndarray,
        complete: np.ndarray,
        count: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-deal B-ratings for completed contracts (sentinel elsewhere).

        Dispute counts are read from the month-start snapshot — the
        object engine updates them mid-month, a difference well inside
        the parity tolerances.
        """
        rng = self.rng
        maker_rating = np.full(count, RATING_SENTINEL, dtype=np.int8)
        taker_rating = np.full(count, RATING_SENTINEL, dtype=np.int8)
        rows = np.nonzero(complete)[0]
        if not len(rows):
            return maker_rating, taker_rating
        scam = self.pop.scam_propensity
        for party, out in ((maker, maker_rating), (taker, taker_rating)):
            ratees = party[rows]
            rated = rng.random(len(rows)) < cfg.RATING_PROB
            negative_prob = np.minimum(
                0.9,
                cfg.NEGATIVE_RATING_BASE
                + cfg.NEGATIVE_RATING_PER_DISPUTE * self._disputes_of(ratees)
                + 0.6 * scam[ratees],
            )
            scores = np.where(
                rng.random(len(rows)) < negative_prob, -1, 1
            ).astype(np.int8)
            out[rows[rated]] = scores[rated]
        return maker_rating, taker_rating

    # ------------------------------------------------------------------ #
    # obligations (batched per kind)
    # ------------------------------------------------------------------ #

    def _emit_obligations(
        self,
        ctype: ContractType,
        era_index: int,
        rows: np.ndarray,
        created_us: np.ndarray,
        maker_ob: List[str],
        taker_ob: List[str],
        terms: List[str],
        specs: List[Optional[ObligationSpec]],
    ) -> None:
        rng = self.rng
        n = len(rows)
        vague = rng.random(n) < 0.07
        cat_keys, cat_probs = self._category_probs(ctype, era_index)
        cat_idx = _choice(rng, cat_probs, n)
        categories = [cat_keys[i] for i in cat_idx.tolist()]

        is_exchange = np.asarray(
            [
                c == "currency_exchange"
                or (ctype == ContractType.EXCHANGE and c == "giftcard")
                for c in categories
            ]
        )
        exchange_sel = ~vague & is_exchange
        if ctype == ContractType.TRADE:
            trade_sel = ~vague & ~is_exchange
            vouch_sel = np.zeros(n, dtype=bool)
            goods_sel = np.zeros(n, dtype=bool)
        elif ctype == ContractType.VOUCH_COPY:
            trade_sel = np.zeros(n, dtype=bool)
            vouch_sel = ~vague & ~is_exchange
            goods_sel = np.zeros(n, dtype=bool)
        else:
            trade_sel = np.zeros(n, dtype=bool)
            vouch_sel = np.zeros(n, dtype=bool)
            goods_sel = ~vague & ~is_exchange

        positions = np.nonzero(vague)[0]
        if len(positions):
            self._emit_vague(rows[positions], maker_ob, taker_ob, terms, specs)
        positions = np.nonzero(exchange_sel)[0]
        if len(positions):
            self._emit_exchange(
                era_index, rows[positions],
                [categories[p] for p in positions],
                created_us, maker_ob, taker_ob, terms, specs,
            )
        positions = np.nonzero(trade_sel)[0]
        if len(positions):
            self._emit_trade(
                era_index, rows[positions],
                [categories[p] for p in positions],
                maker_ob, taker_ob, terms, specs,
            )
        positions = np.nonzero(vouch_sel)[0]
        if len(positions):
            self._emit_vouch(
                rows[positions], [categories[p] for p in positions],
                maker_ob, taker_ob, terms, specs,
            )
        positions = np.nonzero(goods_sel)[0]
        if len(positions):
            self._emit_goods(
                ctype, era_index, rows[positions],
                [categories[p] for p in positions],
                created_us, maker_ob, taker_ob, terms, specs,
            )

    def _emit_vague(self, rows, maker_ob, taker_ob, terms, specs) -> None:
        rng = self.rng
        m = len(rows)
        maker_pick = rng.integers(0, len(obl._VAGUE), size=m).tolist()
        taker_pick = rng.integers(0, len(obl._VAGUE), size=m).tolist()
        terms_pick = rng.integers(0, len(obl._TERMS), size=m).tolist()
        for j, row in enumerate(rows.tolist()):
            maker_text = obl._VAGUE[maker_pick[j]]
            taker_text = obl._VAGUE[taker_pick[j]]
            maker_ob[row] = maker_text
            taker_ob[row] = taker_text
            terms[row] = obl._TERMS[terms_pick[j]]
            specs[row] = ObligationSpec(
                maker_text=maker_text,
                taker_text=taker_text,
                terms=terms[row],
                categories={"uncategorised"},
                methods=set(),
                value_usd=0.0,
                maker_usd=None,
                taker_usd=None,
                uses_bitcoin=False,
            )

    def _emit_exchange(
        self, era_index, rows, categories, created_us,
        maker_ob, taker_ob, terms, specs,
    ) -> None:
        rng = self.rng
        m = len(rows)
        keys, probs = self._method_probs(era_index)
        method_a = _choice(rng, probs, m)
        method_b = _choice(rng, probs, m)
        clash = method_b == method_a
        while clash.any():  # rejection == renormalized-without-a draw
            method_b[clash] = _choice(rng, probs, int(clash.sum()))
            clash = method_b == method_a

        mu, sig = cfg.VALUE_PARAMS["currency_exchange"]
        usd = np.minimum(rng.lognormal(mu, sig, size=m), cfg.VALUE_CAP_USD)
        btc_index = keys.index("bitcoin")
        btc_pair = (method_a == btc_index) | (method_b == btc_index)
        usd = np.where(
            btc_pair, np.minimum(usd * 1.35, cfg.VALUE_CAP_USD), usd
        )
        premium = 1.0 + rng.uniform(0.0, 0.08, size=m)
        drift = rng.uniform(0.97, 1.03, size=m)
        usd_b = np.where(method_b == btc_index, usd * premium, usd * drift)
        typo_arr = (usd > 500) & (rng.random(m) < cfg.TYPO_PROBABILITY * 10)
        stated_arr = np.where(typo_arr, usd * 10.0, usd)
        pay_word = (rng.random(m) < 0.5).tolist()
        maker_pay_word = (rng.random(m) < 0.4).tolist()
        in_exchange = (rng.random(m) < 0.85).tolist()
        terms_pick = rng.integers(0, len(obl._TERMS), size=m).tolist()

        whens = self._dates_for(created_us[rows])
        method_a = method_a.tolist()
        method_b = method_b.tolist()
        usd_l = usd.tolist()
        usd_b_l = usd_b.tolist()
        stated_l = stated_arr.tolist()
        typo_l = typo_arr.tolist()
        payment_text = self._payment_text
        for j, row in enumerate(rows.tolist()):
            when = whens[j]
            name_a, name_b = keys[method_a[j]], keys[method_b[j]]
            prefix = "payment of " if maker_pay_word[j] else ""
            maker_text = (
                f"exchanging {prefix}"
                f"{payment_text(name_a, stated_l[j], when, False)[8:]} "
                f"for {name_b.replace('_', ' ')}"
            )
            taker_text = payment_text(name_b, usd_b_l[j], when, pay_word[j])
            if in_exchange[j]:
                taker_text += " in exchange"
            spec_categories = {"currency_exchange"}
            if pay_word[j] or maker_pay_word[j]:
                spec_categories.add("payments")
            if categories[j] == "giftcard" or "amazon_giftcard" in (name_a, name_b):
                spec_categories.add("giftcard")
            methods = {name_a, name_b}
            maker_ob[row] = maker_text
            taker_ob[row] = taker_text
            terms[row] = obl._TERMS[terms_pick[j]]
            specs[row] = ObligationSpec(
                maker_text=maker_text,
                taker_text=taker_text,
                terms=terms[row],
                categories=spec_categories,
                methods=methods,
                value_usd=(usd_l[j] + usd_b_l[j]) / 2.0,
                maker_usd=usd_l[j],
                taker_usd=usd_b_l[j],
                uses_bitcoin="bitcoin" in methods,
                is_typo=typo_l[j],
            )

    def _emit_trade(
        self, era_index, rows, categories, maker_ob, taker_ob, terms, specs
    ) -> None:
        rng = self.rng
        m = len(rows)
        cat_keys, cat_probs = self._category_probs(ContractType.TRADE, era_index)
        other_idx = _choice(rng, cat_probs, m)
        others = [
            "gaming" if cat_keys[i] == "currency_exchange" else cat_keys[i]
            for i in other_idx.tolist()
        ]
        usd = self._lognormal_by_category(categories).tolist()
        usd_b = (np.asarray(usd) * rng.uniform(0.9, 1.1, size=m)).tolist()
        pick_a = rng.random(m).tolist()
        pick_b = rng.random(m).tolist()
        terms_pick = rng.integers(0, len(obl._TERMS), size=m).tolist()
        goods_text = self._goods_text
        for j, row in enumerate(rows.tolist()):
            maker_text = goods_text(categories[j], pick_a[j], usd[j])
            taker_text = f"trading {goods_text(others[j], pick_b[j], usd_b[j])}"
            maker_ob[row] = maker_text
            taker_ob[row] = taker_text
            terms[row] = obl._TERMS[terms_pick[j]]
            specs[row] = ObligationSpec(
                maker_text=maker_text,
                taker_text=taker_text,
                terms=terms[row],
                categories={categories[j], others[j]},
                methods=set(),
                value_usd=(usd[j] + usd_b[j]) / 2.0,
                maker_usd=usd[j],
                taker_usd=usd_b[j],
                uses_bitcoin=False,
            )

    def _emit_vouch(
        self, rows, categories, maker_ob, taker_ob, terms, specs
    ) -> None:
        picks = self.rng.random(len(rows)).tolist()
        for j, row in enumerate(rows.tolist()):
            goods = self._goods_text(categories[j], picks[j], None)
            maker_text = f"vouch copy of {goods}"
            taker_text = "honest vouch and review on hackforums"
            maker_ob[row] = maker_text
            taker_ob[row] = taker_text
            terms[row] = "vouch within 48 hours of receiving the copy."
            specs[row] = ObligationSpec(
                maker_text=maker_text,
                taker_text=taker_text,
                terms=terms[row],
                categories={categories[j], "hackforums_related"},
                methods=set(),
                value_usd=0.0,
                maker_usd=None,
                taker_usd=None,
                uses_bitcoin=False,
            )

    def _emit_goods(
        self, ctype, era_index, rows, categories, created_us,
        maker_ob, taker_ob, terms, specs,
    ) -> None:
        rng = self.rng
        m = len(rows)
        usd = self._lognormal_by_category(categories)
        keys, probs = self._method_probs(era_index)
        method_idx = _choice(rng, probs, m).tolist()
        typo_arr = (usd > 500) & (rng.random(m) < cfg.TYPO_PROBABILITY * 10)
        stated = np.where(typo_arr, usd * 10.0, usd).tolist()
        typo = typo_arr.tolist()
        usd = usd.tolist()
        pay_word = (rng.random(m) < 0.3).tolist()
        goods_pick = rng.random(m).tolist()
        terms_pick = rng.integers(0, len(obl._TERMS), size=m).tolist()
        purchase = ctype == ContractType.PURCHASE
        whens = self._dates_for(created_us[rows])
        goods_text = self._goods_text
        payment_text = self._payment_text
        for j, row in enumerate(rows.tolist()):
            method = keys[method_idx[j]]
            goods = goods_text(categories[j], goods_pick[j], stated[j])
            payment = payment_text(method, usd[j], whens[j], pay_word[j])
            if purchase:
                maker_text, taker_text = payment, goods
            else:
                maker_text, taker_text = goods, payment
            spec_categories = {categories[j]}
            if pay_word[j]:
                spec_categories.add("payments")
            if method == "amazon_giftcard":
                spec_categories.add("giftcard")
            maker_ob[row] = maker_text
            taker_ob[row] = taker_text
            terms[row] = obl._TERMS[terms_pick[j]]
            specs[row] = ObligationSpec(
                maker_text=maker_text,
                taker_text=taker_text,
                terms=terms[row],
                categories=spec_categories,
                methods={method},
                value_usd=usd[j],
                maker_usd=stated[j] if not purchase else usd[j],
                taker_usd=usd[j] if not purchase else stated[j],
                uses_bitcoin=method == "bitcoin",
                is_typo=typo[j],
            )

    # ------------------------------------------------------------------ #
    # chain references, threads, month wrap-up
    # ------------------------------------------------------------------ #

    def _emit_chain_refs(
        self, pub_rows, specs, statuses, created_us, completed_us,
        btc_addr, btc_tx,
    ) -> None:
        rng = self.rng
        btc_rows = [
            row for row in pub_rows
            if specs[row] is not None and specs[row].uses_bitcoin
        ]
        if not btc_rows:
            return
        k = len(btc_rows)
        addr_rolls = rng.random(k).tolist()
        tx_rolls = (rng.random(k) < cfg.BTC_TXHASH_PROB).tolist()
        verify_rolls = rng.random(k).tolist()
        differ_sides = (rng.random(k) < 0.8).tolist()
        low_factors = rng.uniform(0.15, 0.85, size=k).tolist()
        high_factors = rng.uniform(1.15, 1.6, size=k).tolist()
        small_skips = (rng.random(k) > 0.9).tolist()
        mix = cfg.VERIFY_MIX
        for j, row in enumerate(btc_rows):
            spec = specs[row]
            stated = max(spec.maker_usd or 0.0, spec.taker_usd or 0.0) * (
                10.0 if spec.is_typo else 1.0
            )
            address_prob = 0.95 if stated > 1000.0 else cfg.BTC_ADDRESS_PROB
            if addr_rolls[j] >= address_prob:
                continue
            seed = self._chain_seed
            self._chain_seed += 1
            address = make_address(seed)
            btc_addr[row] = address
            if tx_rolls[j]:
                btc_tx[row] = make_txhash(seed)
            if statuses[row] != _COMPLETE:
                continue  # nothing settled on chain
            when_us = int(completed_us[row])
            if when_us == NAT_US:
                when_us = int(created_us[row]) + 24 * _US_PER_HOUR
            if stated > 1000.0:
                roll = verify_rolls[j]
                if roll < mix["missing"]:
                    continue  # §4.5's unconfirmable slice
                if roll < mix["missing"] + mix["differ"]:
                    factor = low_factors[j] if differ_sides[j] else high_factors[j]
                    chain_usd = spec.value_usd * factor
                else:
                    chain_usd = spec.value_usd
            else:
                if small_skips[j]:
                    continue
                chain_usd = spec.value_usd
            when = self._date_of_us(when_us)
            btc = max(chain_usd, 0.01) / self._usd_per_unit("BTC", when)
            self._x_seed.append(seed)
            self._x_address.append(address)
            self._x_when.append(when_us)
            self._x_btc.append(btc)

    def _link_threads(
        self, pub_rows, maker, created_us, maker_ob, thread_col
    ) -> None:
        """Attach linking contracts to threads via the event-list trick.

        A thread's object-path link weight is ``1 + use``; here every
        thread owns one event at creation plus one per use, so the
        weighted choice becomes a uniform pick from the event list.
        """
        rng = self.rng
        n = len(pub_rows)
        link = (rng.random(n) < self.config.thread_link_prob).tolist()
        branch_rolls = rng.random(n).tolist()
        pick_rolls = rng.random(n).tolist()
        new_offsets = rng.uniform(0, 20.0, size=n).tolist()
        events = self._thread_events
        authors = self._author_events
        rows_l = pub_rows.tolist()
        makers_l = maker[pub_rows].tolist()
        for j in range(n):
            if not link[j]:
                continue
            row = rows_l[j]
            maker_idx = makers_l[j]
            own = authors.get(maker_idx)
            if own and branch_rolls[j] < cfg.THREAD_REUSE_PROB:
                index = own[int(pick_rolls[j] * len(own))]
            elif not own and events and branch_rolls[j] < cfg.THREAD_BORROW_PROB:
                index = events[int(pick_rolls[j] * len(events))]
            else:
                index = len(self._t_author)
                text = maker_ob[row]
                self._t_author.append(maker_idx)
                self._t_created.append(
                    int(created_us[row]) - int(new_offsets[j] * _US_PER_DAY)
                )  # thread predates its first linking contract
                self._t_title.append(
                    f"[WTS] {text[:60]}" if text else "[WTS] services"
                )
                events.append(index)
                authors.setdefault(maker_idx, []).append(index)
            events.append(index)
            authors.setdefault(self._t_author[index], []).append(index)
            thread_col[row] = index

    def _finish_month(
        self, month_maker, month_taker, month_complete, month_disputed,
        month_us, month_days,
    ) -> None:
        """Dispute-count update, reputation votes and posts for a month."""
        n_users = self.pop.n_users
        if not n_users:
            return
        if month_maker:
            maker = np.concatenate(month_maker)
            taker = np.concatenate(month_taker)
            complete = np.concatenate(month_complete)
            disputed = np.concatenate(month_disputed)
        else:
            maker = taker = np.empty(0, dtype=np.int64)
            complete = disputed = np.empty(0, dtype=bool)

        if len(self._dispute_counts) < n_users:
            grown = np.zeros(n_users, dtype=np.int64)
            grown[: len(self._dispute_counts)] = self._dispute_counts
            self._dispute_counts = grown
        if disputed.any():
            self._dispute_counts += np.bincount(
                maker[disputed], minlength=n_users
            ) + np.bincount(taker[disputed], minlength=n_users)

        month_seconds = month_days * 86400.0
        self._emit_votes(maker, taker, complete, disputed, month_us, month_seconds)
        if self.config.generate_posts:
            self._emit_posts(month_us, month_seconds)

    def _emit_votes(
        self, maker, taker, complete, disputed, month_us, month_seconds
    ) -> None:
        if not len(maker):
            return
        rng = self.rng
        n_users = self.pop.n_users
        made = np.bincount(maker, minlength=n_users)
        taken = np.bincount(taker, minlength=n_users)
        completed = np.bincount(maker[complete], minlength=n_users) + np.bincount(
            taker[complete], minlength=n_users
        )
        disputes = np.bincount(maker[disputed], minlength=n_users) + np.bincount(
            taker[disputed], minlength=n_users
        )
        participants = np.nonzero((made + taken) > 0)[0]
        tier_posts = _TIER_POSTS[self.pop.class_code[participants]]
        lam_pos = (
            cfg.VOTE_POS_PER_COMPLETE * completed[participants]
            + cfg.VOTE_POS_PER_MADE * made[participants]
            + cfg.VOTE_POS_PER_POST * tier_posts
        )
        lam_neg = (
            cfg.VOTE_NEG_PER_DISPUTE * disputes[participants]
            + cfg.VOTE_NEG_PER_COMPLETE * completed[participants]
        )
        n_pos = rng.poisson(lam_pos)
        n_neg = rng.poisson(lam_neg)
        ratees = np.concatenate(
            [np.repeat(participants, n_pos), np.repeat(participants, n_neg)]
        )
        if not len(ratees):
            return
        scores = np.concatenate(
            [
                np.ones(int(n_pos.sum()), dtype=np.int8),
                np.full(int(n_neg.sum()), -1, dtype=np.int8),
            ]
        )
        created = month_us + (
            rng.uniform(0, month_seconds, size=len(ratees)) * _US_PER_SECOND
        ).astype(np.int64)
        self._r_ratee.append(ratees)
        self._r_score.append(scores)
        self._r_created.append(created)

    def _emit_posts(self, month_us: int, month_seconds: float) -> None:
        if not self._t_author:
            return
        rng = self.rng
        # Uniform over the event list == weighted (1 + use) over threads,
        # matching the object engine's monthly thread-probability snapshot.
        # Only the tail appended since last month needs converting.
        done = len(self._events_arr)
        if done < len(self._thread_events):
            self._events_arr = np.concatenate(
                [
                    self._events_arr,
                    np.asarray(self._thread_events[done:], dtype=np.int64),
                ]
            )
        events = self._events_arr
        for name, roster in self.pop.rosters.items():
            if not len(roster):
                continue
            lam = cfg.POSTS_PER_MONTH[cfg.CLASS_TIERS[name]]
            counts = rng.poisson(lam, size=len(roster))
            total = int(counts.sum())
            if not total:
                continue
            picks = events[rng.integers(0, len(events), size=total)]
            offsets = (
                rng.uniform(0, month_seconds, size=total) * _US_PER_SECOND
            ).astype(np.int64)
            marketplace = rng.random(total) < cfg.MARKETPLACE_POST_SHARE
            self._p_thread.append(picks)
            self._p_author.append(np.repeat(roster.user_ids, counts))
            self._p_created.append(month_us + offsets)
            self._p_market.append(marketplace)

    # ------------------------------------------------------------------ #

    def lifetime_dict(self) -> Dict[str, object]:
        """The cohort's month-free state (users/threads/ledger).

        Valid after the month loop has run — shared by the batch shard
        dict and the streaming finalizer.
        """
        return {
            "n_users": self.pop.n_users,
            "user_joined_us": self.pop.joined_us.copy(),
            "user_class_code": self.pop.class_code.copy(),
            "t_author": np.asarray(self._t_author, dtype=np.int64),
            "t_created_us": np.asarray(self._t_created, dtype=np.int64),
            "t_title": self._t_title,
            "x_seed": np.asarray(self._x_seed, dtype=np.int64),
            "x_address": self._x_address,
            "x_when_us": np.asarray(self._x_when, dtype=np.int64),
            "x_btc": np.asarray(self._x_btc, dtype=np.float64),
        }

    def _shard_dict(self, chunks: List[Dict[str, object]]) -> Dict[str, object]:
        def cat(key: str, dtype) -> np.ndarray:
            pieces = [chunk[key] for chunk in chunks if len(chunk[key])]
            if not pieces:
                return np.empty(0, dtype=dtype)
            return np.concatenate(pieces).astype(dtype, copy=False)

        def cat_list(key: str) -> list:
            out: list = []
            for chunk in chunks:
                out.extend(chunk[key])
            return out

        shard = self.lifetime_dict()
        shard.update({
            "c_type": cat("c_type", np.int8),
            "c_status": cat("c_status", np.int8),
            "c_visibility": cat("c_visibility", np.int8),
            "c_maker": cat("c_maker", np.int64),
            "c_taker": cat("c_taker", np.int64),
            "c_created_us": cat("c_created_us", np.int64),
            "c_completed_us": cat("c_completed_us", np.int64),
            "c_maker_rating": cat("c_maker_rating", np.int8),
            "c_taker_rating": cat("c_taker_rating", np.int8),
            "c_thread": cat("c_thread", np.int64),
            "c_maker_class": cat("c_maker_class", np.int8),
            "c_taker_class": cat("c_taker_class", np.int8),
            "maker_ob": cat_list("maker_ob"),
            "taker_ob": cat_list("taker_ob"),
            "terms": cat_list("terms"),
            "btc_addr": cat_list("btc_addr"),
            "btc_tx": cat_list("btc_tx"),
            "specs": cat_list("specs"),
            "p_thread": cat("p_thread", np.int64),
            "p_author": cat("p_author", np.int64),
            "p_created_us": cat("p_created_us", np.int64),
            "p_marketplace": cat("p_marketplace", np.bool_),
            "r_ratee": cat("r_ratee", np.int64),
            "r_score": cat("r_score", np.int8),
            "r_created_us": cat("r_created_us", np.int64),
        })
        return shard


def _generate_shard(item: Tuple[SimulationConfig, int]) -> Dict[str, object]:
    """forked_map worker: generate one cohort shard (picklable result)."""
    config, cohort = item
    tracer = get_tracer()
    start = time.perf_counter()
    with tracer.span("fastgen.shard"):
        shard = _CohortGenerator(config, cohort).generate()
    shard["seconds"] = time.perf_counter() - start
    tracer.gauge(f"fastgen.shard{cohort}.seconds", shard["seconds"])
    tracer.count("fastgen.shard.contracts", len(shard["c_type"]))
    return shard


class FastMarketSimulator:
    """Columnar engine: same statistical model, arrays all the way down."""

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config or SimulationConfig(engine="fastgen")

    def run(self, workers: int = 1) -> SimulationResult:
        """Generate the dataset; ``workers`` only affects wall-clock."""
        config = self.config
        tracer = get_tracer()
        logger.info(
            "fastgen: scale=%.3g seed=%d cohorts=%d workers=%d",
            config.scale, config.seed, config.n_cohorts, workers,
        )
        start = time.perf_counter()
        with tracer.span("fastgen.generate"):
            items = [(config, cohort) for cohort in range(config.n_cohorts)]
            shards = forked_map(
                _generate_shard,
                items,
                workers=workers,
                span="fastgen.shards",
                broken_counter="fastgen.pool_broken",
            )
            with tracer.span("fastgen.merge"):
                result = _merge_shards(config, shards)
        elapsed = max(time.perf_counter() - start, 1e-9)

        tables = result.dataset.tables
        n_users = len(tables["user_id"])
        n_contracts = len(tables["c_id"])
        tracer.count("fastgen.contracts.generated", n_contracts)
        tracer.count("fastgen.users.created", n_users)
        tracer.count("fastgen.posts.generated", len(tables["p_id"]))
        tracer.gauge("fastgen.users_per_sec", n_users / elapsed)
        tracer.gauge("fastgen.contracts_per_sec", n_contracts / elapsed)
        rss = peak_rss_bytes()
        if rss is not None:
            tracer.gauge("fastgen.peak_rss_bytes", float(rss))
        for cohort, shard in enumerate(shards):
            tracer.gauge(f"fastgen.shard{cohort}.seconds", shard["seconds"])
        logger.info(
            "fastgen done: %d contracts, %d users in %.2fs (%.0f contracts/s)",
            n_contracts, n_users, elapsed, n_contracts / elapsed,
        )
        return result


class _LazyTruth(SimulationTruth):
    """Ground truth materialized on first attribute access.

    Building the id-keyed dicts eagerly costs ~0.4s at full scale, yet
    only calibration tests ever read them (the cache never persists
    truth).  Until an attribute is touched, only the compact arrays are
    held.
    """

    def __init__(
        self,
        user_codes: np.ndarray,
        maker_codes: np.ndarray,
        taker_codes: np.ndarray,
        spec_list: List[Optional[ObligationSpec]],
    ) -> None:
        # Deliberately skip the dataclass __init__: instance attributes
        # stay unset so __getattr__ fires on first access.
        self._user_codes = user_codes
        self._maker_codes = maker_codes
        self._taker_codes = taker_codes
        self._spec_list = spec_list

    def __getattr__(self, name: str):
        if name == "user_class":
            value = dict(
                zip(
                    range(1, len(self._user_codes) + 1),
                    _CLASS_NAME_ARR[self._user_codes].tolist(),
                )
            )
        elif name == "maker_class":
            value = dict(
                zip(
                    range(1, len(self._maker_codes) + 1),
                    _CLASS_NAME_ARR[self._maker_codes].tolist(),
                )
            )
        elif name == "taker_class":
            value = dict(
                zip(
                    range(1, len(self._taker_codes) + 1),
                    _CLASS_NAME_ARR[self._taker_codes].tolist(),
                )
            )
        elif name == "specs":
            value = {
                contract_id: spec
                for contract_id, spec in enumerate(self._spec_list, start=1)
                if spec is not None
            }
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


def _merge_shards(
    config: SimulationConfig, shards: List[Dict[str, object]]
) -> SimulationResult:
    """Concatenate cohort shards into one global column set."""
    user_counts = [int(s["n_users"]) for s in shards]
    thread_counts = [len(s["t_author"]) for s in shards]
    user_offsets = np.concatenate([[0], np.cumsum(user_counts)[:-1]]).astype(np.int64)
    thread_offsets = np.concatenate([[0], np.cumsum(thread_counts)[:-1]]).astype(
        np.int64
    )
    n_users = int(sum(user_counts))
    n_threads = int(sum(thread_counts))

    def user_ids(key: str) -> np.ndarray:
        return np.concatenate(
            [
                np.asarray(s[key], dtype=np.int64) + 1 + off
                for s, off in zip(shards, user_offsets)
            ]
        ) if shards else np.empty(0, dtype=np.int64)

    def cat(key: str, dtype) -> np.ndarray:
        chunks = [np.asarray(s[key]) for s in shards]
        if not chunks:
            return np.empty(0, dtype=dtype)
        return np.concatenate(chunks).astype(dtype, copy=False)

    def cat_list(key: str) -> list:
        out: list = []
        for s in shards:
            out.extend(s[key])
        return out

    def str_col(key: str) -> np.ndarray:
        # Object dtype: building <U arrays from hundreds of thousands of
        # Python strings costs ~0.5s at full scale; pointer copies are
        # free.  The cache converts to fixed-width strings at save time.
        values = cat_list(key)
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out

    # -- users --------------------------------------------------------- #
    user_class_codes = cat("user_class_code", np.int8)
    user_cols = {
        "user_id": np.arange(1, n_users + 1, dtype=np.int64),
        "user_joined_us": cat("user_joined_us", np.int64),
        "user_first_post_us": np.full(n_users, NAT_US, dtype=np.int64),
        "user_class": _CLASS_NAME_ARR[user_class_codes].astype(np.str_),
    }

    # -- threads ------------------------------------------------------- #
    t_author = user_ids("t_author")
    t_cols = {
        "t_id": np.arange(1, n_threads + 1, dtype=np.int64),
        "t_author": t_author,
        "t_created_us": cat("t_created_us", np.int64),
        "t_title": str_col("t_title"),
        "t_marketplace": np.ones(n_threads, dtype=np.bool_),
    }

    # -- contracts ----------------------------------------------------- #
    # Plain cohort-order concatenation: deterministic for a fixed
    # ``n_cohorts`` regardless of worker count, and no costlier than the
    # object path's month-major emission order (which is not
    # chronologically sorted either — nothing downstream assumes order).
    c_thread = (
        np.concatenate(
            [
                np.where(chunk >= 0, chunk + 1 + off, -1)
                for chunk, off in zip(
                    (np.asarray(s["c_thread"], dtype=np.int64) for s in shards),
                    thread_offsets,
                )
            ]
        )
        if shards
        else np.empty(0, dtype=np.int64)
    )
    created_us = cat("c_created_us", np.int64)
    n_contracts = len(created_us)
    maker_class = cat("c_maker_class", np.int8)
    taker_class = cat("c_taker_class", np.int8)
    specs = cat_list("specs")
    c_cols = {
        "c_id": np.arange(1, n_contracts + 1, dtype=np.int64),
        "c_type": cat("c_type", np.int8),
        "c_status": cat("c_status", np.int8),
        "c_visibility": cat("c_visibility", np.int8),
        "c_maker": user_ids("c_maker"),
        "c_taker": user_ids("c_taker"),
        "c_created_us": created_us,
        "c_completed_us": cat("c_completed_us", np.int64),
        "c_maker_obligation": str_col("maker_ob"),
        "c_taker_obligation": str_col("taker_ob"),
        "c_terms": str_col("terms"),
        "c_maker_rating": cat("c_maker_rating", np.int8),
        "c_taker_rating": cat("c_taker_rating", np.int8),
        "c_thread": c_thread,
        "c_btc_address": str_col("btc_addr"),
        "c_btc_txhash": str_col("btc_tx"),
    }

    # -- posts --------------------------------------------------------- #
    p_created = cat("p_created_us", np.int64)
    p_thread = np.concatenate(
        [
            np.asarray(s["p_thread"], dtype=np.int64) + 1 + off
            for s, off in zip(shards, thread_offsets)
        ]
    ) if shards else np.empty(0, dtype=np.int64)
    p_cols = {
        "p_id": np.arange(1, len(p_created) + 1, dtype=np.int64),
        "p_thread": p_thread,
        "p_author": user_ids("p_author"),
        "p_created_us": p_created,
        "p_marketplace": cat("p_marketplace", np.bool_),
    }

    # -- ratings (monthly reputation votes) ---------------------------- #
    n_ratings = len(cat("r_created_us", np.int64))
    r_cols = {
        "r_contract": np.zeros(n_ratings, dtype=np.int64),
        "r_rater": np.zeros(n_ratings, dtype=np.int64),
        "r_ratee": user_ids("r_ratee"),
        "r_score": cat("r_score", np.int8),
        "r_created_us": cat("r_created_us", np.int64),
    }

    # -- ledger -------------------------------------------------------- #
    x_seed = cat("x_seed", np.int64).tolist()
    x_address = cat_list("x_address")
    x_when = cat("x_when_us", np.int64)
    x_btc = cat("x_btc", np.float64)
    x_when_l = x_when.tolist()
    x_btc_l = x_btc.tolist()
    x_hashes = [make_txhash(seed) for seed in x_seed]
    ledger = Ledger()
    for i in range(len(x_seed)):
        ledger.add(
            ChainTransaction(
                txhash=x_hashes[i],
                address=x_address[i],
                timestamp=_EPOCH_DATE_TIME
                + _dt.timedelta(microseconds=x_when_l[i]),
                btc_amount=x_btc_l[i],
            )
        )
    x_hash_col = np.empty(len(x_hashes), dtype=object)
    x_hash_col[:] = x_hashes
    x_addr_col = np.empty(len(x_address), dtype=object)
    x_addr_col[:] = x_address
    x_cols = {
        "x_txhash": x_hash_col,
        "x_address": x_addr_col,
        "x_timestamp_us": x_when,
        "x_btc": x_btc,
    }

    tables: Dict[str, np.ndarray] = {}
    tables.update(user_cols)
    tables.update(c_cols)
    tables.update(t_cols)
    tables.update(p_cols)
    tables.update(r_cols)
    tables.update(x_cols)

    truth = _LazyTruth(user_class_codes, maker_class, taker_class, specs)
    dataset = ColumnBackedDataset(tables)
    return SimulationResult(
        dataset=dataset,
        ledger=ledger,
        rates=RateOracle(),
        truth=truth,
        config=config,
    )


def generate_market_fast(
    scale: float = 1.0,
    seed: int = cfg.DEFAULT_CONFIG.seed,
    workers: int = 1,
    **overrides,
) -> SimulationResult:
    """Convenience wrapper: columnar engine, optional sharded workers."""
    overrides.setdefault("engine", "fastgen")
    config = SimulationConfig(scale=scale, seed=seed, **overrides)
    return run_engine(config, workers=workers)
