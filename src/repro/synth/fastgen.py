"""The market generator: one RNG stream, generated month by month.

:class:`MarketSimulator` walks the June-2018..June-2020 month grid and,
for each month:

1. draws the number of created contracts from the calibrated monthly
   target curve (Figure 1) and splits it across contract types by the
   monthly type-share curves (Figure 3);
2. distributes each type's contracts over maker and taker behavioural
   classes (Table 6's rates weighted by the era's class schedule) and
   resolves the classes to users through the churn and
   preferential-attachment model of
   :class:`~repro.synth.population.ArrayPopulation`;
3. assigns status (Table 1, with the SET-UP dispute bulge), visibility
   (Figure 2, with the completed-contract boost, disputes forced
   public) and completion times (Figure 4's declining curve);
4. renders obligation texts for public contracts from the template
   tables of :mod:`repro.synth.obligations` (Tables 3–5), quotes
   Bitcoin references and records the matching ledger payments with
   §4.5's confirm/differ/missing mix;
5. links public contracts to advertising threads and emits the month's
   reputation votes and posts.

The draws are whole-array operations per (month, type); only the final
f-string render of an obligation runs per public row.  Thread linking
uses an event list: a thread owns one entry at creation plus one per
use, so the ``1 + use`` weighted pick becomes a uniform pick.

One function turns a month into its table.  :meth:`MarketSimulator.months`
yields each month's contracts, posts and ratings under the partition
shard keys, with dense ids: users and threads are numbered from 1 in
the order they appear, contracts and posts in the order they are
emitted.  :func:`repro.synth.streamgen.stream_partitioned` writes each
table as its month partition, and :meth:`MarketSimulator.run`
concatenates them behind a :class:`~repro.core.lazy.ColumnBackedDataset`.
A resident market therefore equals its store's
``PartitionStore.tables()`` in every column, row order included: rows
are month-major, and within a month grouped by contract type, not
sorted by time.
"""

from __future__ import annotations

import datetime as _dt
import logging
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..blockchain.chain import make_address, make_txhash
from ..blockchain.rates import RateOracle
from ..core.columns import (
    CTYPE_ORDER,
    NAT_US,
    STATUS_ORDER,
    VISIBILITY_ORDER,
    month_index_of,
)
from ..core.entities import ContractStatus, ContractType, Visibility
from ..core.eras import all_months
from ..core.lazy import RATING_SENTINEL
from ..core.schema import SHARD_KEYS
from ..core.timeutils import Month
from ..obs.tracer import get_tracer
from . import config as cfg
from . import obligations as obl
from .config import SimulationConfig, interpolate_curve
from .marketsim import (
    _STATUSES,
    _TYPES,
    SimulationResult,
    SimulationTruth,
    class_probs,
    era_position,
    result_from_tables,
    status_probs,
)
from .obligations import ObligationSpec
from .population import ArrayPopulation

__all__ = ["MarketSimulator"]

logger = logging.getLogger(__name__)

_US_PER_SECOND = 1_000_000
_US_PER_HOUR = 3_600_000_000
_US_PER_DAY = 86_400_000_000
_EPOCH_DATE = _dt.date(1970, 1, 1)

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
    machinery — measurable when called hundreds of times per market on
    small batches.
    """
    cum = np.cumsum(probs)
    return np.searchsorted(cum, rng.random(size) * cum[-1], side="right")


def _cat(chunks: List[np.ndarray], dtype) -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=dtype)
    return np.concatenate(chunks).astype(dtype, copy=False)


def _object_column(values: List[str]) -> np.ndarray:
    # Object dtype: building <U arrays from hundreds of thousands of
    # Python strings costs ~0.5s at full scale; pointer copies are free.
    # The store writes text as UTF-8 and reads it back fixed-width.
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


class MarketSimulator:
    """Generates a synthetic marketplace dataset (see module docstring).

    One instance generates one market, once: iterate :meth:`months`
    (then read :meth:`lifetime_tables`), or call :meth:`run` for the
    resident result.
    """

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config = config or SimulationConfig()
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(0,))
        self.rng = np.random.default_rng(seq)
        self.rates = RateOracle()
        self.pop = ArrayPopulation(self.rng, config.attachment_alpha)
        self._grid = all_months()
        self._created_curve = interpolate_curve(config.created_per_month, self._grid)
        self._public_curve = interpolate_curve(config.public_share, self._grid)
        self._hours_curve = interpolate_curve(config.completion_hours, self._grid)
        self._dispute_curve = interpolate_curve(config.dispute_modifier, self._grid)
        self._type_share_curves = {
            ctype: interpolate_curve(curve, self._grid)
            for ctype, curve in cfg.TYPE_SHARES.items()
        }

        # Contract/post/rating accumulators are *per-month* buffers
        # (reset by _begin_month_buffers, drained by _month_table), so no
        # full-history column sits in memory while a store streams.
        self._begin_month_buffers()
        self._next_contract_id = 1
        self._next_post_id = 1

        # threads: 0-based index order; event lists encode (1 + use) weights
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

        self._chain_seed = 1
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

    def months(self) -> Iterator[Tuple[int, Dict[str, object], Dict[str, object]]]:
        """Generate the market one calendar month at a time.

        Yields ``(month_idx, table, truth)`` per month, in order:
        ``month_idx`` counts months since 1970-01 (the partition key),
        ``table`` holds the month's rows under
        :data:`~repro.core.schema.SHARD_KEYS` (text columns as lists of
        ``str``), and ``truth`` its contracts' maker and taker class
        codes and obligation specs.  Once the months are exhausted,
        :meth:`lifetime_tables` holds users, threads and the ledger.
        """
        tracer = get_tracer()
        for month_index, month in enumerate(self._grid):
            users_before = self.pop.n_users
            with tracer.span("synth.month"):
                self._run_month(month_index, month)
                table, truth = self._month_table()
            tracer.count("synth.contracts.generated", len(table["c_id"]))
            tracer.count("synth.posts.generated", len(table["p_id"]))
            tracer.count("synth.users.created", self.pop.n_users - users_before)
            yield month_index_of(month), table, truth

    def run(
        self,
        on_month: Optional[Callable[[int, Dict[str, object]], None]] = None,
    ) -> SimulationResult:
        """Generate the whole market: every month's table concatenated.

        ``on_month(month_idx, table)`` sees each month's table as it is
        generated, before the concatenation: the dataset cache writes
        the month partitions of the market it generates this way.
        """
        config = self.config
        logger.info("generating market: scale=%.3g seed=%d", config.scale, config.seed)
        start = time.perf_counter()
        with get_tracer().span("synth.generate"):
            tables: List[Dict[str, object]] = []
            truths: List[Dict[str, object]] = []
            for month_idx, table, truth in self.months():
                if on_month is not None:
                    on_month(month_idx, table)
                tables.append(table)
                truths.append(truth)
            columns = _concat_months(tables)
            for key, col in self.lifetime_tables().items():
                columns[key] = (
                    _object_column(col) if isinstance(col, list) else col
                )
        logger.info(
            "generated %d contracts, %d users in %.2fs",
            len(columns["c_id"]), len(columns["user_id"]),
            time.perf_counter() - start,
        )
        truth = _LazyTruth(
            self.pop.class_code.copy(),
            _cat([t["maker_class"] for t in truths], np.int8),
            _cat([t["taker_class"] for t in truths], np.int8),
            [spec for t in truths for spec in t["specs"]],
        )
        return result_from_tables(columns, config, truth)

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

    def _month_table(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Drain the month buffers into the month's table and truth.

        User and thread indices become ids (index + 1); contract and
        post ids continue from the previous month, so ids are dense and
        ascending across the whole market.
        """
        c_id = self._next_contract_id
        p_id = self._next_post_id
        n_contracts = sum(len(chunk) for chunk in self._c_type)
        n_posts = sum(len(chunk) for chunk in self._p_thread)
        n_ratings = sum(len(chunk) for chunk in self._r_ratee)
        self._next_contract_id += n_contracts
        self._next_post_id += n_posts
        thread = _cat(self._c_thread, np.int64)
        table = {
            "c_id": np.arange(c_id, c_id + n_contracts, dtype=np.int64),
            "c_type": _cat(self._c_type, np.int8),
            "c_status": _cat(self._c_status, np.int8),
            "c_visibility": _cat(self._c_vis, np.int8),
            "c_maker": _cat(self._c_maker, np.int64) + 1,
            "c_taker": _cat(self._c_taker, np.int64) + 1,
            "c_created_us": _cat(self._c_created, np.int64),
            "c_completed_us": _cat(self._c_completed, np.int64),
            "c_maker_obligation": self._maker_ob,
            "c_taker_obligation": self._taker_ob,
            "c_terms": self._terms,
            "c_maker_rating": _cat(self._c_maker_rating, np.int8),
            "c_taker_rating": _cat(self._c_taker_rating, np.int8),
            "c_thread": np.where(thread >= 0, thread + 1, np.int64(-1)),
            "c_btc_address": self._btc_addr,
            "c_btc_txhash": self._btc_tx,
            "p_id": np.arange(p_id, p_id + n_posts, dtype=np.int64),
            "p_thread": _cat(self._p_thread, np.int64) + 1,
            "p_author": _cat(self._p_author, np.int64) + 1,
            "p_created_us": _cat(self._p_created, np.int64),
            "p_marketplace": _cat(self._p_market, np.bool_),
            "r_contract": np.zeros(n_ratings, dtype=np.int64),
            "r_rater": np.zeros(n_ratings, dtype=np.int64),
            "r_ratee": _cat(self._r_ratee, np.int64) + 1,
            "r_score": _cat(self._r_score, np.int8),
            "r_created_us": _cat(self._r_created, np.int64),
        }
        truth = {
            "maker_class": _cat(self._c_maker_class, np.int8),
            "taker_class": _cat(self._c_taker_class, np.int8),
            "specs": self._specs,
        }
        self._begin_month_buffers()
        return table, truth

    def _run_month(self, month_index: int, month: Month) -> None:
        """Generate exactly one month into the month buffers."""
        scale = self.config.scale
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

        Dispute counts are read from the month-start snapshot: a
        dispute raises its parties' negative-rating odds from the next
        month on.
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
        # The counter side's premium or drift stays under the cap too.
        usd_b = np.minimum(
            np.where(method_b == btc_index, usd * premium, usd * drift),
            cfg.VALUE_CAP_USD,
        )
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
        usd_b = np.minimum(
            np.asarray(usd) * rng.uniform(0.9, 1.1, size=m), cfg.VALUE_CAP_USD
        ).tolist()
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

        A thread's link weight is ``1 + use``: every thread owns one
        event at creation plus one per use, so the weighted choice
        becomes a uniform pick from the event list.
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
        # as the links stood at the end of the month.  Only the tail
        # appended since last month needs converting.
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

    def lifetime_tables(self) -> Dict[str, object]:
        """Users, threads and the ledger, as the months so far left them.

        The month-free tables (``global.npz`` of a partitioned store);
        text columns are lists of ``str``.
        """
        n_users = self.pop.n_users
        n_threads = len(self._t_author)
        return {
            "user_id": np.arange(1, n_users + 1, dtype=np.int64),
            "user_joined_us": self.pop.joined_us.copy(),
            "user_first_post_us": np.full(n_users, NAT_US, dtype=np.int64),
            "user_class": _CLASS_NAME_ARR[self.pop.class_code],
            "t_id": np.arange(1, n_threads + 1, dtype=np.int64),
            "t_author": np.asarray(self._t_author, dtype=np.int64) + 1,
            "t_created_us": np.asarray(self._t_created, dtype=np.int64),
            "t_title": list(self._t_title),
            "t_marketplace": np.ones(n_threads, dtype=np.bool_),
            "x_txhash": [make_txhash(seed) for seed in self._x_seed],
            "x_address": list(self._x_address),
            "x_timestamp_us": np.asarray(self._x_when, dtype=np.int64),
            "x_btc": np.asarray(self._x_btc, dtype=np.float64),
        }


def _concat_months(tables: List[Dict[str, object]]) -> Dict[str, np.ndarray]:
    """Every month table concatenated in month order (text as objects)."""
    out: Dict[str, np.ndarray] = {}
    for key in SHARD_KEYS:
        pieces = [table[key] for table in tables]
        if isinstance(pieces[0], list):
            out[key] = _object_column([v for piece in pieces for v in piece])
        else:
            out[key] = np.concatenate(pieces)
    return out


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
            codes = self._user_codes
        elif name == "maker_class":
            codes = self._maker_codes
        elif name == "taker_class":
            codes = self._taker_codes
        elif name == "specs":
            value = {
                contract_id: spec
                for contract_id, spec in enumerate(self._spec_list, start=1)
                if spec is not None
            }
            setattr(self, name, value)
            return value
        else:
            raise AttributeError(name)
        value = dict(
            zip(range(1, len(codes) + 1), _CLASS_NAME_ARR[codes].tolist())
        )
        setattr(self, name, value)
        return value
