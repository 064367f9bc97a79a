"""The market simulator: generates a full synthetic HACK FORUMS dataset.

``MarketSimulator.run()`` walks the June-2018..June-2020 month grid and,
for each month:

1. draws the number of created contracts from the calibrated monthly
   target curve (Figure 1) and splits it across contract types by the
   monthly type-share curves (Figure 3);
2. distributes each type's contracts over maker and taker behavioural
   classes using the Table 6 rates weighted by the era's class-population
   schedule, then resolves classes to concrete users through the
   churn/preferential-attachment population model;
3. assigns status (Table 1, with the SET-UP dispute bulge), visibility
   (Figure 2, with the completed-contract boost, disputes forced public),
   and completion times (Figure 4's declining curve);
4. renders obligation texts for public contracts, draws values/methods/
   categories (Tables 3–5), quotes Bitcoin references and records matching
   ledger transactions with the §4.5 confirm/differ/missing mix;
5. links public contracts to advertising threads and emits marketplace
   posts and B-ratings.

The result bundles the dataset, the simulated blockchain, the rate oracle
and a ground-truth record used only by tests and calibration benches.
"""

from __future__ import annotations

import datetime as _dt
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..blockchain.chain import Ledger, make_address, make_txhash
from ..blockchain.rates import RateOracle
from ..core.dataset import MarketDataset
from ..core.entities import (
    Contract,
    ContractStatus,
    ContractType,
    Post,
    Rating,
    Thread,
    Visibility,
)
from ..core.eras import ERAS, all_months, era_of
from ..core.timeutils import Month
from ..obs.tracer import get_tracer
from . import config as cfg
from .config import SimulationConfig, interpolate_curve
from .obligations import ObligationGenerator, ObligationSpec
from .population import Population

__all__ = [
    "SimulationTruth",
    "SimulationResult",
    "MarketSimulator",
    "era_position",
    "status_probs",
    "class_probs",
]

logger = logging.getLogger(__name__)

_TYPES = (
    ContractType.EXCHANGE,
    ContractType.PURCHASE,
    ContractType.SALE,
    ContractType.TRADE,
    ContractType.VOUCH_COPY,
)
_STATUSES = (
    ContractStatus.COMPLETE,
    ContractStatus.ACTIVE_DEAL,
    ContractStatus.DISPUTED,
    ContractStatus.INCOMPLETE,
    ContractStatus.CANCELLED,
    ContractStatus.DENIED,
    ContractStatus.EXPIRED,
)


def era_position(month: Month) -> Tuple[int, float]:
    """Era index and within-era fraction for a month (by its 15th).

    Shared by the object simulator and :mod:`repro.synth.fastgen` so both
    engines see identical era schedules.
    """
    mid = _dt.date(month.year, month.month, 15)
    era = era_of(mid)
    if era is None:
        era = ERAS[0] if mid < ERAS[0].start else ERAS[-1]
    era_index = ERAS.index(era)
    era_months = era.months()
    position = month.index_from(era_months[0])
    span = max(1, len(era_months) - 1)
    return era_index, min(1.0, max(0.0, position / span))


def status_probs(ctype: ContractType, dispute_modifier: float) -> np.ndarray:
    """Status distribution over ``_STATUSES`` for one (type, month).

    Applies the month's dispute modifier and pre-inflates COMPLETE to
    compensate for non-completer demotions, pulling the extra mass
    proportionally from the failure statuses.
    """
    base = cfg.STATUS_PROBS[ctype]
    probs = np.asarray([base[s] for s in _STATUSES], dtype=float)
    disputed_index = _STATUSES.index(ContractStatus.DISPUTED)
    probs[disputed_index] *= dispute_modifier
    complete_index = _STATUSES.index(ContractStatus.COMPLETE)
    extra = probs[complete_index] * (cfg.COMPLETION_INFLATION[ctype] - 1.0)
    failure = [
        _STATUSES.index(s)
        for s in (
            ContractStatus.INCOMPLETE,
            ContractStatus.CANCELLED,
            ContractStatus.EXPIRED,
        )
    ]
    failure_mass = probs[failure].sum()
    if failure_mass > extra:
        probs[complete_index] += extra
        for index in failure:
            probs[index] -= extra * probs[index] / failure_mass
    return probs / probs.sum()


def class_probs(
    config: SimulationConfig,
    table: Dict[str, Dict[ContractType, float]],
    ctype: ContractType,
    era_index: int,
    era_fraction: float,
) -> np.ndarray:
    """Behavioural-class distribution for one (rate table, type, month)."""
    weights = np.asarray(
        [
            config.class_weight(name, era_index, era_fraction)
            * table[name][ctype]
            for name in cfg.CLASS_NAMES
        ],
        dtype=float,
    )
    total = weights.sum()
    if total <= 0:  # fall back to population weights alone
        weights = np.asarray(
            [
                config.class_weight(name, era_index, era_fraction)
                for name in cfg.CLASS_NAMES
            ],
            dtype=float,
        )
        total = weights.sum()
    return weights / total


@dataclass
class SimulationTruth:
    """Ground truth kept aside for validation (never used by analyses)."""

    user_class: Dict[int, str] = field(default_factory=dict)
    maker_class: Dict[int, str] = field(default_factory=dict)
    taker_class: Dict[int, str] = field(default_factory=dict)
    specs: Dict[int, ObligationSpec] = field(default_factory=dict)


@dataclass
class SimulationResult:
    """Everything one simulator run produces."""

    dataset: MarketDataset
    ledger: Ledger
    rates: RateOracle
    truth: SimulationTruth
    config: SimulationConfig


class MarketSimulator:
    """Generates a synthetic marketplace dataset (see module docstring)."""

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config or SimulationConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self.rates = RateOracle()
        self.ledger = Ledger()
        self.truth = SimulationTruth()
        self._months = all_months()
        self._population = Population(
            self.rng, self._months[0], self.config.attachment_alpha
        )
        self._obgen = ObligationGenerator(self.rng, self.rates)
        self._contracts: List[Contract] = []
        self._threads: List[Thread] = []
        self._thread_use: List[float] = []
        self._threads_by_author: Dict[int, List[int]] = {}
        self._posts: List[Post] = []
        self._ratings: List[Rating] = []
        self._dispute_counts: Dict[int, int] = {}
        #: Per-user [made, completed, disputed] counts within the current
        #: month; drives the monthly reputation votes.
        self._month_stats: Dict[int, List[int]] = {}
        self._next_contract_id = 1
        self._next_thread_id = 1
        self._next_post_id = 1
        self._chain_seed = 1

        months = self._months
        self._created_curve = interpolate_curve(self.config.created_per_month, months)
        self._public_curve = interpolate_curve(self.config.public_share, months)
        self._hours_curve = interpolate_curve(self.config.completion_hours, months)
        self._dispute_curve = interpolate_curve(self.config.dispute_modifier, months)
        self._type_share_curves = {
            ctype: interpolate_curve(curve, months)
            for ctype, curve in cfg.TYPE_SHARES.items()
        }

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        """Generate the full dataset."""
        logger.info(
            "simulating market: scale=%.3g seed=%d (%d months)",
            self.config.scale, self.config.seed, len(self._months),
        )
        tracer = get_tracer()
        with tracer.span("synth.generate"):
            for month_index, month in enumerate(self._months):
                with tracer.span("synth.month"):
                    self._population.begin_month(month_index)
                    self._month_stats = {}
                    era_index, era_fraction = self._era_position(month)
                    with tracer.span("synth.contracts"):
                        self._simulate_month(
                            month_index, month, era_index, era_fraction
                        )
                    with tracer.span("synth.reputation"):
                        self._emit_reputation_votes(month)
                    if month_index % 6 == 0:
                        logger.debug(
                            "month %s done: %d contracts so far",
                            month, len(self._contracts),
                        )
                    if self.config.generate_posts:
                        with tracer.span("synth.posts"):
                            self._emit_posts(month)
            dataset = MarketDataset(
                users=self._population.users,
                contracts=self._contracts,
                threads=self._threads,
                posts=self._posts,
                ratings=self._ratings,
            )
            self.truth.user_class = {
                u.user_id: u.latent_class for u in self._population.users
            }
        tracer.count("synth.contracts.generated", len(self._contracts))
        tracer.count("synth.users.created", len(self._population.users))
        tracer.count("synth.posts.generated", len(self._posts))
        logger.info(
            "simulated %d contracts, %d users, %d threads, %d posts",
            len(self._contracts), len(self._population.users),
            len(self._threads), len(self._posts),
        )
        return SimulationResult(dataset, self.ledger, self.rates, self.truth, self.config)

    # ------------------------------------------------------------------ #
    # month machinery
    # ------------------------------------------------------------------ #

    def _era_position(self, month: Month) -> Tuple[int, float]:
        """Era index and within-era fraction for a month (by its 15th)."""
        return era_position(month)

    def _type_shares(self, month: Month) -> np.ndarray:
        shares = np.asarray(
            [self._type_share_curves[ctype][month] for ctype in _TYPES], dtype=float
        )
        total = shares.sum()
        if total <= 0:
            raise ValueError(f"type shares sum to zero in {month}")
        return shares / total

    def _status_probs(self, ctype: ContractType, month: Month) -> np.ndarray:
        return status_probs(ctype, self._dispute_curve[month])

    def _class_probs(
        self,
        table: Dict[str, Dict[ContractType, float]],
        ctype: ContractType,
        era_index: int,
        era_fraction: float,
    ) -> np.ndarray:
        return class_probs(self.config, table, ctype, era_index, era_fraction)

    def _resolve_class_members(
        self,
        class_indices: np.ndarray,
        month_index: int,
        month: Month,
        era_index: int,
        era_fraction: float,
    ) -> Tuple[np.ndarray, List[str]]:
        """Map an array of class indices to concrete user ids."""
        n = len(class_indices)
        user_ids = np.empty(n, dtype=np.int64)
        class_names: List[str] = [""] * n
        for class_index in np.unique(class_indices):
            name = cfg.CLASS_NAMES[int(class_index)]
            positions = np.where(class_indices == class_index)[0]
            ids = self._population.acquire_actors(
                name, len(positions), month_index, month, era_index, era_fraction
            )
            for position, user_id in zip(positions, ids):
                user_ids[position] = user_id
                class_names[position] = name
        return user_ids, class_names

    def _simulate_month(
        self, month_index: int, month: Month, era_index: int, era_fraction: float
    ) -> None:
        target = self._created_curve[month] * self.config.scale
        if target <= 0:
            return
        total = int(self.rng.poisson(target))
        if total == 0:
            return
        type_counts = self.rng.multinomial(total, self._type_shares(month))
        for ctype, count in zip(_TYPES, type_counts):
            if count:
                self._simulate_type_month(
                    ctype, int(count), month_index, month, era_index, era_fraction
                )

    def _simulate_type_month(
        self,
        ctype: ContractType,
        count: int,
        month_index: int,
        month: Month,
        era_index: int,
        era_fraction: float,
    ) -> None:
        rng = self.rng
        maker_probs = self._class_probs(cfg.MAKE_RATES, ctype, era_index, era_fraction)
        taker_probs = self._class_probs(cfg.TAKE_RATES, ctype, era_index, era_fraction)
        maker_classes = rng.choice(len(cfg.CLASS_NAMES), size=count, p=maker_probs)
        taker_classes = rng.choice(len(cfg.CLASS_NAMES), size=count, p=taker_probs)

        maker_ids, maker_names = self._resolve_class_members(
            maker_classes, month_index, month, era_index, era_fraction
        )
        taker_ids, taker_names = self._resolve_class_members(
            taker_classes, month_index, month, era_index, era_fraction
        )
        for i in range(count):
            if maker_ids[i] == taker_ids[i]:
                taker_ids[i] = self._population.resolve_collision(
                    taker_names[i], int(maker_ids[i]), month_index, month, era_index
                )

        statuses = rng.choice(
            len(_STATUSES), size=count, p=self._status_probs(ctype, month)
        )
        month_start = _dt.datetime.combine(month.first_day(), _dt.time())
        created_offsets = rng.uniform(0, month.days() * 86400.0, size=count)
        mean_hours = self._hours_curve[month] * cfg.COMPLETION_TYPE_FACTOR[ctype]
        if ctype == ContractType.TRADE and month in cfg.TRADE_NOISE_MONTHS:
            mean_hours *= cfg.TRADE_NOISE_MONTHS[month]
        sigma = 0.9
        mu = np.log(max(mean_hours, 0.5)) - 0.5 * sigma * sigma
        completion_hours = rng.lognormal(mu, sigma, size=count)
        pub_rolls = rng.random(count)
        date_recorded = rng.random(count) < cfg.COMPLETION_DATE_RECORDED

        base_public = self._public_curve[month]
        flags = self._population.non_completer
        spawn_month = self._population.spawn_month
        for i in range(count):
            status = _STATUSES[int(statuses[i])]
            if status == ContractStatus.COMPLETE:
                maker, taker = int(maker_ids[i]), int(taker_ids[i])
                if flags.get(maker, False) or flags.get(taker, False):
                    if rng.random() < cfg.NON_COMPLETER_DEMOTE:
                        status = ContractStatus.INCOMPLETE
                elif (
                    ctype != ContractType.EXCHANGE  # newcomers build trust via exchanges (§5.2)
                    and (
                        month_index - spawn_month.get(maker, -99) < cfg.FIRST_MONTH_WINDOW
                        or month_index - spawn_month.get(taker, -99) < cfg.FIRST_MONTH_WINDOW
                    )
                    and rng.random() < cfg.FIRST_MONTH_FRICTION
                ):
                    status = ContractStatus.INCOMPLETE
            created_at = month_start + _dt.timedelta(seconds=float(created_offsets[i]))
            completed_at = None
            if status == ContractStatus.COMPLETE and date_recorded[i]:
                completed_at = created_at + _dt.timedelta(
                    hours=float(completion_hours[i])
                )
            public_prob = base_public
            if status == ContractStatus.COMPLETE:
                public_prob = min(0.95, public_prob * cfg.PUBLIC_COMPLETED_BOOST)
            if status == ContractStatus.DISPUTED:
                visibility = Visibility.PUBLIC
            else:
                visibility = (
                    Visibility.PUBLIC if pub_rolls[i] < public_prob else Visibility.PRIVATE
                )
            self._emit_contract(
                ctype,
                status,
                visibility,
                int(maker_ids[i]),
                int(taker_ids[i]),
                maker_names[i],
                taker_names[i],
                created_at,
                completed_at,
                era_index,
            )

    # ------------------------------------------------------------------ #
    # single-contract emission
    # ------------------------------------------------------------------ #

    def _emit_contract(
        self,
        ctype: ContractType,
        status: ContractStatus,
        visibility: Visibility,
        maker_id: int,
        taker_id: int,
        maker_class: str,
        taker_class: str,
        created_at: _dt.datetime,
        completed_at: Optional[_dt.datetime],
        era_index: int,
    ) -> None:
        contract_id = self._next_contract_id
        self._next_contract_id += 1

        spec: Optional[ObligationSpec] = None
        maker_text = taker_text = terms = ""
        btc_address = btc_txhash = None
        thread_id = None
        if visibility == Visibility.PUBLIC:
            spec = self._obgen.generate(ctype, era_index, created_at.date())
            maker_text, taker_text, terms = spec.maker_text, spec.taker_text, spec.terms
            if self.config.generate_threads and self.rng.random() < self.config.thread_link_prob:
                thread_id = self._link_thread(maker_id, created_at, maker_text)
            btc_address, btc_txhash = self._maybe_chain_refs(
                spec, status, created_at, completed_at
            )

        if status == ContractStatus.DISPUTED:
            self._dispute_counts[maker_id] = self._dispute_counts.get(maker_id, 0) + 1
            self._dispute_counts[taker_id] = self._dispute_counts.get(taker_id, 0) + 1

        for user, is_maker in ((maker_id, True), (taker_id, False)):
            stats = self._month_stats.setdefault(user, [0, 0, 0])
            if is_maker:
                stats[0] += 1
            if status == ContractStatus.COMPLETE:
                stats[1] += 1
            if status == ContractStatus.DISPUTED:
                stats[2] += 1

        maker_rating, taker_rating = self._emit_ratings(
            contract_id, maker_id, taker_id, status, created_at, completed_at
        )

        contract = Contract(
            contract_id=contract_id,
            ctype=ctype,
            status=status,
            visibility=visibility,
            maker_id=maker_id,
            taker_id=taker_id,
            created_at=created_at,
            completed_at=completed_at,
            maker_obligation=maker_text,
            taker_obligation=taker_text,
            terms=terms,
            maker_rating=maker_rating,
            taker_rating=taker_rating,
            thread_id=thread_id,
            btc_address=btc_address,
            btc_txhash=btc_txhash,
        )
        self._contracts.append(contract)
        self.truth.maker_class[contract_id] = maker_class
        self.truth.taker_class[contract_id] = taker_class
        if spec is not None:
            self.truth.specs[contract_id] = spec

    def _maybe_chain_refs(
        self,
        spec: ObligationSpec,
        status: ContractStatus,
        created_at: _dt.datetime,
        completed_at: Optional[_dt.datetime],
    ) -> Tuple[Optional[str], Optional[str]]:
        """Quote chain references and record the matching ledger payment."""
        if not spec.uses_bitcoin:
            return None, None
        stated = max(
            spec.maker_usd or 0.0, spec.taker_usd or 0.0
        ) * (10.0 if spec.is_typo else 1.0)
        # High-value traders almost always quote an address (the paper
        # could chain-check most of its 163 >$1,000 transactions).
        address_prob = 0.95 if stated > 1000.0 else cfg.BTC_ADDRESS_PROB
        if self.rng.random() >= address_prob:
            return None, None
        seed = self._chain_seed
        self._chain_seed += 1
        address = make_address(seed)
        txhash = make_txhash(seed) if self.rng.random() < cfg.BTC_TXHASH_PROB else None

        if status != ContractStatus.COMPLETE:
            return address, txhash  # nothing settled on chain

        true_usd = spec.value_usd
        when = completed_at or created_at + _dt.timedelta(hours=24)

        if stated > 1000.0:
            roll = self.rng.random()
            mix = cfg.VERIFY_MIX
            if roll < mix["missing"]:
                return address, txhash  # §4.5's unconfirmable 7%
            if roll < mix["missing"] + mix["differ"]:
                if self.rng.random() < 0.8:
                    chain_usd = true_usd * float(self.rng.uniform(0.15, 0.85))
                else:
                    chain_usd = true_usd * float(self.rng.uniform(1.15, 1.6))
            else:
                chain_usd = true_usd
        else:
            if self.rng.random() > 0.9:
                return address, txhash
            chain_usd = true_usd

        btc_amount = self.rates.from_usd(max(chain_usd, 0.01), "BTC", when.date())
        self.ledger.record(seed, address, when, btc_amount)
        return address, txhash

    def _emit_ratings(
        self,
        contract_id: int,
        maker_id: int,
        taker_id: int,
        status: ContractStatus,
        created_at: _dt.datetime,
        completed_at: Optional[_dt.datetime],
    ) -> Tuple[Optional[int], Optional[int]]:
        """Contract B-ratings on completion (stored on the contract).

        These are the per-deal B-ratings; the profile-level reputation
        votes that feed the cold-start variables are emitted monthly by
        :meth:`_emit_reputation_votes`.
        """
        if status != ContractStatus.COMPLETE:
            return None, None
        maker_rating = taker_rating = None
        for ratee in (maker_id, taker_id):
            if self.rng.random() >= cfg.RATING_PROB:
                continue
            negative_prob = min(
                0.9,
                cfg.NEGATIVE_RATING_BASE
                + cfg.NEGATIVE_RATING_PER_DISPUTE * self._dispute_counts.get(ratee, 0)
                + 0.6 * self._population.scam_propensity.get(ratee, 0.0),
            )
            score = -1 if self.rng.random() < negative_prob else 1
            if ratee == maker_id:
                maker_rating = score
            else:
                taker_rating = score
        return maker_rating, taker_rating

    def _emit_reputation_votes(self, month: Month) -> None:
        """Monthly profile reputation votes (the Rating table).

        Positive votes accrue with activity — completions, contracts made
        and baseline posting — so active-but-unsuccessful users still gain
        reputation; negative votes track disputes.  This semi-decoupling
        from completed contracts mirrors the forum's separate reputation
        system and gives the ZIP models genuine zero-inflation to find.
        """
        month_start = _dt.datetime.combine(month.first_day(), _dt.time())
        month_seconds = month.days() * 86400.0
        for user_id, (made, completed, disputed) in self._month_stats.items():
            klass = self._population.class_of.get(user_id, "C")
            tier_posts = cfg.POSTS_PER_MONTH[cfg.CLASS_TIERS[klass]]
            lam_pos = (
                cfg.VOTE_POS_PER_COMPLETE * completed
                + cfg.VOTE_POS_PER_MADE * made
                + cfg.VOTE_POS_PER_POST * tier_posts
            )
            lam_neg = (
                cfg.VOTE_NEG_PER_DISPUTE * disputed
                + cfg.VOTE_NEG_PER_COMPLETE * completed
            )
            n_pos = int(self.rng.poisson(lam_pos)) if lam_pos > 0 else 0
            n_neg = int(self.rng.poisson(lam_neg)) if lam_neg > 0 else 0
            for score, count in ((1, n_pos), (-1, n_neg)):
                for _ in range(count):
                    when = month_start + _dt.timedelta(
                        seconds=float(self.rng.uniform(0, month_seconds))
                    )
                    self._ratings.append(
                        Rating(
                            contract_id=0,  # profile vote, not tied to a deal
                            rater_id=0,
                            ratee_id=user_id,
                            score=score,
                            created_at=when,
                        )
                    )

    # ------------------------------------------------------------------ #
    # threads and posts
    # ------------------------------------------------------------------ #

    def _link_thread(
        self, maker_id: int, when: _dt.datetime, maker_text: str
    ) -> int:
        """Attach the contract to a thread: the maker's own, a borrowed
        popular discussion thread, or a freshly opened advertisement."""
        own = self._threads_by_author.get(maker_id, [])
        if own and self.rng.random() < cfg.THREAD_REUSE_PROB:
            weights = np.asarray([1.0 + self._thread_use[i] for i in own])
            pick = int(self.rng.choice(len(own), p=weights / weights.sum()))
            index = own[pick]
        elif (
            not own
            and self._threads
            and self.rng.random() < cfg.THREAD_BORROW_PROB
        ):
            # Link to an existing popular thread (general discussion).
            weights = np.asarray(self._thread_use, dtype=float) + 1.0
            index = int(self.rng.choice(len(self._threads), p=weights / weights.sum()))
        else:
            index = len(self._threads)
            title = f"[WTS] {maker_text[:60]}" if maker_text else "[WTS] services"
            self._threads.append(
                Thread(
                    thread_id=self._next_thread_id,
                    author_id=maker_id,
                    created_at=when - _dt.timedelta(days=float(self.rng.uniform(0, 20))),
                    title=title,
                )
            )
            self._thread_use.append(0.0)
            self._threads_by_author.setdefault(maker_id, []).append(index)
            self._next_thread_id += 1
        self._thread_use[index] += 1.0
        return self._threads[index].thread_id

    def _emit_posts(self, month: Month) -> None:
        """Marketplace (and other) posts from every active roster member."""
        if not self._threads:
            return
        month_start = _dt.datetime.combine(month.first_day(), _dt.time())
        month_seconds = month.days() * 86400.0
        thread_weights = np.asarray(self._thread_use, dtype=float) + 1.0
        thread_probs = thread_weights / thread_weights.sum()
        for name, roster in self._population.rosters.items():
            if not len(roster):
                continue
            tier = cfg.CLASS_TIERS[name]
            lam = cfg.POSTS_PER_MONTH[tier]
            counts = self.rng.poisson(lam, size=len(roster.user_ids))
            total = int(counts.sum())
            if total == 0:
                continue
            thread_picks = self.rng.choice(len(self._threads), size=total, p=thread_probs)
            offsets = self.rng.uniform(0, month_seconds, size=total)
            marketplace = self.rng.random(total) < cfg.MARKETPLACE_POST_SHARE
            cursor = 0
            for user_id, k in zip(roster.user_ids, counts):
                for _ in range(int(k)):
                    self._posts.append(
                        Post(
                            post_id=self._next_post_id,
                            thread_id=self._threads[int(thread_picks[cursor])].thread_id,
                            author_id=int(user_id),
                            created_at=month_start
                            + _dt.timedelta(seconds=float(offsets[cursor])),
                            is_marketplace=bool(marketplace[cursor]),
                        )
                    )
                    self._next_post_id += 1
                    cursor += 1
