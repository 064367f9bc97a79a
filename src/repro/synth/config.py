"""Simulator configuration: every paper aggregate as a generator parameter.

The synthetic market generator is parameterised directly by the numbers the
paper publishes, so the produced dataset reproduces the *shape* of every
table and figure (see DESIGN.md).  This module holds:

* the 12 behavioural classes A..L and their mean monthly make/take rates
  per contract type (paper Table 6);
* per-era class-population weight schedules (the narrative of §5.1 — e.g.
  SALE-taker power-users 'L' only emerge in STABLE);
* the monthly created-contract target curve (Figure 1);
* monthly contract-type shares (Figure 3), visibility (Figure 2),
  completion times (Figure 4) and dispute-rate modifiers;
* per-type status distributions (Table 1);
* trading-category, payment-method and value-distribution parameters
  (Tables 3–5).

All curves are anchor lists ``[("YYYY-MM", value), ...]`` interpolated
linearly on the monthly grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.entities import ContractStatus, ContractType
from ..core.timeutils import Month

__all__ = [
    "CLASS_NAMES",
    "CLASS_LABELS",
    "CLASS_TIERS",
    "MAKE_RATES",
    "TAKE_RATES",
    "ClassScheduleEntry",
    "SimulationConfig",
    "interpolate_curve",
    "DEFAULT_CONFIG",
]

# --------------------------------------------------------------------- #
# behavioural classes (paper Table 6)
# --------------------------------------------------------------------- #

#: The twelve behavioural classes, in the paper's row order.
CLASS_NAMES: Tuple[str, ...] = ("A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L")

CLASS_LABELS: Dict[str, str] = {
    "A": "Mid-level SALE taker",
    "B": "Exchanger & Sale taker",
    "C": "Single SALE maker",
    "D": "Single Exchanger",
    "E": "Exchanger power-user",
    "F": "Mid-level Exchanger",
    "G": "Exchanger power-user",
    "H": "Mid-level PURCHASE maker",
    "I": "Mid-level SALE maker",
    "J": "Single SALE taker",
    "K": "Exchanger power-user",
    "L": "SALE taker power-user",
}

#: Tier drives churn: 'single' classes are one-shot users, 'power' classes
#: are long-lived hubs.
CLASS_TIERS: Dict[str, str] = {
    "A": "mid", "B": "mid", "C": "single", "D": "single",
    "E": "power", "F": "mid", "G": "power", "H": "mid",
    "I": "mid", "J": "single", "K": "power", "L": "power",
}

_TYPES = (
    ContractType.EXCHANGE,
    ContractType.PURCHASE,
    ContractType.SALE,
    ContractType.TRADE,
    ContractType.VOUCH_COPY,
)


def _rates(row: Sequence[float]) -> Dict[ContractType, float]:
    return dict(zip(_TYPES, row))


#: Mean monthly contracts *made* per active user, by class and type
#: (Table 6, "Make" block; columns E, P, S, T, V).
MAKE_RATES: Dict[str, Dict[ContractType, float]] = {
    "A": _rates((0.5, 0.6, 0.5, 0.1, 0.0)),
    "B": _rates((2.3, 0.4, 0.6, 0.1, 0.0)),
    "C": _rates((0.0, 0.0, 1.1, 0.0, 0.0)),
    "D": _rates((0.9, 0.0, 0.1, 0.0, 0.0)),
    "E": _rates((4.3, 0.7, 2.0, 0.2, 0.0)),
    "F": _rates((7.3, 0.2, 0.4, 0.0, 0.0)),
    "G": _rates((21.2, 0.6, 1.3, 0.1, 0.0)),
    "H": _rates((1.3, 10.0, 0.9, 0.2, 0.0)),
    "I": _rates((1.1, 0.7, 5.2, 0.2, 0.0)),
    "J": _rates((0.1, 0.7, 0.1, 0.0, 0.0)),
    "K": _rates((31.2, 0.9, 3.3, 0.3, 0.0)),
    "L": _rates((1.3, 1.1, 1.2, 0.2, 0.1)),
}

#: Mean monthly contracts *accepted* per active user (Table 6, "Take").
TAKE_RATES: Dict[str, Dict[ContractType, float]] = {
    "A": _rates((0.5, 0.2, 10.1, 0.2, 0.0)),
    "B": _rates((6.5, 0.6, 1.1, 0.1, 0.0)),
    "C": _rates((0.0, 0.2, 0.0, 0.0, 0.0)),
    "D": _rates((0.9, 0.1, 0.0, 0.0, 0.0)),
    "E": _rates((22.3, 4.2, 3.8, 0.4, 0.0)),
    "F": _rates((1.3, 0.2, 0.3, 0.0, 0.0)),
    "G": _rates((8.1, 1.1, 1.3, 0.1, 0.0)),
    "H": _rates((1.0, 0.4, 3.2, 0.1, 0.0)),
    "I": _rates((1.6, 2.0, 1.0, 0.1, 0.0)),
    "J": _rates((0.1, 0.1, 1.1, 0.0, 0.0)),
    "K": _rates((54.9, 9.2, 12.8, 1.0, 0.1)),
    "L": _rates((1.5, 0.6, 54.9, 0.2, 0.1)),
}


@dataclass(frozen=True)
class ClassScheduleEntry:
    """Population weight of one class across an era (linear start -> end).

    The weight is a *relative* abundance used when distributing each
    month's contracts across maker/taker classes; it is multiplied by the
    class's make (or take) rate for the contract type in question.
    """

    start_weight: float
    end_weight: float

    def at(self, fraction: float) -> float:
        """Weight at ``fraction`` (0..1) of the way through the era."""
        return self.start_weight + (self.end_weight - self.start_weight) * fraction


# Era schedules (index 0 = SET-UP, 1 = STABLE, 2 = COVID-19).  The SET-UP
# narrative: exchange power-users grow to dominate; SALE-taker classes L/A
# only emerge in STABLE; COVID brings a C-class influx.
_CLASS_SCHEDULES: Dict[str, Tuple[ClassScheduleEntry, ...]] = {
    "A": (ClassScheduleEntry(2, 4), ClassScheduleEntry(45, 60), ClassScheduleEntry(70, 70)),
    "B": (ClassScheduleEntry(55, 65), ClassScheduleEntry(90, 90), ClassScheduleEntry(120, 110)),
    "C": (ClassScheduleEntry(480, 520), ClassScheduleEntry(2600, 2200), ClassScheduleEntry(3100, 2800)),
    "D": (ClassScheduleEntry(420, 380), ClassScheduleEntry(600, 560), ClassScheduleEntry(760, 700)),
    "E": (ClassScheduleEntry(5, 9), ClassScheduleEntry(10, 10), ClassScheduleEntry(12, 12)),
    "F": (ClassScheduleEntry(45, 55), ClassScheduleEntry(70, 68), ClassScheduleEntry(85, 80)),
    "G": (ClassScheduleEntry(5, 10), ClassScheduleEntry(10, 10), ClassScheduleEntry(13, 12)),
    "H": (ClassScheduleEntry(38, 44), ClassScheduleEntry(60, 58), ClassScheduleEntry(75, 70)),
    "I": (ClassScheduleEntry(35, 42), ClassScheduleEntry(60, 58), ClassScheduleEntry(70, 66)),
    "J": (ClassScheduleEntry(430, 460), ClassScheduleEntry(520, 500), ClassScheduleEntry(600, 560)),
    "K": (ClassScheduleEntry(4, 7), ClassScheduleEntry(8, 8), ClassScheduleEntry(10, 10)),
    "L": (ClassScheduleEntry(0.4, 0.8), ClassScheduleEntry(22, 26), ClassScheduleEntry(30, 30)),
}

# --------------------------------------------------------------------- #
# monthly curves (anchors interpolated on the month grid)
# --------------------------------------------------------------------- #

Curve = List[Tuple[str, float]]

#: Created contracts per month at scale=1.0 (Figure 1's shape: growth
#: through SET-UP, the March-2019 policy jump, April-2019 peak ~12.5k,
#: slow decline, April-2020 COVID peak ~13.2k, post-peak drop).
CREATED_PER_MONTH: Curve = [
    ("2018-06", 2600), ("2018-07", 3000), ("2018-08", 3200),
    ("2018-09", 2900), ("2018-10", 3300), ("2018-11", 3600),
    ("2018-12", 3400), ("2019-01", 4200), ("2019-02", 4600),
    ("2019-03", 12200), ("2019-04", 12500), ("2019-05", 11800),
    ("2019-06", 11000), ("2019-07", 10500), ("2019-08", 10000),
    ("2019-09", 9600), ("2019-10", 9200), ("2019-11", 8800),
    ("2019-12", 9200), ("2020-01", 8400), ("2020-02", 8000),
    ("2020-03", 10500), ("2020-04", 13200), ("2020-05", 9000),
    ("2020-06", 6500),
]

#: Contract-type shares of created contracts (Figure 3's shape; VOUCH_COPY
#: appears from February 2020 and grows).
TYPE_SHARES: Dict[ContractType, Curve] = {
    ContractType.EXCHANGE: [
        ("2018-06", 0.50), ("2019-02", 0.40), ("2019-03", 0.185),
        ("2020-02", 0.175), ("2020-06", 0.165),
    ],
    ContractType.SALE: [
        ("2018-06", 0.40), ("2019-02", 0.46), ("2019-03", 0.695),
        ("2020-02", 0.690), ("2020-06", 0.680),
    ],
    ContractType.PURCHASE: [
        ("2018-06", 0.093), ("2019-02", 0.125), ("2019-03", 0.110),
        ("2020-02", 0.110), ("2020-06", 0.105),
    ],
    ContractType.TRADE: [
        ("2018-06", 0.007), ("2019-02", 0.015), ("2019-03", 0.010),
        ("2020-02", 0.012), ("2020-06", 0.008),
    ],
    ContractType.VOUCH_COPY: [
        ("2018-06", 0.0), ("2020-01", 0.0), ("2020-02", 0.013),
        ("2020-04", 0.022), ("2020-06", 0.042),
    ],
}

#: Baseline probability a created contract is public (Figure 2's shape).
#: The realised public share is ~1.2x this baseline because contracts that
#: complete get the PUBLIC_COMPLETED_BOOST; anchors are pre-divided so the
#: *observed* monthly share matches the figure (45-50% early SET-UP,
#: ~10% through STABLE, overall ~12% of created contracts).
PUBLIC_SHARE: Curve = [
    ("2018-06", 0.375), ("2018-08", 0.43), ("2018-10", 0.33),
    ("2018-12", 0.25), ("2019-02", 0.167), ("2019-03", 0.088),
    ("2019-08", 0.068), ("2020-02", 0.060), ("2020-06", 0.055),
]

#: Multiplier applied to the public probability for contracts that will
#: complete (public contracts are likelier to settle: 57% vs 41.7%).
PUBLIC_COMPLETED_BOOST = 1.45

#: Mean completion time in hours (Figure 4's declining shape).
COMPLETION_HOURS: Curve = [
    ("2018-06", 115), ("2018-09", 95), ("2018-12", 80), ("2019-02", 68),
    ("2019-03", 45), ("2019-06", 36), ("2019-09", 28), ("2019-12", 24),
    ("2020-02", 21), ("2020-03", 17), ("2020-04", 13), ("2020-06", 8),
]

#: Per-type multipliers on completion time; TRADE also has the paper's
#: noisy short-lived peaks in February and April 2020.
COMPLETION_TYPE_FACTOR: Dict[ContractType, float] = {
    ContractType.SALE: 1.0,
    ContractType.PURCHASE: 1.15,
    ContractType.EXCHANGE: 0.8,
    ContractType.TRADE: 1.6,
    ContractType.VOUCH_COPY: 0.7,
}
TRADE_NOISE_MONTHS = {Month(2020, 2): 6.0, Month(2020, 4): 5.0}

#: Fraction of completed contracts that record a completion date (§4.1
#: notes ~70% do).
COMPLETION_DATE_RECORDED = 0.72

#: Dispute-rate multiplier by month (disputes ~1% normally, peaking 2-3%
#: in the last six months of SET-UP, halving at the start of STABLE).
DISPUTE_MODIFIER: Curve = [
    ("2018-06", 1.0), ("2018-08", 1.1), ("2018-10", 1.9), ("2018-12", 2.4),
    ("2019-02", 2.6), ("2019-03", 0.9), ("2019-06", 0.8), ("2020-06", 0.9),
]

# --------------------------------------------------------------------- #
# status distributions (Table 1, conditional on type)
# --------------------------------------------------------------------- #

_STATUSES = (
    ContractStatus.COMPLETE,
    ContractStatus.ACTIVE_DEAL,
    ContractStatus.DISPUTED,
    ContractStatus.INCOMPLETE,
    ContractStatus.CANCELLED,
    ContractStatus.DENIED,
    ContractStatus.EXPIRED,
)


def _status_row(row: Sequence[float]) -> Dict[ContractStatus, float]:
    total = sum(row)
    return {status: value / total for status, value in zip(_STATUSES, row)}


#: P(status | type), from Table 1's per-type rows.
STATUS_PROBS: Dict[ContractType, Dict[ContractStatus, float]] = {
    ContractType.SALE: _status_row((39908, 1931, 1009, 66347, 6795, 64, 6080)),
    ContractType.PURCHASE: _status_row((11893, 10, 629, 4703, 2378, 29, 2761)),
    ContractType.EXCHANGE: _status_row((28157, 2, 455, 3342, 5758, 66, 2588)),
    ContractType.TRADE: _status_row((1325, 1, 21, 547, 197, 3, 256)),
    ContractType.VOUCH_COPY: _status_row((566, 0, 3, 228, 56, 0, 128)),
}

# --------------------------------------------------------------------- #
# goods, payments and values (Tables 3-5)
# --------------------------------------------------------------------- #

#: Relative weight of each trading-activity category when generating a
#: public obligation, per contract type.  Currency exchange dominates the
#: marketplace overall (~75% of completed public activity).
CATEGORY_WEIGHTS: Dict[ContractType, Dict[str, float]] = {
    ContractType.EXCHANGE: {
        "currency_exchange": 0.88,
        "giftcard": 0.09,
        "gaming": 0.03,
    },
    ContractType.SALE: {
        "currency_exchange": 0.55,
        "giftcard": 0.13,
        "accounts_licenses": 0.08,
        "gaming": 0.06,
        "hackforums_related": 0.055,
        "multimedia": 0.045,
        "hacking_programming": 0.035,
        "social_network_boost": 0.03,
        "tutorials_guides": 0.028,
        "tools_bots_software": 0.025,
        "marketing": 0.015,
        "ewhoring": 0.012,
        "delivery_shipping": 0.004,
        "academic_help": 0.011,
        "contest_award": 0.010,
    },
    ContractType.PURCHASE: {
        "currency_exchange": 0.47,
        "giftcard": 0.14,
        "accounts_licenses": 0.10,
        "gaming": 0.07,
        "hackforums_related": 0.06,
        "multimedia": 0.05,
        "hacking_programming": 0.05,
        "social_network_boost": 0.04,
        "tutorials_guides": 0.03,
        "tools_bots_software": 0.03,
        "marketing": 0.02,
        "ewhoring": 0.008,
        "delivery_shipping": 0.015,
        "academic_help": 0.01,
        "contest_award": 0.005,
    },
    ContractType.TRADE: {
        "gaming": 0.35,
        "giftcard": 0.25,
        "accounts_licenses": 0.20,
        "currency_exchange": 0.10,
        "tools_bots_software": 0.10,
    },
    ContractType.VOUCH_COPY: {
        "hackforums_related": 0.75,
        "tutorials_guides": 0.10,
        "tools_bots_software": 0.10,
        "multimedia": 0.05,
    },
}

#: Era-dependent multipliers for product categories (Figure 9's shape:
#: gaming peaks in SET-UP; hackforums-related tops the COVID era;
#: multimedia rises consistently).  Index 0/1/2 = era.
CATEGORY_ERA_FACTOR: Dict[str, Tuple[float, float, float]] = {
    "gaming": (1.7, 0.8, 1.1),
    "hackforums_related": (1.3, 0.75, 2.2),
    "multimedia": (0.7, 1.0, 1.9),
    "accounts_licenses": (0.9, 1.15, 1.2),
    "giftcard": (1.0, 1.0, 1.1),
    "hacking_programming": (1.1, 0.9, 1.3),
    "social_network_boost": (1.1, 0.9, 1.4),
}

#: Payment-method weights for currency-related obligations (Table 4's
#: ranking: Bitcoin then PayPal dominate).
PAYMENT_WEIGHTS: Dict[str, float] = {
    "bitcoin": 0.46,
    "paypal": 0.23,
    "amazon_giftcard": 0.09,
    "cashapp": 0.045,
    "usd": 0.035,
    "ethereum": 0.022,
    "venmo": 0.013,
    "vbucks": 0.008,
    "zelle": 0.008,
    "bitcoin_cash": 0.004,
    "litecoin": 0.004,
    "monero": 0.003,
    "apple_google_pay": 0.005,
    "skrill": 0.003,
}

#: Era factors for payment methods (Figure 10: Cashapp climbs to second
#: place in COVID; Bitcoin/PayPal spike).
PAYMENT_ERA_FACTOR: Dict[str, Tuple[float, float, float]] = {
    "bitcoin": (1.0, 1.0, 1.25),
    "paypal": (1.05, 1.0, 1.0),
    "cashapp": (0.7, 1.0, 2.4),
    "usd": (1.3, 0.9, 0.9),
    "amazon_giftcard": (1.1, 1.0, 0.9),
}

#: Log-normal value parameters per category: (mu, sigma) of ln(USD).
#: Tuned so the overall mean is ~$85 and currency exchange means ~$100.
VALUE_PARAMS: Dict[str, Tuple[float, float]] = {
    "currency_exchange": (3.70, 1.40),
    "payments": (3.55, 1.30),
    "giftcard": (3.3, 1.0),
    "accounts_licenses": (2.4, 1.0),
    "gaming": (2.6, 1.0),
    "hackforums_related": (2.3, 0.9),
    "multimedia": (2.8, 0.9),
    "hacking_programming": (3.2, 1.35),
    "social_network_boost": (2.6, 1.0),
    "tutorials_guides": (2.4, 1.1),
    "tools_bots_software": (2.5, 1.0),
    "marketing": (2.8, 1.0),
    "ewhoring": (2.3, 0.8),
    "delivery_shipping": (2.7, 0.9),
    "academic_help": (3.0, 0.9),
    "contest_award": (2.5, 1.1),
}

#: Hard cap on any single stated value (the paper's observed max ≈ $9.9k).
VALUE_CAP_USD = 9900.0

#: Probability a high-value statement is a 10x typo (the paper found most
#: >$10k values were typing errors — we generate a few, capped away).
TYPO_PROBABILITY = 0.004

# --------------------------------------------------------------------- #
# churn, threads, posts, ratings
# --------------------------------------------------------------------- #

#: P(an assigned contract goes to an *existing* roster user), by tier and
#: era, as (start, end) pairs interpolated across each era.  SET-UP's
#: rising reuse reproduces Figure 1's declining new-member counts while
#: contract volume grows; the dips at era starts produce the March-2019
#: and COVID new-member influxes.
REUSE_PROBS: Dict[str, Tuple[Tuple[float, float], ...]] = {
    "single": ((0.60, 0.85), (0.74, 0.84), (0.72, 0.82)),
    "mid": ((0.82, 0.92), (0.88, 0.92), (0.88, 0.92)),
    "power": ((0.97, 0.985), (0.985, 0.99), (0.985, 0.99)),
}

#: Mean active lifetime in months by tier (geometric).
LIFETIME_MONTHS: Dict[str, float] = {"single": 4.0, "mid": 7.0, "power": 20.0}

#: Preferential-attachment exponent when reusing a roster user: weight is
#: ``(1 + past_contracts) ** alpha``.  Values > 0 concentrate activity;
#: the sublinear 0.7 reproduces the paper's hub magnitudes (max inbound
#: ~5,000 at full scale) without collapsing whole classes onto one user.
ATTACHMENT_ALPHA = 0.7

#: Fraction of public contracts linked to a thread (§3: 68.4%).
THREAD_LINK_PROB = 0.684

#: Probability a thread link reuses one of the maker's existing threads.
THREAD_REUSE_PROB = 0.80

#: When the maker has no thread of their own, probability the contract
#: links to an existing popular thread instead of opening a new one (the
#: paper notes some linked threads are general discussion, not the
#: maker's advertisement).
THREAD_BORROW_PROB = 0.55

#: Mean posts per active user-month, by tier (marketplace + elsewhere).
POSTS_PER_MONTH: Dict[str, float] = {"single": 0.22, "mid": 1.5, "power": 7.0}

#: Share of generated posts that are in the marketplace section.
MARKETPLACE_POST_SHARE = 0.8

#: Share of newly-spawned users who are latent *non-completers* (scammers
#: and abandoners whose deals rarely settle), by tier.  Power users are
#: exempt — they live off reputation.  This trait produces the user-level
#: excess zeros that make Zero-Inflated Poisson models fit better than
#: plain Poisson (§5.2's Vuong tests).
NON_COMPLETER_PROB: Dict[str, float] = {"single": 0.20, "mid": 0.14, "power": 0.0}

#: Probability a would-be COMPLETE contract involving a non-completer is
#: demoted to INCOMPLETE.
NON_COMPLETER_DEMOTE = 1.0

#: Extra completion friction for brand-new users: a would-be COMPLETE deal
#: involving a party in their *first month* on the market is demoted with
#: this probability.  This is the §5.2 finding that first-time users are
#: treated with suspicion and complete fewer contracts *conditional on
#: their activity level*.
FIRST_MONTH_FRICTION = 0.25

#: The friction window: months since a user's first activity during which
#: the friction applies.
FIRST_MONTH_WINDOW = 2

#: Pre-inflation of the COMPLETE status probability compensating for the
#: expected demotions, so Table 1's completion rates still hold; the added
#: mass is taken proportionally from INCOMPLETE/CANCELLED/EXPIRED.  The
#: demotion rate differs by type because taker tiers differ (EXCHANGE
#: takers are power users and never flagged).
COMPLETION_INFLATION: Dict[ContractType, float] = {
    ContractType.SALE: 1.44,
    ContractType.PURCHASE: 1.40,
    ContractType.EXCHANGE: 1.22,
    ContractType.TRADE: 1.30,
    ContractType.VOUCH_COPY: 0.91,
}

#: Probability each party B-rates the other on a completed contract
#: (stored on the contract itself, as on the forum).
RATING_PROB = 0.9

#: Baseline probability that a contract B-rating is negative.
NEGATIVE_RATING_BASE = 0.025

#: Reputation-vote rates (the Rating table).  HACK FORUMS reputation is a
#: profile-level system fed by — but not identical to — trading activity;
#: votes accrue monthly per active user:
#:   positive ~ Poisson(a*completes + b*made + c*tier_posts)
#:   negative ~ Poisson(d*disputes + e*completes)
VOTE_POS_PER_COMPLETE = 0.45
VOTE_POS_PER_MADE = 0.20
VOTE_POS_PER_POST = 0.04
VOTE_NEG_PER_DISPUTE = 0.45
VOTE_NEG_PER_COMPLETE = 0.015

#: Extra negative-rating probability per past dispute of the ratee.
NEGATIVE_RATING_PER_DISPUTE = 0.12

#: Probability a bitcoin-denominated public contract quotes an address,
#: and that it additionally quotes a transaction hash.
BTC_ADDRESS_PROB = 0.30
BTC_TXHASH_PROB = 0.55

#: For high-value (> $1000) contracts with chain references, the mix of
#: ledger outcomes (§4.5: 50% confirm / 43% differ / 7% unconfirmed).
VERIFY_MIX = {"confirm": 0.50, "differ": 0.43, "missing": 0.07}


def interpolate_curve(curve: Curve, months: Sequence[Month]) -> Dict[Month, float]:
    """Interpolate anchor points linearly onto a month grid.

    Months before the first anchor take the first value; months after the
    last take the last value.
    """
    anchors = [(Month.parse(key), value) for key, value in curve]
    anchors.sort(key=lambda kv: kv[0])
    if not anchors:
        raise ValueError("curve needs at least one anchor")
    origin = anchors[0][0]
    xs = [month.index_from(origin) for month, _ in anchors]
    ys = [value for _, value in anchors]
    result: Dict[Month, float] = {}
    for month in months:
        x = month.index_from(origin)
        if x <= xs[0]:
            result[month] = ys[0]
        elif x >= xs[-1]:
            result[month] = ys[-1]
        else:
            for i in range(1, len(xs)):
                if x <= xs[i]:
                    span = xs[i] - xs[i - 1]
                    frac = (x - xs[i - 1]) / span if span else 0.0
                    result[month] = ys[i - 1] + (ys[i] - ys[i - 1]) * frac
                    break
    return result


@dataclass
class SimulationConfig:
    """Tunable knobs for one simulator run.

    ``scale`` multiplies the monthly contract targets: 1.0 reproduces the
    paper's ~190k contracts; tests use ~0.02 for speed.  Everything else
    defaults to the calibrated module-level tables but can be overridden
    for ablations.
    """

    scale: float = 1.0
    seed: int = 20201027  # IMC'20 started 27 Oct 2020
    created_per_month: Curve = field(default_factory=lambda: list(CREATED_PER_MONTH))
    public_share: Curve = field(default_factory=lambda: list(PUBLIC_SHARE))
    completion_hours: Curve = field(default_factory=lambda: list(COMPLETION_HOURS))
    dispute_modifier: Curve = field(default_factory=lambda: list(DISPUTE_MODIFIER))
    attachment_alpha: float = ATTACHMENT_ALPHA
    thread_link_prob: float = THREAD_LINK_PROB
    generate_posts: bool = True
    generate_threads: bool = True
    #: Generator spelling: "auto" (the default) or "fastgen".  Both name
    #: the one generator, :mod:`repro.synth.fastgen`; see
    #: :attr:`resolved_engine`.
    engine: str = "auto"

    def class_weight(self, name: str, era_index: int, fraction: float) -> float:
        """Population weight of class ``name`` at ``fraction`` through era."""
        return _CLASS_SCHEDULES[name][era_index].at(fraction)

    @property
    def resolved_engine(self) -> str:
        """The generator this config runs on: always ``"fastgen"``.

        Run contexts and fingerprints record this name, so ``auto`` and
        ``fastgen`` configs share one cache entry and one run key.
        """
        return "fastgen"

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.engine not in ("auto", "fastgen"):
            raise ValueError(
                f"unknown engine: {self.engine!r} (one of auto, fastgen)"
            )


#: Full-scale default configuration.
DEFAULT_CONFIG = SimulationConfig()
