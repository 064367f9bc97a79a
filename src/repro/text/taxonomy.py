"""Regex taxonomy of trading activities.

§4.3: normalised obligation texts are categorised with regular expressions
into manually-defined buckets; some categories come from Motoyama et al.,
others were added from domain knowledge.  Contracts may land in more than
one bucket ("buying fortnite account" is both *gaming* and
*accounts/licenses*), and an *uncategorised* bucket catches descriptions
too short or generic to classify.

The 16 concrete buckets below cover every activity the paper names in
Tables 3 and 5 and Figure 9.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .normalize import normalize

__all__ = [
    "Category",
    "CATEGORIES",
    "CATEGORY_LABELS",
    "PAYMENT_RELATED_CATEGORIES",
    "UNCATEGORISED",
    "categorize_text",
    "categorize_sides",
    "ActivityCategorizer",
]

#: Canonical category identifiers, in the paper's Table 3 rank order.
CATEGORIES: Tuple[str, ...] = (
    "currency_exchange",
    "payments",
    "giftcard",
    "accounts_licenses",
    "gaming",
    "hackforums_related",
    "multimedia",
    "hacking_programming",
    "social_network_boost",
    "tutorials_guides",
    "tools_bots_software",
    "marketing",
    "ewhoring",
    "delivery_shipping",
    "academic_help",
    "contest_award",
)

#: Human-readable labels matching the paper's terminology.
CATEGORY_LABELS: Dict[str, str] = {
    "currency_exchange": "currency exchange",
    "payments": "payments",
    "giftcard": "giftcard/coupon/reward",
    "accounts_licenses": "accounts/licenses",
    "gaming": "gaming-related",
    "hackforums_related": "hackforums-related",
    "multimedia": "multimedia",
    "hacking_programming": "hacking/programming",
    "social_network_boost": "social network boost",
    "tutorials_guides": "tutorials/guides",
    "tools_bots_software": "tools/bots/software",
    "marketing": "marketing",
    "ewhoring": "eWhoring",
    "delivery_shipping": "delivery/shipping",
    "academic_help": "academic help",
    "contest_award": "contest/award",
}

#: Marker for contracts whose text matched no bucket.
UNCATEGORISED = "uncategorised"

#: Categories fed into the payment-method analysis (§4.4).
PAYMENT_RELATED_CATEGORIES: FrozenSet[str] = frozenset(
    {"currency_exchange", "payments", "giftcard"}
)

# Patterns run against *normalised* text (lowercase, no delimiters,
# synonyms unified), so e.g. "e-whoring" arrives as "e whoring".
_RAW_PATTERNS: Sequence[Tuple[str, str]] = (
    ("currency_exchange", r"\bexchang\w*\b|\bconvert(?:ing)?\b|\bswap(?:ping)?\b"),
    ("payments", r"\bpayment\b|\bpay(?:ing)?\b|\bsend(?:ing)? money\b|\bwire\b"),
    ("giftcard", r"\bgiftcards?\b|\bcoupons?\b|\bvouchers?\b|\breward card\b|\bstore credit\b"),
    (
        "accounts_licenses",
        r"\baccounts?\b|\blicen[cs]es?\b|\bsubscriptions?\b|\bactivation keys?\b|\bserial key\b",
    ),
    (
        "gaming",
        r"\bfortnite\b|\bminecraft\b|\bsteam\b|\bgam(?:e|es|ing)\b|\bcsgo\b|\broblox\b"
        r"|\brunescape\b|\bosrs\b|\bleague legends\b|\bskins?\b|\bgold\b",
    ),
    (
        "hackforums_related",
        r"\bhackforums\b|\bbytes\b|\bvouch cop(?:y|ies)\b|\bvouch(?:es)?\b|\bupgrade\b|\bsticky\b",
    ),
    (
        "multimedia",
        r"\blogo\b|\bbanner\b|\bdesigns?\b|\billustrations?\b|\bvideo edit(?:ing)?\b"
        r"|\bgraphics\b|\banimations?\b|\bintro\b|\bthumbnails?\b|\bavatars?\b",
    ),
    (
        "hacking_programming",
        r"\bhack(?:ing|ed)?\b|\bexploits?\b|\bpentest(?:ing)?\b|\bcrypt(?:er|ing)\b"
        r"|\bcoding\b|\bprogramming\b|\bscripts?\b|\bdevelop(?:ment|er|ing)?\b"
        r"|\bobfuscat\w+\b|\bsource code\b",
    ),
    (
        "social_network_boost",
        r"\bfollowers\b|\blikes\b|\bsubscribers\b|\bviews\b|\bboost(?:ing)?\b"
        r"|\bretweets\b|\bupvotes\b",
    ),
    (
        "tutorials_guides",
        r"\btutorials?\b|\bguides?\b|\bebooks?\b|\bmethods?\b|\bcourses?\b|\bmentoring\b",
    ),
    (
        "tools_bots_software",
        r"\btools?\b|\bbots?\b|\bsoftware\b|\bprograms?\b|\brat\b|\bremote access\b"
        r"|\bcheckers?\b|\bspammers?\b|\bbotnets?\b|\bhosting\b|\bvpn\b|\bvps\b|\bproxies\b",
    ),
    (
        "marketing",
        r"\bmarketing\b|\bpromot(?:e|ion|ing)\b|\badvertis\w+\b|\bseo\b|\btraffic\b|\bshoutouts?\b",
    ),
    ("ewhoring", r"\be ?whor\w*\b"),
    ("delivery_shipping", r"\bshipping\b|\bdelivery\b|\bship\b|\bdeliver\b|\bpostage\b"),
    (
        "academic_help",
        r"\bessays?\b|\bhomework\b|\bdissertations?\b|\bassignments?\b|\bthesis\b|\bacademic\b",
    ),
    ("contest_award", r"\bcontests?\b|\bgiveaways?\b|\bawards?\b|\bprizes?\b|\braffles?\b"),
)


@dataclass(frozen=True)
class Category:
    """A taxonomy bucket: identifier, label and compiled pattern."""

    key: str
    label: str
    pattern: "re.Pattern[str]"

    def matches(self, normalised_text: str) -> bool:
        return bool(self.pattern.search(normalised_text))


class ActivityCategorizer:
    """Multi-label trading-activity categoriser over obligation text.

    The default instance covers the paper's 16 buckets; custom bucket sets
    can be supplied for ablation (each as ``(key, regex)``, matched against
    normalised text).
    """

    def __init__(self, patterns: Sequence[Tuple[str, str]] = _RAW_PATTERNS) -> None:
        self.categories: List[Category] = [
            Category(key, CATEGORY_LABELS.get(key, key), re.compile(regex))
            for key, regex in patterns
        ]
        #: Texts shorter than this (in normalised characters) are deemed
        #: too short to classify and fall into the uncategorised bucket.
        self.min_length = 3

    def categorize(self, text: str) -> Set[str]:
        """Return the set of bucket keys matching ``text``.

        An empty or too-short text returns ``{UNCATEGORISED}``; a longer
        text that matches nothing also returns ``{UNCATEGORISED}``.
        """
        return self.categorize_normalized(normalize(text))

    def categorize_normalized(self, cleaned: str) -> Set[str]:
        """:meth:`categorize` for text already through :func:`normalize`."""
        if len(cleaned) < self.min_length:
            return {UNCATEGORISED}
        matched = {c.key for c in self.categories if c.matches(cleaned)}
        return matched if matched else {UNCATEGORISED}

    def categorize_sides(self, maker_text: str, taker_text: str) -> Set[str]:
        """Categories for a whole contract, combining both obligations.

        Per §4.3, some transactions (e.g. exchanging currency) count both
        sides as one category; set-union over sides implements that.
        """
        return self.categorize(maker_text + " " + taker_text) if (
            maker_text or taker_text
        ) else {UNCATEGORISED}


_DEFAULT = ActivityCategorizer()


def categorize_text(text: str) -> Set[str]:
    """Module-level shortcut using the default categoriser."""
    return _DEFAULT.categorize(text)


def categorize_sides(maker_text: str, taker_text: str) -> Set[str]:
    """Module-level shortcut for whole-contract categorisation."""
    return _DEFAULT.categorize_sides(maker_text, taker_text)
