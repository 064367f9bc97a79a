"""Payment-method extraction from obligation text.

§4.4: contracts classified into *currency exchange*, *payments* or
*giftcard* are run through a second regex set to identify the payment
methods involved (Bitcoin, PayPal, Amazon Giftcards, Cashapp, ...).  A
contract can involve several methods (e.g. "exchange bitcoin for paypal").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .normalize import normalize

__all__ = [
    "PaymentMethod",
    "PAYMENT_METHODS",
    "PAYMENT_LABELS",
    "PaymentExtractor",
    "extract_payment_methods",
]

#: Canonical method identifiers, in the paper's Table 4 rank order first,
#: then the extras named elsewhere in §4.4/§4.5.
PAYMENT_METHODS: Tuple[str, ...] = (
    "bitcoin",
    "paypal",
    "amazon_giftcard",
    "cashapp",
    "usd",
    "ethereum",
    "venmo",
    "vbucks",
    "zelle",
    "bitcoin_cash",
    "litecoin",
    "monero",
    "apple_google_pay",
    "skrill",
    "gbp",
    "eur",
    "cad",
)

PAYMENT_LABELS: Dict[str, str] = {
    "bitcoin": "Bitcoin",
    "paypal": "PayPal",
    "amazon_giftcard": "Amazon Giftcards",
    "cashapp": "Cashapp",
    "usd": "USD",
    "ethereum": "Ethereum",
    "venmo": "Venmo",
    "vbucks": "V-bucks",
    "zelle": "Zelle",
    "bitcoin_cash": "Bitcoin Cash",
    "litecoin": "Litecoin",
    "monero": "Monero",
    "apple_google_pay": "Apple/Google Pay",
    "skrill": "Skrill",
    "gbp": "GBP",
    "eur": "EUR",
    "cad": "CAD",
}

# Matched against normalised text (synonyms already unified: "btc" is
# already "bitcoin", "amazon gc" is "amazon giftcard", etc.).  Order
# matters: "bitcoin cash" must be tested before "bitcoin".
_RAW_PATTERNS: Sequence[Tuple[str, str]] = (
    ("bitcoin_cash", r"\bbitcoin cash\b"),
    ("bitcoin", r"\bbitcoin\b(?! cash)"),
    ("paypal", r"\bpaypal\b"),
    ("amazon_giftcard", r"\bamazon giftcards?\b"),
    ("cashapp", r"\bcashapp\b"),
    ("usd", r"\busd\b|\bdollars?\b(?! store)"),
    ("ethereum", r"\bethereum\b"),
    ("venmo", r"\bvenmo\b"),
    ("vbucks", r"\bvbucks\b"),
    ("zelle", r"\bzelle\b"),
    ("litecoin", r"\blitecoin\b"),
    ("monero", r"\bmonero\b"),
    ("apple_google_pay", r"\bapplepay\b|\bgooglepay\b"),
    ("skrill", r"\bskrill\b"),
    ("gbp", r"\bgbp\b|\bpounds?\b"),
    ("eur", r"\beur\b|\beuros?\b"),
    ("cad", r"\bcad\b"),
)


@dataclass(frozen=True)
class PaymentMethod:
    """A payment method: identifier, display label, compiled pattern."""

    key: str
    label: str
    pattern: "re.Pattern[str]"

    def matches(self, normalised_text: str) -> bool:
        return bool(self.pattern.search(normalised_text))


class PaymentExtractor:
    """Multi-label payment-method extractor over obligation text."""

    def __init__(self, patterns: Sequence[Tuple[str, str]] = _RAW_PATTERNS) -> None:
        self.methods: List[PaymentMethod] = [
            PaymentMethod(key, PAYMENT_LABELS.get(key, key), re.compile(regex))
            for key, regex in patterns
        ]

    def extract(self, text: str) -> Set[str]:
        """Payment-method keys mentioned in ``text`` (empty set if none)."""
        return self.extract_normalized(normalize(text))

    def extract_normalized(self, cleaned: str) -> Set[str]:
        """:meth:`extract` for text already through :func:`normalize`."""
        if not cleaned:
            return set()
        hits = {m.key for m in self.methods if m.matches(cleaned)}
        # "bitcoin cash" also matches the substring tests of some callers;
        # the negative lookahead on the bitcoin pattern keeps them disjoint,
        # but a text can legitimately mention both.
        return hits

    def extract_sides(self, maker_text: str, taker_text: str) -> Set[str]:
        """Methods mentioned across both contract sides."""
        return self.extract(maker_text) | self.extract(taker_text)


_DEFAULT = PaymentExtractor()


def extract_payment_methods(text: str) -> Set[str]:
    """Module-level shortcut using the default extractor."""
    return _DEFAULT.extract(text)
