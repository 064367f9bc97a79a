"""Obligation-text normalisation.

§4.3: "we first extract the obligation section in all public contracts,
then apply normalisation techniques, such as removing stop-words,
delimiters, digits, and unifying synonyms."  This module implements that
step: lower-casing, delimiter stripping, stop-word removal, digit removal
(optional, since value extraction needs digits), and a synonym table that
unifies the market's slang ("pp" -> "paypal", "btc" -> "bitcoin",
"amazon gc" -> "amazon giftcard", ...).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List

__all__ = [
    "normalize",
    "normalize_unified",
    "tokenize",
    "unify_synonyms",
    "STOPWORDS",
    "SYNONYMS",
]

#: Small stop-word list tuned for obligation snippets, not full prose.
STOPWORDS = frozenset(
    """a an and are as at be by for from i if in into is it my of on or our
    so that the their them then they this to was we where which will with
    you your am has have had want wants need needs get gets""".split()
)

#: Multi-word synonyms are replaced before tokenisation (longest first).
SYNONYMS: Dict[str, str] = {
    # payment slang
    "pp": "paypal",
    "pay pal": "paypal",
    "btc": "bitcoin",
    "xbt": "bitcoin",
    "eth": "ethereum",
    "bch": "bitcoin cash",
    "ltc": "litecoin",
    "xmr": "monero",
    "amazon gc": "amazon giftcard",
    "amazon gift card": "amazon giftcard",
    "amazon giftcards": "amazon giftcard",
    "cash app": "cashapp",
    "v bucks": "vbucks",
    "v-bucks": "vbucks",
    "apple pay": "applepay",
    "google pay": "googlepay",
    # goods slang
    "acct": "account",
    "accts": "accounts",
    "hq": "high quality",
    "yt": "youtube",
    "ig": "instagram",
    "fb": "facebook",
    "hf": "hackforums",
    "gfx": "graphics",
    "vouch copies": "vouch copy",
    "gift cards": "giftcards",
    "gift card": "giftcard",
}

_DELIMITERS = re.compile(r"[\\/,;:!?\(\)\[\]\{\}<>\"'`|+*=~^%&#@_-]+")
_WHITESPACE = re.compile(r"\s+")
_DIGITS = re.compile(r"\d+(?:\.\d+)?")

# Longest synonyms first so "amazon gift card" wins over "gift card".
_SYNONYM_PATTERNS = [
    (key, re.compile(r"\b" + re.escape(key) + r"\b"), value)
    for key, value in sorted(SYNONYMS.items(), key=lambda kv: -len(kv[0]))
]
_ANY_SYNONYM = re.compile(
    r"\b(?:" + "|".join(re.escape(key) for key, _, _ in _SYNONYM_PATTERNS) + r")\b"
)


def unify_synonyms(text: str) -> str:
    """Replace known slang/synonyms with canonical forms (input lowercased)."""
    result = text.lower()
    for key, pattern, replacement in _SYNONYM_PATTERNS:
        # A pattern can only match where its key occurs as a substring,
        # and the substring test is far cheaper than the regex.
        if key in result:
            result = pattern.sub(replacement, result)
    return result


def normalize(text: str, strip_digits: bool = False) -> str:
    """Normalise an obligation snippet for categorisation.

    Lower-cases, unifies synonyms, strips delimiters, optionally removes
    digits, collapses whitespace and drops stop-words.  Digits are kept by
    default because value extraction runs on the same normalised text.
    """
    return normalize_unified(unify_synonyms(text), strip_digits)


def normalize_unified(unified: str, strip_digits: bool = False) -> str:
    """:func:`normalize` for text already through :func:`unify_synonyms`.

    Lets one unified string serve both the value regexes (which need its
    number punctuation) and the category and payment regexes.

    Dropping delimiters and stop-words can bring a synonym's words
    together ("google:pay", "pay the pal"), and a replacement can complete
    another synonym ("bch app" -> "bitcoin cash app"), so the text is
    unified and cleaned again until no synonym is left: the result is a
    fixed point of :func:`normalize`.
    """
    result = _clean(unified, strip_digits)
    while _ANY_SYNONYM.search(result):
        result = _clean(unify_synonyms(result), strip_digits)
    return result


def _clean(unified: str, strip_digits: bool) -> str:
    result = _DELIMITERS.sub(" ", unified)
    if strip_digits:
        result = _DIGITS.sub(" ", result)
    tokens = [t for t in _WHITESPACE.split(result) if t and t not in STOPWORDS]
    return " ".join(tokens)


def tokenize(text: str, strip_digits: bool = True) -> List[str]:
    """Normalise then split into tokens."""
    cleaned = normalize(text, strip_digits=strip_digits)
    return cleaned.split() if cleaned else []
