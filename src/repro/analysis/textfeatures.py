"""Obligation-text features: one regex pass per dataset (§4.3–§4.5).

Tables 3–5, Figures 9–11 and §6's category drift all read one set of
texts: the maker and taker obligations of completed public contracts.
:func:`text_features` reads each of those texts once per dataset,
memoizes the result on ``ColumnStore.derived`` and keeps one set of
per-row columns:

* category bitmasks for the maker text, the taker text and the joined
  maker+taker text (bit ``i`` is ``CATEGORIES[i]``; the next bit marks
  an uncategorised text);
* payment-method bitmasks for each side (bit ``i`` is
  ``PAYMENT_METHODS[i]``);
* each side's extracted ``(amount, currency)`` values.

Each obligation is synonym-unified once and normalised once, and that
one string feeds the value, category and payment regexes.  The joined
text is normalised once more, because synonyms and category patterns
can match across the join.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from ..core.dataset import MarketDataset
from ..core.timeutils import Month
from ..obs.tracer import get_tracer
from ..text.normalize import normalize_unified, unify_synonyms
from ..text.payments import PAYMENT_METHODS, PaymentExtractor
from ..text.taxonomy import CATEGORIES, UNCATEGORISED, ActivityCategorizer
from ..text.values import ExtractedValue, extract_unified_values
from .monthly import _month_counts

__all__ = [
    "CONCRETE_CATEGORIES",
    "TextFeatures",
    "category_bits",
    "category_keys",
    "method_bits",
    "method_keys",
    "side_tallies",
    "text_features",
    "top_monthly",
]

_CATEGORY_BIT: Dict[str, int] = {key: i for i, key in enumerate(CATEGORIES)}
_CATEGORY_BIT[UNCATEGORISED] = len(CATEGORIES)
_METHOD_BIT: Dict[str, int] = {key: i for i, key in enumerate(PAYMENT_METHODS)}

#: Mask selecting only the concrete (non-uncategorised) category bits.
CONCRETE_CATEGORIES = np.uint32((1 << len(CATEGORIES)) - 1)

Values = Tuple[ExtractedValue, ...]
SideTallies = Tuple[int, Set[int], int, Set[int], int, Set[int]]


def _bits(bit_of: Dict[str, int], keys: Iterable[str]) -> int:
    mask = 0
    for key in keys:
        mask |= 1 << bit_of[key]
    return mask


def category_bits(keys: Iterable[str]) -> np.uint32:
    """Category bitmask with the bit of every key in ``keys`` set."""
    return np.uint32(_bits(_CATEGORY_BIT, keys))


def method_bits(keys: Iterable[str]) -> np.uint32:
    """Payment-method bitmask with the bit of every key in ``keys`` set."""
    return np.uint32(_bits(_METHOD_BIT, keys))


# Both decoders are pure functions of a mask; a dataset has a few hundred
# distinct masks, so each is decoded once per process.
@functools.lru_cache(maxsize=None)
def category_keys(mask: int) -> Tuple[str, ...]:
    """The concrete categories of one bitmask (uncategorised dropped).

    Keys come in the iteration order of ``categorize(...) -
    {UNCATEGORISED}``, the set the per-contract code looped over, so dicts
    keyed by category fill in the same order, and a float sum over their
    keys (§6's category drift) rounds the same way.
    """
    matched = {key for key in CATEGORIES if mask >> _CATEGORY_BIT[key] & 1}
    return tuple((matched or {UNCATEGORISED}) - {UNCATEGORISED})


@functools.lru_cache(maxsize=None)
def method_keys(mask: int) -> Tuple[str, ...]:
    """The payment methods of one bitmask, in ``PAYMENT_METHODS`` order."""
    return tuple(key for key in PAYMENT_METHODS if mask >> _METHOD_BIT[key] & 1)


@dataclass(frozen=True)
class TextFeatures:
    """Text features of a dataset's completed public contracts.

    Every column has one entry per row of ``rows``, the store rows of the
    completed public contracts in ascending order.
    """

    rows: np.ndarray
    #: Column index of each contract id in ``rows``.
    position: Dict[int, int]
    maker_categories: np.ndarray
    taker_categories: np.ndarray
    #: Categories of the joined maker+taker text (``categorize_sides``).
    joined_categories: np.ndarray
    maker_methods: np.ndarray
    taker_methods: np.ndarray
    maker_values: List[Values]
    taker_values: List[Values]


def text_features(dataset: MarketDataset) -> TextFeatures:
    """The dataset's obligation-text features, computed once and memoized."""
    store = dataset.columns()
    cached = store.derived.get("text_features")
    if cached is not None:
        return cached
    categorizer = ActivityCategorizer()
    extractor = PaymentExtractor()
    tracer = get_tracer()
    with tracer.span("text.features"):
        rows = np.flatnonzero(store.completed_public_mask())
        masks: List[Tuple[int, int, int, int, int]] = []
        maker_values: List[Values] = []
        taker_values: List[Values] = []
        contracts = dataset.contracts
        for row in rows.tolist():
            contract = contracts[row]
            maker = unify_synonyms(contract.maker_obligation)
            taker = unify_synonyms(contract.taker_obligation)
            joined = unify_synonyms(
                contract.maker_obligation + " " + contract.taker_obligation
            )
            maker_clean = normalize_unified(maker)
            taker_clean = normalize_unified(taker)
            joined_clean = normalize_unified(joined)
            masks.append((
                _bits(_CATEGORY_BIT, categorizer.categorize_normalized(maker_clean)),
                _bits(_CATEGORY_BIT, categorizer.categorize_normalized(taker_clean)),
                _bits(_CATEGORY_BIT, categorizer.categorize_normalized(joined_clean)),
                _bits(_METHOD_BIT, extractor.extract_normalized(maker_clean)),
                _bits(_METHOD_BIT, extractor.extract_normalized(taker_clean)),
            ))
            maker_values.append(tuple(extract_unified_values(maker)))
            taker_values.append(tuple(extract_unified_values(taker)))
        n = len(rows)
        columns = np.array(masks, dtype=np.uint32).reshape(n, 5).T
        features = TextFeatures(
            rows=rows,
            position=dict(zip(store.contract_id[rows].tolist(), range(n))),
            maker_categories=columns[0],
            taker_categories=columns[1],
            joined_categories=columns[2],
            maker_methods=columns[3],
            taker_methods=columns[4],
            maker_values=maker_values,
            taker_values=taker_values,
        )
    tracer.gauge("text.rows", n)
    store.derived["text_features"] = features
    return features


def side_tallies(
    maker_sel: np.ndarray,
    taker_sel: np.ndarray,
    maker_ids: np.ndarray,
    taker_ids: np.ndarray,
) -> SideTallies:
    """One Table 3 or Table 4 row's counts for a selection of contracts.

    ``(maker_contracts, maker_users, taker_contracts, taker_users,
    both_contracts, both_users)``; "both sides" is a contract selected on
    either side, counted once.
    """
    both_sel = maker_sel | taker_sel
    return (
        int(maker_sel.sum()),
        set(maker_ids[maker_sel].tolist()),
        int(taker_sel.sum()),
        set(taker_ids[taker_sel].tolist()),
        int(both_sel.sum()),
        set(maker_ids[both_sel].tolist()) | set(taker_ids[both_sel].tolist()),
    )


def top_monthly(
    months: np.ndarray, masks: np.ndarray, bits: Dict[str, np.uint32], top_n: int
) -> Dict[str, Dict[Month, int]]:
    """Monthly contract counts of the ``top_n`` keys with the most contracts.

    ``masks`` holds one bitmask per contract and ``months`` its creation
    month index; ``bits`` maps each candidate key to its bit.  Ties are
    broken by key, so the pick does not depend on the hash seed.
    """
    monthly: Dict[str, Dict[Month, int]] = {}
    totals: Dict[str, int] = {}
    for key, bit in bits.items():
        sel = (masks & bit) != 0
        total = int(sel.sum())
        if total:
            totals[key] = total
            monthly[key] = _month_counts(months[sel])
    winners = sorted(totals, key=lambda k: (-totals[k], k))[:top_n]
    return {key: monthly[key] for key in winners}
