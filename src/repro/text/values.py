"""Trading-value extraction and USD conversion.

§4.5: regular expressions pull quoted values and currency denominations
from the maker/taker obligation sections.  The per-contract estimate then
follows the paper's rules:

* values on *both* sides (e.g. a currency exchange) are averaged, to avoid
  double counting;
* a side without a stated value is assumed equal to the other side;
* a bare ``$`` amount, or an amount denominated in a USD-settled payment
  instrument (PayPal, Cashapp, Venmo, ...), counts as USD;
* everything is converted to USD at the rate on the day the transaction
  was made (completion date when available, else creation date);
* contracts where neither side's value can be estimated are ignored.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..blockchain.rates import RateOracle
from ..core.entities import Contract
from .normalize import unify_synonyms

__all__ = [
    "ExtractedValue",
    "ContractValue",
    "contract_value",
    "extract_unified_values",
    "extract_values",
    "estimate_contract_value",
    "estimate_values",
]

# Denomination words -> canonical currency code.  Includes USD-settled
# payment instruments, which denominate in dollars.
_CURRENCY_WORDS: Dict[str, str] = {
    "usd": "USD", "dollar": "USD", "dollars": "USD",
    "gbp": "GBP", "pound": "GBP", "pounds": "GBP",
    "eur": "EUR", "euro": "EUR", "euros": "EUR",
    "cad": "CAD", "aud": "AUD", "inr": "INR",
    "jpy": "JPY", "yen": "JPY",
    "bitcoin": "BTC", "ethereum": "ETH", "litecoin": "LTC", "monero": "XMR",
    # USD-settled instruments
    "paypal": "USD", "cashapp": "USD", "venmo": "USD", "zelle": "USD",
    "skrill": "USD", "applepay": "USD", "googlepay": "USD",
    "giftcard": "USD", "giftcards": "USD",
}

_SYMBOLS: Dict[str, str] = {"$": "USD", "£": "GBP", "€": "EUR"}

_NUMBER = r"(\d{1,3}(?:,\d{3})+|\d+)(\.\d+)?"

# "$1,250.50", "£50", "€30.5" — optionally followed by an instrument word
# ("$100 paypal" stays USD).
_SYMBOL_AMOUNT = re.compile(r"([$£€])\s?" + _NUMBER)

# "0.05 bitcoin", "100 usd", "40 paypal", "1,000 dollars"
_WORD_AMOUNT = re.compile(
    _NUMBER + r"\s+(" + "|".join(sorted(_CURRENCY_WORDS, key=len, reverse=True)) + r")\b"
)

# "bitcoin cash 0.5" style (currency-first) — rarer, but cheap to support.
_WORD_FIRST = re.compile(
    r"\b(" + "|".join(sorted(_CURRENCY_WORDS, key=len, reverse=True)) + r")\s+" + _NUMBER
)


@dataclass(frozen=True)
class ExtractedValue:
    """One ``(amount, currency)`` pair found in an obligation text."""

    amount: float
    currency: str


@dataclass(frozen=True)
class ContractValue:
    """The USD value estimate for one contract (§4.5 rules applied)."""

    contract_id: int
    maker_usd: Optional[float]
    taker_usd: Optional[float]
    usd: float
    currencies: Tuple[str, ...]


def _to_float(whole: str, frac: Optional[str]) -> float:
    return float(whole.replace(",", "") + (frac or ""))


def extract_values(text: str) -> List[ExtractedValue]:
    """Extract every ``(amount, currency)`` quoted in ``text``.

    The text is lower-cased and synonym-unified first (so "0.1 BTC" is
    found as bitcoin), but number punctuation is preserved.
    """
    if not text:
        return []
    return extract_unified_values(unify_synonyms(text))


def extract_unified_values(unified: str) -> List[ExtractedValue]:
    """:func:`extract_values` for text already through :func:`unify_synonyms`."""
    found: List[ExtractedValue] = []
    spans: List[Tuple[int, int]] = []

    def overlaps(start: int, end: int) -> bool:
        return any(not (end <= s or start >= e) for s, e in spans)

    for match in _SYMBOL_AMOUNT.finditer(unified):
        amount = _to_float(match.group(2), match.group(3))
        found.append(ExtractedValue(amount, _SYMBOLS[match.group(1)]))
        spans.append(match.span())
    for match in _WORD_AMOUNT.finditer(unified):
        if overlaps(*match.span()):
            continue
        amount = _to_float(match.group(1), match.group(2))
        found.append(ExtractedValue(amount, _CURRENCY_WORDS[match.group(3)]))
        spans.append(match.span())
    for match in _WORD_FIRST.finditer(unified):
        if overlaps(*match.span()):
            continue
        amount = _to_float(match.group(2), match.group(3))
        found.append(ExtractedValue(amount, _CURRENCY_WORDS[match.group(1)]))
        spans.append(match.span())
    return found


#: When a side quotes several values and they agree within this factor,
#: they are treated as restatements of the same money ("$105 worth of
#: bitcoin (0.0123 btc)") and averaged rather than summed.
_RESTATEMENT_FACTOR = 1.3


def _side_usd(
    values: Sequence[ExtractedValue], rates: RateOracle, when: _dt.date
) -> Optional[float]:
    """Combine a side's extracted values into one USD figure.

    Values that agree within :data:`_RESTATEMENT_FACTOR` are restatements
    of the same amount in different denominations and are averaged;
    otherwise the side's values are genuinely distinct items and are
    summed (the paper's "naive" counting).
    """
    if not values:
        return None
    in_usd = [rates.to_usd(v.amount, v.currency, when) for v in values]
    if len(in_usd) > 1:
        low, high = min(in_usd), max(in_usd)
        if low > 0 and high / low <= _RESTATEMENT_FACTOR:
            return sum(in_usd) / len(in_usd)
    return sum(in_usd)


def estimate_contract_value(
    contract: Contract, rates: RateOracle
) -> Optional[ContractValue]:
    """Estimate one contract's USD value from its obligation texts.

    Returns None when neither side yields a value (the paper ignores such
    contracts) or when the contract is private (obligations hidden).
    """
    if not contract.is_public:
        return None
    return contract_value(
        contract,
        extract_values(contract.maker_obligation),
        extract_values(contract.taker_obligation),
        rates,
    )


def contract_value(
    contract: Contract,
    maker_values: Sequence[ExtractedValue],
    taker_values: Sequence[ExtractedValue],
    rates: RateOracle,
) -> Optional[ContractValue]:
    """:func:`estimate_contract_value` from each side's extracted values.

    Applies the §4.5 rules and the transaction-day USD conversion; None
    when neither side yields a value.
    """
    when_dt = contract.completed_at or contract.created_at
    when = when_dt.date()
    maker_usd = _side_usd(maker_values, rates, when)
    taker_usd = _side_usd(taker_values, rates, when)
    if maker_usd is None and taker_usd is None:
        return None
    if maker_usd is not None and taker_usd is not None:
        usd = (maker_usd + taker_usd) / 2.0  # avoid double counting
    else:
        usd = maker_usd if maker_usd is not None else taker_usd  # equal-value rule
    currencies = tuple(sorted({v.currency for v in (*maker_values, *taker_values)}))
    return ContractValue(contract.contract_id, maker_usd, taker_usd, usd, currencies)


def estimate_values(
    contracts: Sequence[Contract], rates: RateOracle
) -> Dict[int, ContractValue]:
    """Estimate values for many contracts; unvalued ones are omitted."""
    result: Dict[int, ContractValue] = {}
    for contract in contracts:
        value = estimate_contract_value(contract, rates)
        if value is not None:
            result[contract.contract_id] = value
    return result
