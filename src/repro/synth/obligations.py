"""Obligation-text generation for public contracts.

Public contracts expose maker/taker obligation sections; the paper's text
pipeline (§4.3–4.5) categorises these with regexes and extracts quoted
values.  This module generates realistic obligation texts from templates
that are *co-designed* with :mod:`repro.text`: every generated category is
recoverable by the taxonomy regexes, every payment method by the payment
extractor, and every stated amount by the value extractor.

The tables below are the templates; :mod:`repro.synth.fastgen` draws
from them in per-kind batches.  It records each public contract's
intent in an :class:`ObligationSpec` (ground truth), which the result
keeps aside so tests can score the extraction pipelines against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

__all__ = ["ObligationSpec"]


@dataclass
class ObligationSpec:
    """Ground truth for one generated public contract's texts."""

    maker_text: str
    taker_text: str
    terms: str
    categories: Set[str]
    methods: Set[str]
    value_usd: float            # true central value
    maker_usd: Optional[float]  # true value stated on the maker side
    taker_usd: Optional[float]
    uses_bitcoin: bool
    is_typo: bool = False       # stated value inflated 10x (typing error)


# Goods phrases per category.  Each phrase must trip its own category's
# regex (multi-category phrases are deliberate: "fortnite account" is both
# gaming and accounts/licenses, as in the paper's example).
_GOODS: Dict[str, Sequence[str]] = {
    "giftcard": (
        "google play giftcard code",
        "itunes giftcard code",
        "walmart giftcard",
        "discount coupon bundle",
        "store voucher codes",
        "amazon giftcard code",
    ),
    "accounts_licenses": (
        "netflix premium account",
        "spotify premium account",
        "windows 10 license",
        "antivirus license with subscription",
        "fortnite account with rare skins",
        "aged twitter accounts",
    ),
    "gaming": (
        "csgo skins bundle",
        "runescape gold 100m",
        "fortnite account stacked",
        "steam game keys",
        "roblox limiteds",
        "minecraft alt accounts",
    ),
    "hackforums_related": (
        "hackforums bytes transfer",
        "hackforums account upgrade",
        "vouch copy of my service",
        "sticky spot on hackforums thread",
        "hackforums award bundle",
    ),
    "multimedia": (
        "custom logo design",
        "youtube banner design",
        "video editing for channel",
        "animated intro with graphics",
        "avatar and signature design",
        "thumbnail design batch",
    ),
    "hacking_programming": (
        "python script development",
        "custom crypter build",
        "website development work",
        "source code of my checker",
        "obfuscation and coding service",
    ),
    "social_network_boost": (
        "1000 instagram followers boost",
        "youtube views and likes",
        "tiktok followers package boost",
        "twitter retweets and likes",
        "reddit upvotes boost",
    ),
    "tutorials_guides": (
        "money making method ebook",
        "private dropshipping tutorial",
        "cryptocurrency trading course",
        "youtube method guide",
        "mentoring sessions and guide",
    ),
    "tools_bots_software": (
        "remote access tool license",
        "account checker tool",
        "spotify bot software",
        "botnet setup with hosting",
        "vps hosting with proxies",
        "discord spammer bot",
    ),
    "marketing": (
        "seo marketing service",
        "website traffic promotion",
        "shoutout advertising on my page",
        "email marketing campaign",
    ),
    "ewhoring": (
        "ewhoring starter bundle",
        "ewhoring pictures bundle",
        "complete ewhoring kit",
    ),
    "delivery_shipping": (
        "package shipping service",
        "worldwide delivery of goods",
        "dropship delivery handling",
    ),
    "academic_help": (
        "essay writing help",
        "homework assignment solutions",
        "dissertation chapter writing",
        "academic thesis proofreading",
    ),
    "contest_award": (
        "giveaway prize fulfilment",
        "contest entry award",
        "raffle prize slot",
    ),
}

#: Vague texts that should land in the *uncategorised* bucket.
_VAGUE = (
    "as discussed",
    "see our conversation",
    "items per our agreement",
    "goods",
    "stuff we talked about",
)

_TERMS = (
    "complete within 72 hours. no refunds after release.",
    "maker sends first. dispute if anything goes wrong.",
    "both parties confirm before marking complete.",
    "no chargebacks. b rating after completion.",
    "terms as posted in my thread.",
)

#: How payment-method amounts are written.  ``{usd}`` is the rounded USD
#: figure, ``{amt}`` a unit amount for non-USD instruments.
_METHOD_TEXT: Dict[str, str] = {
    "bitcoin": "${usd} worth of btc ({amt} btc)",
    "paypal": "${usd} paypal friends and family",
    "amazon_giftcard": "${usd} amazon gc code",
    "cashapp": "${usd} via cashapp",
    "usd": "{usd} usd cash",
    "ethereum": "${usd} worth of eth ({amt} eth)",
    "venmo": "${usd} venmo",
    "vbucks": "{amt} v-bucks worth ${usd}",
    "zelle": "${usd} zelle transfer",
    "bitcoin_cash": "${usd} in bch",
    "litecoin": "${usd} in ltc ({amt} ltc)",
    "monero": "${usd} in xmr",
    "apple_google_pay": "${usd} apple pay balance",
    "skrill": "${usd} skrill",
}

_METHOD_CURRENCY: Dict[str, str] = {
    "bitcoin": "BTC",
    "ethereum": "ETH",
    "bitcoin_cash": "BCH",
    "litecoin": "LTC",
    "monero": "XMR",
}


def _format_usd(value: float) -> str:
    if value >= 10:
        return f"{value:,.0f}"
    return f"{value:.2f}"
