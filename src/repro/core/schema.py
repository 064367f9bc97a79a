"""The canonical column schema: one registry for every table column.

Every producer (the generator's month tables in
:mod:`repro.synth.fastgen`, :class:`~repro.core.partitions.
PartitionWriter`) and every consumer (:class:`~repro.core.columns.
ColumnStore`, the streaming kernels, the partition reader) speaks the
same flat table dialect: ``user_*`` / ``t_*`` / ``x_*`` month-free
columns plus ``c_*`` / ``p_*`` / ``r_*`` per-month columns, int64 µs
timestamps with the :data:`~repro.core.columns.NAT_US` sentinel.  Until
now the schema existed only as convention, re-typed at each site — the
exact setup where one renamed key corrupts every downstream era
analysis without a test failing.  This module is the single declaration
the sites (and reprolint rule R012, which cross-checks every column
name and dtype in the tree against it) agree on.

``COLUMN_SCHEMA`` maps each canonical column name to its storage dtype
(``"int64"`` / ``"int8"`` / ``"bool"`` / ``"str"`` / ``"float64"``).
``INTERNAL_COLUMNS`` names engine-internal scratch keys that *look* like
columns (same prefix grammar) but never reach a store, so R012 can tell
a private staging key from a typo'd public one; the generator keeps
none today.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = [
    "COLUMN_SCHEMA",
    "INTERNAL_COLUMNS",
    "CONTRACT_KEYS",
    "POST_KEYS",
    "RATING_KEYS",
    "GLOBAL_KEYS",
    "SHARD_KEYS",
    "dtype_of",
    "empty_column",
]

#: Canonical column name -> storage dtype name.  ``str`` columns are
#: fixed-width unicode on disk (npz stays pickle-free); in memory they
#: may be object arrays until serialized.
COLUMN_SCHEMA: Dict[str, str] = {
    # users (global shard)
    "user_id": "int64",
    "user_joined_us": "int64",
    "user_first_post_us": "int64",
    "user_class": "str",
    # threads (global shard)
    "t_id": "int64",
    "t_author": "int64",
    "t_created_us": "int64",
    "t_title": "str",
    "t_marketplace": "bool",
    # blockchain ledger (global shard)
    "x_txhash": "str",
    "x_address": "str",
    "x_timestamp_us": "int64",
    "x_btc": "float64",
    # contracts (month shards)
    "c_id": "int64",
    "c_type": "int8",
    "c_status": "int8",
    "c_visibility": "int8",
    "c_maker": "int64",
    "c_taker": "int64",
    "c_created_us": "int64",
    "c_completed_us": "int64",
    "c_maker_obligation": "str",
    "c_taker_obligation": "str",
    "c_terms": "str",
    "c_maker_rating": "int8",
    "c_taker_rating": "int8",
    "c_thread": "int64",
    "c_btc_address": "str",
    "c_btc_txhash": "str",
    # posts (month shards)
    "p_id": "int64",
    "p_thread": "int64",
    "p_author": "int64",
    "p_created_us": "int64",
    "p_marketplace": "bool",
    # ratings (month shards)
    "r_contract": "int64",
    "r_rater": "int64",
    "r_ratee": "int64",
    "r_score": "int8",
    "r_created_us": "int64",
}

#: Engine-internal scratch keys: they would share the column-name
#: grammar but never be written to a store.
INTERNAL_COLUMNS: "frozenset[str]" = frozenset()

#: Table keys that live in the month shards, bucketed by creation month.
CONTRACT_KEYS: Tuple[str, ...] = tuple(
    key for key in COLUMN_SCHEMA if key.startswith("c_")
)
POST_KEYS: Tuple[str, ...] = tuple(
    key for key in COLUMN_SCHEMA if key.startswith("p_")
)
RATING_KEYS: Tuple[str, ...] = tuple(
    key for key in COLUMN_SCHEMA if key.startswith("r_")
)
SHARD_KEYS: Tuple[str, ...] = CONTRACT_KEYS + POST_KEYS + RATING_KEYS

#: Table keys that live in ``global.npz`` (small, not month-bucketed).
GLOBAL_KEYS: Tuple[str, ...] = tuple(
    key for key in COLUMN_SCHEMA
    if key.startswith(("user_", "t_", "x_"))
)

_NP_DTYPES = {
    "int64": np.int64,
    "int8": np.int8,
    "bool": np.bool_,
    "str": np.str_,
    "float64": np.float64,
}


def dtype_of(key: str) -> "np.dtype":
    """The numpy storage dtype for a canonical column."""
    return np.dtype(_NP_DTYPES[COLUMN_SCHEMA[key]])


def empty_column(key: str) -> np.ndarray:
    """A schema-correct empty column for ``key``."""
    return np.empty(0, dtype=_NP_DTYPES[COLUMN_SCHEMA[key]])
