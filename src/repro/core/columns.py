"""The column store: contiguous NumPy arrays built from a dataset.

Every analysis in this library is a pure function of a
:class:`~repro.core.dataset.MarketDataset`, but the dataset stores Python
objects, and walking those lists in interpreted loops is slow.  A
:class:`ColumnStore` is built once (and cached on the dataset by
``MarketDataset.columns()``) and exposes the contract, rating and post
fields as contiguous arrays, so the analysis kernels run on
``np.bincount``/boolean masks instead of per-object loops.

Schema (all arrays share the dataset's contract row order: that of
``dataset.contracts``, or the table rows of a column-backed dataset):

========================  =======  ==========================================
field                     dtype    meaning
========================  =======  ==========================================
``contract_id``           int64    contract ids
``created_us``            int64    creation time, microseconds since epoch
``completed_us``          int64    completion time (``NAT_US`` when absent)
``maker_id``/``taker_id`` int64    raw user ids
``maker_code``/…          int32    compact user codes (row into ``user_ids``)
``ctype``                 int8     index into ``CTYPE_ORDER``
``status``                int8     index into ``STATUS_ORDER``
``visibility``            int8     index into ``VISIBILITY_ORDER``
``thread_id``             int64    linked thread (−1 when absent)
``month_idx``             int64    creation month, months since 1970-01
``settled_month_idx``     int64    completion-month bucket (−1 when absent)
``era_idx``               int8     0/1/2 = SET-UP/STABLE/COVID-19 (−1 outside)
========================  =======  ==========================================

Ratings (``store.ratings``) and posts (``store.posts``) load lazily the
first time an analysis touches them.  ``store.derived`` is a memo dict for
cross-module derived columns (e.g. the obligation-text features built by
:mod:`repro.analysis.textfeatures`).
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from .entities import Contract, ContractStatus, ContractType, Visibility
from .eras import DATA_END, ERAS, Era
from .timeutils import Month

__all__ = [
    "ColumnStore",
    "RatingColumns",
    "PostColumns",
    "CTYPE_ORDER",
    "STATUS_ORDER",
    "VISIBILITY_ORDER",
    "NAT_US",
    "month_from_index",
    "month_index_of",
    "month_indexes_of",
    "era_bounds_us",
    "era_indexes_of",
    "datetime_from_us",
]

#: Canonical enum orders; the int codes stored in the arrays index these.
CTYPE_ORDER = tuple(ContractType)
STATUS_ORDER = tuple(ContractStatus)
VISIBILITY_ORDER = tuple(Visibility)

_CTYPE_CODE = {member: i for i, member in enumerate(CTYPE_ORDER)}
_STATUS_CODE = {member: i for i, member in enumerate(STATUS_ORDER)}
_VIS_CODE = {member: i for i, member in enumerate(VISIBILITY_ORDER)}

#: Sentinel for missing timestamps — the int64 view of ``NaT``.
NAT_US = np.int64(np.iinfo(np.int64).min)

_EPOCH = _dt.datetime(1970, 1, 1)


def _datetimes64(values: Iterable[Optional[_dt.datetime]]) -> np.ndarray:
    """Exact ``datetime64[us]`` array; ``None`` becomes ``NaT``."""
    nat = np.datetime64("NaT")
    return np.array(
        [np.datetime64(v) if v is not None else nat for v in values],
        dtype="datetime64[us]",
    )


def datetime_from_us(us: int) -> Optional[_dt.datetime]:
    """Invert the int64-microsecond encoding (``NAT_US`` -> ``None``)."""
    if us == NAT_US:
        return None
    return _EPOCH + _dt.timedelta(microseconds=int(us))


def month_from_index(idx: int) -> Month:
    """Invert ``month_idx`` (months since 1970-01) into a :class:`Month`."""
    return Month(1970 + idx // 12, idx % 12 + 1)


def _month_indexes(stamps: np.ndarray) -> np.ndarray:
    """Months-since-1970 per timestamp; missing stamps map to −1."""
    idx = stamps.astype("datetime64[M]").astype(np.int64)
    return np.where(np.isnat(stamps), np.int64(-1), idx)


def month_index_of(month: Month) -> int:
    """Months since 1970-01 for a :class:`Month` (inverts month_from_index)."""
    return (month.year - 1970) * 12 + (month.month - 1)


def month_indexes_of(stamps_us: np.ndarray) -> np.ndarray:
    """Months-since-1970 per int64-µs stamp (``NAT_US`` maps to −1).

    Shared by :class:`ColumnStore` and the month partitions in
    :mod:`repro.core.partitions` so both derive identical buckets.
    """
    stamps = np.asarray(stamps_us, dtype=np.int64).view("datetime64[us]")
    return _month_indexes(stamps)


def era_bounds_us() -> np.ndarray:
    """Era boundary stamps (int64 µs): one per era start plus the day
    after ``DATA_END`` — the searchsorted grid behind ``era_idx``."""
    return np.array(
        [era.start for era in ERAS] + [DATA_END + _dt.timedelta(days=1)],
        dtype="datetime64[us]",
    ).astype(np.int64)


def era_indexes_of(created_us: np.ndarray) -> np.ndarray:
    """Era codes (0/1/2 per :data:`~repro.core.eras.ERAS`, −1 outside the
    study window) for int64-µs creation stamps — the exact
    ``ColumnStore.era_idx`` formula, importable by incremental kernels."""
    created = np.asarray(created_us, dtype=np.int64)
    era = np.searchsorted(era_bounds_us(), created, side="right") - 1
    return np.where((era >= 0) & (era < len(ERAS)), era, -1).astype(np.int8)


class RatingColumns:
    """Columnar view of the ratings table (shares the store's user codes)."""

    def __init__(self, store: "ColumnStore", ratings: Sequence) -> None:
        self.n = len(ratings)
        self.contract_id = np.array([r.contract_id for r in ratings], dtype=np.int64)
        self.rater_code = store.user_code_array([r.rater_id for r in ratings])
        self.ratee_code = store.user_code_array([r.ratee_id for r in ratings])
        self.score = np.array([r.score for r in ratings], dtype=np.int8)
        stamps = _datetimes64(r.created_at for r in ratings)
        self.created_us = stamps.astype(np.int64)
        self.month_idx = _month_indexes(stamps)

    @classmethod
    def from_arrays(cls, store: "ColumnStore", tables: Dict[str, np.ndarray]) -> "RatingColumns":
        """Build from raw table arrays (cache schema ``r_*`` keys)."""
        self = cls.__new__(cls)
        self.n = len(tables["r_contract"])
        self.contract_id = np.asarray(tables["r_contract"], dtype=np.int64)
        self.rater_code = store.user_code_array(tables["r_rater"])
        self.ratee_code = store.user_code_array(tables["r_ratee"])
        self.score = np.asarray(tables["r_score"], dtype=np.int8)
        self.created_us = np.asarray(tables["r_created_us"], dtype=np.int64)
        self.month_idx = _month_indexes(self.created_us.view("datetime64[us]"))
        return self


class PostColumns:
    """Columnar view of the posts table (shares the store's user codes)."""

    def __init__(self, store: "ColumnStore", posts: Sequence) -> None:
        self.n = len(posts)
        self.author_code = store.user_code_array([p.author_id for p in posts])
        self.is_marketplace = np.array(
            [p.is_marketplace for p in posts], dtype=bool
        )
        stamps = _datetimes64(p.created_at for p in posts)
        self.created_us = stamps.astype(np.int64)
        self.month_idx = _month_indexes(stamps)

    @classmethod
    def from_arrays(cls, store: "ColumnStore", tables: Dict[str, np.ndarray]) -> "PostColumns":
        """Build from raw table arrays (cache schema ``p_*`` keys)."""
        self = cls.__new__(cls)
        self.n = len(tables["p_author"])
        self.author_code = store.user_code_array(tables["p_author"])
        self.is_marketplace = np.asarray(tables["p_marketplace"], dtype=bool)
        self.created_us = np.asarray(tables["p_created_us"], dtype=np.int64)
        self.month_idx = _month_indexes(self.created_us.view("datetime64[us]"))
        return self


class ColumnStore:
    """Contiguous array mirror of one :class:`MarketDataset` (see module doc)."""

    def __init__(self, dataset) -> None:
        self._dataset = dataset
        contracts: List[Contract] = dataset.contracts
        self.n = len(contracts)

        # -- user universe: every id any table can reference ------------- #
        sources: List[int] = [u.user_id for u in dataset.users]
        sources.extend(c.maker_id for c in contracts)
        sources.extend(c.taker_id for c in contracts)
        sources.extend(r.rater_id for r in dataset.ratings)
        sources.extend(r.ratee_id for r in dataset.ratings)
        sources.extend(p.author_id for p in dataset.posts)
        self.user_ids: np.ndarray = np.unique(np.array(sources, dtype=np.int64))
        self.n_users = len(self.user_ids)

        # -- contract columns -------------------------------------------- #
        self.contract_id = np.array([c.contract_id for c in contracts], dtype=np.int64)
        created = _datetimes64(c.created_at for c in contracts)
        completed = _datetimes64(c.completed_at for c in contracts)
        self.created_us = created.astype(np.int64)
        self.completed_us = completed.astype(np.int64)
        self.maker_id = np.array([c.maker_id for c in contracts], dtype=np.int64)
        self.taker_id = np.array([c.taker_id for c in contracts], dtype=np.int64)
        self.maker_code = self.user_code_array(self.maker_id)
        self.taker_code = self.user_code_array(self.taker_id)
        self.ctype = np.array([_CTYPE_CODE[c.ctype] for c in contracts], dtype=np.int8)
        self.status = np.array([_STATUS_CODE[c.status] for c in contracts], dtype=np.int8)
        self.visibility = np.array(
            [_VIS_CODE[c.visibility] for c in contracts], dtype=np.int8
        )
        self.thread_id = np.array(
            [c.thread_id if c.thread_id is not None else -1 for c in contracts],
            dtype=np.int64,
        )
        self._finalize(created, completed)

    @classmethod
    def from_tables(cls, dataset, tables: Dict[str, np.ndarray]) -> "ColumnStore":
        """Build a store straight from raw table arrays — no objects.

        ``tables`` uses the cache column schema (``user_id``/``c_*``/
        ``p_*``/``r_*`` keys; enum codes index the canonical orders, int64
        microsecond timestamps with :data:`NAT_US` for missing).  This is
        the native path of generated markets and of lazily-loaded
        cache entries: the per-object walk of ``__init__`` is skipped
        entirely, and the ratings/posts blocks also build from the arrays.
        """
        self = cls.__new__(cls)
        self._dataset = dataset
        self.n = len(tables["c_id"])
        self.user_ids = np.unique(np.asarray(tables["user_id"], dtype=np.int64))
        self.n_users = len(self.user_ids)
        self.contract_id = np.asarray(tables["c_id"], dtype=np.int64)
        self.created_us = np.asarray(tables["c_created_us"], dtype=np.int64)
        self.completed_us = np.asarray(tables["c_completed_us"], dtype=np.int64)
        self.maker_id = np.asarray(tables["c_maker"], dtype=np.int64)
        self.taker_id = np.asarray(tables["c_taker"], dtype=np.int64)
        self.maker_code = self.user_code_array(self.maker_id)
        self.taker_code = self.user_code_array(self.taker_id)
        self.ctype = np.asarray(tables["c_type"], dtype=np.int8)
        self.status = np.asarray(tables["c_status"], dtype=np.int8)
        self.visibility = np.asarray(tables["c_visibility"], dtype=np.int8)
        self.thread_id = np.asarray(tables["c_thread"], dtype=np.int64)
        self._finalize(
            self.created_us.view("datetime64[us]"),
            self.completed_us.view("datetime64[us]"),
        )
        self._tables = tables
        return self

    def _finalize(self, created: np.ndarray, completed: np.ndarray) -> None:
        """Derived columns shared by both constructors (masks, buckets)."""
        self.has_completed = ~np.isnat(completed)
        self.is_complete = self.status == _STATUS_CODE[ContractStatus.COMPLETE]
        self.is_public = self.visibility == _VIS_CODE[Visibility.PUBLIC]
        self.is_bidirectional = (
            (self.ctype == _CTYPE_CODE[ContractType.EXCHANGE])
            | (self.ctype == _CTYPE_CODE[ContractType.TRADE])
        )

        # -- calendar buckets -------------------------------------------- #
        self.month_idx = _month_indexes(created)
        completed_m = _month_indexes(completed)
        # Completion-month semantics of analysis.monthly.completion_month:
        # completed contracts settle in their completion month when dated,
        # else in their creation month; everything else has no bucket.
        self.settled_month_idx = np.where(
            self.is_complete,
            np.where(self.has_completed, completed_m, self.month_idx),
            np.int64(-1),
        )
        self.era_idx = era_indexes_of(self.created_us)

        #: Hours between creation and completion (NaN when undated);
        #: matches ``Contract.completion_hours`` bit for bit.
        diff = (self.completed_us - self.created_us).astype(np.float64)
        with np.errstate(invalid="ignore"):
            self.completion_hours = np.where(
                self.has_completed, (diff / 1e6) / 3600.0, np.nan
            )

        self._tables: Optional[Dict[str, np.ndarray]] = None
        self._ratings: Optional[RatingColumns] = None
        self._posts: Optional[PostColumns] = None
        self._contract_row: Optional[Dict[int, int]] = None
        #: Cross-module memo for derived columns (text features, …).
        self.derived: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # id <-> row maps
    # ------------------------------------------------------------------ #

    def user_code_array(self, user_ids) -> np.ndarray:
        """Map an array/sequence of user ids to compact codes."""
        ids = np.asarray(user_ids, dtype=np.int64)
        return np.searchsorted(self.user_ids, ids).astype(np.int32)

    def user_code(self, user_id: int) -> int:
        """Compact code of one user id (ValueError if unknown)."""
        code = int(np.searchsorted(self.user_ids, user_id))
        if code >= self.n_users or self.user_ids[code] != user_id:
            raise ValueError(f"unknown user id {user_id}")
        return code

    def user_id_of(self, code: int) -> int:
        """Raw user id of one compact code."""
        return int(self.user_ids[code])

    def contract_row(self, contract_id: int) -> int:
        """Row index of one contract id (KeyError if unknown)."""
        if self._contract_row is None:
            self._contract_row = {
                int(cid): row for row, cid in enumerate(self.contract_id)
            }
        return self._contract_row[contract_id]

    # ------------------------------------------------------------------ #
    # lazy blocks
    # ------------------------------------------------------------------ #

    @property
    def ratings(self) -> RatingColumns:
        if self._ratings is None:
            if self._tables is not None:
                self._ratings = RatingColumns.from_arrays(self, self._tables)
            else:
                self._ratings = RatingColumns(self, self._dataset.ratings)
        return self._ratings

    @property
    def posts(self) -> PostColumns:
        if self._posts is None:
            if self._tables is not None:
                self._posts = PostColumns.from_arrays(self, self._tables)
            else:
                self._posts = PostColumns(self, self._dataset.posts)
        return self._posts

    # ------------------------------------------------------------------ #
    # convenience masks
    # ------------------------------------------------------------------ #

    def status_mask(self, status: ContractStatus) -> np.ndarray:
        return self.status == _STATUS_CODE[status]

    def ctype_mask(self, ctype: ContractType) -> np.ndarray:
        return self.ctype == _CTYPE_CODE[ctype]

    def era_mask(self, era_index: int) -> np.ndarray:
        return self.era_idx == era_index

    def completed_public_mask(self) -> np.ndarray:
        return self.is_complete & self.is_public

    def created_in(self, era: Era) -> np.ndarray:
        """Contracts created within ``era``, both end days included
        (``Era.contains``); any span, not only the three of ``ERAS``."""
        return self.window_mask(
            self.created_us,
            _dt.datetime.combine(era.start, _dt.time.min),
            _dt.datetime.combine(era.end, _dt.time.max),
        )

    def window_mask(
        self,
        stamps: np.ndarray,
        start: Optional[_dt.datetime] = None,
        end: Optional[_dt.datetime] = None,
    ) -> np.ndarray:
        """Inclusive ``[start, end]`` mask over an int64-microsecond column."""
        mask = stamps != NAT_US
        if start is not None:
            mask &= stamps >= _us_of(start)
        if end is not None:
            mask &= stamps <= _us_of(end)
        return mask


def _us_of(when: _dt.datetime) -> int:
    """Exact integer microseconds since epoch for a naive datetime."""
    delta = when - _EPOCH
    return (delta.days * 86400 + delta.seconds) * 1_000_000 + delta.microseconds
