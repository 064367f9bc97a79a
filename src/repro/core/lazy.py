"""Column-backed datasets: entity objects as a *lazy view* over arrays.

The market generator (:mod:`repro.synth.fastgen`) and the
dataset cache both hold a finished market as a dict of NumPy arrays (the
cache column schema: ``user_id``/``user_*``, ``c_*``, ``t_*``, ``p_*``,
``r_*`` keys).  :class:`ColumnBackedDataset` wraps such a table dict in
the :class:`~repro.core.dataset.MarketDataset` interface without paying
for object construction up front:

* ``columns()`` builds the :class:`~repro.core.columns.ColumnStore`
  straight from the arrays (``ColumnStore.from_tables``), so the
  vectorized analysis kernels never touch an entity object;
* the ``users``/``contracts``/``threads``/``posts``/``ratings``
  attributes are properties that materialize the corresponding object
  list on first access and cache it — object consumers keep working,
  they just pay the conversion cost only when (and if) they actually
  iterate objects.

The materializers keep the tables' row order; they do not sort.  The
generator's rows are month-major (each month's rows follow the previous
month's) but not chronological within a month, where contracts come
grouped by type: at scale 0.02, seed 123, 1,926 of 3,861 adjacent
contract pairs run backwards in time.  A plain
:class:`~repro.core.dataset.MarketDataset` (``load_dataset``, say)
sorts contracts and posts by ``(created_at, id)`` instead, so the order
of ``dataset.contracts`` depends on where the dataset came from.  The
analyses do not depend on it (``tests/test_store_parity.py``); code that
needs chronological order sorts for itself.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, List, Optional

import numpy as np

from ..obs.tracer import get_tracer
from .columns import CTYPE_ORDER, STATUS_ORDER, VISIBILITY_ORDER, datetime_from_us
from .dataset import MarketDataset
from .entities import Contract, Post, Rating, Thread, User

__all__ = [
    "RATING_SENTINEL",
    "ColumnBackedDataset",
    "users_from_tables",
    "contracts_from_tables",
    "threads_from_tables",
    "posts_from_tables",
    "ratings_from_tables",
]

#: ``None`` marker for the nullable int8 rating columns.  0 is a
#: legitimate rating value, so the sentinel sits at the far end of int8.
RATING_SENTINEL = -128


def _when(us: int) -> Optional[_dt.datetime]:
    return datetime_from_us(us)


def _rating(raw: int) -> Optional[int]:
    return None if raw == RATING_SENTINEL else raw


def users_from_tables(cols: Dict[str, np.ndarray]) -> List[User]:
    """Materialize the user list from ``user_*`` columns (row order kept)."""
    return [
        User(
            user_id=int(cols["user_id"][i]),
            joined_forum_at=_when(int(cols["user_joined_us"][i])),
            first_post_at=_when(int(cols["user_first_post_us"][i])),
            latent_class=str(cols["user_class"][i]) or None,
        )
        for i in range(len(cols["user_id"]))
    ]


def contracts_from_tables(cols: Dict[str, np.ndarray]) -> List[Contract]:
    """Materialize the contract list from ``c_*`` columns (row order kept)."""
    return [
        Contract(
            contract_id=int(cols["c_id"][i]),
            ctype=CTYPE_ORDER[cols["c_type"][i]],
            status=STATUS_ORDER[cols["c_status"][i]],
            visibility=VISIBILITY_ORDER[cols["c_visibility"][i]],
            maker_id=int(cols["c_maker"][i]),
            taker_id=int(cols["c_taker"][i]),
            created_at=_when(int(cols["c_created_us"][i])),
            completed_at=_when(int(cols["c_completed_us"][i])),
            maker_obligation=str(cols["c_maker_obligation"][i]),
            taker_obligation=str(cols["c_taker_obligation"][i]),
            terms=str(cols["c_terms"][i]),
            maker_rating=_rating(int(cols["c_maker_rating"][i])),
            taker_rating=_rating(int(cols["c_taker_rating"][i])),
            thread_id=(
                int(cols["c_thread"][i]) if cols["c_thread"][i] >= 0 else None
            ),
            btc_address=str(cols["c_btc_address"][i]) or None,
            btc_txhash=str(cols["c_btc_txhash"][i]) or None,
        )
        for i in range(len(cols["c_id"]))
    ]


def threads_from_tables(cols: Dict[str, np.ndarray]) -> List[Thread]:
    """Materialize the thread list from ``t_*`` columns."""
    return [
        Thread(
            thread_id=int(cols["t_id"][i]),
            author_id=int(cols["t_author"][i]),
            created_at=_when(int(cols["t_created_us"][i])),
            title=str(cols["t_title"][i]),
            is_marketplace=bool(cols["t_marketplace"][i]),
        )
        for i in range(len(cols["t_id"]))
    ]


def posts_from_tables(cols: Dict[str, np.ndarray]) -> List[Post]:
    """Materialize the post list from ``p_*`` columns (row order kept)."""
    return [
        Post(
            post_id=int(cols["p_id"][i]),
            thread_id=int(cols["p_thread"][i]),
            author_id=int(cols["p_author"][i]),
            created_at=_when(int(cols["p_created_us"][i])),
            is_marketplace=bool(cols["p_marketplace"][i]),
        )
        for i in range(len(cols["p_id"]))
    ]


def ratings_from_tables(cols: Dict[str, np.ndarray]) -> List[Rating]:
    """Materialize the rating list from ``r_*`` columns."""
    return [
        Rating(
            contract_id=int(cols["r_contract"][i]),
            rater_id=int(cols["r_rater"][i]),
            ratee_id=int(cols["r_ratee"][i]),
            score=int(cols["r_score"][i]),
            created_at=_when(int(cols["r_created_us"][i])),
        )
        for i in range(len(cols["r_contract"]))
    ]


class ColumnBackedDataset(MarketDataset):
    """A :class:`MarketDataset` whose entity lists are lazy views.

    Constructed from a table dict instead of object sequences.  Array
    consumers (``columns()``, ``summary()``, ``len()`` and every analysis
    kernel) never trigger object materialization; object consumers
    transparently build the entity lists on first attribute access, once,
    with the result cached for the dataset's lifetime.
    """

    def __init__(self, tables: Dict[str, np.ndarray]) -> None:
        self._tables = tables
        self._materialized: Dict[str, list] = {}
        self._users_by_id = None
        self._threads_by_id = None
        self._contracts_by_id = None
        self._by_maker = None
        self._by_taker = None
        self._by_created_month = None
        self._by_completed_month = None
        self._columns = None

    @property
    def tables(self) -> Dict[str, np.ndarray]:
        """The backing table dict (cache column schema)."""
        return self._tables

    def _ents(self, name: str, build) -> list:
        entities = self._materialized.get(name)
        if entities is None:
            tracer = get_tracer()
            with tracer.span(f"lazy.materialize.{name}"):
                entities = build(self._tables)
            tracer.count("lazy.materializations")
            self._materialized[name] = entities
        return entities

    @property
    def users(self) -> List[User]:
        return self._ents("users", users_from_tables)

    @property
    def contracts(self) -> List[Contract]:
        return self._ents("contracts", contracts_from_tables)

    @property
    def threads(self) -> List[Thread]:
        return self._ents("threads", threads_from_tables)

    @property
    def posts(self) -> List[Post]:
        return self._ents("posts", posts_from_tables)

    @property
    def ratings(self) -> List[Rating]:
        return self._ents("ratings", ratings_from_tables)

    # -- array-native overrides (no materialization) -------------------- #

    def __len__(self) -> int:
        return len(self._tables["c_id"])

    def columns(self):
        """ColumnStore built directly from the backing tables."""
        if self._columns is None:
            from .columns import ColumnStore

            tracer = get_tracer()
            with tracer.span("columns.from_tables"):
                self._columns = ColumnStore.from_tables(self, self._tables)
            tracer.count("columns.builds")
        return self._columns

    def _entity_counts(self) -> Dict[str, int]:
        return {
            "users": len(self._tables["user_id"]),
            "contracts": len(self._tables["c_id"]),
            "threads": len(self._tables["t_id"]),
            "posts": len(self._tables["p_id"]),
            "ratings": len(self._tables["r_contract"]),
        }

    def _has_ratings(self) -> bool:
        return len(self._tables["r_contract"]) > 0

    def _has_posts(self) -> bool:
        return len(self._tables["p_id"]) > 0
