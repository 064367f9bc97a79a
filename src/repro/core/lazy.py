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
  iterate objects;
* ``contracts_at(rows)`` builds only the requested rows, for the
  analyses that need a few contracts' texts.  The 29 report
  experiments read columns and these row subsets, so a report
  materializes no whole list (``lazy.materializations`` stays 0).

The materializers keep the tables' row order; they do not sort.  The
generator's rows are month-major (each month's rows follow the previous
month's) but not chronological within a month, where contracts come
grouped by type: at scale 0.02, seed 123, 1,926 of 3,861 adjacent
contract pairs run backwards in time.  A plain
:class:`~repro.core.dataset.MarketDataset` (``load_dataset``, say)
sorts contracts and posts by ``(created_at, id)`` instead, so the order
of ``dataset.contracts`` depends on where the dataset came from.  The
analyses do not depend on it: all 29 artefacts, the four latent-class
ones included, render the same bytes from either order
(``tests/test_store_parity.py``); code that needs chronological order
sorts for itself.
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


#: The ``c_*`` columns a :class:`Contract` is built from, in field order.
_CONTRACT_COLUMNS = (
    "c_id", "c_type", "c_status", "c_visibility", "c_maker", "c_taker",
    "c_created_us", "c_completed_us", "c_maker_obligation",
    "c_taker_obligation", "c_terms", "c_maker_rating", "c_taker_rating",
    "c_thread", "c_btc_address", "c_btc_txhash",
)


def contracts_from_tables(
    cols: Dict[str, np.ndarray], rows: Optional[np.ndarray] = None
) -> List[Contract]:
    """Materialize contracts from ``c_*`` columns: every row in table
    order, or only ``rows``, in the order given."""
    index = slice(None) if rows is None else np.asarray(rows, dtype=np.int64)
    # One bulk conversion per column: per-element NumPy scalar reads
    # would dominate the cost.
    values = [cols[key][index].tolist() for key in _CONTRACT_COLUMNS]
    return [
        Contract(
            contract_id=cid,
            ctype=CTYPE_ORDER[ctype],
            status=STATUS_ORDER[status],
            visibility=VISIBILITY_ORDER[visibility],
            maker_id=maker,
            taker_id=taker,
            created_at=_when(created),
            completed_at=_when(completed),
            maker_obligation=str(maker_obligation),
            taker_obligation=str(taker_obligation),
            terms=str(terms),
            maker_rating=_rating(maker_rating),
            taker_rating=_rating(taker_rating),
            thread_id=thread if thread >= 0 else None,
            btc_address=str(address) or None,
            btc_txhash=str(txhash) or None,
        )
        for (
            cid, ctype, status, visibility, maker, taker, created, completed,
            maker_obligation, taker_obligation, terms, maker_rating,
            taker_rating, thread, address, txhash,
        ) in zip(*values)
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

    def contracts_at(self, rows) -> List[Contract]:
        """The contracts at store ``rows``, built from the tables alone."""
        return contracts_from_tables(self._tables, rows)

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
