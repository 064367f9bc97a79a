"""The :class:`MarketDataset` container — the library's central data hub.

Every analysis in this library is a pure function of a ``MarketDataset``.
The container holds the five entity collections (users, contracts, threads,
posts, ratings) and maintains lazy indexes for the access patterns the
paper's analyses need: lookups by id, per-maker/taker contract lists,
per-month buckets, and per-user activity summaries (the "cold start
variables" of §5.2).
"""

from __future__ import annotations

import datetime as _dt
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .entities import (
    Contract,
    ContractStatus,
    ContractType,
    Post,
    Rating,
    Thread,
    User,
    Visibility,
)
from .eras import Era
from ..obs.tracer import get_tracer
from .timeutils import Month, month_of

__all__ = ["MarketDataset", "UserActivity"]


@dataclass
class UserActivity:
    """Aggregated per-user activity over a span of the dataset.

    These are the paper's *cold start variables* (§5.2): ratings received,
    disputes, marketplace post count, contracts initiated/accepted and
    completed, plus participation dates used to compute the ``length``
    covariate.
    """

    user_id: int
    positive_ratings: int = 0
    negative_ratings: int = 0
    disputes: int = 0
    marketplace_posts: int = 0
    total_posts: int = 0
    initiated: int = 0
    accepted: int = 0
    completed: int = 0
    first_contract_at: Optional[_dt.datetime] = None
    first_post_at: Optional[_dt.datetime] = None
    last_active_at: Optional[_dt.datetime] = None

    @property
    def reputation(self) -> int:
        """Net reputation score: positive minus negative ratings."""
        return self.positive_ratings - self.negative_ratings

    def length_days(self, as_of: _dt.datetime) -> float:
        """Days since first activity (post or contract) up to ``as_of``."""
        candidates = [t for t in (self.first_post_at, self.first_contract_at) if t]
        if not candidates:
            return 0.0
        return max(0.0, (as_of - min(candidates)).total_seconds() / 86400.0)

    def lifespan_days(self) -> float:
        """Days between first and last observed activity."""
        candidates = [t for t in (self.first_post_at, self.first_contract_at) if t]
        if not candidates or self.last_active_at is None:
            return 0.0
        return max(0.0, (self.last_active_at - min(candidates)).total_seconds() / 86400.0)


class MarketDataset:
    """An immutable-by-convention collection of marketplace entities.

    Parameters
    ----------
    users, contracts, threads, posts, ratings:
        Entity sequences.  The constructor copies them into lists and sorts
        contracts and posts by ``(created_at, id)``.  A
        :class:`~repro.core.lazy.ColumnBackedDataset` keeps its tables'
        row order instead, so analyses must not rely on creation order.
    """

    def __init__(
        self,
        users: Sequence[User] = (),
        contracts: Sequence[Contract] = (),
        threads: Sequence[Thread] = (),
        posts: Sequence[Post] = (),
        ratings: Sequence[Rating] = (),
    ) -> None:
        self.users: List[User] = list(users)
        self.contracts: List[Contract] = sorted(contracts, key=lambda c: (c.created_at, c.contract_id))
        self.threads: List[Thread] = list(threads)
        self.posts: List[Post] = sorted(posts, key=lambda p: (p.created_at, p.post_id))
        self.ratings: List[Rating] = list(ratings)

        self._users_by_id: Optional[Dict[int, User]] = None
        self._threads_by_id: Optional[Dict[int, Thread]] = None
        self._contracts_by_id: Optional[Dict[int, Contract]] = None
        self._by_maker: Optional[Dict[int, List[Contract]]] = None
        self._by_taker: Optional[Dict[int, List[Contract]]] = None
        self._by_created_month: Optional[Dict[Month, List[Contract]]] = None
        self._by_completed_month: Optional[Dict[Month, List[Contract]]] = None
        self._columns = None

    def columns(self):
        """The dataset's :class:`~repro.core.columns.ColumnStore` (lazy).

        Built on first use and cached; the store mirrors the entity lists
        as contiguous NumPy arrays for the vectorized analysis kernels.
        """
        if self._columns is None:
            from .columns import ColumnStore

            tracer = get_tracer()
            with tracer.span("columns.build"):
                self._columns = ColumnStore(self)
            tracer.count("columns.builds")
        return self._columns

    # ------------------------------------------------------------------ #
    # basic lookups
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.contracts)

    def __iter__(self) -> Iterator[Contract]:
        return iter(self.contracts)

    def user(self, user_id: int) -> User:
        """Return the user with ``user_id`` (KeyError if absent)."""
        if self._users_by_id is None:
            self._users_by_id = {u.user_id: u for u in self.users}
        return self._users_by_id[user_id]

    def has_user(self, user_id: int) -> bool:
        if self._users_by_id is None:
            self._users_by_id = {u.user_id: u for u in self.users}
        return user_id in self._users_by_id

    def thread(self, thread_id: int) -> Thread:
        """Return the thread with ``thread_id`` (KeyError if absent)."""
        if self._threads_by_id is None:
            self._threads_by_id = {t.thread_id: t for t in self.threads}
        return self._threads_by_id[thread_id]

    def contract(self, contract_id: int) -> Contract:
        """Return the contract with ``contract_id`` (KeyError if absent)."""
        if self._contracts_by_id is None:
            self._contracts_by_id = {c.contract_id: c for c in self.contracts}
        return self._contracts_by_id[contract_id]

    def contracts_at(self, rows) -> List[Contract]:
        """The contracts at store ``rows`` (row ``i`` of
        :meth:`columns` is ``contracts[i]``), in the order given."""
        import numpy as np

        contracts = self.contracts
        return [contracts[row] for row in np.asarray(rows, dtype=np.int64).tolist()]

    # ------------------------------------------------------------------ #
    # contract filters
    # ------------------------------------------------------------------ #

    def filter(self, predicate: Callable[[Contract], bool]) -> List[Contract]:
        """All contracts satisfying ``predicate``, in creation order."""
        return [c for c in self.contracts if predicate(c)]

    def completed(self) -> List[Contract]:
        """Contracts whose status is COMPLETE."""
        return self.filter(lambda c: c.is_complete)

    def public(self) -> List[Contract]:
        """Contracts with PUBLIC visibility."""
        return self.filter(lambda c: c.is_public)

    def completed_public(self) -> List[Contract]:
        """The subset most analyses use: completed *and* public."""
        return self.filter(lambda c: c.is_complete and c.is_public)

    def of_type(self, ctype: ContractType) -> List[Contract]:
        return self.filter(lambda c: c.ctype == ctype)

    def economic(self) -> List[Contract]:
        """All contracts except VOUCH_COPY (reputation proofs)."""
        return self.filter(lambda c: c.is_economic)

    def in_era(self, era: Era, by_completion: bool = False) -> List[Contract]:
        """Contracts created (or completed) within ``era``."""
        if by_completion:
            return self.filter(
                lambda c: c.completed_at is not None and era.contains(c.completed_at)
            )
        return self.filter(lambda c: era.contains(c.created_at))

    def in_month(self, month: Month, by_completion: bool = False) -> List[Contract]:
        """Contracts created (or completed) within calendar ``month``."""
        index = (
            self.contracts_by_completed_month()
            if by_completion
            else self.contracts_by_created_month()
        )
        return list(index.get(month, ()))

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #

    def contracts_by_maker(self) -> Dict[int, List[Contract]]:
        """Map maker user id -> contracts they initiated."""
        if self._by_maker is None:
            index: Dict[int, List[Contract]] = defaultdict(list)
            for contract in self.contracts:
                index[contract.maker_id].append(contract)
            self._by_maker = dict(index)
        return self._by_maker

    def contracts_by_taker(self) -> Dict[int, List[Contract]]:
        """Map taker user id -> contracts they were named in."""
        if self._by_taker is None:
            index: Dict[int, List[Contract]] = defaultdict(list)
            for contract in self.contracts:
                index[contract.taker_id].append(contract)
            self._by_taker = dict(index)
        return self._by_taker

    def contracts_by_created_month(self) -> Dict[Month, List[Contract]]:
        """Map calendar month -> contracts created that month."""
        if self._by_created_month is None:
            index: Dict[Month, List[Contract]] = defaultdict(list)
            for contract in self.contracts:
                index[month_of(contract.created_at)].append(contract)
            self._by_created_month = dict(index)
        return self._by_created_month

    def contracts_by_completed_month(self) -> Dict[Month, List[Contract]]:
        """Map calendar month -> contracts completed that month."""
        if self._by_completed_month is None:
            index: Dict[Month, List[Contract]] = defaultdict(list)
            for contract in self.contracts:
                if contract.is_complete and contract.completed_at is not None:
                    index[month_of(contract.completed_at)].append(contract)
            self._by_completed_month = dict(index)
        return self._by_completed_month

    def participant_ids(self) -> Set[int]:
        """Ids of every user who is party to at least one contract.

        A vectorized unique over the columnar store's maker/taker columns.
        """
        import numpy as np

        store = self.columns()
        return set(
            np.unique(np.concatenate([store.maker_id, store.taker_id])).tolist()
        )

    # ------------------------------------------------------------------ #
    # per-user activity (cold start variables)
    # ------------------------------------------------------------------ #

    def user_activity(
        self,
        start: Optional[_dt.datetime] = None,
        end: Optional[_dt.datetime] = None,
    ) -> Dict[int, UserActivity]:
        """Compute per-user activity summaries over ``[start, end]``.

        Both bounds are inclusive and optional; omitted bounds span the
        whole dataset.  Only users who are party to at least one contract
        in the window (or who posted or were rated in it) appear in the
        result.  All counts are grouped array reductions (bincount and
        min/max per user code) over the columnar store.
        """
        import numpy as np

        from .columns import NAT_US

        store = self.columns()
        n_users = store.n_users
        int64_max = np.iinfo(np.int64).max

        counts = {
            name: np.zeros(n_users, dtype=np.int64)
            for name in (
                "initiated", "accepted", "completed", "disputes",
                "positive", "negative", "posts", "marketplace",
            )
        }
        first_contract = np.full(n_users, int64_max, dtype=np.int64)
        first_post = np.full(n_users, int64_max, dtype=np.int64)
        last_active = np.full(n_users, NAT_US, dtype=np.int64)

        cmask = store.window_mask(store.created_us, start, end)
        if cmask.any():
            maker = store.maker_code[cmask]
            taker = store.taker_code[cmask]
            created = store.created_us[cmask]
            counts["initiated"] += np.bincount(maker, minlength=n_users)
            counts["accepted"] += np.bincount(taker, minlength=n_users)
            complete = store.is_complete[cmask]
            disputed = store.status_mask(ContractStatus.DISPUTED)[cmask]
            for sub, name in ((complete, "completed"), (disputed, "disputes")):
                counts[name] += np.bincount(maker[sub], minlength=n_users)
                counts[name] += np.bincount(taker[sub], minlength=n_users)
            for code in (maker, taker):
                np.minimum.at(first_contract, code, created)
                np.maximum.at(last_active, code, created)

        if self._has_ratings():
            ratings = store.ratings
            rmask = store.window_mask(ratings.created_us, start, end)
            positive = rmask & (ratings.score > 0)
            negative = rmask & (ratings.score <= 0)
            counts["positive"] += np.bincount(
                ratings.ratee_code[positive], minlength=n_users
            )
            counts["negative"] += np.bincount(
                ratings.ratee_code[negative], minlength=n_users
            )

        if self._has_posts():
            posts = store.posts
            pmask = store.window_mask(posts.created_us, start, end)
            if pmask.any():
                author = posts.author_code[pmask]
                created = posts.created_us[pmask]
                counts["posts"] += np.bincount(author, minlength=n_users)
                counts["marketplace"] += np.bincount(
                    posts.author_code[pmask & posts.is_marketplace],
                    minlength=n_users,
                )
                np.minimum.at(first_post, author, created)
                np.maximum.at(last_active, author, created)

        touched = (
            counts["initiated"] + counts["accepted"] + counts["positive"]
            + counts["negative"] + counts["posts"]
        ) > 0
        idx = np.nonzero(touched)[0]
        # Bulk-convert the touched slices to Python objects once —
        # per-element numpy scalar indexing would dominate the runtime.
        user_ids = store.user_ids[idx].tolist()
        lists = {name: counts[name][idx].tolist() for name in counts}
        # int64-min is numpy's NaT, so sentinel slots become None for free.
        fc = np.where(first_contract[idx] == int64_max, NAT_US, first_contract[idx])
        fp = np.where(first_post[idx] == int64_max, NAT_US, first_post[idx])
        first_contract_at = fc.astype("datetime64[us]").tolist()
        first_post_at = fp.astype("datetime64[us]").tolist()
        last_active_at = last_active[idx].astype("datetime64[us]").tolist()

        activity: Dict[int, UserActivity] = {}
        for i, user_id in enumerate(user_ids):
            activity[user_id] = UserActivity(
                user_id=user_id,
                positive_ratings=lists["positive"][i],
                negative_ratings=lists["negative"][i],
                disputes=lists["disputes"][i],
                marketplace_posts=lists["marketplace"][i],
                total_posts=lists["posts"][i],
                initiated=lists["initiated"][i],
                accepted=lists["accepted"][i],
                completed=lists["completed"][i],
                first_contract_at=first_contract_at[i],
                first_post_at=first_post_at[i],
                last_active_at=last_active_at[i],
            )
        return activity

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, int]:
        """Headline counts, handy for logging and quick sanity checks.

        Contract-derived counts are read off the columnar store.
        """
        import numpy as np

        store = self.columns()
        participants = np.unique(
            np.concatenate([store.maker_code, store.taker_code])
        ).size
        completed = int(store.is_complete.sum())
        public = int(store.is_public.sum())
        counts = self._entity_counts()
        return {
            "users": counts["users"],
            "contracts": counts["contracts"],
            "completed_contracts": completed,
            "public_contracts": public,
            "threads": counts["threads"],
            "posts": counts["posts"],
            "ratings": counts["ratings"],
            "participants": participants,
        }

    def _entity_counts(self) -> Dict[str, int]:
        """Entity-table sizes; overridden by column-backed datasets so
        counting never forces object materialization."""
        return {
            "users": len(self.users),
            "contracts": len(self.contracts),
            "threads": len(self.threads),
            "posts": len(self.posts),
            "ratings": len(self.ratings),
        }

    def _has_ratings(self) -> bool:
        return len(self.ratings) > 0

    def _has_posts(self) -> bool:
        return len(self.posts) > 0

    def subset(self, contracts: Iterable[Contract]) -> "MarketDataset":
        """A new dataset sharing users/threads/posts but restricted contracts.

        Ratings are filtered to those attached to the kept contracts (one
        set lookup built once).  Id indexes already built on this dataset
        are handed to the child, since its users and threads are shared.
        """
        kept = list(contracts)
        kept_ids = {c.contract_id for c in kept}
        child = MarketDataset(
            users=self.users,
            contracts=kept,
            threads=self.threads,
            posts=self.posts,
            ratings=[r for r in self.ratings if r.contract_id in kept_ids],
        )
        child._users_by_id = self._users_by_id
        child._threads_by_id = self._threads_by_id
        return child
