"""User population model: class rosters, arrivals, churn and attachment.

Each behavioural class (A..L) maintains a roster of currently-active
members.  When the simulator assigns a contract to a class it either
*reuses* an existing roster member — picked with preferential attachment,
weight ``(1 + past_contracts) ** alpha`` — or *spawns* a new member (a
"new member joining the marketplace" in Figure 1's sense).  Reuse
probabilities and lifetimes depend on the class tier: 'single' classes
churn fast, 'power' classes persist and accumulate hub degrees (producing
Figure 7's heavy-tailed degree distributions).

:class:`ArrayPopulation`, used by :mod:`repro.synth.fastgen`, builds no
objects: per-user attributes live in growable NumPy arrays, spawns
happen in batches, the rosters are array-backed (:class:`ClassRoster`,
so the monthly cull is one vectorized mask), and preferential
attachment draws by cumsum and binary search, or by Walker alias
sampling (:class:`AliasSampler`: O(roster) table build, O(1) per draw)
when a batch's draws dwarf the roster.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from . import config as cfg

__all__ = ["AliasSampler", "ClassRoster", "ArrayPopulation"]

_US_PER_DAY = 86_400_000_000
_US_PER_HOUR = 3_600_000_000


def _grow(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` with capacity for ``needed`` rows (amortized 2x)."""
    if needed <= len(array):
        return array
    capacity = max(needed, 2 * len(array), 16)
    grown = np.empty(capacity, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class AliasSampler:
    """Walker alias method: O(n) build, O(1) per weighted draw.

    Built once per (class, acquisition batch) from the roster's
    attachment weights; drawing ``k`` samples costs two array lookups
    per sample instead of the O(log n) binary search of
    ``Generator.choice(p=...)`` (and no O(n) cumsum per call).
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        n = len(weights)
        if n == 0:
            raise ValueError("alias table needs at least one weight")
        self.n = n
        scaled = weights * (n / weights.sum())
        self.prob = np.ones(n, dtype=np.float64)
        self.alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s, l = small.pop(), large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = l
            scaled[l] += scaled[s] - 1.0
            (small if scaled[l] < 1.0 else large).append(l)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` indices drawn proportionally to the build weights."""
        slots = rng.integers(0, self.n, size=size)
        coins = rng.random(size)
        return np.where(coins < self.prob[slots], slots, self.alias[slots])


class ClassRoster:
    """Active members of one behavioural class (array-backed).

    ``user_ids`` / ``contract_counts`` / ``expiry`` are exposed as array
    views over an amortized-growth backing store, so a batch append is
    one slice assignment and :meth:`cull` compacts with one boolean mask
    — and does nothing at all when no member expired (the common case
    month over month).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._user_ids = np.empty(0, dtype=np.int64)
        self._contract_counts = np.empty(0, dtype=np.int64)
        self._expiry = np.empty(0, dtype=np.int64)
        self._n = 0

    @property
    def user_ids(self) -> np.ndarray:
        return self._user_ids[: self._n]

    @property
    def contract_counts(self) -> np.ndarray:
        return self._contract_counts[: self._n]

    @property
    def expiry(self) -> np.ndarray:
        return self._expiry[: self._n]

    def extend(self, user_ids: np.ndarray, expiry: np.ndarray) -> None:
        """Bulk-append members with zero past contracts (vectorized)."""
        count = len(user_ids)
        if not count:
            return
        n = self._n
        needed = n + count
        self._user_ids = _grow(self._user_ids, needed)
        self._contract_counts = _grow(self._contract_counts, needed)
        self._expiry = _grow(self._expiry, needed)
        self._user_ids[n:needed] = user_ids
        self._contract_counts[n:needed] = 0
        self._expiry[n:needed] = expiry
        self._n = needed

    def cull(self, month_index: int) -> None:
        """Drop members whose lifetime ended before ``month_index``.

        A vectorized compaction that short-circuits when every member is
        still alive — the historical implementation rebuilt three
        parallel Python lists every month even when nothing expired.
        """
        keep = self._expiry[: self._n] > month_index
        kept = int(np.count_nonzero(keep))
        if kept == self._n:
            return
        self._user_ids[:kept] = self._user_ids[: self._n][keep]
        self._contract_counts[:kept] = self._contract_counts[: self._n][keep]
        self._expiry[:kept] = self._expiry[: self._n][keep]
        self._n = kept

    def __len__(self) -> int:
        return self._n


class ArrayPopulation:
    """Columnar population for :mod:`repro.synth.fastgen` — no objects.

    Per-user attributes live in parallel growable arrays indexed by a
    0-based *user index* (the user id is ``index + 1``).  Each class keeps an array roster
    (indices / attachment counts / expiry months) and batch acquisition
    draws the reuse/spawn split, the alias-sampled reuse picks and the
    vectorized spawn attributes in one shot per (class, batch).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        attachment_alpha: float = cfg.ATTACHMENT_ALPHA,
    ) -> None:
        self.rng = rng
        self.attachment_alpha = attachment_alpha
        self.n_users = 0
        # per-user attribute columns (trimmed views via properties)
        self._joined_us = np.empty(0, dtype=np.int64)
        self._class_code = np.empty(0, dtype=np.int8)
        self._scam = np.empty(0, dtype=np.float64)
        self._non_completer = np.empty(0, dtype=bool)
        self._spawn_month = np.empty(0, dtype=np.int32)
        self.rosters: Dict[str, ClassRoster] = {
            name: ClassRoster(name) for name in cfg.CLASS_NAMES
        }
        self._tier_of = {
            name: cfg.CLASS_TIERS[name] for name in cfg.CLASS_NAMES
        }

    # -- per-user attribute views -------------------------------------- #

    @property
    def joined_us(self) -> np.ndarray:
        return self._joined_us[: self.n_users]

    @property
    def class_code(self) -> np.ndarray:
        return self._class_code[: self.n_users]

    @property
    def scam_propensity(self) -> np.ndarray:
        return self._scam[: self.n_users]

    @property
    def non_completer(self) -> np.ndarray:
        return self._non_completer[: self.n_users]

    @property
    def spawn_month(self) -> np.ndarray:
        return self._spawn_month[: self.n_users]

    # ------------------------------------------------------------------ #

    def begin_month(self, month_index: int) -> None:
        """Vectorized roster cull (no-op per class when nothing expired)."""
        for roster in self.rosters.values():
            roster.cull(month_index)

    def _spawn_batch(
        self,
        klass: str,
        count: int,
        month_index: int,
        month_first_day_us: int,
        era_index: int,
    ) -> np.ndarray:
        """Batch-create ``count`` users of ``klass``; returns user indices."""
        rng = self.rng
        tier = self._tier_of[klass]
        lifetimes = rng.geometric(1.0 / cfg.LIFETIME_MONTHS[tier], size=count)
        if era_index == 0:
            back_days = rng.uniform(0, 400, size=count)
        else:
            recent = rng.random(count) < 0.8
            back_days = np.where(
                recent,
                rng.uniform(0, 30, size=count),
                rng.uniform(30, 300, size=count),
            )
        hours = rng.integers(0, 24, size=count)
        joined = (
            month_first_day_us
            + hours * _US_PER_HOUR
            - back_days.astype(np.int64) * _US_PER_DAY
        )
        start = self.n_users
        needed = start + count
        self._joined_us = _grow(self._joined_us, needed)
        self._class_code = _grow(self._class_code, needed)
        self._scam = _grow(self._scam, needed)
        self._non_completer = _grow(self._non_completer, needed)
        self._spawn_month = _grow(self._spawn_month, needed)
        self._joined_us[start:needed] = joined
        self._class_code[start:needed] = cfg.CLASS_NAMES.index(klass)
        self._scam[start:needed] = rng.beta(0.6, 20.0, size=count)
        self._non_completer[start:needed] = (
            rng.random(count) < cfg.NON_COMPLETER_PROB[tier]
        )
        self._spawn_month[start:needed] = month_index
        self.n_users = needed

        indices = np.arange(start, needed, dtype=np.int64)
        expiry = month_index + np.maximum(1, lifetimes.astype(np.int64))
        self.rosters[klass].extend(indices, expiry)
        return indices

    def acquire(
        self,
        klass: str,
        count: int,
        month_index: int,
        month_first_day_us: int,
        era_index: int,
        era_fraction: float,
    ) -> np.ndarray:
        """``count`` acting user indices of ``klass`` (batched).

        A binomial reuse/spawn split, preferential attachment over the
        roster, a vectorized batch spawn for the remainder, and a
        shuffle so the maker/taker pairing downstream is random.
        """
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        rng = self.rng
        tier = self._tier_of[klass]
        reuse_start, reuse_end = cfg.REUSE_PROBS[tier][era_index]
        reuse_prob = reuse_start + (reuse_end - reuse_start) * era_fraction
        roster = self.rosters[klass]

        n_reuse = int(rng.binomial(count, reuse_prob))
        n_new = count - n_reuse
        # Empty roster: spawn only the binomial share (at least one) and
        # let the "reuse" picks draw from the fresh batch, so a class's
        # first batch spawns as many users as a later one would.
        reuse_from_spawns = not len(roster)
        if reuse_from_spawns and n_new == 0:
            n_new, n_reuse = 1, count - 1

        spawned = np.empty(0, dtype=np.int64)
        if n_new:
            spawned = self._spawn_batch(
                klass, n_new, month_index, month_first_day_us, era_index
            )
            roster.contract_counts[len(roster) - n_new:] += 1
        if n_reuse:
            pool = len(roster) if reuse_from_spawns else len(roster) - n_new
            weights = np.power(
                1.0 + roster.contract_counts[:pool].astype(np.float64),
                self.attachment_alpha,
            )
            # The alias table costs a Python-loop build per batch; it only
            # beats one cumsum + binary searches when the draw count
            # dwarfs the roster.
            if n_reuse >= 8 * pool and pool >= 16:
                picks = AliasSampler(weights).draw(rng, n_reuse)
            else:
                cum = np.cumsum(weights)
                picks = np.searchsorted(
                    cum, rng.random(n_reuse) * cum[-1], side="right"
                )
            roster.contract_counts[:pool] += np.bincount(picks, minlength=pool)
            ids = np.concatenate([roster.user_ids[picks], spawned])
        else:
            ids = spawned
        rng.shuffle(ids)
        return ids

    def resolve_collisions(
        self,
        maker: np.ndarray,
        taker: np.ndarray,
        taker_class: np.ndarray,
        month_index: int,
        month_first_day_us: int,
        era_index: int,
    ) -> np.ndarray:
        """Replace takers that collided with their maker (rare, in place)."""
        collisions = np.nonzero(maker == taker)[0]
        for row in collisions:
            klass = cfg.CLASS_NAMES[int(taker_class[row])]
            roster = self.rosters[klass]
            candidates = np.nonzero(roster.user_ids != maker[row])[0]
            if len(candidates):
                pick = int(candidates[int(self.rng.integers(0, len(candidates)))])
                roster.contract_counts[pick] += 1
                taker[row] = roster.user_ids[pick]
            else:
                taker[row] = self._spawn_batch(
                    klass, 1, month_index, month_first_day_us, era_index
                )[0]
                roster.contract_counts[len(roster) - 1] += 1
        return taker
