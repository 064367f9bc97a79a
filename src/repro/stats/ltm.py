"""Latent Transition Modelling on top of the Poisson latent classes.

§5.1: "By creating a Latent Transition Model, we can additionally
understand how users move between classes over time."  The implementation
follows the paper's two-stage approach: fit the latent-class measurement
model on pooled user-month count profiles, then estimate a row-stochastic
transition matrix from each user's consecutive-month class assignments
(with Laplace smoothing so unseen transitions get small mass).

The panel is three aligned arrays, one entry per observation: its count
vector, its period (0, 1, 2, ...) and its unit (a user code).  A unit
appears at most once per period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mixture import PoissonMixtureResult, fit_poisson_mixture

__all__ = ["LatentTransitionResult", "fit_latent_transitions", "successor_rows"]


@dataclass
class LatentTransitionResult:
    """A fitted latent transition model.

    ``assignments[i]`` is the hard class of panel row ``i``;
    ``transition[i, j]`` estimates P(class j at t+1 | class i at t);
    ``occupancy[t, k]`` counts units assigned to class k in period t.
    """

    mixture: PoissonMixtureResult
    transition: np.ndarray              # (K, K), rows sum to 1
    occupancy: np.ndarray               # (T, K)
    assignments: np.ndarray             # (n,) int, aligned with the panel rows

    @property
    def k(self) -> int:
        return self.mixture.k

    @property
    def n_periods(self) -> int:
        return self.occupancy.shape[0]

    def stationary_distribution(self) -> np.ndarray:
        """Left eigenvector of the transition matrix (power iteration)."""
        pi = np.full(self.k, 1.0 / self.k)
        for _ in range(500):
            nxt = pi @ self.transition
            if np.abs(nxt - pi).max() < 1e-12:
                return nxt
            pi = nxt
        return pi

    def persistence(self) -> np.ndarray:
        """Diagonal of the transition matrix: P(stay in class)."""
        return np.diag(self.transition)


def successor_rows(period: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """For each row, the row of the same unit in the next period (−1 if
    the unit is not observed then).  Rows may come in any order."""
    period = np.asarray(period, dtype=np.int64)
    unit = np.asarray(unit, dtype=np.int64)
    if not len(period):
        return np.empty(0, dtype=np.int64)
    width = int(unit.max()) + 1
    key = period * width + unit
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    slot = np.searchsorted(ordered, key + width)
    found = slot < len(ordered)
    found[found] = ordered[slot[found]] == key[found] + width
    return np.where(found, order[np.minimum(slot, len(order) - 1)], -1)


def fit_latent_transitions(
    counts: np.ndarray,
    period: np.ndarray,
    unit: np.ndarray,
    k: int,
    seed: int = 0,
    n_init: int = 3,
    smoothing: float = 0.5,
    feature_names: Optional[Sequence[str]] = None,
    mixture: Optional[PoissonMixtureResult] = None,
) -> LatentTransitionResult:
    """Fit the measurement model and estimate monthly transitions.

    Parameters
    ----------
    counts, period, unit:
        The panel: row ``i`` is unit ``unit[i]``'s count vector in period
        ``period[i]``.  Units may enter and leave; transitions are only
        counted for units observed in two consecutive periods.  The
        mixture's initial seeds are drawn by row index, so the row order
        is part of the input.
    k:
        Number of latent classes (ignored when ``mixture`` is supplied).
    smoothing:
        Laplace pseudo-count added to every transition cell.
    mixture:
        A pre-fitted measurement model to reuse (e.g. from
        :func:`~repro.stats.mixture.select_poisson_mixture`).
    """
    Y = np.asarray(counts, dtype=float)
    period = np.asarray(period, dtype=np.int64)
    if not len(Y):
        raise ValueError("panel contains no observations")

    if mixture is None:
        mixture = fit_poisson_mixture(
            Y, k, n_init=n_init, seed=seed, feature_names=feature_names
        )
    n_classes = mixture.k
    labels = mixture.assign(Y)

    n_periods = int(period.max()) + 1
    occupancy = np.bincount(
        period * n_classes + labels, minlength=n_periods * n_classes
    ).reshape(n_periods, n_classes).astype(float)

    nxt = successor_rows(period, unit)
    moved = nxt >= 0
    counts_kk = smoothing + np.bincount(
        labels[moved] * n_classes + labels[nxt[moved]],
        minlength=n_classes * n_classes,
    ).reshape(n_classes, n_classes)
    transition = counts_kk / counts_kk.sum(axis=1, keepdims=True)

    return LatentTransitionResult(
        mixture=mixture,
        transition=transition,
        occupancy=occupancy,
        assignments=labels,
    )
