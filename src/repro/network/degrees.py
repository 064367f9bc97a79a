"""Degree distributions (Figure 7) and degree growth over time (Figure 8).

Both figures are computed twice: over *created* contracts (everything in
the dataset) and over *completed* contracts only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.columns import month_from_index
from ..core.dataset import MarketDataset
from ..core.entities import Contract
from ..core.timeutils import Month
from .graph import DEGREE_KINDS, ContractGraph

__all__ = [
    "DegreeDistributions",
    "DegreeGrowthPoint",
    "degree_distributions",
    "dataset_degree_distributions",
    "degree_growth",
]


@dataclass
class DegreeDistributions:
    """Figure 7's data: degree histograms for one contract set.

    ``histogram[kind][d]`` is the number of users with degree ``d``;
    ``max_degree[kind]`` the highest degree observed.
    """

    histogram: Dict[str, Dict[int, int]]
    max_degree: Dict[str, int]
    average_degree: Dict[str, float]
    n_users: int
    n_contracts: int

    def truncated(self, kind: str, limit: int = 15) -> Dict[int, int]:
        """Histogram restricted to degrees 0..limit (as plotted)."""
        return {
            degree: count
            for degree, count in sorted(self.histogram[kind].items())
            if degree <= limit
        }


def degree_distributions(contracts: Sequence[Contract]) -> DegreeDistributions:
    """Compute raw/inbound/outbound degree distributions for a contract set."""
    graph = ContractGraph(contracts)
    histogram: Dict[str, Dict[int, int]] = {}
    max_degree: Dict[str, int] = {}
    average_degree: Dict[str, float] = {}
    for kind in DEGREE_KINDS:
        degrees = graph.degree_array(kind)
        histogram[kind] = dict(sorted(Counter(degrees.tolist()).items()))
        max_degree[kind] = int(degrees.max()) if len(degrees) else 0
        average_degree[kind] = float(degrees.mean()) if len(degrees) else 0.0
    return DegreeDistributions(
        histogram=histogram,
        max_degree=max_degree,
        average_degree=average_degree,
        n_users=len(graph),
        n_contracts=graph.n_contracts,
    )


def _edge_arrays(
    store, mask: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(maker, taker, bidirectional) code columns for the selected rows."""
    if mask is None:
        return store.maker_code, store.taker_code, store.is_bidirectional
    return store.maker_code[mask], store.taker_code[mask], store.is_bidirectional[mask]


def _unique_undirected(
    maker: np.ndarray, taker: np.ndarray, n_users: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct undirected edges as (low, high) endpoint arrays."""
    low = np.minimum(maker, taker).astype(np.int64)
    high = np.maximum(maker, taker).astype(np.int64)
    keys = np.unique(low * n_users + high)
    return keys // n_users, keys % n_users


def _unique_directed(
    maker: np.ndarray, taker: np.ndarray, bidirectional: np.ndarray, n_users: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct directed edges (src, dst); bidirectional rows add both."""
    src = np.concatenate([maker, taker[bidirectional]]).astype(np.int64)
    dst = np.concatenate([taker, maker[bidirectional]]).astype(np.int64)
    keys = np.unique(src * n_users + dst)
    return keys // n_users, keys % n_users


def _histogram_of(degrees: np.ndarray) -> Dict[int, int]:
    values, counts = np.unique(degrees, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def dataset_degree_distributions(
    dataset: MarketDataset, completed_only: bool = False
) -> DegreeDistributions:
    """Figure 7 over a whole dataset (created or completed contracts).

    Distinct-counterparty degrees come from the columnar store: edges
    are deduplicated with one ``np.unique`` over packed endpoint keys
    and degrees read off with ``np.bincount`` — no Python per-contract
    loop and no set-of-sets adjacency.
    """
    store = dataset.columns()
    mask = store.is_complete if completed_only else None
    maker, taker, bidirectional = _edge_arrays(store, mask)
    n_contracts = len(maker)
    nodes = np.unique(np.concatenate([maker, taker]))
    if not len(nodes):
        return DegreeDistributions(
            histogram={kind: {} for kind in DEGREE_KINDS},
            max_degree={kind: 0 for kind in DEGREE_KINDS},
            average_degree={kind: 0.0 for kind in DEGREE_KINDS},
            n_users=0,
            n_contracts=0,
        )

    n_users = store.n_users
    low, high = _unique_undirected(maker, taker, n_users)
    # A self-contract contributes a single entry to its own raw set.
    raw_endpoints = np.concatenate([low, high[high != low]])
    src, dst = _unique_directed(maker, taker, bidirectional, n_users)

    per_kind = {
        "raw": np.bincount(raw_endpoints, minlength=n_users)[nodes],
        "inbound": np.bincount(dst, minlength=n_users)[nodes],
        "outbound": np.bincount(src, minlength=n_users)[nodes],
    }
    histogram: Dict[str, Dict[int, int]] = {}
    max_degree: Dict[str, int] = {}
    average_degree: Dict[str, float] = {}
    for kind in DEGREE_KINDS:
        degrees = per_kind[kind]
        histogram[kind] = _histogram_of(degrees)
        max_degree[kind] = int(degrees.max())
        average_degree[kind] = float(degrees.mean())
    return DegreeDistributions(
        histogram=histogram,
        max_degree=max_degree,
        average_degree=average_degree,
        n_users=int(len(nodes)),
        n_contracts=n_contracts,
    )


@dataclass
class DegreeGrowthPoint:
    """One month of Figure 8: cumulative-network degree summaries."""

    month: Month
    average_raw: float
    max_raw: int
    max_inbound: int
    max_outbound: int


def _first_months(
    keys: np.ndarray, months: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Unique keys plus the earliest month index each key appears in."""
    unique, inverse = np.unique(keys, return_inverse=True)
    first = np.full(len(unique), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, inverse, months)
    return unique, first


def _replay_degree_growth(
    raw: Tuple[np.ndarray, np.ndarray],
    directed: Tuple[np.ndarray, np.ndarray],
    node_first: np.ndarray,
    months: range,
    n_users: int,
) -> List[DegreeGrowthPoint]:
    """Replay the cumulative network month by month (Figure 8's series).

    ``raw`` and ``directed`` are :func:`_first_months` pairs of distinct
    edge keys — undirected ``low * n_users + high``, directed ``src *
    n_users + dst`` — and the month each first occurs; ``node_first``
    holds the first month of every distinct node.  Each month in
    ``months`` adds its new edges to running degree arrays with one
    batched ``np.add.at`` update.
    """
    raw_keys, raw_first = raw
    directed_keys, directed_first = directed
    deg_raw = np.zeros(n_users, dtype=np.int64)
    deg_in = np.zeros(n_users, dtype=np.int64)
    deg_out = np.zeros(n_users, dtype=np.int64)
    raw_sum = 0
    present = 0
    series: List[DegreeGrowthPoint] = []
    for idx in months:
        new_raw = raw_keys[raw_first == idx]
        low, high = new_raw // n_users, new_raw % n_users
        np.add.at(deg_raw, low, 1)
        selfless = high != low
        np.add.at(deg_raw, high[selfless], 1)
        raw_sum += len(low) + int(selfless.sum())
        new_directed = directed_keys[directed_first == idx]
        np.add.at(deg_out, new_directed // n_users, 1)
        np.add.at(deg_in, new_directed % n_users, 1)
        present += int((node_first == idx).sum())
        series.append(
            DegreeGrowthPoint(
                month=month_from_index(idx),
                average_raw=raw_sum / present if present else 0.0,
                max_raw=int(deg_raw.max()),
                max_inbound=int(deg_in.max()),
                max_outbound=int(deg_out.max()),
            )
        )
    return series


def degree_growth(
    dataset: MarketDataset, completed_only: bool = False
) -> List[DegreeGrowthPoint]:
    """Cumulative degree growth month by month (Figure 8).

    The network at month *m* contains every qualifying contract created
    up to the end of *m*.  The first month each distinct edge and node
    appears is precomputed from the columnar store, then
    :func:`_replay_degree_growth` replays the months.
    """
    store = dataset.columns()
    mask = store.is_complete if completed_only else None
    maker, taker, bidirectional = _edge_arrays(store, mask)
    if not len(maker):
        return []
    months = (store.month_idx[mask] if mask is not None else store.month_idx).astype(
        np.int64
    )
    n_users = store.n_users
    maker64, taker64 = maker.astype(np.int64), taker.astype(np.int64)
    src = np.concatenate([maker64, taker64[bidirectional]])
    dst = np.concatenate([taker64, maker64[bidirectional]])
    return _replay_degree_growth(
        raw=_first_months(
            np.minimum(maker64, taker64) * n_users + np.maximum(maker64, taker64),
            months,
        ),
        directed=_first_months(
            src * n_users + dst, np.concatenate([months, months[bidirectional]])
        ),
        node_first=_first_months(
            np.concatenate([maker64, taker64]), np.concatenate([months, months])
        )[1],
        months=range(int(months.min()), int(months.max()) + 1),
        n_users=n_users,
    )
