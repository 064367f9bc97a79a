"""Incremental kernels over month-partitioned stores.

The resident kernels (:mod:`repro.analysis.monthly`, ``taxonomy``,
``funnel``, ``centralisation``, :mod:`repro.network.degrees`) each take
a materialized dataset whose columns span the whole history.  The
kernels here compute the *same results* — identical result objects,
value for value — by folding one
:class:`~repro.core.partitions.MonthPartition` at a time, so a windowed
or per-era query touches only the months it needs and peak memory is
one partition plus a compact partial state.

Every kernel follows the same three-method contract:

``update(partition)``
    Fold one month partition into the partial state.  Partitions may
    arrive in any order; each must be folded exactly once.
``merge(other)``
    Absorb another kernel's partial state (same kernel type and
    parameters).  States built from disjoint partition sets merge into
    the state of the union — the algebra is commutative and
    associative, so partitions can be folded on separate workers and
    combined.
``finalize()``
    Produce the resident kernel's result type.  ``finalize`` is a pure
    read of the state; it can be called repeatedly.

Parity: each kernel mirrors its resident counterpart's formulas (the
shared helpers in :mod:`repro.core.columns` guarantee identical month
and era bucketing), and ``tests/test_streaming_kernels.py`` asserts
exact equality against the resident kernels on both engines.  The only
representational difference is that partial states key actors by raw
id where resident kernels use table-position codes; every published
number is invariant to that relabeling.

Typical use::

    store, _ = cached_partitioned_store(scale=1.0)
    kernels = [MonthlyVolumeKernel(), EraFunnelKernel()]
    fold_partitions(store, kernels, era="covid19")   # opens 4 months
    growth = kernels[0].finalize()
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.columns import CTYPE_ORDER, STATUS_ORDER, month_from_index
from ..core.eras import ERAS
from ..core.partitions import MonthPartition, PartitionStore
from ..core.timeutils import Month
from ..network.degrees import (
    DegreeGrowthPoint,
    _first_months,
    _replay_degree_growth,
)
from ..obs.tracer import get_tracer
from ..stats.descriptive import gini
from .centralisation import (
    KEY_PERCENT,
    ConcentrationCurves,
    KeySharePoint,
    _curve_from_values,
    _key_share_values,
)
from .funnel import ContractFunnel, _funnel_from_status_counts
from .monthly import GrowthPoint
from .taxonomy import TaxonomyTable

__all__ = [
    "StreamingKernel",
    "MonthlyVolumeKernel",
    "TypeMixKernel",
    "TaxonomyKernel",
    "FunnelKernel",
    "EraFunnelKernel",
    "KeyShareKernel",
    "ConcentrationKernel",
    "DegreeGrowthKernel",
    "fold_partitions",
    "streaming_monthly_growth",
    "streaming_type_proportions",
    "streaming_contract_taxonomy",
    "streaming_contract_funnel",
    "streaming_funnel_by_era",
    "streaming_key_share_by_month",
    "streaming_concentration_curves",
    "streaming_degree_growth",
]

class StreamingKernel:
    """Base contract: fold partitions, merge states, emit the result."""

    def update(self, partition: MonthPartition) -> None:
        raise NotImplementedError

    def merge(self, other: "StreamingKernel") -> "StreamingKernel":
        raise NotImplementedError

    def finalize(self):
        raise NotImplementedError


# --------------------------------------------------------------------- #
# small mergeable primitives
# --------------------------------------------------------------------- #


class _MinById:
    """Per-id minimum value (id -> smallest value seen); mergeable.

    Folds keep (ids, values) chunks as they come; ``value_counts``
    reduces them once.
    """

    def __init__(self) -> None:
        self._ids: List[np.ndarray] = []
        self._values: List[np.ndarray] = []

    def fold(self, ids: np.ndarray, values: np.ndarray) -> None:
        if not len(ids):
            return
        self._ids.append(ids)
        self._values.append(np.asarray(values, dtype=np.int64))

    def merge(self, other: "_MinById") -> None:
        self._ids.extend(other._ids)
        self._values.extend(other._values)

    def value_counts(self) -> Dict[int, int]:
        """How many ids have each minimum value."""
        if not self._ids:
            return {}
        _, first = _first_months(
            np.concatenate(self._ids), np.concatenate(self._values)
        )
        values, counts = np.unique(first, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))


class _CountById:
    """Per-id running sum as (ids, counts) arrays; compacted lazily."""

    def __init__(self) -> None:
        self._ids: List[np.ndarray] = []
        self._counts: List[np.ndarray] = []

    def fold_repeats(self, ids: np.ndarray) -> None:
        """Add one occurrence per element of ``ids`` (repeats allowed)."""
        if not len(ids):
            return
        unique, counts = np.unique(ids, return_counts=True)
        self._ids.append(unique)
        self._counts.append(counts.astype(np.int64))

    def merge(self, other: "_CountById") -> None:
        self._ids.extend(other._ids)
        self._counts.extend(other._counts)

    def values(self) -> np.ndarray:
        """Final per-id totals (order unspecified; ids dropped)."""
        if not self._ids:
            return np.zeros(0, dtype=np.int64)
        ids = np.concatenate(self._ids)
        counts = np.concatenate(self._counts)
        unique, inverse = np.unique(ids, return_inverse=True)
        totals = np.zeros(len(unique), dtype=np.int64)
        np.add.at(totals, inverse, counts)
        return totals


def _merge_count_maps(
    mine: Dict[int, "_CountById"], theirs: Dict[int, "_CountById"]
) -> None:
    for key, counter in theirs.items():
        held = mine.get(key)
        if held is None:
            mine[key] = counter
        else:
            held.merge(counter)


def _month_dict(counts: Dict[int, int]) -> Dict[Month, int]:
    return {
        month_from_index(idx): count
        for idx, count in sorted(counts.items())
        if count
    }


# --------------------------------------------------------------------- #
# monthly volume (Figure 1)
# --------------------------------------------------------------------- #


class MonthlyVolumeKernel(StreamingKernel):
    """Incremental :func:`repro.analysis.monthly.monthly_growth`.

    Created counts land in the partition's own month; completed counts
    and first-appearance months use ``settled_month_idx``, which can
    point months ahead of the partition (late completion dates), so
    those live in mergeable per-month states.
    """

    def __init__(self) -> None:
        self._created: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}
        self._first_created = _MinById()
        self._first_completed = _MinById()

    def update(self, partition: MonthPartition) -> None:
        month_idx = partition.month_idx
        n = partition.n_contracts
        if not n:
            return
        self._created[month_idx] = self._created.get(month_idx, 0) + n
        settled = partition.settled_month_idx
        done = settled >= 0
        for idx, count in zip(*np.unique(settled[done], return_counts=True)):
            idx = int(idx)
            self._completed[idx] = self._completed.get(idx, 0) + int(count)
        parties = np.concatenate([partition.maker_id, partition.taker_id])
        self._first_created.fold(
            parties, np.full(len(parties), month_idx, dtype=np.int64)
        )
        settled_parties = np.concatenate(
            [partition.maker_id[done], partition.taker_id[done]]
        )
        self._first_completed.fold(
            settled_parties, np.concatenate([settled[done], settled[done]])
        )

    def merge(self, other: "MonthlyVolumeKernel") -> "MonthlyVolumeKernel":
        for idx, count in other._created.items():
            self._created[idx] = self._created.get(idx, 0) + count
        for idx, count in other._completed.items():
            self._completed[idx] = self._completed.get(idx, 0) + count
        self._first_created.merge(other._first_created)
        self._first_completed.merge(other._first_completed)
        return self

    def finalize(self) -> List[GrowthPoint]:
        created = _month_dict(self._created)
        completed = _month_dict(self._completed)
        new_created = _month_dict(self._first_created.value_counts())
        new_completed = _month_dict(self._first_completed.value_counts())
        return [
            GrowthPoint(
                month=month,
                contracts_created=created.get(month, 0),
                contracts_completed=completed.get(month, 0),
                new_members_created=new_created.get(month, 0),
                new_members_completed=new_completed.get(month, 0),
            )
            for month in sorted(set(created) | set(completed))
        ]


# --------------------------------------------------------------------- #
# type mix (Figure 3) and taxonomy (Table 1)
# --------------------------------------------------------------------- #


class TypeMixKernel(StreamingKernel):
    """Incremental :func:`repro.analysis.monthly.type_proportions`."""

    def __init__(self, completed_only: bool = False) -> None:
        self.completed_only = completed_only
        self._rows: Dict[int, np.ndarray] = {}

    def update(self, partition: MonthPartition) -> None:
        if not partition.n_contracts:
            return
        n_types = len(CTYPE_ORDER)
        types = partition.ctype.astype(np.int64)
        if self.completed_only:
            months = partition.settled_month_idx
            valid = months >= 0
            months, types = months[valid], types[valid]
        else:
            months = np.full(len(types), partition.month_idx, dtype=np.int64)
        for idx in np.unique(months).tolist():
            row = self._rows.setdefault(idx, np.zeros(n_types, dtype=np.int64))
            row += np.bincount(types[months == idx], minlength=n_types)

    def merge(self, other: "TypeMixKernel") -> "TypeMixKernel":
        for idx, row in other._rows.items():
            held = self._rows.get(idx)
            if held is None:
                self._rows[idx] = row
            else:
                held += row
        return self

    def finalize(self) -> Dict[Month, Dict]:
        result: Dict[Month, Dict] = {}
        for idx in sorted(self._rows):
            row = self._rows[idx]
            total = int(row.sum())
            if not total:
                continue
            result[month_from_index(idx)] = {
                ctype: int(row[code]) / total
                for code, ctype in enumerate(CTYPE_ORDER)
            }
        return result


class TaxonomyKernel(StreamingKernel):
    """Incremental :func:`repro.analysis.taxonomy.contract_taxonomy`."""

    def __init__(self) -> None:
        self._grid = np.zeros(
            (len(CTYPE_ORDER), len(STATUS_ORDER)), dtype=np.int64
        )
        self._total = 0

    def update(self, partition: MonthPartition) -> None:
        if not partition.n_contracts:
            return
        n_status = len(STATUS_ORDER)
        self._grid += np.bincount(
            partition.ctype.astype(np.int64) * n_status + partition.status,
            minlength=self._grid.size,
        ).reshape(self._grid.shape)
        self._total += partition.n_contracts

    def merge(self, other: "TaxonomyKernel") -> "TaxonomyKernel":
        self._grid += other._grid
        self._total += other._total
        return self

    def finalize(self) -> TaxonomyTable:
        counts = {
            (ctype, status): int(self._grid[i, j])
            for i, ctype in enumerate(CTYPE_ORDER)
            for j, status in enumerate(STATUS_ORDER)
            if self._grid[i, j]
        }
        return TaxonomyTable(counts=counts, total=self._total)


# --------------------------------------------------------------------- #
# funnel (Figure 14), overall and per era
# --------------------------------------------------------------------- #


class FunnelKernel(StreamingKernel):
    """Incremental :func:`repro.analysis.funnel.contract_funnel`.

    With ``era_index`` set, only rows created in that era count — fold
    it over ``store.iter_months(era=...)`` and the boundary month's
    out-of-era rows are masked away, matching ``funnel_by_era``.
    """

    def __init__(self, era_index: Optional[int] = None) -> None:
        self.era_index = era_index
        self._counts = np.zeros(len(STATUS_ORDER), dtype=np.int64)

    def update(self, partition: MonthPartition) -> None:
        if not partition.n_contracts:
            return
        status = partition.status
        if self.era_index is not None:
            status = status[partition.era_mask(self.era_index)]
        self._counts += np.bincount(status, minlength=len(self._counts))

    def merge(self, other: "FunnelKernel") -> "FunnelKernel":
        self._counts += other._counts
        return self

    def finalize(self) -> ContractFunnel:
        return _funnel_from_status_counts(
            {
                status: int(self._counts[i])
                for i, status in enumerate(STATUS_ORDER)
            }
        )


class EraFunnelKernel(StreamingKernel):
    """Incremental :func:`repro.analysis.funnel.funnel_by_era` (all eras)."""

    def __init__(self) -> None:
        self._grid = np.zeros((len(ERAS), len(STATUS_ORDER)), dtype=np.int64)

    def update(self, partition: MonthPartition) -> None:
        if not partition.n_contracts:
            return
        n_status = len(STATUS_ORDER)
        era_idx = partition.era_idx
        in_era = era_idx >= 0
        self._grid += np.bincount(
            era_idx[in_era].astype(np.int64) * n_status
            + partition.status[in_era],
            minlength=self._grid.size,
        ).reshape(self._grid.shape)

    def merge(self, other: "EraFunnelKernel") -> "EraFunnelKernel":
        self._grid += other._grid
        return self

    def finalize(self) -> Dict[str, ContractFunnel]:
        return {
            era.name: _funnel_from_status_counts(
                {
                    status: int(self._grid[i, j])
                    for j, status in enumerate(STATUS_ORDER)
                }
            )
            for i, era in enumerate(ERAS)
        }


# --------------------------------------------------------------------- #
# centralisation (Figures 5 and 6)
# --------------------------------------------------------------------- #


class KeyShareKernel(StreamingKernel):
    """Incremental :func:`repro.analysis.centralisation.key_share_by_month`."""

    def __init__(self, percent: float = KEY_PERCENT) -> None:
        self.percent = percent
        self._members_created: Dict[int, _CountById] = {}
        self._members_completed: Dict[int, _CountById] = {}
        self._threads_created: Dict[int, _CountById] = {}
        self._threads_completed: Dict[int, _CountById] = {}

    def update(self, partition: MonthPartition) -> None:
        if not partition.n_contracts:
            return
        month_idx = partition.month_idx
        maker, taker = partition.maker_id, partition.taker_id
        thread = partition.thread_id
        threaded = thread >= 0
        self._members_created.setdefault(month_idx, _CountById()).fold_repeats(
            np.concatenate([maker, taker])
        )
        self._threads_created.setdefault(month_idx, _CountById()).fold_repeats(
            thread[threaded]
        )
        settled = partition.settled_month_idx
        for idx in np.unique(settled[settled >= 0]).tolist():
            rows = settled == idx
            self._members_completed.setdefault(
                idx, _CountById()
            ).fold_repeats(np.concatenate([maker[rows], taker[rows]]))
            self._threads_completed.setdefault(
                idx, _CountById()
            ).fold_repeats(thread[rows & threaded])

    def merge(self, other: "KeyShareKernel") -> "KeyShareKernel":
        _merge_count_maps(self._members_created, other._members_created)
        _merge_count_maps(self._members_completed, other._members_completed)
        _merge_count_maps(self._threads_created, other._threads_created)
        _merge_count_maps(self._threads_completed, other._threads_completed)
        return self

    def finalize(self) -> List[KeySharePoint]:
        months = sorted(
            set(self._members_created) | set(self._members_completed)
        )
        empty = _CountById()
        series = []
        for idx in months:
            series.append(
                KeySharePoint(
                    month=month_from_index(idx),
                    key_members_created=_key_share_values(
                        self._members_created.get(idx, empty).values(),
                        self.percent,
                    ),
                    key_members_completed=_key_share_values(
                        self._members_completed.get(idx, empty).values(),
                        self.percent,
                    ),
                    key_threads_created=_key_share_values(
                        self._threads_created.get(idx, empty).values(),
                        self.percent,
                    ),
                    key_threads_completed=_key_share_values(
                        self._threads_completed.get(idx, empty).values(),
                        self.percent,
                    ),
                )
            )
        return series


class ConcentrationKernel(StreamingKernel):
    """Incremental :func:`~repro.analysis.centralisation.concentration_curves`."""

    def __init__(
        self, percents: Sequence[float] = tuple(range(1, 101))
    ) -> None:
        self.percents = tuple(percents)
        self._users_created = _CountById()
        self._users_completed = _CountById()
        self._threads_created = _CountById()
        self._threads_completed = _CountById()

    def update(self, partition: MonthPartition) -> None:
        if not partition.n_contracts:
            return
        maker, taker = partition.maker_id, partition.taker_id
        complete = partition.is_complete
        thread = partition.thread_id
        threaded = thread >= 0
        self._users_created.fold_repeats(np.concatenate([maker, taker]))
        self._users_completed.fold_repeats(
            np.concatenate([maker[complete], taker[complete]])
        )
        self._threads_created.fold_repeats(thread[threaded])
        self._threads_completed.fold_repeats(thread[threaded & complete])

    def merge(self, other: "ConcentrationKernel") -> "ConcentrationKernel":
        self._users_created.merge(other._users_created)
        self._users_completed.merge(other._users_completed)
        self._threads_created.merge(other._threads_created)
        self._threads_completed.merge(other._threads_completed)
        return self

    def finalize(self) -> ConcentrationCurves:
        users_created = self._users_created.values()
        threads_created = self._threads_created.values()
        return ConcentrationCurves(
            users_created=_curve_from_values(users_created, self.percents),
            users_completed=_curve_from_values(
                self._users_completed.values(), self.percents
            ),
            threads_created=_curve_from_values(threads_created, self.percents),
            threads_completed=_curve_from_values(
                self._threads_completed.values(), self.percents
            ),
            user_gini_created=(
                gini(users_created.tolist()) if len(users_created) else 0.0
            ),
            thread_gini_created=(
                gini(threads_created.tolist()) if len(threads_created) else 0.0
            ),
        )


# --------------------------------------------------------------------- #
# degree growth (Figure 8)
# --------------------------------------------------------------------- #


class DegreeGrowthKernel(StreamingKernel):
    """Incremental :func:`repro.network.degrees.degree_growth`.

    Each partition dedups its own edges over its own dense node codes:
    the compact state is (sorted node ids, undirected edge keys
    ``low * k + high``, directed keys ``src * k + dst``, month) with
    ``k`` that month's node count.  Keys come from codes, never from
    raw ids, whose stripes (up to ~3.3e12) would overflow int64 when
    packed.  ``finalize`` maps each month's nodes into global codes
    once, dedups across partitions (keeping each edge's earliest month)
    and replays the cumulative degree arrays with the resident kernel's
    own replay.  Every published value (averages, maxima) is invariant
    to the relabeling.
    """

    def __init__(self, completed_only: bool = False) -> None:
        self.completed_only = completed_only
        self._months: List[Tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []

    def update(self, partition: MonthPartition) -> None:
        maker = partition.maker_id.astype(np.int64)
        taker = partition.taker_id.astype(np.int64)
        if self.completed_only:
            mask = partition.is_complete
            maker, taker = maker[mask], taker[mask]
            bidirectional = partition.is_bidirectional[mask]
        else:
            bidirectional = partition.is_bidirectional
        if not len(maker):
            return
        nodes, codes = np.unique(
            np.concatenate([maker, taker]), return_inverse=True
        )
        k = len(nodes)
        maker_code, taker_code = codes[: len(maker)], codes[len(maker):]
        raw = np.unique(
            np.minimum(maker_code, taker_code) * k
            + np.maximum(maker_code, taker_code)
        )
        src = np.concatenate([maker_code, taker_code[bidirectional]])
        dst = np.concatenate([taker_code, maker_code[bidirectional]])
        directed = np.unique(src * k + dst)
        self._months.append((nodes, raw, directed, partition.month_idx))

    def merge(self, other: "DegreeGrowthKernel") -> "DegreeGrowthKernel":
        self._months.extend(other._months)
        return self

    def finalize(self) -> List[DegreeGrowthPoint]:
        if not self._months:
            return []
        all_nodes = np.unique(
            np.concatenate([nodes for nodes, _, _, _ in self._months])
        )
        n = len(all_nodes)
        raw_keys, directed_keys, node_codes = [], [], []
        raw_months, directed_months, node_months = [], [], []
        for nodes, raw, directed, month in self._months:
            # Sorted local codes map to sorted global codes, so a
            # local ``low < high`` stays ordered.
            code = np.searchsorted(all_nodes, nodes)
            k = len(nodes)
            raw_keys.append(code[raw // k] * n + code[raw % k])
            directed_keys.append(code[directed // k] * n + code[directed % k])
            node_codes.append(code)
            raw_months.append(np.full(len(raw), month, dtype=np.int64))
            directed_months.append(
                np.full(len(directed), month, dtype=np.int64)
            )
            node_months.append(np.full(k, month, dtype=np.int64))

        months_present = [month for _, _, _, month in self._months]
        return _replay_degree_growth(
            _first_months(
                np.concatenate(raw_keys), np.concatenate(raw_months)
            ),
            _first_months(
                np.concatenate(directed_keys), np.concatenate(directed_months)
            ),
            _first_months(
                np.concatenate(node_codes), np.concatenate(node_months)
            )[1],
            months=range(min(months_present), max(months_present) + 1),
            n_users=n,
        )


# --------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------- #


def fold_partitions(
    store: PartitionStore,
    kernels: Sequence[StreamingKernel],
    months=None,
    start=None,
    end=None,
    era=None,
) -> Sequence[StreamingKernel]:
    """Fold every selected partition through every kernel, once each.

    Partitions stream in month order and are dropped after all kernels
    have seen them; selection (window or era) delegates to
    :meth:`PartitionStore.iter_months`, so only the touched months are
    opened (observable via the ``partition.opened`` counter).  Returns
    ``kernels`` for chaining.
    """
    tracer = get_tracer()
    with tracer.span("streaming.fold"):
        for partition in store.iter_months(
            months=months, start=start, end=end, era=era
        ):
            for kernel in kernels:
                kernel.update(partition)
            tracer.count("streaming.partitions_folded")
    return kernels


def _fold_one(store: PartitionStore, kernel: StreamingKernel, **selection):
    fold_partitions(store, [kernel], **selection)
    return kernel.finalize()


def streaming_monthly_growth(
    store: PartitionStore, **selection
) -> List[GrowthPoint]:
    """Figure 1 from a partitioned store (window/era via ``selection``)."""
    return _fold_one(store, MonthlyVolumeKernel(), **selection)


def streaming_type_proportions(
    store: PartitionStore, completed_only: bool = False, **selection
) -> Dict[Month, Dict]:
    """Figure 3 from a partitioned store."""
    return _fold_one(store, TypeMixKernel(completed_only), **selection)


def streaming_contract_taxonomy(
    store: PartitionStore, **selection
) -> TaxonomyTable:
    """Table 1 from a partitioned store."""
    return _fold_one(store, TaxonomyKernel(), **selection)


def streaming_contract_funnel(
    store: PartitionStore, era: Optional[str] = None
) -> ContractFunnel:
    """Figure 14's funnel; with ``era``, only that era's months open."""
    if era is None:
        return _fold_one(store, FunnelKernel())
    from ..core.eras import era_by_name

    resolved = era_by_name(era) if isinstance(era, str) else era
    era_index = ERAS.index(resolved)
    return _fold_one(store, FunnelKernel(era_index=era_index), era=resolved)


def streaming_funnel_by_era(store: PartitionStore) -> Dict[str, ContractFunnel]:
    """All three eras' funnels in one pass over the store."""
    return _fold_one(store, EraFunnelKernel())


def streaming_key_share_by_month(
    store: PartitionStore, percent: float = KEY_PERCENT, **selection
) -> List[KeySharePoint]:
    """Figure 6 from a partitioned store."""
    return _fold_one(store, KeyShareKernel(percent), **selection)


def streaming_concentration_curves(
    store: PartitionStore,
    percents: Sequence[float] = tuple(range(1, 101)),
    **selection,
) -> ConcentrationCurves:
    """Figure 5 from a partitioned store."""
    return _fold_one(store, ConcentrationKernel(percents), **selection)


def streaming_degree_growth(
    store: PartitionStore, completed_only: bool = False, **selection
) -> List[DegreeGrowthPoint]:
    """Figure 8 from a partitioned store."""
    return _fold_one(store, DegreeGrowthKernel(completed_only), **selection)
