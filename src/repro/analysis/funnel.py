"""The contract process funnel (the paper's Appendix, Figure 14).

A proposed contract either gets *denied*, *expires* after 72 hours, or is
accepted into an active deal; an accepted deal then completes, is
cancelled, stays incomplete, or ends disputed.  This module reconstructs
that funnel from terminal statuses: stage-1 outcomes (accepted vs
denied/expired) and stage-2 outcomes (conditional on acceptance), overall
and per era — quantifying the process diagram the appendix only draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.dataset import MarketDataset
from ..core.entities import ContractStatus
from ..core.eras import ERAS

__all__ = ["FunnelStage", "ContractFunnel", "contract_funnel", "funnel_by_era"]

#: Statuses implying the proposal was never accepted.
_REJECTED = (ContractStatus.DENIED, ContractStatus.EXPIRED)
#: Terminal outcomes of an accepted deal.
_ACCEPTED_OUTCOMES = (
    ContractStatus.COMPLETE,
    ContractStatus.INCOMPLETE,
    ContractStatus.CANCELLED,
    ContractStatus.DISPUTED,
)


@dataclass(frozen=True)
class FunnelStage:
    """One funnel transition: label, count, share of the previous stage."""

    label: str
    count: int
    share: float


@dataclass
class ContractFunnel:
    """The two-stage contract funnel for one contract population."""

    total_proposed: int
    stages: List[FunnelStage]

    def stage(self, label: str) -> FunnelStage:
        for stage in self.stages:
            if stage.label == label:
                return stage
        raise KeyError(label)

    @property
    def acceptance_rate(self) -> float:
        return self.stage("accepted").share

    @property
    def completion_given_accept(self) -> float:
        return self.stage("complete").share

    def lines(self) -> List[str]:
        out = [f"proposed: {self.total_proposed:,}"]
        for stage in self.stages:
            out.append(f"  {stage.label:<12s} {stage.count:>9,}  ({stage.share:.1%})")
        return out


def _funnel_from_status_counts(by_status: Dict[ContractStatus, int]) -> ContractFunnel:
    """Assemble the two-stage funnel from per-status counts."""
    total = sum(by_status.values())
    denied = by_status.get(ContractStatus.DENIED, 0)
    expired = by_status.get(ContractStatus.EXPIRED, 0)
    accepted = total - denied - expired
    live = by_status.get(ContractStatus.ACTIVE_DEAL, 0)
    terminal_accepted = accepted - live

    stages = [
        FunnelStage("denied", denied, denied / total if total else 0.0),
        FunnelStage("expired", expired, expired / total if total else 0.0),
        FunnelStage("accepted", accepted, accepted / total if total else 0.0),
        FunnelStage("still active", live, live / accepted if accepted else 0.0),
    ]
    for status in _ACCEPTED_OUTCOMES:
        count = by_status.get(status, 0)
        stages.append(
            FunnelStage(
                status.value.replace("_", " "),
                count,
                count / terminal_accepted if terminal_accepted else 0.0,
            )
        )
    return ContractFunnel(total_proposed=total, stages=stages)


def contract_funnel(dataset: MarketDataset) -> ContractFunnel:
    """Build the funnel over all of ``dataset``'s contracts.

    ACTIVE_DEAL contracts count as accepted with no terminal outcome yet;
    their stage-2 shares use accepted-and-terminal as the denominator.
    Statuses are tallied with a single ``np.bincount`` over the columnar
    store; pass ``dataset.subset(contracts)`` to funnel a subset.
    """
    import numpy as np

    from ..core.columns import STATUS_ORDER

    store = dataset.columns()
    counts = np.bincount(store.status, minlength=len(STATUS_ORDER))
    return _funnel_from_status_counts(
        {status: int(counts[i]) for i, status in enumerate(STATUS_ORDER)}
    )


def funnel_by_era(dataset: MarketDataset) -> Dict[str, ContractFunnel]:
    """The funnel per era (by creation date)."""
    import numpy as np

    from ..core.columns import STATUS_ORDER

    store = dataset.columns()
    n_status = len(STATUS_ORDER)
    in_era = store.era_idx >= 0
    grid = np.bincount(
        store.era_idx[in_era].astype(np.int64) * n_status
        + store.status[in_era],
        minlength=len(ERAS) * n_status,
    ).reshape(len(ERAS), n_status)
    return {
        era.name: _funnel_from_status_counts(
            {status: int(grid[i, j]) for j, status in enumerate(STATUS_ORDER)}
        )
        for i, era in enumerate(ERAS)
    }
