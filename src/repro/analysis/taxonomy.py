"""Contract taxonomy and visibility tables (paper Tables 1 and 2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.dataset import MarketDataset
from ..core.entities import ContractStatus, ContractType, Visibility

__all__ = [
    "TaxonomyTable",
    "VisibilityTable",
    "contract_taxonomy",
    "visibility_table",
    "TYPE_ORDER",
    "STATUS_ORDER",
]

#: Row/column orders matching the paper's tables.
TYPE_ORDER: Tuple[ContractType, ...] = (
    ContractType.SALE,
    ContractType.PURCHASE,
    ContractType.EXCHANGE,
    ContractType.TRADE,
    ContractType.VOUCH_COPY,
)
STATUS_ORDER: Tuple[ContractStatus, ...] = (
    ContractStatus.COMPLETE,
    ContractStatus.ACTIVE_DEAL,
    ContractStatus.DISPUTED,
    ContractStatus.INCOMPLETE,
    ContractStatus.CANCELLED,
    ContractStatus.DENIED,
    ContractStatus.EXPIRED,
)


@dataclass
class TaxonomyTable:
    """Table 1: contract counts by type and status, with shares of total.

    ``counts[(ctype, status)]`` is the cell count; row/column totals and
    derived rates (completion, non-completion) are provided as helpers.
    """

    counts: Dict[Tuple[ContractType, ContractStatus], int]
    total: int

    def cell(self, ctype: ContractType, status: ContractStatus) -> int:
        return self.counts.get((ctype, status), 0)

    def cell_share(self, ctype: ContractType, status: ContractStatus) -> float:
        """Cell count as a share of ALL contracts (the paper's percents)."""
        return self.cell(ctype, status) / self.total if self.total else 0.0

    def row_total(self, ctype: ContractType) -> int:
        return sum(self.cell(ctype, status) for status in STATUS_ORDER)

    def row_share(self, ctype: ContractType) -> float:
        return self.row_total(ctype) / self.total if self.total else 0.0

    def column_total(self, status: ContractStatus) -> int:
        return sum(self.cell(ctype, status) for ctype in TYPE_ORDER)

    def completion_rate(self, ctype: ContractType) -> float:
        """Completed contracts over all contracts of the type."""
        row = self.row_total(ctype)
        return self.cell(ctype, ContractStatus.COMPLETE) / row if row else 0.0

    def non_completion_rate(self, ctype: ContractType) -> float:
        """The paper's 'non-completion': incomplete+cancelled+expired share."""
        row = self.row_total(ctype)
        if not row:
            return 0.0
        missed = (
            self.cell(ctype, ContractStatus.INCOMPLETE)
            + self.cell(ctype, ContractStatus.CANCELLED)
            + self.cell(ctype, ContractStatus.EXPIRED)
        )
        return missed / row


def contract_taxonomy(dataset: MarketDataset) -> TaxonomyTable:
    """Tabulate contracts by (type, status) — the paper's Table 1.

    The whole table is one ``np.bincount`` over the columnar store.
    """
    import numpy as np

    from ..core.columns import CTYPE_ORDER, STATUS_ORDER as STATUS_CODES

    store = dataset.columns()
    n_status = len(STATUS_CODES)
    grid = np.bincount(
        store.ctype.astype(np.int64) * n_status + store.status,
        minlength=len(CTYPE_ORDER) * n_status,
    ).reshape(len(CTYPE_ORDER), n_status)
    counts = {
        (ctype, status): int(grid[i, j])
        for i, ctype in enumerate(CTYPE_ORDER)
        for j, status in enumerate(STATUS_CODES)
        if grid[i, j]
    }
    return TaxonomyTable(counts=counts, total=store.n)


@dataclass
class VisibilityTable:
    """Table 2: public/private split per type, for created and completed.

    ``created[(ctype, visibility)]`` / ``completed[...]`` are counts.
    """

    created: Dict[Tuple[ContractType, Visibility], int]
    completed: Dict[Tuple[ContractType, Visibility], int]

    def created_total(self, ctype: ContractType) -> int:
        return sum(
            self.created.get((ctype, vis), 0) for vis in Visibility
        )

    def completed_total(self, ctype: ContractType) -> int:
        return sum(
            self.completed.get((ctype, vis), 0) for vis in Visibility
        )

    def public_share_created(self, ctype: ContractType) -> float:
        total = self.created_total(ctype)
        return self.created.get((ctype, Visibility.PUBLIC), 0) / total if total else 0.0

    def public_share_completed(self, ctype: ContractType) -> float:
        total = self.completed_total(ctype)
        return self.completed.get((ctype, Visibility.PUBLIC), 0) / total if total else 0.0

    def overall_public_share(self, completed: bool = False) -> float:
        table = self.completed if completed else self.created
        total = sum(table.values())
        public = sum(
            count for (ctype, vis), count in table.items() if vis == Visibility.PUBLIC
        )
        return public / total if total else 0.0

    def completion_rate_by_visibility(self, visibility: Visibility) -> float:
        """Share of contracts of a visibility that completed (§3 reports
        57.0% for public vs 41.7% for private)."""
        created = sum(
            count for (ctype, vis), count in self.created.items() if vis == visibility
        )
        completed = sum(
            count for (ctype, vis), count in self.completed.items() if vis == visibility
        )
        return completed / created if created else 0.0


def visibility_table(dataset: MarketDataset) -> VisibilityTable:
    """Tabulate visibility per type for created and completed contracts."""
    import numpy as np

    from ..core.columns import CTYPE_ORDER, VISIBILITY_ORDER

    store = dataset.columns()
    n_vis = len(VISIBILITY_ORDER)
    cells = store.ctype.astype(np.int64) * n_vis + store.visibility
    minlength = len(CTYPE_ORDER) * n_vis

    def table(grid: np.ndarray) -> Dict[Tuple[ContractType, Visibility], int]:
        grid = grid.reshape(len(CTYPE_ORDER), n_vis)
        return {
            (ctype, vis): int(grid[i, j])
            for i, ctype in enumerate(CTYPE_ORDER)
            for j, vis in enumerate(VISIBILITY_ORDER)
            if grid[i, j]
        }

    return VisibilityTable(
        created=table(np.bincount(cells, minlength=minlength)),
        completed=table(np.bincount(cells[store.is_complete], minlength=minlength)),
    )
