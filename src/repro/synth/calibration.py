"""Calibration scorecard: DESIGN.md's fidelity targets as code.

``score_calibration`` runs a generated dataset through the cheap
analyses and checks each paper target (type shares, completion rates,
visibility, the March-2019 jump, the COVID peak, degree asymmetry,
activity/payment rankings).  Each check returns a
:class:`CalibrationCheck` with the target, the measured value and a
pass/fail under the stated tolerance — so drift introduced by future
changes to the generator is caught mechanically instead of by eyeball.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..analysis.activities import top_trading_activities
from ..analysis.payments import top_payment_methods
from ..analysis.taxonomy import contract_taxonomy, visibility_table
from ..core.dataset import MarketDataset
from ..core.entities import ContractStatus, ContractType
from ..core.eras import COVID19, STABLE
from ..core.timeutils import Month, month_of
from ..network.degrees import dataset_degree_distributions

__all__ = ["CalibrationCheck", "CalibrationReport", "score_calibration"]


@dataclass(frozen=True)
class CalibrationCheck:
    """One target: name, paper value, measured value, tolerance, verdict."""

    name: str
    paper: float
    measured: float
    tolerance: float
    passed: bool
    kind: str = "absolute"  # or "ordering" (paper/tolerance unused)

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        if self.kind == "ordering":
            return f"[{mark}] {self.name}"
        return (
            f"[{mark}] {self.name}: paper {self.paper:.3f}, "
            f"measured {self.measured:.3f} (tol ±{self.tolerance:.3f})"
        )


@dataclass
class CalibrationReport:
    """All checks plus a headline pass rate."""

    checks: List[CalibrationCheck]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def failures(self) -> List[CalibrationCheck]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> List[str]:
        return [str(c) for c in self.checks] + [
            f"-- {self.passed}/{self.total} calibration targets met --"
        ]


def score_calibration(dataset: MarketDataset) -> CalibrationReport:
    """Score a dataset against the paper's aggregate targets."""
    checks: List[CalibrationCheck] = []

    def absolute(name: str, paper: float, measured: float, tolerance: float) -> None:
        checks.append(
            CalibrationCheck(
                name=name, paper=paper, measured=measured, tolerance=tolerance,
                passed=abs(measured - paper) <= tolerance,
            )
        )

    def ordering(name: str, condition: bool) -> None:
        checks.append(
            CalibrationCheck(
                name=name, paper=0.0, measured=0.0, tolerance=0.0,
                passed=condition, kind="ordering",
            )
        )

    taxonomy = contract_taxonomy(dataset)
    absolute("SALE share of contracts", 0.649, taxonomy.row_share(ContractType.SALE), 0.06)
    absolute("EXCHANGE share of contracts", 0.215, taxonomy.row_share(ContractType.EXCHANGE), 0.05)
    absolute("PURCHASE share of contracts", 0.119, taxonomy.row_share(ContractType.PURCHASE), 0.04)
    overall_completion = (
        taxonomy.column_total(ContractStatus.COMPLETE) / taxonomy.total
        if taxonomy.total else 0.0
    )
    absolute("overall completion rate", 0.435, overall_completion, 0.06)
    absolute(
        "EXCHANGE completion rate", 0.698,
        taxonomy.completion_rate(ContractType.EXCHANGE), 0.09,
    )
    absolute(
        "SALE completion rate", 0.327,
        taxonomy.completion_rate(ContractType.SALE), 0.07,
    )
    ordering(
        "EXCHANGE completes ~2x SALE",
        taxonomy.completion_rate(ContractType.EXCHANGE)
        > 1.4 * taxonomy.completion_rate(ContractType.SALE),
    )

    visibility = visibility_table(dataset)
    absolute("public share (created)", 0.12, visibility.overall_public_share(), 0.05)
    ordering(
        "completed contracts more public",
        visibility.overall_public_share(True) > visibility.overall_public_share(),
    )

    by_month = dataset.contracts_by_created_month()

    def month_count(month: Month) -> int:
        return len(by_month.get(month, ()))

    # Era boundaries come from repro.core.eras, never re-typed literals
    # (reprolint R005): the policy jump is the month contracts became
    # mandatory (STABLE's first month) vs the month before; the COVID
    # checks hang off the WHO declaration month and the data end.
    policy_month = month_of(STABLE.start)
    feb19, mar19 = month_count(policy_month.prev()), month_count(policy_month)
    ordering("March-2019 policy jump (>2x)", mar19 > 2.0 * max(1, feb19))
    covid_month = month_of(COVID19.start)
    apr20 = month_count(covid_month.next())
    ordering(
        "April-2020 COVID peak",
        apr20 > 1.25 * max(1, month_count(covid_month.prev())),
    )
    ordering("post-peak decline", month_count(month_of(COVID19.end)) < apr20)

    degrees = dataset_degree_distributions(dataset)
    ordering(
        "inbound hubs exceed outbound hubs (3x)",
        degrees.max_degree["inbound"] > 3 * max(1, degrees.max_degree["outbound"]),
    )

    activities = top_trading_activities(dataset)
    top_activity = activities.top(1)
    ordering(
        "currency exchange is the top activity",
        bool(top_activity) and top_activity[0].category == "currency_exchange",
    )
    payments = top_payment_methods(dataset)
    top_methods = [row.method for row in payments.top(2)]
    ordering("Bitcoin then PayPal by contracts", top_methods == ["bitcoin", "paypal"])

    return CalibrationReport(checks=checks)
