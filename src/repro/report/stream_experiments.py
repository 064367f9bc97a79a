"""Windowed experiments over a partitioned store.

The classic registry (:mod:`repro.report.experiments`) materializes a
full dataset and runs resident kernels.  This registry answers the same
questions through the incremental kernels of
:mod:`repro.analysis.streaming`: each experiment folds only the month
partitions its window or era touches, so a COVID-19-only funnel at
paper scale opens four shards instead of materializing twenty-five
months of history.

Every experiment returns the same :class:`ExperimentReport` type the
classic registry uses, so downstream rendering and the CLI treat both
kinds uniformly — and :func:`run_stream_result` wraps one in the typed
run-contract (:class:`~repro.runs.contract.ExperimentResult`, retry
policy and all) so streamed runs persist into the same run store as
classic reports.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from ..analysis.streaming import (
    ConcentrationKernel,
    DegreeGrowthKernel,
    EraFunnelKernel,
    FunnelKernel,
    KeyShareKernel,
    MonthlyVolumeKernel,
    StreamingKernel,
    TaxonomyKernel,
    TypeMixKernel,
    fold_partitions,
)
from ..analysis.taxonomy import STATUS_ORDER, TYPE_ORDER
from ..core.eras import ERAS
from ..core.partitions import PartitionStore
from ..obs.tracer import get_tracer
from ..robust.retry import RetryPolicy, run_with_policy
from ..runs.contract import ExperimentResult, result_from_outcome
from .artefact import ExperimentReport

__all__ = ["STREAM_EXPERIMENTS", "run_stream_experiment", "run_stream_result"]


def _growth_lines(points) -> list:
    lines = [f"{'month':<9s} {'created':>9s} {'completed':>10s} "
             f"{'new(crt)':>9s} {'new(cmp)':>9s}"]
    for point in points:
        lines.append(
            f"{str(point.month):<9s} {point.contracts_created:>9,} "
            f"{point.contracts_completed:>10,} "
            f"{point.new_members_created:>9,} "
            f"{point.new_members_completed:>9,}"
        )
    return lines


def _typemix_lines(shares) -> list:
    header = f"{'month':<9s}" + "".join(
        f" {ctype.value[:9]:>10s}" for ctype in TYPE_ORDER
    )
    lines = [header]
    for month in sorted(shares):
        row = shares[month]
        lines.append(
            f"{str(month):<9s}"
            + "".join(f" {row.get(ctype, 0.0):>10.1%}" for ctype in TYPE_ORDER)
        )
    return lines


def _taxonomy_lines(table) -> list:
    header = f"{'type':<12s}" + "".join(
        f" {status.value[:9]:>10s}" for status in STATUS_ORDER
    ) + f" {'total':>10s}"
    lines = [header]
    for ctype in TYPE_ORDER:
        lines.append(
            f"{ctype.value:<12s}"
            + "".join(f" {table.cell(ctype, s):>10,}" for s in STATUS_ORDER)
            + f" {table.row_total(ctype):>10,}"
        )
    lines.append(f"{'all':<12s}" + "".join(
        f" {table.column_total(s):>10,}" for s in STATUS_ORDER
    ) + f" {table.total:>10,}")
    return lines


def _funnel_lines(funnel) -> list:
    return funnel.lines()


def _era_funnel_lines(by_era) -> list:
    lines = []
    for era in ERAS:
        lines.append(f"-- {era.name} ({era.short}) --")
        lines.extend(by_era[era.name].lines())
        lines.append("")
    return lines[:-1]


def _keyshare_lines(points) -> list:
    lines = [f"{'month':<9s} {'mem(crt)':>9s} {'mem(cmp)':>9s} "
             f"{'thr(crt)':>9s} {'thr(cmp)':>9s}"]
    for point in points:
        lines.append(
            f"{str(point.month):<9s} {point.key_members_created:>9.1%} "
            f"{point.key_members_completed:>9.1%} "
            f"{point.key_threads_created:>9.1%} "
            f"{point.key_threads_completed:>9.1%}"
        )
    return lines


def _concentration_lines(curves) -> list:
    lines = [f"{'top %':>6s} {'users(crt)':>11s} {'users(cmp)':>11s} "
             f"{'thr(crt)':>9s} {'thr(cmp)':>9s}"]
    for percent in (1.0, 5.0, 10.0, 20.0, 50.0):
        if percent not in curves.users_created:
            continue
        lines.append(
            f"{percent:>5.0f}% {curves.users_created[percent]:>11.1%} "
            f"{curves.users_completed[percent]:>11.1%} "
            f"{curves.threads_created[percent]:>9.1%} "
            f"{curves.threads_completed[percent]:>9.1%}"
        )
    lines.append(f"user gini {curves.user_gini_created:.3f}, "
                 f"thread gini {curves.thread_gini_created:.3f}")
    return lines


def _degrees_lines(points) -> list:
    lines = [f"{'month':<9s} {'avg raw':>8s} {'max raw':>8s} "
             f"{'max in':>7s} {'max out':>8s}"]
    for point in points:
        lines.append(
            f"{str(point.month):<9s} {point.average_raw:>8.2f} "
            f"{point.max_raw:>8,} {point.max_inbound:>7,} "
            f"{point.max_outbound:>8,}"
        )
    return lines


#: id -> (title, kernel factory, line renderer)
STREAM_EXPERIMENTS: Dict[str, Tuple[str, Callable[[], StreamingKernel],
                                    Callable]] = {
    "growth": ("Figure 1 (streaming): monthly growth",
               MonthlyVolumeKernel, _growth_lines),
    "typemix": ("Figure 3 (streaming): monthly type mix",
                TypeMixKernel, _typemix_lines),
    "taxonomy": ("Table 1 (streaming): contracts by type and status",
                 TaxonomyKernel, _taxonomy_lines),
    "funnel": ("Figure 14 (streaming): the contract funnel",
               FunnelKernel, _funnel_lines),
    "funnel-eras": ("Figure 14 (streaming): funnel per era",
                    EraFunnelKernel, _era_funnel_lines),
    "keyshare": ("Figure 6 (streaming): key-member/thread share by month",
                 KeyShareKernel, _keyshare_lines),
    "concentration": ("Figure 5 (streaming): market concentration",
                      ConcentrationKernel, _concentration_lines),
    "degrees": ("Figure 8 (streaming): cumulative degree growth",
                DegreeGrowthKernel, _degrees_lines),
}


def run_stream_experiment(
    experiment_id: str,
    store: PartitionStore,
    start: Optional[str] = None,
    end: Optional[str] = None,
    era: Optional[str] = None,
) -> ExperimentReport:
    """Run one streaming experiment over the selected window of a store."""
    title, factory, render = STREAM_EXPERIMENTS[experiment_id]
    if era is not None and factory is FunnelKernel:
        # Eras bound exact dates, not whole months: the boundary month's
        # out-of-era rows are masked so the streamed funnel matches
        # funnel_by_era, while still opening only the era's partitions.
        from ..core.eras import era_by_name

        kernel: StreamingKernel = FunnelKernel(
            era_index=ERAS.index(era_by_name(era))
        )
    else:
        kernel = factory()
    fold_partitions(store, [kernel], start=start, end=end, era=era)
    result = kernel.finalize()
    scope = []
    if era:
        scope.append(f"era={era}")
    if start or end:
        scope.append(f"window={start or '..'}..{end or '..'}")
    suffix = f"  [{', '.join(scope)}]" if scope else ""
    return ExperimentReport(
        experiment_id=f"stream-{experiment_id}",
        title=title + suffix,
        lines=render(result),
        data=result,
    )


def run_stream_result(
    experiment_id: str,
    store: PartitionStore,
    start: Optional[str] = None,
    end: Optional[str] = None,
    era: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
) -> ExperimentResult:
    """Run one streaming experiment under the run-contract.

    The streaming counterpart of the classic runner's ``_run_one``:
    wraps :func:`run_stream_experiment` in an ``experiment.stream-<id>``
    span and the batch :class:`~repro.robust.RetryPolicy`, and folds the
    outcome into a typed :class:`~repro.runs.contract.ExperimentResult`
    (metrics extracted on success, structured error payload on
    exhaustion) ready for :meth:`repro.runs.store.RunHandle.record`.
    """
    tracer = get_tracer()
    policy = policy if policy is not None else RetryPolicy()
    result_id = f"stream-{experiment_id}"
    started = time.perf_counter()
    with tracer.span(f"experiment.{result_id}"):
        outcome = run_with_policy(
            lambda: run_stream_experiment(
                experiment_id, store, start=start, end=end, era=era
            ),
            policy,
            on_failure=lambda exc, attempt: tracer.count("experiment.failures"),
        )
    seconds = time.perf_counter() - started
    if outcome.retries:
        tracer.count("experiment.retries", outcome.retries)
    result = result_from_outcome(result_id, outcome, seconds)
    if not result.ok:
        tracer.count("experiment.failed")
    return result
