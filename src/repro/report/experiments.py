"""Experiment registry: every table and figure as a runnable experiment.

Each experiment takes an :class:`ExperimentContext` (a simulation result
plus caches for the expensive shared models) and returns an
:class:`ExperimentReport` holding printable lines and the underlying data.
The benchmark harness and the examples both drive this registry, so a
single code path regenerates everything the paper reports.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis import (
    FEATURE_NAMES,
    class_activity_series,
    cluster_cold_starters,
    cohort_reputation_trajectories,
    cold_start_summary,
    completion_times,
    concentration_curves,
    contract_funnel,
    contract_taxonomy,
    dispute_rate_by_month,
    dispute_summary,
    disputed_goods,
    era_profiles,
    fit_latent_classes,
    funnel_by_era,
    key_share_by_month,
    monthly_growth,
    payment_evolution,
    product_evolution,
    reputation_concentration_by_month,
    stimulus_test,
    top_flows,
    top_payment_methods,
    top_trading_activities,
    total_values,
    type_proportions,
    value_evolution,
    value_tables,
    visibility_share,
    visibility_table,
    zip_all_users,
    zip_subsamples,
)
from ..analysis.coldstart import CLUSTER_VARIABLES
from ..analysis.latent import class_id
from ..analysis.taxonomy import STATUS_ORDER, TYPE_ORDER
from ..analysis.values import estimate_dataset_values
from ..blockchain.verify import verify_high_value_contracts
from ..core.entities import ContractType, Visibility
from ..network.degrees import dataset_degree_distributions, degree_growth
from ..network.powerlaw import fit_power_law
from ..obs.tracer import get_tracer
from ..robust.parallel import forked_map
from ..robust.retry import RetryPolicy, run_with_policy
from ..runs.contract import ExperimentResult, result_from_outcome
from ..synth.marketsim import SimulationResult
from .artefact import ExperimentReport
from .figures import render_series, sparkline
from .tables import format_count_share, format_pct, format_usd, render_table

__all__ = [
    "ExperimentReport",
    "ExperimentContext",
    "ExperimentResult",
    "ExperimentRun",
    "EXPERIMENTS",
    "run_experiment",
    "run_all_experiments",
]


class ExperimentContext:
    """A simulation result plus caches for expensive shared computations."""

    def __init__(self, result: SimulationResult, latent_k: int = 12, seed: int = 0):
        self.result = result
        self.latent_k = latent_k
        self.seed = seed
        self._cache: Dict[str, Any] = {}

    @property
    def dataset(self):
        return self.result.dataset

    @property
    def rates(self):
        return self.result.rates

    @property
    def ledger(self):
        return self.result.ledger

    def latent_model(self):
        """The fitted 12-class latent model (cached)."""
        if "latent" not in self._cache:
            self._cache["latent"] = fit_latent_classes(
                self.dataset, k=self.latent_k, seed=self.seed, n_init=2
            )
        return self._cache["latent"]

    def valued(self):
        """Value-estimated completed public contracts (cached)."""
        if "valued" not in self._cache:
            self._cache["valued"] = estimate_dataset_values(
                self.dataset, self.rates, self.ledger
            )
        return self._cache["valued"]

    def clustering(self):
        """Cold-start clustering (cached)."""
        if "clustering" not in self._cache:
            self._cache["clustering"] = cluster_cold_starters(
                self.dataset, seed=self.seed
            )
        return self._cache["clustering"]


# --------------------------------------------------------------------- #
# tables
# --------------------------------------------------------------------- #


def table1(ctx: ExperimentContext) -> ExperimentReport:
    table = contract_taxonomy(ctx.dataset)
    headers = ["Type\\Status"] + [s.name.title() for s in STATUS_ORDER] + ["Total"]
    rows = []
    for ctype in TYPE_ORDER:
        row: List[object] = [ctype.name.title()]
        for status in STATUS_ORDER:
            row.append(format_count_share(table.cell(ctype, status), table.cell_share(ctype, status)))
        row.append(format_count_share(table.row_total(ctype), table.row_share(ctype)))
        rows.append(row)
    total_row: List[object] = ["Total"]
    for status in STATUS_ORDER:
        count = table.column_total(status)
        total_row.append(format_count_share(count, count / table.total if table.total else 0))
    total_row.append(format_count_share(table.total, 1.0))
    rows.append(total_row)
    return ExperimentReport(
        "table1", "Table 1: taxonomy of contracts by type and status",
        render_table(headers, rows), table,
    )


def table2(ctx: ExperimentContext) -> ExperimentReport:
    table = visibility_table(ctx.dataset)
    headers = ["Type\\Visibility", "Private", "Public", "Total"]
    rows: List[List[object]] = []
    for ctype in TYPE_ORDER:
        total = table.created_total(ctype)
        private = table.created.get((ctype, Visibility.PRIVATE), 0)
        public = table.created.get((ctype, Visibility.PUBLIC), 0)
        rows.append(
            [
                f"{ctype.name.title()} Created",
                format_count_share(private, private / total if total else 0),
                format_count_share(public, public / total if total else 0),
                f"{total:,}",
            ]
        )
    for ctype in TYPE_ORDER:
        total = table.completed_total(ctype)
        private = table.completed.get((ctype, Visibility.PRIVATE), 0)
        public = table.completed.get((ctype, Visibility.PUBLIC), 0)
        rows.append(
            [
                f"{ctype.name.title()} Completed",
                format_count_share(private, private / total if total else 0),
                format_count_share(public, public / total if total else 0),
                f"{total:,}",
            ]
        )
    return ExperimentReport(
        "table2", "Table 2: visibility of contract types",
        render_table(headers, rows), table,
    )


def table3(ctx: ExperimentContext) -> ExperimentReport:
    table = top_trading_activities(ctx.dataset)
    headers = ["Trading Activity", "Makers Side", "Takers Side", "Both Sides"]
    rows: List[List[object]] = []
    for row in table.top(15):
        rows.append(
            [
                row.label,
                f"{row.maker_contracts:,} ({len(row.maker_users):,})",
                f"{row.taker_contracts:,} ({len(row.taker_users):,})",
                f"{row.both_contracts:,} ({len(row.both_users):,})",
            ]
        )
    summary = table.all_row
    rows.append(
        [
            "All Trading Activities",
            f"{summary.maker_contracts:,} ({len(summary.maker_users):,})",
            f"{summary.taker_contracts:,} ({len(summary.taker_users):,})",
            f"{summary.both_contracts:,} ({len(summary.both_users):,})",
        ]
    )
    return ExperimentReport(
        "table3",
        "Table 3: completed public contracts (unique users) in the top 15 trading activities",
        render_table(headers, rows), table,
    )


def table4(ctx: ExperimentContext) -> ExperimentReport:
    table = top_payment_methods(ctx.dataset)
    headers = ["Payment Method", "Makers Side", "Takers Side", "Both Sides"]
    rows: List[List[object]] = []
    for row in table.top(10):
        rows.append(
            [
                row.label,
                f"{row.maker_contracts:,} ({len(row.maker_users):,})",
                f"{row.taker_contracts:,} ({len(row.taker_users):,})",
                f"{row.both_contracts:,} ({len(row.both_users):,})",
            ]
        )
    summary = table.all_row
    rows.append(
        [
            "All Methods",
            f"{summary.maker_contracts:,} ({len(summary.maker_users):,})",
            f"{summary.taker_contracts:,} ({len(summary.taker_users):,})",
            f"{summary.both_contracts:,} ({len(summary.both_users):,})",
        ]
    )
    return ExperimentReport(
        "table4",
        "Table 4: completed public contracts (unique users) in the top 10 payment methods",
        render_table(headers, rows), table,
    )


def table5(ctx: ExperimentContext) -> ExperimentReport:
    activities, methods = value_tables(
        ctx.dataset, ctx.rates, ctx.ledger, valued=ctx.valued()
    )
    headers = ["Trading Activity", "Value (Makers)", "Value (Takers)", "In Total"]
    rows = [
        [label, format_usd(m), format_usd(t), format_usd(total)]
        for label, m, t, total in activities
    ]
    lines = render_table(headers, rows)
    lines.append("")
    headers2 = ["Payment Method", "Value (Makers)", "Value (Takers)", "In Total"]
    rows2 = [
        [label, format_usd(m), format_usd(t), format_usd(total)]
        for label, m, t, total in methods
    ]
    lines.extend(render_table(headers2, rows2))
    return ExperimentReport(
        "table5", "Table 5: top 10 trading activities and payment methods by value",
        lines, (activities, methods),
    )


def table6(ctx: ExperimentContext) -> ExperimentReport:
    model = ctx.latent_model()
    headers = ["Class"] + [name.replace("_", " ") for name in FEATURE_NAMES] + [
        "Weight", "Behaviour",
    ]
    rows: List[List[object]] = []
    for index, (class_id, rates, label) in enumerate(model.table6()):
        rows.append(
            [class_id]
            + [f"{r:.1f}" for r in rates]
            + [f"{model.mixture.weights[index] * 100:.1f}%", label]
        )
    lines = render_table(headers, rows)
    if model.bic_by_k:
        lines.append("")
        lines.append("BIC by class count: " + ", ".join(
            f"k={k}: {v:,.0f}" for k, v in sorted(model.bic_by_k.items())
        ))
    return ExperimentReport(
        "table6", "Table 6: average monthly transactions per latent class",
        lines, model,
    )


def table7(ctx: ExperimentContext) -> ExperimentReport:
    clustering = ctx.clustering()
    headers = ["Cluster", "Size"] + [v for v in CLUSTER_VARIABLES]
    rows: List[List[object]] = []
    order = sorted(
        range(len(clustering.outlier_sizes)),
        key=lambda i: -clustering.outlier_sizes[i],
    )
    for rank, index in enumerate(order):
        med = clustering.outlier_medians[index]
        rows.append(
            [chr(ord("A") + rank), clustering.outlier_sizes[index]]
            + [f"{med[v]:.1f}" for v in CLUSTER_VARIABLES]
        )
    lines = render_table(headers, rows)
    lines.append("")
    lines.append(
        f"stage-1 split: {format_pct(clustering.major_share)} majority / "
        f"{format_pct(clustering.outlier_share)} outliers "
        f"({len(clustering.outlier_users)} users)"
    )
    return ExperimentReport(
        "table7", "Table 7: outlier clusters of STABLE cold starters (medians)",
        lines, clustering,
    )


def table8(ctx: ExperimentContext) -> ExperimentReport:
    model = ctx.latent_model()
    flows = top_flows(ctx.dataset, model)
    headers = ["Era", "Type", "Flow", "Total", "Avg/month", "% of type"]
    rows: List[List[object]] = []
    for flow in flows:
        rows.append(
            [
                flow.era,
                flow.ctype.name,
                f"{class_id(flow.maker_class)} -> {class_id(flow.taker_class)}",
                f"{flow.total:,}",
                f"{flow.avg_per_month:.1f}",
                format_pct(flow.share_of_type, 0),
            ]
        )
    return ExperimentReport(
        "table8", "Table 8: top 3 maker->taker class flows per type per era",
        render_table(headers, rows), flows,
    )


def _zip_lines(title: str, era_zip) -> List[str]:
    zr = era_zip.zip_result
    lines = [title]
    headers = ["Coefficient", "Estimate", "Std.Err", "Z"]
    count_rows = [
        [name, f"{coef:.3f}", f"{se:.3f}", f"{z:.2f}"]
        for name, coef, se, z in zip(
            zr.count_names, zr.count_coef, zr.count_se, zr.count_z
        )
    ]
    lines.extend(render_table(headers, count_rows, title="Count model:"))
    zero_rows = [
        [name, f"{coef:.3f}", f"{se:.3f}", f"{z:.2f}"]
        for name, coef, se, z in zip(zr.zero_names, zr.zero_coef, zr.zero_se, zr.zero_z)
    ]
    lines.extend(render_table(headers, zero_rows, title="Zero-inflation model:"))
    lines.append(
        f"n={era_zip.n_obs:,}  zero-completed={zr.pct_zero:.1f}%  "
        f"McFadden R2={zr.mcfadden_r2:.3f}  "
        f"Vuong vs Poisson: {era_zip.vuong.statistic:.2f} (p={era_zip.vuong.p_value:.4f})"
    )
    lines.append("")
    return lines


def table9(ctx: ExperimentContext) -> ExperimentReport:
    results = zip_all_users(ctx.dataset)
    lines: List[str] = []
    for era_name, era_zip in results.items():
        lines.extend(_zip_lines(f"--- {era_name} (all users) ---", era_zip))
    return ExperimentReport(
        "table9", "Table 9: Zero-Inflated Poisson regression (all users)",
        lines, results,
    )


def table10(ctx: ExperimentContext) -> ExperimentReport:
    results = zip_subsamples(ctx.dataset)
    lines: List[str] = []
    for (era_name, subsample), era_zip in results.items():
        lines.extend(_zip_lines(f"--- {era_name} / {subsample} ---", era_zip))
    return ExperimentReport(
        "table10",
        "Table 10: Zero-Inflated Poisson regression (first-time vs existing users)",
        lines, results,
    )


# --------------------------------------------------------------------- #
# figures
# --------------------------------------------------------------------- #


def fig01(ctx: ExperimentContext) -> ExperimentReport:
    growth = monthly_growth(ctx.dataset)
    series = {
        "contracts created": {g.month: float(g.contracts_created) for g in growth},
        "contracts completed": {g.month: float(g.contracts_completed) for g in growth},
        "new members (created)": {g.month: float(g.new_members_created) for g in growth},
        "new members (completed)": {g.month: float(g.new_members_completed) for g in growth},
    }
    return ExperimentReport(
        "fig01", "Figure 1: monthly growth of new members and contracts",
        render_series(series), growth,
    )


def fig02(ctx: ExperimentContext) -> ExperimentReport:
    shares = visibility_share(ctx.dataset)
    series = {
        "public share (created)": {m: v["created"] for m, v in shares.items()},
        "public share (completed)": {m: v["completed"] for m, v in shares.items()},
    }
    return ExperimentReport(
        "fig02", "Figure 2: proportion of public contracts by month",
        render_series(series, fmt="{:.3f}"), shares,
    )


def fig03(ctx: ExperimentContext) -> ExperimentReport:
    created = type_proportions(ctx.dataset, completed_only=False)
    completed = type_proportions(ctx.dataset, completed_only=True)
    series = {}
    for ctype in TYPE_ORDER:
        series[f"{ctype.name} (created)"] = {m: v[ctype] for m, v in created.items()}
    lines = render_series(series, fmt="{:.3f}", title="Created:")
    series2 = {}
    for ctype in TYPE_ORDER:
        series2[f"{ctype.name} (completed)"] = {m: v[ctype] for m, v in completed.items()}
    lines.append("")
    lines.extend(render_series(series2, fmt="{:.3f}", title="Completed:"))
    return ExperimentReport(
        "fig03", "Figure 3: contract type proportions by month",
        lines, (created, completed),
    )


def fig04(ctx: ExperimentContext) -> ExperimentReport:
    times = completion_times(ctx.dataset)
    series = {}
    for ctype in TYPE_ORDER:
        series[ctype.name] = {
            month: values[ctype]
            for month, values in times.items()
            if ctype in values
        }
    return ExperimentReport(
        "fig04", "Figure 4: average completion time (hours) by contract type",
        render_series(series, fmt="{:.1f}"), times,
    )


def fig05(ctx: ExperimentContext) -> ExperimentReport:
    curves = concentration_curves(ctx.dataset, percents=(1, 2, 5, 10, 20, 30, 50, 70, 100))
    headers = ["Top %", "users (created)", "users (completed)", "threads (created)", "threads (completed)"]
    rows: List[List[object]] = []
    for percent in (1, 2, 5, 10, 20, 30, 50, 70, 100):
        rows.append(
            [
                f"{percent}%",
                format_pct(curves.users_created[percent]),
                format_pct(curves.users_completed[percent]),
                format_pct(curves.threads_created[percent]),
                format_pct(curves.threads_completed[percent]),
            ]
        )
    lines = render_table(headers, rows)
    lines.append("")
    lines.append(f"user gini (created): {curves.user_gini_created:.3f}  "
                 f"thread gini (created): {curves.thread_gini_created:.3f}")
    return ExperimentReport(
        "fig05", "Figure 5: share of contracts by top percentile of users/threads",
        lines, curves,
    )


def fig06(ctx: ExperimentContext) -> ExperimentReport:
    points = key_share_by_month(ctx.dataset)
    series = {
        "key members (created)": {p.month: p.key_members_created for p in points},
        "key members (completed)": {p.month: p.key_members_completed for p in points},
        "key threads (created)": {p.month: p.key_threads_created for p in points},
        "key threads (completed)": {p.month: p.key_threads_completed for p in points},
    }
    return ExperimentReport(
        "fig06", "Figure 6: monthly share of contracts by key (top-5%) members/threads",
        render_series(series, fmt="{:.3f}"), points,
    )


def fig07(ctx: ExperimentContext) -> ExperimentReport:
    created = dataset_degree_distributions(ctx.dataset)
    completed = dataset_degree_distributions(ctx.dataset, completed_only=True)
    lines: List[str] = []
    for label, dist in (("created", created), ("completed", completed)):
        lines.append(f"--- {label} contracts: {dist.n_contracts:,} contracts, "
                     f"{dist.n_users:,} users ---")
        headers = ["degree"] + [str(d) for d in range(0, 16)]
        rows = []
        for kind in ("raw", "inbound", "outbound"):
            histogram = dist.truncated(kind, 15)
            rows.append([kind] + [str(histogram.get(d, 0)) for d in range(0, 16)])
        lines.extend(render_table(headers, rows))
        lines.append(
            "max degrees: "
            + ", ".join(f"{kind}={dist.max_degree[kind]:,}" for kind in ("raw", "inbound", "outbound"))
        )
        lines.append("")
    # Power-law fit on the raw degree sequence of created contracts.
    degrees: List[int] = []
    for degree, count in created.histogram["raw"].items():
        degrees.extend([degree] * count)
    try:
        fit = fit_power_law(degrees)
        lines.append(
            f"power-law fit (raw, created): alpha={fit.alpha:.2f}, "
            f"xmin={fit.xmin}, KS={fit.ks_statistic:.3f}, tail n={fit.n_tail:,}"
        )
    except ValueError:
        lines.append("power-law fit: insufficient data")
    return ExperimentReport(
        "fig07", "Figure 7: degree distribution of the contractual network",
        lines, (created, completed),
    )


def fig08(ctx: ExperimentContext) -> ExperimentReport:
    created = degree_growth(ctx.dataset, completed_only=False)
    completed = degree_growth(ctx.dataset, completed_only=True)
    series = {
        "avg raw (created)": {p.month: p.average_raw for p in created},
        "max raw (created)": {p.month: float(p.max_raw) for p in created},
        "max inbound (created)": {p.month: float(p.max_inbound) for p in created},
        "max outbound (created)": {p.month: float(p.max_outbound) for p in created},
        "max raw (completed)": {p.month: float(p.max_raw) for p in completed},
    }
    return ExperimentReport(
        "fig08", "Figure 8: growth of network degrees over time",
        render_series(series, fmt="{:,.1f}"), (created, completed),
    )


def fig09(ctx: ExperimentContext) -> ExperimentReport:
    evolution = product_evolution(ctx.dataset)
    series = {
        label: {m: float(v) for m, v in values.items()}
        for label, values in evolution.items()
    }
    return ExperimentReport(
        "fig09", "Figure 9: evolution of the top five products (ex. currency/payments)",
        render_series(series), evolution,
    )


def fig10(ctx: ExperimentContext) -> ExperimentReport:
    evolution = payment_evolution(ctx.dataset)
    series = {
        label: {m: float(v) for m, v in values.items()}
        for label, values in evolution.items()
    }
    return ExperimentReport(
        "fig10", "Figure 10: evolution of the top five payment methods",
        render_series(series), evolution,
    )


def fig11(ctx: ExperimentContext) -> ExperimentReport:
    evolution = value_evolution(
        ctx.dataset, ctx.rates, ctx.ledger, valued=ctx.valued()
    )
    lines: List[str] = []
    for block, label in (
        ("by_type", "Monthly value by contract type (USD):"),
        ("by_method", "Monthly value by payment method (USD):"),
        ("by_product", "Monthly value by product category (USD):"),
    ):
        lines.extend(render_series(evolution[block], title=label, fmt="{:,.0f}"))
        lines.append("")
    return ExperimentReport(
        "fig11", "Figure 11: evolution of monthly traded value",
        lines, evolution,
    )


def _class_series_report(ctx: ExperimentContext, role: str, figure_id: str,
                         title: str) -> ExperimentReport:
    model = ctx.latent_model()
    data = class_activity_series(ctx.dataset, model, role=role)
    lines: List[str] = []
    for ctype, by_class in data.items():
        totals = {k: sum(v.values()) for k, v in by_class.items()}
        top_classes = sorted(totals, key=lambda k: (-totals[k], k))[:6]
        series = {
            f"class {class_id(k)}": {m: float(v) for m, v in by_class[k].items()}
            for k in top_classes
        }
        lines.extend(render_series(series, title=f"{ctype.name} ({role}):"))
        lines.append("")
    return ExperimentReport(figure_id, title, lines, data)


def fig12(ctx: ExperimentContext) -> ExperimentReport:
    return _class_series_report(
        ctx, "made", "fig12",
        "Figure 12: transactions made by latent class over time",
    )


def fig13(ctx: ExperimentContext) -> ExperimentReport:
    return _class_series_report(
        ctx, "accepted", "fig13",
        "Figure 13: transactions accepted by latent class over time",
    )


# --------------------------------------------------------------------- #
# narrative sections
# --------------------------------------------------------------------- #


def sec45(ctx: ExperimentContext) -> ExperimentReport:
    report = total_values(ctx.dataset, ctx.rates, ctx.ledger, valued=ctx.valued())
    valued_pairs = [
        (v.contract, v.raw.usd) for v in ctx.valued().values()
    ]
    _, verification = verify_high_value_contracts(valued_pairs, ctx.ledger, ctx.rates)
    lines = [
        f"total public value: {format_usd(report.total_usd)} "
        f"(average {format_usd(report.average_usd)}, max {format_usd(report.maximum_usd)}, "
        f"n={report.n_valued:,})",
    ]
    for ctype, (total, avg, high) in report.per_type.items():
        lines.append(
            f"  {ctype.name:<9s} total {format_usd(total)}  "
            f"avg {format_usd(avg)}  max {format_usd(high)}"
        )
    lines.append(f"top 10% users hold {format_pct(report.top10pct_user_share)} of value")
    lines.append(f"average value per participant: {format_usd(report.average_per_participant)}")
    lines.append(
        f"extrapolated public+private lower bound: {format_usd(report.extrapolated_total_usd)}"
    )
    lines.append(
        f"high-value verification: n={verification.total}, "
        f"{format_pct(verification.confirmed_share)} confirmed, "
        f"{format_pct(verification.different_share)} different, "
        f"{format_pct(verification.unconfirmed_share)} unconfirmed"
    )
    return ExperimentReport(
        "sec45", "Section 4.5: trading values, concentration and verification",
        lines, (report, verification),
    )


def disputes(ctx: ExperimentContext) -> ExperimentReport:
    summary = dispute_summary(ctx.dataset)
    monthly = dispute_rate_by_month(ctx.dataset)
    lines = [
        f"total disputed contracts: {summary.total_disputes:,} "
        f"({format_pct(summary.overall_rate, 2)} of contracts)",
        "rate by era: " + ", ".join(
            f"{era} {format_pct(rate, 2)}" for era, rate in summary.rate_by_era.items()
        ),
        f"peak month: {summary.peak_month} at {format_pct(summary.peak_rate, 2)} "
        "(the late-SET-UP 'storming' bulge)",
        f"max disputes for one user: {summary.max_disputes_one_user}",
        f"users with exactly one dispute: {format_pct(summary.users_with_one_dispute_share)}",
        "",
        "top disputed goods: " + ", ".join(
            f"{label} ({count})" for label, count in disputed_goods(ctx.dataset)[:5]
        ),
        "",
    ]
    lines.extend(
        render_series(
            {"dispute rate": {m: r for m, r in monthly.items()}}, fmt="{:.4f}"
        )
    )
    return ExperimentReport(
        "disputes", "Section 5.1/6: dispute rates through the eras", lines, summary
    )


def eras(ctx: ExperimentContext) -> ExperimentReport:
    profiles = era_profiles(ctx.dataset)
    headers = ["era", "contracts", "/month", "completed", "public", "members", "new"]
    rows = [
        [
            p.short,
            f"{p.contracts:,}",
            f"{p.contracts_per_month:,.0f}",
            format_pct(p.completion_rate),
            format_pct(p.public_share),
            f"{p.members:,}",
            f"{p.new_members:,}",
        ]
        for p in profiles
    ]
    lines = render_table(headers, rows)
    outcome = stimulus_test(ctx.dataset)
    lines.append("")
    lines.append(
        f"COVID-19 vs late STABLE: volume x{outcome.volume_ratio:.2f}, "
        f"type drift {outcome.type_drift:.3f}, category drift {outcome.category_drift:.3f}"
    )
    lines.append(
        "verdict: " + ("stimulus" if outcome.is_stimulus else
                       "transformation" if outcome.is_transformation else "inconclusive")
        + " (paper: stimulus, not transformation)"
    )
    return ExperimentReport(
        "eras", "Section 6: era profiles and the stimulus test",
        lines, (profiles, outcome),
    )


def funnel(ctx: ExperimentContext) -> ExperimentReport:
    overall = contract_funnel(ctx.dataset)
    lines = ["Overall:"] + overall.lines()
    for era_name, era_funnel in funnel_by_era(ctx.dataset).items():
        lines.append("")
        lines.append(f"{era_name}:")
        lines.extend(era_funnel.lines())
    return ExperimentReport(
        "funnel", "Appendix Figure 14: the contract process funnel",
        lines, overall,
    )


def trust(ctx: ExperimentContext) -> ExperimentReport:
    concentration = reputation_concentration_by_month(ctx.dataset)
    cohorts = cohort_reputation_trajectories(ctx.dataset)
    lines: List[str] = []
    if concentration:
        months = list(concentration)
        first, last = months[0], months[-1]
        lines.append(
            f"reputation concentration: gini {concentration[first][0]:.3f} -> "
            f"{concentration[last][0]:.3f}; top-5% share "
            f"{concentration[first][1]:.1%} -> {concentration[last][1]:.1%}"
        )
        lines.append("")
    series = {
        f"gini": {m: v[0] for m, v in concentration.items()},
        f"top-5% share": {m: v[1] for m, v in concentration.items()},
    }
    lines.extend(render_series(series, fmt="{:.3f}",
                               title="Reputation concentration by month:"))
    lines.append("")
    cohort_series = {
        f"{era} cohort median rep": {m: v for m, v in values.items()}
        for era, values in cohorts.items()
    }
    lines.extend(render_series(cohort_series, fmt="{:.1f}",
                               title="Cohort reputation trajectories:"))
    return ExperimentReport(
        "trust", "Section 6: reputation as trust infrastructure",
        lines, (concentration, cohorts),
    )


def sec52(ctx: ExperimentContext) -> ExperimentReport:
    clustering = ctx.clustering()
    summary = cold_start_summary(ctx.dataset, clustering)
    lines = [
        f"cold starters in STABLE: {summary.n_cold_starters:,}",
        f"stage-1 clusters: {format_pct(summary.major_share)} majority / "
        f"{format_pct(1 - summary.major_share)} outliers ({summary.n_outliers:,} users)",
        f"median lifespan: all={summary.median_lifespan_all_days:.1f} days, "
        f"outliers={summary.median_lifespan_outliers_days:.1f} days",
        f"continue accepting into COVID-19: all={format_pct(summary.continue_into_covid_all)}, "
        f"outliers={format_pct(summary.continue_into_covid_outliers)}",
        f"median reputation: STABLE starters={summary.median_reputation_all:.0f}, "
        f"outliers={summary.median_reputation_outliers:.0f}, "
        f"SET-UP starters={summary.median_reputation_setup_starters:.0f}",
    ]
    return ExperimentReport(
        "sec52", "Section 5.2: the cold start problem",
        lines, summary,
    )


#: The full registry, in paper order.
EXPERIMENTS: Dict[str, Callable[[ExperimentContext], ExperimentReport]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "table8": table8,
    "table9": table9,
    "table10": table10,
    "fig01": fig01,
    "fig02": fig02,
    "fig03": fig03,
    "fig04": fig04,
    "fig05": fig05,
    "fig06": fig06,
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "sec45": sec45,
    "sec52": sec52,
    "disputes": disputes,
    "eras": eras,
    "funnel": funnel,
    "trust": trust,
}


def run_experiment(experiment_id: str, ctx: ExperimentContext) -> ExperimentReport:
    """Run one registered experiment by id (KeyError for unknown ids)."""
    return EXPERIMENTS[experiment_id](ctx)


# --------------------------------------------------------------------- #
# batch runner
# --------------------------------------------------------------------- #


#: Historical name for the typed result: the batch runner now speaks the
#: run-contract (:mod:`repro.runs.contract`) end to end, and the
#: ``ExperimentRun`` objects it always returned *are* the contract's
#: :class:`~repro.runs.contract.ExperimentResult` — same field order,
#: same ``ok``/``report`` surface, plus the metrics/artifact fields the
#: run store persists.
ExperimentRun = ExperimentResult


#: Context shared with forked workers (copy-on-write; set by the parent
#: immediately before the pool is created, cleared after).
_WORKER_CTX: Optional[ExperimentContext] = None

#: Retry policy shared with forked workers, same lifecycle as the ctx.
_WORKER_POLICY: Optional[RetryPolicy] = None


def _run_one(experiment_id: str) -> ExperimentResult:
    """Worker entry point: returns a picklable :class:`ExperimentResult`.

    ``data`` is deliberately dropped — it can hold arbitrary objects
    (fitted models, graphs) that are expensive or impossible to pickle.
    The run is wrapped in an ``experiment.<id>`` span and guarded by the
    batch :class:`~repro.robust.RetryPolicy`.

    Counter semantics (the registry is deterministic under a fixed
    seed, so these measure *environmental* trouble, not logic bugs):

    * ``experiment.failures`` — attempts that raised, whether or not a
      later attempt succeeded;
    * ``experiment.retries`` — re-attempts launched (attempts beyond
      the first), regardless of how they ended;
    * ``experiment.failed`` — experiments whose budget was exhausted
      and which degraded to an error payload.
    """
    tracer = get_tracer()
    policy = _WORKER_POLICY if _WORKER_POLICY is not None else RetryPolicy()
    started = time.perf_counter()
    with tracer.span(f"experiment.{experiment_id}"):
        outcome = run_with_policy(
            lambda: run_experiment(experiment_id, _WORKER_CTX),
            policy,
            on_failure=lambda exc, attempt: tracer.count("experiment.failures"),
        )
    seconds = time.perf_counter() - started
    if outcome.retries:
        tracer.count("experiment.retries", outcome.retries)
    result = result_from_outcome(experiment_id, outcome, seconds)
    if not result.ok:
        tracer.count("experiment.failed")
    return result


def run_all_experiments(
    ctx: ExperimentContext,
    experiment_ids: Optional[Sequence[str]] = None,
    parallel: int = 1,
    policy: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[ExperimentResult], Any]] = None,
) -> List[ExperimentResult]:
    """Run a set of experiments (default: all), optionally in parallel.

    ``parallel > 1`` fans independent experiments across a fork-based
    ``ProcessPoolExecutor``: the context (dataset, columnar store, model
    caches) is inherited copy-on-write, and each worker ships back only
    ``(id, title, lines, seconds, trace)``.  The on-disk dataset cache
    (:mod:`repro.synth.cache`) is shared across the forked workers:
    they inherit the parent's already-loaded dataset, and any
    ``cached_generate`` call issued inside a worker resolves against the
    same cache directory the parent warmed — no worker ever regenerates
    the market.  Serial runs share ``ctx``'s model caches across
    experiments, so per-experiment times after the first latent-model
    user reflect the cached path.  Results come back in request order
    either way.

    When tracing is enabled (:func:`repro.obs.enable_tracing`), each
    forked worker records onto a fresh tracer and the parent grafts the
    returned snapshots under its current span via
    :meth:`~repro.obs.Tracer.merge_child`, so ``experiment.*`` spans
    appear in the parent's tree for serial and parallel runs alike.

    Fault tolerance: each experiment runs under ``policy`` (default
    :class:`~repro.robust.RetryPolicy`: one retry, no backoff, no
    timeout).  An experiment that exhausts its budget degrades to an
    :class:`ExperimentRun` whose ``error`` payload carries the final
    exception — the remaining experiments still run and results still
    come back complete and in request order.  If the fork pool itself
    dies (a worker killed by the OS), the batch falls back to a serial
    rerun, counted as ``experiments.pool_broken``.

    Example — warm the disk cache once, then fan out::

        from repro.synth.cache import cached_generate
        result, hit = cached_generate(scale=0.05)   # writes the cache entry
        ctx = ExperimentContext(result)
        runs = run_all_experiments(ctx, ["table1", "fig01"], parallel=2)

    ``on_result`` (typically :meth:`repro.runs.store.RunHandle.record`)
    is invoked once per finished :class:`ExperimentResult`.  On the
    serial path it fires *incrementally* — immediately after each
    experiment, before the next one starts — so a mid-sweep kill leaves
    every finished result persisted and the run resumable.  On the
    parallel path results only exist in the parent once the pool batch
    returns, so the callback fires for each result after the batch (the
    run-contract doc spells out this weaker guarantee).
    """
    wanted = list(experiment_ids) if experiment_ids is not None else list(EXPERIMENTS)
    unknown = [i for i in wanted if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment ids: {', '.join(unknown)}")

    global _WORKER_CTX, _WORKER_POLICY
    _WORKER_CTX = ctx
    _WORKER_POLICY = policy
    try:
        if parallel <= 1 or len(wanted) <= 1:
            runs = []
            for experiment_id in wanted:
                run = _run_one(experiment_id)
                if on_result is not None:
                    on_result(run)
                runs.append(run)
            return runs
        runs, traces = forked_map(
            _run_one,
            wanted,
            workers=parallel,
            span="experiments.parallel",
            broken_counter="experiments.pool_broken",
            return_traces=True,
        )
        for run, trace in zip(runs, traces):
            run.trace = trace
        if on_result is not None:
            for run in runs:
                on_result(run)
    finally:
        _WORKER_CTX = None
        _WORKER_POLICY = None
    return runs
