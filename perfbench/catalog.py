"""The benchmark's metric catalogue: names, units and owners.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics; ``test_perfbench.py`` checks that the two agree and that every
metric is emitted with its unit.

Every run emits every metric of its mode.  End-to-end metrics (untraced
runs) are defined for all three workloads; each workload maps them onto
its own user-visible path (see ``README.md``).  Per-layer metrics
(traced runs) name one layer each; a workload whose path bypasses that
layer reports 0 for it, which is the prediction the bypass makes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

DEFAULT_SEED = 20201027

WORKLOADS: Dict[str, str] = {
    "report": "cold and warm `repro report` at scale 0.05 on three seeds: "
              "the paper-reproduction path, mostly repro.stats and "
              "repro.analysis",
    "stream": "cold and warm `repro stream all` at scale 1.0: month "
              "partitions written, then read, with repro.stats idle",
    "serve": "one `repro serve` process under an open-loop client: memo, "
             "run-store and compute tiers over real sockets",
}

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "cold_s": ("s", "lower", 0.25),
    "warm_s": ("s", "lower", 0.25),
}

REPORT_IDS: Tuple[str, ...] = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "table10", "fig01", "fig02", "fig03", "fig04",
    "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "sec45", "sec52", "disputes", "eras", "funnel", "trust",
)

SLICE_IDS: Tuple[str, ...] = (
    "growth", "typemix", "taxonomy", "funnel", "funnel-eras", "keyshare",
    "concentration", "degrees",
)

KEY_CLASSES: Tuple[str, ...] = ("hot", "recorded", "fresh")
SOURCES: Tuple[str, ...] = ("memo", "store", "computed")

_R, _S, _V = "report", "stream", "serve"


def _per_layer() -> List[Tuple[str, str, str, Tuple[str, ...]]]:
    """(name, unit, better, workloads that measure it), in catalogue order."""
    rows: List[Tuple[str, str, str, Tuple[str, ...]]] = [
        ("cli.import_s", "s", "lower", (_R, _S, _V)),
        ("synth.generate_s", "s", "lower", (_R,)),
        ("synth.generate_w2_s", "s", "lower", (_R,)),
        ("synth.contracts", "count", "higher", (_R, _S)),
        ("lazy.materialize_s", "s", "lower", (_R,)),
        ("cache.save_s", "s", "lower", (_R,)),
        ("cache.load_s", "s", "lower", (_R,)),
        ("cache.entry_mb", "MB", "lower", (_R,)),
        ("partitions.build_s", "s", "lower", (_S,)),
        ("partitions.open_s", "s", "lower", (_S,)),
        ("partitions.store_mb", "MB", "lower", (_S,)),
        ("partitions.opened_all", "count", "lower", (_S,)),
        ("partitions.opened_era", "count", "lower", (_S,)),
        ("columns.build_s", "s", "lower", (_R,)),
        ("stats.latent_fit_s", "s", "lower", (_R,)),
        ("analysis.values_s", "s", "lower", (_R,)),
        ("analysis.coldstart_s", "s", "lower", (_R,)),
    ]
    rows += [(f"report.{eid}_s", "s", "lower", (_R,)) for eid in REPORT_IDS]
    rows += [
        ("report.parallel2_s", "s", "lower", (_R,)),
        ("report.cpu_s", "s", "lower", (_R,)),
        ("report.other_s", "s", "lower", (_R,)),
        ("report_s", "s", "lower", (_R,)),
    ]
    rows += [(f"streaming.{sid}_s", "s", "lower", (_S,)) for sid in SLICE_IDS]
    rows += [
        ("streaming.funnel_era_s", "s", "lower", (_S,)),
        ("stream.other_s", "s", "lower", (_S,)),
        ("build_s", "s", "lower", (_S,)),
        ("era_query_s", "s", "lower", (_S,)),
        ("runs.record_s", "s", "lower", (_R, _S, _V)),
        ("runs.scan_ms", "ms", "lower", (_R, _S, _V)),
        ("runs.load_ms", "ms", "lower", (_R, _S, _V)),
        ("runs.count", "count", "lower", (_R, _S, _V)),
        ("serve.http_floor_ms", "ms", "lower", (_V,)),
        ("serve.memo_exec_us", "us", "lower", (_V,)),
        ("serve.store_exec_ms", "ms", "lower", (_V,)),
        ("serve.compute_exec_ms", "ms", "lower", (_V,)),
    ]
    rows += [
        (f"serve.{cls}.{source}", "count", "higher", (_V,))
        for cls in KEY_CLASSES
        for source in SOURCES
    ]
    rows += [
        ("memo_p50_ms", "ms", "lower", (_V,)),
        ("memo_p99_ms", "ms", "lower", (_V,)),
        ("store_p50_ms", "ms", "lower", (_V,)),
        ("store_p99_ms", "ms", "lower", (_V,)),
        ("compute_p50_ms", "ms", "lower", (_V,)),
        ("compute_p90_ms", "ms", "lower", (_V,)),
        ("loadgen.late_p99_ms", "ms", "lower", (_V,)),
        ("robust.fork_ms", "ms", "lower", (_V,)),
        ("obs.overhead_frac", "ratio", "lower", (_R, _S)),
    ]
    return rows


PER_LAYER = _per_layer()


def units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit for one mode."""
    if trace:
        return {name: unit for name, unit, _better, _owners in PER_LAYER}
    return {name: unit for name, (unit, _better, _bound) in END_TO_END.items()}


def measured_by(workload: str) -> List[str]:
    """Per-layer metrics the workload's traced run must measure itself."""
    return [name for name, _u, _b, owners in PER_LAYER if workload in owners]


def benchmark_spec(run_seconds: int) -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _owners in PER_LAYER
        ],
    }
