"""The ``report`` workload: the paper-reproduction path.

Untraced: ``repro --version`` spawns (set-up), then for each of three
market seeds one cold ``repro report`` at scale 0.05 with the default
engine, store and parallelism against empty ``--cache-dir``/
``--runs-dir``, followed by its warm replay: the same report against the
cache the cold run filled, whose outputs must match the cold run's.
``cold_s`` and ``warm_s`` are medians of three processes, so one process
slowed by other load on a shared machine does not move them.  The latent
fit's cost depends on the market: one cold report at scale 0.25 spread
by 0.30 of its median over five seeds, and the mean of two seeds at 0.1
by 0.26 in one set of ten runs.

Traced: the first seed's cold CLI run without and with ``--trace``, then
its cold path replayed in this process one public call at a time.
"""

from __future__ import annotations

import platform
import random
import time
from pathlib import Path
from typing import Dict, List, Tuple

from catalog import REPORT_IDS
from common import (
    Proc, Run, artefact_digest, cli_checks, dir_mb, import_seconds, median,
    run_store_metrics, version_setup,
)
from spans import Spans

def market_seeds(seed: int, count: int) -> List[int]:
    """``seed`` itself, then ``count - 1`` more market seeds drawn from it."""
    return [seed, *random.Random(seed).sample(range(1, 1_000_000), count - 1)]


def _report(run: Run, tag: str, seed: int, *, cache: Path, runs: Path,
            trace: bool = False) -> Tuple[Proc, Path]:
    out = run.path(tag, "out")
    args = ["report", "--scale", run.size.report_scale,
            "--seed", seed, "--cache-dir", cache, "--runs-dir", runs,
            "--out", out]
    if trace:
        args.append("--trace")
    return run.program(args, tag), out


def _cold(run: Run, tag: str, seed: int,
          trace: bool = False) -> Tuple[Proc, Dict[str, str]]:
    """One cold report into fresh cache and run-store directories."""
    proc, out = _report(run, tag, seed, cache=run.path(tag, "cache"),
                        runs=run.path(tag, "runs"), trace=trace)
    digests = cli_checks(run, proc, out, REPORT_IDS,
                         "dataset: generated and cached")
    return proc, digests


def _warm(run: Run, tag: str, seed: int, home: str) -> Tuple[Proc, Dict[str, str]]:
    """The report again, against the cache and run store under ``home``."""
    proc, out = _report(run, tag, seed, cache=run.path(home, "cache"),
                        runs=run.path(home, "runs"))
    return proc, cli_checks(run, proc, out, REPORT_IDS, "dataset: cache hit")


def untraced(run: Run) -> None:
    run.metrics["setup_s"] = version_setup(run)
    cold_walls, warm_walls = [], []
    for i, seed in enumerate(market_seeds(run.seed, run.size.report_seeds)):
        cold, digests = _cold(run, f"cold{i}", seed)
        warm, warm_digests = _warm(run, f"warm{i}", seed, f"cold{i}")
        run.check(warm_digests == digests,
                  f"{warm.tag}: output differs from the cold run's")
        run.archive[f"report-seed{seed}"] = digests
        cold_walls.append(cold.wall_s)
        warm_walls.append(warm.wall_s)
    run.metrics["cold_s"] = median(cold_walls)
    run.metrics["warm_s"] = median(warm_walls)


def traced(run: Run) -> None:
    run.metrics["cli.import_s"] = import_seconds(run)
    plain, digests = _cold(run, "cli", run.seed)
    with_trace, traced_digests = _cold(run, "cli-trace", run.seed, trace=True)
    run.check(traced_digests == digests, "--trace changed the report's output")
    run.archive["report"] = digests
    spans = Spans()
    replayed = _replay(run, spans)
    run.check(replayed == digests, "in-process replay differs from the CLI")
    covered = spans.covered("report.replay")
    run.metrics.update({
        "report_s": plain.wall_s,
        "report.cpu_s": plain.cpu_s,
        "report.other_s": plain.wall_s - covered,
        "obs.overhead_frac": with_trace.wall_s / plain.wall_s - 1.0,
    })
    run.details["replay_covered_s"] = covered
    run.spans = spans.to_json()


def _replay(run: Run, spans: Spans) -> Dict[str, str]:
    """``_cmd_report``'s cold path through public calls, one span each.

    Returns the sha256 of each experiment's artefact, as ``--out`` writes it.
    """
    from repro import __version__
    from repro.report.experiments import (
        ExperimentContext, run_all_experiments, run_experiment,
    )
    from repro.runs import RunContext, RunStore, detect_git_rev
    from repro.runs.contract import ExperimentResult, extract_metrics
    from repro.synth.cache import (
        cache_path, config_fingerprint, load_result, save_result,
    )
    from repro.synth.config import SimulationConfig
    from repro.synth.engine import run_engine

    cache_dir = str(run.path("replay", "cache"))
    config = SimulationConfig(scale=run.size.report_scale, seed=run.seed,
                              engine="auto", generate_posts=True)
    digests: Dict[str, str] = {}
    results: List[ExperimentResult] = []
    with spans.span("report.replay"):
        with spans.span("synth.generate"):
            result = run_engine(config)
        dataset = result.dataset
        with spans.span("lazy.materialize"):
            for name in ("users", "contracts", "threads", "posts", "ratings"):
                getattr(dataset, name)
        with spans.span("cache.save"):
            save_result(result, cache_dir)
        with spans.span("report.context"):
            ctx = ExperimentContext(result, latent_k=12)
        with spans.span("columns.build"):
            dataset.columns()
        with spans.span("stats.latent_fit"):
            ctx.latent_model()
        with spans.span("analysis.values"):
            ctx.valued()
        with spans.span("analysis.coldstart"):
            ctx.clustering()
        for experiment_id in REPORT_IDS:
            started = time.perf_counter()
            with spans.span(f"report.{experiment_id}"):
                report = run_experiment(experiment_id, ctx)
            lines = list(report.lines)
            results.append(ExperimentResult(
                experiment_id, report.title, lines,
                time.perf_counter() - started, metrics=extract_metrics(lines)))
            digests[experiment_id] = artefact_digest(report.text())
        context = RunContext(
            command="report", config_sha256=config_fingerprint(config),
            seed=run.seed, scale=run.size.report_scale,
            engine=config.resolved_engine, store="resident",
            experiments=REPORT_IDS, package_version=__version__,
            python_version=platform.python_version(), git_rev=detect_git_rev(),
            config={"scale": run.size.report_scale, "seed": run.seed,
                    "engine": "auto", "generate_posts": True},
        )
        runs = RunStore(str(run.path("replay", "runs")))
        with spans.span("runs.record"):
            handle = runs.begin(context)
            for item in results:
                handle.record(item)
            record = handle.finish()
    run.check(record.status == "complete", f"replay run recorded as {record.status}")

    with spans.span("cache.load"):
        loaded = load_result(config, cache_dir)
    run.check(loaded is not None, "load_result missed the entry save_result wrote")
    with spans.span("synth.generate_w2"):
        run_engine(config, workers=2)
    with spans.span("report.parallel2"):
        parallel = run_all_experiments(ExperimentContext(result, latent_k=12),
                                       list(REPORT_IDS), parallel=2)
    run.check(
        {r.experiment_id: artefact_digest(r.text()) for r in parallel} == digests,
        "run_all_experiments(parallel=2) differs from the serial replay")

    summary = dataset.summary()
    run.metrics.update({
        "synth.generate_s": spans.durations("synth.generate")[0],
        "synth.generate_w2_s": spans.durations("synth.generate_w2")[0],
        "synth.contracts": summary["contracts"],
        "lazy.materialize_s": spans.durations("lazy.materialize")[0],
        "cache.save_s": spans.durations("cache.save")[0],
        "cache.load_s": spans.durations("cache.load")[0],
        "cache.entry_mb": dir_mb(Path(cache_path(config, cache_dir))),
        "columns.build_s": spans.durations("columns.build")[0],
        "stats.latent_fit_s": spans.durations("stats.latent_fit")[0],
        "analysis.values_s": spans.durations("analysis.values")[0],
        "analysis.coldstart_s": spans.durations("analysis.coldstart")[0],
        "report.parallel2_s": spans.durations("report.parallel2")[0],
        "runs.record_s": spans.durations("runs.record")[0],
    })
    for experiment_id in REPORT_IDS:
        run.metrics[f"report.{experiment_id}_s"] = spans.durations(
            f"report.{experiment_id}")[0]
    run_store_metrics(run, runs)
    return digests
