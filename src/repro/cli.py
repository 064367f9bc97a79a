"""Command-line interface.

Usage::

    python -m repro generate --scale 0.05 --out market/         # synthesise + save
    python -m repro experiment table1 --scale 0.05               # one artefact
    python -m repro experiment all --scale 0.1 --out results/    # everything
    python -m repro report --scale 0.1 --parallel 4              # cached full suite
    python -m repro report --trace --scale 0.05                  # + timing tree/manifest
    python -m repro report --store partitioned --scale 1         # via cache format v4
    python -m repro stream funnel --era covid-19 --scale 1       # opens 4 months only
    python -m repro stream growth --window 2019-03 2020-03       # windowed query
    python -m repro trace show run_manifest.json                 # render a manifest
    python -m repro runs list --seed 7                           # query the run store
    python -m repro runs show <run-id>                           # one run in detail
    python -m repro runs diff <run-a> <run-b>                    # metric deltas
    python -m repro runs resume <run-id>                         # finish an interrupted sweep
    python -m repro serve --api-key KEY --port 8151              # market-as-a-service API
    python -m repro summary --data market/                       # dataset overview
    python -m repro eras --scale 0.05                            # per-era profiles
    python -m repro lint                                         # invariant checks
    python -m repro docscheck                                    # docs link check

``--data DIR`` loads a previously saved dataset (JSONL) instead of
generating one; analyses that need the rate oracle rebuild the
deterministic one, and value verification is skipped without a ledger.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING, List, Optional

from . import __version__

if TYPE_CHECKING:
    from .synth.config import SimulationConfig
    from .synth.marketsim import SimulationResult

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Turning Up the Dial' (IMC 2020)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesise a market and save it")
    _market_args(generate)
    generate.add_argument("--out", required=True, help="output dataset directory")

    experiment = commands.add_parser("experiment", help="regenerate paper artefacts")
    experiment.add_argument("ids", nargs="+",
                            help="experiment ids (table1..table10, fig01..fig13, "
                                 "sec45, sec52) or 'all'")
    _market_args(experiment)
    experiment.add_argument("--data", help="load dataset from directory instead")
    experiment.add_argument("--out", help="also write artefacts under this directory")
    experiment.add_argument("--latent-k", type=int, default=12)
    experiment.add_argument("--cache-dir",
                            help="opt into the dataset cache, rooted here")

    report = commands.add_parser(
        "report",
        help="run the full experiment suite with dataset caching (and "
             "optionally in parallel)",
    )
    report.add_argument("ids", nargs="*",
                        help="experiment ids to run (default: all)")
    _market_args(report)
    report.add_argument("--out", help="also write artefacts under this directory")
    report.add_argument("--latent-k", type=int, default=12)
    report.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="fan experiments across N forked worker processes; "
                             "workers inherit the parent's dataset and share "
                             "the same on-disk dataset cache, so none of them "
                             "regenerates the market")
    report.add_argument("--cache-dir",
                        help="dataset cache root (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro)")
    report.add_argument("--no-cache", action="store_true",
                        help="always regenerate; don't read or write the cache")
    report.add_argument("--store", choices=("resident", "partitioned"),
                        default="resident",
                        help="dataset source: 'resident' caches monolithic "
                             "column files (format v2); 'partitioned' builds "
                             "the month-partitioned store (format v4) and "
                             "materializes it for the resident experiments")
    report.add_argument("--trace", action="store_true",
                        help="record span timings and counters, print the "
                             "timing tree, and write run_manifest.json next "
                             "to the artefacts (--out, else the current "
                             "directory)")
    report.add_argument("--retries", type=int, default=1, metavar="N",
                        help="re-attempts per experiment before it degrades "
                             "to a recorded failure (default: 1)")
    report.add_argument("--retry-backoff", type=float, default=0.0,
                        metavar="SECONDS",
                        help="pause before the first retry, doubled for each "
                             "further one (default: 0)")
    report.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-experiment time limit; a timed-out "
                             "experiment is marked failed and not retried "
                             "(default: none)")
    report.add_argument("--strict", action="store_true",
                        help="exit non-zero when any experiment failed "
                             "(without this flag failures are reported in "
                             "the output and manifest but the run exits 0)")
    _run_store_args(report)

    stream = commands.add_parser(
        "stream",
        help="windowed/per-era queries over the month-partitioned store "
             "(opens only the months the query touches)",
    )
    stream.add_argument("ids", nargs="+",
                        help="streaming experiment ids (growth, typemix, "
                             "taxonomy, funnel, funnel-eras, keyshare, "
                             "concentration, degrees) or 'all'")
    _market_args(stream)
    stream.add_argument("--window", nargs=2, metavar=("START", "END"),
                        help="creation-month window, inclusive (YYYY-MM "
                             "YYYY-MM)")
    stream.add_argument("--era", metavar="NAME",
                        help="restrict to one era (set-up, stable, covid-19 "
                             "or E1/E2/E3); only that era's partitions open")
    stream.add_argument("--cache-dir",
                        help="dataset cache root (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro)")
    stream.add_argument("--refresh", action="store_true",
                        help="rebuild the partitioned store even if cached")
    stream.add_argument("--out", help="also write artefacts under this "
                                      "directory")
    stream.add_argument("--trace", action="store_true",
                        help="print span timings and partition.opened "
                             "counters after the run")
    _run_store_args(stream)

    summary = commands.add_parser("summary", help="print a dataset overview")
    _market_args(summary)
    summary.add_argument("--data", help="load dataset from directory instead")

    eras = commands.add_parser("eras", help="per-era profiles and the stimulus test")
    _market_args(eras)
    eras.add_argument("--data", help="load dataset from directory instead")

    validate = commands.add_parser("validate", help="integrity-check a dataset")
    validate.add_argument("--data", required=True, help="dataset directory (JSONL)")
    validate.add_argument("--scale", type=float, default=0.05, help=argparse.SUPPRESS)
    validate.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)

    export = commands.add_parser("export-csv", help="export a dataset as CSV")
    export.add_argument("--data", help="dataset directory (JSONL); generated if omitted")
    export.add_argument("--out", required=True, help="CSV output directory")
    _market_args(export)

    trace = commands.add_parser(
        "trace", help="inspect run manifests written by 'report --trace'"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_sub.add_parser(
        "show", help="render a run manifest as a provenance/timing report"
    )
    trace_show.add_argument(
        "manifest",
        help="manifest file, a directory containing run_manifest.json, "
             "or a run id from the run store",
    )
    trace_show.add_argument("--runs-dir",
                            help="run store root used to resolve run ids "
                                 "(default: $REPRO_RUNS_DIR or "
                                 "~/.cache/repro/runs)")

    runs = commands.add_parser(
        "runs",
        help="query the persistent run store: list, show, diff, resume",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser(
        "list", help="list stored runs, filterable by config/seed/era"
    )
    _runs_dir_arg(runs_list)
    runs_list.add_argument("--command", dest="filter_command",
                           choices=("report", "stream"),
                           help="only runs of this command")
    runs_list.add_argument("--seed", type=int, help="only this seed")
    runs_list.add_argument("--scale", type=float, help="only this scale")
    runs_list.add_argument("--config", metavar="PREFIX",
                           help="only runs whose config sha256 starts with "
                                "PREFIX")
    runs_list.add_argument("--era", metavar="NAME",
                           help="only runs restricted to this era")
    runs_list.add_argument("--status",
                           choices=("running", "complete", "failed"),
                           help="only runs in this state")
    runs_list.add_argument("--format", choices=("table", "ids"),
                           default="table",
                           help="'ids' prints one run id per line (for "
                                "scripting)")

    runs_show = runs_sub.add_parser(
        "show", help="render one run: provenance, per-experiment results"
    )
    _runs_dir_arg(runs_show)
    runs_show.add_argument("run_id", help="run id (see 'runs list')")
    runs_show.add_argument("--trace", action="store_true",
                           help="also render the run's manifest (traced "
                                "runs only)")

    runs_diff = runs_sub.add_parser(
        "diff",
        help="compare two runs' metrics experiment by experiment "
             "(exit 1 when they differ)",
    )
    _runs_dir_arg(runs_diff)
    runs_diff.add_argument("a", help="first run id")
    runs_diff.add_argument("b", help="second run id")
    runs_diff.add_argument("--tolerance", type=float, default=0.0,
                           metavar="EPS",
                           help="treat |delta| <= EPS as equal "
                                "(default: 0 = exact)")
    runs_diff.add_argument("--ids", nargs="*", metavar="ID",
                           help="restrict the comparison to these "
                                "experiment ids")

    runs_resume = runs_sub.add_parser(
        "resume",
        help="finish an interrupted sweep: re-run only the experiments "
             "without an ok result, under the run's recorded retry policy",
    )
    _runs_dir_arg(runs_resume)
    runs_resume.add_argument("run_id", help="run id (see 'runs list')")
    runs_resume.add_argument("--cache-dir",
                             help="dataset cache root (default: "
                                  "$REPRO_CACHE_DIR or ~/.cache/repro)")
    runs_resume.add_argument("--parallel", type=int, default=None,
                             metavar="N",
                             help="override the recorded worker count")

    serve = commands.add_parser(
        "serve",
        help="serve the market over HTTP: deterministic cached endpoints "
             "for generation, slices and experiments (see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8151)
    serve.add_argument("--api-key", action="append", dest="api_keys",
                       metavar="KEY", default=None,
                       help="accepted X-API-Key value (repeatable); "
                            "required unless --no-auth")
    serve.add_argument("--no-auth", action="store_true",
                       help="serve without authentication (development "
                            "only)")
    serve.add_argument("--rate", type=float, default=10.0, metavar="RPS",
                       help="sustained per-key requests per second "
                            "(default: 10)")
    serve.add_argument("--burst", type=int, default=30, metavar="N",
                       help="per-key burst budget (default: 30)")
    serve.add_argument("--max-scale", type=float, default=0.25,
                       help="largest dataset scale a request may ask for "
                            "(default: 0.25)")
    serve.add_argument("--timeout", type=float, default=300.0,
                       metavar="SECONDS",
                       help="per-request compute time limit, enforced in "
                            "the forked worker (default: 300)")
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="executor threads handling blocking compute "
                            "(default: 4)")
    serve.add_argument("--no-fork", action="store_true",
                       help="compute inline in executor threads instead of "
                            "forked workers (time limits become advisory)")
    serve.add_argument("--cache-dir",
                       help="dataset cache root (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro)")
    _run_store_args(serve)

    docscheck = commands.add_parser(
        "docscheck",
        help="check docs/ and README.md for dead links and stale module "
             "references",
    )
    docscheck.add_argument("--root", default=".",
                           help="repository root (default: current directory)")
    docscheck.add_argument("--format", choices=("text", "json"), default="text",
                           help="output format")

    lint = commands.add_parser(
        "lint",
        help="run reprolint, the project-specific static-analysis pass",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: src/ and "
                           "tests/ under --root)")
    lint.add_argument("--root", default=".",
                      help="repository root (default: current directory)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="output format")
    lint.add_argument("--baseline",
                      help="baseline file of grandfathered findings "
                           "(default: <root>/lint-baseline.txt when present)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline from the current findings")
    lint.add_argument("--explain", metavar="RULE",
                      help="print the rationale for one rule id (e.g. R004)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules")
    lint.add_argument("--changed", action="store_true",
                      help="pre-commit mode: lint only files differing from "
                           "git HEAD with the per-file rules")
    lint.add_argument("--jobs", type=int, default=0,
                      help="worker processes for rule execution "
                           "(0 = auto, 1 = serial)")
    lint.add_argument("--no-program", action="store_true",
                      help="skip the whole-program rules (R010+); used by "
                           "the CI interpreter matrix")
    lint.add_argument("--no-index-cache", action="store_true",
                      help="parse from scratch instead of using the "
                           ".reprolint-cache AST index")

    return parser


def _runs_dir_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--runs-dir",
                     help="run store root (default: $REPRO_RUNS_DIR or "
                          "~/.cache/repro/runs)")


def _run_store_args(sub: argparse.ArgumentParser) -> None:
    _runs_dir_arg(sub)
    sub.add_argument("--no-run-store", action="store_true",
                     help="don't record this invocation in the run store")


def _market_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scale", type=float, default=0.05,
                     help="market scale when generating (1.0 = paper volume)")
    sub.add_argument("--seed", type=int, default=20201027)
    sub.add_argument("--no-posts", action="store_true",
                     help="skip post generation (faster)")


def _config(args) -> SimulationConfig:
    # Imported here, like every command's dependencies, so that
    # ``repro --version`` loads nothing beyond this module.
    from .synth.config import SimulationConfig

    return SimulationConfig(
        scale=args.scale, seed=args.seed, generate_posts=not args.no_posts
    )


def _load_or_generate(args) -> SimulationResult:
    if getattr(args, "data", None):
        from .blockchain.chain import Ledger
        from .blockchain.rates import RateOracle
        from .core.io import load_dataset
        from .synth.config import SimulationConfig
        from .synth.marketsim import SimulationResult, SimulationTruth

        dataset = load_dataset(args.data)

        return SimulationResult(
            dataset=dataset,
            ledger=Ledger(),
            rates=RateOracle(),
            truth=SimulationTruth(),
            config=SimulationConfig(scale=args.scale, seed=args.seed),
        )
    if getattr(args, "cache_dir", None) and not getattr(args, "no_cache", False):
        from .synth.cache import cached_generate

        result, hit = cached_generate(
            scale=args.scale,
            seed=args.seed,
            cache_dir=args.cache_dir,
            generate_posts=not args.no_posts,
        )
        print(
            f"dataset: {'cache hit' if hit else 'generated and cached'} "
            f"(scale={args.scale}, seed={args.seed})",
            file=sys.stderr,
        )
        return result
    return _generate_direct(args)


def _generate_direct(args) -> SimulationResult:
    from .synth.engine import run_engine

    return run_engine(_config(args))


def _cmd_generate(args) -> int:
    from .core.io import save_dataset

    started = time.time()
    result = _generate_direct(args)
    save_dataset(result.dataset, args.out)
    summary = result.dataset.summary()
    print(f"generated {summary['contracts']:,} contracts "
          f"({summary['users']:,} users) in {time.time() - started:.1f}s")
    print(f"saved to {args.out}/")
    return 0


def _cmd_experiment(args) -> int:
    from .report.experiments import EXPERIMENTS, ExperimentContext, run_experiment

    wanted = list(EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [i for i in wanted if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    result = _load_or_generate(args)
    ctx = ExperimentContext(result, latent_k=args.latent_k)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for experiment_id in wanted:
        report = run_experiment(experiment_id, ctx)
        print(report.text())
        print()
        if args.out:
            path = os.path.join(args.out, f"{experiment_id}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report.text() + "\n")
    return 0


def _cmd_report(args) -> int:
    from .report.experiments import EXPERIMENTS
    from .robust import RetryPolicy
    from .runs import RunStore
    from .runs.runner import context_for, execute_run, open_market

    wanted = args.ids if args.ids and "all" not in args.ids else list(EXPERIMENTS)
    unknown = [i for i in wanted if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from .obs import enable_tracing

        tracer = enable_tracing()
    run_started_unix = time.time()
    context = context_for(
        "report",
        _config(args),
        wanted,
        store="resident" if args.no_cache else args.store,
        latent_k=args.latent_k,
        parallel=args.parallel,
        policy=RetryPolicy(
            max_retries=max(0, args.retries),
            backoff_seconds=max(0.0, args.retry_backoff),
            timeout_seconds=args.timeout,
        ),
    )
    started = time.time()
    market = open_market(
        context,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    result = market.result
    if args.no_cache:
        source = "generated (cache disabled)"
    elif context.store == "partitioned":
        source = (
            "partitioned store hit" if market.hit
            else "streamed to partitioned store"
        )
    else:
        source = "cache hit" if market.hit else "generated and cached"
    print(
        f"dataset: {source} in {time.time() - started:.1f}s "
        f"(scale={args.scale}, seed={args.seed}, "
        f"{len(result.dataset):,} contracts)",
        file=sys.stderr,
    )

    runs_store = None if args.no_run_store else RunStore(args.runs_dir)
    record, runs = execute_run(
        runs_store, context, market, created_unix=run_started_unix
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for run in runs:
        print(run.report.text())
        print()
        if args.out:
            path = os.path.join(args.out, f"{run.experiment_id}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(run.report.text() + "\n")
    print("experiment wall times:", file=sys.stderr)
    for run in runs:
        marker = "" if run.ok else "  FAILED"
        print(f"  {run.experiment_id:<10s} {run.seconds:7.2f}s{marker}",
              file=sys.stderr)
    print(
        f"  {'total':<10s} {sum(r.seconds for r in runs):7.2f}s "
        f"({len(runs)} experiments, parallel={max(1, args.parallel)})",
        file=sys.stderr,
    )
    failed = [run for run in runs if not run.ok]
    if failed:
        print(
            f"{len(failed)} of {len(runs)} experiments failed:",
            file=sys.stderr,
        )
        for run in failed:
            print(
                f"  {run.experiment_id}: {run.error['type']}: "
                f"{run.error['message']} "
                f"(after {run.error['attempts']} attempts)",
                file=sys.stderr,
            )

    if tracer is not None:
        from .obs import (
            RunManifest,
            peak_rss_bytes,
            render_counters,
            render_timing_tree,
            write_manifest,
        )

        manifest = RunManifest(
            command="report",
            config_sha256=context.config_sha256,
            run_id=record.run_id if record is not None else None,
            seed=args.seed,
            scale=args.scale,
            package_version=context.package_version,
            python_version=context.python_version,
            created_unix=run_started_unix,
            params={
                "parallel": max(1, args.parallel),
                "latent_k": args.latent_k,
                "posts": not args.no_posts,
                "cache": not args.no_cache,
                "engine": context.engine,
                "experiments": len(runs),
            },
            dataset=result.dataset.summary(),
            experiments=[
                {"id": run.experiment_id, "seconds": run.seconds,
                 "attempts": run.attempts,
                 **({"error": run.error} if run.error else {})}
                for run in runs
            ],
            total_seconds=time.time() - run_started_unix,
            peak_rss_bytes=peak_rss_bytes(),
            counters=dict(tracer.counters),
            gauges=dict(tracer.gauges),
            spans=[record.to_dict() for record in tracer.roots],
        )
        manifest_path = write_manifest(manifest, args.out or ".")
        if record is not None:
            # The tracer manifest also lands inside the run directory, so
            # `runs show --trace` finds it without a separate --out.
            write_manifest(manifest, record.manifest_path())
        print("", file=sys.stderr)
        print("timing tree:", file=sys.stderr)
        for line in render_timing_tree(tracer.roots):
            print("  " + line, file=sys.stderr)
        print("counters:", file=sys.stderr)
        for line in render_counters(tracer.counters, tracer.gauges):
            print("  " + line, file=sys.stderr)
        print(f"manifest: {manifest_path}", file=sys.stderr)
    if record is not None:
        print(f"run: {record.run_id} [{record.status}] -> {record.path}",
              file=sys.stderr)
        print(f"     inspect with: repro runs show {record.run_id}",
              file=sys.stderr)
    if failed and args.strict:
        return 1
    return 0


def _cmd_stream(args) -> int:
    from .report.stream_experiments import STREAM_EXPERIMENTS
    from .runs import RunStore
    from .runs.runner import context_for, execute_run, open_market

    wanted = (
        list(STREAM_EXPERIMENTS) if "all" in args.ids else args.ids
    )
    unknown = [i for i in wanted if i not in STREAM_EXPERIMENTS]
    if unknown:
        print(f"unknown stream experiment ids: {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(STREAM_EXPERIMENTS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from .obs import enable_tracing

        tracer = enable_tracing()
    run_started_unix = time.time()
    params = {}
    if args.era:
        params["era"] = args.era
    if args.window:
        params["start"], params["end"] = args.window
    context = context_for(
        "stream",
        _config(args),
        [f"stream-{i}" for i in wanted],
        store="partitioned",
        params=params,
    )
    started = time.time()
    market = open_market(context, cache_dir=args.cache_dir, refresh=args.refresh)
    print(
        f"store: {'hit' if market.hit else 'built'} in "
        f"{time.time() - started:.1f}s ({len(market.store.months)} month "
        f"partitions, scale={args.scale}, seed={args.seed})",
        file=sys.stderr,
    )
    runs_store = None if args.no_run_store else RunStore(args.runs_dir)
    record, results = execute_run(
        runs_store, context, market, created_unix=run_started_unix
    )

    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for result in results:
        print(result.text())
        print()
        if args.out:
            path = os.path.join(args.out, f"{result.experiment_id}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(result.text() + "\n")
    if record is not None:
        print(f"run: {record.run_id} [{record.status}] -> {record.path}",
              file=sys.stderr)

    if tracer is not None:
        from .obs import render_counters, render_timing_tree

        print("timing tree:", file=sys.stderr)
        for line in render_timing_tree(tracer.roots):
            print("  " + line, file=sys.stderr)
        print("counters:", file=sys.stderr)
        for line in render_counters(tracer.counters, tracer.gauges):
            print("  " + line, file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    from .obs import render_manifest
    from .runs import load_manifest

    try:
        manifest = load_manifest(args.manifest, getattr(args, "runs_dir", None))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in render_manifest(manifest):
        print(line)
    return 0


def _cmd_runs(args) -> int:
    handlers = {
        "list": _cmd_runs_list,
        "show": _cmd_runs_show,
        "diff": _cmd_runs_diff,
        "resume": _cmd_runs_resume,
    }
    return handlers[args.runs_command](args)


def _cmd_runs_list(args) -> int:
    from .runs import RunStore, render_runs_table

    store = RunStore(args.runs_dir)
    records = store.list_runs(
        command=args.filter_command,
        seed=args.seed,
        scale=args.scale,
        config_prefix=args.config,
        era=args.era,
        status=args.status,
    )
    if args.format == "ids":
        for record in records:
            print(record.run_id)
        return 0
    for line in render_runs_table(records):
        print(line)
    return 0


def _cmd_runs_show(args) -> int:
    from .runs import (
        CorruptRunError,
        RunStore,
        UnknownRunError,
        load_manifest,
        render_run,
    )
    from .robust import quarantine_dir

    store = RunStore(args.runs_dir)
    try:
        record = store.load(args.run_id, verify=True)
    except UnknownRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CorruptRunError as exc:
        quarantined = quarantine_dir(
            store.path_for(args.run_id), counter="runs.corrupt"
        )
        print(f"error: corrupt run: {exc}", file=sys.stderr)
        if quarantined:
            print(f"quarantined to {quarantined}", file=sys.stderr)
        return 1
    for line in render_run(record):
        print(line)
    if args.trace:
        from .obs import render_manifest

        try:
            manifest = load_manifest(args.run_id, args.runs_dir)
        except (OSError, ValueError) as exc:
            print(f"\nno manifest: {exc}", file=sys.stderr)
            return 0
        print()
        for line in render_manifest(manifest):
            print(line)
    return 0


def _cmd_runs_diff(args) -> int:
    from .runs import RunsError, RunStore, diff_runs, render_run_diff

    store = RunStore(args.runs_dir)
    try:
        a = store.load(args.a)
        b = store.load(args.b)
    except RunsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_runs(a, b, tolerance=args.tolerance,
                     experiments=args.ids or None)
    for line in render_run_diff(diff):
        print(line)
    return 0 if diff.identical else 1


def _cmd_runs_resume(args) -> int:
    from .runs import RunsError, RunStore
    from .runs.runner import resume_run

    store = RunStore(args.runs_dir)
    try:
        record, rerun = resume_run(
            store,
            args.run_id,
            cache_dir=args.cache_dir,
            parallel=args.parallel,
        )
    except RunsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if rerun:
        print(f"re-executed {len(rerun)} experiment(s): {', '.join(rerun)}")
    else:
        print("nothing to do: every experiment already has an ok result")
    print(f"run: {record.run_id} [{record.status}] -> {record.path}")
    return 0 if record.status == "complete" else 1


def _cmd_docscheck(args) -> int:
    from .devtools.docscheck import run_docscheck_command

    return run_docscheck_command(args)


def _cmd_summary(args) -> int:
    result = _load_or_generate(args)
    for key, value in result.dataset.summary().items():
        print(f"{key:<22s} {value:,}")
    return 0


def _cmd_eras(args) -> int:
    from .analysis.eras_summary import era_profiles, stimulus_test

    result = _load_or_generate(args)
    print(f"{'era':<10s} {'contracts':>10s} {'/month':>8s} {'completed':>10s} "
          f"{'public':>7s} {'members':>8s} {'new':>7s}")
    for profile in era_profiles(result.dataset):
        print(f"{profile.short:<10s} {profile.contracts:>10,} "
              f"{profile.contracts_per_month:>8,.0f} "
              f"{profile.completion_rate:>9.1%} {profile.public_share:>7.1%} "
              f"{profile.members:>8,} {profile.new_members:>7,}")
    outcome = stimulus_test(result.dataset)
    print(f"\nCOVID-19 vs late STABLE: volume x{outcome.volume_ratio:.2f}, "
          f"type-mix drift {outcome.type_drift:.3f}, "
          f"product-mix drift {outcome.category_drift:.3f}")
    verdict = "stimulus" if outcome.is_stimulus else (
        "transformation" if outcome.is_transformation else "neither"
    )
    print(f"verdict: {verdict} (paper: stimulus, not transformation)")
    return 0


def _cmd_validate(args) -> int:
    from .core.io import load_dataset
    from .core.validate import validate_dataset

    dataset = load_dataset(args.data)
    issues = validate_dataset(dataset)
    if not issues:
        print(f"ok: {len(dataset.contracts):,} contracts, no issues")
        return 0
    for issue in issues:
        print(issue)
    errors = sum(1 for i in issues if i.severity == "error")
    return 1 if errors else 0


def _cmd_export_csv(args) -> int:
    from .core.csv_export import export_csv

    result = _load_or_generate(args)
    paths = export_csv(result.dataset, args.out)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_lint(args) -> int:
    from .devtools.lint.cli import run_lint_command

    return run_lint_command(args)


def _cmd_serve(args) -> int:
    from .serve import ServeSettings, create_app
    from .serve.server import serve_forever

    keys = tuple(args.api_keys or ())
    if args.no_auth:
        keys = ()
    elif not keys:
        print("refusing to serve unauthenticated: pass --api-key KEY "
              "(repeatable) or explicit --no-auth", file=sys.stderr)
        return 2
    settings = ServeSettings(
        api_keys=keys,
        rate_capacity=max(1, args.burst),
        rate_refill_per_second=max(0.0, args.rate),
        cache_dir=args.cache_dir,
        runs_dir=args.runs_dir,
        use_run_store=not args.no_run_store,
        max_scale=args.max_scale,
        timeout_seconds=args.timeout,
        use_fork=not args.no_fork,
        executor_workers=max(1, args.workers),
        clock=time.time,
    )
    app = create_app(settings)
    auth = f"{len(keys)} key(s)" if keys else "DISABLED"
    print(f"repro serve on http://{args.host}:{args.port} "
          f"(auth: {auth}, rate: {args.rate:g}/s burst {args.burst}, "
          f"max scale {args.max_scale:g})", file=sys.stderr)
    print("endpoints: /healthz /v1/meta /v1/dataset/summary "
          "/v1/experiments/<id> /v1/reports /v1/slices/<id> /v1/runs",
          file=sys.stderr)
    serve_forever(app, args.host, args.port)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if os.environ.get("REPRO_FAULTS"):
        # Deterministic fault injection (tests / make test-faults only):
        # arm the directives before any command touches cache or runner.
        from .devtools.faults import arm_from_env

        arm_from_env()
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "stream": _cmd_stream,
        "summary": _cmd_summary,
        "eras": _cmd_eras,
        "validate": _cmd_validate,
        "export-csv": _cmd_export_csv,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "runs": _cmd_runs,
        "docscheck": _cmd_docscheck,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``repro ... | head``).  Point
        # stdout at devnull so the flush at exit cannot raise again, and
        # exit as Python does on EPIPE, without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
