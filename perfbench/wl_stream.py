"""The ``stream`` workload: partition writes, then single-era reads.

Untraced: ``repro --version`` spawns (set-up), then three times a cold
``repro stream all`` at scale 1.0 into empty directories followed by the
same command twice more, which must report a store hit and print the
same slices.  Every process uses the default engine spelling, so the warm run
reads the store the cold one wrote.

Traced: the cold CLI build without and with ``--trace`` and warm
single-era queries (``repro stream funnel --era covid-19``, each a fresh
process that must report a store hit), then the build and every slice
replayed in this process.  The era query is a per-layer figure, not an
end-to-end one: ~90% of it is interpreter start-up, whose wall time on a
shared two-CPU machine switched between ~1.3 and ~1.9 s from one run to
the next.
"""

from __future__ import annotations

import platform
from pathlib import Path
from typing import Dict, List, Tuple

from catalog import SLICE_IDS
from common import (
    Proc, Run, artefact_digest, cli_checks, dir_mb, import_seconds, median,
    run_store_metrics, version_setup,
)
from spans import Spans

ERA = "covid-19"
ERA_QUERIES = 3
#: Warm reruns per cold build.  A warm rerun is ~55% interpreter start-up,
#: whose per-process jitter a median of three samples left at a spread
#: of 0.18 over ten runs.
WARM_RERUNS = 2
BUILD_IDS = tuple(f"stream-{sid}" for sid in SLICE_IDS)


def _stream(run: Run, tag: str, home: str, args: List[str],
            ids: Tuple[str, ...], marker: str) -> Tuple[Proc, Dict[str, str]]:
    """One ``repro stream`` process on the cache and run store under ``home``."""
    out = run.path(tag, "out")
    proc = run.program(
        ["stream", *args, "--scale", run.size.stream_scale, "--seed", run.seed,
         "--cache-dir", run.path(home, "cache"),
         "--runs-dir", run.path(home, "runs"), "--out", out], tag)
    return proc, cli_checks(run, proc, out, ids, marker)


def _build(run: Run, tag: str, trace: bool = False) -> Tuple[Proc, Dict[str, str]]:
    args = ["all", "--trace"] if trace else ["all"]
    return _stream(run, tag, tag, args, BUILD_IDS, "store: built")


def _rerun(run: Run, tag: str, home: str) -> Tuple[Proc, Dict[str, str]]:
    """``stream all`` again, reading the store ``home``'s build wrote."""
    return _stream(run, tag, home, ["all"], BUILD_IDS, "store: hit")


def _queries(run: Run, home: str, count: int) -> Tuple[List[float], str]:
    """Warm era queries against ``home``'s store: wall times and output digest."""
    walls, seen = [], set()
    for i in range(count):
        proc, digests = _stream(run, f"query{i}", home,
                                ["funnel", "--era", ERA], ("stream-funnel",),
                                "store: hit")
        walls.append(proc.wall_s)
        seen.add(digests.get("stream-funnel"))
    run.check(len(seen) == 1, f"era queries disagree: {sorted(map(str, seen))}")
    return walls, seen.pop()


def untraced(run: Run) -> None:
    run.metrics["setup_s"] = version_setup(run)
    cold_walls, warm_walls = [], []
    for i in range(run.size.cold_builds):
        cold, digests = _build(run, f"build{i}")
        expected = run.archive.setdefault("stream", digests)
        run.check(digests == expected,
                  f"{cold.tag}: output differs from the first build's")
        cold_walls.append(cold.wall_s)
        for j in range(WARM_RERUNS):
            warm, warm_digests = _rerun(run, f"warm{i}-{j}", f"build{i}")
            run.check(warm_digests == expected,
                      f"{warm.tag}: output differs from the first build's")
            warm_walls.append(warm.wall_s)
    run.metrics["cold_s"] = median(cold_walls)
    run.metrics["warm_s"] = median(warm_walls)


def traced(run: Run) -> None:
    run.metrics["cli.import_s"] = import_seconds(run)
    plain, digests = _build(run, "cli")
    with_trace, traced_digests = _build(run, "cli-trace", trace=True)
    run.check(traced_digests == digests, "--trace changed the slices' output")
    walls, era_digest = _queries(run, "cli", ERA_QUERIES)
    run.archive.update(stream=digests, era_query=era_digest)
    spans = Spans()
    replayed, replayed_era = _replay(run, spans)
    run.check(replayed == digests, "in-process replay differs from the CLI")
    run.check(replayed_era == era_digest, "in-process era slice differs")
    covered = spans.covered("stream.replay")
    run.metrics.update({
        "build_s": plain.wall_s,
        "era_query_s": median(walls),
        "stream.other_s": plain.wall_s - covered,
        "obs.overhead_frac": with_trace.wall_s / plain.wall_s - 1.0,
    })
    run.details["replay_covered_s"] = covered
    run.spans = spans.to_json()


def _replay(run: Run, spans: Spans) -> Tuple[Dict[str, str], str]:
    """The cold build, every slice and the era slice, one span per call."""
    from repro import __version__
    from repro.obs import disable_tracing, enable_tracing
    from repro.report.stream_experiments import run_stream_result
    from repro.runs import RunContext, RunStore, detect_git_rev
    from repro.synth.cache import cached_partitioned_store, config_fingerprint
    from repro.synth.config import SimulationConfig

    scale = run.size.stream_scale
    market = {"engine": "auto", "generate_posts": True}
    cache_dir = str(run.path("replay", "cache"))
    tracer = enable_tracing()
    try:
        digests: Dict[str, str] = {}
        results = []
        with spans.span("stream.replay"):
            with spans.span("partitions.build"):
                store, hit = cached_partitioned_store(
                    scale=scale, seed=run.seed, cache_dir=cache_dir, **market)
            run.check(not hit, "the replay's store was not built fresh")
            opened = tracer.counters.get("partition.opened", 0)
            for sid in SLICE_IDS:
                with spans.span(f"streaming.{sid}"):
                    result = run_stream_result(sid, store)
                run.check(result.ok, f"slice {sid} failed in the replay")
                results.append(result)
                digests[result.experiment_id] = artefact_digest(result.text())
            opened_all = tracer.counters.get("partition.opened", 0) - opened
            config = SimulationConfig(scale=scale, seed=run.seed, **market)
            context = RunContext(
                command="stream", config_sha256=config_fingerprint(config),
                seed=run.seed, scale=scale, engine=config.resolved_engine,
                store="partitioned", experiments=BUILD_IDS,
                package_version=__version__,
                python_version=platform.python_version(),
                git_rev=detect_git_rev(),
                config={"scale": scale, "seed": run.seed, **market},
            )
            runs = RunStore(str(run.path("replay", "runs")))
            with spans.span("runs.record"):
                handle = runs.begin(context)
                for result in results:
                    handle.record(result)
                handle.finish()

        with spans.span("partitions.open"):
            warm, hit = cached_partitioned_store(
                scale=scale, seed=run.seed, cache_dir=cache_dir, **market)
        run.check(hit, "the replay's second store open was not a hit")
        opened = tracer.counters.get("partition.opened", 0)
        with spans.span("streaming.funnel_era"):
            era = run_stream_result("funnel", warm, era=ERA)
        opened_era = tracer.counters.get("partition.opened", 0) - opened
    finally:
        disable_tracing()

    run.metrics.update({
        "synth.contracts": sum(entry["counts"]["contracts"]
                               for entry in store.manifest["months"]),
        "partitions.build_s": spans.durations("partitions.build")[0],
        "partitions.open_s": spans.durations("partitions.open")[0],
        "partitions.store_mb": dir_mb(Path(store.path)),
        "partitions.opened_all": opened_all,
        "partitions.opened_era": opened_era,
        "streaming.funnel_era_s": spans.durations("streaming.funnel_era")[0],
        "runs.record_s": spans.durations("runs.record")[0],
    })
    for sid in SLICE_IDS:
        run.metrics[f"streaming.{sid}_s"] = spans.durations(f"streaming.{sid}")[0]
    run_store_metrics(run, runs)
    return digests, artefact_digest(era.text())
