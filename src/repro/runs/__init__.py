"""repro.runs — the experiment run-contract and persistent run store.

The lifecycle layer behind ``repro runs``: every ``repro report`` /
``repro stream`` invocation flows a frozen
:class:`~repro.runs.contract.RunContext` in and typed
:class:`~repro.runs.contract.ExperimentResult` objects out, persisted
into an atomically-published, checksummed run directory
(:class:`~repro.runs.store.RunStore`) that can later be listed,
inspected, compared metric-by-metric
(:func:`~repro.runs.diffs.diff_runs`) and — for interrupted or degraded
sweeps — resumed (:func:`~repro.runs.runner.resume_run`) with only the
missing experiments re-executed.

* :mod:`repro.runs.contract` — the typed contract and the deterministic
  metric extraction both registries share;
* :mod:`repro.runs.store` — the on-disk store: run directories,
  atomic result recording, corrupt-run quarantine, the shared manifest
  resolver used by ``trace show`` and ``runs show``;
* :mod:`repro.runs.runner` — the one run path: context construction,
  the dataset source a context names, the registry each result id runs
  in, execute and resume;
* :mod:`repro.runs.diffs` — per-experiment metric deltas with
  tolerance;
* :mod:`repro.runs.render` — text rendering for the CLI.

Run identity is a pure function of the context (config hash, seed,
scale, engine, store kind, experiment selection) — never a timestamp —
so reruns of the same invocation land in sibling slots and
``runs diff`` on two identical-(seed, config) runs reports zero metric
deltas.  See ``docs/run-contract.md`` for the full schema and worked
examples.
"""

from .contract import (
    RUN_SCHEMA_VERSION,
    ExperimentResult,
    RunContext,
    extract_metrics,
    result_from_outcome,
    text_sha256,
)
from .diffs import ExperimentDiff, MetricDelta, RunDiff, diff_runs
from .render import render_run, render_run_diff, render_runs_table
from .runner import (
    Market,
    context_for,
    detect_git_rev,
    execute_run,
    open_market,
    resume_run,
    run_results,
    stored_results,
)
from .store import (
    RUN_FILE,
    CorruptRunError,
    RunHandle,
    RunRecord,
    RunsError,
    RunStore,
    UnknownRunError,
    default_runs_dir,
    load_manifest,
    resolve_manifest_path,
)

__all__ = [
    "RUN_SCHEMA_VERSION",
    "RUN_FILE",
    "RunContext",
    "ExperimentResult",
    "extract_metrics",
    "result_from_outcome",
    "text_sha256",
    "RunsError",
    "CorruptRunError",
    "UnknownRunError",
    "RunStore",
    "RunHandle",
    "RunRecord",
    "default_runs_dir",
    "resolve_manifest_path",
    "load_manifest",
    "MetricDelta",
    "ExperimentDiff",
    "RunDiff",
    "diff_runs",
    "render_runs_table",
    "render_run",
    "render_run_diff",
    "Market",
    "context_for",
    "detect_git_rev",
    "execute_run",
    "open_market",
    "resume_run",
    "run_results",
    "stored_results",
]
