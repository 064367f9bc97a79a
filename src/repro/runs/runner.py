"""Run orchestration: the one path from a :class:`RunContext` to results.

``repro report``, ``repro stream``, ``repro runs resume`` and serve's
forked compute all resolve a context here, in three steps:

1. :func:`context_for` builds the context from a
   :class:`~repro.synth.config.SimulationConfig`: the fingerprint, the
   resolved engine, versions, git revision and the reconstructable
   ``config`` overrides that resume rebuilds the dataset from;
2. :func:`open_market` opens the dataset source the context names —
   the month-partitioned store for ``store="partitioned"``, otherwise the
   resident cache entry, or plain generation when the caller opts out of
   the cache;
3. :func:`run_results` runs each result id through its registry:
   ``stream-<id>`` slices fold the partitioned store, ``summary`` is
   serve's dataset overview, every other id is a classic experiment.

:func:`stored_results` is the replay beside them: the results of a
recorded run of the context, found by probing its run key's slots in the
store, so serve's store tier never recomputes what a run already holds.

:func:`execute_run` wraps step 3 in a run-store directory (begin, record
each result as it lands, seal).  :func:`resume_run` is its inverse for an
interrupted or degraded run: reopen it, reopen its dataset, and
re-execute **only** the ids without an ``ok`` result — under the retry
policy the original invocation recorded.

:func:`context_for` and :func:`open_market` are registered generation
entry points for reprolint R010 (cache-key completeness): every config
field they cause to be read must be covered by the cache fingerprint,
which is what makes a resumed run land on the same cached dataset as the
original.

The registries and the dataset cache load inside the functions that use
them, so importing this module (``repro runs list``) loads neither SciPy
nor networkx.  This module never reads the wall clock (reprolint R002):
run identity comes from the context and ``created_unix`` stamps are
passed in by the caller.
"""

from __future__ import annotations

import functools
import platform
import subprocess
from itertools import groupby
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, Optional,
    Sequence, Tuple,
)

from .. import __version__
from ..robust.retry import RetryPolicy
from ..synth.config import SimulationConfig
from .contract import ExperimentResult, RunContext, extract_metrics
from .store import RunHandle, RunRecord, RunsError, RunStore

if TYPE_CHECKING:
    from ..core.partitions import PartitionStore
    from ..report.experiments import ExperimentContext
    from ..synth.marketsim import SimulationResult

__all__ = [
    "Market",
    "context_for",
    "detect_git_rev",
    "execute_run",
    "open_market",
    "resume_run",
    "run_results",
    "stored_results",
]

#: The config fields a context records, so resume can rebuild the config.
_RECORDED_FIELDS = ("scale", "seed", "engine", "generate_posts")


@functools.lru_cache(maxsize=None)
def detect_git_rev(cwd: Optional[str] = None) -> str:
    """The short git revision of ``cwd``'s checkout, or ``""``.

    Best-effort provenance: a missing ``git`` binary, a non-repo
    directory, or any other failure degrades to the empty string —
    provenance must never break a run.  Looked up once per process.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except Exception:  # robust: provenance is best-effort, never fatal
        return ""
    if proc.returncode != 0:
        return ""
    return proc.stdout.strip()


def context_for(
    command: str,
    config: SimulationConfig,
    experiments: Iterable[str],
    *,
    store: str = "resident",
    latent_k: int = 12,
    parallel: int = 1,
    policy: Optional[RetryPolicy] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> RunContext:
    """The :class:`RunContext` for running ``experiments`` on ``config``.

    ``store`` names the dataset source :func:`open_market` will open;
    ``policy`` (default :class:`~repro.robust.RetryPolicy`) is recorded
    for the run and for its resumption.  A config that the recorded
    overrides cannot rebuild (custom curves, cohort counts) keeps its
    fingerprint but records no ``config``, so resume refuses it rather
    than guessing.
    """
    from ..synth.cache import config_fingerprint

    policy = policy if policy is not None else RetryPolicy()
    recorded = {name: getattr(config, name) for name in _RECORDED_FIELDS}
    return RunContext(
        command=command,
        config_sha256=config_fingerprint(config),
        seed=config.seed,
        scale=config.scale,
        engine=config.resolved_engine,
        store=store,
        experiments=tuple(experiments),
        latent_k=latent_k,
        package_version=__version__,
        python_version=platform.python_version(),
        git_rev=detect_git_rev(),
        parallel=max(1, parallel),
        max_retries=policy.max_retries,
        retry_backoff=policy.backoff_seconds,
        timeout_seconds=policy.timeout_seconds,
        params=dict(params or {}),
        config=recorded if SimulationConfig(**recorded) == config else {},
    )


def _rebuild_config(context: RunContext) -> SimulationConfig:
    """Reconstruct the context's config, or refuse with a clear error."""
    payload = dict(context.config)
    if not payload:
        raise RunsError(
            "this run records no reconstructable config (it was created "
            "programmatically, e.g. with custom curves); cannot resume"
        )
    try:
        config = SimulationConfig(**payload)
    except TypeError as exc:
        raise RunsError(f"recorded config is not reconstructable: {exc}") from exc
    from ..synth.cache import config_fingerprint

    fingerprint = config_fingerprint(config)
    if fingerprint != context.config_sha256:
        raise RunsError(
            "recorded config overrides reproduce fingerprint "
            f"{fingerprint[:12]}… but the run was created from "
            f"{context.config_sha256[:12]}…; refusing to resume against "
            "a different dataset"
        )
    return config


class Market:
    """The dataset a context names, opened once.

    A ``partitioned`` context's market holds the month-partitioned
    :attr:`store`; a ``resident`` one holds the :attr:`result`.  ``hit``
    says whether the dataset came out of the cache.
    """

    def __init__(
        self,
        config: SimulationConfig,
        hit: bool,
        *,
        result: Optional["SimulationResult"] = None,
        store: Optional["PartitionStore"] = None,
    ) -> None:
        self.config = config
        self.hit = hit
        self._result = result
        self._store = store
        self._contexts: Dict[int, "ExperimentContext"] = {}

    @property
    def store(self) -> "PartitionStore":
        """The month-partitioned store; slices read nothing else."""
        if self._store is None:
            raise RunsError("slices need the partitioned store; this run "
                            "reads the resident cache")
        return self._store

    @property
    def result(self) -> "SimulationResult":
        """The resident market, built from the store on first use."""
        if self._result is None:
            from ..synth.cache import result_from_partitioned_store

            self._result = result_from_partitioned_store(self.store, self.config)
        return self._result

    def experiment_context(self, latent_k: int) -> "ExperimentContext":
        """The classic registry's context (model caches shared per market)."""
        if latent_k not in self._contexts:
            from ..report.experiments import ExperimentContext

            self._contexts[latent_k] = ExperimentContext(
                self.result, latent_k=latent_k
            )
        return self._contexts[latent_k]


def open_market(
    context: RunContext,
    *,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    refresh: bool = False,
    gen_workers: int = 1,
) -> Market:
    """Open the dataset source ``context`` names.

    A ``partitioned`` context opens (or builds) the month-partitioned
    store; a ``resident`` one loads (or generates and caches) the cache
    entry, or only generates with ``use_cache=False``.  ``refresh``
    rebuilds a cached entry; ``gen_workers`` forks resident generation.
    Raises :class:`~repro.runs.store.RunsError` when the context's
    recorded config cannot be rebuilt or no longer matches its
    fingerprint.
    """
    config = _rebuild_config(context)
    overrides = dict(context.config)
    if context.store == "partitioned":
        from ..synth.cache import cached_partitioned_store

        store, hit = cached_partitioned_store(
            cache_dir=cache_dir, refresh=refresh, **overrides
        )
        return Market(config, hit, store=store)
    if not use_cache:
        from ..synth.engine import run_engine

        return Market(config, False, result=run_engine(config, workers=gen_workers))
    from ..synth.cache import cached_generate

    result, hit = cached_generate(
        cache_dir=cache_dir, refresh=refresh, gen_workers=gen_workers,
        **overrides,
    )
    return Market(config, hit, result=result)


def stored_results(
    store: RunStore, context: RunContext
) -> Optional[List[ExperimentResult]]:
    """``context``'s results replayed from ``store``, in context order.

    ``None`` when no complete run of the context's key holds an ``ok``
    result for each of its ids (see :meth:`RunStore.find`: the lookup
    probes the key's run slots, never lists the store).
    """
    record = store.find(context)
    if record is None:
        return None
    return [record.results[eid] for eid in context.experiments]


def _registry(result_id: str) -> str:
    if result_id.startswith("stream-"):
        return "stream"
    return "summary" if result_id == "summary" else "classic"


def _stream_result(
    context: RunContext, market: Market, result_id: str, policy: RetryPolicy
) -> ExperimentResult:
    from ..report.stream_experiments import run_stream_result

    params = dict(context.params)
    return run_stream_result(
        result_id[len("stream-"):],
        market.store,
        start=params.get("start"),
        end=params.get("end"),
        era=params.get("era"),
        policy=policy,
    )


def _summary_result(market: Market) -> ExperimentResult:
    summary = market.result.dataset.summary()
    lines = [f"{key:<22s} {summary[key]:>12,}" for key in sorted(summary)]
    return ExperimentResult(
        "summary", "dataset summary", lines, 0.0, metrics=extract_metrics(lines)
    )


def run_results(
    context: RunContext,
    market: Market,
    ids: Optional[Sequence[str]] = None,
    *,
    parallel: Optional[int] = None,
    on_result: Optional[Callable[[ExperimentResult], Any]] = None,
) -> List[ExperimentResult]:
    """Run ``ids`` (default: the context's) on ``market``, in order.

    Each id goes to its registry under the context's retry policy.
    Classic experiments fan out over ``parallel`` workers (default: the
    context's count); slices and the summary run serially.  ``on_result``
    fires for every result as it lands on serial paths, and after the
    batch for a parallel one.
    """
    wanted = list(context.experiments if ids is None else ids)
    policy = context.retry_policy()
    workers = max(1, context.parallel if parallel is None else parallel)
    results: List[ExperimentResult] = []
    for registry, group in groupby(wanted, key=_registry):
        if registry == "classic":
            from ..report.experiments import run_all_experiments

            results += run_all_experiments(
                market.experiment_context(context.latent_k),
                list(group),
                parallel=workers,
                policy=policy,
                on_result=on_result,
            )
            continue
        for result_id in group:
            if registry == "stream":
                result = _stream_result(context, market, result_id, policy)
            else:
                result = _summary_result(market)
            if on_result is not None:
                on_result(result)
            results.append(result)
    return results


def execute_run(
    store: Optional[RunStore],
    context: RunContext,
    market: Market,
    created_unix: Optional[float] = None,
) -> Tuple[Optional[RunRecord], List[ExperimentResult]]:
    """Run ``context`` on ``market``, persisted as one run.

    With ``store=None`` the results are not recorded and the record comes
    back ``None`` — the ``--no-run-store`` escape hatch.  Serial sweeps
    persist each result the moment it finishes, so a mid-sweep kill is
    resumable (see :func:`resume_run`).
    """
    handle: Optional[RunHandle] = None
    if store is not None:
        handle = store.begin(context, created_unix=created_unix)
    results = run_results(
        context, market, on_result=handle.record if handle is not None else None
    )
    record = handle.finish() if handle is not None else None
    return record, results


def resume_run(
    store: RunStore,
    run_id: str,
    cache_dir: Optional[str] = None,
    parallel: Optional[int] = None,
) -> Tuple[RunRecord, List[str]]:
    """Complete an interrupted or degraded run in place.

    Loads the run, determines the planned ids without an ``ok`` result
    (missing after a mid-sweep kill, or recorded failures), reopens the
    dataset its context names through :func:`open_market`, and
    re-executes only those through :func:`run_results`.  Returns the
    sealed record and the ids that were re-executed (empty when the run
    was already complete; the run is then just re-sealed, refreshing
    status and index).

    Raises :class:`~repro.runs.store.RunsError` when the recorded
    config cannot be rebuilt or no longer matches the run's fingerprint.
    """
    record = store.load(run_id)
    pending = record.pending
    handle = store.reopen(run_id)
    if not pending:
        return handle.finish(), []
    market = open_market(record.context, cache_dir=cache_dir)
    run_results(
        record.context, market, pending, parallel=parallel,
        on_result=handle.record,
    )
    return handle.finish(), pending
