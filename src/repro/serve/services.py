"""The service layer: deterministic, cached execution of serve requests.

Every endpoint that computes anything reduces its request to a frozen
:class:`~repro.runs.contract.RunContext` whose
:meth:`~repro.runs.contract.RunContext.run_key` *is* the cache key.
:meth:`MarketService.execute` then resolves that key through three
tiers, cheapest first:

1. **memo** — an in-process map of run_key → response payload, the
   :data:`MEMO_CAPACITY` most recently used kept;
2. **store** — a completed run with the same key in the persistent
   :class:`~repro.runs.store.RunStore` (so replays survive restarts and
   are shared between server processes pointed at one runs dir), found
   by :func:`~repro.runs.runner.stored_results` probing the key's run
   slots;
3. **compute** — resolve the context through the same runner as the
   CLI (:mod:`repro.runs.runner`): open its dataset through the dataset
   cache (:mod:`repro.synth.cache`, itself keyed on the config
   fingerprint inside the run key; experiments, summaries and slices of
   one market share its one entry), run its ids, record the new run.

Tier 3 is single-flight: concurrent requests for the same key serialize
on a per-key lock and re-check the memo/store inside it, so two
simultaneous identical requests trigger exactly one generation — the
second serves the first's bytes.  The lock is dropped once no request
holds or awaits it.  Responses are built exclusively from
deterministic result fields (never timings or attempt counts), so all
three tiers yield byte-identical JSON for one key.

Compute normally hops to a forked worker
(:func:`repro.robust.parallel.forked_call`): the executor threads a
server runs handlers on cannot arm ``SIGALRM``
(``RetryOutcome.enforced`` would be False), while a forked child's main
thread can — that is what makes ``timeout_seconds`` a real bound here.
"""

from __future__ import annotations

import encodings.utf_32_le  # noqa: F401 - preloaded, see below
import mmap  # noqa: F401 - preloaded, see below
import platform
import resource  # noqa: F401 - preloaded, see below
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy.ma  # noqa: F401 - preloaded, see below
import numpy.random  # noqa: F401 - preloaded, see below

from .. import __version__
from ..obs.manifest import RunManifest, write_manifest
from ..obs.tracer import get_tracer
from ..robust.parallel import forked_call
from ..robust.retry import RetryPolicy
from ..runs.contract import ExperimentResult, RunContext
from ..runs.runner import context_for, open_market, run_results, stored_results
from ..runs.store import RunStore, UnknownRunError
from ..synth.config import SimulationConfig
from .settings import ServeSettings

# The runner imports both registries, the dataset cache, the generator
# and the partition streamer on first use.  Below them, NumPy imports
# numpy.random at the first generator, numpy.ma at the first np.unique
# and mmap at the first mapped shard column; the store's text decoder
# imports the UTF-32 codec, and the tracer resource at its first
# peak-RSS reading.  Importing them with the server leaves a forked
# compute worker nothing to import.
from ..report import experiments as _classic, stream_experiments as _slices  # noqa: F401
from ..synth import cache as _cache, fastgen, streamgen  # noqa: F401

__all__ = ["MEMO_CAPACITY", "ServeReply", "MarketService", "response_payload"]

#: Payloads the memo keeps; the least recently used goes first.  1,150
#: recorded slice payloads held 9.8 MB under tracemalloc (~8.5 KB each),
#: so a full memo holds ~9 MB.
MEMO_CAPACITY = 1024


@dataclass
class ServeReply:
    """What the service hands back to a router.

    ``source`` names the tier that produced the payload (``memo`` /
    ``store`` / ``computed``); ``ok`` is False when any requested
    experiment degraded to a recorded failure (rendered as HTTP 500,
    never memoized).
    """

    payload: Dict[str, Any]
    source: str
    ok: bool = True
    run_key: str = ""


def _result_payload(result: ExperimentResult) -> Dict[str, Any]:
    """The deterministic slice of one result.

    Timings, attempt counts and tracebacks vary between identical runs
    and are deliberately excluded — they live in the run store, not in
    the byte-stable response.
    """
    payload: Dict[str, Any] = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "status": result.status,
        "lines": list(result.lines),
        "metrics": {k: float(v) for k, v in result.metrics.items()},
        "text_sha256": result.text_digest(),
    }
    if result.error is not None:
        payload["error"] = {
            "type": result.error.get("type"),
            "message": result.error.get("message"),
        }
    return payload


def response_payload(
    context: RunContext, results: List[ExperimentResult]
) -> Dict[str, Any]:
    """The full JSON payload for one resolved context."""
    return {
        "command": context.command,
        "run_key": context.run_key(),
        "config_sha256": context.config_sha256,
        "seed": context.seed,
        "scale": context.scale,
        "engine": context.engine,
        "store": context.store,
        "params": dict(context.params),
        "experiments": list(context.experiments),
        "results": [_result_payload(result) for result in results],
    }


def _compute_results(spec: Mapping[str, Any]) -> List[ExperimentResult]:
    """Execute one serve context end to end (runs in the forked child).

    ``spec`` is a plain picklable dict — ``{"context": <RunContext
    payload>, "cache_dir": ...}`` — because this function crosses the
    fork boundary.  The context goes through the same runner as the CLI
    (:mod:`repro.runs.runner`), so the dataset always comes through the
    on-disk cache and a re-computation after an eviction of the
    memo/run-store tiers still reuses generated data.
    """
    context = RunContext.from_payload(spec["context"])
    market = open_market(context, cache_dir=spec.get("cache_dir"))
    return run_results(context, market)


@dataclass
class _Flight:
    """One key's single-flight lock and the requests holding or awaiting it."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    users: int = 0


class MarketService:
    """Resolve serve contexts through memo → run store → compute."""

    def __init__(self, settings: ServeSettings) -> None:
        self.settings = settings
        self.store: Optional[RunStore] = (
            RunStore(settings.runs_dir) if settings.use_run_store else None
        )
        self._memo: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._memo_lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}

    # ------------------------------------------------------- contexts

    def build_context(
        self,
        command: str,
        experiments: Tuple[str, ...],
        scale: float,
        seed: int,
        *,
        posts: bool = True,
        latent_k: int = 12,
        store_kind: str = "resident",
        params: Optional[Dict[str, Any]] = None,
    ) -> RunContext:
        """A serve-originated :class:`RunContext` for one request.

        ``store_kind`` is the context's recorded ``store`` label
        (``partitioned`` for slices; see
        :func:`~repro.runs.runner.context_for`): every kind reads the
        config's one cache entry.  Raises ``ValueError`` for an
        unbuildable config — routers map that to a 400.
        """
        settings = self.settings
        return context_for(
            command,
            SimulationConfig(scale=scale, seed=seed, generate_posts=posts),
            experiments,
            store=store_kind,
            latent_k=latent_k,
            policy=RetryPolicy(
                max_retries=max(0, settings.max_retries),
                backoff_seconds=max(0.0, settings.retry_backoff),
                timeout_seconds=settings.timeout_seconds,
            ),
            params=params,
        )

    # ------------------------------------------------------ resolution

    def execute(self, context: RunContext, request_id: str = "") -> ServeReply:
        """Resolve ``context`` to a reply; blocking, call off the loop."""
        key = context.run_key()
        memo = self._memo_get(key)
        if memo is not None:
            get_tracer().count("serve.memo_hit")
            return ServeReply(memo, "memo", ok=True, run_key=key)
        with self._single_flight(key):
            memo = self._memo_get(key)
            if memo is not None:
                get_tracer().count("serve.memo_hit")
                return ServeReply(memo, "memo", ok=True, run_key=key)
            stored = self._stored_payload(context)
            if stored is not None:
                get_tracer().count("serve.store_hit")
                self._memo_put(key, stored)
                return ServeReply(stored, "store", ok=True, run_key=key)
            payload, ok = self._compute_and_record(context, request_id)
            if ok:
                self._memo_put(key, payload)
            return ServeReply(payload, "computed", ok=ok, run_key=key)

    def _memo_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._memo_lock:
            payload = self._memo.get(key)
            if payload is not None:
                self._memo.move_to_end(key)
            return payload

    def _memo_put(self, key: str, payload: Dict[str, Any]) -> None:
        with self._memo_lock:
            self._memo[key] = payload
            self._memo.move_to_end(key)
            while len(self._memo) > MEMO_CAPACITY:
                self._memo.popitem(last=False)
                get_tracer().count("serve.memo_evicted")

    @contextmanager
    def _single_flight(self, key: str) -> Iterator[None]:
        """Hold ``key``'s lock; drop it when no request holds or awaits it."""
        with self._memo_lock:
            flight = self._inflight.setdefault(key, _Flight())
            flight.users += 1
        try:
            with flight.lock:
                yield
        finally:
            with self._memo_lock:
                flight.users -= 1
                if not flight.users:
                    del self._inflight[key]

    def _stored_payload(self, context: RunContext) -> Optional[Dict[str, Any]]:
        """A payload rebuilt from a completed identical run, if any."""
        if self.store is None:
            return None
        results = stored_results(self.store, context)
        return None if results is None else response_payload(context, results)

    def _compute_and_record(
        self, context: RunContext, request_id: str
    ) -> Tuple[Dict[str, Any], bool]:
        tracer = get_tracer()
        tracer.count("serve.compute")
        spec = {
            "context": context.to_payload(),
            "cache_dir": self.settings.cache_dir,
        }
        if self.settings.use_fork:
            results, forked = forked_call(
                _compute_results,
                spec,
                span="serve.compute",
                fallback_counter="serve.compute_inline",
            )
        else:
            results, forked = _compute_results(spec), False
        for result in results:
            result.trace = None
        ok = all(result.ok for result in results)
        self._record(context, results, request_id, forked)
        return response_payload(context, results), ok

    def _record(
        self,
        context: RunContext,
        results: List[ExperimentResult],
        request_id: str,
        forked: bool,
    ) -> None:
        """Persist the computed run (best-effort — serving wins)."""
        if self.store is None:
            return
        clock = self.settings.clock
        created = clock() if clock is not None else None
        try:
            handle = self.store.begin(context, created_unix=created)
            for result in results:
                handle.record(result)
            record = handle.finish()
            manifest = RunManifest(
                command=context.command,
                config_sha256=context.config_sha256,
                seed=context.seed,
                scale=context.scale,
                package_version=__version__,
                python_version=platform.python_version(),
                created_unix=created,
                run_id=record.run_id,
                request_id=request_id or None,
                params={
                    **dict(context.params),
                    "forked": forked,
                    "experiments": len(results),
                },
                experiments=[
                    {
                        "id": result.experiment_id,
                        "seconds": result.seconds,
                        "attempts": result.attempts,
                        **({"error": result.error} if result.error else {}),
                    }
                    for result in results
                ],
                total_seconds=sum(result.seconds for result in results),
            )
            write_manifest(manifest, record.manifest_path())
        except Exception:  # robust: run-store persistence is provenance, not the product — a full disk or permission error must not fail the request that already computed its answer
            get_tracer().count("serve.record_failed")

    # -------------------------------------------------------- queries

    def list_runs(self, **filters: Any) -> List[Dict[str, Any]]:
        """Run-store listing for the ``/v1/runs`` endpoints."""
        if self.store is None:
            return []
        out = []
        for record in self.store.list_runs(**filters):
            out.append(
                {
                    "run_id": record.run_id,
                    "command": record.context.command,
                    "status": record.status,
                    "seed": record.context.seed,
                    "scale": record.context.scale,
                    "experiments": list(record.context.experiments),
                    "n_recorded": record.n_recorded,
                    "created_unix": record.created_unix,
                }
            )
        return out

    def run_detail(self, run_id: str) -> Optional[Dict[str, Any]]:
        """One run in detail, or ``None`` for an unknown id."""
        if self.store is None:
            return None
        try:
            record = self.store.load(run_id)
        except UnknownRunError:
            return None
        return {
            "run_id": record.run_id,
            "command": record.context.command,
            "status": record.status,
            "run_key": record.context.run_key(),
            "context": record.context.to_payload(),
            "created_unix": record.created_unix,
            "total_seconds": record.total_seconds,
            "results": [
                _result_payload(record.results[experiment_id])
                for experiment_id in sorted(record.results)
            ],
        }
