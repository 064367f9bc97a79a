"""The queryable persistent run store behind ``repro runs``.

One invocation = one run directory, atomically published under the runs
root (``$REPRO_RUNS_DIR`` or ``~/.cache/repro/runs``):

.. code-block:: text

    <runs-root>/<run-id>/
        run.json            # status + RunContext + checksummed index
        results/<id>.json   # one ExperimentResult payload per experiment
        artifacts/<id>.txt  # the rendered table/figure text
        run_manifest.json   # tracer manifest, when the run was traced

The directory name is the deterministic :meth:`~repro.runs.contract.
RunContext.run_name` (identity-derived, never a timestamp); repeat
invocations of the same context get ordinal ``-2``/``-3`` suffixes so
byte-identical reruns sit side by side for ``runs diff``, and
:meth:`RunStore.find` replays a context by probing those slots in
order.  Publication reuses the :mod:`repro.robust` protocol end to end:
the directory is staged as a ``tmp-<pid>`` sibling (never listed as a
run) and renamed into place, every result file is written via
write-to-temp + fsync + ``os.replace``, and ``finish`` seals the run
with a sha256 index over its files.  A
``run.json`` that fails to parse — torn by a crash or external writer —
is quarantined to ``<run>.corrupt-<n>`` and counted
(``runs.corrupt``), never deleted and never fatal to a listing.

``run.json`` keeps ``status="running"`` until every planned experiment
has a recorded result; an interrupted sweep therefore remains visible,
and ``repro runs resume`` re-executes exactly the experiments without an
``ok`` result (see :mod:`repro.runs.runner`).

This module never reads the wall clock (reprolint R002): run identity is
context-derived and ``created_unix`` stamps are passed in by the CLI.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs.manifest import MANIFEST_NAME, RunManifest, read_manifest
from ..obs.tracer import get_tracer
from ..robust.atomic import fsync_path, publish_dir, sha256_file, staging_dir
from ..robust.crashpoints import crash_point
from ..robust.locks import FileLock, LockTimeout
from ..robust.quarantine import quarantine_dir
from .contract import (
    RUN_SCHEMA_VERSION,
    ExperimentResult,
    RunContext,
    extract_metrics,
)

__all__ = [
    "RUN_FILE",
    "RunsError",
    "CorruptRunError",
    "UnknownRunError",
    "RunRecord",
    "RunHandle",
    "RunStore",
    "default_runs_dir",
    "resolve_manifest_path",
    "load_manifest",
]

#: The per-run index file sealing status, context and checksums.
RUN_FILE = "run.json"

_RESULTS_DIR = "results"
_ARTIFACTS_DIR = "artifacts"

#: The siblings the publish protocol stages a run in (``<run>.tmp-<pid>``)
#: and displaces an old one to (``<run>.old-<pid>``): never runs, even
#: when an interrupted writer left one holding a ``run.json``.
_PUBLISH_SIBLING = re.compile(r"\.(?:tmp|old)-\d+$")


class RunsError(RuntimeError):
    """Base class for run-store failures."""


class CorruptRunError(RunsError):
    """A run directory whose index or results cannot be trusted."""


class UnknownRunError(RunsError):
    """A run id that does not exist under the runs root."""


def default_runs_dir() -> str:
    """``$REPRO_RUNS_DIR`` if set, else ``~/.cache/repro/runs``."""
    env = os.environ.get("REPRO_RUNS_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "runs")


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via temp-file + fsync + ``os.replace``."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_path(os.path.dirname(path))


def _read_json(path: str) -> Dict[str, Any]:
    """Parse a JSON object file; raise :class:`CorruptRunError` otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptRunError(f"unreadable run file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptRunError(f"expected a JSON object in {path}")
    return payload


@dataclass
class RunRecord:
    """One run as read back from disk: index, context and typed results."""

    run_id: str
    path: str
    status: str
    context: RunContext
    planned: List[str]
    created_unix: Optional[float] = None
    total_seconds: float = 0.0
    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    index: Dict[str, str] = field(default_factory=dict)
    #: Count of result files on disk (cheap listdir; set even when the
    #: results themselves are not loaded, so listings can show progress).
    n_recorded: int = 0

    @property
    def completed(self) -> List[str]:
        """Planned experiments with an ``ok`` result on disk."""
        return [
            eid for eid in self.planned
            if eid in self.results and self.results[eid].ok
        ]

    @property
    def pending(self) -> List[str]:
        """Planned experiments still missing an ``ok`` result."""
        return [
            eid for eid in self.planned
            if eid not in self.results or not self.results[eid].ok
        ]

    @property
    def ok(self) -> bool:
        return self.status == "complete"

    def manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)


class RunHandle:
    """Write access to one (open) run directory.

    Obtained from :meth:`RunStore.begin` (fresh run) or
    :meth:`RunStore.reopen` (resume).  :meth:`record` persists one
    result atomically the moment it is available — a mid-sweep kill
    loses at most the in-flight experiment — and :meth:`finish` seals
    the run with its checksummed index.
    """

    def __init__(
        self,
        run_id: str,
        path: str,
        context: RunContext,
        planned: List[str],
        created_unix: Optional[float] = None,
    ) -> None:
        self.run_id = run_id
        self.path = path
        self.context = context
        self.planned = list(planned)
        self.created_unix = created_unix

    # ------------------------------------------------------------- paths

    @property
    def results_dir(self) -> str:
        return os.path.join(self.path, _RESULTS_DIR)

    @property
    def artifacts_dir(self) -> str:
        return os.path.join(self.path, _ARTIFACTS_DIR)

    def manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)

    # ------------------------------------------------------------ writes

    def record(self, result: ExperimentResult) -> str:
        """Atomically persist one result; returns the result-file path.

        The artifact text lands in ``artifacts/<id>.txt`` and the typed
        payload in ``results/<id>.json``; both writes go through
        temp-file + ``os.replace`` so a kill can tear neither.  The
        ``runs.record`` crash point sits at the top so the fault
        harness can prove resumability (see ``tests/test_runs.py``).
        """
        crash_point("runs.record")
        tracer = get_tracer()
        with tracer.span("runs.record"):
            if result.ok and not result.metrics:
                result.metrics = extract_metrics(result.lines)
            artifact_rel = f"{_ARTIFACTS_DIR}/{result.experiment_id}.txt"
            _atomic_write_text(
                os.path.join(self.path, artifact_rel), result.text() + "\n"
            )
            result.artifacts = [artifact_rel]
            result_path = os.path.join(
                self.results_dir, f"{result.experiment_id}.json"
            )
            _atomic_write_text(
                result_path,
                json.dumps(result.to_payload(), indent=2, sort_keys=True) + "\n",
            )
        tracer.count("runs.recorded")
        return result_path

    def finish(self) -> "RunRecord":
        """Seal the run: compute the checksum index and final status.

        Status becomes ``complete`` when every planned experiment has an
        ``ok`` result, ``failed`` when all ran but some degraded, and
        stays ``running`` when results are still missing (a crash before
        the sweep finished).
        """
        tracer = get_tracer()
        with tracer.span("runs.finish"):
            results = _load_results(self.path)
            index: Dict[str, str] = {}
            for sub in (_RESULTS_DIR, _ARTIFACTS_DIR):
                subdir = os.path.join(self.path, sub)
                if not os.path.isdir(subdir):
                    continue
                for name in sorted(os.listdir(subdir)):
                    rel = f"{sub}/{name}"
                    index[rel] = sha256_file(os.path.join(self.path, rel))
            missing = [eid for eid in self.planned if eid not in results]
            if missing:
                status = "running"
            elif all(results[eid].ok for eid in self.planned):
                status = "complete"
            else:
                status = "failed"
            total_seconds = sum(r.seconds for r in results.values())
            payload = _run_payload(
                run_id=self.run_id,
                status=status,
                context=self.context,
                planned=self.planned,
                created_unix=self.created_unix,
                total_seconds=total_seconds,
                index=index,
            )
            _atomic_write_text(
                os.path.join(self.path, RUN_FILE),
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
            )
        tracer.count(f"runs.finished.{status}")
        return RunRecord(
            run_id=self.run_id,
            path=self.path,
            status=status,
            context=self.context,
            planned=list(self.planned),
            created_unix=self.created_unix,
            total_seconds=total_seconds,
            results=results,
            index=index,
        )


def _run_payload(
    *,
    run_id: str,
    status: str,
    context: RunContext,
    planned: List[str],
    created_unix: Optional[float],
    total_seconds: float = 0.0,
    index: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    return {
        "schema": RUN_SCHEMA_VERSION,
        "run_id": run_id,
        "status": status,
        "created_unix": created_unix,
        "context": context.to_payload(),
        "experiments": list(planned),
        "total_seconds": total_seconds,
        "index": dict(index or {}),
    }


def _quarantine_result_file(path: str) -> None:
    """Move an unparsable result file aside (``<file>.corrupt-<n>``)."""
    n = 1
    while os.path.exists(f"{path}.corrupt-{n}"):
        n += 1
    try:
        os.replace(path, f"{path}.corrupt-{n}")
    except OSError:  # robust: racing cleaner already moved it; skip
        pass
    get_tracer().count("runs.result_corrupt")


def _load_results(run_path: str) -> Dict[str, ExperimentResult]:
    """Read every parsable ``results/*.json``; quarantine torn ones."""
    results: Dict[str, ExperimentResult] = {}
    results_dir = os.path.join(run_path, _RESULTS_DIR)
    if not os.path.isdir(results_dir):
        return results
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(results_dir, name)
        try:
            result = ExperimentResult.from_payload(_read_json(path))
        except (CorruptRunError, ValueError, TypeError, KeyError):  # robust: a torn or stale result file must not sink the run — resume treats it as missing and re-executes the experiment
            _quarantine_result_file(path)
            continue
        results[result.experiment_id] = result
    return results


def _slot(base: str, n: int) -> str:
    """The run id of ``base``'s ``n``-th slot: ``base``, ``base-2``, …"""
    return base if n == 1 else f"{base}-{n}"


class RunStore:
    """Reader/writer over the runs root directory.

    All methods tolerate a missing root (empty store).  Corrupt run
    indexes encountered while listing are quarantined via
    :func:`repro.robust.quarantine.quarantine_dir` and skipped — a
    damaged run can never crash ``runs list``.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_runs_dir()

    # ------------------------------------------------------------ writes

    def begin(
        self,
        context: RunContext,
        created_unix: Optional[float] = None,
    ) -> RunHandle:
        """Allocate and atomically publish a fresh run directory.

        The name is ``context.run_name()`` plus the first free ordinal
        suffix; allocation is serialized by an advisory lock so two
        concurrent invocations of the same context get distinct slots
        (on :class:`~repro.robust.locks.LockTimeout` we proceed
        unlocked — worst case a retry on the rename, never corruption).
        """
        tracer = get_tracer()
        with tracer.span("runs.begin"):
            os.makedirs(self.root, exist_ok=True)
            lock = FileLock(os.path.join(self.root, ".runs.lock"), timeout=30.0)
            try:
                lock.acquire()
            except LockTimeout:
                pass
            try:
                base = context.run_name()
                run_id, final = self._allocate(base)
                run_json = json.dumps(
                    _run_payload(
                        run_id=run_id,
                        status="running",
                        context=context,
                        planned=list(context.experiments),
                        created_unix=created_unix,
                    ),
                    indent=2,
                    sort_keys=True,
                ) + "\n"
                tmp = staging_dir(final)
                if os.path.exists(tmp):
                    # Left by a begin of this slot under the same pid that
                    # stopped between staging and publication.
                    shutil.rmtree(tmp)
                try:
                    os.makedirs(os.path.join(tmp, _RESULTS_DIR))
                    os.makedirs(os.path.join(tmp, _ARTIFACTS_DIR))
                    _atomic_write_text(os.path.join(tmp, RUN_FILE), run_json)
                    publish_dir(tmp, final)
                except OSError:
                    # A failed write or rename (ENOSPC from fsync, say) must
                    # not leave the staging dir behind; a killed process
                    # leaves it to the pre-clear above.
                    shutil.rmtree(tmp, ignore_errors=True)
                    raise
            finally:
                lock.release()
        tracer.count("runs.started")
        return RunHandle(
            run_id, final, context, list(context.experiments), created_unix
        )

    def reopen(self, run_id: str) -> RunHandle:
        """A write handle onto an existing run (used by ``runs resume``)."""
        record = self.load(run_id, with_results=False)
        return RunHandle(
            record.run_id,
            record.path,
            record.context,
            list(record.planned),
            record.created_unix,
        )

    def _allocate(self, base: str) -> "tuple[str, str]":
        n = 1
        while os.path.exists(self.path_for(_slot(base, n))):
            n += 1
        return _slot(base, n), self.path_for(_slot(base, n))

    def find(self, context: RunContext) -> Optional[RunRecord]:
        """The recorded run that replays ``context``, or ``None``.

        Probes ``context``'s slots in the order :meth:`_allocate` fills
        them — ``run_name()``, then ``-2``, ``-3``, … — while a slot is
        taken, and returns the first run that is complete, has the same
        run key and holds an ``ok`` result for every experiment of the
        context.  A damaged run is skipped.  A lookup costs one probe per
        run recorded under the key plus one for the free slot that ends
        it, whatever the size of the store; a gap (a run deleted by hand
        or quarantined) therefore hides the runs beyond it, and the key
        is recomputed once into the gap.  The slots probed are counted
        as ``runs.lookup_probes``.
        """
        base, key = context.run_name(), context.run_key()
        found: Optional[RunRecord] = None
        n = 0
        while found is None:
            n += 1
            run_id = _slot(base, n)
            if not os.path.exists(self.path_for(run_id)):
                break
            try:
                record = self.load(run_id)
            except RunsError:  # robust: a damaged run is no replay — probe the next slot, never fail the lookup
                continue
            if record.ok and record.context.run_key() == key and all(
                eid in record.results and record.results[eid].ok
                for eid in context.experiments
            ):
                found = record
        get_tracer().count("runs.lookup_probes", n)
        return found

    # ------------------------------------------------------------- reads

    def path_for(self, run_id: str) -> str:
        return os.path.join(self.root, run_id)

    def run_ids(self) -> List[str]:
        """Ids of every run directory under the root holding a ``run.json``.

        Quarantined runs and the publish protocol's staging and
        displaced siblings are not runs and are left out.
        """
        if not os.path.isdir(self.root):
            return []
        out = []
        for name in sorted(os.listdir(self.root)):
            if (".corrupt-" in name or name.endswith(".lock")
                    or _PUBLISH_SIBLING.search(name)):
                continue
            if os.path.isfile(os.path.join(self.root, name, RUN_FILE)):
                out.append(name)
        return out

    def load(
        self,
        run_id: str,
        with_results: bool = True,
        verify: bool = False,
    ) -> RunRecord:
        """Read one run back as a :class:`RunRecord`.

        ``verify=True`` re-hashes every indexed file against the sealed
        sha256 index and raises :class:`CorruptRunError` on mismatch.
        Raises :class:`UnknownRunError` for an absent id and
        :class:`CorruptRunError` for an unparsable ``run.json``.
        """
        path = self.path_for(run_id)
        run_file = os.path.join(path, RUN_FILE)
        if not os.path.isdir(path) or not os.path.isfile(run_file):
            raise UnknownRunError(
                f"no run {run_id!r} under {self.root} "
                f"(try `repro runs list`)"
            )
        payload = _read_json(run_file)
        schema = payload.get("schema")
        if not isinstance(schema, int) or schema > RUN_SCHEMA_VERSION:
            raise CorruptRunError(
                f"unsupported run schema {schema!r} in {run_file} "
                f"(this build reads <= {RUN_SCHEMA_VERSION})"
            )
        try:
            context = RunContext.from_payload(payload.get("context") or {})
        except (ValueError, TypeError) as exc:
            raise CorruptRunError(f"bad run context in {run_file}: {exc}") from exc
        planned = payload.get("experiments")
        if not isinstance(planned, list):
            raise CorruptRunError(f"bad experiment list in {run_file}")
        index = payload.get("index") or {}
        if verify:
            self._verify_index(path, index)
        record = RunRecord(
            run_id=run_id,
            path=path,
            status=str(payload.get("status", "running")),
            context=context,
            planned=[str(e) for e in planned],
            created_unix=payload.get("created_unix"),
            total_seconds=float(payload.get("total_seconds", 0.0)),
            index={str(k): str(v) for k, v in index.items()},
        )
        results_dir = os.path.join(path, _RESULTS_DIR)
        if os.path.isdir(results_dir):
            record.n_recorded = sum(
                1 for name in os.listdir(results_dir)
                if name.endswith(".json")
            )
        if with_results:
            record.results = _load_results(path)
            record.n_recorded = len(record.results)
        return record

    @staticmethod
    def _verify_index(path: str, index: Dict[str, str]) -> None:
        for rel, want in index.items():
            target = os.path.join(path, rel)
            if not os.path.isfile(target):
                raise CorruptRunError(f"indexed file missing: {target}")
            got = sha256_file(target)
            if got != want:
                raise CorruptRunError(
                    f"checksum mismatch for {target}: "
                    f"index says {want[:12]}…, file is {got[:12]}…"
                )

    def list_runs(
        self,
        command: Optional[str] = None,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
        config_prefix: Optional[str] = None,
        era: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[RunRecord]:
        """Filterable run listing (indexes only; results not loaded).

        A run whose ``run.json`` is corrupt is quarantined to
        ``<run>.corrupt-<n>`` (counted as ``runs.corrupt``) and skipped.
        """
        records: List[RunRecord] = []
        for run_id in self.run_ids():
            try:
                record = self.load(run_id, with_results=False)
            except CorruptRunError:  # robust: a torn run.json is quarantined, never fatal — the listing must survive any on-disk damage
                quarantine_dir(self.path_for(run_id), counter="runs.corrupt")
                continue
            ctx = record.context
            if command is not None and ctx.command != command:
                continue
            if seed is not None and ctx.seed != seed:
                continue
            if scale is not None and abs(ctx.scale - scale) > 1e-12:
                continue
            if config_prefix and not ctx.config_sha256.startswith(config_prefix):
                continue
            if era is not None and dict(ctx.params).get("era") != era:
                continue
            if status is not None and record.status != status:
                continue
            records.append(record)
        records.sort(key=lambda r: (r.created_unix or 0.0, r.run_id))
        return records


# ---------------------------------------------------------------------- #
# Shared manifest resolution (used by both `trace show` and `runs show`)


def resolve_manifest_path(target: str, runs_dir: Optional[str] = None) -> str:
    """Resolve ``target`` to a manifest file path.

    ``target`` may be an explicit manifest file, a directory containing
    ``run_manifest.json``, or a run id in the run store (whose directory
    holds the manifest of a traced run).  This is the single loader
    behind both ``repro trace show`` and ``repro runs show --trace``.
    """
    if os.path.isfile(target):
        return target
    if os.path.isdir(target):
        candidate = os.path.join(target, MANIFEST_NAME)
        if os.path.isfile(candidate):
            return candidate
        raise FileNotFoundError(
            f"no {MANIFEST_NAME} inside directory {target}"
        )
    store = RunStore(runs_dir)
    run_dir = store.path_for(target)
    if os.path.isdir(run_dir):
        candidate = os.path.join(run_dir, MANIFEST_NAME)
        if os.path.isfile(candidate):
            return candidate
        raise FileNotFoundError(
            f"run {target!r} has no manifest (was it run with --trace?)"
        )
    raise FileNotFoundError(
        f"{target!r} is neither a manifest file, a run directory, "
        f"nor a run id under {store.root}"
    )


def load_manifest(target: str, runs_dir: Optional[str] = None) -> RunManifest:
    """Load the manifest named by ``target`` (see :func:`resolve_manifest_path`)."""
    return read_manifest(resolve_manifest_path(target, runs_dir))
