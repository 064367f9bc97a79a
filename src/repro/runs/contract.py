"""The experiment run-contract: :class:`RunContext` in, :class:`ExperimentResult` out.

Every registered experiment — classic registry
(:mod:`repro.report.experiments`) and streaming registry
(:mod:`repro.report.stream_experiments`) alike — executes under one
typed contract:

* a frozen :class:`RunContext` flows *in*: the config fingerprint, seed,
  scale, resolved engine, store kind, git revision and the fault/retry
  policy of the invocation.  Its identity fields derive a deterministic
  :meth:`~RunContext.run_key`, so the same invocation always maps to the
  same run-store slot — run ids are a function of the context, never of
  timestamps (reprolint R002 keeps wall-clock reads out of this layer);
* a typed :class:`ExperimentResult` flows *out* of each experiment: the
  status, rendered lines, a numeric metrics dict extracted from them, the
  artifact paths the store persisted, timings, retry counts and — for a
  degraded experiment — the structured failure payload.

The contract is what makes runs *queryable*: ``repro runs diff``
compares two runs metric-by-metric because every result carries the same
deterministic metric extraction (:func:`extract_metrics`), and ``repro
runs resume`` can re-execute exactly the missing experiments because the
context records enough to rebuild the dataset.  See
``docs/run-contract.md`` for the on-disk schema.

This module never reads the wall clock; ``created_unix`` stamps are
passed in by the CLI layer (see :mod:`repro.runs.store`).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..report.artefact import ExperimentReport
from ..robust.retry import RetryOutcome, RetryPolicy

__all__ = [
    "RUN_SCHEMA_VERSION",
    "RunContext",
    "ExperimentResult",
    "extract_metrics",
    "result_from_outcome",
    "text_sha256",
]

#: Bump when the run.json / result.json schema changes incompatibly.
RUN_SCHEMA_VERSION = 1

#: Numeric token inside a rendered report line.  Lookarounds keep the
#: match off identifier tails (hex digests, ids) so metric extraction is
#: stable: a token must stand on its own, optionally comma-grouped.
_NUMBER_RE = re.compile(
    r"(?<![A-Za-z0-9_.])-?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?"
    r"(?:[eE][-+]?\d+)?(?![A-Za-z0-9_])"
)


def extract_metrics(lines: List[str]) -> Dict[str, float]:
    """Deterministic numeric metrics of a rendered report.

    Every free-standing numeric token in ``lines`` becomes one metric,
    keyed positionally as ``l<line>.<n>`` (0-based line, n-th number on
    that line).  Two byte-identical reports therefore produce *equal*
    metric dicts — the exactness property ``runs diff`` relies on — and
    two runs of the same experiment on different seeds produce
    *aligned* keys wherever their tables share shape, giving meaningful
    per-cell deltas.
    """
    metrics: Dict[str, float] = {}
    for i, line in enumerate(lines):
        for k, match in enumerate(_NUMBER_RE.finditer(line)):
            metrics[f"l{i:04d}.{k:02d}"] = float(match.group().replace(",", ""))
    return metrics


def text_sha256(title: str, lines: List[str]) -> str:
    """Hex digest of a result's rendered text (title + lines)."""
    payload = "\n".join([title] + list(lines))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunContext:
    """Everything that defines one experiment-suite invocation.

    Identity fields (:data:`RunContext.IDENTITY_FIELDS`) derive
    :meth:`run_key`: the config fingerprint already covers every
    structural generation knob (seed and scale included), and the
    command/store/experiment selection distinguishes invocations over
    the same dataset.  Runtime knobs — parallelism, the retry policy,
    git revision, package versions — are *recorded* but excluded from
    the key: they never change what a deterministic run produces.

    ``config`` holds the reconstructable :class:`~repro.synth.config.
    SimulationConfig` overrides (scale, seed, engine, posts) so
    ``runs resume`` can rebuild the dataset; a context built from a
    programmatic config with custom curves records the fingerprint but
    cannot be resumed (the store refuses rather than guessing).
    """

    command: str
    config_sha256: str
    seed: int
    scale: float
    engine: str
    store: str
    experiments: Tuple[str, ...]
    latent_k: int = 12
    package_version: str = ""
    python_version: str = ""
    git_rev: str = ""
    parallel: int = 1
    max_retries: int = 1
    retry_backoff: float = 0.0
    timeout_seconds: Optional[float] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    config: Mapping[str, Any] = field(default_factory=dict)

    #: Fields participating in :meth:`run_key`; everything else is
    #: runtime provenance.
    IDENTITY_FIELDS = (
        "command", "config_sha256", "seed", "scale", "engine", "store",
        "experiments", "latent_k", "params",
    )

    def run_key(self) -> str:
        """SHA-256 over the canonical JSON of the identity fields."""
        payload = {name: getattr(self, name) for name in self.IDENTITY_FIELDS}
        payload["experiments"] = list(self.experiments)
        payload["params"] = dict(self.params)
        canonical = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def run_name(self) -> str:
        """Deterministic base directory name for this context's runs.

        Derived entirely from the identity fields — never from
        timestamps — so re-invoking the same context always lands next
        to its previous runs (the store disambiguates repeats with an
        ordinal suffix, see :meth:`repro.runs.store.RunStore.begin`).
        """
        return (
            f"{self.command}-s{self.seed}-x{self.scale:g}-"
            f"{self.run_key()[:10]}"
        )

    def retry_policy(self) -> RetryPolicy:
        """The :class:`~repro.robust.RetryPolicy` this context ran under."""
        return RetryPolicy(
            max_retries=max(0, self.max_retries),
            backoff_seconds=max(0.0, self.retry_backoff),
            timeout_seconds=self.timeout_seconds,
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready plain dict (tuples become lists)."""
        payload = asdict(self)
        payload["experiments"] = list(self.experiments)
        payload["params"] = dict(self.params)
        payload["config"] = dict(self.config)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunContext":
        """Rebuild a context from parsed ``run.json`` content."""
        known = {
            name: payload[name]
            for name in cls.__dataclass_fields__  # noqa: SLF001 - public API
            if name in payload
        }
        for required in ("command", "config_sha256", "seed", "scale",
                         "engine", "store", "experiments"):
            if required not in known:
                raise ValueError(f"run context missing field {required!r}")
        known["experiments"] = tuple(known["experiments"])
        return cls(**known)


@dataclass
class ExperimentResult:
    """One experiment's typed outcome: what ran, what it produced, at what cost.

    ``error`` is ``None`` for a successful run.  A failed experiment
    does **not** abort the batch: it comes back with ``error`` holding a
    picklable payload (``type``/``message``/``traceback``/``attempts``/
    ``failures``) and placeholder ``lines``; the run store records the
    same payload so ``runs resume`` knows to re-execute it.

    ``metrics`` is the deterministic numeric extraction of ``lines``
    (:func:`extract_metrics`) — the substrate ``runs diff`` compares.
    ``artifacts`` holds store-relative paths written for this result
    (filled in by :meth:`repro.runs.store.RunHandle.record`).  ``trace``
    carries the child tracer snapshot for parallel traced runs and is
    never persisted (the run manifest holds the merged span tree).
    ``attempts`` counts executions including retries (1 = succeeded
    first try).
    """

    experiment_id: str
    title: str
    lines: List[str]
    seconds: float
    trace: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    attempts: int = 1
    metrics: Dict[str, float] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def status(self) -> str:
        return "ok" if self.ok else "failed"

    def text(self) -> str:
        """The rendered artefact text (title, blank line, lines).

        Byte-identical to the historical
        :meth:`~repro.report.artefact.ExperimentReport.text` format,
        so artifacts written by the run store match the files ``report
        --out`` always produced.
        """
        return "\n".join([self.title, ""] + list(self.lines))

    def text_digest(self) -> str:
        """Hex sha256 of :meth:`text` — the byte-exactness witness."""
        return text_sha256(self.title, self.lines)

    @property
    def report(self) -> ExperimentReport:
        """The legacy :class:`~repro.report.artefact.ExperimentReport` view."""
        return ExperimentReport(self.experiment_id, self.title, self.lines)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready plain dict; the tracer snapshot is not persisted."""
        return {
            "schema": RUN_SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "status": self.status,
            "lines": list(self.lines),
            "seconds": self.seconds,
            "attempts": self.attempts,
            "metrics": dict(self.metrics),
            "artifacts": list(self.artifacts),
            "error": self.error,
            "text_sha256": self.text_digest(),
        }

    @classmethod
    def from_outcome(
        cls, experiment_id: str, outcome: RetryOutcome, seconds: float
    ) -> "ExperimentResult":
        """See :func:`result_from_outcome`."""
        return result_from_outcome(experiment_id, outcome, seconds)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from a ``results/<id>.json`` payload."""
        schema = payload.get("schema")
        if not isinstance(schema, int) or schema > RUN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema {schema!r} "
                f"(this build reads <= {RUN_SCHEMA_VERSION})"
            )
        for required in ("experiment_id", "title", "lines", "seconds"):
            if required not in payload:
                raise ValueError(f"result missing field {required!r}")
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            lines=list(payload["lines"]),
            seconds=float(payload["seconds"]),
            error=payload.get("error"),
            attempts=int(payload.get("attempts", 1)),
            metrics={k: float(v) for k, v in payload.get("metrics", {}).items()},
            artifacts=list(payload.get("artifacts", [])),
        )


def result_from_outcome(
    experiment_id: str, outcome: RetryOutcome, seconds: float
) -> ExperimentResult:
    """Fold a :class:`~repro.robust.RetryOutcome` into the typed result.

    The single degradation path both registries share: a successful
    outcome yields an ``ok`` result with its metrics extracted; an
    exhausted retry budget yields a ``failed`` result carrying the
    structured error payload and ``FAILED`` placeholder lines — never an
    exception, so one broken experiment cannot sink a batch.
    """
    if outcome.ok:
        report = outcome.value
        return ExperimentResult(
            experiment_id, report.title, report.lines, seconds,
            attempts=outcome.attempts,
            metrics=extract_metrics(report.lines),
        )
    error = {
        "type": type(outcome.error).__name__,
        "message": str(outcome.error),
        "traceback": outcome.traceback_text,
        "attempts": outcome.attempts,
        "failures": outcome.failures,
    }
    lines = [
        f"FAILED after {outcome.attempts} attempt(s): "
        f"{error['type']}: {error['message']}"
    ]
    return ExperimentResult(
        experiment_id, f"{experiment_id}: FAILED", lines, seconds,
        error=error, attempts=outcome.attempts,
    )
