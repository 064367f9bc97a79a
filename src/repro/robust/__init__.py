"""repro.robust — the fault-tolerance layer for cache and runner.

One torn cache shard or one failing experiment must never kill a whole
``repro report`` run.  This package collects the crash-safety and
degradation primitives that the dataset cache
(:mod:`repro.synth.cache`) and the experiment runner
(:mod:`repro.report.experiments`) build on:

* :mod:`repro.robust.atomic` — atomic directory publication
  (write to a ``tmp-<pid>`` sibling, fsync, ``os.replace`` into place)
  plus streaming sha256 checksums;
* :mod:`repro.robust.locks` — advisory cross-process file locks so
  concurrent processes generating the same dataset do the work once;
* :mod:`repro.robust.retry` — configurable retry policies with
  exponential backoff and a structured :class:`RetryOutcome`;
* :mod:`repro.robust.parallel` — the shared fork-pool mapper
  (:func:`forked_map`): tracer snapshots shipped home from children,
  serial fallback when the pool breaks;
* :mod:`repro.robust.timeout` — best-effort per-call wall-time limits
  (``SIGALRM``-based, no-op where unsupported);
* :mod:`repro.robust.quarantine` — corrupt cache entries are moved to
  ``<entry>.corrupt-<n>`` (never deleted) and counted via the tracer;
* :mod:`repro.robust.crashpoints` — named no-op seams that the
  fault-injection harness (:mod:`repro.devtools.faults`) arms to raise
  mid-operation, proving the atomicity claims in tests.

See ``docs/robustness.md`` for the failure-mode catalogue and the
guarantees each primitive provides.
"""

from .atomic import fsync_path, publish_dir, sha256_file, staging_dir
from .crashpoints import (
    InjectedCrash,
    arm_crash_point,
    armed_crash_points,
    crash_point,
    disarm_all_crash_points,
    disarm_crash_point,
)
from .locks import DEFAULT_STALE_SECONDS, FileLock, LockTimeout
from .parallel import forked_call, forked_map
from .quarantine import quarantine_dir, quarantined_siblings
from .retry import FATAL_EXCEPTIONS, RetryOutcome, RetryPolicy, run_with_policy
from .timeout import TimeoutExceeded, time_limit, timeout_supported

__all__ = [
    "fsync_path",
    "publish_dir",
    "sha256_file",
    "staging_dir",
    "InjectedCrash",
    "arm_crash_point",
    "armed_crash_points",
    "crash_point",
    "disarm_all_crash_points",
    "disarm_crash_point",
    "DEFAULT_STALE_SECONDS",
    "FileLock",
    "LockTimeout",
    "forked_call",
    "forked_map",
    "quarantine_dir",
    "quarantined_siblings",
    "FATAL_EXCEPTIONS",
    "RetryOutcome",
    "RetryPolicy",
    "run_with_policy",
    "TimeoutExceeded",
    "time_limit",
    "timeout_supported",
]
