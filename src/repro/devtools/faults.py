"""Deterministic fault injection: prove the robustness layer works.

The fault-tolerance claims in :mod:`repro.robust` are only worth
anything if something exercises them.  This harness injects the four
failure shapes the cache and runner are hardened against, all
deterministic (seeded where randomness is involved) so a failing
robustness test reproduces bit-for-bit:

* **truncated or scrambled shards** — :func:`truncate_npz` cuts a month
  shard of a cache entry short; :func:`scramble_npz` overwrites bytes
  in its middle (caught by the checksum even when the zip directory
  survives);
* **malformed / partial ``manifest.json``** — :func:`corrupt_meta`
  writes non-JSON, drops the checksums, or falsifies them;
* **crashes while a store is written** — :func:`crash_on` arms the
  named crash points (:mod:`repro.robust.crashpoints`) inside the
  store's write path;
* **N-th-call experiment failures** — :func:`install_flaky_experiment`
  wraps a registry entry so its first N invocations (per process)
  raise :class:`InjectedFault`, which is how the runner's retry,
  backoff and degraded-failure paths are driven.

Everything can also be armed from the environment: set
``REPRO_FAULTS="experiment:table3:2,crash:partition.save.before_publish:1"``
and the CLI arms the directives at startup (``arm_from_env``), so
``make test-faults`` and manual ``repro report`` runs can inject faults
without touching code.  :func:`reset` restores the pristine state.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional

import numpy as np

from ..robust.crashpoints import (
    InjectedCrash,
    arm_crash_point,
    disarm_all_crash_points,
)

__all__ = [
    "ENV_VAR",
    "InjectedFault",
    "InjectedCrash",
    "truncate_npz",
    "scramble_npz",
    "corrupt_meta",
    "crash_on",
    "install_flaky_experiment",
    "arm_from_env",
    "reset",
]

#: Environment variable the CLI reads to arm faults at startup.
ENV_VAR = "REPRO_FAULTS"

#: Registry entries this harness has wrapped: experiment id -> original.
_WRAPPED: Dict[str, Callable] = {}


class InjectedFault(RuntimeError):
    """A deliberate failure raised by the harness (never in production)."""


# --------------------------------------------------------------------- #
# cache-entry corruption
# --------------------------------------------------------------------- #


def _first_shard(entry_dir: str) -> str:
    """Path of the first month shard of the store at ``entry_dir``."""
    return os.path.join(entry_dir, min(
        name for name in os.listdir(entry_dir)
        if name.startswith("m") and name.endswith(".npz")
    ))


def truncate_npz(entry_dir: str, fraction: float = 0.5) -> int:
    """Truncate the first month shard of the store at ``entry_dir`` to
    ``fraction`` of its size.

    Returns the new size in bytes (at least 1, so the file still exists
    and the failure is a *corrupt read*, not a missing file).
    """
    path = _first_shard(entry_dir)
    size = os.path.getsize(path)
    keep = max(1, int(size * fraction))
    os.truncate(path, keep)
    return keep


def scramble_npz(entry_dir: str, n_bytes: int = 64, seed: int = 0) -> None:
    """Overwrite ``n_bytes`` in the middle of the first month shard with
    seeded noise.

    Unlike truncation this keeps the zip end-of-central-directory intact,
    so only the sha256 checksum can catch it.
    """
    path = _first_shard(entry_dir)
    size = os.path.getsize(path)
    rng = np.random.default_rng(seed)
    offset = max(0, size // 2 - n_bytes // 2)
    noise = rng.integers(0, 256, size=min(n_bytes, size), dtype=np.uint8)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(noise.tobytes())


def corrupt_meta(entry_dir: str, mode: str = "malformed") -> None:
    """Damage ``<entry>/manifest.json`` in one of three ways.

    ``malformed`` writes syntactically invalid JSON; ``partial`` keeps
    valid JSON but drops the ``checksums`` (a torn or hand-edited
    manifest); ``checksum`` falsifies every shard's stored digest so no
    shard verifies.
    """
    path = os.path.join(entry_dir, "manifest.json")
    if mode == "malformed":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"version": 4, "months": ')  # cut mid-value
        return
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if mode == "partial":
        manifest.pop("checksums", None)
    elif mode == "checksum":
        manifest["checksums"] = {
            name: "0" * 64 for name in manifest["checksums"]
        }
    else:
        raise ValueError(f"unknown corrupt_meta mode {mode!r}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)


# --------------------------------------------------------------------- #
# crash points and flaky experiments
# --------------------------------------------------------------------- #


def crash_on(point: str, at_call: int = 1) -> None:
    """Arm crash point ``point`` to raise :class:`InjectedCrash`.

    The store's write path (:class:`~repro.core.partitions.
    PartitionWriter`, behind every cache build and ``save_result``)
    exposes ``partition.save.mid_write`` (after each month shard is
    staged), ``partition.save.before_publish`` (everything staged,
    nothing published) and ``partition.save.after_publish``.
    """
    arm_crash_point(point, at_call=at_call)


def install_flaky_experiment(experiment_id: str, fail_times: int = 1) -> None:
    """Make experiment ``experiment_id`` raise on its first N calls.

    The wrapper counts invocations *per process*: under a fork pool each
    worker inherits the armed wrapper with its counter at zero, so the
    in-worker retry sequence observes the same deterministic failures a
    serial run would.  Re-installing replaces the previous wrapper (the
    counter restarts); :func:`reset` restores the original callable.
    """
    from ..report.experiments import EXPERIMENTS

    if fail_times < 1:
        raise ValueError("fail_times must be >= 1")
    original = _WRAPPED.get(experiment_id) or EXPERIMENTS[experiment_id]
    calls = {"n": 0}

    def _flaky(ctx):  # noqa: ANN001 - mirrors experiment signature
        calls["n"] += 1
        if calls["n"] <= fail_times:
            raise InjectedFault(
                f"injected failure {calls['n']}/{fail_times} "
                f"in experiment {experiment_id!r}"
            )
        return original(ctx)

    _WRAPPED[experiment_id] = original
    EXPERIMENTS[experiment_id] = _flaky


def reset() -> None:
    """Disarm everything: crash points and wrapped registry entries."""
    disarm_all_crash_points()
    if _WRAPPED:
        from ..report.experiments import EXPERIMENTS

        for experiment_id, original in _WRAPPED.items():
            EXPERIMENTS[experiment_id] = original
        _WRAPPED.clear()


# --------------------------------------------------------------------- #
# environment driver
# --------------------------------------------------------------------- #


def arm_from_env(environ: Optional[Dict[str, str]] = None) -> List[str]:
    """Arm the comma-separated directives in ``$REPRO_FAULTS``.

    Grammar (counts default to 1)::

        experiment:<id>[:<fail_times>]   first N calls raise InjectedFault
        crash:<point>[:<at_call>]        crash point raises on call N

    Previously armed faults are reset first, so re-invoking the CLI in
    one process re-arms cleanly.  Returns the directives armed (empty
    when the variable is unset), raising ``ValueError`` on a malformed
    spec — a silently ignored fault would fake a passing robustness run.
    """
    spec = (environ if environ is not None else os.environ).get(ENV_VAR, "")
    if not spec.strip():
        return []
    reset()
    armed: List[str] = []
    for directive in spec.split(","):
        directive = directive.strip()
        if not directive:
            continue
        parts = directive.split(":")
        kind = parts[0]
        if kind == "experiment" and len(parts) in (2, 3):
            count = int(parts[2]) if len(parts) == 3 else 1
            install_flaky_experiment(parts[1], fail_times=count)
        elif kind == "crash" and len(parts) in (2, 3):
            count = int(parts[2]) if len(parts) == 3 else 1
            crash_on(parts[1], at_call=count)
        else:
            raise ValueError(
                f"malformed {ENV_VAR} directive {directive!r}; expected "
                f"'experiment:<id>[:<n>]' or 'crash:<point>[:<n>]'"
            )
        armed.append(directive)
    return armed
