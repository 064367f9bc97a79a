"""Plumbing shared by the workloads: paths, processes, statistics, digests.

Program processes run from the checkout root as ``python -m repro ...``
with ``src`` on ``PYTHONPATH`` and ``PYTHONHASHSEED`` pinned, so two runs
of the same code print the same bytes: some reports order sections by
iterating a set.  Each process is reaped with ``os.wait4`` for its
user+system CPU time and peak RSS; on Linux both include the children it
reaped, such as forked experiment or compute workers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
#: Scratch space, the serve workload's recorded store and result files.
WORK_ROOT = REPO / ".perfbench"
HASH_SEED = "0"
#: Runs must end within 180 s; no program process outlives this budget.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A measurement could not be taken; the run prints no result."""


@dataclass(frozen=True)
class Size:
    """Input sizes: ``full`` measures, ``smoke`` runs in seconds for the self-tests."""

    report_scale: float
    stream_scale: float
    setup_reps: int
    report_seeds: int
    cold_builds: int
    recorded_keys: int
    mix_rps: float
    fresh_rps: float
    traced_serve_s: float


SIZES: Dict[str, Size] = {
    "full": Size(
        report_scale=0.05, stream_scale=1.0,
        setup_reps=3, report_seeds=3, cold_builds=3,
        recorded_keys=1150, mix_rps=120.0, fresh_rps=2.0,
        traced_serve_s=60.0,
    ),
    "smoke": Size(
        report_scale=0.02, stream_scale=0.05,
        setup_reps=1, report_seeds=1, cold_builds=1,
        recorded_keys=100, mix_rps=40.0, fresh_rps=2.0,
        traced_serve_s=3.0,
    ),
}


def program_env() -> Dict[str, str]:
    """The user's environment plus ``src`` on the path and the pinned hash seed."""
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "REPRO_RUNS_DIR", "REPRO_FAULTS"):
        env.pop(name, None)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, Any]:
    """Wait for ``proc`` with ``os.wait4``; kill it once ``timeout`` passes.

    Returns the exit code (negative for a signal) and its rusage.
    """
    timer = threading.Timer(max(timeout, 0.0), proc.kill)
    timer.daemon = True
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


@dataclass
class Proc:
    """One finished program process."""

    tag: str
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: Path
    stderr: Path

    @property
    def ok(self) -> bool:
        return self.code == 0

    def out(self) -> str:
        return self.stdout.read_text(encoding="utf-8", errors="replace")

    def err(self) -> str:
        return self.stderr.read_text(encoding="utf-8", errors="replace")

    def summary(self) -> Dict[str, Any]:
        return {"tag": self.tag, "code": self.code, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "maxrss_mb": self.maxrss_mb}


def finished(tag: str, code: int, usage: Any, wall_s: float,
             stdout: Path, stderr: Path) -> Proc:
    """A :class:`Proc` from what ``reap`` returned (ru_maxrss is KiB on Linux)."""
    return Proc(tag, code, wall_s, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, stdout, stderr)


@dataclass
class Run:
    """One benchmark invocation: its arguments, scratch space and findings."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size
    work: Path
    started: float = field(default_factory=time.monotonic)
    procs: List[Proc] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)
    archive: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def left(self) -> float:
        """Seconds of the run budget not yet spent."""
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def check(self, ok: bool, problem: str) -> bool:
        """Record ``problem`` unless ``ok``; returns ``ok``."""
        if not ok:
            self.problems.append(problem)
        return ok

    def count_ops(self, attempted: int, succeeded: int) -> None:
        self.attempted += attempted
        self.failed += attempted - succeeded

    def path(self, *parts: str) -> Path:
        """A directory under this run's scratch space (created)."""
        path = self.work.joinpath(*parts)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def logs(self, tag: str) -> Tuple[Path, Path]:
        logs = self.path("logs")
        return logs / f"{tag}.out", logs / f"{tag}.err"

    def program(self, args: Sequence[Any], tag: str,
                python_args: Sequence[str] = ("-m", "repro"),
                account: bool = True) -> Proc:
        """Run one process to completion; keep its accounting if ``account``.

        Only the program's own processes are accounted (peak RSS, CPU);
        the benchmark's load client is not.
        """
        budget = self.left()
        if budget <= 0:
            raise BenchError(f"run budget spent before {tag}")
        out_path, err_path = self.logs(tag)
        argv = [sys.executable, *python_args, *(str(a) for a in args)]
        print(f"perfbench: {tag}: {' '.join(argv[1:])}", file=sys.stderr)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=REPO, env=program_env(),
                                    stdout=out, stderr=err)
            code, usage = reap(proc, budget)
            wall = time.perf_counter() - started
        result = finished(tag, code, usage, wall, out_path, err_path)
        if account:
            self.procs.append(result)
        return result


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples to take a percentile of")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artefact_digest(text: str) -> str:
    """sha256 of an artefact as ``--out`` writes it (text plus newline)."""
    return hashlib.sha256((text + "\n").encode("utf-8")).hexdigest()


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


_RUN_LINE = re.compile(r"^run: (\S+) \[(\w+)\] -> (.+)$", re.MULTILINE)


def recorded_run(proc: Proc) -> Tuple[str, Dict[str, str]]:
    """The status a CLI process's run-store record ended in, and each result's."""
    match = _RUN_LINE.search(proc.err())
    if match is None:
        return "missing", {}
    path = Path(match.group(3).strip())
    run_file = json.loads((path / "run.json").read_text(encoding="utf-8"))
    results = {}
    for item in sorted((path / "results").glob("*.json")):
        payload = json.loads(item.read_text(encoding="utf-8"))
        results[str(payload.get("experiment_id"))] = str(payload.get("status"))
    return str(run_file.get("status")), results


def cli_checks(run: Run, proc: Proc, out_dir: Path, ids: Sequence[str],
               marker: str) -> Dict[str, str]:
    """Count a CLI process's results, check its outputs, return their digests.

    An id counts as succeeded when the run store recorded it ``ok``; the
    process must exit 0, seal its run ``complete``, print ``marker`` on
    stderr and write exactly one ``<id>.txt`` per id.
    """
    status, results = recorded_run(proc)
    run.count_ops(len(ids), sum(results.get(i) == "ok" for i in ids))
    run.check(proc.ok, f"{proc.tag}: exit code {proc.code}")
    run.check(status == "complete", f"{proc.tag}: run recorded as {status}")
    run.check(marker in proc.err(), f"{proc.tag}: stderr lacks {marker!r}")
    digests = {p.stem: sha256_file(p) for p in sorted(out_dir.glob("*.txt"))}
    run.check(sorted(digests) == sorted(ids),
              f"{proc.tag}: wrote {sorted(digests)}")
    return digests


def version_setup(run: Run) -> float:
    """Median wall time of fresh ``python -m repro --version`` processes."""
    walls = []
    for i in range(run.size.setup_reps):
        proc = run.program(["--version"], f"setup{i}")
        run.check(proc.ok and proc.out().startswith("repro "),
                  f"{proc.tag}: unexpected --version output")
        walls.append(proc.wall_s)
    return median(walls)


def import_seconds(run: Run) -> float:
    """Median wall time of a fresh interpreter running ``import repro.cli``."""
    walls = []
    for i in range(run.size.setup_reps):
        proc = run.program(["-c", "import repro.cli"], f"import{i}",
                           python_args=())
        run.check(proc.ok, f"{proc.tag}: exit code {proc.code}")
        walls.append(proc.wall_s)
    return median(walls)


def run_store_metrics(run: Run, store: Any, reps: int = 5) -> None:
    """``runs.scan_ms``, ``runs.load_ms`` and ``runs.count`` of a ``RunStore``."""
    scans, loads = [], []
    for _ in range(reps):
        started = time.perf_counter()
        ids = store.run_ids()
        scans.append(time.perf_counter() - started)
        started = time.perf_counter()
        store.load(ids[-1])
        loads.append(time.perf_counter() - started)
    run.metrics["runs.scan_ms"] = median(scans) * 1e3
    run.metrics["runs.load_ms"] = median(loads) * 1e3
    run.metrics["runs.count"] = len(ids)


def environment() -> Dict[str, Any]:
    """What a result depends on besides the code: CPUs, threads, versions."""

    def version(package: str) -> Optional[str]:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "PYTHONHASHSEED": HASH_SEED,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_rev": _git_rev(),
    }


def _git_rev() -> Optional[str]:
    if not (REPO / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None
