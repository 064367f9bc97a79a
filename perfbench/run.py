"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload {report,stream,serve} \\
        [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]

Run it from the checkout root; the program runs from ``src``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones (``catalog.py``
and ``README.md`` define both).  The line before it holds the run's
details: environment, every program process's wall and CPU time, output
digests.  Both are also kept under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Optional

import catalog
import wl_report
import wl_serve
import wl_stream
from common import HASH_SEED, SIZES, SRC, WORK_ROOT, BenchError, Run, environment

WORKLOADS = {"report": wl_report, "stream": wl_stream, "serve": wl_serve}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    return parser.parse_args(argv)


def _result(run: Run) -> Dict[str, Any]:
    """The result line: every metric of the run's mode, with its unit."""
    if run.attempted < 1:
        raise BenchError("no operation was attempted")
    if not run.trace:
        run.metrics["peak_rss_mb"] = max(p.maxrss_mb for p in run.procs)
    units = catalog.units(run.trace)
    owned = catalog.measured_by(run.workload) if run.trace else list(units)
    missing = sorted(set(owned) - set(run.metrics))
    unknown = sorted(set(run.metrics) - set(units))
    if missing or unknown:
        raise BenchError(f"metrics missing: {missing}; unknown: {unknown}")
    metrics = {}
    for name, unit in units.items():
        value = run.metrics.get(name, 0)
        metrics[name] = {
            "value": int(value) if unit == "count" else float(value),
            "unit": unit,
        }
    return {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Traced runs render reports in this process too: pin its hash
        # seed so their digests can be compared with the CLI's.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              SIZES[args.size], work)
    started = time.monotonic()
    try:
        module = WORKLOADS[args.workload]
        (module.traced if run.trace else module.untraced)(run)
        result = _result(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": int(run.trace), "size": args.size,
        "run_wall_s": time.monotonic() - started,
        "environment": environment(),
        "processes": [proc.summary() for proc in run.procs],
        "problems": run.problems,
        **run.details,
    }
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}-{os.getpid()}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"details": details, "result": result, "archive": run.archive,
         "spans": run.spans}, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
