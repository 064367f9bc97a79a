"""Self-tests for the benchmark: ``python -m pytest perfbench`` from the root.

Every workload runs at its smoke size, untraced and traced, and must
print a result line carrying every metric of its mode with the unit
``BENCHMARK.json`` gives it; a checkout without the program's sources
must fail without printing one.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

TIME_UNITS = {"s", "ms", "us"}


def _spec():
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def test_benchmark_json_matches_the_catalogue():
    spec = _spec()
    assert spec == catalog.benchmark_spec(spec["run_seconds"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(REPO, workload, trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[-2][:4000]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = _spec()["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in section}
    owned = catalog.measured_by(workload) if trace else list(emitted)
    unmeasured = [name for name in owned
                  if emitted[name] in TIME_UNITS
                  and result["metrics"][name]["value"] == 0]
    assert not unmeasured


def test_refuses_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "report", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
