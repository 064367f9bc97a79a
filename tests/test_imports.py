"""Import boundaries: each ``python -m repro`` command loads only its layers.

SciPy (left to the ablation-only hurdle, overdispersion and Sybil
modules and the unprinted §6 p-value) and networkx (graph exports) cost
over a second per process, so no command loads them, the package
``__init__`` modules re-export lazily and commands import what they
run.  Every check here starts a fresh interpreter: the test session
itself has long since imported everything.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from typing import Dict, List

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = (
    "repro",
    "repro.core",
    "repro.synth",
    "repro.analysis",
    "repro.stats",
    "repro.network",
    "repro.report",
)

#: Runs the CLI as ``python -m repro`` does, then writes the exit code and
#: every loaded module name as JSON to the file named by ``argv[1]``.
_CLI_DRIVER = """
import json, runpy, sys
out = sys.argv[1]
sys.argv = ["repro"] + sys.argv[2:]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""


def _python(code: str, *args: str, timeout: float = 240) -> str:
    """Run ``code`` in a fresh interpreter importing repro from ``SRC``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli_modules(tmp_path, *argv: str) -> List[str]:
    out = tmp_path / "modules.json"
    _python(_CLI_DRIVER, str(out), *argv)
    result = json.loads(out.read_text())
    assert result["code"] in (0, None), result["code"]
    return result["modules"]


def _heavy(modules: List[str]) -> List[str]:
    return [m for m in modules if m.split(".")[0] in ("scipy", "networkx")]


#: The repro modules ``repro --version`` may load.
VERSION_MODULES = ("repro", "repro._exports", "repro.cli")


class TestCommandBoundaries:
    def test_version(self, tmp_path):
        # ``repro --version`` is perfbench's setup probe: no NumPy, and no
        # repro module beyond the CLI's own imports.
        modules = _cli_modules(tmp_path, "--version")
        assert _heavy(modules) == []
        assert [m for m in modules if m.split(".")[0] == "numpy"] == []
        loaded = {m for m in modules if m.split(".")[0] == "repro"}
        assert loaded <= set(VERSION_MODULES), sorted(loaded - set(VERSION_MODULES))

    def test_import_cli(self):
        modules = json.loads(_python(
            "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"
        ))
        assert _heavy(modules) == []
        assert "repro.report.experiments" not in modules

    def test_runs_list(self, tmp_path):
        modules = _cli_modules(
            tmp_path, "runs", "list", "--runs-dir", str(tmp_path / "runs")
        )
        assert _heavy(modules) == []
        assert "repro.report.experiments" not in modules

    def test_stream_era_query(self, tmp_path):
        modules = _cli_modules(
            tmp_path, "stream", "funnel", "--era", "covid-19",
            "--scale", "0.02", "--seed", "7",
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"),
        )
        assert "repro.report.stream_experiments" in modules
        assert _heavy(modules) == []
        assert "repro.report.experiments" not in modules


def _static_exports(package: str) -> Dict[str, str]:
    """Re-exported name -> defining module, from ``if TYPE_CHECKING:``.

    This is the table mypy reads; the runtime hook must agree with it.
    """
    spec = importlib.util.find_spec(package)
    assert spec is not None and spec.origin is not None
    with open(spec.origin, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    exports: Dict[str, str] = {}
    for node in tree.body:
        if not (isinstance(node, ast.If)
                and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            continue
        for stmt in node.body:
            assert isinstance(stmt, ast.ImportFrom)
            module = importlib.util.resolve_name(
                "." * stmt.level + (stmt.module or ""), package
            )
            for alias in stmt.names:
                exports[alias.asname or alias.name] = module
    return exports


#: Imports every defining submodule *before* reading a name through its
#: package (the order in which a submodule could shadow an export), then
#: reports each ``__all__`` name that differs from its definition or is
#: missing from ``dir()``.
_EXPORTS_CHECK = """
import importlib, json, sys
package, exports = sys.argv[1], json.loads(sys.argv[2])
for module in sorted(set(exports.values())):
    importlib.import_module(module)
pkg = importlib.import_module(package)
listed = set(dir(pkg))
problems = []
for name in pkg.__all__:
    if name in exports:
        defined = getattr(importlib.import_module(exports[name]), name)
        if getattr(pkg, name) is not defined:
            problems.append(name + ": not its definition")
    if name not in listed:
        problems.append(name + ": missing from dir()")
print(json.dumps({"all": pkg.__all__, "problems": problems}))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve_to_definitions(package):
    exports = _static_exports(package)
    report = json.loads(_python(_EXPORTS_CHECK, package, json.dumps(exports)))
    assert report["problems"] == []
    # Every re-export is visible to static readers (only the package's own
    # attributes, such as ``__version__``, are defined in place).
    assert sorted(set(report["all"]) - set(exports)) == (
        ["__version__"] if package == "repro" else []
    )
    assert set(exports) <= set(report["all"])


_SERVE_CHECK = """
import json, sys
from repro.report.experiments import EXPERIMENTS
from repro.report.stream_experiments import STREAM_EXPERIMENTS
from repro.serve import ServeSettings, create_app
from repro.serve.services import _compute_results

root = sys.argv[1]
settings = ServeSettings(api_keys=(), cache_dir=root + "/cache",
                         runs_dir=root + "/runs")
service = create_app(settings).state["service"]
service.build_context("serve-report", ("table1",), 0.01, 7)
before = set(sys.modules)
scipy_before = sorted(m for m in before if m.split(".")[0] == "scipy")

def compute(command, ids, **kwargs):
    context = service.build_context(command, ids, 0.01, 7, **kwargs)
    spec = {"context": context.to_payload(), "cache_dir": settings.cache_dir}
    return [result.ok for result in _compute_results(spec)]

ok = compute("serve-report", tuple(EXPERIMENTS))
ok += compute("serve-summary", ("summary",))
for slice_id in STREAM_EXPERIMENTS:
    ok += compute("serve-stream", ("stream-" + slice_id,),
                  store_kind="partitioned", params={"era": "covid-19"})
new = sorted(set(sys.modules) - before)
print(json.dumps({
    "ok": ok, "new": new, "scipy_before": scipy_before,
    "scipy_after": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_serve_compute_imports_nothing_after_startup(tmp_path):
    """A forked compute worker must find every module already loaded.

    The server imports the compute stack before it answers ``/healthz``;
    an import left to the first request would repeat in every fork.
    """
    report = json.loads(_python(_SERVE_CHECK, str(tmp_path)))
    assert report["ok"] and all(report["ok"])
    # Not even a NumPy or standard-library module: the server preloads
    # those a compute would import on first use (numpy.random, numpy.ma,
    # mmap, the UTF-32 codec, resource; see repro.serve.services).
    assert report["new"] == []
    # The fits take their special functions from repro.stats.special
    # and solve their own Newton steps, so no part of SciPy loads:
    # scipy.special alone pulls in some 300 modules (~0.3 s, 25 MB).
    assert report["scipy_before"] == []
    assert report["scipy_after"] == []


@pytest.mark.parametrize("command", ["report", "experiment", "eras"])
def test_paper_commands_load_no_scipy(tmp_path, command):
    """All 29 experiments of ``repro report``, a ZIP table through
    ``repro experiment`` and the §6 stimulus test of ``repro eras`` run
    without SciPy."""
    out = tmp_path / "out"
    argv = {
        "report": ["report", "--cache-dir", str(tmp_path / "cache"),
                   "--runs-dir", str(tmp_path / "runs"), "--out", str(out)],
        "experiment": ["experiment", "table10", "--out", str(out)],
        "eras": ["eras"],
    }[command]
    modules = _cli_modules(tmp_path, *argv, "--scale", "0.01", "--seed", "7")
    expected = {"report": 29, "experiment": 1, "eras": 0}[command]
    assert len(list(out.glob("*.txt"))) == expected
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
