"""Whole-program reprolint: R010–R014 fixtures (one known-bad caught,
one justified passing per rule), the live-wire proof that R010 fires on
the real tree when a field is dropped from the structural fingerprint,
the AST-index cache contract (hit/miss counters, warm sub-second
re-lint), the parallel-rule determinism guarantee, and the CLI surface
added with the whole-program pass (--changed, --format sarif,
--no-program, the baseline workflow end to end)."""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    AstIndex,
    lint_sources,
    run_lint,
)
from repro.devtools.lint.rules import all_rules
from repro.devtools.lint.rules_program import (
    CacheKeyCompleteness,
    ForkSafety,
    RngProvenance,
    SchemaConsistency,
    StaleJustification,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC = '"""Fixture module."""\n'


def lint_with(rule, files):
    """Run exactly one program rule over an in-memory fixture tree."""
    return lint_sources(
        {p: DOC + c if p.startswith("src/") else c for p, c in files.items()},
        rules=[rule],
    )


def make_tree(tmp_path, files):
    for relative, code in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(code, encoding="utf-8")


# --------------------------------------------------------------------- #
# R010 cache-key-completeness
# --------------------------------------------------------------------- #

R010_CONFIG = (
    "from dataclasses import dataclass\n"
    "\n"
    "@dataclass\n"
    "class SimulationConfig:\n"
    "    seed: int = 7\n"
    "    n_cohorts: int = 4\n"
)

R010_FINGERPRINT = (
    "NON_STRUCTURAL_FIELDS = frozenset({{\"n_cohorts\"}}){marker}\n"
    "\n"
    "def config_fingerprint(config):\n"
    "    fields = {{\"seed\": config.seed, \"n_cohorts\": config.n_cohorts}}\n"
    "    for name in NON_STRUCTURAL_FIELDS:\n"
    "        fields.pop(name, None)\n"
    "    return str(sorted(fields))\n"
)

R010_ENTRY = (
    "from .simconfig import SimulationConfig\n"
    "\n"
    "def run_engine(config: SimulationConfig) -> int:\n"
    "    return config.seed + config.{attr}\n"
)


class TestCacheKeyCompleteness:
    def _tree(self, marker="", attr="n_cohorts"):
        return {
            "src/repro/simconfig.py": R010_CONFIG,
            "src/repro/fp.py": R010_FINGERPRINT.format(marker=marker),
            "src/repro/eng.py": R010_ENTRY.format(attr=attr),
        }

    def test_flags_read_field_excluded_from_fingerprint(self):
        findings = lint_with(CacheKeyCompleteness(), self._tree())
        assert [f.rule for f in findings] == ["R010"]
        (finding,) = findings
        assert "n_cohorts" in finding.message
        assert finding.path == "src/repro/eng.py"

    def test_cache_key_marker_justifies_exclusion(self):
        findings = lint_with(
            CacheKeyCompleteness(),
            self._tree(marker="  # cache-key: display-only knob"),
        )
        assert findings == []

    def test_flags_unknown_config_attribute(self):
        findings = lint_with(
            CacheKeyCompleteness(), self._tree(attr="n_cohort")
        )
        assert any(
            f.rule == "R010" and "unknown config attribute 'n_cohort'"
            in f.message
            for f in findings
        )

    def test_runs_orchestrators_are_entry_points(self):
        # The runner's context_for / open_market taint config reads
        # exactly like the generation entry points: a resumed run must
        # key the same cache entry as its original invocation.
        for name in ("context_for", "open_market"):
            tree = self._tree()
            tree["src/repro/eng.py"] = tree["src/repro/eng.py"].replace(
                "run_engine", name
            )
            findings = lint_with(CacheKeyCompleteness(), tree)
            assert [f.rule for f in findings] == ["R010"], name
            assert "n_cohorts" in findings[0].message

    def test_included_field_is_silent(self):
        tree = self._tree()
        tree["src/repro/fp.py"] = tree["src/repro/fp.py"].replace(
            'frozenset({"n_cohorts"})', "frozenset()"
        )
        assert lint_with(CacheKeyCompleteness(), tree) == []

    def test_live_wire_on_real_tree(self):
        """Deleting a field from the real structural fingerprint in a
        sandboxed copy of the tree makes R010 fire — the rule is wired
        to the actual cache, not to a fixture-shaped mock."""
        files = {}
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            relative = path.relative_to(REPO_ROOT).as_posix()
            files[relative] = path.read_text(encoding="utf-8")
        cache_py = "src/repro/synth/cache.py"
        needle = 'NON_STRUCTURAL_FIELDS: "frozenset[str]" = frozenset()'
        assert needle in files[cache_py]

        clean = lint_sources(files, rules=[CacheKeyCompleteness()])
        assert clean == []

        files[cache_py] = files[cache_py].replace(
            needle,
            'NON_STRUCTURAL_FIELDS: "frozenset[str]" = '
            'frozenset({"attachment_alpha"})',
        )
        findings = lint_sources(files, rules=[CacheKeyCompleteness()])
        assert findings, "excluding a live field must trip R010"
        assert all(f.rule == "R010" for f in findings)
        assert any("attachment_alpha" in f.message for f in findings)


# --------------------------------------------------------------------- #
# R011 fork-unsafe-capture
# --------------------------------------------------------------------- #

R011_BAD = (
    "from threading import Lock\n"
    "from repro.robust.parallel import forked_map\n"
    "\n"
    "def run_jobs(items):\n"
    "    lock = Lock()\n"
    "    def worker(item):\n"
    "        with lock:\n"
    "            return item\n"
    "{marker}"
    "    return forked_map(worker, items)\n"
)


class TestForkSafety:
    def test_flags_lock_captured_by_worker(self):
        findings = lint_with(
            ForkSafety(), {"src/repro/jobs.py": R011_BAD.format(marker="")}
        )
        assert [f.rule for f in findings] == ["R011"]
        assert "'lock' (a lock)" in findings[0].message

    def test_fork_safe_marker_justifies(self):
        code = R011_BAD.format(
            marker="    # fork-safe: lock is reinitialised post-fork\n"
        )
        assert lint_with(ForkSafety(), {"src/repro/jobs.py": code}) == []

    def test_flags_file_handle_from_with_block(self):
        code = (
            "from repro.robust.parallel import forked_map\n"
            "\n"
            "def run_jobs(items):\n"
            "    with open('log.txt') as sink:\n"
            "        return forked_map(lambda i: sink.write(str(i)), items)\n"
        )
        findings = lint_with(ForkSafety(), {"src/repro/jobs.py": code})
        assert [f.rule for f in findings] == ["R011"]
        assert "live file handle" in findings[0].message

    def test_flags_direct_pool_outside_parallel_module(self):
        code = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "\n"
            "def run_jobs(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(str, items))\n"
        )
        findings = lint_with(ForkSafety(), {"src/repro/jobs.py": code})
        assert [f.rule for f in findings] == ["R011"]
        assert "ProcessPoolExecutor" in findings[0].message

    def test_worker_opening_inside_is_silent(self):
        code = (
            "from repro.robust.parallel import forked_map\n"
            "\n"
            "def run_jobs(items):\n"
            "    def worker(item):\n"
            "        with open('log.txt') as sink:\n"
            "            return sink.write(str(item))\n"
            "    return forked_map(worker, items)\n"
        )
        assert lint_with(ForkSafety(), {"src/repro/jobs.py": code}) == []


# --------------------------------------------------------------------- #
# R012 schema-consistency
# --------------------------------------------------------------------- #

R012_REGISTRY = (
    "COLUMN_SCHEMA = {\n"
    "    \"c_id\": \"int64\",\n"
    "    \"c_type\": \"int8\",\n"
    "}\n"
    "INTERNAL_COLUMNS = frozenset({\"x_seed\"})\n"
)


class TestSchemaConsistency:
    def _tree(self, producer):
        return {
            "src/repro/core/schema.py": R012_REGISTRY,
            "src/repro/synth/mk.py": producer,
        }

    def test_flags_typo_column_name(self):
        producer = (
            "import numpy as np\n"
            "\n"
            "def build(n):\n"
            "    return {\"c_staus\": np.zeros(n, np.int64)}\n"
        )
        findings = lint_with(SchemaConsistency(), self._tree(producer))
        assert [f.rule for f in findings] == ["R012"]
        assert "'c_staus'" in findings[0].message

    def test_flags_dtype_mismatch(self):
        producer = (
            "import numpy as np\n"
            "\n"
            "def build(n):\n"
            "    return {\"c_type\": np.zeros(n, np.int64)}\n"
        )
        findings = lint_with(SchemaConsistency(), self._tree(producer))
        assert [f.rule for f in findings] == ["R012"]
        assert "int64" in findings[0].message
        assert "int8" in findings[0].message

    def test_flags_consumer_subscript_and_col_call(self):
        consumer = (
            "def read(tables, store):\n"
            "    a = tables[\"c_staus\"]\n"
            "    b = store.col(\"c_staus\")\n"
            "    return a, b\n"
        )
        findings = lint_with(SchemaConsistency(), self._tree(consumer))
        assert [f.rule for f in findings] == ["R012", "R012"]

    def test_schema_marker_and_internal_columns_pass(self):
        producer = (
            "import numpy as np\n"
            "\n"
            "def build(n):\n"
            "    return {\n"
            "        \"c_id\": np.zeros(n, np.int64),\n"
            "        \"x_seed\": np.zeros(n, np.int64),\n"
            "        # schema: scratch key, dropped before the store\n"
            "        \"c_scratch_tmp\": np.zeros(n, np.int64),\n"
            "    }\n"
        )
        assert lint_with(SchemaConsistency(), self._tree(producer)) == []

    def test_no_registry_means_no_findings(self):
        producer = "def build(tables):\n    return tables[\"c_staus\"]\n"
        findings = lint_with(
            SchemaConsistency(), {"src/repro/synth/mk.py": producer}
        )
        assert findings == []


# --------------------------------------------------------------------- #
# R013 rng-provenance
# --------------------------------------------------------------------- #

R013_BAD = (
    "import numpy as np\n"
    "\n"
    "def make_rng():\n"
    "    return np.random.default_rng(){marker}\n"
    "\n"
    "def sample(n):\n"
    "    rng = make_rng()\n"
    "    return rng.integers(0, 10, n)\n"
)


class TestRngProvenance:
    def test_flags_creation_and_laundering_call_site(self):
        findings = lint_with(
            RngProvenance(), {"src/repro/rh.py": R013_BAD.format(marker="")}
        )
        assert [f.rule for f in findings] == ["R013", "R013"]
        messages = "\n".join(f.message for f in findings)
        assert "unseeded numpy generator" in messages
        assert "'make_rng'" in messages or "make_rng" in messages

    def test_rng_marker_clears_creation_and_downstream(self):
        code = R013_BAD.format(marker="  # rng: entropy smoke fixture")
        assert lint_with(RngProvenance(), {"src/repro/rh.py": code}) == []

    def test_seeded_generator_is_silent(self):
        code = (
            "import numpy as np\n"
            "\n"
            "def make_rng(seed):\n"
            "    return np.random.default_rng(seed)\n"
            "\n"
            "def sample(seed, n):\n"
            "    return make_rng(seed).integers(0, 10, n)\n"
        )
        assert lint_with(RngProvenance(), {"src/repro/rh.py": code}) == []

    def test_unseeded_bitgen_inside_generator_wrapper(self):
        code = (
            "import numpy as np\n"
            "\n"
            "def make_rng():\n"
            "    return np.random.Generator(np.random.PCG64())\n"
        )
        findings = lint_with(RngProvenance(), {"src/repro/rh.py": code})
        assert findings and all(f.rule == "R013" for f in findings)


# --------------------------------------------------------------------- #
# R014 stale-justification
# --------------------------------------------------------------------- #


class TestStaleJustification:
    def test_flags_marker_with_no_anchoring_construct(self):
        code = (
            "# robust: this survived a refactor and excuses nothing\n"
            "VALUE = 1\n"
        )
        findings = lint_with(
            StaleJustification(), {"src/repro/leftover.py": code}
        )
        assert [f.rule for f in findings] == ["R014"]
        assert "# robust:" in findings[0].message

    def test_anchored_markers_pass(self):
        code = (
            "import numpy as np\n"
            "\n"
            "def safe(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception:  # robust: fixture\n"
            "        return None\n"
            "\n"
            "def noisy():\n"
            "    return np.random.default_rng()  # rng: fixture\n"
        )
        assert lint_with(
            StaleJustification(), {"src/repro/ok.py": code}
        ) == []

    def test_docstring_mention_is_not_a_marker(self):
        code = (
            "def explain():\n"
            "    \"\"\"Mentions # robust: inside a docstring only.\"\"\"\n"
            "    return 1\n"
        )
        assert lint_with(
            StaleJustification(), {"src/repro/doc.py": code}
        ) == []


# --------------------------------------------------------------------- #
# AST index: content-addressed parse cache
# --------------------------------------------------------------------- #


class TestAstIndex:
    def test_counters_and_reuse(self, tmp_path):
        index = AstIndex(str(tmp_path / "cache"))
        tree_a = index.parse("src/a.py", "VALUE = 1\n")
        assert (index.hits, index.misses) == (0, 1)
        tree_b = index.parse("src/a.py", "VALUE = 1\n")
        assert (index.hits, index.misses) == (1, 1)
        assert type(tree_a) is type(tree_b)
        index.parse("src/a.py", "VALUE = 2\n")  # new content, new entry
        assert (index.hits, index.misses) == (1, 2)

    def test_cache_survives_new_instance(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        AstIndex(cache_dir).parse("src/a.py", "VALUE = 1\n")
        warm = AstIndex(cache_dir)
        warm.parse("src/a.py", "VALUE = 1\n")
        assert (warm.hits, warm.misses) == (1, 0)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        index = AstIndex(str(cache_dir))
        index.parse("src/a.py", "VALUE = 1\n")
        for entry in cache_dir.iterdir():
            entry.write_bytes(b"not a pickle")
        again = AstIndex(str(cache_dir))
        again.parse("src/a.py", "VALUE = 1\n")
        assert (again.hits, again.misses) == (0, 1)

    def test_warm_single_file_relint_under_one_second(self, tmp_path):
        """The --changed contract: with a warm index, re-linting one
        file with the per-file rules is sub-second, every parse a hit."""
        index = AstIndex(str(tmp_path / "cache"))
        target = "src/repro/core/timeutils.py"
        per_file = [r for r in all_rules() if not r.requires_program]
        cold = run_lint(str(REPO_ROOT), paths=[target], rules=per_file,
                        index=index, baseline_path="")
        assert cold.index_misses == 1 and cold.index_hits == 0

        start = time.perf_counter()
        warm = run_lint(str(REPO_ROOT), paths=[target], rules=per_file,
                        index=index, baseline_path="")
        elapsed = time.perf_counter() - start
        assert warm.index_hits == 1 and warm.index_misses == 1
        assert warm.findings == []
        assert elapsed < 1.0, f"warm single-file re-lint took {elapsed:.2f}s"


# --------------------------------------------------------------------- #
# parallel rule execution is deterministic
# --------------------------------------------------------------------- #


VIOLATION_TREE = {
    "src/repro/core/schema.py": DOC + R012_REGISTRY,
    "src/repro/v1.py": DOC + "import numpy as np\nx = np.random.rand(3)\n",
    "src/repro/v2.py": DOC + "import time\nstamp = time.time()\n",
    "src/repro/mk.py": DOC + (
        "def read(tables):\n    return tables[\"c_staus\"]\n"
    ),
    "tests/test_empty.py": "",
}


class TestParallelRules:
    def test_jobs_do_not_change_the_report(self, tmp_path):
        make_tree(tmp_path, VIOLATION_TREE)
        serial = run_lint(str(tmp_path), baseline_path="", jobs=1)
        forked = run_lint(str(tmp_path), baseline_path="", jobs=4)
        assert serial.findings == forked.findings
        assert {f.rule for f in serial.findings} >= {"R001", "R002", "R012"}


# --------------------------------------------------------------------- #
# CLI: --changed, --format sarif, --no-program, baseline end to end
# --------------------------------------------------------------------- #


def _git(tmp_path, *argv):
    subprocess.run(
        ["git", "-C", str(tmp_path), "-c", "user.email=lint@example.com",
         "-c", "user.name=lint", *argv],
        check=True, capture_output=True,
    )


class TestChangedMode:
    def test_clean_head_reports_nothing_to_do(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/repro/ok.py": DOC + "VALUE = 1\n"})
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-q", "-m", "init")
        assert main(["lint", "--root", str(tmp_path), "--changed"]) == 0
        assert "0 changed files" in capsys.readouterr().out

    def test_changed_file_is_linted_and_fails(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/repro/ok.py": DOC + "VALUE = 1\n"})
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-q", "-m", "init")
        make_tree(tmp_path, {
            "src/repro/fresh.py": DOC + "import time\nt = time.time()\n",
        })
        assert main(["lint", "--root", str(tmp_path), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "R002" in out and "fresh.py" in out
        # the untouched file is never re-reported
        assert "ok.py" not in out

    def test_non_git_root_falls_back_to_full_lint(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/v2.py": DOC + "import time\nt = time.time()\n",
        })
        assert main(["lint", "--root", str(tmp_path), "--changed"]) == 1
        assert "R002" in capsys.readouterr().out


class TestSarifOutput:
    def test_findings_render_as_sarif(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/v2.py": DOC + "import time\nstamp = time.time()\n",
        })
        assert main(
            ["lint", "--root", str(tmp_path), "--format", "sarif"]
        ) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert {"R002", "R010", "R014"} <= {r["id"] for r in driver["rules"]}
        (result,) = [r for r in run["results"]
                     if "suppressions" not in r]
        assert result["ruleId"] == "R002"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/v2.py"
        assert location["region"]["startLine"] == 3

    def test_baselined_findings_carry_suppressions(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/v2.py": DOC + "import time\nstamp = time.time()\n",
        })
        assert main(["lint", "--root", str(tmp_path),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(
            ["lint", "--root", str(tmp_path), "--format", "sarif"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        (result,) = doc["runs"][0]["results"]
        assert result["suppressions"][0]["kind"] == "external"


class TestNoProgramFlag:
    def test_program_rules_are_skipped(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/core/schema.py": DOC + R012_REGISTRY,
            "src/repro/mk.py": DOC + (
                "def read(tables):\n    return tables[\"c_staus\"]\n"
            ),
        })
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert "R012" in capsys.readouterr().out
        assert main(["lint", "--root", str(tmp_path), "--no-program"]) == 0


class TestBaselineWorkflow:
    def test_end_to_end(self, tmp_path, capsys):
        """The documented adoption loop: baseline a clean tree, watch a
        planted whole-program finding fail the run, then baseline it
        away without hiding anything else."""
        make_tree(tmp_path, {
            "src/repro/core/schema.py": DOC + R012_REGISTRY,
            "src/repro/ok.py": DOC + "VALUE = 1\n",
        })
        assert main(["lint", "--root", str(tmp_path),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "--root", str(tmp_path)]) == 0

        make_tree(tmp_path, {
            "src/repro/mk.py": DOC + (
                "def read(tables):\n    return tables[\"c_staus\"]\n"
            ),
        })
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert "R012" in capsys.readouterr().out

        assert main(["lint", "--root", str(tmp_path),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "--root", str(tmp_path)]) == 0
        assert "suppressed by baseline" in capsys.readouterr().out

        # a second, different planted finding still fails
        make_tree(tmp_path, {
            "src/repro/v2.py": DOC + "import time\nt = time.time()\n",
        })
        assert main(["lint", "--root", str(tmp_path)]) == 1
