"""reprolint: one positive and one negative fixture per rule, the
self-run guarantee that the repo lints clean, and the CLI contract
(exit codes, JSON output, --explain, baseline handling)."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    RULES,
    lint_sources,
    load_baseline,
    rule_by_id,
    run_lint,
    save_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

SRC = "src/repro/example.py"
TESTS = "tests/test_example.py"


def rule_ids(findings):
    return sorted({f.rule for f in findings})


def lint_one(code, path=SRC, docstring=True, **extra):
    """Lint an in-memory fixture tree.

    Unless ``docstring=False``, a module docstring is prepended to every
    ``src/`` fixture so rule tests don't all trip R007 incidentally.
    """
    files = {path: code}
    files.update(extra)
    if docstring:
        files = {
            p: ('"""Fixture module."""\n' + c) if p.startswith("src/") else c
            for p, c in files.items()
        }
    return lint_sources(files)


# --------------------------------------------------------------------- #
# R001 unseeded-rng
# --------------------------------------------------------------------- #


class TestUnseededRng:
    def test_flags_numpy_global_rng(self):
        findings = lint_one(
            "import numpy as np\n"
            "noise = np.random.rand(10)\n"
        )
        assert rule_ids(findings) == ["R001"]
        assert "np.random.rand" in findings[0].message

    def test_flags_numpy_seed(self):
        findings = lint_one("import numpy as np\nnp.random.seed(0)\n")
        assert rule_ids(findings) == ["R001"]

    def test_flags_stdlib_random(self):
        findings = lint_one("import random\nvalue = random.random()\n")
        assert rule_ids(findings) == ["R001"]

    def test_flags_from_import(self):
        findings = lint_one(
            "from random import choice\npick = choice([1, 2])\n"
        )
        assert rule_ids(findings) == ["R001"]

    def test_allows_explicit_generator(self):
        findings = lint_one(
            "import numpy as np\n"
            "def sample(seed: int) -> float:\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return float(rng.normal())\n"
        )
        assert findings == []

    def test_allows_generator_annotation(self):
        findings = lint_one(
            "import numpy as np\n"
            "def draw(rng: np.random.Generator) -> float:\n"
            "    return float(rng.random())\n"
        )
        assert findings == []

    def test_tests_are_out_of_scope(self):
        findings = lint_one(
            "import random\nvalue = random.random()\n", path=TESTS
        )
        assert findings == []


# --------------------------------------------------------------------- #
# R002 wall-clock-in-library
# --------------------------------------------------------------------- #


class TestWallClockInLibrary:
    def test_flags_time_time(self):
        findings = lint_one("import time\nstamp = time.time()\n")
        assert rule_ids(findings) == ["R002"]

    def test_flags_time_time_ns(self):
        # run-store ids must stay context-derived, never timestamp-derived
        findings = lint_one("import time\nstamp = time.time_ns()\n")
        assert rule_ids(findings) == ["R002"]
        assert "time.time_ns()" in findings[0].message

    def test_flags_datetime_now(self):
        findings = lint_one(
            "import datetime\nwhen = datetime.datetime.now()\n"
        )
        assert rule_ids(findings) == ["R002"]

    def test_flags_date_today(self):
        findings = lint_one("import datetime as dt\nday = dt.date.today()\n")
        assert rule_ids(findings) == ["R002"]

    def test_allows_cli_and_benchmarks(self):
        code = "import time\nstarted = time.time()\n"
        assert lint_one(code, path="src/repro/cli.py") == []
        assert lint_one(code, path="benchmarks/bench_thing.py") == []

    def test_allows_perf_counter(self):
        findings = lint_one("import time\nt0 = time.perf_counter()\n")
        assert findings == []


# --------------------------------------------------------------------- #
# R004 object-loop-in-kernel
# --------------------------------------------------------------------- #


class TestObjectLoopInKernel:
    def test_flags_loop_in_analysis_kernel_module(self):
        findings = lint_one(
            "def growth(ds):\n"
            "    total = 0\n"
            "    for contract in ds.contracts:\n"
            "        total += 1\n"
            "    return total\n",
            path="src/repro/analysis/monthly.py",
        )
        assert rule_ids(findings) == ["R004"]
        assert ".contracts" in findings[0].message

    def test_allows_loop_in_plain_function(self):
        findings = lint_one(
            "def growth_reference(ds):\n"
            "    return sum(1 for c in ds.contracts)\n"
        )
        assert findings == []

    def test_flags_ratings_loop_in_reputation_module(self):
        findings = lint_one(
            "def scores(ds):\n"
            "    return [r.score for r in ds.ratings]\n",
            path="src/repro/analysis/reputation.py",
        )
        assert rule_ids(findings) == ["R004"]
        assert ".ratings" in findings[0].message

    def test_flags_loop_over_in_era_in_disputes_module(self):
        # The query's list counts whether it is looped over in place or
        # bound to a name first.
        findings = lint_one(
            "def rate(ds, era):\n"
            "    contracts = ds.in_era(era)\n"
            "    disputed = sum(1 for c in contracts if c.status)\n"
            "    return disputed, [c.maker_id for c in ds.in_era(era)]\n",
            path="src/repro/analysis/disputes.py",
        )
        assert rule_ids(findings) == ["R004"]
        assert len(findings) == 2
        assert all("in_era()" in f.message for f in findings)

    def test_allows_row_subset_materializer(self):
        findings = lint_one(
            "def texts(ds, rows):\n"
            "    return [c.maker_obligation for c in ds.contracts_at(rows)]\n",
            path="src/repro/analysis/textfeatures.py",
        )
        assert findings == []

    def test_flags_plain_function_in_fastgen_module(self):
        # Every function in the columnar engine is held to the kernel
        # contract, no naming convention or decorator needed.
        findings = lint_one(
            "def helper(ds):\n"
            "    return [c.maker_id for c in ds.contracts]\n",
            path="src/repro/synth/fastgen.py",
        )
        assert rule_ids(findings) == ["R004"]

    def test_allows_array_code_in_fastgen_module(self):
        findings = lint_one(
            "import numpy as np\n"
            "def helper(tables):\n"
            "    return np.bincount(tables['c_type'])\n",
            path="src/repro/synth/fastgen.py",
        )
        assert findings == []

    def test_allows_array_code_in_kernel(self):
        findings = lint_one(
            "import numpy as np\n"
            "def growth(store):\n"
            "    return np.bincount(store.month_idx[store.month_idx >= 0])\n",
            path="src/repro/analysis/monthly.py",
        )
        assert findings == []


# --------------------------------------------------------------------- #
# R005 era-literal
# --------------------------------------------------------------------- #


class TestEraLiteral:
    def test_flags_boundary_month(self):
        findings = lint_one(
            "from repro.core.timeutils import Month\n"
            "POLICY = Month(2019, 3)\n"
        )
        assert rule_ids(findings) == ["R005"]

    def test_flags_boundary_date(self):
        findings = lint_one(
            "import datetime as dt\nCOVID = dt.date(2020, 3, 11)\n"
        )
        assert rule_ids(findings) == ["R005"]

    def test_flags_month_parse(self):
        findings = lint_one(
            "from repro.core.timeutils import Month\n"
            "START = Month.parse('2018-06')\n"
        )
        assert rule_ids(findings) == ["R005"]

    def test_allows_non_boundary_literals(self):
        findings = lint_one(
            "import datetime as dt\n"
            "from repro.core.timeutils import Month\n"
            "PEAK = Month(2020, 4)\n"
            "SOME_DAY = dt.date(2019, 7, 15)\n"
        )
        assert findings == []

    def test_allowlisted_files_exempt(self):
        code = (
            "from repro.core.timeutils import Month\n"
            "ANCHOR = Month(2019, 3)\n"
        )
        assert lint_one(code, path="src/repro/synth/config.py") == []
        assert lint_one(code, path="src/repro/blockchain/rates.py") == []

    def test_eras_module_is_the_definition_site(self):
        findings = lint_one(
            "import datetime as _dt\nSTART = _dt.date(2018, 6, 1)\n",
            path="src/repro/core/eras.py",
        )
        assert findings == []


# --------------------------------------------------------------------- #
# R006 float-equality
# --------------------------------------------------------------------- #


class TestFloatEquality:
    def test_flags_float_literal_equality(self):
        findings = lint_one(
            "def test_rate(r):\n    assert r.completion_rate == 0.435\n",
            path=TESTS,
        )
        assert rule_ids(findings) == ["R006"]

    def test_flags_arithmetic_with_float(self):
        findings = lint_one(
            "def test_ratio(a, b):\n    assert a != b * 1.5\n",
            path=TESTS,
        )
        assert rule_ids(findings) == ["R006"]

    def test_allows_pytest_approx(self):
        findings = lint_one(
            "import pytest\n"
            "def test_rate(r):\n"
            "    assert r.completion_rate == pytest.approx(0.435)\n",
            path=TESTS,
        )
        assert findings == []

    def test_allows_int_equality(self):
        findings = lint_one(
            "def test_count(r):\n    assert r.total == 3\n", path=TESTS
        )
        assert findings == []

    def test_src_is_out_of_scope(self):
        findings = lint_one("THRESHOLD_OK = 1.0 == 1.0\n", path=SRC)
        assert findings == []


# --------------------------------------------------------------------- #
# R007 undocumented-public-module
# --------------------------------------------------------------------- #


class TestUndocumentedPublicModule:
    def test_flags_docstringless_module(self):
        findings = lint_one("VALUE = 1\n", docstring=False)
        assert rule_ids(findings) == ["R007"]
        assert "docstring" in findings[0].message

    def test_docstring_satisfies(self):
        findings = lint_one('"""A documented module."""\nVALUE = 1\n',
                            docstring=False)
        assert findings == []

    def test_tests_are_out_of_scope(self):
        findings = lint_one(
            "def test_nothing():\n    assert True\n",
            path=TESTS, docstring=False,
        )
        assert findings == []

    def test_benchmarks_are_out_of_scope(self):
        findings = lint_one(
            "VALUE = 1\n", path="benchmarks/bench_thing.py", docstring=False
        )
        assert findings == []


# --------------------------------------------------------------------- #
# R008 broad-except-unjustified
# --------------------------------------------------------------------- #


class TestBroadExceptUnjustified:
    def test_flags_unjustified_except_exception(self):
        findings = lint_one(
            "def safe(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert rule_ids(findings) == ["R008"]
        assert "# robust:" in findings[0].message

    def test_flags_bare_except_and_base_exception(self):
        findings = lint_one(
            "def safe(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except:\n"
            "        pass\n"
            "def safer(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except BaseException:\n"
            "        raise\n"
        )
        assert [f.rule for f in findings] == ["R008", "R008"]

    def test_flags_broad_type_inside_tuple(self):
        findings = lint_one(
            "def safe(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except (ValueError, Exception):\n"
            "        return None\n"
        )
        assert rule_ids(findings) == ["R008"]

    def test_robust_comment_on_handler_line_justifies(self):
        findings = lint_one(
            "def safe(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception:  # robust: degradation boundary\n"
            "        return None\n"
        )
        assert findings == []

    def test_robust_comment_on_line_above_justifies(self):
        findings = lint_one(
            "def safe(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    # robust: caller surfaces the structured error record\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert findings == []

    def test_specific_exceptions_are_fine(self):
        findings = lint_one(
            "import zipfile\n"
            "def load(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except (OSError, ValueError, zipfile.BadZipFile):\n"
            "        return None\n"
        )
        assert findings == []

    def test_tests_are_out_of_scope(self):
        findings = lint_one(
            "def test_thing():\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:\n"
            "        pass\n",
            path=TESTS, docstring=False,
        )
        assert findings == []


# --------------------------------------------------------------------- #
# R009 full-store-materialize
# --------------------------------------------------------------------- #


class TestFullStoreMaterialize:
    ANALYSIS = "src/repro/analysis/example.py"
    NETWORK = "src/repro/network/example.py"

    def test_flags_materialize_in_analysis(self):
        findings = lint_one(
            "def growth(store):\n"
            "    return store.materialize()\n",
            path=self.ANALYSIS,
        )
        assert rule_ids(findings) == ["R009"]
        assert "# partition:" in findings[0].message

    def test_flags_tables_in_network(self):
        findings = lint_one(
            "def degrees(store):\n"
            "    return store.tables()\n",
            path=self.NETWORK,
        )
        assert rule_ids(findings) == ["R009"]

    def test_partition_comment_justifies(self):
        findings = lint_one(
            "def growth(store):\n"
            "    # partition: algebra is not mergeable, resident is required\n"
            "    return store.materialize()\n",
            path=self.ANALYSIS,
        )
        assert findings == []

    def test_comment_on_call_line_justifies(self):
        findings = lint_one(
            "def growth(store):\n"
            "    return store.tables()  # partition: legacy consumer\n",
            path=self.ANALYSIS,
        )
        assert findings == []

    def test_other_layers_are_out_of_scope(self):
        findings = lint_one(
            "def load(store):\n"
            "    return store.materialize()\n",
            path="src/repro/synth/example.py",
        )
        assert findings == []


# --------------------------------------------------------------------- #
# registry and explain
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_all_rules_registered(self):
        assert sorted(RULES) == [
            "R001", "R002", "R004", "R005", "R006", "R007", "R008", "R009",
            "R010", "R011", "R012", "R013", "R014",
        ]

    def test_every_rule_documented(self):
        for rule_id, rule_cls in RULES.items():
            assert rule_cls.__doc__, f"{rule_id} missing docstring"
            assert rule_cls().id == rule_id
            assert rule_cls().name

    def test_rule_by_id_case_insensitive(self):
        assert rule_by_id("r004").id == "R004"
        with pytest.raises(KeyError):
            rule_by_id("R999")


# --------------------------------------------------------------------- #
# the repo itself lints clean
# --------------------------------------------------------------------- #


class TestSelfRun:
    def test_repo_lints_clean_against_baseline(self):
        result = run_lint(str(REPO_ROOT))
        assert result.parse_errors == []
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )
        assert result.exit_code == 0
        assert result.files_checked > 100

    def test_repo_baseline_is_empty(self):
        baseline = load_baseline(str(REPO_ROOT / "lint-baseline.txt"))
        assert baseline == set()


# --------------------------------------------------------------------- #
# CLI contract
# --------------------------------------------------------------------- #

DOC = '"""Fixture module."""\n'

VIOLATIONS = {
    "R001": ("src/repro/v1.py",
             DOC + "import numpy as np\nx = np.random.rand(3)\n"),
    "R002": ("src/repro/v2.py", DOC + "import time\nstamp = time.time()\n"),
    "R004": (
        "src/repro/analysis/monthly.py",
        DOC + "def tally(ds):\n"
              "    return sum(1 for c in ds.contracts)\n",
    ),
    "R005": (
        "src/repro/v5.py",
        DOC + "from repro.core.timeutils import Month\nJUMP = Month(2019, 3)\n",
    ),
    "R006": (
        "tests/test_v6.py",
        "def test_value(v):\n    assert v == 0.435\n",
    ),
    "R007": ("src/repro/v7.py", "VALUE = 1\n"),
    "R008": (
        "src/repro/v8.py",
        DOC + "def safe(fn):\n"
              "    try:\n"
              "        return fn()\n"
              "    except Exception:\n"
              "        return None\n",
    ),
    "R009": (
        "src/repro/analysis/v9.py",
        DOC + "def growth(store):\n    return store.materialize()\n",
    ),
}


def make_tree(tmp_path, files):
    for relative, code in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(code, encoding="utf-8")


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/repro/ok.py": DOC + "VALUE = 1\n"})
        assert main(["lint", "--root", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
    def test_each_rule_violation_exits_one(self, tmp_path, capsys, rule_id):
        relative, code = VIOLATIONS[rule_id]
        make_tree(tmp_path, {relative: code, "tests/test_empty.py": ""})
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert rule_id in capsys.readouterr().out

    @pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
    def test_each_rule_violation_in_json(self, tmp_path, capsys, rule_id):
        relative, code = VIOLATIONS[rule_id]
        make_tree(tmp_path, {relative: code, "tests/test_empty.py": ""})
        assert main(
            ["lint", "--root", str(tmp_path), "--format", "json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert rule_id in {f["rule"] for f in payload["findings"]}
        assert all(
            {"path", "line", "col", "severity", "message"} <= set(f)
            for f in payload["findings"]
        )

    def test_json_clean_tree(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/repro/ok.py": DOC + "VALUE = 1\n"})
        assert main(
            ["lint", "--root", str(tmp_path), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == [] and payload["exit_code"] == 0

    def test_baseline_suppresses_grandfathered(self, tmp_path, capsys):
        relative, code = VIOLATIONS["R001"]
        make_tree(tmp_path, {relative: code})
        assert main(["lint", "--root", str(tmp_path),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert (tmp_path / "lint-baseline.txt").exists()
        assert main(["lint", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "suppressed by baseline" in out
        # A *new* violation still fails even with the old one baselined.
        make_tree(tmp_path, {"src/repro/fresh.py": DOC + "import time\nt = time.time()\n"})
        assert main(["lint", "--root", str(tmp_path)]) == 1

    def test_save_and_load_baseline_round_trip(self, tmp_path):
        findings = run_lint(
            str(tmp_path), paths=None, baseline_path=""
        ).findings
        target = tmp_path / "baseline.txt"
        make_tree(tmp_path, {VIOLATIONS["R002"][0]: VIOLATIONS["R002"][1]})
        result = run_lint(str(tmp_path), baseline_path="")
        save_baseline(str(target), result.findings)
        keys = load_baseline(str(target))
        assert len(keys) == len(result.findings)
        again = run_lint(str(tmp_path), baseline_path=str(target))
        assert again.findings == [] and len(again.suppressed) == 1

    def test_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "R004"]) == 0
        out = capsys.readouterr().out
        assert "object-loop-in-kernel" in out and "kernel module" in out

    def test_explain_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "R999"]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_missing_root_is_usage_error(self, tmp_path):
        assert main(["lint", "--root", str(tmp_path / "nowhere")]) == 2

    def test_syntax_error_is_reported(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/repro/broken.py": "def broken(:\n"})
        assert main(["lint", "--root", str(tmp_path)]) == 1
        assert "parse error" in capsys.readouterr().out

    def test_explicit_paths_restrict_sweep(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/v1.py": VIOLATIONS["R001"][1],
            "src/repro/ok.py": DOC + "VALUE = 1\n",
        })
        assert main(["lint", "--root", str(tmp_path),
                     "src/repro/ok.py"]) == 0
