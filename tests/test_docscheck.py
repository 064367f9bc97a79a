"""Tests for the documentation checker (``repro.devtools.docscheck``)."""

import os

import pytest

from repro.cli import main
from repro.devtools.docscheck import check_file, check_repo, docs_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_repo(tmp_path, pages, modules=()):
    """Lay out a minimal repo: markdown pages plus a src/repro tree."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text('__all__ = ["generate_market"]\n')
    for module in modules:
        path = src
        parts = module.split("/")
        for part in parts[:-1]:
            path = path / part
            path.mkdir(exist_ok=True)
            init = path / "__init__.py"
            if not init.exists():
                init.write_text("")
        (path / parts[-1]).write_text('__all__ = ["helper"]\n')
    for name, text in pages.items():
        page = tmp_path / name
        page.parent.mkdir(parents=True, exist_ok=True)
        page.write_text(text)
    return tmp_path


def kinds(findings):
    return [(finding.kind, finding.line) for finding in findings]


class TestLinks:
    def test_live_relative_link_passes(self, tmp_path):
        root = make_repo(tmp_path, {
            "README.md": "see [docs](docs/index.md)\n",
            "docs/index.md": "back to [readme](../README.md)\n",
        })
        assert check_repo(str(root)) == []

    def test_dead_relative_link_is_flagged(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "see [gone](missing.md)\n",
        })
        findings = check_repo(str(root))
        assert kinds(findings) == [("dead-link", 1)]
        assert "missing.md" in findings[0].detail

    def test_external_links_and_anchors_are_ignored(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": (
                "[a](https://example.org/x.md) [b](mailto:x@y.z) "
                "[c](#section)\n"
            ),
        })
        assert check_repo(str(root)) == []

    def test_fragment_is_stripped_before_resolving(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "[a](other.md#part)\n",
            "docs/other.md": "hello\n",
        })
        assert check_repo(str(root)) == []

    def test_fenced_code_blocks_are_skipped(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "```\n[fake](missing.md) `repro.not_real`\n```\n",
        })
        assert check_repo(str(root)) == []


class TestModuleRefs:
    def test_existing_module_passes(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "`repro.synth.cache` is real\n",
        }, modules=["synth/cache.py"])
        assert check_repo(str(root)) == []

    def test_missing_module_is_flagged(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "`repro.nowhere` drifted\n",
        })
        findings = check_repo(str(root))
        assert kinds(findings) == [("dead-module", 1)]
        assert "repro.nowhere" in findings[0].detail

    def test_exported_name_passes_unexported_fails(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": (
                "`repro.synth.cache.helper` exported\n"
                "`repro.synth.cache.secret` not exported\n"
            ),
        }, modules=["synth/cache.py"])
        findings = check_repo(str(root))
        assert kinds(findings) == [("dead-module", 2)]

    def test_class_name_tail_accepted_structurally(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "`repro.synth.cache.SomeClass` reads fine\n",
        }, modules=["synth/cache.py"])
        assert check_repo(str(root)) == []

    def test_package_all_covers_top_level_reexports(self, tmp_path):
        root = make_repo(tmp_path, {
            "docs/index.md": "`repro.generate_market` re-exported\n",
        })
        assert check_repo(str(root)) == []


class TestDiscoveryAndCli:
    def test_docs_files_covers_readme_and_docs_tree(self, tmp_path):
        root = make_repo(tmp_path, {
            "README.md": "x\n",
            "docs/index.md": "x\n",
            "docs/deep/page.md": "x\n",
            "docs/notes.txt": "not markdown\n",
        })
        names = [os.path.relpath(p, root) for p in docs_files(str(root))]
        assert names[0] == "README.md"
        assert set(names) == {"README.md", "docs/index.md",
                              "docs/deep/page.md"}

    def test_cli_exit_codes_and_summary(self, tmp_path, capsys):
        root = make_repo(tmp_path, {"docs/index.md": "[gone](missing.md)\n"})
        assert main(["docscheck", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "docscheck: failed" in out
        assert "dead-link" in out

        (root / "docs" / "missing.md").write_text("found now\n")
        assert main(["docscheck", "--root", str(root)]) == 0
        assert "docscheck: ok" in capsys.readouterr().out

    def test_cli_json_format(self, tmp_path, capsys):
        import json

        root = make_repo(tmp_path, {"docs/index.md": "`repro.nope`\n"})
        assert main(["docscheck", "--root", str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["kind"] == "dead-module"

    def test_check_file_reports_root_relative_paths(self, tmp_path):
        root = make_repo(tmp_path, {"docs/index.md": "[gone](missing.md)\n"})
        findings = check_file(str(root / "docs" / "index.md"), str(root))
        assert findings[0].path == os.path.join("docs", "index.md")


CATALOGUE = """# Observability

| Span | Where |
|---|---|
| `job.run` | the job |
| `lazy.materialize.<entity>` | one entity list |

| Counter | Meaning |
|---|---|
| `job.done` / `job.failed` | outcomes |

Prose naming `job.gone` outside a table is not a row.
"""

EMITTER = '''
from repro.obs.tracer import get_tracer


def run(entity, parts):
    tracer = get_tracer()
    with tracer.span("job.run"):
        with tracer.span(f"lazy.materialize.{entity}"):
            tracer.count("job.done")
    tracer.count(
        "job.failed", 0)
    parts.count(",")
    "a.b".split(".")
'''


def telemetry_repo(tmp_path, catalogue=CATALOGUE, emitter=EMITTER):
    root = make_repo(tmp_path, {"docs/observability.md": catalogue})
    (root / "src" / "repro" / "job.py").write_text(emitter)
    return root


class TestTelemetryCatalogue:
    def test_catalogued_names_pass(self, tmp_path):
        assert check_repo(str(telemetry_repo(tmp_path))) == []

    def test_uncatalogued_literal_is_flagged(self, tmp_path):
        root = telemetry_repo(
            tmp_path, emitter=EMITTER + '    get_tracer().gauge("job.level", 1)\n'
        )
        findings = check_repo(str(root))
        assert kinds(findings) == [("uncatalogued-telemetry", 14)]
        assert findings[0].path == os.path.join("src", "repro", "job.py")
        assert "gauge job.level" in findings[0].detail

    def test_uncatalogued_fstring_family_is_flagged(self, tmp_path):
        root = telemetry_repo(tmp_path, emitter=EMITTER.replace(
            'f"lazy.materialize.{entity}"', 'f"lazy.build.{entity}"'))
        findings = check_repo(str(root))
        assert sorted(f.detail for f in findings) == [
            "span lazy.build.<…> is not in " + os.path.join("docs", "observability.md"),
            "span lazy.materialize.<…> is catalogued but src/ never emits it",
        ]

    def test_stale_row_is_flagged(self, tmp_path):
        root = telemetry_repo(tmp_path, catalogue=CATALOGUE.replace(
            "| `job.run` | the job |",
            "| `job.run` | the job |\n| `job.retired` | gone |"))
        findings = check_repo(str(root))
        assert kinds(findings) == [("stale-telemetry", 6)]
        assert findings[0].path == os.path.join("docs", "observability.md")

    def test_kinds_are_kept_apart(self, tmp_path):
        # A counter row does not catalogue a span of the same name.
        root = telemetry_repo(tmp_path, emitter=EMITTER.replace(
            'tracer.span("job.run")', 'tracer.span("job.done")'))
        details = sorted(f.detail for f in check_repo(str(root)))
        assert details == [
            "span job.done is not in " + os.path.join("docs", "observability.md"),
            "span job.run is catalogued but src/ never emits it",
        ]

    def test_span_and_counter_parameters_are_names(self, tmp_path):
        emitter = EMITTER + '''

def pool(fn, span="job.pool", broken_counter="job.pool_broken"):
    return fn(span="job.inner", fallback_counter="job.inline", workers=2)
'''
        findings = check_repo(str(telemetry_repo(tmp_path, emitter=emitter)))
        assert sorted(f.detail.split(" is ")[0] for f in findings) == [
            "counter job.inline", "counter job.pool_broken",
            "span job.inner", "span job.pool",
        ]

    def test_no_catalogue_no_check(self, tmp_path):
        root = make_repo(tmp_path, {"docs/index.md": "plain\n"})
        (root / "src" / "repro" / "job.py").write_text(EMITTER)
        assert check_repo(str(root)) == []


class TestSelfCheck:
    def test_repository_docs_are_clean(self):
        assert check_repo(REPO_ROOT) == []

    def test_run_contract_page_is_covered(self):
        # The runs lifecycle doc must exist, be scanned, and its
        # `repro.runs.*` references must resolve against src/ — a
        # renamed store module shows up here, not months later.
        scanned = {os.path.basename(path) for path in docs_files(REPO_ROOT)}
        assert "run-contract.md" in scanned
        page = os.path.join(REPO_ROOT, "docs", "run-contract.md")
        with open(page, "r", encoding="utf-8") as handle:
            text = handle.read()
        for ref in ("repro.runs.contract", "repro.runs.store"):
            assert ref in text, f"run-contract.md should reference {ref}"
        assert check_file(page, REPO_ROOT) == []
