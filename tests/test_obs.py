"""Tests for the run telemetry subsystem (``repro.obs``).

Covers the tracer state machine (nesting, counters, fork-snapshot
merging), the RunManifest round-trip through ``trace show``, and the
zero-overhead contract: with tracing disabled nothing is recorded.
"""

import json
import os

import pytest

from repro.cli import main
from repro.obs import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    NullTracer,
    RunManifest,
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    peak_rss_bytes,
    read_manifest,
    render_manifest,
    render_timing_tree,
    set_tracer,
    tracing_enabled,
    write_manifest,
)
from repro.report.experiments import ExperimentContext, run_all_experiments


@pytest.fixture(autouse=True)
def _reset_global_tracer():
    """Every test starts and ends with the no-op tracer installed."""
    disable_tracing()
    yield
    disable_tracing()


class TestTracerBasics:
    def test_default_tracer_is_disabled(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled
        assert not tracing_enabled()

    def test_enable_disable_round_trip(self):
        tracer = enable_tracing()
        assert tracer.enabled
        assert tracing_enabled()
        assert get_tracer() is tracer
        disable_tracing()
        assert not tracing_enabled()

    def test_span_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [child.name for child in outer.children] == ["inner", "inner"]
        assert outer.seconds >= sum(c.seconds for c in outer.children)

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        assert [record.name for record in tracer.roots] == ["boom"]
        with tracer.span("after"):
            pass
        assert [record.name for record in tracer.roots] == ["boom", "after"]

    def test_counters_sum_and_gauges_keep_last_write(self):
        tracer = Tracer()
        tracer.count("events")
        tracer.count("events", 3)
        tracer.gauge("level", 0.25)
        tracer.gauge("level", 0.75)
        assert tracer.counters["events"] == 4
        assert tracer.gauges["level"] == pytest.approx(0.75)

    def test_snapshot_is_json_serialisable(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.count("n", 2)
        snapshot = tracer.snapshot()
        restored = json.loads(json.dumps(snapshot))
        assert restored["counters"] == {"n": 2}
        assert restored["spans"][0]["name"] == "a"


class TestDisabledIsInert:
    def test_null_tracer_records_nothing(self):
        tracer = get_tracer()
        with tracer.span("phase"):
            tracer.count("events", 5)
            tracer.gauge("level", 1.0)
        snapshot = tracer.snapshot()
        assert snapshot == {"spans": [], "counters": {}, "gauges": {}}

    def test_instrumented_run_leaves_counters_empty(self, sim_tiny):
        ctx = ExperimentContext(sim_tiny, latent_k=8, seed=1)
        runs = run_all_experiments(ctx, ["table1"], parallel=1)
        assert runs[0].trace is None
        tracer = get_tracer()
        assert not tracer.enabled
        assert tracer.snapshot()["counters"] == {}


class TestMergeChild:
    def test_merge_grafts_under_current_span(self):
        child = Tracer()
        with child.span("work"):
            child.count("done")
        parent = Tracer()
        parent.count("done", 2)
        with parent.span("pool"):
            parent.merge_child(child.snapshot())
        pool = parent.roots[0]
        assert [record.name for record in pool.children] == ["work"]
        assert parent.counters["done"] == 3

    def test_parallel_run_merges_forked_span_trees(self, sim_tiny):
        ctx = ExperimentContext(sim_tiny, latent_k=8, seed=1)
        ctx.result.dataset.columns()  # build before forking, as report does
        tracer = enable_tracing()
        runs = run_all_experiments(ctx, ["table1", "fig01"], parallel=2)
        assert [run.experiment_id for run in runs] == ["table1", "fig01"]
        assert all(run.trace is not None for run in runs)
        roots = {record.name: record for record in tracer.roots}
        assert "experiments.parallel" in roots
        grafted = {c.name for c in roots["experiments.parallel"].children}
        assert {"experiment.table1", "experiment.fig01"} <= grafted


def _manifest(**overrides):
    fields = dict(
        command="report",
        config_sha256="ab" * 32,
        seed=42,
        scale=0.05,
        package_version="1.0.0",
        python_version="3.11.0",
        created_unix=1603800000.0,
        params={"parallel": 2},
        dataset={"contracts": 10},
        experiments=[{"id": "table1", "seconds": 0.5}],
        total_seconds=1.25,
        peak_rss_bytes=123456789,
        counters={"cache.hits": 4},
        gauges={"level": 0.5},
        spans=[{"name": "synth.generate", "seconds": 0.8, "children": []}],
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        manifest = _manifest()
        path = write_manifest(manifest, str(tmp_path))
        assert os.path.basename(path) == MANIFEST_NAME
        again = read_manifest(path)
        assert again == manifest
        assert again.version == MANIFEST_VERSION

    def test_read_accepts_directory(self, tmp_path):
        write_manifest(_manifest(), str(tmp_path))
        assert read_manifest(str(tmp_path)).seed == 42

    def test_unknown_keys_are_ignored(self, tmp_path):
        path = write_manifest(_manifest(), str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["from_the_future"] = True
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert read_manifest(path).command == "report"

    @pytest.mark.parametrize("missing", ["command", "config_sha256", "seed"])
    def test_missing_identity_field_raises(self, tmp_path, missing):
        path = write_manifest(_manifest(), str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload[missing]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_newer_schema_version_raises(self, tmp_path):
        path = write_manifest(_manifest(), str(tmp_path))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["version"] = MANIFEST_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_trace_show_renders_written_manifest(self, tmp_path, capsys):
        path = write_manifest(_manifest(), str(tmp_path))
        assert main(["trace", "show", path]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "ab" * 32 in out
        assert "synth.generate" in out
        assert "cache.hits" in out

    def test_trace_show_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "show", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestRendering:
    def test_sibling_spans_aggregate(self):
        roots = [
            SpanRecord("month", 0.5),
            SpanRecord("month", 0.5),
            SpanRecord("other", 1.0),
        ]
        text = "\n".join(render_timing_tree(roots))
        assert "month ×2" in text
        assert "1.000s" in text
        assert "(50%)" in text

    def test_empty_tree_renders_placeholder(self):
        assert render_timing_tree([]) == ["(no spans recorded)"]

    def test_render_manifest_orders_experiments_slowest_first(self):
        manifest = _manifest(
            experiments=[
                {"id": "fast_one", "seconds": 0.1},
                {"id": "slow_one", "seconds": 2.0},
            ]
        )
        text = "\n".join(render_manifest(manifest))
        assert text.index("slow_one") < text.index("fast_one")


class TestReportTraceCli:
    def test_report_trace_writes_manifest_and_tree(self, tmp_path, capsys):
        out = str(tmp_path / "artefacts")
        code = main([
            "report", "--trace", "--no-cache", "--scale", "0.004",
            "--seed", "9", "--no-posts", "--out", out, "table1", "fig01",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "timing tree:" in err
        assert "synth.generate" in err
        assert "experiment.table1" in err
        manifest = read_manifest(os.path.join(out, MANIFEST_NAME))
        assert manifest.command == "report"
        assert manifest.scale == pytest.approx(0.004)
        assert {e["id"] for e in manifest.experiments} == {"table1", "fig01"}
        assert manifest.counters.get("synth.contracts.generated", 0) > 0

    def test_report_without_trace_writes_no_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "artefacts")
        code = main([
            "report", "--no-cache", "--scale", "0.004", "--seed", "9",
            "--no-posts", "--out", out, "table1",
        ])
        assert code == 0
        capsys.readouterr()
        assert not os.path.exists(os.path.join(out, MANIFEST_NAME))


class TestPeakRss:
    def test_reports_plausible_value_or_none(self):
        rss = peak_rss_bytes()
        if rss is not None:
            assert rss > 1024 * 1024  # any real python process beats 1 MiB
