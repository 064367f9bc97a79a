"""Run-contract and run-store end-to-end: deterministic run identity,
atomic persistence, corrupt-index quarantine, resume after a mid-sweep
kill (via the ``runs.record`` crash point) for every recorded command,
and the diff exactness property — two runs of the same (seed, config)
diff to zero."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import pytest

from repro.cli import main
from repro.obs.tracer import NullTracer, Tracer, set_tracer
from repro.report.experiments import ExperimentReport
from repro.robust.crashpoints import (
    InjectedCrash,
    arm_crash_point,
    disarm_all_crash_points,
)
from repro.runs import (
    RUN_FILE,
    CorruptRunError,
    ExperimentResult,
    Market,
    RunContext,
    RunRecord,
    RunStore,
    UnknownRunError,
    context_for,
    diff_runs,
    execute_run,
    extract_metrics,
    open_market,
    resume_run,
    stored_results,
)
from repro.runs import store as store_mod
from repro.synth import MarketSimulator, SimulationConfig
from repro.synth.cache import config_fingerprint, save_result

SCALE, SEED = 0.004, 9


@pytest.fixture(scope="module")
def tiny_result():
    config = SimulationConfig(scale=SCALE, seed=SEED, generate_posts=False)
    return MarketSimulator(config).run()


@pytest.fixture
def market(tiny_result):
    return Market(tiny_result.config, False, result=tiny_result)


@pytest.fixture
def tracer():
    installed = set_tracer(Tracer())
    yield installed
    set_tracer(NullTracer())


@pytest.fixture(autouse=True)
def _disarm():
    yield
    disarm_all_crash_points()
    set_tracer(NullTracer())


def make_context(config: SimulationConfig, experiments, **overrides):
    """A resumable RunContext for ``config`` (mirrors what the CLI builds)."""
    fields = dict(
        command="report",
        config_sha256=config_fingerprint(config),
        seed=config.seed,
        scale=config.scale,
        engine="fastgen",
        store="resident",
        experiments=tuple(experiments),
        config={
            "scale": config.scale,
            "seed": config.seed,
            "generate_posts": False,
        },
    )
    fields.update(overrides)
    return RunContext(**fields)


# --------------------------------------------------------------------- #
# contract: identity, metric extraction, payload round-trips
# --------------------------------------------------------------------- #


class TestRunContext:
    def test_run_key_ignores_runtime_knobs(self, tiny_result):
        a = make_context(tiny_result.config, ["table1"], parallel=1)
        b = make_context(
            tiny_result.config, ["table1"],
            parallel=8, max_retries=3, git_rev="abcdef123456",
            package_version="9.9.9",
        )
        assert a.run_key() == b.run_key()
        assert a.run_name() == b.run_name()

    def test_run_key_covers_identity_fields(self, tiny_result):
        base = make_context(tiny_result.config, ["table1"])
        other_exp = make_context(tiny_result.config, ["table2"])
        other_store = make_context(
            tiny_result.config, ["table1"], store="partitioned"
        )
        assert base.run_key() != other_exp.run_key()
        assert base.run_key() != other_store.run_key()

    def test_run_name_is_deterministic_and_descriptive(self, tiny_result):
        context = make_context(tiny_result.config, ["table1", "fig01"])
        name = context.run_name()
        assert name.startswith(f"report-s{SEED}-x{SCALE:g}-")
        assert name == context.run_name()  # pure function of identity

    def test_payload_round_trip_preserves_identity(self, tiny_result):
        context = make_context(tiny_result.config, ["table1", "fig01"])
        rebuilt = RunContext.from_payload(
            json.loads(json.dumps(context.to_payload()))
        )
        assert rebuilt.run_key() == context.run_key()
        assert rebuilt.experiments == context.experiments
        assert dict(rebuilt.config) == dict(context.config)

    def test_from_payload_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing field"):
            RunContext.from_payload({"command": "report"})


class TestMetrics:
    def test_extraction_is_positional_and_comma_aware(self):
        lines = ["total 1,234 listings (45.2%)", "era 2019: 3 of 17"]
        assert extract_metrics(lines) == {
            "l0000.00": 1234.0,
            "l0000.01": 45.2,
            "l0001.00": 2019.0,
            "l0001.01": 3.0,
            "l0001.02": 17.0,
        }

    def test_identifier_tails_are_not_metrics(self):
        # Hex digests and identifier-embedded digits stay out of the diff.
        assert extract_metrics(["config sha256 b75f2bd850d6"]) == {}
        assert extract_metrics(["fig01 and table2"]) == {}

    def test_identical_lines_give_equal_dicts(self):
        lines = ["n=42 mean 3.14", "sum -7"]
        assert extract_metrics(lines) == extract_metrics(list(lines))


class TestExperimentResult:
    def test_text_matches_legacy_report_format(self):
        report = ExperimentReport("table1", "Table 1", ["a", "b"])
        result = ExperimentResult("table1", "Table 1", ["a", "b"], 0.0)
        assert result.text() == report.text()

    def test_payload_round_trip(self):
        result = ExperimentResult(
            "table1", "Table 1", ["n=3"], 1.5,
            attempts=2, metrics={"l0000.00": 3.0},
        )
        back = ExperimentResult.from_payload(
            json.loads(json.dumps(result.to_payload()))
        )
        assert back == result
        assert back.text_digest() == result.text_digest()

    def test_failed_payload_round_trip(self):
        result = ExperimentResult(
            "fig01", "fig01: FAILED",
            ["FAILED after 2 attempt(s): InjectedFault: boom"], 0.2,
            error={"type": "InjectedFault", "message": "boom",
                   "traceback": "tb", "attempts": 2, "failures": 2},
            attempts=2,
        )
        back = ExperimentResult.from_payload(result.to_payload())
        assert not back.ok
        assert back.status == "failed"
        assert back.error["type"] == "InjectedFault"


# --------------------------------------------------------------------- #
# store: round-trip, verification, quarantine
# --------------------------------------------------------------------- #


class TestRunStore:
    def test_begin_record_finish_round_trip(self, tiny_result, market, tmp_path):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1", "fig01"])
        record, results = execute_run(store, context, market)
        assert record.status == "complete"
        assert [r.experiment_id for r in results] == ["table1", "fig01"]

        loaded = store.load(record.run_id, verify=True)
        assert loaded.status == "complete"
        assert loaded.pending == []
        assert set(loaded.results) == {"table1", "fig01"}
        assert loaded.results["table1"].metrics  # extraction ran
        assert loaded.index  # sealed checksum index
        artifact = os.path.join(record.path, "artifacts", "table1.txt")
        with open(artifact, "r", encoding="utf-8") as handle:
            assert handle.read().rstrip("\n") == results[0].text()

    def test_writes_are_traced(self, tiny_result, tracer, tmp_path):
        """Each store write has a span of its own, outside the
        experiment spans a report runs it after."""
        context = make_context(tiny_result.config, ["table1", "fig01"])
        record = _record_run(RunStore(str(tmp_path)), context)
        assert [span.name for span in tracer.roots] == [
            "runs.begin", "runs.record", "runs.record", "runs.finish",
        ]
        counters = tracer.snapshot()["counters"]
        assert counters["runs.started"] == 1
        assert counters["runs.recorded"] == 2
        assert counters[f"runs.finished.{record.status}"] == 1

    def test_rerun_gets_ordinal_suffix(self, tiny_result, market, tmp_path):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1"])
        first, _ = execute_run(store, context, market)
        second, _ = execute_run(store, context, market)
        assert second.run_id == f"{first.run_id}-2"
        assert store.run_ids() == sorted([first.run_id, second.run_id])

    def test_verify_catches_tampered_artifact(self, tiny_result, market, tmp_path):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1"])
        record, _ = execute_run(store, context, market)
        with open(os.path.join(record.path, "artifacts", "table1.txt"),
                  "a", encoding="utf-8") as handle:
            handle.write("tampered\n")
        store.load(record.run_id)  # unverified read still fine
        with pytest.raises(CorruptRunError, match="checksum mismatch"):
            store.load(record.run_id, verify=True)

    def test_corrupt_run_json_is_quarantined_not_fatal(
        self, tiny_result, market, tmp_path, tracer
    ):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1"])
        record, _ = execute_run(store, context, market)
        with open(os.path.join(record.path, "run.json"), "w",
                  encoding="utf-8") as handle:
            handle.write("{truncated")

        assert store.list_runs() == []  # survived, skipped
        assert not os.path.isdir(record.path)
        assert os.path.isdir(record.path + ".corrupt-1")
        assert tracer.counters.get("runs.corrupt") == 1
        with pytest.raises(UnknownRunError):
            store.load(record.run_id)

    def test_torn_result_file_is_quarantined_and_pending(
        self, tiny_result, market, tmp_path, tracer
    ):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1", "fig01"])
        record, _ = execute_run(store, context, market)
        torn = os.path.join(record.path, "results", "fig01.json")
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "experiment_id": "fig0')

        loaded = store.load(record.run_id)
        assert os.path.isfile(torn + ".corrupt-1")
        assert tracer.counters.get("runs.result_corrupt") == 1
        assert loaded.pending == ["fig01"]  # treated as missing, resumable
        assert loaded.completed == ["table1"]

    def test_unknown_run_raises(self, tmp_path):
        with pytest.raises(UnknownRunError, match="runs list"):
            RunStore(str(tmp_path)).load("no-such-run")

    def test_interrupted_writer_leaves_no_phantom_run(
        self, tiny_result, market, tmp_path, monkeypatch
    ):
        """A writer killed between staging and publication leaves its
        ``<run>.tmp-<pid>`` sibling, ``run.json`` included; neither it
        nor a displaced ``<run>.old-<pid>`` is a run."""
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1"])
        record, _ = execute_run(store, context, market)

        def killed(tmp, final):
            raise InjectedCrash("writer died before publish_dir")

        monkeypatch.setattr(store_mod, "publish_dir", killed)
        with pytest.raises(InjectedCrash):
            store.begin(context)
        staged = f"{record.path}-2.tmp-{os.getpid()}"
        assert os.path.isfile(os.path.join(staged, RUN_FILE))
        assert store.run_ids() == [record.run_id]
        assert [r.run_id for r in store.list_runs()] == [record.run_id]

        shutil.copytree(record.path, f"{record.path}.old-12179")
        assert store.run_ids() == [record.run_id]

    def test_failed_begin_does_not_block_the_slot(
        self, tiny_result, tmp_path, monkeypatch
    ):
        """A begin whose publication fails with ENOSPC cleans up its
        staging dir, so the next begin of the same slot succeeds (a
        long-lived server keeps recording that key)."""
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1"])
        real_publish = store_mod.publish_dir
        failures = []

        def full_disk_once(tmp, final):
            if not failures:
                failures.append(final)
                raise OSError(28, "No space left on device")
            return real_publish(tmp, final)

        monkeypatch.setattr(store_mod, "publish_dir", full_disk_once)
        with pytest.raises(OSError):
            store.begin(context)
        handle = store.begin(context)
        assert failures == [handle.path]
        assert store.run_ids() == [handle.run_id]
        assert not [name for name in os.listdir(str(tmp_path))
                    if ".tmp-" in name]

    def test_filters(self, tiny_result, market, tmp_path):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1"])
        record, _ = execute_run(store, context, market)
        assert [r.run_id for r in store.list_runs(seed=SEED)] == [record.run_id]
        assert store.list_runs(seed=SEED + 1) == []
        assert store.list_runs(command="stream") == []
        prefix = context.config_sha256[:8]
        assert [r.run_id for r in store.list_runs(config_prefix=prefix)] \
            == [record.run_id]
        assert [r.run_id for r in store.list_runs(status="complete")] \
            == [record.run_id]


# --------------------------------------------------------------------- #
# keyed lookup: a context's runs are found by probing its slots
# --------------------------------------------------------------------- #


def _record_run(store, context, failed=()):
    """Record one sealed run of ``context``; ids in ``failed`` degrade."""
    handle = store.begin(context)
    for eid in context.experiments:
        error = None
        if eid in failed:
            error = {"type": "Boom", "message": "", "traceback": "",
                     "attempts": 1, "failures": 1}
        handle.record(ExperimentResult(eid, eid, [f"{eid} n=1"], 0.0,
                                       error=error))
    return handle.finish()


class TestKeyedLookup:
    def test_a_miss_probes_one_slot_per_lookup(
        self, tiny_result, tmp_path, tracer
    ):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1"])
        assert store.find(context) is None
        assert stored_results(store, context) is None
        assert tracer.counters["runs.lookup_probes"] == 2

    def test_results_come_back_in_context_order(self, tiny_result, tmp_path):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1", "fig01"])
        _record_run(store, context)
        other = make_context(tiny_result.config, ["fig01", "table1"])
        _record_run(store, other)
        assert [r.experiment_id for r in stored_results(store, context)] \
            == ["table1", "fig01"]
        assert [r.experiment_id for r in stored_results(store, other)] \
            == ["fig01", "table1"]

    def test_slots_are_probed_in_ordinal_order(
        self, tiny_result, tmp_path, tracer, monkeypatch
    ):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1"])
        for _ in range(10):
            store.begin(context)  # never sealed: "running", no replay
        last = _record_run(store, context)
        base = context.run_name()
        assert last.run_id == f"{base}-11"

        probed = []
        real_load = store.load

        def load(run_id, **kwargs):
            probed.append(run_id)
            return real_load(run_id, **kwargs)

        monkeypatch.setattr(store, "load", load)
        assert store.find(context).run_id == last.run_id
        assert probed == [base] + [f"{base}-{n}" for n in range(2, 12)]
        assert tracer.counters["runs.lookup_probes"] == 11

    @pytest.mark.parametrize("damage", ["torn run.json", "failed run"])
    def test_unusable_first_slot_falls_through(
        self, tiny_result, tmp_path, damage
    ):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1", "fig01"])
        failed = ("fig01",) if damage == "failed run" else ()
        first = _record_run(store, context, failed=failed)
        second = _record_run(store, context)
        if damage == "torn run.json":
            with open(os.path.join(first.path, RUN_FILE), "w",
                      encoding="utf-8") as handle:
                handle.write("{truncated")
        else:
            assert first.status == "failed"

        assert store.find(context).run_id == second.run_id
        assert os.path.isdir(first.path)  # skipped, not quarantined


# --------------------------------------------------------------------- #
# resume: mid-sweep kill -> only missing experiments re-execute
# --------------------------------------------------------------------- #


#: case -> (command, store kind, result ids, params): one per recorded
#: command, with the window and era selections serve and stream record.
RESUME_CASES = {
    "report": ("report", "resident", ("table1", "table2", "fig01"), {}),
    "stream-era": (
        "stream", "partitioned", ("stream-growth", "stream-funnel"),
        {"era": "covid-19"},
    ),
    "serve-report": ("serve-report", "resident", ("table1", "fig01"), {}),
    "serve-stream-era": (
        "serve-stream", "partitioned", ("stream-typemix",),
        {"era": "covid-19"},
    ),
    "serve-stream-window": (
        "serve-stream", "partitioned", ("stream-funnel",),
        {"start": "2019-03", "end": "2020-02"},
    ),
    "serve-summary": ("serve-summary", "resident", ("summary",), {}),
}


class TestResume:
    @pytest.mark.parametrize("case", list(RESUME_CASES))
    def test_resume_after_mid_sweep_kill(self, tiny_result, tmp_path, case):
        command, store_kind, ids, params = RESUME_CASES[case]
        cache_dir = str(tmp_path / "cache")
        save_result(tiny_result, cache_dir)  # warm cache for resume
        context = context_for(
            command, tiny_result.config, ids, store=store_kind, params=params
        )
        market = open_market(context, cache_dir=cache_dir)
        _, uninterrupted = execute_run(None, context, market)

        store = RunStore(str(tmp_path / "runs"))
        crash_at = min(2, len(ids))
        arm_crash_point("runs.record", at_call=crash_at)
        with pytest.raises(InjectedCrash):
            execute_run(store, context, market)
        disarm_all_crash_points()

        (run_id,) = store.run_ids()
        interrupted = store.load(run_id)
        assert interrupted.status == "running"
        assert interrupted.completed == list(ids[:crash_at - 1])
        assert interrupted.pending == list(ids[crash_at - 1:])

        record, rerun = resume_run(store, run_id, cache_dir=cache_dir)
        assert rerun == list(ids[crash_at - 1:])  # only the missing ones
        assert record.status == "complete"
        resumed = store.load(run_id, verify=True)
        assert resumed.pending == []
        assert [resumed.results[i].text() for i in ids] == [
            result.text() for result in uninterrupted
        ]
        assert all(result.ok for result in uninterrupted)

    def test_resume_of_complete_run_reruns_nothing(
        self, tiny_result, market, tmp_path
    ):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1"])
        record, _ = execute_run(store, context, market)
        resealed, rerun = resume_run(store, record.run_id)
        assert rerun == []
        assert resealed.status == "complete"


# --------------------------------------------------------------------- #
# diff: the reproducibility contract
# --------------------------------------------------------------------- #


def _record_of(run_id, context, results):
    return RunRecord(
        run_id=run_id, path="", status="complete", context=context,
        planned=[r.experiment_id for r in results],
        results={r.experiment_id: r for r in results},
    )


class TestDiff:
    def test_identical_reruns_diff_to_zero(self, tiny_result, market, tmp_path):
        store = RunStore(str(tmp_path))
        context = make_context(tiny_result.config, ["table1", "fig01"])
        a, _ = execute_run(store, context, market)
        b, _ = execute_run(store, context, market)
        diff = diff_runs(store.load(a.run_id), store.load(b.run_id))
        assert diff.identical
        assert diff.n_deltas == 0
        assert [e.status for e in diff.experiments] == ["identical"] * 2
        assert all(e.n_compared > 0 for e in diff.experiments)

    def test_tolerance_separates_equal_from_differs(self, tiny_result):
        context = make_context(tiny_result.config, ["x"])
        a = _record_of("a", context, [
            ExperimentResult("x", "t", ["n=10"], 0.0, metrics={"m": 10.0})
        ])
        b = _record_of("b", context, [
            ExperimentResult("x", "t", ["n=10.5"], 0.0, metrics={"m": 10.5})
        ])
        strict = diff_runs(a, b, tolerance=0.0)
        assert [e.status for e in strict.experiments] == ["differs"]
        assert strict.experiments[0].max_delta == pytest.approx(0.5)
        loose = diff_runs(a, b, tolerance=0.5)
        assert [e.status for e in loose.experiments] == ["equal"]
        assert loose.identical

    def test_shape_drift_and_missing_sides(self, tiny_result):
        context = make_context(tiny_result.config, ["x", "y"])
        a = _record_of("a", context, [
            ExperimentResult("x", "t", ["n=1 k=2"], 0.0,
                             metrics={"m0": 1.0, "m1": 2.0}),
        ])
        b = _record_of("b", context, [
            ExperimentResult("x", "t", ["n=1"], 0.0, metrics={"m0": 1.0}),
            ExperimentResult("y", "t", ["n=9"], 0.0, metrics={"m0": 9.0}),
        ])
        diff = diff_runs(a, b)
        by_id = {e.experiment_id: e for e in diff.experiments}
        assert by_id["x"].status == "shape-drift"
        assert by_id["x"].only_in_a == ["m1"]
        assert by_id["y"].status == "missing-in-a"
        assert not diff.identical

    def test_failed_side_is_reported(self, tiny_result):
        context = make_context(tiny_result.config, ["x"])
        a = _record_of("a", context, [
            ExperimentResult("x", "t", ["n=1"], 0.0, metrics={"m0": 1.0}),
        ])
        b = _record_of("b", context, [
            ExperimentResult("x", "x: FAILED", ["FAILED"], 0.0,
                             error={"type": "Boom", "message": "",
                                    "traceback": "", "attempts": 1,
                                    "failures": 1}),
        ])
        diff = diff_runs(a, b)
        assert [e.status for e in diff.experiments] == ["failed"]


# --------------------------------------------------------------------- #
# CLI acceptance: report records; list/show/diff/resume round-trip
# --------------------------------------------------------------------- #


class TestRunsCli:
    def _report(self, cache_dir, extra=()):
        return main([
            "report", "table1", "fig01",
            "--scale", str(SCALE), "--seed", str(SEED), "--no-posts",
            "--cache-dir", str(cache_dir), *extra,
        ])

    @pytest.fixture
    def runs_env(self, tiny_result, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        cache_dir = tmp_path / "cache"
        save_result(tiny_result, str(cache_dir))
        return cache_dir

    def test_report_then_list_show_diff(self, runs_env, capsys):
        assert self._report(runs_env) == 0
        assert self._report(runs_env) == 0
        capsys.readouterr()

        assert main(["runs", "list", "--format", "ids"]) == 0
        ids = capsys.readouterr().out.split()
        assert len(ids) == 2
        assert ids[1] == f"{ids[0]}-2"

        assert main(["runs", "show", ids[0]]) == 0
        out = capsys.readouterr().out
        assert "status    : complete" in out
        assert "table1" in out and "fig01" in out

        assert main(["runs", "diff", ids[0], ids[1]]) == 0
        out = capsys.readouterr().out
        assert "runs match: 0 metric deltas" in out

    def test_no_run_store_records_nothing(self, runs_env, capsys):
        assert self._report(runs_env, ["--no-run-store"]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--format", "ids"]) == 0
        assert capsys.readouterr().out.split() == []

    def test_show_unknown_run_exits_2(self, runs_env, capsys):
        assert main(["runs", "show", "no-such-run"]) == 2
        assert "no run" in capsys.readouterr().err

    def test_object_engine_run_is_refused_by_resume(
        self, runs_env, tmp_path, tiny_result, capsys
    ):
        # A run recorded while the object engine existed names a config
        # that no longer builds; resume says so instead of guessing.
        store = RunStore(str(tmp_path / "runs"))
        context = dataclasses.replace(
            make_context(tiny_result.config, ["table1"]),
            config={"scale": SCALE, "seed": SEED, "engine": "object",
                    "generate_posts": False},
        )
        run_id = store.begin(context).run_id
        assert main(["runs", "resume", run_id]) == 2
        assert "not reconstructable" in capsys.readouterr().err
        assert store.load(run_id).pending == ["table1"]

    def test_crashed_report_is_resumable_from_the_cli(
        self, runs_env, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash:runs.record:2")
        with pytest.raises(InjectedCrash):
            self._report(runs_env)
        monkeypatch.delenv("REPRO_FAULTS")
        disarm_all_crash_points()
        capsys.readouterr()

        store = RunStore(str(tmp_path / "runs"))
        (run_id,) = store.run_ids()
        assert store.load(run_id).status == "running"

        assert main([
            "runs", "resume", run_id, "--cache-dir", str(runs_env),
        ]) == 0
        out = capsys.readouterr().out
        assert "re-executed 1 experiment(s): fig01" in out
        assert store.load(run_id, verify=True).status == "complete"
