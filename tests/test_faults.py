"""Fault injection end-to-end: flaky experiments drive the runner's
retry/degradation paths, ``REPRO_FAULTS`` arms the harness from the
environment, and the CLI acceptance scenario proves a corrupted cache
entry plus a twice-failing experiment cannot kill ``repro report``."""

from __future__ import annotations

import glob
import json
import os
import time

import pytest

from repro.cli import main
from repro.devtools import faults
from repro.obs.tracer import NullTracer, Tracer, set_tracer
from repro.report.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    ExperimentReport,
    run_all_experiments,
)
from repro.robust import (
    RetryPolicy,
    armed_crash_points,
    disarm_all_crash_points,
    timeout_supported,
)
from repro.synth import MarketSimulator, SimulationConfig
from repro.synth.cache import cache_path, save_result

SCALE, SEED = 0.004, 9


@pytest.fixture(scope="module")
def tiny_result():
    config = SimulationConfig(scale=SCALE, seed=SEED, generate_posts=False)
    return MarketSimulator(config).run()


@pytest.fixture
def ctx(tiny_result):
    return ExperimentContext(tiny_result)


@pytest.fixture
def tracer():
    installed = set_tracer(Tracer())
    yield installed
    set_tracer(NullTracer())


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.reset()
    disarm_all_crash_points()
    set_tracer(NullTracer())


# --------------------------------------------------------------------- #
# runner retry and degradation
# --------------------------------------------------------------------- #


class TestRunnerRetries:
    def test_retry_recovers_a_once_flaky_experiment(self, ctx, tracer):
        faults.install_flaky_experiment("table1", fail_times=1)
        runs = run_all_experiments(
            ctx, ["table1"], policy=RetryPolicy(max_retries=1)
        )
        (run,) = runs
        assert run.ok
        assert run.attempts == 2
        assert run.lines  # the real report, not a placeholder
        assert tracer.counters.get("experiment.failures") == 1
        assert tracer.counters.get("experiment.retries") == 1
        assert "experiment.failed" not in tracer.counters

    def test_exhausted_budget_degrades_not_raises(self, ctx, tracer):
        faults.install_flaky_experiment("table2", fail_times=2)
        runs = run_all_experiments(
            ctx, ["table1", "table2"], policy=RetryPolicy(max_retries=1)
        )
        assert [r.experiment_id for r in runs] == ["table1", "table2"]
        assert runs[0].ok  # the healthy experiment still completed
        failed = runs[1]
        assert not failed.ok
        assert failed.error["type"] == "InjectedFault"
        assert failed.error["attempts"] == 2
        assert failed.error["failures"] == 2
        assert "InjectedFault" in failed.error["traceback"]
        assert failed.title.endswith("FAILED")
        assert "FAILED after 2 attempt(s)" in failed.lines[0]
        assert tracer.counters.get("experiment.failed") == 1
        assert tracer.counters.get("experiment.failures") == 2

    def test_zero_retries_means_single_attempt(self, ctx):
        faults.install_flaky_experiment("table1", fail_times=1)
        runs = run_all_experiments(
            ctx, ["table1"], policy=RetryPolicy(max_retries=0)
        )
        assert not runs[0].ok
        assert runs[0].attempts == 1

    def test_parallel_pool_survives_a_failing_experiment(self, ctx, tracer):
        faults.install_flaky_experiment("table2", fail_times=5)
        runs = run_all_experiments(
            ctx, ["table1", "table2"], parallel=2,
            policy=RetryPolicy(max_retries=1),
        )
        assert [r.experiment_id for r in runs] == ["table1", "table2"]
        assert runs[0].ok
        assert not runs[1].ok
        assert runs[1].error["type"] == "InjectedFault"
        # Worker counters came home via the merged trace snapshots.
        assert tracer.counters.get("experiment.failed") == 1

    def test_timeout_degrades_without_retry(self, ctx):
        if not timeout_supported():
            pytest.skip("SIGALRM not available here")

        def sleepy(_ctx):
            time.sleep(10.0)
            return ExperimentReport("sleepy", "sleepy", [])

        EXPERIMENTS["sleepy"] = sleepy
        try:
            runs = run_all_experiments(
                ctx, ["sleepy"],
                policy=RetryPolicy(max_retries=3, timeout_seconds=0.2),
            )
        finally:
            del EXPERIMENTS["sleepy"]
        (run,) = runs
        assert not run.ok
        assert run.error["type"] == "TimeoutExceeded"
        assert run.attempts == 1  # deterministic work is never re-timed


# --------------------------------------------------------------------- #
# environment driver
# --------------------------------------------------------------------- #


class TestArmFromEnv:
    def test_arms_experiments_and_crash_points(self):
        original = EXPERIMENTS["table2"]
        armed = faults.arm_from_env(
            {"REPRO_FAULTS": "experiment:table2:2,crash:partition.save.mid_write"}
        )
        assert armed == ["experiment:table2:2", "crash:partition.save.mid_write"]
        assert EXPERIMENTS["table2"] is not original
        assert armed_crash_points() == {"partition.save.mid_write": 1}
        faults.reset()
        assert EXPERIMENTS["table2"] is original
        assert armed_crash_points() == {}

    def test_unset_variable_arms_nothing(self):
        assert faults.arm_from_env({}) == []
        assert faults.arm_from_env({"REPRO_FAULTS": "  "}) == []

    def test_malformed_directive_raises(self):
        with pytest.raises(ValueError):
            faults.arm_from_env({"REPRO_FAULTS": "experiment"})
        with pytest.raises(ValueError):
            faults.arm_from_env({"REPRO_FAULTS": "explode:everything"})
        with pytest.raises(ValueError):
            faults.arm_from_env({"REPRO_FAULTS": "experiment:table1:x"})

    def test_rearming_resets_previous_faults(self):
        faults.arm_from_env({"REPRO_FAULTS": "crash:point.a"})
        faults.arm_from_env({"REPRO_FAULTS": "crash:point.b"})
        assert armed_crash_points() == {"point.b": 1}

    def test_flaky_wrapper_validation(self):
        with pytest.raises(ValueError):
            faults.install_flaky_experiment("table1", fail_times=0)
        with pytest.raises(KeyError):
            faults.install_flaky_experiment("no-such-experiment")


# --------------------------------------------------------------------- #
# CLI acceptance: corrupt entry + twice-failing experiment
# --------------------------------------------------------------------- #


class TestCliAcceptance:
    REPORT_ARGS = [
        "report", "table1", "table2",
        "--scale", str(SCALE), "--seed", str(SEED), "--no-posts",
        "--parallel", "2", "--trace",
    ]

    def _corrupt_warm_cache(self, tiny_result, cache_dir):
        entry = save_result(tiny_result, str(cache_dir))
        faults.truncate_npz(entry)
        return entry

    def test_report_completes_and_records_the_failure(
        self, tiny_result, tmp_path, monkeypatch, capsys
    ):
        cache_dir, out_dir = tmp_path / "cache", tmp_path / "out"
        entry = self._corrupt_warm_cache(tiny_result, cache_dir)
        monkeypatch.setenv("REPRO_FAULTS", "experiment:table2:2")

        code = main(self.REPORT_ARGS + [
            "--cache-dir", str(cache_dir), "--out", str(out_dir),
        ])
        # Degraded, not dead — and non-zero only under --strict.
        assert code == 0

        # The corrupt entry was quarantined and regenerated.
        assert os.path.isdir(entry)
        assert os.path.isdir(entry + ".corrupt-1")
        assert cache_path(tiny_result.config, str(cache_dir)) == entry

        # Exactly one experiment failed, and the manifest says which.
        manifests = glob.glob(str(out_dir / "*.json"))
        assert len(manifests) == 1
        with open(manifests[0], "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        by_id = {e["id"]: e for e in manifest["experiments"]}
        assert set(by_id) == {"table1", "table2"}
        assert "error" not in by_id["table1"]
        assert by_id["table2"]["error"]["type"] == "InjectedFault"
        assert by_id["table2"]["attempts"] == 2
        assert manifest["counters"].get("cache.corrupt") == 1

        err = capsys.readouterr().err
        assert "1 of 2 experiments failed" in err
        assert "table2" in err

    def test_strict_flag_turns_failure_into_nonzero_exit(
        self, tiny_result, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        save_result(tiny_result, str(cache_dir))  # warm, healthy cache
        monkeypatch.setenv("REPRO_FAULTS", "experiment:table2:2")
        monkeypatch.chdir(tmp_path)  # --trace writes run_manifest.json to cwd
        code = main(self.REPORT_ARGS + [
            "--cache-dir", str(cache_dir), "--strict",
        ])
        assert code == 1

    def test_trace_show_renders_the_failure(
        self, tiny_result, tmp_path, monkeypatch, capsys
    ):
        cache_dir, out_dir = tmp_path / "cache", tmp_path / "out"
        save_result(tiny_result, str(cache_dir))
        monkeypatch.setenv("REPRO_FAULTS", "experiment:table2:2")
        assert main(self.REPORT_ARGS + [
            "--cache-dir", str(cache_dir), "--out", str(out_dir),
        ]) == 0
        capsys.readouterr()
        (manifest_path,) = glob.glob(str(out_dir / "*.json"))
        assert main(["trace", "show", manifest_path]) == 0
        out = capsys.readouterr().out
        assert "FAILED after 2 attempt(s): InjectedFault" in out
