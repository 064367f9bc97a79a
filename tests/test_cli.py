"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestCommands:
    def test_generate_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "market")
        code = main(["generate", "--scale", "0.004", "--seed", "9",
                     "--no-posts", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "contracts.jsonl"))

        code = main(["summary", "--data", out])
        assert code == 0
        captured = capsys.readouterr().out
        assert "contracts" in captured

    def test_experiment_single(self, capsys):
        code = main(["experiment", "table1", "--scale", "0.004",
                     "--seed", "9", "--no-posts"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Table 1" in captured
        assert "Sale" in captured

    def test_experiment_writes_files(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        code = main(["experiment", "table1", "fig02", "--scale", "0.004",
                     "--seed", "9", "--no-posts", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "table1.txt"))
        assert os.path.exists(os.path.join(out, "fig02.txt"))

    def test_experiment_unknown_id(self, capsys):
        code = main(["experiment", "table42", "--scale", "0.004"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_eras_command(self, capsys):
        code = main(["eras", "--scale", "0.004", "--seed", "9", "--no-posts"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "E1" in captured
        assert "verdict" in captured


class TestValidateAndExport:
    def test_validate_clean_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        assert main(["generate", "--scale", "0.004", "--seed", "9",
                     "--no-posts", "--out", out]) == 0
        capsys.readouterr()
        assert main(["validate", "--data", out]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_export_csv(self, tmp_path, capsys):
        out = str(tmp_path / "csv")
        code = main(["export-csv", "--scale", "0.004", "--seed", "9",
                     "--no-posts", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "contracts.csv"))


class TestStreamCommand:
    def test_stream_single_experiment(self, tmp_path, capsys):
        code = main(["stream", "funnel", "--scale", "0.01", "--seed", "9",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "proposed" in capsys.readouterr().out

    def test_stream_era_and_out(self, tmp_path, capsys):
        out = str(tmp_path / "artefacts")
        code = main(["stream", "funnel", "--scale", "0.01", "--seed", "9",
                     "--era", "COVID-19",
                     "--cache-dir", str(tmp_path / "cache"), "--out", out])
        assert code == 0
        assert "era=COVID-19" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "stream-funnel.txt"))

    def test_stream_window(self, tmp_path, capsys):
        code = main(["stream", "growth", "--scale", "0.01", "--seed", "9",
                     "--window", "2019-03", "2019-06",
                     "--cache-dir", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "2019-03" in captured
        assert "2020-01" not in captured

    def test_stream_unknown_id(self, tmp_path, capsys):
        code = main(["stream", "bogus", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "unknown stream experiment" in capsys.readouterr().err

    def test_report_accepts_store_flag(self):
        args = build_parser().parse_args(
            ["report", "--store", "partitioned"])
        assert args.store == "partitioned"


class TestClosedPipe:
    def test_reader_leaving_early_gets_no_traceback(self, tmp_path):
        """``repro trace show <manifest> | head -1``: the reader closes
        the pipe after one line, and the CLI exits without a traceback."""
        manifest = {
            "version": 1, "command": "report", "config_sha256": "0" * 64,
            "seed": 1, "scale": 0.05, "package_version": "test",
            # Far more output than a pipe buffers.
            "counters": {f"count.{i:05d}": i for i in range(20000)},
        }
        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "show", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.readline().startswith(b"run manifest")
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        finally:
            proc.kill()
            proc.wait()
        assert "Traceback" not in stderr, stderr
