"""Smoke tests: every example script runs end-to-end at tiny scale."""

import os
import subprocess
import sys

import pytest

_EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, *args, timeout=240):
    path = os.path.join(_EXAMPLES, name)
    return subprocess.run(
        [sys.executable, path, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py", "--scale", "0.005", "--seed", "3")
        assert result.returncode == 0, result.stderr
        assert "Table 1" in result.stdout
        assert "Figure 1" in result.stdout

    def test_market_evolution(self):
        result = run_example("market_evolution.py", "--scale", "0.005", "--seed", "3")
        assert result.returncode == 0, result.stderr
        assert "Market composition shift" in result.stdout
        assert "stimulus" in result.stdout.lower()

    def test_cold_start_analysis(self):
        result = run_example("cold_start_analysis.py", "--scale", "0.01", "--seed", "3")
        assert result.returncode == 0, result.stderr
        assert "cold starters" in result.stdout
        assert "Zero-Inflated Poisson" in result.stdout

    def test_network_centralisation(self):
        result = run_example("network_centralisation.py", "--scale", "0.005", "--seed", "3")
        assert result.returncode == 0, result.stderr
        assert "power-law" in result.stdout
        assert "Gini" in result.stdout or "gini" in result.stdout

    def test_covid_stimulus(self):
        result = run_example("covid_stimulus.py", "--scale", "0.01", "--seed", "3")
        assert result.returncode == 0, result.stderr
        assert "verdict" in result.stdout
        assert "Intervention timing" in result.stdout
