"""Unit tests for the ablation harness and the CLI entry point."""

import pytest

from repro.analysis import ablations
from repro.analysis.__main__ import _REGISTRY, main


class TestAblations:
    def test_a01_rows(self):
        rows = ablations.run_a01_threshold_ablation(sizes=(128,), seed=1)
        assert len(rows) == 1
        assert 0.0 <= rows[0]["bad_fraction_random"] <= 1.0
        assert 0.0 <= rows[0]["bad_fraction_fixed"] <= 1.0

    def test_a02_monotone_phases(self):
        rows = ablations.run_a02_alpha_ablation(
            n=512, alphas=(0.5, 0.9), avg_degree=96.0, seed=2
        )
        assert rows[0]["prefix_phases"] <= rows[1]["prefix_phases"]

    def test_a03_phase_tradeoff(self):
        rows = ablations.run_a03_iterations_scale_ablation(
            n=256, scales=(1.0, 4.0), seed=3
        )
        assert rows[0]["phases"] >= rows[1]["phases"]

    def test_a04_detects_memory_violation(self):
        rows = ablations.run_a04_memory_ablation(
            n=256, memory_factors=(8.0, 0.1), seed=4
        )
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("memory exceeded")

    def test_a04_dense_input_runs_and_breaches_compressed_phases(self):
        # The default degree 16 keeps Δ under the degree floor, so no
        # compressed phase runs; at 128 the phases run, and the tight
        # budget fails in the first one's scatter.
        rows = ablations.run_a04_memory_ablation(
            n=256, memory_factors=(8.0, 0.1), avg_degree=128.0, seed=4
        )
        assert rows[0]["status"] == "ok"
        assert rows[0]["max_machine_edges"] > 0
        assert rows[1]["status"].startswith("memory exceeded")


class TestCLI:
    def test_registry_complete(self):
        for exp in (
            [f"e{i:02d}" for i in range(1, 13)] + [f"a{i:02d}" for i in range(1, 5)]
        ):
            assert exp in _REGISTRY

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "a04" in out

    def test_unknown_experiment(self, capsys):
        assert main(["zzz"]) == 2

    def test_help(self, capsys):
        assert main([]) == 0
        assert "python -m repro.analysis" in capsys.readouterr().out

    def test_run_single(self, capsys):
        assert main(["a04"]) == 0
        out = capsys.readouterr().out
        assert "memory_factor" in out
