"""Unit tests for analysis: metrics, tables, concentration, experiments."""

import math

import pytest

from repro.analysis.concentration import coupled_run
from repro.analysis.metrics import (
    approximation_ratio,
    geometric_mean,
    loglog_slope,
    quantiles,
)
from repro.analysis.tables import format_table
from repro.core.config import MatchingConfig
from repro.graph.generators import gnp_random_graph


class TestMetrics:
    def test_approximation_ratio(self):
        assert approximation_ratio(50, 100) == 2.0
        assert approximation_ratio(100, 100) == 1.0
        assert approximation_ratio(0, 10) == math.inf
        assert approximation_ratio(5, 0) == 1.0

    def test_loglog_slope_flat_series(self):
        sizes = [2**k for k in range(4, 10)]
        assert loglog_slope(sizes, [7] * 6) == pytest.approx(0.0)

    def test_loglog_slope_linear_in_loglog(self):
        sizes = [2**k for k in range(4, 10)]
        rounds = [3 * math.log2(math.log2(s)) for s in sizes]
        assert loglog_slope(sizes, rounds) == pytest.approx(3.0, abs=0.01)

    def test_loglog_slope_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([4], [1])

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1, -1])

    def test_quantiles(self):
        values = list(range(1, 101))
        q = quantiles(values, [0.5, 0.9, 1.0])
        assert q == [50, 90, 100]
        with pytest.raises(ValueError):
            quantiles([], [0.5])
        with pytest.raises(ValueError):
            quantiles([1], [1.5])


class TestTables:
    def test_format_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len({len(line) for line in lines}) <= 2  # header/sep/body align

    def test_floats_rendered(self):
        assert "1.500" in format_table([{"x": 1.5}])

    def test_title_and_empty(self):
        assert format_table([], title="T").startswith("T")
        assert "(no rows)" in format_table([])


class TestConcentration:
    def test_coupled_run_reports(self):
        g = gnp_random_graph(200, 0.08, seed=1)
        report = coupled_run(g, config=MatchingConfig(epsilon=0.1), seed=1)
        assert 0.0 <= report.bad_fraction <= 1.0
        assert report.mean_load_deviation >= 0.0
        assert report.central_weight > 0
        assert report.mpc_weight > 0

    def test_coupled_weights_agree_within_factor(self):
        """Lemma 4.15: the coupled processes stay close, so the two
        fractional weights agree to a modest constant."""
        g = gnp_random_graph(300, 0.06, seed=2)
        report = coupled_run(g, config=MatchingConfig(epsilon=0.1), seed=2)
        ratio = report.mpc_weight / report.central_weight
        assert 0.5 <= ratio <= 2.0

    def test_bad_fraction_is_minority(self):
        g = gnp_random_graph(300, 0.06, seed=3)
        report = coupled_run(g, config=MatchingConfig(epsilon=0.1), seed=3)
        assert report.bad_fraction < 0.5


class TestExperiments:
    def test_e01_shape(self):
        from repro.analysis.experiments import run_e01_mis_rounds

        rows = run_e01_mis_rounds(sizes=(64, 128), avg_degree=8.0, seed=1)
        assert len(rows) == 2
        assert all(row["paper_rounds"] > 0 for row in rows)

    def test_e03_rows(self):
        from repro.analysis.experiments import run_e03_central

        rows = run_e03_central(sizes=(64,), epsilons=(0.1,), seed=2)
        assert rows[0]["matching_ratio"] <= 2.5 + 1e-9

    def test_e06_rows(self):
        from repro.analysis.experiments import run_e06_rounding

        rows = run_e06_rounding(sizes=(128,), seed=3)
        assert rows[0]["yield_per_candidate"] >= rows[0]["paper_guarantee"]
