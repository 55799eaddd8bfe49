"""Tests for the ``repro.verify`` subsystem.

``TestEveryRegistryPair`` is the conformance anchor: every registered
(task, backend) pair runs under ``solve(..., verify=True)`` and must
produce a passing certificate whose round/memory/communication budget
audits are recorded in the RunReport.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

from repro.api import RunReport, read_jsonl, registry, solve
from repro.graph.generators import (
    gnp_random_graph,
    path_graph,
    star_graph,
)
from repro.graph import properties
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph
from repro.verify import (
    BudgetPolicy,
    Certificate,
    CheckResult,
    agreement_band,
    certify_report,
    differential_sweep,
    loglog2,
)
from repro.verify import checkers, oracles
from repro.verify.__main__ import main as verify_cli
from repro.verify.differential import FAMILIES, attach_weights, quality_of


@pytest.fixture(scope="module")
def small_gnp() -> Graph:
    return gnp_random_graph(40, 0.15, seed=3)


@pytest.fixture(scope="module")
def tiny_gnp() -> Graph:
    return gnp_random_graph(10, 0.3, seed=5)


# ---------------------------------------------------------------------------
# the full (task, backend) matrix — the conformance anchor
# ---------------------------------------------------------------------------


class TestEveryRegistryPair:
    BUDGET_CHECKS = {"rounds_budget", "memory_budget", "communication_budget"}

    @pytest.mark.parametrize(
        "task,backend", registry.pairs(), ids=lambda value: str(value)
    )
    def test_differential_oracle_certificate(self, task, backend, small_gnp):
        report = solve(task, small_gnp, backend=backend, seed=7, verify=True)
        assert report.verification, "certificate missing from RunReport"
        assert report.verified, (
            f"certificate failed: "
            f"{[c for c in report.verification['checks'] if not c['passed']]}"
        )
        recorded = {check["name"] for check in report.verification["checks"]}
        assert self.BUDGET_CHECKS <= recorded
        # The certificate must survive serialization round trips.
        loaded = RunReport.from_json(report.to_json())
        assert loaded.verification == report.verification
        assert loaded.verified

    @pytest.mark.parametrize(
        "task,backend", registry.pairs(), ids=lambda value: str(value)
    )
    def test_tiny_instance_engages_exact_oracles(self, task, backend, tiny_gnp):
        # n=10 is below every oracle cap: ratio checks run for real.
        report = solve(task, tiny_gnp, backend=backend, seed=11, verify=True)
        assert report.verified
        details = {
            check["name"]: check for check in report.verification["checks"]
        }
        if task in ("matching", "one_plus_eps_matching"):
            ratio_name = (
                "matching_ratio" if task == "matching" else "one_plus_eps_ratio"
            )
            assert not details[ratio_name]["detail"].startswith("skipped")
        if task == "vertex_cover":
            assert not details["cover_ratio"]["detail"].startswith("skipped")
        if task == "weighted_matching":
            assert not details["weighted_ratio"]["detail"].startswith("skipped")


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


class TestCheckers:
    def test_mis_checks(self):
        graph = path_graph(4)
        assert all(c.passed for c in checkers.check_mis(graph, {0, 2}))
        assert not all(c.passed for c in checkers.check_mis(graph, {0, 1}))
        # Independent but not maximal.
        results = {c.name: c.passed for c in checkers.check_mis(graph, {0})}
        assert results["mis_independent"] and not results["mis_maximal"]

    @pytest.mark.parametrize(
        "chosen, independent, maximal",
        [({0, 2}, True, True), ({0}, True, False), ({0, 1}, False, False)],
    )
    def test_mis_certificate_dict(self, monkeypatch, chosen, independent, maximal):
        """One adjacency pass certifies a valid MIS; the dict is as before."""
        graph = path_graph(4)
        expected = {
            "ok": independent and maximal,
            "checks": [
                {"name": "mis_independent", "passed": independent},
                {"name": "mis_maximal", "passed": maximal},
            ],
        }
        if not independent:
            expected["checks"][0]["detail"] = "two chosen vertices are adjacent"
        if not maximal:
            expected["checks"][1]["detail"] = "some vertex could still be added"
        if maximal:
            # The maximality pass already refutes adjacency.
            monkeypatch.setattr(checkers, "is_independent_set", None)
        certificate = Certificate(checks=checkers.check_mis(graph, chosen))
        assert certificate.to_dict() == expected

    def test_matching_checks(self):
        graph = path_graph(5)
        assert checkers.check_matching(graph, [(0, 1), (2, 3)])[0].passed
        assert not checkers.check_matching(graph, [(0, 1), (1, 2)])[0].passed
        assert not checkers.check_matching(graph, [(0, 2)])[0].passed

    def test_cover_checks(self):
        graph = path_graph(4)
        assert checkers.check_vertex_cover(graph, {1, 2})[0].passed
        assert not checkers.check_vertex_cover(graph, {0})[0].passed

    def test_fractional_checks(self):
        graph = path_graph(3)
        good = {(0, 1): 0.5, (1, 2): 0.5}
        assert checkers.check_fractional_matching(graph, good)[0].passed
        bad = {(0, 1): 0.8, (1, 2): 0.8}
        assert not checkers.check_fractional_matching(graph, bad)[0].passed

    def test_matching_ratio_flags_degenerate_output(self):
        graph = path_graph(9)  # nu = 4
        empty = checkers.check_matching_ratio(graph, [], 2.5)
        assert not empty[0].passed
        maximal = checkers.check_matching_ratio(graph, [(0, 1), (4, 5)], 2.5)
        assert maximal[0].passed

    def test_ratio_skips_above_cap(self):
        big = gnp_random_graph(500, 0.01, seed=1)
        result = checkers.check_matching_ratio(big, [], 2.5)
        assert result[0].passed and "skipped" in result[0].detail

    def test_fractional_bands_heavy_removal_discount(self):
        graph = star_graph(12)  # nu = 1
        empty: dict = {}
        strict = checkers.check_fractional_bands(graph, empty, 2.5)
        assert not strict[1].passed  # weight 0 vs nu=1
        discounted = checkers.check_fractional_bands(
            graph, empty, 2.5, slack_vertices=1
        )
        assert discounted[1].passed  # the removed center accounts for nu

    def test_weighted_ratio(self):
        weighted = WeightedGraph(4, [(0, 1, 10.0), (2, 3, 1.0), (1, 2, 0.5)])
        good = checkers.check_weighted_matching_ratio(
            weighted, [(0, 1), (2, 3)], 2.0
        )
        assert good[0].passed
        bad = checkers.check_weighted_matching_ratio(weighted, [(1, 2)], 2.0)
        assert not bad[0].passed

    def test_certify_solution_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            checkers.certify_solution("nope", path_graph(3), [])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class TestOracles:
    def test_matching_oracle(self):
        assert oracles.maximum_matching_size(path_graph(5)) == 2
        assert oracles.maximum_matching_size(path_graph(5), cap=3) is None

    def test_cover_oracle(self):
        assert oracles.minimum_vertex_cover_size(star_graph(6)) == 1
        assert oracles.minimum_vertex_cover_size(gnp_random_graph(50, 0.1)) is None

    def test_weighted_oracle(self):
        weighted = WeightedGraph(4, [(0, 1, 5.0), (1, 2, 9.0), (2, 3, 5.0)])
        assert oracles.maximum_weight_matching_weight(weighted) == 10.0
        big = WeightedGraph(40, [(i, i + 1, 1.0) for i in range(30)])
        assert oracles.maximum_weight_matching_weight(big) is None


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


def _report(**overrides) -> RunReport:
    payload = dict(
        task="mis",
        backend="mpc",
        n=256,
        num_edges=512,
        solution_kind="vertex_set",
        solution=[],
        rounds=9,
        max_machine_words=0,
        total_comm_words=0,
    )
    payload.update(overrides)
    return RunReport(**payload)


class TestBudgets:
    def test_loglog2_clamps(self):
        assert loglog2(0) == loglog2(4) == 1.0
        assert loglog2(256) == 3.0
        assert loglog2(65536) == 4.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BudgetPolicy(alpha=0.0)
        with pytest.raises(ValueError):
            BudgetPolicy(alpha=1.5)
        with pytest.raises(ValueError):
            BudgetPolicy(loglog_factor=-1.0)

    def test_rounds_budget_kinds(self):
        policy = BudgetPolicy(loglog_factor=8.0, log_factor=4.0, rounds_offset=8.0)
        assert policy.rounds_budget(256, "loglog", 1.0) == pytest.approx(32.0)
        assert policy.rounds_budget(256, "log", 1.0) == pytest.approx(40.0)
        assert policy.rounds_budget(256, "none") is None
        with pytest.raises(ValueError):
            policy.rounds_budget(256, "quadratic")

    def test_memory_budget_alpha(self):
        policy = BudgetPolicy(alpha=1.0, memory_factor=8.0)
        assert policy.memory_budget(100) == 800
        sublinear = BudgetPolicy(alpha=0.5, memory_factor=8.0)
        assert sublinear.memory_budget(10_000) == 800
        assert BudgetPolicy().memory_budget(1) == 64  # min_words floor

    def test_audit_rounds_pass_and_fail(self):
        from repro.verify import audit_budgets

        ok = audit_budgets(_report(rounds=9), rounds_bound="loglog")
        by_name = {check.name: check for check in ok}
        assert by_name["rounds_budget"].passed
        assert by_name["rounds_budget"].bound == pytest.approx(32.0)

        blown = audit_budgets(_report(rounds=900), rounds_bound="loglog")
        assert not {c.name: c for c in blown}["rounds_budget"].passed

        unclaimed = audit_budgets(_report(rounds=900), rounds_bound="none")
        unclaimed_check = {c.name: c for c in unclaimed}["rounds_budget"]
        assert unclaimed_check.passed
        assert "no round bound claimed" in unclaimed_check.detail

    def test_audit_memory_pass_and_fail(self):
        from repro.verify import audit_budgets

        ok = audit_budgets(_report(max_machine_words=1000), rounds_bound="loglog")
        assert {c.name: c for c in ok}["memory_budget"].passed
        blown = audit_budgets(
            _report(max_machine_words=5000), rounds_bound="loglog"
        )
        assert not {c.name: c for c in blown}["memory_budget"].passed

    @pytest.mark.parametrize(
        "task",
        [
            "mis",
            "fractional_matching",
            "vertex_cover",
            "matching",
            "one_plus_eps_matching",
        ],
    )
    def test_ungoverned_mpc_solve_carries_metered_words(self, task, small_gnp):
        # No governor: the report still carries the cluster's meters, so
        # the memory and communication audits run instead of skipping.
        report = solve(task, small_gnp, backend="mpc", seed=7, verify=True)
        assert report.max_machine_words > 0
        assert report.total_comm_words > 0
        checks = {c["name"]: c for c in report.verification["checks"]}
        memory = checks["memory_budget"]
        assert memory["passed"]
        assert f"peak={report.max_machine_words} words" in memory["detail"]
        communication = checks["communication_budget"]
        assert communication["passed"]
        assert f"total={report.total_comm_words} words" in communication["detail"]

    def test_audit_communication(self):
        from repro.verify import audit_budgets

        ok = audit_budgets(
            _report(rounds=4, total_comm_words=1000), rounds_bound="loglog"
        )
        assert {c.name: c for c in ok}["communication_budget"].passed
        blown = audit_budgets(
            _report(rounds=1, total_comm_words=10**9), rounds_bound="loglog"
        )
        assert not {c.name: c for c in blown}["communication_budget"].passed


# ---------------------------------------------------------------------------
# certificate model
# ---------------------------------------------------------------------------


class TestCertificate:
    def test_round_trip_and_failures(self):
        cert = Certificate(
            checks=[
                CheckResult(name="a", passed=True),
                CheckResult(name="b", passed=False, detail="boom", observed=2.0),
            ]
        )
        assert not cert.ok
        assert [c.name for c in cert.failures()] == ["b"]
        clone = Certificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        assert clone.to_dict() == cert.to_dict()

    def test_certify_report_resolves_entry(self, small_gnp):
        report = solve("mis", small_gnp, backend="greedy", seed=1)
        certificate = certify_report(small_gnp, report)
        assert certificate.ok


# ---------------------------------------------------------------------------
# one validation pass per solve
# ---------------------------------------------------------------------------

VALIDATORS = (
    "is_independent_set",
    "is_maximal_independent_set",
    "is_matching",
    "is_maximal_matching",
    "is_vertex_cover",
    "is_valid_fractional_matching",
)


@pytest.fixture
def validator_calls(monkeypatch):
    """Call counts of the ``repro.graph.properties`` validators, patched on
    every ``repro`` module that holds one by name."""
    calls: Counter = Counter()
    for name in VALIDATORS:
        original = getattr(properties, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
    return calls


class TestSingleValidationPass:
    """``metrics["valid"]`` and the certificate share one structural pass."""

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize(
        "task", ["mis", "fractional_matching", "vertex_cover", "matching"]
    )
    def test_each_validator_runs_at_most_once(self, task, verify, validator_calls):
        graph = gnp_random_graph(200, 0.04, seed=9)
        report = solve(task, graph, backend="mpc", seed=3, verify=verify)
        assert report.valid
        assert report.verified or not verify
        assert validator_calls, "metrics['valid'] ran no validator"
        assert max(validator_calls.values()) == 1, dict(validator_calls)


# ---------------------------------------------------------------------------
# differential harness
# ---------------------------------------------------------------------------


class TestDifferential:
    def test_small_sweep_passes(self):
        outcome = differential_sweep(
            ["mis", "matching"],
            "all",
            families=("gnp_sparse",),
            sizes=(24,),
            seeds=(0,),
        )
        assert outcome.ok, [f.to_dict() for f in outcome.failures]
        assert outcome.runs == len(outcome.reports)
        rows = outcome.summary_rows()
        assert all(row["verified"] == row["runs"] for row in rows)

    def test_mis_sweep_has_one_generator(self):
        """MIS certifies on mpc and congested_clique with no mode to pick."""
        outcome = differential_sweep(
            ["mis"],
            ["mpc", "congested_clique", "greedy"],
            families=("gnp_sparse",),
            sizes=(24,),
            seeds=(0,),
        )
        assert outcome.ok, [f.to_dict() for f in outcome.failures]
        assert all("rng" not in r.config for r in outcome.reports)
        with pytest.raises(TypeError):
            differential_sweep(["mis"], ["mpc"], rng="counter")

    def test_tight_policy_fails_budgets(self):
        tight = BudgetPolicy(loglog_factor=1e-6, rounds_offset=0.0, log_factor=1e-6)
        outcome = differential_sweep(
            ["mis"],
            ["mpc"],
            families=("gnp_sparse",),
            sizes=(24,),
            seeds=(0,),
            policy=tight,
        )
        assert not outcome.ok
        assert all(f.kind == "certificate" for f in outcome.failures)
        assert any("rounds_budget" in f.detail for f in outcome.failures)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown families"):
            differential_sweep(families=("moebius",), sizes=(8,), seeds=(0,))

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown tasks"):
            differential_sweep(["typo_task"], sizes=(8,), seeds=(0,))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backends"):
            differential_sweep(["mis"], ["mpc", "bogus"], sizes=(8,), seeds=(0,))

    def test_cli_exit_two_on_unknown_task(self, capsys):
        assert verify_cli(["--tasks", "typo_task"]) == 2
        assert "unknown tasks" in capsys.readouterr().err

    def test_band_and_quality_helpers(self):
        assert agreement_band("mis") is None
        assert agreement_band("matching", 0.1) == pytest.approx(7.0)
        assert agreement_band("one_plus_eps_matching", 0.1) == pytest.approx(1.5)
        report = solve("fractional_matching", path_graph(6), backend="central")
        assert quality_of(report) == pytest.approx(report.metrics["weight"])

    def test_families_are_deterministic(self):
        for name, build in FAMILIES.items():
            assert build(24, 3) == build(24, 3), name

    def test_attach_weights_deterministic(self):
        graph = gnp_random_graph(20, 0.2, seed=1)
        a = attach_weights(graph, 4)
        b = attach_weights(graph, 4)
        assert sorted(a.edges()) == sorted(b.edges())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestVerifyCLI:
    def test_exit_zero_and_jsonl(self, tmp_path, capsys):
        out = tmp_path / "verified.jsonl"
        code = verify_cli(
            [
                "--tasks",
                "mis",
                "--backends",
                "greedy,mpc",
                "--families",
                "gnp_sparse",
                "--sizes",
                "24",
                "--seeds",
                "0",
                "--jsonl",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "0 failures" in captured.out
        loaded = read_jsonl(out)
        assert loaded and all(report.verified for report in loaded)

    def test_exit_nonzero_on_failures(self, capsys):
        code = verify_cli(
            [
                "--tasks",
                "mis",
                "--backends",
                "mpc",
                "--families",
                "gnp_sparse",
                "--sizes",
                "24",
                "--seeds",
                "0",
                "--loglog-factor",
                "1e-6",
                "--rounds-offset",
                "0.0",
            ]
        )
        assert code == 1
        assert "rounds_budget" in capsys.readouterr().err

    def test_bad_family_exit_two(self, capsys):
        code = verify_cli(["--families", "moebius"])
        assert code == 2
        assert "unknown families" in capsys.readouterr().err