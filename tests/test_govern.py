"""Unit tests for repro.govern: policy, estimator, governor, and the
façade/solver integration of the load-governance ladder."""

from __future__ import annotations

import json

import pytest

from repro.api import solve, sweep
from repro.govern import (
    GovernanceDegraded,
    GovernancePolicy,
    Governor,
    PeakHoldEstimator,
    governed_broadcast,
)
from repro.govern.events import CHUNK, DEGRADE, SPARSIFY, WATERMARK
from repro.govern.governor import _MAX_EVENTS
from repro.graph.generators import barabasi_albert, gnp_random_graph
from repro.graph.statistics import load_summary
from repro.mpc.cluster import Message, MPCCluster
from repro.mpc.errors import MemoryExceededError

BUDGET = 0.5  # memory_factor that breaches on the adversarial cells below
MPC_TASKS = (
    "mis",
    "fractional_matching",
    "vertex_cover",
    "matching",
    "one_plus_eps_matching",
)


def dense_graph(n=96, seed=0):
    return gnp_random_graph(n, 0.5, seed=seed)


def powerlaw_graph(n=96, seed=0):
    return barabasi_albert(n, 8, seed=seed)


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


class TestGovernancePolicy:
    def test_defaults(self):
        policy = GovernancePolicy()
        assert policy.watermark == 0.9
        assert policy.allow_sparsify and policy.allow_chunk
        assert policy.allow_degrade

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"watermark": 0.0},
            {"watermark": 1.5},
            {"headroom": 0.5},
            {"max_chunks": 0},
            {"max_sparsify": 0.5},
            {"decay": 0.0},
            {"prime_cap": 0.9},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GovernancePolicy(**kwargs)

    def test_from_any(self):
        assert GovernancePolicy.from_any(None) is None
        assert GovernancePolicy.from_any(False) is None
        assert GovernancePolicy.from_any(True) == GovernancePolicy()
        custom = GovernancePolicy.from_any({"watermark": 0.8})
        assert custom.watermark == 0.8
        assert GovernancePolicy.from_any(custom) is custom
        with pytest.raises(TypeError):
            GovernancePolicy.from_any("yes")

    def test_to_dict_json_ready(self):
        payload = GovernancePolicy().to_dict()
        assert json.loads(json.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------


class TestPeakHoldEstimator:
    def test_prime_uses_sqrt_of_skew_capped(self):
        est = PeakHoldEstimator(GovernancePolicy(prime_cap=2.0))
        est.prime(load_summary(powerlaw_graph()))
        assert 1.0 <= est.ratio <= 2.0

        uncapped = PeakHoldEstimator(GovernancePolicy(prime_cap=100.0))
        uncapped.prime(load_summary(powerlaw_graph()))
        summary = load_summary(powerlaw_graph())
        assert uncapped.ratio == pytest.approx(summary.skew_ratio**0.5)

    def test_observe_peak_hold_and_decay(self):
        est = PeakHoldEstimator(GovernancePolicy(decay=0.5))
        est.observe([10, 10, 40])  # ratio 2.0
        assert est.ratio == pytest.approx(2.0)
        est.observe([10, 10, 10])  # calm phase: decay toward 1.0
        assert est.ratio == pytest.approx(1.0)
        est.observe([5, 5, 30])  # new worst case adopted immediately
        assert est.ratio == pytest.approx(30 / (40 / 3))

    def test_observe_ignores_zeros_and_counts(self):
        est = PeakHoldEstimator()
        assert est.observe([0, 0]) == 1.0
        assert est.observations == 1

    def test_predict_part_words(self):
        est = PeakHoldEstimator(GovernancePolicy(headroom=1.0))
        # total=1000, 10 parts, 5 receivers: 1000/100 * ceil(10/5) = 20
        assert est.predict_part_words(1000, 10, 5) == 20
        with pytest.raises(ValueError):
            est.predict_part_words(100, 0)

    def test_to_dict(self):
        payload = PeakHoldEstimator().to_dict()
        assert set(payload) == {"ratio", "observations"}


# ---------------------------------------------------------------------------
# governor
# ---------------------------------------------------------------------------


class _FakeCluster:
    """Records broadcast calls; never enforces a budget."""

    words_per_machine = 100
    num_machines = 4

    def __init__(self):
        self.broadcasts = []

    def broadcast(self, words, context=""):
        self.broadcasts.append((words, context))


class TestGovernor:
    def test_unbound_raises(self):
        with pytest.raises(RuntimeError, match="bind"):
            Governor().soft_words

    def test_bind_words(self):
        gov = Governor(GovernancePolicy(watermark=0.9))
        gov.bind_words(100, receivers=3)
        assert gov.bound
        assert gov.soft_words == 90

    def test_plan_partitions_pass_through(self):
        gov = Governor()
        gov.bind_words(1000)
        assert gov.plan_partitions(4, 100, "ctx") == 4
        assert gov.events == []

    def test_plan_partitions_doubles_until_fit(self):
        gov = Governor(GovernancePolicy(headroom=1.0))
        # Plenty of receivers so no round-robin folding obscures the math:
        # predicted = total/parts².  4: 625 > 90; 8: 156 > 90; 16: 39 ok.
        gov.bind_words(100, receivers=1000)  # soft = 90
        parts = gov.plan_partitions(4, 10_000, "ctx")
        assert parts == 16
        assert [e.kind for e in gov.events] == [SPARSIFY]
        assert gov.triggered

    def test_plan_partitions_respects_ceiling(self):
        gov = Governor(GovernancePolicy(max_sparsify=2.0, headroom=1.0))
        gov.bind_words(10)
        assert gov.plan_partitions(4, 10_000, "ctx") == 8  # capped at 2x

    def test_plan_partitions_disabled(self):
        gov = Governor(GovernancePolicy(allow_sparsify=False))
        gov.bind_words(10)
        assert gov.plan_partitions(4, 10_000, "ctx") == 4
        assert gov.events == []

    def test_grow_partitions_doubles_and_caps(self):
        gov = Governor(GovernancePolicy(max_sparsify=4.0))
        gov.bind_words(100)
        assert gov.grow_partitions(4, 4, 95, "ctx") == 8
        assert gov.grow_partitions(4, 8, 95, "ctx") == 16
        assert gov.grow_partitions(4, 16, 95, "ctx") == 16  # at ceiling
        assert sum(1 for e in gov.events if e.kind == SPARSIFY) == 2

    def test_plan_chunks(self):
        gov = Governor()
        gov.bind_words(100)  # soft 90
        assert gov.plan_chunks(90, "ctx") is None
        sizes = gov.plan_chunks(200, "ctx")
        assert sum(sizes) == 200
        assert all(size <= 90 for size in sizes)
        assert max(sizes) - min(sizes) <= 1

    def test_plan_chunks_degrades_when_disabled(self):
        gov = Governor(GovernancePolicy(allow_chunk=False))
        gov.bind_words(100)
        with pytest.raises(GovernanceDegraded):
            gov.plan_chunks(200, "ctx")
        assert gov.degraded_reason

    def test_plan_chunks_degrades_over_max(self):
        gov = Governor(GovernancePolicy(max_chunks=2))
        gov.bind_words(100)
        with pytest.raises(GovernanceDegraded):
            gov.plan_chunks(1000, "ctx")

    def test_degrade_respects_allow_degrade(self):
        gov = Governor(GovernancePolicy(allow_degrade=False))
        gov.bind_words(100)
        gov.degrade("reason", "ctx")  # records, does not raise
        assert gov.degraded_reason == "reason"
        assert [e.kind for e in gov.events] == [DEGRADE]

    def test_record_watermark_dedups_context(self):
        gov = Governor()
        gov.bind_words(100)
        gov.record_watermark("phase 1", 95, 100)
        gov.record_watermark("phase 1", 99, 100)
        gov.record_watermark("phase 2", 95, 100)
        assert [e.kind for e in gov.events] == [WATERMARK, WATERMARK]
        assert not gov.triggered  # watermarks alone are not interventions

    def test_event_cap(self):
        gov = Governor()
        gov.bind_words(100)
        for index in range(_MAX_EVENTS + 10):
            gov.record_watermark(f"ctx {index}", 95, 100)
        assert len(gov.events) == _MAX_EVENTS
        assert gov.dropped_events == 10
        assert gov.summary()["dropped_events"] == 10

    def test_broadcast_chunked(self):
        cluster = _FakeCluster()
        gov = Governor()
        gov.bind_words(100)  # soft 90
        gov.broadcast(cluster, 50, "small")
        assert cluster.broadcasts == [(50, "small")]
        cluster.broadcasts.clear()
        gov.broadcast(cluster, 200, "big")
        assert sum(words for words, _ in cluster.broadcasts) == 200
        assert all(words <= 90 for words, _ in cluster.broadcasts)
        assert "[chunk 1/" in cluster.broadcasts[0][1]

    def test_governed_broadcast_without_governor(self):
        cluster = _FakeCluster()
        governed_broadcast(cluster, 500, "ctx", None)
        assert cluster.broadcasts == [(500, "ctx")]

    def test_summary_shape(self):
        gov = Governor()
        gov.bind_words(100)
        gov.plan_chunks(200, "ctx")
        payload = gov.summary()
        assert payload["enabled"] and payload["triggered"]
        assert payload["counts"] == {CHUNK: 1}
        assert json.loads(json.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# cluster plumbing
# ---------------------------------------------------------------------------


class TestClusterGovernance:
    def test_peak_words_tracks_inboxes_and_broadcasts(self):
        cluster = MPCCluster(3, words_per_machine=100)
        cluster.exchange(
            {0: [Message(1, 40, None)], 2: [Message(1, 30, None)]}
        )
        assert cluster.peak_words() == 70
        cluster.broadcast(90)
        assert cluster.peak_words() == 90

    def test_attach_governor_soft_watermark(self):
        cluster = MPCCluster(2, words_per_machine=100)
        gov = Governor()
        gov.bind(cluster)
        cluster.machine(0).store("k", None, 95, context="hot phase")
        kinds = [e.kind for e in gov.events]
        assert WATERMARK in kinds

    def test_exchange_feeds_estimator(self):
        cluster = MPCCluster(3, words_per_machine=1000)
        gov = Governor()
        gov.bind(cluster)
        cluster.exchange(
            {0: [Message(1, 300, None)], 2: [Message(1, 100, None)]}
        )
        assert gov.estimator.observations == 1


# ---------------------------------------------------------------------------
# façade integration
# ---------------------------------------------------------------------------

# Confirmed breach cells: these (task, graph) pairs abort ungoverned at
# BUDGET and must complete governed.
BREACH_CELLS = [
    ("mis", powerlaw_graph),
    ("fractional_matching", powerlaw_graph),
    ("fractional_matching", dense_graph),
    ("matching", dense_graph),
]


class TestFacadeGovernance:
    @pytest.mark.parametrize("task,make_graph", BREACH_CELLS)
    def test_breach_cells_rescued(self, task, make_graph):
        graph = make_graph()
        with pytest.raises(MemoryExceededError):
            solve(task, graph, backend="mpc", seed=0, budget=BUDGET)
        report = solve(
            task, graph, backend="mpc", seed=0, budget=BUDGET, governance=True
        )
        assert report.valid
        record = report.extras["governance"]
        assert record["triggered"] or record["degraded"]
        assert report.backend == "mpc"

    @pytest.mark.parametrize("task", MPC_TASKS)
    def test_benign_run_byte_identical(self, task):
        # A governor that never fires leaves the whole report unchanged,
        # accounting included: both runs meter the same cluster.
        graph = gnp_random_graph(128, 0.05, seed=3)
        bare = solve(task, graph, backend="mpc", seed=7)
        governed = solve(task, graph, backend="mpc", seed=7, governance=True)
        record = governed.extras["governance"]
        assert not record["triggered"]
        assert record["events"] == []

        def payload(report):
            data = report.to_dict()
            del data["wall_time_s"], data["peak_rss_bytes"]
            data["extras"].pop("governance", None)
            return data

        assert payload(governed) == payload(bare)

    def test_forced_degrade_records_fallback(self):
        policy = {"allow_sparsify": False, "allow_chunk": False}
        report = solve(
            "mis", powerlaw_graph(), backend="mpc", seed=0, budget=BUDGET,
            governance=policy,
        )
        assert report.valid
        record = report.extras["governance"]
        assert record["degraded"]
        assert record["degraded_to"] == "greedy"
        assert record["reason"]
        # The requested backend stays on the report; the record tells the
        # degradation story.
        assert report.backend == "mpc"

    @pytest.mark.parametrize("representation", ["csr", "mmap"])
    @pytest.mark.parametrize(
        "task,fallback",
        [
            ("mis", "greedy"),
            ("fractional_matching", "central"),
            ("vertex_cover", "greedy"),
            ("matching", "greedy"),
            ("one_plus_eps_matching", "greedy"),
        ],
    )
    def test_forced_degrade_on_out_of_core_input(
        self, task, fallback, representation, tmp_path
    ):
        from repro.graph.csr import CSRGraph
        from repro.ooc.format import load_csr, save_csr

        graph = CSRGraph.from_graph(gnp_random_graph(300, 0.03, seed=1))
        if representation == "mmap":
            save_csr(graph, tmp_path)
            graph = load_csr(tmp_path)
        report = solve(
            task, graph, backend="mpc", seed=0, budget=0.05,
            governance={"allow_sparsify": False, "allow_chunk": False},
        )
        assert report.valid
        assert report.extras["governance"]["degraded_to"] == fallback

    def test_every_rung_disabled_preserves_failure(self):
        policy = {
            "allow_sparsify": False,
            "allow_chunk": False,
            "allow_degrade": False,
        }
        with pytest.raises(MemoryExceededError):
            solve(
                "mis", powerlaw_graph(), backend="mpc", seed=0,
                budget=BUDGET, governance=policy,
            )

    def test_non_supporting_backend_ignores_governance(self):
        report = solve(
            "mis", gnp_random_graph(64, 0.1, seed=0), backend="greedy",
            seed=0, governance=True,
        )
        assert report.valid
        assert "governance" not in report.extras

    def test_executor_rejected(self):
        with pytest.raises(ValueError, match="governance requires executor"):
            solve(
                "mis", gnp_random_graph(32, 0.1, seed=0), backend="mpc",
                seed=0, governance=True, executor="local",
            )

    def test_governed_weighted_matching(self):
        from repro.verify.differential import attach_weights

        weighted = attach_weights(dense_graph(64), seed=1)
        report = solve(
            "weighted_matching", weighted, backend="mpc", seed=0,
            budget=BUDGET, governance=True,
        )
        assert report.valid

    def test_sweep_threads_governance(self):
        specs = sweep(
            ["mis"],
            [gnp_random_graph(48, 0.1, seed=0)],
            backends=["mpc"],
            seeds=[0],
            governance=True,
        )
        assert all(spec.governance is True for spec in specs)


# ---------------------------------------------------------------------------
# CLI parsing
# ---------------------------------------------------------------------------


class TestGovernanceCLI:
    def test_parse_governance(self):
        from repro.api.__main__ import _parse_governance

        assert _parse_governance(None) is None
        assert _parse_governance("off") is None
        assert _parse_governance("{}") == GovernancePolicy()
        parsed = _parse_governance('{"watermark": 0.8}')
        assert parsed.watermark == 0.8
        with pytest.raises(ValueError):
            _parse_governance('"not a dict"')
        with pytest.raises(ValueError):
            _parse_governance('{"bogus_knob": 1}')

    def test_solve_cli_governed(self, capsys):
        from repro.api.__main__ import main

        status = main(
            [
                "solve", "--task", "mis", "--graph", "ba:n=96,attachment=8",
                "--seed", "0", "--budget", str(BUDGET),
                "--governance", "{}", "--json",
            ]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["extras"]["governance"]["enabled"]
