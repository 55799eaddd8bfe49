"""repro.dist.faults: chaos injection, supervision, and recovery parity.

Two layers of guarantees are pinned here:

* **Mechanism** — the fault plan fires deterministically, the supervised
  transport retries/respawns/degrades exactly per policy, the recovery
  log records what happened, and no failure mode can hang (every wait in
  this file is deadline-bounded).
* **Byte-identity under chaos** — the conformance matrix re-runs the
  PR 6 parity contract under a grid of fault plans: for every MPC task
  and every fault kind (crash, delay-past-deadline, corruption, kernel
  raise, and repeated crashes that exhaust the respawn budget and force
  mid-solve degradation), the recovered run's report equals the
  ``executor=None`` sequential run bit-for-bit, with the recovery events
  on the record in ``extras["faults"]``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.api import registry, solve
from repro.dist import (
    ChaosTransport,
    DistCorruptionError,
    DistExecutionError,
    DistExecutor,
    FaultPlan,
    FaultPolicy,
    FaultSpec,
    LocalTransport,
    MultiprocessTransport,
    RecoveryLog,
    SupervisedTransport,
    resolve_executor,
)
from repro.graph.generators import gnp_random_graph, random_weighted_graph

# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor", worker=0)
        with pytest.raises(ValueError, match="worker"):
            FaultSpec("crash", worker=-1)
        with pytest.raises(ValueError, match="times"):
            FaultSpec("crash", worker=0, times=0)
        with pytest.raises(ValueError, match="delay_s"):
            FaultSpec("delay", worker=0)

    def test_fire_counts_matching_dispatches_only(self):
        plan = FaultPlan(
            [FaultSpec("crash", worker=0, kernel="matching.*", step=1)]
        )
        assert plan.fire("debug.echo") == []  # non-matching: no count
        assert plan.fire("matching.machines") == []  # seen=0 < step
        fired = plan.fire("matching.direct_step")  # seen=1 == step
        assert [spec.kind for spec in fired] == ["crash"]
        assert plan.fire("matching.direct_step") == []  # window passed

    def test_times_window_and_reset(self):
        plan = FaultPlan([FaultSpec("corrupt", worker=1, step=0, times=2)])
        assert len(plan.fire("k")) == 1
        assert len(plan.fire("k")) == 1
        assert plan.fire("k") == []
        plan.reset()
        assert len(plan.fire("k")) == 1

    def test_dict_round_trip(self):
        plan = FaultPlan(
            [
                FaultSpec("delay", worker=1, kernel="mis.*", delay_s=0.5),
                FaultSpec("crash", worker=0, step=3, times=2),
            ]
        )
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt.specs == plan.specs
        with pytest.raises(ValueError, match="specs"):
            FaultPlan.from_dict({"nope": []})

    def test_random_plans_are_seed_reproducible(self):
        a = FaultPlan.random(42, workers=3)
        b = FaultPlan.random(42, workers=3)
        c = FaultPlan.random(43, workers=3)
        assert a.specs == b.specs
        assert a.specs != c.specs
        assert all(spec.worker < 3 for spec in a.specs)


class TestFaultPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = FaultPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)  # capped
        assert policy.backoff(9) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(step_timeout_s=0.0)


class TestRecoveryLog:
    def test_counts_and_summary(self):
        log = RecoveryLog()
        log.record("failure", phase="p", worker=1, outcome="died")
        log.record("respawn", worker=1)
        log.record("retry", phase="p")
        summary = log.summary()
        assert summary["failures"] == 1
        assert summary["respawns"] == 1
        assert summary["retries"] == 1
        assert summary["degraded"] is False
        assert len(summary["events"]) == 3
        log.record("degrade", phase="p")
        assert log.degraded and log.summary()["degraded"] is True
        log.clear()
        assert log.events == [] and not log.degraded


# ---------------------------------------------------------------------------
# ChaosTransport: injected faults travel the real failure paths
# ---------------------------------------------------------------------------


def _outcomes_kinds(outcomes):
    return {worker: kind for worker, (kind, _) in outcomes.items()}


class TestChaosTransport:
    def test_requires_injection_capable_transport(self):
        with pytest.raises(TypeError, match="MultiprocessTransport"):
            ChaosTransport(LocalTransport(2), FaultPlan())

    def test_crash_fault_surfaces_as_worker_death(self):
        plan = FaultPlan([FaultSpec("crash", worker=1, step=0)])
        chaos = ChaosTransport(MultiprocessTransport(2), plan)
        outcomes = chaos.step_partial("debug.echo", [{"value": 0}] * 2)
        kinds = _outcomes_kinds(outcomes)
        assert kinds[0] == "ok" and kinds[1] == "died"
        chaos.close()

    def test_corrupt_fault_fails_the_crc_check(self):
        plan = FaultPlan([FaultSpec("corrupt", worker=0, step=0)])
        chaos = ChaosTransport(MultiprocessTransport(2), plan)
        try:
            outcomes = chaos.step_partial("debug.echo", [{"value": 0}] * 2)
            kinds = _outcomes_kinds(outcomes)
            assert kinds[0] == "corrupt" and kinds[1] == "ok"
            # A corrupt *reply* leaves the worker alive and the stream
            # frame-aligned: the next step works.
            outcomes = chaos.step_partial("debug.echo", [{"value": 1}] * 2)
            assert _outcomes_kinds(outcomes) == {0: "ok", 1: "ok"}
        finally:
            chaos.close()

    def test_delay_fault_trips_the_deadline(self):
        plan = FaultPlan(
            [FaultSpec("delay", worker=0, step=0, delay_s=5.0)]
        )
        chaos = ChaosTransport(MultiprocessTransport(2), plan)
        started = time.monotonic()
        try:
            outcomes = chaos.step_partial(
                "debug.echo", [{"value": 0}] * 2, deadline=0.5
            )
            kinds = _outcomes_kinds(outcomes)
            assert kinds[0] == "timeout" and kinds[1] == "ok"
        finally:
            chaos.close()
        assert time.monotonic() - started < 5.0

    def test_kernel_raise_fault_skips_dispatch(self):
        plan = FaultPlan([FaultSpec("kernel_raise", worker=1, step=0)])
        chaos = ChaosTransport(MultiprocessTransport(2), plan)
        try:
            outcomes = chaos.step_partial("debug.echo", [{"value": 0}] * 2)
            kinds = _outcomes_kinds(outcomes)
            assert kinds == {0: "ok", 1: "kernel_error"}
            assert "injected" in outcomes[1][1]
            # The target was never dispatched, so it is alive and serving.
            outcomes = chaos.step_partial("debug.echo", [{"value": 1}] * 2)
            assert _outcomes_kinds(outcomes) == {0: "ok", 1: "ok"}
        finally:
            chaos.close()

    def test_failfast_step_reports_structured_death(self):
        plan = FaultPlan([FaultSpec("crash", worker=0, step=0)])
        chaos = ChaosTransport(MultiprocessTransport(2), plan)
        with pytest.raises(DistExecutionError, match="died") as info:
            chaos.step("debug.echo", [{"value": 0}] * 2)
        assert info.value.worker_id == 0
        assert info.value.phase == "debug.echo"
        assert info.value.recovery == "transport-closed"


# ---------------------------------------------------------------------------
# SupervisedTransport: retry / respawn+replay / degradation
# ---------------------------------------------------------------------------

_COUNTER = {"session": "s", "add": 2}


def _supervised(policy=None, plan=None, workers=2):
    inner = MultiprocessTransport(workers)
    if plan is not None:
        inner = ChaosTransport(inner, plan)
    return SupervisedTransport(inner, policy)


class TestSupervisedTransport:
    def test_requires_recovery_capable_transport(self):
        with pytest.raises(TypeError, match="MultiprocessTransport"):
            SupervisedTransport(LocalTransport(2))

    def test_healthy_path_is_passthrough(self):
        sup = _supervised(FaultPolicy(step_timeout_s=30.0))
        try:
            sup.install("s", {"x": np.arange(3)})
            assert sup.step("debug.counter", [_COUNTER] * 2) == [2, 2]
            assert sup.step("debug.counter", [_COUNTER] * 2) == [4, 4]
            assert sup.recovery_log.events == []
            assert not sup.degraded
        finally:
            sup.close()

    def test_respawn_replays_stateful_journal(self):
        # Three counter steps build worker-resident state; killing a
        # worker and stepping again must reconstruct that state on the
        # respawned process from the journal — same totals as a worker
        # that never died.
        sup = _supervised(FaultPolicy(step_timeout_s=30.0))
        try:
            sup.install("s", {"x": np.arange(3)})
            for expected in (2, 4, 6):
                assert sup.step("debug.counter", [_COUNTER] * 2) == [
                    expected
                ] * 2
            sup._inner.kill_worker(1)
            assert sup.step("debug.counter", [_COUNTER] * 2) == [8, 8]
            respawns = [
                event
                for event in sup.recovery_log.events
                if event["kind"] == "respawn"
            ]
            assert len(respawns) == 1
            assert respawns[0]["worker"] == 1
            assert respawns[0]["replayed_steps"] == 3
            assert not sup.degraded
        finally:
            sup.close()

    def test_transient_kernel_raise_retries_in_place(self):
        plan = FaultPlan(
            [FaultSpec("kernel_raise", worker=0, kernel="debug.echo")]
        )
        sup = _supervised(FaultPolicy(step_timeout_s=30.0), plan)
        try:
            results = sup.step("debug.echo", [{"value": 9}] * 2)
            assert [r["worker_id"] for r in results] == [0, 1]
            log = sup.recovery_log
            assert log.count("failure") == 1
            assert log.count("retry") == 1
            assert log.count("respawn") == 0  # stateless: no respawn needed
        finally:
            sup.close()

    def test_timeout_respawns_and_recovers(self):
        sup = _supervised(FaultPolicy(step_timeout_s=1.0))
        started = time.monotonic()
        try:
            sup._inner.delay_next_receive(0, 5.0)
            results = sup.step("debug.echo", [{"value": 1}] * 2)
            assert [r["worker_id"] for r in results] == [0, 1]
            failures = [
                event
                for event in sup.recovery_log.events
                if event["kind"] == "failure"
            ]
            assert failures and failures[0]["outcome"] == "timeout"
            assert sup.recovery_log.count("respawn") == 1
        finally:
            sup.close()
        assert time.monotonic() - started < 15.0

    def test_budget_exhaustion_degrades_with_correct_results(self):
        # Worker 0 crashes on every dispatch; one respawn is allowed, so
        # supervision must degrade — and the degraded step must still
        # return exactly what healthy workers would have.
        plan = FaultPlan([FaultSpec("crash", worker=0, times=20)])
        sup = _supervised(
            FaultPolicy(max_respawns=1, step_timeout_s=30.0), plan
        )
        try:
            sup.install("s", {"x": np.arange(3)})
            assert sup.step("debug.counter", [_COUNTER] * 2) == [2, 2]
            assert sup.degraded
            assert sup.recovery_log.degraded
            # Degraded mode keeps serving the rest of the solve locally,
            # continuing from the replayed state.
            assert sup.step("debug.counter", [_COUNTER] * 2) == [4, 4]
        finally:
            sup.close()

    def test_degrade_disabled_raises_structured_error(self):
        plan = FaultPlan([FaultSpec("crash", worker=1, times=20)])
        sup = _supervised(
            FaultPolicy(
                max_retries=1, step_timeout_s=30.0, degrade=False
            ),
            plan,
        )
        with pytest.raises(DistExecutionError, match="gave up") as info:
            sup.step("debug.echo", [{"value": 0}] * 2)
        assert info.value.worker_id == 1
        assert info.value.phase == "debug.echo"
        assert info.value.attempts == 2  # 1 + max_retries
        assert info.value.recovery == "retries-exhausted"

    def test_corrupt_reply_on_stateful_kernel_respawns(self):
        # Corruption on a stateful step cannot be retried in place: the
        # worker *did* run the kernel (only the reply was damaged), so a
        # blind retry would double-apply the mutation.  Supervision must
        # rebuild from the journal instead.
        sup = _supervised(FaultPolicy(step_timeout_s=30.0))
        try:
            sup.install("s", {"x": np.arange(3)})
            assert sup.step("debug.counter", [_COUNTER] * 2) == [2, 2]
            sup._inner.corrupt_next_receive(1)
            assert sup.step("debug.counter", [_COUNTER] * 2) == [4, 4]
            assert sup.recovery_log.count("respawn") == 1
        finally:
            sup.close()


# ---------------------------------------------------------------------------
# chaos conformance matrix: parity under every fault kind
# ---------------------------------------------------------------------------

MPC_TASKS = [t for t in registry.tasks() if "mpc" in registry.backends(t)]
FAULT_KINDS_GRID = ["crash", "delay", "corrupt", "kernel_raise", "exhaust"]
_SEED = 5

_BASELINES = {}


def _graph_for(task):
    # Every task must actually *dispatch* distributed phases, or no
    # fault can fire: mis needs the dense regime (sparse graphs skip the
    # rank-prefix phases entirely), the rest dispatch at n=80, p=0.1.
    if task == "weighted_matching":
        return random_weighted_graph(80, 0.1, seed=7)
    if task == "mis":
        return gnp_random_graph(60, 0.5, seed=7)
    return gnp_random_graph(80, 0.1, seed=7)


def report_snapshot(report):
    """Everything that must match across executors/faults, as JSON data."""
    data = json.loads(report.to_json())
    data.pop("wall_time_s")
    data.pop("peak_rss_bytes")
    data.get("extras", {}).pop("executor", None)
    data.get("extras", {}).pop("faults", None)
    return data


def _baseline(task):
    if task not in _BASELINES:
        _BASELINES[task] = report_snapshot(
            solve(task, _graph_for(task), backend="mpc", seed=_SEED)
        )
    return _BASELINES[task]


def _grid_cell(kind):
    """(plan, policy) for one conformance cell.

    Every plan fires on the very first dispatched phase (``step=0``,
    ``kernel="*"``) so each task is hit regardless of which kernel it
    dispatches first; ``exhaust`` keeps crashing one worker until the
    single-respawn budget is gone, forcing mid-solve degradation.
    """
    policy = FaultPolicy(step_timeout_s=15.0)
    if kind == "crash":
        return FaultPlan([FaultSpec("crash", worker=1)]), policy
    if kind == "delay":
        return (
            FaultPlan([FaultSpec("delay", worker=1, delay_s=4.0)]),
            FaultPolicy(step_timeout_s=1.5),
        )
    if kind == "corrupt":
        return FaultPlan([FaultSpec("corrupt", worker=1)]), policy
    if kind == "kernel_raise":
        return FaultPlan([FaultSpec("kernel_raise", worker=1)]), policy
    if kind == "exhaust":
        return (
            FaultPlan([FaultSpec("crash", worker=0, times=8)]),
            FaultPolicy(max_respawns=1, step_timeout_s=15.0),
        )
    raise AssertionError(kind)


class TestChaosConformance:
    @pytest.mark.parametrize("kind", FAULT_KINDS_GRID)
    @pytest.mark.parametrize("task", MPC_TASKS)
    def test_recovered_run_matches_sequential(self, task, kind):
        plan, policy = _grid_cell(kind)
        report = solve(
            task,
            _graph_for(task),
            backend="mpc",
            seed=_SEED,
            executor="parallel",
            workers=2,
            fault_policy=policy,
            fault_plan=plan,
        )
        faults = report.extras["faults"]
        assert faults["events"], f"no recovery events recorded for {kind}"
        assert faults["failures"] >= 1
        if kind == "exhaust":
            assert faults["degraded"], "exhaustion must force degradation"
        else:
            assert not faults["degraded"], (
                f"{kind} should recover without degrading: "
                f"{faults['events']}"
            )
        assert report.extras["executor"]["supervised"] is True
        assert report_snapshot(report) == _baseline(task)

    def test_seeded_random_plan_recovers_with_parity(self):
        # The seeded generator is the fuzz surface: whatever mix of
        # faults it schedules, the run must still match the baseline.
        task = "fractional_matching"
        plan = FaultPlan.random(seed=1234, workers=2, faults=4)
        report = solve(
            task,
            _graph_for(task),
            backend="mpc",
            seed=_SEED,
            executor="parallel",
            workers=2,
            fault_policy=FaultPolicy(step_timeout_s=1.5),
            fault_plan=plan,
        )
        assert report_snapshot(report) == _baseline(task)


# ---------------------------------------------------------------------------
# façade / resolve_executor / CLI knobs
# ---------------------------------------------------------------------------


class TestFaultKnobs:
    def test_fault_policy_requires_parallel_executor(self):
        graph = gnp_random_graph(30, 0.1, seed=7)
        with pytest.raises(ValueError, match="parallel"):
            solve("mis", graph, backend="mpc", fault_policy=True)
        with pytest.raises(ValueError, match="parallel"):
            solve(
                "mis",
                graph,
                backend="mpc",
                executor="local",
                fault_plan={"specs": []},
            )

    def test_fault_policy_rejects_existing_executor_instance(self):
        with DistExecutor(LocalTransport(2)) as executor:
            with pytest.raises(ValueError, match="rewrap"):
                resolve_executor(executor, fault_policy=True)

    def test_policy_and_plan_coercion(self):
        with pytest.raises(TypeError, match="fault_policy"):
            resolve_executor("parallel", fault_policy="yes")
        with pytest.raises(TypeError, match="fault_plan"):
            resolve_executor("parallel", fault_plan=[1, 2])
        executor, owned = resolve_executor(
            "parallel",
            fault_policy={"max_retries": 1},
            fault_plan={"specs": []},
        )
        try:
            assert owned
            assert isinstance(executor.transport, SupervisedTransport)
            assert executor.transport.policy.max_retries == 1
            assert executor.recovery_log is not None
        finally:
            executor.close()

    def test_plan_alone_implies_default_policy(self):
        graph = gnp_random_graph(40, 0.1, seed=7)
        report = solve(
            "fractional_matching",
            graph,
            backend="mpc",
            seed=3,
            executor="parallel",
            workers=2,
            fault_plan={"specs": []},
        )
        assert report.extras["executor"]["supervised"] is True
        assert report.extras["faults"]["events"] == []

    def test_unsupervised_parallel_has_no_faults_extras(self):
        graph = gnp_random_graph(40, 0.1, seed=7)
        report = solve(
            "fractional_matching",
            graph,
            backend="mpc",
            seed=3,
            executor="parallel",
            workers=2,
        )
        assert report.extras["executor"]["supervised"] is False
        assert "faults" not in report.extras

    def test_cli_chaos_flags(self, capsys):
        from repro.api.__main__ import main as cli_main

        plan = {
            "specs": [{"kind": "crash", "worker": 1, "kernel": "*"}]
        }
        rc = cli_main(
            [
                "solve",
                "--task",
                "fractional_matching",
                "--backend",
                "mpc",
                "--graph",
                "gnp:n=60,p=0.1",
                "--seed",
                "7",
                "--executor",
                "parallel",
                "--workers",
                "2",
                "--fault-policy",
                '{"step_timeout_s": 15}',
                "--fault-plan",
                json.dumps(plan),
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["extras"]["executor"]["supervised"] is True
        kinds = {
            event["kind"]
            for event in payload["extras"]["faults"]["events"]
        }
        assert "failure" in kinds and "respawn" in kinds
