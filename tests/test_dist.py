"""repro.dist: transports, executor, kernels, and the parity suite.

The load-bearing contract is *byte-identity*: for a fixed seed, every MPC
solver must produce the same solution, the same round count, and the same
communication/memory audit whether its kernels run on one in-process
worker (``executor=None``), on several in-process workers
(``executor="local"``), or partitioned over real worker processes
(``executor="parallel"``).  The fault tests pin the other contract: a
worker failure of any kind surfaces as :class:`DistExecutionError`, never
a hang.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.api import registry, solve
from repro.dist import (
    DistCorruptionError,
    DistExecutionError,
    DistExecutor,
    DistTimeoutError,
    LocalTransport,
    MultiprocessTransport,
    resolve_executor,
)
from repro.dist.kernels import get_kernel, kernel, kernel_names
from repro.dist.pool import dedupe_by_identity, object_executor, worker_object
from repro.dist.transport import _recv_msg, _send_msg
from repro.graph.generators import gnp_random_graph, random_weighted_graph
from repro.mpc.cluster import MPCCluster


@kernel("test.cyclic_view")
def _cyclic_view_kernel(ctx, payload):
    """Test kernel: park a view of a session array in a reference cycle."""
    session = ctx.session(payload["session"])
    holder = {"view": session.arrays["x"][1:]}
    holder["self"] = holder
    session.state["holder"] = holder
    return True


@kernel("test.dtype_report")
def _dtype_report_kernel(ctx, payload):
    """Test kernel: how each received array's dtype and flags arrived."""
    return [
        (array.dtype is np.dtype(array.dtype.str), array.flags.writeable)
        for array in payload["arrays"]
    ], payload["arrays"]


@kernel("test.map_crash")
def _map_crash_kernel(ctx, payload):
    """Test kernel: die mid-chunk on the victim worker (fork-inherited).

    Registered at module import so forked transport workers carry it;
    crashing partway through a task chunk exercises the mid-``map_tasks``
    failure window (some results computed, none delivered).
    """
    results = []
    for task in payload["tasks"]:
        if task == "boom" and ctx.worker_id == payload["shared"]["victim"]:
            os._exit(5)
        results.append(task * 2)
    return results

# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


def _echo_all(transport, value):
    payloads = [
        {"value": (worker_id, value)} for worker_id in range(transport.workers)
    ]
    return transport.step("debug.echo", payloads)


class TestLocalTransport:
    def test_echo_reports_worker_identity(self):
        with LocalTransport(3) as transport:
            results = _echo_all(transport, "ping")
        assert [r["worker_id"] for r in results] == [0, 1, 2]
        assert all(r["num_workers"] == 3 for r in results)
        assert results[1]["payload"] == (1, "ping")

    def test_sessions_shared_by_every_worker(self):
        with LocalTransport(2) as transport:
            transport.install("s", {"x": np.arange(5), "y": np.ones(3)})
            results = transport.step(
                "debug.echo", [{"sessions": ["s"]}] * 2
            )
            for r in results:
                assert r["session_sums"]["s"] == {"x": 10.0, "y": 3.0}
            transport.drop("s")
            with pytest.raises(DistExecutionError, match="no session 's'"):
                transport.step("debug.echo", [{"sessions": ["s"]}] * 2)

    def test_payload_count_must_match_workers(self):
        with LocalTransport(2) as transport:
            with pytest.raises(ValueError, match="one payload per worker"):
                transport.step("debug.echo", [{}])

    def test_closed_transport_raises(self):
        transport = LocalTransport(2)
        transport.close()
        with pytest.raises(DistExecutionError, match="closed"):
            transport.step("debug.echo", [{}, {}])

    def test_kernel_error_carries_worker_id(self):
        with LocalTransport(2) as transport:
            with pytest.raises(DistExecutionError) as info:
                transport.step(
                    "debug.fail", [{"fail": False}, {"fail": True}]
                )
        assert info.value.worker_id == 1
        assert "injected kernel failure" in str(info.value)


class TestMultiprocessTransport:
    def test_echo_and_shared_sessions_match_local(self):
        arrays = {"x": np.arange(100, dtype=np.int64), "y": np.zeros(0)}
        with LocalTransport(2) as local, MultiprocessTransport(2) as multi:
            local.install("s", arrays)
            multi.install("s", arrays)
            payloads = [{"value": i, "sessions": ["s"]} for i in range(2)]
            assert local.step("debug.echo", payloads) == multi.step(
                "debug.echo", payloads
            )

    def test_kernel_error_leaves_transport_usable(self):
        with MultiprocessTransport(2) as transport:
            with pytest.raises(DistExecutionError) as info:
                transport.step(
                    "debug.fail", [{"fail": True}, {"fail": False}]
                )
            assert info.value.worker_id == 0
            assert info.value.phase == "debug.fail"
            assert info.value.attempts == 1
            assert info.value.recovery == "none"
            assert "ValueError" in str(info.value)
            # The workers survived the kernel exception: same pool, next step.
            results = _echo_all(transport, "still-alive")
            assert [r["worker_id"] for r in results] == [0, 1]

    def test_worker_death_raises_cleanly_and_closes(self):
        transport = MultiprocessTransport(2)
        try:
            with pytest.raises(DistExecutionError, match="died") as info:
                transport.step(
                    "debug.crash", [{"exit": 1}, {"exit": None}]
                )
            assert info.value.worker_id == 0
            assert info.value.phase == "debug.crash"
            assert info.value.attempts == 1
            assert info.value.recovery == "transport-closed"
            # Everything is torn down; further use reports closed, not a hang.
            with pytest.raises(DistExecutionError, match="closed"):
                _echo_all(transport, "after-death")
        finally:
            transport.close()

    def test_duplicate_session_key_rejected(self):
        with MultiprocessTransport(2) as transport:
            transport.install("s", {"x": np.arange(3)})
            with pytest.raises(ValueError, match="already installed"):
                transport.install("s", {"x": np.arange(3)})

    def test_drop_unmaps_a_view_held_in_a_reference_cycle(self):
        # A cycle outlives the session until a collection, which the drop
        # runs when the segment still has a view exported.
        with MultiprocessTransport(2) as transport:
            transport.install("s", {"x": np.arange(10, dtype=np.int64)})
            assert transport.step("test.cyclic_view", [{"session": "s"}] * 2)
            transport.drop("s")
            transport.install("s", {"x": np.arange(4, dtype=np.int64)})
            results = transport.step("debug.echo", [{"sessions": ["s"]}] * 2)
            assert [r["session_sums"] for r in results] == [{"s": {"x": 6.0}}] * 2


def _wire_arrays():
    return [
        np.arange(5, dtype=np.float64),
        np.arange(5, dtype=np.int64),
        np.array([True, False, True]),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.empty(0, dtype=np.float64),
        np.empty((0, 2), dtype=np.int64),
        np.arange(10, dtype=np.int64)[::3],
        np.arange(12, dtype=np.float64).reshape(3, 4).T,
    ]


class TestCanonicalDtypes:
    """Arrays cross the pipe with NumPy's canonical dtype descriptor.

    An unpickled descriptor that merely compares equal sends ``ufunc.at``
    off its fast loop, so received arrays must carry the very object
    ``np.dtype`` returns.
    """

    def test_message_round_trip(self):
        import multiprocessing

        sender, receiver = multiprocessing.Pipe()
        try:
            for array in _wire_arrays():
                _send_msg(sender, {"a": array})
                received = _recv_msg(receiver, timeout=10)["a"]
                assert received.dtype is np.dtype(array.dtype.str)
                assert received.flags.writeable
                assert received.shape == array.shape
                np.testing.assert_array_equal(received, array)
            _send_msg(sender, np.arange(3))
            with pytest.raises(DistCorruptionError):
                _recv_msg(receiver, timeout=10, _corrupt=True)
        finally:
            sender.close()
            receiver.close()

    def test_transport_step_both_directions(self):
        arrays = _wire_arrays()
        with MultiprocessTransport(2) as transport:
            results = transport.step(
                "test.dtype_report", [{"arrays": arrays}] * 2
            )
            for flags, echoed in results:
                # Worker side, then driver side.
                assert flags == [(True, True)] * len(arrays)
                for sent, back in zip(arrays, echoed):
                    assert back.dtype is np.dtype(sent.dtype.str)
                    assert back.flags.writeable
                    np.testing.assert_array_equal(back, sent)
            transport.corrupt_next_receive(1)
            with pytest.raises(DistCorruptionError):
                transport.step("test.dtype_report", [{"arrays": arrays}] * 2)


# ---------------------------------------------------------------------------
# pool plumbing (shared with repro.api.batch)
# ---------------------------------------------------------------------------


def _lookup(index):
    return worker_object(index)


class TestPool:
    def test_dedupe_by_identity(self):
        a, b = object(), object()
        table, indices = dedupe_by_identity([a, b, a, a, b])
        assert table == [a, b]
        assert indices == [0, 1, 0, 0, 1]
        assert all(table[i] is item for i, item in zip(indices, [a, b, a, a, b]))

    def test_dedupe_is_identity_not_equality(self):
        x, y = [1, 2], [1, 2]
        table, indices = dedupe_by_identity([x, y])
        assert len(table) == 2
        assert indices == [0, 1]

    def test_object_pool_ships_table_once(self):
        with object_executor(2, ["alpha", "beta"]) as pool:
            assert list(pool.map(_lookup, [0, 1, 0])) == ["alpha", "beta", "alpha"]


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


class TestDistExecutor:
    def test_partition_is_balanced_and_covers(self):
        executor = DistExecutor(LocalTransport(3))
        bounds = executor.partition(10)
        assert bounds == [(0, 4), (4, 7), (7, 10)]
        assert executor.partition(2) == [(0, 1), (1, 2), (2, 2)]

    def test_map_tasks_order_via_machine_kernel(self):
        # matching.machines takes one contiguous machine range per worker
        # and returns the range's freezes in machine order; concatenated
        # over the workers they must equal a machine-by-machine replay.
        from repro.core.thresholds import ThresholdOracle

        oracle = ThresholdOracle(0.1, 0.2, seed=7)
        start, iterations, machines, w0, growth = 3, 4, 5, 0.01, 1.2
        # Per machine: ascending ids and same-machine edges.
        layout = [
            ([0, 3, 5, 9, 11], [(0, 3), (3, 5), (5, 9), (0, 9), (3, 11)]),
            ([], []),  # empty machine
            ([1, 4, 7], []),  # no edges
            ([2, 6, 8], [(2, 6), (6, 8)]),  # every load over the band
            ([10, 12, 13, 14], [(10, 12), (10, 13), (10, 14), (12, 13), (13, 14)]),
        ]
        y = {v: 0.01 * (v % 5) for v in range(15)}
        y.update({1: 0.15, 4: 0.15, 7: 0.15, 2: 0.5, 6: 0.5, 8: 0.5})

        reference = []
        for ids, edges in layout:
            active = set(ids)
            for now in range(start, start + iterations):
                w_t = w0 * growth**now
                frozen = [
                    v
                    for v in sorted(active)
                    if oracle.crosses(
                        v,
                        now,
                        machines
                        * sum(v in e and set(e) <= active for e in edges)
                        * w_t
                        + y[v],
                    )
                ]
                reference.extend((v, now) for v in frozen)
                active.difference_update(frozen)
        assert [(v, t) for v, t in reference if v in (2, 6, 8)] == [
            (2, start),
            (6, start),
            (8, start),
        ]
        assert any(t > start for _, t in reference)
        assert len(reference) < 15  # some vertex never freezes

        shared = {
            "oracle": oracle,
            "start": start,
            "iterations": iterations,
            "machines": machines,
            "w0": w0,
            "growth": growth,
        }
        for workers in (1, 2, 3):
            with DistExecutor(LocalTransport(workers)) as executor:
                tasks = []
                for first, last in executor.partition(machines):
                    ids = [v for m in range(first, last) for v in layout[m][0]]
                    labels = [m for m in range(first, last) for _ in layout[m][0]]
                    edges = [e for m in range(first, last) for e in layout[m][1]]
                    position = {v: i for i, v in enumerate(ids)}
                    tasks.append(
                        (
                            np.array(ids, dtype=np.int64),
                            np.array(labels, dtype=np.int64),
                            np.array([position[a] for a, _ in edges], dtype=np.int64),
                            np.array([position[b] for _, b in edges], dtype=np.int64),
                            np.array([y[v] for v in ids], dtype=np.float64),
                        )
                    )
                results = executor.map_tasks(
                    "matching.machines", tasks, shared=shared
                )
            assert len(results) == workers
            merged = [
                (v, t)
                for vertices, times in results
                for v, t in zip(vertices.tolist(), times.tolist())
            ]
            assert merged == reference, workers

    def test_phase_walls_accumulate(self):
        with DistExecutor(LocalTransport(2)) as executor:
            executor.broadcast_step("debug.echo", {}, phase="a")
            executor.broadcast_step("debug.echo", {}, phase="a")
            executor.broadcast_step("debug.echo", {}, phase="b")
            walls = {w["phase"]: w for w in executor.phase_walls()}
            assert walls["a"]["steps"] == 2
            assert walls["b"]["steps"] == 1
            executor.reset_metrics()
            assert executor.phase_walls() == []

    def test_open_session_keys_are_unique(self):
        with DistExecutor(LocalTransport(2)) as executor:
            first = executor.open_session("hint", {"x": np.arange(2)})
            second = executor.open_session("hint", {"x": np.arange(2)})
            assert first != second


class TestResolveExecutor:
    def test_none_passthrough(self):
        assert resolve_executor(None) == (None, False)

    def test_workers_without_executor_is_an_error(self):
        with pytest.raises(ValueError, match="requires an executor"):
            resolve_executor(None, workers=2)

    def test_string_kinds_are_owned(self):
        executor, owned = resolve_executor("local", workers=3)
        assert owned and executor.workers == 3 and executor.kind == "local"
        executor.close()

    def test_instance_is_not_owned(self):
        with DistExecutor(LocalTransport(2)) as instance:
            executor, owned = resolve_executor(instance)
            assert executor is instance and not owned
            with pytest.raises(ValueError, match="conflicts"):
                resolve_executor(instance, workers=4)

    @pytest.mark.parametrize("name", ["cluster", "mpi"])
    def test_unknown_string_raises(self, name):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor(name)

    def test_wrong_type_raises(self):
        with pytest.raises(TypeError):
            resolve_executor(42)

    def test_bad_worker_count_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_executor("local", workers=0)


# ---------------------------------------------------------------------------
# parity suite: every executor and worker count, byte for byte
# ---------------------------------------------------------------------------

MPC_TASKS = [t for t in registry.tasks() if "mpc" in registry.backends(t)]
PARITY_CASES = [(n, seed) for n in (80, 150) for seed in (3, 11)]


def _graph_for(task, n, seed=7):
    if task == "weighted_matching":
        return random_weighted_graph(n, 8.0 / n, seed=seed)
    return gnp_random_graph(n, 8.0 / n, seed=seed)


def report_snapshot(report):
    """Everything that must match across executors, as plain JSON data."""
    data = json.loads(report.to_json())
    data.pop("wall_time_s")
    data.pop("peak_rss_bytes")
    data.get("extras", {}).pop("executor", None)
    # Recovery events carry latencies/attempt counts that legitimately
    # vary run to run; the *solution* bytes are what parity pins.
    data.get("extras", {}).pop("faults", None)
    return data


class TestParity:
    @pytest.mark.parametrize("task", MPC_TASKS)
    @pytest.mark.parametrize("n,seed", PARITY_CASES)
    def test_kernel_path_matches_sequential(self, task, n, seed):
        # Two in-process workers split every machine phase: full
        # partition coverage without process startup per case.
        graph = _graph_for(task, n)
        baseline = report_snapshot(
            solve(task, graph, backend="mpc", seed=seed)
        )
        with DistExecutor(LocalTransport(2)) as executor:
            distributed = report_snapshot(
                solve(task, graph, backend="mpc", seed=seed, executor=executor)
            )
        assert distributed == baseline

    @pytest.mark.parametrize("task", MPC_TASKS)
    def test_parallel_processes_match_sequential(self, task):
        graph = _graph_for(task, 120)
        baseline = report_snapshot(
            solve(task, graph, backend="mpc", seed=5)
        )
        parallel = report_snapshot(
            solve(
                task,
                graph,
                backend="mpc",
                seed=5,
                executor="parallel",
                workers=2,
            )
        )
        assert parallel == baseline

    def test_local_executor_matches_sequential(self):
        graph = gnp_random_graph(150, 0.05, seed=7)
        baseline = report_snapshot(
            solve("fractional_matching", graph, backend="mpc", seed=5)
        )
        local = report_snapshot(
            solve(
                "fractional_matching",
                graph,
                backend="mpc",
                seed=5,
                executor="local",
            )
        )
        assert local == baseline

    @pytest.mark.parametrize("task", MPC_TASKS)
    def test_worker_count_invariance(self, task):
        graph = _graph_for(task, 200, seed=9)
        snapshots = [
            report_snapshot(solve(task, graph, backend="mpc", seed=13))
        ]
        for workers in (1, 2, 3):
            with DistExecutor(LocalTransport(workers)) as executor:
                snapshots.append(
                    report_snapshot(
                        solve(
                            task,
                            graph,
                            backend="mpc",
                            seed=13,
                            executor=executor,
                        )
                    )
                )
        assert all(snapshot == snapshots[0] for snapshot in snapshots[1:])

    def test_budget_audit_identical_under_parallel(self):
        # verify=True attaches the BudgetPolicy certificate (round budget,
        # per-machine words, total communication); it must be identical —
        # the cluster accounting never leaves the driver.
        graph = gnp_random_graph(150, 0.05, seed=7)
        baseline = report_snapshot(
            solve("fractional_matching", graph, backend="mpc", seed=5, verify=True)
        )
        parallel = report_snapshot(
            solve(
                "fractional_matching",
                graph,
                backend="mpc",
                seed=5,
                verify=True,
                executor="parallel",
                workers=2,
            )
        )
        assert all(
            check["passed"] for check in baseline["verification"]["checks"]
        )
        assert parallel == baseline

    def test_worker_death_mid_solve_raises_dist_error(self, monkeypatch):
        # Kill the worker running a direct tail that does not fit machine
        # 0: the solver must surface DistExecutionError, not hang or
        # return a partial result.
        monkeypatch.setattr(MPCCluster, "fits_leader", lambda *args: False)
        graph = gnp_random_graph(150, 0.05, seed=7)
        transport = MultiprocessTransport(2)
        executor = DistExecutor(transport, kind="parallel")
        original_step = transport.step
        killed = []

        def sabotaged_step(kernel, payloads):
            if kernel == "matching.direct_tail":
                killed.append(kernel)
                return original_step(
                    "debug.crash", [{"exit": 3}] * len(payloads)
                )
            return original_step(kernel, payloads)

        transport.step = sabotaged_step
        try:
            with pytest.raises(DistExecutionError, match="died"):
                solve(
                    "fractional_matching",
                    graph,
                    backend="mpc",
                    seed=5,
                    executor=executor,
                )
        finally:
            transport.step = original_step
            executor.close()
        assert killed == ["matching.direct_tail"]

    def test_worker_death_in_gathered_tail_raises_dist_error(self):
        # The tail of this sparse graph fits machine 0 and runs as one
        # matching.direct_tail task; killing its worker must surface
        # DistExecutionError too.
        graph = gnp_random_graph(300, 0.02, seed=3)
        transport = MultiprocessTransport(2)
        executor = DistExecutor(transport, kind="parallel")
        original_step = transport.step
        killed = []

        def sabotaged_step(kernel, payloads):
            if kernel == "matching.direct_tail":
                killed.append(kernel)
                return original_step(
                    "debug.crash", [{"exit": 3}] * len(payloads)
                )
            return original_step(kernel, payloads)

        transport.step = sabotaged_step
        try:
            with pytest.raises(DistExecutionError, match="died"):
                solve(
                    "fractional_matching",
                    graph,
                    backend="mpc",
                    seed=3,
                    executor=executor,
                )
        finally:
            transport.step = original_step
            executor.close()
        assert killed == ["matching.direct_tail"]


# ---------------------------------------------------------------------------
# failure windows: barriers, chunk streams, deadlines
# ---------------------------------------------------------------------------


class TestFailureWindows:
    def test_worker_death_during_broadcast_barrier(self):
        # One worker dies while the driver sits in the broadcast barrier
        # waiting for its reply: the step must raise, not hang.
        transport = MultiprocessTransport(2)
        executor = DistExecutor(transport, kind="parallel")
        try:
            assert len(executor.broadcast_step("debug.echo", {"value": 1})) == 2
            transport.kill_worker(1)
            with pytest.raises(DistExecutionError, match="died") as info:
                executor.broadcast_step("debug.echo", {"value": 2})
            assert info.value.worker_id == 1
            assert info.value.recovery == "transport-closed"
        finally:
            executor.close()

    def test_worker_death_mid_map_tasks_chunk(self):
        # The victim dies partway through its task chunk — results it
        # already computed are lost with it, and the driver must observe
        # a dead pipe for the whole chunk, not a short result list.
        transport = MultiprocessTransport(2)
        executor = DistExecutor(transport, kind="parallel")
        try:
            tasks = ["a", "b", "boom", "c"]
            with pytest.raises(DistExecutionError, match="died") as info:
                executor.map_tasks(
                    "test.map_crash", tasks, shared={"victim": 1}
                )
            assert info.value.worker_id == 1
            assert info.value.phase == "test.map_crash"
        finally:
            executor.close()

    def test_sleeping_kernel_raises_within_deadline(self):
        # A kernel that sleeps past the receive deadline must raise a
        # DistTimeoutError promptly — the poll loop, not a blocked read,
        # owns the wait.
        transport = MultiprocessTransport(2, step_timeout_s=1.0)
        started = time.monotonic()
        try:
            with pytest.raises(DistTimeoutError, match="timed out") as info:
                transport.step(
                    "debug.sleep", [{"seconds": 30.0}, {"seconds": 0.0}]
                )
        finally:
            transport.close()
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"deadline did not bound the wait ({elapsed:.1f}s)"
        assert info.value.worker_id == 0
        assert info.value.recovery == "transport-closed"

    def test_close_escalates_past_sigterm_ignoring_worker(self):
        # A worker that masks SIGTERM and sleeps survives terminate();
        # close() must escalate to SIGKILL within its timeout instead of
        # hanging, and the shared segments must still be unlinked.
        transport = MultiprocessTransport(2, close_timeout_s=0.3)
        transport.install("s", {"x": np.arange(4)})
        segment_names = [
            segment.name for segment in transport._segments["s"]
        ]
        # Fire-and-forget: the wedge kernel never replies in time, so
        # send the command directly and close while the workers sleep.
        from repro.dist.transport import _send_msg

        for handle in transport._workers:
            _send_msg(handle.conn, ("step", "debug.wedge", {"seconds": 30.0}))
        time.sleep(0.2)  # let the workers enter the wedge
        started = time.monotonic()
        transport.close()
        assert time.monotonic() - started < 5.0
        from multiprocessing import shared_memory

        for name in segment_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# façade integration
# ---------------------------------------------------------------------------


class TestFacadeExecutor:
    def test_executor_metadata_recorded_in_extras(self):
        graph = gnp_random_graph(80, 0.1, seed=7)
        report = solve(
            "fractional_matching",
            graph,
            backend="mpc",
            seed=5,
            executor="parallel",
            workers=2,
        )
        info = report.extras["executor"]
        assert info["kind"] == "parallel"
        assert info["workers"] == 2
        phases = {w["phase"] for w in info["phase_walls"]}
        assert "direct-simulation" in phases

    def test_local_executor_metadata(self):
        graph = gnp_random_graph(80, 0.1, seed=7)
        report = solve(
            "fractional_matching", graph, backend="mpc", seed=5, executor="local"
        )
        info = report.extras["executor"]
        assert info["kind"] == "local" and info["workers"] == 2
        phases = {w["phase"] for w in info["phase_walls"]}
        assert {"compressed-phases", "direct-simulation"} <= phases

    def test_perfbench_graph_still_reaches_the_machine_kernel(self):
        # Compressed phases that cannot freeze skip their pool step; on
        # the benchmark's G(5000, d=20) at least one must still dispatch
        # matching.machines, or the parallel workload stops exercising it.
        import importlib.util
        from pathlib import Path

        import repro

        path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        graph = repro.Graph(5000, inputs.erdos_renyi_edges(5000, 20, 1))
        report = solve(
            "fractional_matching",
            graph,
            backend="mpc",
            seed=1,
            executor="parallel",
            workers=2,
        )
        steps = {
            w["phase"]: w["steps"]
            for w in report.extras["executor"]["phase_walls"]
        }
        assert steps.get("compressed-phases", 0) >= 1

    def test_non_mpc_backend_rejects_executor(self):
        graph = gnp_random_graph(40, 0.1, seed=7)
        with pytest.raises(ValueError, match="does not support an executor"):
            solve("mis", graph, backend="greedy", executor="local")

    def test_workers_without_executor_rejected(self):
        graph = gnp_random_graph(40, 0.1, seed=7)
        with pytest.raises(ValueError, match="requires an executor"):
            solve("mis", graph, backend="mpc", workers=2)

    def test_unknown_executor_rejected(self):
        graph = gnp_random_graph(40, 0.1, seed=7)
        with pytest.raises(ValueError, match="unknown executor"):
            solve("mis", graph, backend="mpc", executor="cloud")

    def test_executor_instance_reused_across_solves(self):
        graph = gnp_random_graph(80, 0.1, seed=7)
        with DistExecutor(LocalTransport(2)) as executor:
            first = solve(
                "fractional_matching",
                graph,
                backend="mpc",
                seed=5,
                executor=executor,
            )
            second = solve(
                "fractional_matching",
                graph,
                backend="mpc",
                seed=5,
                executor=executor,
            )
        assert report_snapshot(first) == report_snapshot(second)

    def test_cli_executor_flag(self, capsys):
        from repro.api.__main__ import main as cli_main

        rc = cli_main(
            [
                "solve",
                "--task",
                "fractional_matching",
                "--backend",
                "mpc",
                "--graph",
                "gnp:n=80,p=0.1",
                "--seed",
                "7",
                "--executor",
                "parallel",
                "--workers",
                "2",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["extras"]["executor"]["workers"] == 2


# ---------------------------------------------------------------------------
# kernels registry
# ---------------------------------------------------------------------------


class TestKernelRegistry:
    def test_expected_kernels_registered(self):
        names = kernel_names()
        for required in (
            "debug.echo",
            "debug.fail",
            "debug.crash",
            "matching.machines",
            "matching.direct_tail",
            "mis.prefix_greedy",
            "weighted.filtering",
        ):
            assert required in names
        assert "matching.direct_init" not in names
        assert "matching.direct_step" not in names

    def test_unknown_kernel_raises_with_listing(self):
        with pytest.raises(KeyError, match="registered"):
            get_kernel("no.such.kernel")
