"""The three workloads: ``oneshot``, ``parallel`` and ``serve``.

Each workload sets up several times (the median set-up is reported),
warms every task once, then measures whole calls until its time is up.
Every sample is bracketed by host-speed probes (see ``calib``) and kept
both raw and in reference-host seconds.  With a tracer, blocks alternate
untraced/traced: per-layer numbers come from the traced blocks and the
untraced ones give the tracing overhead in the same run.
"""

from __future__ import annotations

import asyncio
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from calib import Calibrator
from inputs import barabasi_albert_edges, churn_stream, erdos_renyi_edges
from spans import Tracer

N = 5_000
AVERAGE_DEGREE = 20
WORKERS = 2
SETUP_REPEATS = 3
MIN_ROUNDS = 3
CHURN_FRACTION = 0.01
SNAPSHOT_EVERY = 10
CERTIFICATE_EVERY = 10

#: (task, end-to-end metric, per-layer suffix)
SOLVE_TASKS = (
    ("mis", "mis_s", "mis"),
    ("fractional_matching", "fractional_s", "fractional"),
    ("vertex_cover", "vertex_cover_s", "vertex_cover"),
    ("matching", "matching_s", "matching"),
)

#: One round, as indices into SOLVE_TASKS.  Cheap tasks run more often so
#: each gets enough samples for a steady median; interleaving keeps host
#: drift spread evenly over the tasks.
ROUND_SCHEDULE = (0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 3)

END_TO_END = {
    "setup_s": "s",
    "mis_s": "s",
    "fractional_s": "s",
    "vertex_cover_s": "s",
    "matching_s": "s",
    "rounds": "count",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "graph.generate_s": "s",
    "graph.to_csr_s": "s",
    "graph.to_csr_calls": "count",
    "graph.validate_s": "s",
    "core.mis_s": "s",
    "core.fractional_s": "s",
    "core.rounding_s": "s",
    "core.matching_driver_s": "s",
    "core.cover_s": "s",
    "core.threshold_calls": "count",
    "core.threshold_s": "s",
    "utils.rng_draws": "count",
    "utils.rng_s": "s",
    **{f"mpc.rounds.{suffix}": "count" for _, _, suffix in SOLVE_TASKS},
    **{f"mpc.max_machine_words.{suffix}": "words" for _, _, suffix in SOLVE_TASKS},
    "api.canonical_s": "s",
    "api.glue_s": "s",
    "verify.certify_s": "s",
    "dist.steps": "count",
    "dist.step_s": "s",
    "dist.driver_s": "s",
    "dist.phase_s.compressed-phases": "s",
    "dist.phase_s.direct-simulation": "s",
    "stream.repair_s": "s",
    "stream.epochs": "count",
    "stream.resolve_ratio": "ratio",
    "stream.apply_s": "s",
    "stream.compact_s": "s",
    "serve.process_s": "s",
    "serve.protocol_s": "s",
    "serve.snapshot_payload_s": "s",
    "serve.snapshot_write_s": "s",
    "serve.snapshot_bytes": "bytes",
    "serve.read_bytes": "bytes",
    "serve.update_p50_ms": "ms",
    "serve.update_p90_ms": "ms",
    "serve.read_p50_ms": "ms",
    "serve.read_p90_ms": "ms",
    "serve.snapshot_p50_ms": "ms",
    "bench.calib_ms": "ms",
    "bench.calib_iqr": "ratio",
    "bench.trace_overhead_pct": "%",
}

#: Span group -> (time metric, count metric, which span field is timed).
_SPAN_LAYERS = {
    "graph.to_csr": ("graph.to_csr_s", "graph.to_csr_calls", "time_s"),
    "graph.validate": ("graph.validate_s", None, "time_s"),
    "core.mis": ("core.mis_s", None, "self_s"),
    "core.fractional": ("core.fractional_s", None, "self_s"),
    "core.rounding": ("core.rounding_s", None, "self_s"),
    "core.matching_driver": ("core.matching_driver_s", None, "self_s"),
    "core.cover": ("core.cover_s", None, "self_s"),
    "core.threshold": ("core.threshold_s", "core.threshold_calls", "time_s"),
    "utils.rng": ("utils.rng_s", None, "time_s"),
    "api.canonical": ("api.canonical_s", None, "time_s"),
    "verify.certify": ("verify.certify_s", None, "time_s"),
    "dist.step": ("dist.step_s", "dist.steps", "time_s"),
    "stream.repair": ("stream.repair_s", "stream.epochs", "self_s"),
    "stream.apply": ("stream.apply_s", None, "time_s"),
    "stream.compact": ("stream.compact_s", None, "time_s"),
    "serve.process": ("serve.process_s", None, "time_s"),
    "serve.snapshot_payload": ("serve.snapshot_payload_s", None, "time_s"),
    "serve.snapshot_write": ("serve.snapshot_write_s", None, "time_s"),
}

#: Per-layer metrics a workload cannot see from outside, with the reason.
UNREACHABLE = {
    ("serve", "mpc.max_machine_words"): "not measurable from outside: the open "
    "reply carries rounds but not the solve's per-machine words",
}
#: Printed with every traced ``parallel`` run.
WORKER_NOTE = (
    "worker-side compute is inside dist.step_s: worker processes are out of "
    "reach of the benchmark's spans"
)


class Outcome:
    """Everything one run measured, before formatting."""

    def __init__(self) -> None:
        self.ref: Dict[str, List[float]] = defaultdict(list)
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.consistent = True
        self.layer_blocks: List[Dict[str, float]] = []
        self.layers: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.rounds: Dict[str, int] = {}
        self.calib = Calibrator()

    def sample(self, name: str, raw: float, ref: float) -> None:
        self.raw[name].append(raw)
        self.ref[name].append(ref)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def value(self, name: str) -> Tuple[float, float, int]:
        """``(median_ref, median_raw, samples)`` of one sampled metric."""
        return (
            statistics.median(self.ref[name]),
            statistics.median(self.raw[name]),
            len(self.ref[name]),
        )


# -- shared set-up steps -----------------------------------------------------


def _import_step(outcome: Outcome, root: str) -> Tuple[float, float]:
    """Time ``import repro`` (and its heavy subpackages) in a fresh process."""
    code = (
        "import time; t = time.perf_counter(); "
        "import numpy, repro, repro.dist, repro.serve, repro.verify; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with outcome.calib.block() as block:
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
    raw = float(done.stdout.strip().splitlines()[-1])
    return raw, block.ref(raw)


def _setup_step(outcome: Outcome, fn: Callable[[], Any]) -> Tuple[float, float, Any]:
    gc.collect()
    return outcome.calib.timed(fn)


def _pin_to_one_cpu() -> None:
    """Keep the calling thread, and threads it starts later, on one CPU.

    Each vCPU of a shared host switches between fast and slow phases on
    its own, so a probe only describes the CPU it ran on.  Pinning keeps
    the probe and the timed code on the same one.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker process the pool started.

    It would otherwise exit on its own only after this process does, so
    the benchmark could end with a child still running.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _record_setup(outcome: Outcome, steps: List[Tuple[str, float, float]]) -> None:
    outcome.sample("setup_s", sum(s[1] for s in steps), sum(s[2] for s in steps))
    for name, raw, ref in steps:
        outcome.sample(f"setup.{name}", raw, ref)


def _worker_peaks_kib() -> int:
    """Sum of the peak RSS (``VmHWM``, KiB) of each live pool worker.

    Read while the workers still run: once reaped, the kernel keeps only
    the largest child's peak, mixed with that of the import-timing
    interpreter, which does no solve work.
    """
    total = 0
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
    return total


def _record_totals(outcome: Outcome, worker_kib: int = 0) -> None:
    """Rounds, and peak RSS of this process plus ``worker_kib`` (KiB units).

    Read after every worker and service thread has stopped.
    """
    rounds = float(sum(outcome.rounds.values()))
    outcome.sample("rounds", rounds, rounds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + worker_kib
    outcome.sample("peak_rss_mb", peak / 1024.0, peak / 1024.0)


def _finish_layers(outcome: Outcome, workload: str) -> None:
    """Median of each per-layer value over the traced blocks that saw it."""
    for name in PER_LAYER:
        values = [block[name] for block in outcome.layer_blocks if name in block]
        if name not in outcome.layers:
            outcome.layers[name] = statistics.median(values) if values else 0.0
    for suffix, rounds in outcome.rounds.items():
        outcome.layers[f"mpc.rounds.{suffix}"] = float(rounds)
    outcome.layers["graph.generate_s"] = statistics.median(
        outcome.ref["setup.graph.generate"]
    )
    ms, iqr = outcome.calib.summary()
    outcome.layers["bench.calib_ms"] = ms
    outcome.layers["bench.calib_iqr"] = iqr
    for name in PER_LAYER:
        reason = UNREACHABLE.get((workload, name.rsplit(".", 1)[0]))
        if reason is not None:
            outcome.notes[name] = reason
        elif outcome.layers[name] == 0.0 and name.startswith("mpc."):
            outcome.notes[name] = "0 as reported by the solver's RunReport"
        elif outcome.layers[name] == 0.0:
            outcome.notes[name] = "0: no such work in this workload's traced blocks"


def _span_layers(tracer: Tracer, run: int, factor: float) -> Dict[str, float]:
    values: Dict[str, float] = {}
    totals = tracer.totals(run)
    for group, (time_name, count_name, field) in _SPAN_LAYERS.items():
        entry = totals.get(group)
        if entry is None:
            continue
        values[time_name] = entry[field] * factor
        if count_name is not None:
            values[count_name] = float(entry["calls"])
    if "utils.rng" in totals:
        values["utils.rng_draws"] = float(totals["utils.rng"]["draws"])
    return values


@contextmanager
def _tracing(tracer: Optional[Tracer], run: Optional[int]) -> Iterator[bool]:
    """Trace the body under run id ``run``; ``run=None`` leaves it untraced."""
    if tracer is None or run is None:
        yield False
        return
    tracer.run = run
    tracer.install()
    try:
        yield True
    finally:
        tracer.uninstall()


def _overhead_pct(outcome: Outcome, names: List[str]) -> float:
    """Traced over untraced medians, summed over ``names``, as a percentage."""
    traced = sum(statistics.median(outcome.ref[f"traced.{n}"]) for n in names)
    plain = sum(statistics.median(outcome.ref[n]) for n in names)
    return 100.0 * (traced / plain - 1.0)


# -- oneshot / parallel ------------------------------------------------------


def run_solves(
    workload: str, seed: int, seconds: float, tracer: Optional[Tracer], root: str
) -> Outcome:
    """Interleaved ``solve(..., verify=True)`` calls over the four MPC tasks."""
    import repro
    from repro.dist.executor import DistExecutor
    from repro.dist.transport import MultiprocessTransport

    outcome = Outcome()
    parallel = workload == "parallel"
    if not parallel:
        # Workers run on any CPU, so parallel stays unpinned and each
        # probe averages a pass on each CPU.
        _pin_to_one_cpu()
    executor = None
    graph = None
    worker_kib = 0
    for rep in range(SETUP_REPEATS):
        steps = [("import", *_import_step(outcome, root))]

        def generate() -> Any:
            return repro.Graph(N, erdos_renyi_edges(N, AVERAGE_DEGREE, seed))

        raw, ref, graph = _setup_step(outcome, generate)
        steps.append(("graph.generate", raw, ref))
        if parallel:
            if executor is not None:
                executor.close()

            def start_pool() -> Any:
                return DistExecutor(MultiprocessTransport(WORKERS), kind="parallel")

            raw, ref, executor = _setup_step(outcome, start_pool)
            steps.append(("pool", raw, ref))
        _record_setup(outcome, steps)

    def call(task: str) -> Any:
        return repro.solve(
            task, graph, backend="mpc", seed=seed, verify=True, executor=executor
        )

    try:
        for task, _, suffix in SOLVE_TASKS:
            report = call(task)
            outcome.rounds[suffix] = report.rounds
        deadline = time.perf_counter() + seconds
        round_index = 0
        while round_index < MIN_ROUNDS * (2 if tracer else 1) or (
            time.perf_counter() < deadline
        ):
            run = round_index if round_index % 2 == 1 else None
            with _tracing(tracer, run) as traced:
                _solve_round(outcome, call, traced, round_index, tracer)
            round_index += 1
        worker_kib = _worker_peaks_kib()
    finally:
        if executor is not None:
            executor.close()
    _record_totals(outcome, worker_kib)
    if parallel:
        _stop_resource_tracker()
    if tracer is not None:
        outcome.layers["bench.trace_overhead_pct"] = _overhead_pct(
            outcome, [metric for _, metric, _ in SOLVE_TASKS]
        )
        _finish_layers(outcome, workload)
    return outcome


def _solve_round(
    outcome: Outcome,
    call: Callable[[str], Any],
    traced: bool,
    round_index: int,
    tracer: Optional[Tracer],
) -> None:
    walls = solver_walls = 0.0
    factors: List[float] = []
    layers: Dict[str, float] = defaultdict(float)
    for task, metric, suffix in (SOLVE_TASKS[i] for i in ROUND_SCHEDULE):
        gc.collect()
        try:
            raw, ref, report = outcome.calib.timed(lambda: call(task))
        except Exception as exc:  # any raise is a failed op, not a crash
            outcome.op(False, f"{task}: {type(exc).__name__}: {exc}")
            continue
        ok = bool(report.metrics.get("valid")) and bool(
            (report.verification or {}).get("ok")
        )
        outcome.op(ok, f"{task}: valid={report.metrics.get('valid')}")
        if report.rounds != outcome.rounds[suffix]:
            outcome.consistent = False
            outcome.errors.append(f"{task}: rounds {report.rounds} != warm-up")
        outcome.sample(f"traced.{metric}" if traced else metric, raw, ref)
        if not traced:
            continue
        factor = ref / raw
        factors.append(factor)
        walls += raw
        solver_walls += report.wall_time_s
        layers[f"mpc.max_machine_words.{suffix}"] = float(report.max_machine_words)
        for phase in report.extras.get("executor", {}).get("phase_walls", []):
            layers[f"dist.phase_s.{phase['phase']}"] += phase["wall_s"] * factor
    if not traced or not factors:
        return
    factor = statistics.mean(factors)
    layers.update(_span_layers(tracer, round_index, factor))
    certify = layers.get("verify.certify_s", 0.0)
    layers["api.glue_s"] = (walls - solver_walls) * factor - certify
    layers["dist.driver_s"] = solver_walls * factor - layers.get("dist.step_s", 0.0)
    outcome.layer_blocks.append(dict(layers))


# -- serve -------------------------------------------------------------------

SERVE_TENANTS = (
    ("t-mis", "mis", "mis_s", "mis"),
    ("t-fractional", "fractional_matching", "fractional_s", "fractional"),
    ("t-cover", "vertex_cover", "vertex_cover_s", "vertex_cover"),
    ("t-matching", "matching", "matching_s", "matching"),
)


class _Service:
    """An in-process ``ServeService`` on loopback, run on its own thread."""

    def __init__(self, snapshot_dir: str) -> None:
        from repro.serve import ServeConfig, ServeService

        self.loop = asyncio.new_event_loop()
        self.service = ServeService(ServeConfig(snapshot_dir=snapshot_dir))
        ready = threading.Event()
        failure: List[BaseException] = []

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            try:
                self.loop.run_until_complete(self.service.start())
            except BaseException as exc:
                failure.append(exc)
                raise
            finally:
                ready.set()
            self.loop.run_until_complete(self.service.serve_until_stopped())

        self.thread = threading.Thread(target=serve, name="serve", daemon=True)
        self.thread.start()
        ready.wait(timeout=60)
        if failure or not ready.is_set():
            raise RuntimeError(f"service failed to start: {failure}")

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.service.request_stop)
        self.thread.join(timeout=60)
        self.loop.close()


def run_serve(
    workload: str, seed: int, seconds: float, tracer: Optional[Tracer], root: str
) -> Outcome:
    """Closed loop: one client, four tenants, 1%-churn epochs."""
    import repro.serve  # noqa: F401  (set-up imports happen before timing)
    from repro.serve import ServeClient, ServeError
    from repro.stream.updates import EdgeBatch

    outcome = Outcome()
    _pin_to_one_cpu()  # before the service thread starts, which inherits it
    work = os.path.join(root, ".perfbench_out", f"serve-{os.getpid()}")
    service: Optional[_Service] = None
    client: Optional[ServeClient] = None
    edges: List[Tuple[int, int]] = []
    try:
        for rep in range(SETUP_REPEATS):
            if client is not None:
                client.close()
            if service is not None:
                service.stop()
            steps = [("import", *_import_step(outcome, root))]
            raw, ref, edges = _setup_step(
                outcome, lambda: barabasi_albert_edges(N, AVERAGE_DEGREE // 2, seed)
            )
            steps.append(("graph.generate", raw, ref))

            def start() -> Tuple[_Service, ServeClient]:
                started = _Service(os.path.join(work, f"setup-{rep}"))
                return started, ServeClient(port=started.service.port)

            raw, ref, (service, client) = _setup_step(outcome, start)
            steps.append(("service", raw, ref))
            for tenant, task, _, suffix in SERVE_TENANTS:
                raw, ref, reply = _setup_step(
                    outcome,
                    lambda: client.open(tenant, task, n=N, edges=edges, seed=seed),
                )
                steps.append((f"open.{tenant}", raw, ref))
                rounds = int(reply["initial"]["rounds"])
                if outcome.rounds.setdefault(suffix, rounds) != rounds:
                    outcome.consistent = False
                    outcome.errors.append(
                        f"{tenant}: open rounds {rounds} != first set-up "
                        f"{outcome.rounds[suffix]}"
                    )
            _record_setup(outcome, steps)

        stream = churn_stream(N, edges, CHURN_FRACTION, seed)
        resolves = tenant_epochs = 0

        def epoch(index: int, traced: bool, timed: bool) -> None:
            nonlocal resolves, tenant_epochs
            insertions, deletions = next(stream)
            batch = EdgeBatch.make(insertions, deletions, timestamp=float(index))
            gc.collect()
            ops: List[Tuple[str, str, float, Any]] = []
            with outcome.calib.block() as block:
                for tenant, _, metric, _ in SERVE_TENANTS:
                    for kind, send in (
                        ("update", lambda: client.ingest(tenant, batch, seq=index, sync=True)),
                        ("read", lambda: client.query(tenant, "solution")),
                    ):
                        started = time.perf_counter()
                        try:
                            reply = send()
                        except ServeError as exc:
                            reply = {"ok": False, "error": str(exc)}
                        ops.append((metric, kind, time.perf_counter() - started, reply))
            for metric, kind, raw, reply in ops:
                ok = bool(reply.get("ok")) and reply.get("outcome") != "shed"
                if kind == "update" and ok:
                    record = reply.get("record", {})
                    ok = (record.get("verification") or {}).get("ok", True)
                    tenant_epochs += 1
                    resolves += record.get("stats", {}).get("action") == "resolve"
                outcome.op(ok, f"{metric} {kind}: {reply.get('error', 'invalid')}")
                if not timed:
                    continue
                prefix = "traced." if traced else ""
                name = metric if kind == "update" else "read"
                outcome.sample(prefix + name, raw, block.ref(raw))
                if kind == "update":
                    outcome.sample(prefix + "update", raw, block.ref(raw))
            if traced:
                layers = _span_layers(tracer, index, block.factor)
                round_trips = sum(raw for _, _, raw, _ in ops)
                dispatch = tracer.totals(index).get("serve.dispatch", {})
                layers["serve.protocol_s"] = block.ref(
                    round_trips - dispatch.get("time_s", 0.0)
                )
                layers["serve.read_bytes"] = statistics.mean(
                    len(json.dumps(reply, sort_keys=True)) + 1
                    for _, kind, _, reply in ops
                    if kind == "read"
                )
                outcome.layer_blocks.append(layers)

        def snapshots(index: int, traced: bool) -> None:
            gc.collect()
            replies = []
            with outcome.calib.block() as block:
                for tenant, _, _, _ in SERVE_TENANTS:
                    started = time.perf_counter()
                    try:
                        reply = client.snapshot(tenant)
                    except ServeError as exc:
                        reply = {"ok": False, "error": str(exc)}
                    replies.append((time.perf_counter() - started, reply))
            for raw, reply in replies:
                outcome.op(bool(reply.get("ok")), f"snapshot: {reply.get('error')}")
                prefix = "traced." if traced else ""
                outcome.sample(prefix + "snapshot", raw, block.ref(raw))
            if traced:
                # Snapshot blocks report only snapshot layers: their
                # compaction would otherwise blend into the epoch medians.
                layers = {
                    name: value
                    for name, value in _span_layers(tracer, index, block.factor).items()
                    if name.startswith("serve.snapshot")
                }
                layers["serve.snapshot_bytes"] = float(
                    sum(os.path.getsize(r["path"]) for _, r in replies if r.get("ok"))
                )
                outcome.layer_blocks.append(layers)

        def certify() -> None:
            for tenant, _, _, _ in SERVE_TENANTS:
                try:
                    ok = bool(client.certificate(tenant).get("ok"))
                except ServeError:
                    ok = False
                outcome.op(ok, f"{tenant}: certificate")

        epoch(0, traced=False, timed=False)
        deadline = time.perf_counter() + seconds
        index = 1
        while index <= MIN_ROUNDS * SNAPSHOT_EVERY or time.perf_counter() < deadline:
            with _tracing(tracer, index if index % 2 == 1 else None) as traced:
                epoch(index, traced, timed=True)
            if index % SNAPSHOT_EVERY == 0:
                turn = index // SNAPSHOT_EVERY
                with _tracing(tracer, -index if turn % 2 == 1 else None) as traced:
                    snapshots(-index, traced)
            if index % CERTIFICATE_EVERY == 0:
                certify()
            index += 1
        certify()
        outcome.layers["stream.resolve_ratio"] = resolves / max(1, tenant_epochs)
    finally:
        if client is not None:
            client.close()
        if service is not None:
            service.stop()
        shutil.rmtree(work, ignore_errors=True)

    _record_totals(outcome)
    if tracer is not None:
        outcome.layers["bench.trace_overhead_pct"] = _overhead_pct(
            outcome, [metric for _, _, metric, _ in SERVE_TENANTS]
        )
        for kind in ("update", "read"):
            for q, label in ((0.5, "p50"), (0.9, "p90")):
                outcome.layers[f"serve.{kind}_{label}_ms"] = 1000.0 * quantile(
                    outcome.ref[kind], q
                )
        outcome.layers["serve.snapshot_p50_ms"] = 1000.0 * statistics.median(
            outcome.ref["snapshot"]
        )
        _finish_layers(outcome, workload)
    return outcome


def quantile(values: List[float], q: float) -> float:
    """The sample at rank ``q * len`` (the percentile the output reports)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


WORKLOADS = {"oneshot": run_solves, "parallel": run_solves, "serve": run_serve}
