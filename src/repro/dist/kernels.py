"""Named worker kernels the transports dispatch by string.

A kernel is ``fn(ctx, payload) -> result`` where ``ctx`` is the worker's
:class:`~repro.dist.transport.WorkerContext`.  Kernels are resolved by
name inside each worker (the registry is populated at module import, so
forked and spawned workers see the same table), which keeps step payloads
free of code objects.

The solver kernels here are the machine-local MPC phase units —
:func:`repro.core.matching_mpc._machine_insertions` (one contiguous
machine range per worker),
:func:`repro.core.matching_mpc.direct_step`,
:func:`repro.core.greedy_mis.greedy_mis_on_prefix_csr`,
:func:`repro.core.weighted_matching._filter_class` — and the only way
the solvers run them.  The transport changes *where* those units run,
never what they compute, which is what keeps ``executor="parallel"``
byte-identical to ``executor=None``.

Worker-resident state (the direct-simulation vertex slices) lives in
``ctx.session(key).state`` and survives across steps until the session is
dropped.

The ``debug.*`` kernels are the transport test surface, including the
fault-injection hook the worker-death test uses.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Set, Tuple

import numpy as np

_KERNELS: Dict[str, Callable] = {}
_STATEFUL: Set[str] = set()


def kernel(name: str, stateful: bool = False) -> Callable[[Callable], Callable]:
    """Register a kernel under ``name`` (must be unique).

    ``stateful=True`` declares that the kernel *mutates* worker-resident
    session state (``ctx.session(key).state``).  The supervision layer
    uses this to pick a recovery strategy: a failed stateless step can be
    retried in place (same inputs, same outputs), while a failed stateful
    step may have partially mutated state, so the worker must be
    respawned and its journal replayed before re-dispatch.
    """

    def wrap(fn: Callable) -> Callable:
        if name in _KERNELS:
            raise ValueError(f"kernel {name!r} is already registered")
        _KERNELS[name] = fn
        if stateful:
            _STATEFUL.add(name)
        return fn

    return wrap


def is_stateful(name: str) -> bool:
    """Whether ``name`` mutates worker-resident session state."""
    return name in _STATEFUL


def get_kernel(name: str) -> Callable:
    """Resolve a kernel by name (raises ``KeyError`` for unknown names)."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; registered: {sorted(_KERNELS)}"
        ) from None


def kernel_names() -> List[str]:
    """Registered kernel names, sorted."""
    return sorted(_KERNELS)


# ---------------------------------------------------------------------------
# debug / test kernels
# ---------------------------------------------------------------------------


@kernel("debug.echo")
def _echo(ctx, payload: Any) -> Any:
    """Echo the payload plus worker identity; sums any named session array."""
    sums = {}
    for key in payload.get("sessions", ()):
        session = ctx.session(key)
        sums[key] = {
            name: float(np.sum(array)) for name, array in session.arrays.items()
        }
    return {
        "worker_id": ctx.worker_id,
        "num_workers": ctx.num_workers,
        "payload": payload.get("value"),
        "session_sums": sums,
    }


@kernel("debug.fail")
def _fail(ctx, payload: Any) -> Any:
    """Raise on selected workers (kernel-error path: transport survives)."""
    if payload.get("fail"):
        raise ValueError(f"injected kernel failure on worker {ctx.worker_id}")
    return "ok"


@kernel("debug.crash")
def _crash(ctx, payload: Any) -> Any:
    """Kill the worker process outright (worker-death path: clean error).

    ``os._exit`` skips all cleanup, exactly like a segfault or OOM kill
    would — the driver must observe a dead pipe, not a reply.
    """
    if payload.get("exit") is not None:
        os._exit(int(payload["exit"]))
    return "alive"


@kernel("debug.sleep")
def _sleep(ctx, payload: Any) -> Any:
    """Sleep before replying (timeout path: the deadline must fire)."""
    time.sleep(float(payload.get("seconds", 0.0)))
    return {"worker_id": ctx.worker_id, "slept": payload.get("seconds", 0.0)}


@kernel("debug.wedge")
def _wedge(ctx, payload: Any) -> Any:
    """Ignore SIGTERM, then sleep — only ``Process.kill()`` can reap this.

    Exercises the ``close()`` escalation path: a worker wedged like this
    survives ``terminate()`` and must be SIGKILL-ed within the close
    timeout instead of hanging the driver.
    """
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(float(payload.get("seconds", 30.0)))
    return "woke"


@kernel("debug.counter", stateful=True)
def _counter(ctx, payload: Any) -> int:
    """Accumulate into session state (the journal-replay unit-test target).

    Each step adds ``payload["add"]`` to a per-session counter and returns
    the running total — so a respawned worker whose journal was replayed
    correctly returns exactly the total an uninterrupted worker would.
    """
    session = ctx.session(payload["session"])
    session.state["count"] = session.state.get("count", 0) + int(
        payload.get("add", 0)
    )
    return session.state["count"]


# ---------------------------------------------------------------------------
# matching: compressed-phase machine simulation (Lemma 4.2, Lines (e))
# ---------------------------------------------------------------------------


@kernel("matching.machines")
def _matching_machines(ctx, payload: Any) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Run this worker's contiguous machine range as one fused block.

    ``payload["tasks"]`` holds one ``(vertex_ids, machine_of, local_u,
    local_v, y_range)`` machine-range input; ``payload["shared"]`` carries
    the oracle and the phase constants.  Returns the range's ``(vertices,
    t)`` freeze arrays in machine order — the driver concatenates the
    ranges in worker order, so the ``freeze_iteration`` updates do not
    depend on the worker count.
    """
    from repro.core.matching_mpc import _machine_insertions

    shared = payload["shared"]
    return [
        _machine_insertions(
            *task,
            oracle=shared["oracle"],
            start_iteration=shared["start"],
            iterations=shared["iterations"],
            num_machines=shared["machines"],
            w0=shared["w0"],
            growth=shared["growth"],
        )
        for task in payload["tasks"]
    ]


# ---------------------------------------------------------------------------
# matching: direct Central-Rand simulation (Line (4))
# ---------------------------------------------------------------------------
#
# The driver partitions the vertex range over the workers.  Each worker
# owns the mutable per-vertex state for its slice and reads the immutable
# CSR adjacency from the session's shared arrays.  One step per
# iteration runs :func:`repro.core.matching_mpc.direct_step` (with one
# worker, on the whole range).


@kernel("matching.direct_init", stateful=True)
def _direct_init(ctx, payload: Any) -> int:
    from repro.core.matching_mpc import direct_state

    session = ctx.session(payload["session"])
    state = direct_state(
        int(payload["lo"]),
        int(payload["hi"]),
        np.asarray(payload["active"], dtype=bool),
        payload["degree"],
        payload["load"],
        payload["oracle"],
        payload["w0"],
        payload["growth"],
    )
    session.state["direct"] = state
    return int(state["active"].sum())


@kernel("matching.direct_step", stateful=True)
def _direct_step(ctx, payload: Any) -> Tuple[np.ndarray, int]:
    from repro.core.matching_mpc import direct_step

    session = ctx.session(payload["session"])
    return direct_step(
        session.state["direct"],
        session.arrays["indptr"],
        session.arrays["indices"],
        int(payload["t"]),
        np.asarray(payload["prev"], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# mis: rank-prefix greedy on one machine (Theorem 1.1, step 2)
# ---------------------------------------------------------------------------


@kernel("mis.prefix_greedy")
def _mis_prefix_greedy(ctx, payload: Any) -> List[np.ndarray]:
    """Walk each shipped rank prefix greedily (the single-leader phase).

    The session holds the CSR arrays and the shared rank permutation; the
    tasks are prefix vertex arrays.  Pure function of its inputs, so
    dispatching it to a worker is output-neutral by construction.
    """
    from repro.core.greedy_mis import greedy_mis_on_prefix_csr
    from repro.graph.csr import CSRGraph

    session = ctx.session(payload["shared"]["session"])
    csr = session.state.get("csr")
    if csr is None:
        csr = CSRGraph(session.arrays["indptr"], session.arrays["indices"])
        session.state["csr"] = csr
    ranks = session.arrays["ranks"]
    return [
        greedy_mis_on_prefix_csr(csr, ranks, np.asarray(prefix, dtype=np.int64))
        for prefix in payload["tasks"]
    ]


# ---------------------------------------------------------------------------
# weighted matching: per-class filtering maximal matching (Corollary 1.4)
# ---------------------------------------------------------------------------


@kernel("weighted.filtering")
def _weighted_filtering(ctx, payload: Any) -> List[Tuple[list, int]]:
    """Run the LMSV11 filtering maximal matching on one weight class.

    Tasks are ``(n, edges, words_per_machine, seed, sizes)``; the
    per-class seed and the chunk plan ``sizes`` (``None`` = unchunked)
    come from the driver, so the run is a pure function of the task.
    """
    from repro.core.weighted_matching import _filter_class

    results = []
    for n, edges, words_per_machine, class_seed, sizes in payload["tasks"]:
        matching, rounds = _filter_class(
            n, edges, words_per_machine, class_seed, sizes
        )
        results.append((sorted(matching), rounds))
    return results
