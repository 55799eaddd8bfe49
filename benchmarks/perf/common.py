"""Shared plumbing for the perf harness: graph ladder, timing, JSON I/O."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.graph.generators import barabasi_albert, gnp_random_graph  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402

SCHEMA_VERSION = 1
GRAPH_SEED = 20180723  # PODC'18; fixed so every run times identical graphs.

# Size ladder per rung.  "small" is the CI rung; "full" is the committed
# trajectory (n = 1k -> 100k for kernels, capped lower for e2e runs).
KERNEL_RUNGS: Dict[str, List[int]] = {
    "small": [1_000, 5_000],
    "full": [1_000, 5_000, 20_000, 50_000, 100_000],
}
E2E_RUNGS: Dict[str, List[int]] = {
    "small": [1_000, 5_000],
    "full": [1_000, 5_000, 20_000, 50_000],
}

AVERAGE_DEGREE = 20  # target average degree for the sparse families
DENSE_DEGREE = 500  # average degree of the "dense" routing-bound family


def ladder_graph(family: str, n: int) -> Graph:
    """The deterministic benchmark graph for ``(family, n)``.

    ``random`` is Erdős–Rényi with average degree ~20; ``powerlaw`` is
    Barabási–Albert with attachment 10 (also average degree ~20), the
    heterogeneous-degree "social network" workload.  ``dense`` is
    Erdős–Rényi with average degree ~500 — the regime where the
    CONGESTED-CLIQUE prefix phases actually route Θ(n) edge volume per
    phase (at degree ~20 the rank schedule is empty and the run is all
    sparsified finish).  ``powerlaw-a5`` is Barabási–Albert with
    attachment 5 (average degree ~10): sparse, but its hubs put the
    maximum degree above MPC-Simulation's degree floor, so its compressed
    phases still run, which they do not on ``random``.
    """
    if family == "random":
        p = min(1.0, AVERAGE_DEGREE / max(1, n - 1))
        return gnp_random_graph(n, p, seed=GRAPH_SEED + n)
    if family == "powerlaw":
        return barabasi_albert(n, AVERAGE_DEGREE // 2, seed=GRAPH_SEED + n)
    if family == "powerlaw-a5":
        return barabasi_albert(n, AVERAGE_DEGREE // 4, seed=GRAPH_SEED + n)
    if family == "dense":
        p = min(1.0, DENSE_DEGREE / max(1, n - 1))
        return gnp_random_graph(n, p, seed=GRAPH_SEED + n)
    raise ValueError(f"unknown graph family {family!r}")


def time_call(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def repeats_for(n: int) -> int:
    """More repeats at small sizes, where timer noise dominates."""
    if n <= 5_000:
        return 5
    if n <= 20_000:
        return 3
    return 2


def peak_rss_bytes() -> int:
    """Peak resident-set size (self + reaped children), in bytes.

    ``ru_maxrss`` is a process-lifetime high-water mark — suites that
    need a per-cell reading (the out-of-core rung, whose whole point is
    a bounded-RSS claim) must run each cell in its own subprocess and
    report that child's value.  Matches the normalization of
    ``RunReport.peak_rss_bytes``: macOS reports bytes, the other POSIX
    platforms kibibytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    unit = 1 if sys.platform == "darwin" else 1024
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(peak * unit)


def _commit() -> str:
    """The checked-out commit, or ``"unknown"`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment_stamp() -> Dict[str, Any]:
    """Provenance recorded into every BENCH_*.json."""
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        # Scaling suites are meaningless without this: parallel speedup
        # is capped by the cores actually available to the run.
        "cpu_count": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1),
    }


def write_json(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")


def read_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def result_key(entry: Dict[str, Any], fields: Tuple[str, ...]) -> str:
    return "/".join(str(entry[field]) for field in fields)
