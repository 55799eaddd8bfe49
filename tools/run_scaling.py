"""Scaling benchmark for ``repro.dist``: parallel executor vs local.

Times the MPC solvers through the façade with ``executor="local"`` (the
same kernels on in-process workers) and ``executor="parallel"`` at several
worker counts, on the same deterministic graph ladder the other perf
suites use, and emits ``BENCH_dist.json`` (suite ``"dist"``; cells keyed
``task/family/n/mode`` with mode ``local`` or ``parallel-wK``).

Every timed parallel run is also a parity check: the solution and round
count must match the local run byte-for-byte, so the committed speedup
table doubles as evidence that the distribution is output-preserving.

Interpret results against ``environment.cpu_count`` in the output: on a
single-core host, ``parallel-wK`` for K > 1 only adds scheduling
overhead over ``parallel-w1`` and can never beat it — the multi-worker
cells are still worth committing (they pin the overhead and the parity),
but scaling conclusions require multi-core hardware.  See
DISTRIBUTED.md, "Scaling".

Usage::

    PYTHONPATH=src python tools/run_scaling.py --rung full \
        --out benchmarks/perf/BENCH_dist.json
    PYTHONPATH=src python tools/run_scaling.py --rung small --workers 2 \
        --out /tmp/dist_smoke.json          # the CI smoke invocation
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(_REPO_ROOT, "benchmarks"))

from perf.common import (  # noqa: E402
    environment_stamp,
    ladder_graph,
    time_call,
    write_json,
)

from repro.api import solve  # noqa: E402
from repro.dist import DistExecutor, MultiprocessTransport  # noqa: E402

SOLVE_SEED = 7
KEY_FIELDS = ("task", "family", "n", "mode")

# The grid.  fractional_matching is the subsystem every other MPC solver
# funnels through (matching/vertex_cover/one_plus_eps run it as passes),
# so it carries the ladder; the matching row at 20k is the headline cell —
# ~650 direct-simulation iterations, the workload distribution exists for.
RUNGS: Dict[str, List[Dict[str, Any]]] = {
    "small": [
        {"task": "fractional_matching", "family": "random", "n": 5_000},
    ],
    "full": [
        {"task": "fractional_matching", "family": "random", "n": 5_000},
        {"task": "fractional_matching", "family": "random", "n": 20_000},
        {"task": "fractional_matching", "family": "random", "n": 50_000},
        {"task": "matching", "family": "random", "n": 20_000},
    ],
}


def _repeats(n: int) -> int:
    return 3 if n <= 5_000 else 2


def _snapshot(report) -> Dict[str, Any]:
    """The parity-relevant slice of a run report."""
    data = json.loads(report.to_json())
    data.pop("wall_time_s")
    data.pop("peak_rss_bytes")
    data.get("extras", {}).pop("executor", None)
    return data


def run_cell(
    case: Dict[str, Any], workers_list: List[int]
) -> List[Dict[str, Any]]:
    task, family, n = case["task"], case["family"], case["n"]
    graph = ladder_graph(family, n)
    repeats = _repeats(n)

    def timed(executor) -> float:
        return time_call(
            lambda: solve(
                task, graph, backend="mpc", seed=SOLVE_SEED, executor=executor
            ),
            repeats,
        )

    rows: List[Dict[str, Any]] = []
    local_reference = _snapshot(
        solve(task, graph, backend="mpc", seed=SOLVE_SEED, executor="local")
    )
    local_seconds = timed("local")
    rows.append(
        {
            "task": task,
            "family": family,
            "n": n,
            "mode": "local",
            "workers": 0,
            "seconds": local_seconds,
            "speedup_vs_local": 1.0,
        }
    )
    print(f"{task}/{family}/{n}: local {local_seconds:.3f}s", flush=True)

    for workers in workers_list:
        # One persistent worker pool per mode: the per-cell repeats reuse
        # it, so process startup is amortized exactly as a long-lived
        # deployment would amortize it.
        with DistExecutor(
            MultiprocessTransport(workers), kind="parallel"
        ) as executor:
            parallel = _snapshot(
                solve(
                    task, graph, backend="mpc", seed=SOLVE_SEED, executor=executor
                )
            )
            if parallel != local_reference:
                raise SystemExit(
                    f"PARITY FAILURE: {task}/{family}/{n} with "
                    f"workers={workers} diverged from the local run"
                )
            seconds = timed(executor)
        rows.append(
            {
                "task": task,
                "family": family,
                "n": n,
                "mode": f"parallel-w{workers}",
                "workers": workers,
                "seconds": seconds,
                "speedup_vs_local": local_seconds / seconds if seconds else 0.0,
            }
        )
        print(
            f"{task}/{family}/{n}: parallel-w{workers} {seconds:.3f}s "
            f"(x{local_seconds / seconds:.2f} vs local, parity OK)",
            flush=True,
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rung", choices=sorted(RUNGS), default="small")
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to time (each also parity-checked vs local)",
    )
    parser.add_argument("--out", required=True, help="output BENCH JSON path")
    parser.add_argument(
        "--allow-oversubscribed",
        action="store_true",
        help="proceed even when a worker count exceeds the host's CPUs "
        "(the timings then measure scheduling contention, not scaling)",
    )
    args = parser.parse_args(argv)

    # Refuse to produce a "scaling" table that is actually a contention
    # table: with more workers than CPUs, parallel-wK cells time the
    # scheduler, and committing them as scaling evidence is worse than
    # committing nothing.  Checked before any cell runs so the refusal
    # costs nothing.
    cpu_count = os.cpu_count() or 1
    oversubscribed = [w for w in args.workers if w > cpu_count]
    if oversubscribed and not args.allow_oversubscribed:
        parser.error(
            f"worker count(s) {oversubscribed} exceed this host's "
            f"{cpu_count} CPU(s); scaling conclusions would be invalid. "
            "Drop --workers values or pass --allow-oversubscribed to "
            "measure contention deliberately."
        )

    results: List[Dict[str, Any]] = []
    for case in RUNGS[args.rung]:
        results.extend(run_cell(case, args.workers))

    write_json(
        args.out,
        {
            "suite": "dist",
            "schema_version": 1,
            "rung": args.rung,
            "seed": SOLVE_SEED,
            "environment": environment_stamp(),
            "results": results,
        },
    )
    print(f"wrote {len(results)} cells to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
