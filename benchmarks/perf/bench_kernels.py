"""Microbenchmarks: CSR kernels vs their set-based Graph equivalents.

Each kernel is timed on a graph-size ladder (random + power-law families)
in both implementations; results land in ``BENCH_kernels.json``.  The CI
small rung replays this file with ``--check`` against the committed
baseline and fails on a >2x regression of any CSR kernel timing.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_kernels.py --rung full \
        --out benchmarks/perf/BENCH_kernels.json
    PYTHONPATH=src python benchmarks/perf/bench_kernels.py --rung small \
        --check benchmarks/perf/BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

if __package__ in (None, ""):
    import os

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perf.common import (
    GRAPH_SEED,
    KERNEL_RUNGS,
    environment_stamp,
    ladder_graph,
    read_json,
    repeats_for,
    result_key,
    time_call,
    write_json,
)
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

KEY_FIELDS = ("kernel", "family", "n")

# A kernel whose set/CSR speedup ratio drops below half the committed
# baseline ratio fails CI.  Comparing the machine-local *ratio* (not
# absolute wall-clock) keeps the gate meaningful when the baseline was
# generated on different hardware than the CI runner.
REGRESSION_FACTOR = 2.0


def _half_mask(n: int) -> Tuple[np.ndarray, set]:
    """A deterministic 50% vertex subset as (bool mask, python set)."""
    rng = random.Random(GRAPH_SEED)
    subset = set(rng.sample(range(n), n // 2))
    mask = np.zeros(n, dtype=bool)
    mask[list(subset)] = True
    return mask, subset


def _centers(n: int) -> List[int]:
    """1% of vertices, deterministic — the neighborhood-deletion batch."""
    rng = random.Random(GRAPH_SEED + 1)
    return sorted(rng.sample(range(n), max(1, n // 100)))


def kernel_cases(
    graph: Graph, csr: CSRGraph
) -> List[Tuple[str, Callable[[], Any], Callable[[], Any]]]:
    """(kernel name, set-based thunk, CSR thunk) for every kernel."""
    n = graph.num_vertices
    mask, subset = _half_mask(n)
    centers = _centers(n)

    def set_degrees():
        return graph.degrees()

    def set_residual_degrees():
        return [
            sum(1 for u in graph.neighbors_view(v) if u in subset)
            if v in subset
            else 0
            for v in range(n)
        ]

    def set_induced_edges():
        return [
            (v, u)
            for v in subset
            for u in graph.neighbors_view(v)
            if u > v and u in subset
        ]

    def set_remove_closed():
        removed = set()
        for v in centers:
            removed.add(v)
            removed |= graph.neighbors_view(v)
        return removed

    # Fixed-size tiny batch: exercises the slice-concatenation fast path
    # below ``SMALL_GATHER_ROWS`` (the n=1k regression in earlier baselines
    # came from paying the ragged-gather arithmetic on ~10 rows).  The 1%
    # case above crosses over to the vectorized gather as n grows; this one
    # pins the small-batch regime at every n.
    small_centers = centers[:8]

    def set_remove_closed_small():
        removed = set()
        for v in small_centers:
            removed.add(v)
            removed |= graph.neighbors_view(v)
        return removed

    def set_count_within():
        return sum(
            1
            for v in subset
            for u in graph.neighbors_view(v)
            if u > v and u in subset
        )

    return [
        ("degrees", set_degrees, lambda: csr.degrees()),
        ("residual_degrees", set_residual_degrees, lambda: csr.degrees(mask)),
        ("induced_edges", set_induced_edges, lambda: csr.induced_edges(mask)),
        (
            "remove_closed_neighborhoods",
            set_remove_closed,
            lambda: csr.remove_closed_neighborhoods(centers),
        ),
        (
            "remove_closed_neighborhoods_small",
            set_remove_closed_small,
            lambda: csr.remove_closed_neighborhoods(small_centers),
        ),
        ("count_edges_within", set_count_within, lambda: csr.count_edges_within(mask)),
    ]


def run_suite(rung: str) -> List[Dict[str, Any]]:
    results: List[Dict[str, Any]] = []
    for family in ("random", "powerlaw"):
        for n in KERNEL_RUNGS[rung]:
            graph = ladder_graph(family, n)
            csr = CSRGraph.from_graph(graph)
            repeats = repeats_for(n)
            for kernel, set_fn, csr_fn in kernel_cases(graph, csr):
                set_s = time_call(set_fn, repeats)
                csr_s = time_call(csr_fn, repeats)
                entry = {
                    "kernel": kernel,
                    "family": family,
                    "n": n,
                    "m": graph.num_edges,
                    "set_s": set_s,
                    "csr_s": csr_s,
                    "speedup": set_s / csr_s if csr_s > 0 else float("inf"),
                }
                results.append(entry)
                print(
                    f"{kernel:28s} {family:9s} n={n:>7d} "
                    f"set={set_s * 1e3:9.3f}ms csr={csr_s * 1e3:9.3f}ms "
                    f"x{entry['speedup']:.1f}",
                    flush=True,
                )
    return results


def check_against_baseline(results: List[Dict[str, Any]], baseline_path: str) -> int:
    """Compare set/CSR speedup ratios to the committed baseline; 1 on regression.

    Both the fresh run and the baseline time the set-based and CSR
    implementations on the *same* machine, so their ratio cancels machine
    speed; a CSR kernel that regressed >2x relative to the set reference
    shows up on any hardware.
    """
    baseline = read_json(baseline_path)
    reference = {
        result_key(entry, KEY_FIELDS): entry for entry in baseline["results"]
    }
    failures = []
    for entry in results:
        key = result_key(entry, KEY_FIELDS)
        if key not in reference:
            continue
        required = reference[key]["speedup"] / REGRESSION_FACTOR
        if entry["speedup"] < required:
            failures.append(
                f"{key}: speedup x{entry['speedup']:.2f} < required "
                f"x{required:.2f} (baseline x{reference[key]['speedup']:.2f} "
                f"/ {REGRESSION_FACTOR})"
            )
    if failures:
        print("PERF REGRESSION (>2x vs committed BENCH_kernels.json):")
        for line in failures:
            print("  " + line)
        return 1
    print(
        f"perf check OK: {len(results)} kernel speedups within "
        f"{REGRESSION_FACTOR}x of the committed baseline ratios"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rung", choices=sorted(KERNEL_RUNGS), default="small")
    parser.add_argument("--out", help="write results JSON to this path")
    parser.add_argument(
        "--check",
        help="compare against this committed baseline; exit 1 on >2x regression",
    )
    args = parser.parse_args(argv)

    results = run_suite(args.rung)
    if args.out:
        write_json(
            args.out,
            {
                "schema": 1,
                "suite": "kernels",
                "rung": args.rung,
                "environment": environment_stamp(),
                "regression_factor": REGRESSION_FACTOR,
                "results": results,
            },
        )
        print(f"wrote {args.out}")
    if args.check:
        return check_against_baseline(results, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
