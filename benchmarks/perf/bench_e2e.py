"""End-to-end perf: whole ``solve()`` runs per task × backend on the ladder.

Times the MPC hot-path backends through the façade on the same graph
ladder the kernel suite uses and emits ``BENCH_e2e.json``.  Passing
``--baseline`` embeds a previously captured run (e.g. the pre-vectorization
seed implementation) and computes per-row speedups, so the committed file
carries the before/after evidence.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_e2e.py --rung full \
        --out benchmarks/perf/BENCH_e2e.json [--baseline seed_e2e.json]
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List

if __package__ in (None, ""):
    import os

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perf.common import (
    E2E_RUNGS,
    environment_stamp,
    ladder_graph,
    read_json,
    result_key,
    time_call,
    write_json,
)

SOLVE_SEED = 7
KEY_FIELDS = ("task", "backend", "family", "n")

# The grid: per pair, which families run and up to which n.  The expensive
# pairs are capped so the full rung stays tractable; the caps are part of
# the committed trajectory, so successive PRs compare identical cells.
#
# Since PR 5 the grid covers all five registry backends.  Family choices
# follow each backend's load-bearing regime: the CONGESTED-CLIQUE rows run
# the "dense" family at scale (prefix phases routing Θ(n) volume — at
# average degree 20 the rank schedule is empty and nothing routes), the
# Pregel rows run the sparse families (message volume ~ 2m per superstep),
# and the centralized references are capped where their asymptotics bite.
PAIRS: List[Dict[str, Any]] = [
    {"task": "mis", "backend": "mpc", "family": "random", "max_n": 100_000},
    {"task": "mis", "backend": "mpc", "family": "powerlaw", "max_n": 100_000},
    {
        "task": "fractional_matching",
        "backend": "mpc",
        "family": "random",
        "max_n": 50_000,
    },
    {
        "task": "fractional_matching",
        "backend": "mpc",
        "family": "powerlaw",
        "max_n": 20_000,
    },
    {"task": "matching", "backend": "mpc", "family": "random", "max_n": 5_000},
    {
        "task": "mis",
        "backend": "congested_clique",
        "family": "dense",
        "max_n": 50_000,
    },
    {
        "task": "mis",
        "backend": "congested_clique",
        "family": "random",
        "max_n": 5_000,
    },
    {
        "task": "fractional_matching",
        "backend": "congested_clique",
        "family": "random",
        "max_n": 5_000,
    },
    {"task": "mis", "backend": "pregel", "family": "random", "max_n": 50_000},
    # Kept at 5k so successive captures compare identical cells.
    {"task": "mis", "backend": "pregel", "family": "powerlaw", "max_n": 5_000},
    {"task": "matching", "backend": "pregel", "family": "random", "max_n": 5_000},
    {"task": "mis", "backend": "greedy", "family": "random", "max_n": 100_000},
    {"task": "matching", "backend": "greedy", "family": "random", "max_n": 100_000},
    {
        "task": "fractional_matching",
        "backend": "central",
        "family": "random",
        "max_n": 5_000,
    },
    {"task": "matching", "backend": "central", "family": "random", "max_n": 1_000},
]


def run_suite(rung: str) -> List[Dict[str, Any]]:
    from repro.api import solve

    results: List[Dict[str, Any]] = []
    for pair in PAIRS:
        for n in E2E_RUNGS[rung]:
            if n > pair["max_n"]:
                continue
            graph = ladder_graph(pair["family"], n)
            holder: Dict[str, Any] = {}

            def run():
                holder["report"] = solve(
                    pair["task"], graph, backend=pair["backend"], seed=SOLVE_SEED
                )

            seconds = time_call(run, repeats=2 if n <= 5_000 else 1)
            report = holder["report"]
            entry = {
                "task": pair["task"],
                "backend": pair["backend"],
                "family": pair["family"],
                "n": n,
                "m": graph.num_edges,
                "seconds": seconds,
                "rounds": report.rounds,
                "size": report.size,
                "valid": report.valid,
            }
            results.append(entry)
            print(
                f"{pair['task']:20s} {pair['backend']:4s} {pair['family']:9s} "
                f"n={n:>7d} {seconds:8.2f}s rounds={report.rounds} "
                f"valid={report.valid}",
                flush=True,
            )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rung", choices=sorted(E2E_RUNGS), default="small")
    parser.add_argument("--out", help="write results JSON to this path")
    parser.add_argument(
        "--label", default="current", help="label recorded in the output"
    )
    parser.add_argument(
        "--baseline",
        help="embed this earlier run (e.g. the seed implementation) and "
        "compute per-row speedups",
    )
    args = parser.parse_args(argv)

    results = run_suite(args.rung)
    payload: Dict[str, Any] = {
        "schema": 1,
        "suite": "e2e",
        "label": args.label,
        "rung": args.rung,
        "environment": environment_stamp(),
        "results": results,
    }
    if args.baseline:
        baseline = read_json(args.baseline)
        payload["seed_baseline"] = {
            "label": baseline.get("label", "seed"),
            "results": baseline["results"],
        }
        reference = {
            result_key(entry, KEY_FIELDS): entry
            for entry in baseline["results"]
        }
        speedups = {}
        for entry in results:
            key = result_key(entry, KEY_FIELDS)
            if key in reference and entry["seconds"] > 0:
                speedups[key] = round(
                    reference[key]["seconds"] / entry["seconds"], 2
                )
        payload["speedup_vs_seed"] = speedups
    if args.out:
        write_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
