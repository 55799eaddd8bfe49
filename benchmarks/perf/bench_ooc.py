"""Out-of-core perf rung: bounded-RSS solves on mmap-backed graphs.

Each cell is measured in **two fresh subprocesses** — one builds the
on-disk CSR from a streamed edge list, one loads it and solves — because
``ru_maxrss`` is a process-lifetime high-water mark: a build touching
every edge in RAM would otherwise mask the solve's residency, and the
whole point of this suite is the claim that solve-side peak RSS stays
far below the on-disk edge bytes (OUT_OF_CORE.md).  Every result row
therefore carries ``peak_rss_bytes`` (the solve subprocess's high-water,
covering load + solve + validation) next to ``indices_file_bytes`` (the
on-disk denominator), and ``tools/bench_diff.py --fail-rss-over`` gates
on it.

Solves draw from the counter generator, the only one the MPC solvers
use; cells keep their ``"rng": "counter"`` stamp so older baselines stay
comparable.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_ooc.py --rung small \
        --out benchmarks/perf/BENCH_ooc.json [--workdir DIR] [--keep]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perf.common import (  # noqa: E402
    AVERAGE_DEGREE,
    GRAPH_SEED,
    SCHEMA_VERSION,
    environment_stamp,
    peak_rss_bytes,
    read_json,
    write_json,
)

SOLVE_SEED = 7

# (task, family, n) cells per rung.  "small" is the CI smoke rung; "full"
# adds the committed trajectory up to the n=10M headline cell.  The
# fractional task is capped at 500k: its output is a Θ(m) Python weight
# dict (every surviving edge carries a weight), so unlike MIS it has no
# o(m)-resident output representation to stream into — documented in
# OUT_OF_CORE.md.
OOC_RUNGS: Dict[str, List[Tuple[str, str, int]]] = {
    "small": [
        ("mis", "random", 200_000),
        ("fractional_matching", "random", 50_000),
    ],
    "full": [
        ("mis", "random", 200_000),
        ("fractional_matching", "random", 50_000),
        ("fractional_matching", "random", 500_000),
        ("mis", "powerlaw", 1_000_000),
        ("mis", "random", 10_000_000),
    ],
}


def _run_child(args: List[str]) -> Dict[str, Any]:
    """Run this script in a child mode and parse its JSON stdout."""
    command = [sys.executable, os.path.abspath(__file__)] + args
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"child {' '.join(args[:2])} failed with code {proc.returncode}"
        )
    return json.loads(proc.stdout)


def prepare_cell(family: str, n: int, directory: str) -> None:
    """Child mode: stream-generate the edge list and build the disk CSR."""
    from repro.ooc import build_mmap_csr, write_edge_list

    edge_path = os.path.join(directory, "edges.txt")
    started = time.perf_counter()
    write_edge_list(
        edge_path, family, n, float(AVERAGE_DEGREE), GRAPH_SEED + n
    )
    generated = time.perf_counter() - started
    started = time.perf_counter()
    graph = build_mmap_csr(edge_path, directory)
    built = time.perf_counter() - started
    os.unlink(edge_path)  # the text form is scaffolding, not the artifact
    print(
        json.dumps(
            {
                "generate_seconds": generated,
                "build_seconds": built,
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "indices_file_bytes": graph.indices_file_bytes,
                "peak_rss_bytes": peak_rss_bytes(),
            }
        )
    )


def solve_cell(task: str, directory: str) -> None:
    """Child mode: load the mmap graph, solve, validate, report."""
    from repro.api import solve
    from repro.ooc import load_csr

    graph = load_csr(directory)
    report = solve(task, graph, backend="mpc", seed=SOLVE_SEED)
    print(
        json.dumps(
            {
                "seconds": report.wall_time_s,
                "rounds": report.rounds,
                "solution_size": report.size,
                "valid": report.valid,
                # No solver has an rng knob any more: always counter.
                "rng": "counter",
                # Read at the very end so load, solve, AND ground-truth
                # validation are all under the high-water mark.
                "peak_rss_bytes": peak_rss_bytes(),
            }
        )
    )


def run_suite(rung: str, out: str, workdir: str, keep: bool) -> None:
    results: List[Dict[str, Any]] = []
    for task, family, n in OOC_RUNGS[rung]:
        cell_dir = os.path.join(workdir, f"{family}_{n}")
        if not os.path.exists(os.path.join(cell_dir, "header.json")):
            os.makedirs(cell_dir, exist_ok=True)
            built = _run_child(
                ["--prepare-cell", family, str(n), cell_dir]
            )
            write_json(os.path.join(cell_dir, "build.json"), built)
        else:
            built = read_json(os.path.join(cell_dir, "build.json"))
        solved = _run_child(["--solve-cell", task, cell_dir])
        row: Dict[str, Any] = {"task": task, "family": family, "n": n}
        row.update(solved)
        row["generate_seconds"] = built["generate_seconds"]
        row["build_seconds"] = built["build_seconds"]
        row["build_peak_rss_bytes"] = built["peak_rss_bytes"]
        row["num_edges"] = built["num_edges"]
        row["indices_file_bytes"] = built["indices_file_bytes"]
        row["rss_over_indices"] = round(
            row["peak_rss_bytes"] / max(1, row["indices_file_bytes"]), 4
        )
        results.append(row)
        print(
            f"{task}/{family}/{n}: solve {row['seconds']:.2f}s  "
            f"rss {row['peak_rss_bytes'] / 2**20:.0f} MiB  "
            f"indices {row['indices_file_bytes'] / 2**20:.0f} MiB  "
            f"valid={row['valid']}",
            file=sys.stderr,
        )
    # Graph dirs are shared between same-(family, n) cells, so cleanup
    # happens after the whole rung.
    if not keep:
        for task, family, n in OOC_RUNGS[rung]:
            shutil.rmtree(os.path.join(workdir, f"{family}_{n}"), True)
    write_json(
        out,
        {
            "suite": "ooc",
            "schema": SCHEMA_VERSION,
            "rung": rung,
            "seed": SOLVE_SEED,
            "rng": "counter",
            "avg_degree": AVERAGE_DEGREE,
            "environment": environment_stamp(),
            "results": results,
        },
    )
    print(f"wrote {out} ({len(results)} cells)", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rung", choices=sorted(OOC_RUNGS), default="small")
    parser.add_argument("--out", default="benchmarks/perf/BENCH_ooc.json")
    parser.add_argument(
        "--workdir",
        default=None,
        help="directory for the on-disk graphs (default: a fresh tempdir)",
    )
    parser.add_argument(
        "--keep", action="store_true", help="keep the built graph dirs"
    )
    # Child modes (internal): one cell step per process so ru_maxrss
    # measures exactly that step.
    parser.add_argument("--prepare-cell", nargs=3, metavar=("FAMILY", "N", "DIR"))
    parser.add_argument("--solve-cell", nargs=2, metavar=("TASK", "DIR"))
    args = parser.parse_args(argv)
    if args.prepare_cell:
        family, n, directory = args.prepare_cell
        prepare_cell(family, int(n), directory)
        return 0
    if args.solve_cell:
        task, directory = args.solve_cell
        solve_cell(task, directory)
        return 0
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench-ooc-")
    run_suite(args.rung, args.out, workdir, args.keep)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
