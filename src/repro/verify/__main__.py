"""Command-line conformance runner for the verification subsystem.

Examples::

    python -m repro.verify --tasks all --backends all
    python -m repro.verify --tasks mis,matching --families gnp_sparse,grid \\
        --sizes 64,128 --seeds 0,1,2 --alpha 0.9 --jsonl verified.jsonl

Exit status is 0 iff every run certified (validity, oracle ratios,
round/memory/communication budgets) *and* every cross-backend agreement
band held.  ``--jsonl`` streams each verified RunReport for offline
analysis with :func:`repro.api.read_jsonl`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.api.__main__ import _parse_governance
from repro.verify.budgets import BudgetPolicy
from repro.verify.differential import (
    DEFAULT_FAMILIES,
    FAMILIES,
    differential_sweep,
)


def _csv(text: str) -> List[str]:
    return [item for item in text.split(",") if item]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.verify",
        description="Differential-oracle + paper-budget conformance sweep.",
    )
    parser.add_argument(
        "--tasks", default="all", help="'all' or comma-separated task names"
    )
    parser.add_argument(
        "--backends", default="all", help="'all' or comma-separated backends"
    )
    parser.add_argument(
        "--families",
        default=",".join(DEFAULT_FAMILIES),
        help=f"comma-separated graph families (known: {', '.join(sorted(FAMILIES))})",
    )
    parser.add_argument(
        "--sizes", default="32,64", help="comma-separated instance sizes"
    )
    parser.add_argument(
        "--seeds", default="0,1", help="comma-separated seeds"
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=1.0,
        help="memory exponent of S = memory_factor * n^alpha (default 1.0)",
    )
    parser.add_argument(
        "--memory-factor",
        type=float,
        default=8.0,
        help="constant in the memory budget (default 8.0)",
    )
    parser.add_argument(
        "--loglog-factor",
        type=float,
        default=8.0,
        help="constant in the O(log log n) round budget (default 8.0)",
    )
    parser.add_argument(
        "--rounds-offset",
        type=float,
        default=8.0,
        help="additive slack of the round budgets (default 8.0)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help=(
            "per-machine memory budget in units of n threaded into every "
            "run (pair with a matching --memory-factor so the certificate "
            "audits the same cap the run was given)"
        ),
    )
    parser.add_argument(
        "--governance",
        default=None,
        metavar="JSON",
        help=(
            "govern every run (repro.govern): GovernancePolicy fields as "
            "JSON ('{}' = defaults, 'off' = disabled); with adversarial "
            "families + a tight --budget this is the cell where ungoverned "
            "runs abort and governed runs must still certify"
        ),
    )
    parser.add_argument(
        "--jsonl", default=None, help="stream verified reports to this file"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    policy = BudgetPolicy(
        loglog_factor=args.loglog_factor,
        rounds_offset=args.rounds_offset,
        alpha=args.alpha,
        memory_factor=args.memory_factor,
    )
    tasks = "all" if args.tasks == "all" else _csv(args.tasks)
    backends = "all" if args.backends == "all" else _csv(args.backends)

    stream = open(args.jsonl, "w", encoding="utf-8") if args.jsonl else None

    def on_report(report) -> None:
        if stream is not None:
            stream.write(report.to_json() + "\n")
            stream.flush()

    try:
        outcome = differential_sweep(
            tasks,
            backends,
            families=_csv(args.families),
            sizes=[int(s) for s in _csv(args.sizes)],
            seeds=[int(s) for s in _csv(args.seeds)],
            policy=policy,
            budget=args.budget,
            governance=_parse_governance(args.governance),
            on_report=on_report,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if stream is not None:
            stream.close()

    print(
        format_table(
            outcome.summary_rows(),
            title=f"verify: {outcome.runs} runs, {len(outcome.failures)} failures",
        )
    )
    if outcome.failures:
        print(f"\n{len(outcome.failures)} failures:", file=sys.stderr)
        for failure in outcome.failures:
            print(f"  {failure.to_dict()}", file=sys.stderr)
        return 1
    if args.jsonl:
        print(f"\nwrote {len(outcome.reports)} verified reports to {args.jsonl}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
