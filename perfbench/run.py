#!/usr/bin/env python3
"""Benchmark of the MPC MIS / matching / vertex-cover reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  ``--repeat K`` is the steadiness report: it runs the workload K
times in fresh processes and prints, per metric, the median, quartiles
and (max - min) / median, raw and host-normalized.  The last line of a
normal run is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was valid.
"""

# Cap BLAS/OpenMP threads before anything imports NumPy: the timed code is
# single-threaded per process, and a BLAS pool would compete with the
# executor's workers for the same cores.
import os

for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25.0
WORKLOAD_NAMES = ("oneshot", "parallel", "serve")


def _commit() -> str:
    """The checkout's commit, or "unknown" outside a git repository.

    The ceiling keeps git from reporting an enclosing repository's commit
    when the checkout itself is a plain export.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _stamp() -> Dict[str, Any]:
    import numpy

    from calib import CALIB_REF

    return {
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calib_ref_s": CALIB_REF,
    }


def run_once(args: argparse.Namespace) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from spans import Tracer
    from workloads import END_TO_END, PER_LAYER, WORKER_NOTE, WORKLOADS, quantile

    stamp = _stamp()
    tracer = Tracer() if args.trace else None
    outcome = WORKLOADS[args.workload](
        args.workload, args.seed, args.seconds, tracer, ROOT
    )
    correct = outcome.failed == 0 and outcome.consistent
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} stamp={json.dumps(stamp)}"
    )
    metrics: Dict[str, Dict[str, Any]] = {}
    detail: Dict[str, Any] = {
        "stamp": stamp,
        "raw": {},
        "samples": {},
        "rounds": dict(outcome.rounds),
        "setup_steps": {
            name[len("setup."):]: statistics.median(values)
            for name, values in outcome.ref.items()
            if name.startswith("setup.")
        },
        "errors": outcome.errors[:20],
    }
    if tracer is None:
        for name, unit in END_TO_END.items():
            value, raw, count = outcome.value(name)
            metrics[name] = {"value": value, "unit": unit}
            detail["raw"][name] = raw
            detail["samples"][name] = count
            print(f"  {name:<16} {value:12.6f} {unit:<6} raw {raw:.6f}  n={count}")
        if args.workload == "serve":
            for kind in ("update", "read", "snapshot"):
                for q in (0.5, 0.9):
                    label = f"{kind}_p{int(q * 100)}_ms"
                    detail["raw"][label] = 1000.0 * quantile(outcome.raw[kind], q)
                    detail[label] = 1000.0 * quantile(outcome.ref[kind], q)
                    detail["samples"][label] = len(outcome.ref[kind])
                    print(
                        f"  {label:<16} {detail[label]:12.6f} ms     "
                        f"raw {detail['raw'][label]:.6f}  n={len(outcome.ref[kind])}"
                    )
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"
        )
        tracer.write(spans_path)
        detail["spans"] = os.path.relpath(spans_path, ROOT)
        for name, unit in PER_LAYER.items():
            value = outcome.layers[name]
            metrics[name] = {"value": value, "unit": unit}
            note = outcome.notes.get(name)
            suffix = f"  ({note})" if note else ""
            print(f"  {name:<34} {value:14.6f} {unit}{suffix}")
        if args.workload == "parallel":
            print(f"  note: {WORKER_NOTE}")
    print(f"  fail_ratio {outcome.failed}/{outcome.attempted}")
    for error in outcome.errors[:20]:
        print(f"  error: {error}")
    print("perfbench detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _spread_row(values: List[float]) -> str:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    span = (max(values) - min(values)) / median if median else 0.0
    iqr = (q3 - q1) / median if median else 0.0
    return (
        f"median {median:11.6f}  q1 {q1:11.6f}  q3 {q3:11.6f}  "
        f"iqr/med {iqr:6.3f}  (max-min)/med {span:6.3f}"
    )


def steadiness(args: argparse.Namespace) -> int:
    """Run the workload ``--repeat`` times and report per-metric spread."""
    runs: List[Dict[str, Any]] = []
    for index in range(args.repeat):
        seed = args.seed + index if args.vary_seed else args.seed
        done = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                args.workload,
                "--seed",
                str(seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2][len("perfbench detail "):])
        runs.append({"result": result, "detail": detail})
        print(f"run {index + 1}/{args.repeat} seed={seed} done", flush=True)
    if len(runs) < 2:
        print("--repeat needs at least 2 runs", file=sys.stderr)
        return 2
    names = list(runs[0]["result"]["metrics"])
    extra = [key for key in runs[0]["detail"]["raw"] if key not in names]
    print(f"steadiness: workload={args.workload} runs={len(runs)}")
    for name in names + extra:
        raw = [run["detail"]["raw"][name] for run in runs]
        if name in names:
            ref = [run["result"]["metrics"][name]["value"] for run in runs]
        else:
            ref = [run["detail"][name] for run in runs]
        print(f"  {name}")
        print(f"    raw         {_spread_row(raw)}")
        print(f"    normalized  {_spread_row(ref)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0, help="steadiness report over K runs"
    )
    parser.add_argument(
        "--vary-seed",
        action="store_true",
        help="with --repeat: use seeds seed, seed+1, ... instead of one seed",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    from workloads import WORKERS

    if args.workload == "parallel" and (os.cpu_count() or 1) < WORKERS:
        print(
            f"perfbench: parallel needs {WORKERS} CPUs, host has {os.cpu_count()}",
            file=sys.stderr,
        )
        return 2
    if args.repeat:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
