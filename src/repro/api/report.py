"""The uniform, serializable outcome of every façade run.

Every ``(task, backend)`` adapter — whatever bespoke dataclass the
underlying entry point returns — is normalized into one frozen
:class:`RunReport`: the solution in a canonical JSON-ready shape, quality
metrics computed from ground-truth validators, the measured round count,
the seed and config snapshot that reproduce the run, and wall time.
``to_json`` / ``from_json`` round-trip exactly, which is what lets
:func:`repro.api.solve_many` stream results as JSONL and lets sweeps be
analyzed offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

# Solution kinds determine the canonical JSON shape of ``solution``.
VERTEX_SET = "vertex_set"  # sorted list of ints
EDGE_SET = "edge_set"  # sorted list of [u, v] pairs, u < v
FRACTIONAL = "fractional"  # sorted list of [u, v, x] triples, u < v

_SOLUTION_KINDS = (VERTEX_SET, EDGE_SET, FRACTIONAL)

# Serialization schema of RunReport.to_dict/to_json.  Version 1 is the
# pre-verification shape (no ``schema``/``total_comm_words``/
# ``verification`` keys); version 2 added those fields.  ``from_dict``
# accepts every listed version and rejects anything else, so JSONL written
# by a future incompatible layout fails loudly instead of loading with
# silently-dropped fields.
SCHEMA_VERSION = 2
_SUPPORTED_SCHEMAS = (1, 2)


def canonical_solution(kind: str, solution: Any) -> Any:
    """Normalize a solver's raw solution into its canonical JSON shape.

    Sorted in NumPy and listed from ``tolist`` columns: no per-element
    ``int``/``float`` calls, no ``sorted`` over Python triples.  Edges
    sort by ``(u, v)``, as ``sorted`` orders the lists.
    """
    if kind == VERTEX_SET:
        if not isinstance(solution, np.ndarray):
            solution = np.fromiter(solution, dtype=np.int64)
        return np.sort(solution.astype(np.int64, copy=False)).tolist()
    if kind not in (EDGE_SET, FRACTIONAL):
        raise ValueError(f"unknown solution kind {kind!r}")
    ends = np.fromiter(
        chain.from_iterable(solution), dtype=np.int64, count=2 * len(solution)
    ).reshape(-1, 2)
    lo = np.minimum(ends[:, 0], ends[:, 1])
    hi = np.maximum(ends[:, 0], ends[:, 1])
    order = np.lexsort((hi, lo))
    columns = [lo[order].tolist(), hi[order].tolist()]
    if kind == FRACTIONAL:
        x = np.fromiter(solution.values(), dtype=np.float64, count=len(solution))
        columns.append(x[order].tolist())
    return list(map(list, zip(*columns)))


@dataclass(frozen=True)
class RunReport:
    """One façade run, fully described and serializable.

    Attributes
    ----------
    task / backend:
        The registry pair that produced this report.
    n / num_edges:
        Input graph size.
    solution_kind:
        One of ``"vertex_set"``, ``"edge_set"``, ``"fractional"``.
    solution:
        The canonical solution (see :func:`canonical_solution`).
    metrics:
        Quality metrics from ground-truth validators (``valid``, sizes,
        weights; task-dependent).
    rounds:
        Measured rounds of the model the backend runs in (0 for
        centralized baselines, which have no round notion).
    max_machine_words:
        Hottest single-machine load in words.  The mpc backends report
        :meth:`MPCCluster.peak_words <repro.mpc.cluster.MPCCluster.peak_words>`
        (stored residency, or one round's inbox or broadcast) on every
        run, governed or not; pregel reports its largest per-machine
        message volume and the congested-clique backends count messages.
        0 means only that the backend has no ``MPCCluster``.
    seed:
        The seed the run was invoked with (``None`` means the library's
        deterministic default).
    config:
        JSON snapshot of the resolved config dataclass (empty dict when
        the backend takes no config).
    wall_time_s:
        Wall-clock seconds spent inside the solver call.
    peak_rss_bytes:
        Peak resident-set size of the process after the solver call
        (``ru_maxrss``; 0 when the platform cannot measure it).  Facade
        sweeps thereby double as perf data — every JSONL row carries its
        wall-clock and memory high-water mark.
    total_comm_words:
        Total words communicated across all machines over the whole run,
        as the backend's ``MPCCluster`` metered it, governed or not (the
        congested-clique backends count messages).  0 means only that the
        backend has no ``MPCCluster``.
    verification:
        Serialized :class:`repro.verify.Certificate` when the run was
        invoked with ``verify=`` — invariant checks, oracle ratios, and
        round/memory budget audits (empty dict when verification was not
        requested).
    extras:
        Backend-specific measurements (prefix phases, Lenzen volumes,
        supersteps, ...) preserved for experiment tables.
    schema:
        Serialization schema version (see :data:`SCHEMA_VERSION`).
    """

    task: str
    backend: str
    n: int
    num_edges: int
    solution_kind: str
    solution: Any
    metrics: Dict[str, Any] = field(default_factory=dict)
    rounds: int = 0
    max_machine_words: int = 0
    seed: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    peak_rss_bytes: int = 0
    total_comm_words: int = 0
    verification: Dict[str, Any] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.solution_kind not in _SOLUTION_KINDS:
            raise ValueError(
                f"solution_kind must be one of {_SOLUTION_KINDS}, "
                f"got {self.solution_kind!r}"
            )
        if self.schema not in _SUPPORTED_SCHEMAS:
            raise ValueError(
                f"unsupported RunReport schema version {self.schema!r}; "
                f"supported: {_SUPPORTED_SCHEMAS}"
            )

    # -- solution accessors -------------------------------------------------

    def vertex_set(self) -> Set[int]:
        """The solution as a vertex set (``vertex_set`` reports only)."""
        if self.solution_kind != VERTEX_SET:
            raise TypeError(f"solution is {self.solution_kind}, not a vertex set")
        return set(self.solution)

    def edge_set(self) -> Set[Tuple[int, int]]:
        """The solution as a set of canonical edges (``edge_set`` only)."""
        if self.solution_kind != EDGE_SET:
            raise TypeError(f"solution is {self.solution_kind}, not an edge set")
        return {(u, v) for u, v in self.solution}

    def edge_weights(self) -> Dict[Tuple[int, int], float]:
        """The solution as an edge-weight map (``fractional`` only)."""
        if self.solution_kind != FRACTIONAL:
            raise TypeError(f"solution is {self.solution_kind}, not fractional")
        return {(u, v): x for u, v, x in self.solution}

    @property
    def valid(self) -> bool:
        """Whether the ground-truth validator accepted the solution."""
        return bool(self.metrics.get("valid", False))

    @property
    def verified(self) -> bool:
        """Whether a verification certificate was recorded and fully passed."""
        return bool(self.verification.get("ok", False))

    @property
    def size(self) -> int:
        """Cardinality of the solution (vertices, edges, or support)."""
        return len(self.solution)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict snapshot, safe for ``json.dumps``."""
        return {
            "task": self.task,
            "backend": self.backend,
            "n": self.n,
            "num_edges": self.num_edges,
            "solution_kind": self.solution_kind,
            "solution": self.solution,
            "metrics": dict(self.metrics),
            "rounds": self.rounds,
            "max_machine_words": self.max_machine_words,
            "seed": self.seed,
            "config": dict(self.config),
            "wall_time_s": self.wall_time_s,
            "peak_rss_bytes": self.peak_rss_bytes,
            "total_comm_words": self.total_comm_words,
            "verification": dict(self.verification),
            "extras": dict(self.extras),
            "schema": self.schema,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string (one line by default, for JSONL)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        Payloads without a ``schema`` key are version-1 rows (pre-dating
        the field); any version outside :data:`_SUPPORTED_SCHEMAS` raises
        ``ValueError`` rather than deserializing a shape this code does
        not understand.
        """
        schema = payload.get("schema", 1)
        if schema not in _SUPPORTED_SCHEMAS:
            raise ValueError(
                f"unsupported RunReport schema version {schema!r}; "
                f"supported: {_SUPPORTED_SCHEMAS}"
            )
        solution_kind = payload["solution_kind"]
        raw = payload["solution"]
        if solution_kind == VERTEX_SET:
            solution = [int(v) for v in raw]
        elif solution_kind == EDGE_SET:
            solution = [[int(u), int(v)] for u, v in raw]
        else:
            solution = [[int(u), int(v), float(x)] for u, v, x in raw]
        return cls(
            task=payload["task"],
            backend=payload["backend"],
            n=int(payload["n"]),
            num_edges=int(payload["num_edges"]),
            solution_kind=solution_kind,
            solution=solution,
            metrics=dict(payload.get("metrics", {})),
            rounds=int(payload.get("rounds", 0)),
            max_machine_words=int(payload.get("max_machine_words", 0)),
            seed=payload.get("seed"),
            config=dict(payload.get("config", {})),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            peak_rss_bytes=int(payload.get("peak_rss_bytes", 0)),
            total_comm_words=int(payload.get("total_comm_words", 0)),
            verification=dict(payload.get("verification", {})),
            extras=dict(payload.get("extras", {})),
            # Older payloads are upgraded in memory: absent fields take
            # their defaults, so the loaded object is always current-shape.
            schema=SCHEMA_VERSION,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def summary_row(self) -> Dict[str, Any]:
        """A compact row for experiment tables (solution elided)."""
        row: Dict[str, Any] = {
            "task": self.task,
            "backend": self.backend,
            "n": self.n,
            "m": self.num_edges,
            "size": self.size,
            "rounds": self.rounds,
            "valid": self.valid,
            "seed": self.seed,
            "wall_time_s": round(self.wall_time_s, 4),
            "peak_rss_mb": round(self.peak_rss_bytes / 2**20, 1),
        }
        for key in ("weight", "ratio"):
            if key in self.metrics:
                row[key] = self.metrics[key]
        if self.verification:
            row["verified"] = self.verified
        return row
