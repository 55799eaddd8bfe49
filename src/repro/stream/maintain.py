"""Incremental solution maintenance: repair locally, re-solve when damaged.

One :class:`Maintainer` per task keeps a solution valid across a stream of
:class:`~repro.stream.updates.EdgeBatch` edits.  The contract every
subclass honours:

* after :meth:`Maintainer.step` returns, the maintained solution is
  **valid and maximal** for the *current* graph — exactly the invariants
  :mod:`repro.verify.checkers` certifies, so every epoch is checkable;
* repair work is localized to the *damaged region* (vertices whose
  closed neighborhoods the batch touched).  When that region exceeds
  ``resolve_fraction * n`` the maintainer abandons repair and runs a full
  :func:`repro.api.solve` through the registry — incremental maintenance
  degrades gracefully into the one-shot solver it wraps, never into a
  slow approximation of it.

Repair strategies (all against the freshly compacted CSR, so scans are
vectorized kernels):

* **MIS** — evict one endpoint of every newly-conflicting in-MIS edge,
  then greedily re-decide only the vertices whose closed neighborhood
  changed (deleted-edge endpoints, evicted vertices and their neighbors,
  appended vertices).  Maximality needs no global pass: a vertex whose
  neighborhood did not change was dominated before and still is.
* **Matching** — release the endpoints of deleted matched edges, greedily
  re-match freed vertices inside the damaged region, then try length-3
  augmenting paths from the stragglers.  Maximality is restored because
  any free–free edge of the new graph has a damaged endpoint.
* **Fractional matching** — drop deleted edges' weight, then greedily
  re-saturate every edge incident to a load-deficient vertex
  (``x_e += min(1 - y_u, 1 - y_v)``).  The invariant "every edge has a
  saturated endpoint" is restored each epoch, so the saturated vertices
  form a vertex cover and ``W >= ν / 2`` — comfortably inside the
  ``2 + O(ε)`` band the checkers enforce.  Full re-solves are followed by
  one global saturation pass so adopted solutions satisfy the same
  invariant (the MPC algorithm's output is feasible but not always
  saturated).
* **Vertex cover** — maintained as the endpoint set of the incremental
  maximal matching (the classic 2-approximation; Theorem 1.2's route to
  vertex cover also goes through matchings).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Type, Union

import numpy as np

from repro.graph.csr import CSRGraph, sorted_unique
from repro.graph.graph import Graph, canonical_edge
from repro.stream.dynamic import DynamicGraph
from repro.stream.updates import EdgeBatch

NO_MATCH = np.int64(-1)

# Loads within SATURATION_TOL of 1.0 count as saturated; slacks below it
# are not worth an update entry (and would bloat the support with noise).
SATURATION_TOL = 1e-9


@dataclass(frozen=True)
class EpochStats:
    """What one :meth:`Maintainer.step` did, for reports and benchmarks."""

    epoch: int
    timestamp: float
    inserted: int  # effective edge insertions (no-ops excluded)
    deleted: int  # effective edge deletions
    new_vertices: int
    n: int
    m: int
    action: str  # "repair" | "resolve"
    damage_fraction: float
    wall_time_s: float
    size: int  # solution cardinality after the step
    extras: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "timestamp": self.timestamp,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "new_vertices": self.new_vertices,
            "n": self.n,
            "m": self.m,
            "action": self.action,
            "damage_fraction": self.damage_fraction,
            "wall_time_s": self.wall_time_s,
            "size": self.size,
            "extras": dict(self.extras),
        }


class Maintainer:
    """Base class: batch application, damage accounting, re-solve fallback.

    Parameters
    ----------
    graph:
        Initial graph (``Graph``/``CSRGraph``/``DynamicGraph``); the
        maintainer owns the resulting overlay.
    backend / config / seed:
        Passed to :func:`repro.api.solve` for the initial solve and every
        fallback re-solve (``backend="auto"`` = the paper's algorithm).
    resolve_fraction:
        Damage threshold: when the batch's damaged region exceeds this
        fraction of ``n``, repair is abandoned for a full re-solve.
    budget / governance:
        Threaded into every full re-solve: ``budget`` caps per-machine
        memory (units of ``n``), ``governance`` opts the resolve into the
        :mod:`repro.govern` ladder so a budget breach mid-stream degrades
        gracefully instead of killing the epoch.  The last resolve's
        governance record is kept on :attr:`last_governance` for epoch
        reporting.
    """

    TASK: str = ""
    SOLVE_TASK: str = ""  # registry task for full re-solves (default TASK)

    def __init__(
        self,
        graph: Union[Graph, CSRGraph, DynamicGraph],
        *,
        backend: str = "auto",
        config: Any = None,
        seed: Optional[int] = None,
        resolve_fraction: float = 0.25,
        budget: Optional[float] = None,
        governance: Any = None,
    ) -> None:
        if not 0.0 <= resolve_fraction <= 1.0:
            raise ValueError(
                f"resolve_fraction must be in [0, 1], got {resolve_fraction}"
            )
        # An owned overlay never auto-compacts: step() compacts once per
        # batch, so a mid-batch auto-compaction would only duplicate work.
        self.graph = (
            graph
            if isinstance(graph, DynamicGraph)
            else DynamicGraph(graph, compact_fraction=None)
        )
        self.backend = backend
        self.config = config
        self.seed = seed
        self.resolve_fraction = resolve_fraction
        self.budget = budget
        self.governance = governance
        self.last_governance: Optional[Dict[str, Any]] = None
        self.epochs_repaired = 0
        self.epochs_resolved = 0
        self._steps = 0
        self._initialized = False

    # -- lifecycle ----------------------------------------------------------

    def initialize(self) -> Any:
        """Full solve on the current graph; returns the ``RunReport``."""
        report = self._full_resolve()
        self._initialized = True
        return report

    def step(self, batch: EdgeBatch) -> EpochStats:
        """Apply one batch and restore the solution invariants."""
        if not self._initialized:
            raise RuntimeError("call initialize() before step()")
        self._steps += 1
        started = time.perf_counter()
        first_new = self.graph.add_vertices(batch.new_vertices)
        inserted, deleted = self.graph.apply_edges(
            batch.insertions, batch.deletions
        )
        csr = self.graph.compact()
        new_vertices = np.arange(
            first_new, first_new + batch.new_vertices, dtype=np.int64
        )
        self._grow_state(csr.num_vertices)
        damage = self._damaged_region(csr, inserted, deleted, new_vertices)
        damage_fraction = len(damage) / max(1, csr.num_vertices)
        extras: Dict[str, Any]
        if damage_fraction > self.resolve_fraction:
            report = self._full_resolve()
            action = "resolve"
            extras = {"rounds": report.rounds}
            if self.last_governance and self.last_governance.get("triggered"):
                # Surface the resolve's governance trail on the epoch so
                # stream logs show *which* epoch hit the memory envelope.
                extras["governance"] = self.last_governance
            self.epochs_resolved += 1
        else:
            extras = self._repair(csr, inserted, deleted, new_vertices, damage)
            action = "repair"
            self.epochs_repaired += 1
        return EpochStats(
            # The batch index, not graph.epoch: a caller-supplied overlay
            # may compact on its own schedule.
            epoch=self._steps,
            timestamp=batch.timestamp,
            inserted=len(inserted),
            deleted=len(deleted),
            new_vertices=int(batch.new_vertices),
            n=csr.num_vertices,
            m=csr.num_edges,
            action=action,
            damage_fraction=damage_fraction,
            wall_time_s=time.perf_counter() - started,
            size=self.size(),
            extras=extras,
        )

    def _full_resolve(self) -> Any:
        # Lazy import: repro.api re-exports solve_stream from this
        # package, so the dependency must stay one-way at import time.
        from repro.api import solve

        snapshot = self.graph.snapshot()
        report = solve(
            self.SOLVE_TASK or self.TASK,
            snapshot,
            backend=self.backend,
            config=self.config,
            seed=self.seed,
            budget=self.budget,
            governance=self.governance,
        )
        self.last_governance = report.extras.get("governance")
        self._grow_state(self.graph.num_vertices)
        self._adopt(snapshot, report.solution)
        return report

    # -- per-task hooks ------------------------------------------------------

    def _grow_state(self, n: int) -> None:
        """Extend per-vertex state to ``n`` vertices (appended = blank)."""
        raise NotImplementedError

    def _adopt(self, csr: CSRGraph, solution: Any) -> None:
        """Replace the maintained state with a full solver's solution."""
        raise NotImplementedError

    def _damaged_region(
        self,
        csr: CSRGraph,
        inserted: np.ndarray,
        deleted: np.ndarray,
        new_vertices: np.ndarray,
    ) -> np.ndarray:
        """Conservative superset of vertices whose decision may change."""
        raise NotImplementedError

    def _repair(
        self,
        csr: CSRGraph,
        inserted: np.ndarray,
        deleted: np.ndarray,
        new_vertices: np.ndarray,
        damage: np.ndarray,
    ) -> Dict[str, Any]:
        """Localized repair; returns stats extras."""
        raise NotImplementedError

    def size(self) -> int:
        """Cardinality of the maintained solution."""
        raise NotImplementedError

    def solution(self) -> Any:
        """The maintained solution in the canonical report shape."""
        raise NotImplementedError

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the maintained state (see serve/snapshot).

        Together with the compacted graph this is everything a restore
        needs to continue the stream *byte-identically*: repair and
        fallback re-solves are pure functions of (graph, state, seed), so
        a restored maintainer converges to the same certified solution an
        uninterrupted run reaches.
        """
        return {
            "task": self.TASK,
            "steps": self._steps,
            "initialized": self._initialized,
            "epochs_repaired": self.epochs_repaired,
            "epochs_resolved": self.epochs_resolved,
            "state": self._state_payload(),
        }

    def load_state(self, payload: Dict[str, Any]) -> None:
        """Restore from :meth:`state_dict` output (same task required)."""
        if payload.get("task") != self.TASK:
            raise ValueError(
                f"state is for task {payload.get('task')!r}, "
                f"this maintainer is {self.TASK!r}"
            )
        self._grow_state(self.graph.num_vertices)
        self._steps = int(payload["steps"])
        self._initialized = bool(payload["initialized"])
        self.epochs_repaired = int(payload["epochs_repaired"])
        self.epochs_resolved = int(payload["epochs_resolved"])
        self._load_payload(payload["state"])

    def _state_payload(self) -> Dict[str, Any]:
        """Per-task JSON-ready solution state."""
        raise NotImplementedError

    def _load_payload(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`_state_payload`."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# MIS
# ---------------------------------------------------------------------------


class MISMaintainer(Maintainer):
    """Localized MIS repair: evict conflicts, re-decide touched vertices."""

    TASK = "mis"

    def __init__(self, graph: Any, **kwargs: Any) -> None:
        super().__init__(graph, **kwargs)
        self.in_mis = np.zeros(self.graph.num_vertices, dtype=bool)

    def _grow_state(self, n: int) -> None:
        if n > len(self.in_mis):
            grown = np.zeros(n, dtype=bool)
            grown[: len(self.in_mis)] = self.in_mis
            self.in_mis = grown

    def _adopt(self, csr: CSRGraph, solution: Any) -> None:
        self.in_mis[:] = False
        self.in_mis[np.asarray(list(solution), dtype=np.int64)] = True

    def _conflicted(self, inserted: np.ndarray) -> np.ndarray:
        """Inserted edges whose endpoints are both (currently) in the MIS."""
        if not len(inserted):
            return inserted
        both = self.in_mis[inserted[:, 0]] & self.in_mis[inserted[:, 1]]
        return inserted[both]

    def _damaged_region(
        self,
        csr: CSRGraph,
        inserted: np.ndarray,
        deleted: np.ndarray,
        new_vertices: np.ndarray,
    ) -> np.ndarray:
        # Potential evictions = the max endpoint of each conflicted edge
        # (a superset of actual evictions: resolving one conflict can
        # dissolve another).  Damage = their closed neighborhoods plus
        # every endpoint of a deleted edge plus appended vertices.
        conflicted = self._conflicted(inserted)
        may_evict = sorted_unique(conflicted.max(axis=1)) if len(conflicted) else (
            np.empty(0, dtype=np.int64)
        )
        return sorted_unique(
            np.concatenate(
                [
                    may_evict,
                    csr.neighbors_bulk(may_evict),
                    deleted.ravel(),
                    new_vertices,
                ]
            )
        )

    def _repair(
        self,
        csr: CSRGraph,
        inserted: np.ndarray,
        deleted: np.ndarray,
        new_vertices: np.ndarray,
        damage: np.ndarray,
    ) -> Dict[str, Any]:
        in_mis = self.in_mis
        evicted: List[int] = []
        # Resolve insertion conflicts one at a time: evicting the larger
        # endpoint may already clear a later conflict.
        for u, v in self._conflicted(inserted):
            u, v = int(u), int(v)
            if in_mis[u] and in_mis[v]:
                loser = max(u, v)
                in_mis[loser] = False
                evicted.append(loser)
        # Re-decide the damaged region greedily (ascending ids, matching
        # the conservative estimate: every actually-evicted vertex and
        # all its neighbors are inside ``damage``).
        added = 0
        for v in damage:
            v = int(v)
            if not in_mis[v] and not in_mis[csr.neighbors(v)].any():
                in_mis[v] = True
                added += 1
        return {"evicted": len(evicted), "added": added}

    def size(self) -> int:
        return int(np.count_nonzero(self.in_mis))

    def solution(self) -> List[int]:
        return [int(v) for v in np.flatnonzero(self.in_mis)]

    def _state_payload(self) -> Dict[str, Any]:
        return {"in_mis": self.solution()}

    def _load_payload(self, state: Dict[str, Any]) -> None:
        self.in_mis[:] = False
        members = np.asarray(state["in_mis"], dtype=np.int64)
        if len(members):
            self.in_mis[members] = True


# ---------------------------------------------------------------------------
# matching (and vertex cover on top of it)
# ---------------------------------------------------------------------------


class MatchingMaintainer(Maintainer):
    """Release broken pairs, greedily re-match, augment the stragglers."""

    TASK = "matching"

    def __init__(self, graph: Any, **kwargs: Any) -> None:
        super().__init__(graph, **kwargs)
        self.match = np.full(self.graph.num_vertices, NO_MATCH, dtype=np.int64)

    def _grow_state(self, n: int) -> None:
        if n > len(self.match):
            grown = np.full(n, NO_MATCH, dtype=np.int64)
            grown[: len(self.match)] = self.match
            self.match = grown

    def _adopt(self, csr: CSRGraph, solution: Any) -> None:
        self.match[:] = NO_MATCH
        for u, v in solution:
            self.match[int(u)] = int(v)
            self.match[int(v)] = int(u)

    def _damaged_region(
        self,
        csr: CSRGraph,
        inserted: np.ndarray,
        deleted: np.ndarray,
        new_vertices: np.ndarray,
    ) -> np.ndarray:
        broken = (
            deleted[self.match[deleted[:, 0]] == deleted[:, 1]]
            if len(deleted)
            else deleted
        )
        free_inserted = (
            inserted[
                (self.match[inserted[:, 0]] == NO_MATCH)
                | (self.match[inserted[:, 1]] == NO_MATCH)
            ]
            if len(inserted)
            else inserted
        )
        return sorted_unique(
            np.concatenate([broken.ravel(), free_inserted.ravel(), new_vertices])
        )

    def _repair(
        self,
        csr: CSRGraph,
        inserted: np.ndarray,
        deleted: np.ndarray,
        new_vertices: np.ndarray,
        damage: np.ndarray,
    ) -> Dict[str, Any]:
        match = self.match
        # Release endpoints of deleted matched edges.
        released = 0
        for u, v in deleted:
            u, v = int(u), int(v)
            if match[u] == v:
                match[u] = NO_MATCH
                match[v] = NO_MATCH
                released += 1
        # Greedy pass over the damaged region: match free to free.  Any
        # free–free edge of the new graph has an endpoint in ``damage``
        # (else the old matching was not maximal), so this restores
        # maximality.
        rematched = 0
        stragglers: List[int] = []
        for v in damage:
            v = int(v)
            if match[v] != NO_MATCH:
                continue
            partner = self._free_neighbor(csr, v)
            if partner is not None:
                match[v] = partner
                match[partner] = v
                rematched += 1
            else:
                stragglers.append(v)
        # Length-3 augmenting paths from still-free damaged vertices:
        # v - w - match[w] - x with x free lets both v and x in.
        augmented = 0
        for v in stragglers:
            if match[v] == NO_MATCH and self._augment_from(csr, v):
                augmented += 1
        return {
            "released": released,
            "rematched": rematched,
            "augmented": augmented,
        }

    def _free_neighbor(self, csr: CSRGraph, v: int) -> Optional[int]:
        row = csr.neighbors(v)
        if not len(row):
            return None
        free = row[self.match[row] == NO_MATCH]
        return int(free[0]) if len(free) else None

    def _augment_from(self, csr: CSRGraph, v: int) -> bool:
        match = self.match
        for w in csr.neighbors(v):
            w = int(w)
            mate = int(match[w])
            if mate == v or mate == NO_MATCH:
                continue
            mate_row = csr.neighbors(mate)
            candidates = mate_row[
                (match[mate_row] == NO_MATCH) & (mate_row != v)
            ]
            if len(candidates):
                x = int(candidates[0])
                match[v] = w
                match[w] = v
                match[mate] = x
                match[x] = mate
                return True
        return False

    def matched_edges(self) -> List[Tuple[int, int]]:
        """The maintained matching as canonical edge tuples."""
        us = np.flatnonzero(self.match != NO_MATCH)
        return [(int(u), int(self.match[u])) for u in us if u < self.match[u]]

    def size(self) -> int:
        return int(np.count_nonzero(self.match != NO_MATCH)) // 2

    def solution(self) -> List[List[int]]:
        return [[u, v] for u, v in self.matched_edges()]

    def _state_payload(self) -> Dict[str, Any]:
        # matched_edges(), not solution(): VertexCoverMaintainer inherits
        # this payload but overrides solution() to a flat vertex list,
        # and the restorable state is the matching structure either way.
        return {"pairs": [[u, v] for u, v in self.matched_edges()]}

    def _load_payload(self, state: Dict[str, Any]) -> None:
        self.match[:] = NO_MATCH
        for u, v in state["pairs"]:
            self.match[int(u)] = int(v)
            self.match[int(v)] = int(u)


class VertexCoverMaintainer(MatchingMaintainer):
    """Cover = endpoints of the incremental maximal matching (2-approx).

    Full re-solves go through the ``matching`` registry task: the cover
    needs the matching *structure* to stay incrementally repairable, and
    matched-endpoint covers carry the same ``2 + O(ε)`` guarantee the
    checkers audit (maximal matching endpoints cover every edge).
    """

    TASK = "vertex_cover"
    SOLVE_TASK = "matching"

    def size(self) -> int:
        return int(np.count_nonzero(self.match != NO_MATCH))

    def solution(self) -> List[int]:
        return [int(v) for v in np.flatnonzero(self.match != NO_MATCH)]


# ---------------------------------------------------------------------------
# fractional matching
# ---------------------------------------------------------------------------


class FractionalMatchingMaintainer(Maintainer):
    """Weight rescaling: keep every edge incident to a saturated vertex."""

    TASK = "fractional_matching"

    def __init__(self, graph: Any, **kwargs: Any) -> None:
        super().__init__(graph, **kwargs)
        self.weights: Dict[Tuple[int, int], float] = {}
        self.loads = np.zeros(self.graph.num_vertices, dtype=np.float64)

    def _grow_state(self, n: int) -> None:
        if n > len(self.loads):
            grown = np.zeros(n, dtype=np.float64)
            grown[: len(self.loads)] = self.loads
            self.loads = grown

    def _adopt(self, csr: CSRGraph, solution: Any) -> None:
        self.weights = {}
        self.loads[:] = 0.0
        for u, v, x in solution:
            self._bump(canonical_edge(int(u), int(v)), float(x))
        # One global saturation pass: the adopted solution is feasible but
        # not necessarily saturated, and the incremental quality guarantee
        # (W >= ν/2) rests on every edge having a saturated endpoint.
        for u, v in csr.edge_array():
            self._saturate(int(u), int(v))

    def _bump(self, edge: Tuple[int, int], amount: float) -> None:
        if amount <= SATURATION_TOL:
            return
        self.weights[edge] = self.weights.get(edge, 0.0) + amount
        self.loads[edge[0]] += amount
        self.loads[edge[1]] += amount

    def _saturate(self, u: int, v: int) -> float:
        slack = min(1.0 - self.loads[u], 1.0 - self.loads[v])
        if slack > SATURATION_TOL:
            self._bump(canonical_edge(u, v), float(slack))
            return float(slack)
        return 0.0

    def _damaged_region(
        self,
        csr: CSRGraph,
        inserted: np.ndarray,
        deleted: np.ndarray,
        new_vertices: np.ndarray,
    ) -> np.ndarray:
        # Only deletions of carrying edges damage the saturation
        # invariant (their endpoints' loads drop).  Insertions are not
        # damage: each costs one unconditional O(1) saturation whether
        # repairing or re-solving, so they should never tip the fallback.
        weighted_deleted = (
            np.array(
                [
                    (u, v)
                    for u, v in deleted
                    if (int(u), int(v)) in self.weights
                ],
                dtype=np.int64,
            ).reshape(-1, 2)
            if len(deleted)
            else deleted
        )
        return sorted_unique(
            np.concatenate([weighted_deleted.ravel(), new_vertices])
        )

    def _repair(
        self,
        csr: CSRGraph,
        inserted: np.ndarray,
        deleted: np.ndarray,
        new_vertices: np.ndarray,
        damage: np.ndarray,
    ) -> Dict[str, Any]:
        dropped_weight = 0.0
        deficient: Set[int] = set()
        for u, v in deleted:
            u, v = int(u), int(v)
            x = self.weights.pop((u, v), None)
            if x is not None:
                self.loads[u] = max(0.0, self.loads[u] - x)
                self.loads[v] = max(0.0, self.loads[v] - x)
                dropped_weight += x
                deficient.add(u)
                deficient.add(v)
        regained = 0.0
        for u, v in inserted:
            regained += self._saturate(int(u), int(v))
        # Edges incident to a vertex whose load dropped may have lost
        # their saturated endpoint; greedy re-saturation restores it.
        for d in sorted(deficient):
            for w in csr.neighbors(d):
                regained += self._saturate(d, int(w))
        return {
            "dropped_weight": dropped_weight,
            "regained_weight": regained,
            "deficient": len(deficient),
        }

    def total_weight(self) -> float:
        """Total fractional weight ``W``.

        Summed in canonical edge order, not dict insertion order: a
        session restored from a snapshot rebuilds ``weights`` sorted,
        and float addition does not commute across orderings, so an
        insertion-order sum could drift from the pre-crash value by an
        ulp and break byte-identical resume.
        """
        return float(sum(x for _, x in sorted(self.weights.items())))

    def size(self) -> int:
        return len(self.weights)

    def _state_payload(self) -> Dict[str, Any]:
        # Loads are stored verbatim, not recomputed from the weights on
        # restore: they were accumulated incrementally (+=, clamped at 0)
        # and a re-summation could differ in the last float bit, breaking
        # the byte-identical-resume guarantee.  JSON round-trips floats
        # exactly (repr shortest round-trip), so both survive as-is.
        return {
            "weights": [
                [int(u), int(v), float(x)]
                for (u, v), x in sorted(self.weights.items())
            ],
            "loads": [float(load) for load in self.loads],
        }

    def _load_payload(self, state: Dict[str, Any]) -> None:
        self.weights = {
            (int(u), int(v)): float(x) for u, v, x in state["weights"]
        }
        loads = np.asarray(state["loads"], dtype=np.float64)
        self.loads = np.zeros(self.graph.num_vertices, dtype=np.float64)
        self.loads[: len(loads)] = loads

    def solution(self) -> List[List[float]]:
        return sorted(
            [int(u), int(v), float(x)] for (u, v), x in self.weights.items()
        )


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

MAINTAINERS: Dict[str, Type[Maintainer]] = {
    cls.TASK: cls
    for cls in (
        MISMaintainer,
        MatchingMaintainer,
        VertexCoverMaintainer,
        FractionalMatchingMaintainer,
    )
}


def make_maintainer(
    task: str, graph: Union[Graph, CSRGraph, DynamicGraph], **kwargs: Any
) -> Maintainer:
    """Instantiate the maintainer registered for ``task``."""
    try:
        cls = MAINTAINERS[task]
    except KeyError:
        raise ValueError(
            f"no maintainer for task {task!r}; known: {sorted(MAINTAINERS)}"
        ) from None
    return cls(graph, **kwargs)
