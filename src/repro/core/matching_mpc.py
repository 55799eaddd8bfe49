"""MPC-Simulation — fractional matching and vertex cover in O(log log n)
MPC rounds (Section 4.3, Lemma 4.2).

The algorithm simulates Central-Rand in phases.  While the degree bound
``d`` exceeds a polylog floor, one phase:

* partitions the still-relevant vertices ``V'`` over ``m = √d`` machines
  (vertex-based sampling of [CŁM+18], Line (d));
* has each machine run ``I = Θ(log m)`` iterations of Central-Rand on its
  *induced local subgraph*, estimating each vertex's load as
  ``y~_v = m · (local active weight) + y_old_v`` and freezing vertices whose
  estimate crosses their random threshold ``T_{v,t}`` (Lines (e));
* recomputes true weights from freeze times (Line (g) — possible because
  every active edge grows by the same factor per iteration, so
  ``x_e = w_0 / (1-ε)^{t'}`` with ``t'`` the first endpoint-freeze time);
* removes vertices whose true load exceeded 1 (they join the cover;
  Line (i)) and freezes those in ``[1-2ε, 1]`` (Line (j));
* updates ``d ← d(1-ε)^I`` (Line (f)).

Once ``d`` reaches the floor the remaining iterations of Central-Rand are
simulated directly, one round each (Line (4)).

Hot-path layout: the graph's edge list is materialized **once** into flat
NumPy arrays (via :class:`~repro.graph.csr.CSRGraph`) and every per-phase
edge scan — the frozen-load recomputation ``y_old``, the true-load
aggregation of Line (g), the active-subgraph extraction, the direct
simulation, and the final weight readout — is a vectorized pass over
those arrays.  Freezing decisions go through
:meth:`ThresholdOracle.crosses_batch`, which only materializes the
threshold when the load estimate lands inside the random band; a
compressed phase makes one such call per step per worker, over the
disjoint union of the worker's machines.

Randomness.  Both random choices are keyed draws of the order-free
counter generator (:mod:`repro.utils.counter_rng`): the thresholds
``T_{v,t}`` are a pure function of ``(seed, v, t)``, and the Line (d)
owner of vertex ``v`` in phase ``p`` a pure function of ``(seed, p, v)``.
Nothing is consumed in an order, so every executor and every worker
count reads the same values.

:func:`fractional_matching_arrays` is the array core; it returns
the weights as ``(inside, x)`` over the canonical CSR edge rows, and
:func:`mpc_fractional_matching` wraps it in the public dict-based result.

Output order.  The weight map lists the edges in canonical CSR row order
(ascending ``(u, v)``, ``u < v``) for every input representation, so a
``Graph``, a ``CSRGraph`` and an ``MMapCSRGraph`` of the same graph give
the same bytes downstream (the Lemma 5.1 rounding, the total weight).

Float association.  Every float below is computed with one fixed
operation order, because the outputs are byte-pinned across executors:

* loads are ``bincount(eu) + bincount(ev)`` over canonical rows, and each
  ``bincount`` adds in row order;
* a direct-simulation iteration adds the same ``w_t`` to every touched
  accumulator, and repeated additions of one value give the same bits in
  any order, so the ``np.add.at`` gather equals a per-neighbour loop;
* estimates are ``(m · deg) · w_t + y_old`` in the compressed phases and
  ``load + deg · w_t`` in the direct phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.config import MatchingConfig
from repro.core.fractional import FractionalMatching
from repro.core.thresholds import ThresholdOracle
from repro.dist.executor import in_process
from repro.govern.governor import governed_broadcast
from repro.graph.csr import CSRGraph, as_csr, gather_rows
from repro.graph.graph import Edge, Graph
from repro.mpc.cluster import Message, MPCCluster
from repro.mpc.spec import ClusterSpec
from repro.mpc.words import edge_words, id_words
from repro.utils import counter_rng
from repro.utils.rng import SeedLike, make_rng
from repro.utils.trace import Trace, maybe_record

# Cap on the phase count, far above the O(log log n) bound; converts a
# schedule bug into an exception instead of a hang.
_MAX_PHASES = 300

# "Never froze" sentinel for the int64 freeze-time array.  Large enough to
# lose every ``min(..., now)`` while staying far from int64 overflow.
_NEVER = np.int64(2**62)


def _edge_weights(
    freeze_at: np.ndarray,
    endpoint_u: np.ndarray,
    endpoint_v: np.ndarray,
    now: int,
    w0: float,
    growth: float,
) -> np.ndarray:
    """Line (g) weights ``x_e = w_0 · growth^{t'}`` for the given edges.

    ``t'`` is the earliest endpoint freeze time, capped at ``now`` — the
    single definition every load/weight readout in this module shares.
    """
    t_prime = np.minimum(
        np.minimum(freeze_at[endpoint_u], freeze_at[endpoint_v]), np.int64(now)
    )
    return w0 * np.power(growth, t_prime)


@dataclass
class MatchingMPCResult:
    """Outcome of MPC-Simulation.

    Attributes
    ----------
    matching:
        Fractional matching on the surviving vertex set ``V'`` together
        with the vertex cover (frozen plus heavy-removed vertices).
    rounds / phases / iterations:
        Measured MPC rounds, phase count, and total Central-Rand iterations
        simulated (compressed + direct).
    freeze_iteration:
        Per-vertex global iteration at which the vertex froze.
    heavy_removed:
        Vertices removed at Line (i) (load exceeded 1); they are in the
        cover but their edges are excluded from the fractional matching.
    max_machine_edges:
        Largest per-machine induced subgraph over all phases (Lemma 4.7's
        ``O(n)`` quantity).
    """

    matching: FractionalMatching
    rounds: int
    phases: int
    iterations: int
    freeze_iteration: Dict[int, int] = field(default_factory=dict)
    heavy_removed: Set[int] = field(default_factory=set)
    max_machine_edges: int = 0
    machine_edges_per_phase: List[int] = field(default_factory=list)
    direct_iterations: int = 0
    total_comm_words: int = 0
    peak_words: int = 0

    @property
    def vertex_cover(self) -> Set[int]:
        """The reported vertex cover."""
        return self.matching.vertex_cover

    @property
    def weight(self) -> float:
        """Total fractional weight."""
        return self.matching.weight()

    def rounding_candidates(self, epsilon: float) -> Set[int]:
        """The high-load cover subset ``C~`` fed to Lemma 5.1 rounding."""
        return self.matching.heavy_vertices(1.0 - 5.0 * epsilon)


def mpc_fractional_matching(
    graph: Union[Graph, CSRGraph],
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    oracle: Optional[ThresholdOracle] = None,
    trace: Optional[Trace] = None,
    executor=None,
    governor=None,
) -> MatchingMPCResult:
    """Run MPC-Simulation on ``graph``.

    Parameters
    ----------
    config:
        Schedule constants; see :class:`repro.core.config.MatchingConfig`.
    oracle:
        Threshold oracle override — pass the same instance to
        :func:`repro.core.central.run_freezing_process` to couple the two
        processes (used by the Lemma 4.15 concentration experiment).
    executor:
        Optional :class:`repro.dist.DistExecutor` the machine-range phase
        blocks and the direct Central-Rand iterations run on; ``None``
        runs them on one in-process worker.  Outputs and round
        accounting are byte-identical across executors (see
        DISTRIBUTED.md).
    governor:
        Optional :class:`repro.govern.Governor`.  Watches per-phase load
        and intervenes before the word budget is breached: raises the
        phase's machine count when the predicted hottest induced
        subgraph would cross the soft watermark (adaptive
        sparsification — changes the owner draws, so governed-and-
        triggered runs are validated by verify bands, not byte pins),
        wave-splits over-budget scatters, and chunks the per-phase
        freeze broadcasts.  Exact pass-through when it never triggers.
    """
    csr = as_csr(graph)
    result, inside, x = fractional_matching_arrays(
        csr,
        config=config,
        seed=seed,
        oracle=oracle,
        trace=trace,
        executor=executor,
        governor=governor,
    )
    edges = csr.edge_array()[inside]
    weights: Dict[Edge, float] = dict(
        zip(zip(edges[:, 0].tolist(), edges[:, 1].tolist()), x.tolist())
    )
    result.matching = FractionalMatching(
        graph=graph, weights=weights, vertex_cover=result.vertex_cover
    )
    return result


def fractional_matching_arrays(
    csr: CSRGraph,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    oracle: Optional[ThresholdOracle] = None,
    trace: Optional[Trace] = None,
    executor=None,
    governor=None,
) -> Tuple[MatchingMPCResult, np.ndarray, np.ndarray]:
    """The array core of :func:`mpc_fractional_matching` on a CSR graph.

    Returns ``(result, inside, x)``: ``inside`` marks the rows of
    ``csr.edge_array()`` whose endpoints both survived, and ``x`` holds
    their weights in row order.  ``result.matching.weights`` is left
    empty; callers build the edge order they need from the arrays.
    ``executor`` is as in :func:`mpc_fractional_matching`.
    """
    config = config or MatchingConfig()
    epsilon = config.epsilon
    rng = make_rng(seed)
    n = csr.num_vertices

    if n == 0 or csr.num_edges == 0:
        empty = FractionalMatching(graph=csr, weights={}, vertex_cover=set())
        result = MatchingMPCResult(matching=empty, rounds=0, phases=0, iterations=0)
        return result, np.zeros(csr.num_edges, dtype=bool), np.empty(0)
    executor = in_process(executor)

    if oracle is None:
        oracle = ThresholdOracle(
            config.threshold_low, config.threshold_high, seed=rng.getrandbits(64)
        )
    growth = 1.0 / (1.0 - epsilon)
    w0 = (1.0 - 2.0 * epsilon) / n

    spec = ClusterSpec.from_graph(csr, config.memory_factor, machines="sqrt")
    cluster = spec.build_cluster(trace=trace)
    if governor is not None:
        governor.bind(cluster)

    # The machine-assignment key is drawn once up front so per-phase owner
    # draws are an order-free pure function of (key, phase, vertex).
    owner_key = counter_rng.derive_key(rng.getrandbits(64), "matching-owner")

    # One-time edge materialization: every per-phase scan below is a flat
    # pass over these canonical (u < v) endpoint arrays.
    edge_array = csr.edge_array()
    eu = np.ascontiguousarray(edge_array[:, 0])
    ev = np.ascontiguousarray(edge_array[:, 1])

    if governor is not None:
        # Prime the ball-size estimator with the input's degree skew so
        # the first (heaviest) scatter is predicted before any phase has
        # been observed.
        from repro.graph.statistics import load_summary

        governor.estimator.prime(load_summary(csr))

    # The paper's V'.
    surviving_mask = np.ones(n, dtype=bool)
    freeze_iteration: Dict[int, int] = {}
    freeze_at = np.full(n, _NEVER, dtype=np.int64)
    heavy_removed: Set[int] = set()
    d = float(n)
    t = 0
    phases = 0
    floor = config.degree_floor(n)
    machine_edges_per_phase: List[int] = []

    def vertex_loads(now: int) -> np.ndarray:
        """True loads ``y^MPC`` over ``G[V']`` at iteration ``now`` (Line (g))."""
        inside = surviving_mask[eu] & surviving_mask[ev]
        x = _edge_weights(freeze_at, eu[inside], ev[inside], now, w0, growth)
        return np.bincount(
            eu[inside], weights=x, minlength=n
        ) + np.bincount(ev[inside], weights=x, minlength=n)

    while d > floor:
        if phases >= _MAX_PHASES:
            raise RuntimeError("MPC-Simulation exceeded the phase cap")
        # Surviving and unfrozen, ascending.
        active_ids = np.flatnonzero(surviving_mask & (freeze_at == _NEVER))
        active_mask = np.zeros(n, dtype=bool)
        active_mask[active_ids] = True

        # Active subgraph G' and the per-vertex frozen load y_old (Line (b)):
        # one vectorized pass splits the surviving edges into "both active"
        # (shipped to machines) and "touching a frozen endpoint" (their
        # weight is already locked in and accrues to y_old).
        surv_edge = surviving_mask[eu] & surviving_mask[ev]
        both_active = surv_edge & active_mask[eu] & active_mask[ev]
        frozen_touch = surv_edge & ~both_active
        fu = eu[frozen_touch]
        fv = ev[frozen_touch]
        x = _edge_weights(freeze_at, fu, fv, t, w0, growth)
        y_old = np.bincount(fu, weights=x, minlength=n) + np.bincount(
            fv, weights=x, minlength=n
        )
        active_u = eu[both_active]
        active_v = ev[both_active]

        base_machines = max(2, int(math.sqrt(d)))
        num_machines = base_machines
        partition_context = f"matching: phase {phases + 1} partition"
        if governor is not None:
            # Rung 1 (adaptive sparsification): raising the machine count
            # before the owner draws lowers the same-machine co-location
            # probability, shrinking both the hottest induced subgraph
            # (~ edges/k²) and the shipped volume (~ edges/k).  Returns
            # the base count untouched when the prediction fits — the
            # byte-identity case.
            num_machines = governor.plan_partitions(
                base_machines, edge_words(len(active_u)), partition_context
            )

        # Line (d): i.i.d. random vertex partitioning; one exchange ships
        # each induced subgraph (memory validated by the substrate).  The
        # owner of a vertex is a pure function of (owner_key, phase,
        # vertex).  Under governance the draw is retried with a doubled
        # part count when multinomial variance lands one induced subgraph
        # over the soft budget anyway (nothing has shipped yet); the
        # ungoverned path runs the body exactly once.
        while True:
            owner_vals = counter_rng.integers(
                owner_key, active_ids, phases, num_machines
            )
            owner_of = np.full(n, -1, dtype=np.int64)
            owner_of[active_ids] = owner_vals
            grouping = np.argsort(owner_vals, kind="stable")
            sorted_ids = active_ids[grouping]
            sorted_machines = owner_vals[grouping]
            part_counts = np.bincount(owner_vals, minlength=num_machines)
            bounds = np.zeros(num_machines + 1, dtype=np.int64)
            np.cumsum(part_counts, out=bounds[1:])

            # Same-machine active edges, grouped by machine in one sort.
            same = owner_of[active_u] == owner_of[active_v]
            local_u = active_u[same]
            local_v = active_v[same]
            machine_of_edge = owner_of[local_u]
            grouping = np.argsort(machine_of_edge, kind="stable")
            local_u = local_u[grouping]
            local_v = local_v[grouping]
            counts = np.bincount(machine_of_edge, minlength=num_machines)
            boundaries = np.zeros(num_machines + 1, dtype=np.int64)
            np.cumsum(counts, out=boundaries[1:])
            local_edge_counts = [int(c) for c in counts]

            if governor is None:
                break
            worst = edge_words(max(local_edge_counts, default=0))
            if worst <= governor.soft_words:
                break
            grown = governor.grow_partitions(
                base_machines, num_machines, worst, partition_context
            )
            if grown == num_machines:
                break  # ceiling reached; _ship_partitions decides the fate
            num_machines = grown
        iterations = config.iterations_per_phase(num_machines)

        _ship_partitions(cluster, local_edge_counts, phases, governor=governor)
        machine_edges_per_phase.append(max(local_edge_counts, default=0))

        # Lines (e): every machine simulates I iterations locally.  Each
        # worker runs one contiguous machine range as a single fused block;
        # the ranges come back in machine order, so array writes replay the
        # freezes exactly as a machine-by-machine merge would.
        position_of = np.empty(n, dtype=np.int64)
        position_of[sorted_ids] = np.arange(len(sorted_ids), dtype=np.int64)
        tasks = []
        for first, last in executor.partition(num_machines):
            lo, hi = bounds[first], bounds[last]
            elo, ehi = boundaries[first], boundaries[last]
            tasks.append(
                (
                    sorted_ids[lo:hi],
                    sorted_machines[lo:hi],
                    position_of[local_u[elo:ehi]] - lo,
                    position_of[local_v[elo:ehi]] - lo,
                    y_old[sorted_ids[lo:hi]],
                )
            )
        results = executor.map_tasks(
            "matching.machines",
            tasks,
            shared={
                "oracle": oracle,
                "start": t,
                "iterations": iterations,
                "machines": num_machines,
                "w0": w0,
                "growth": growth,
            },
            phase="compressed-phases",
        )
        for vertices, times in results:
            freeze_at[vertices] = times
            freeze_iteration.update(zip(vertices.tolist(), times.tolist()))
        t += iterations
        d *= (1.0 - epsilon) ** iterations
        phases += 1

        # One broadcast distributes freeze times (Line (g) inputs), one
        # aggregation round recomputes loads and applies Lines (h)-(j).
        # Governed runs chunk the broadcast into sequential sub-batches
        # when id_words(n) exceeds the soft watermark (rung 2).
        governed_broadcast(
            cluster,
            id_words(n),
            f"matching: phase {phases} freezes",
            governor,
        )
        cluster.charge_rounds(1, f"matching: phase {phases} load aggregation")

        loads = vertex_loads(t)
        over_one = np.flatnonzero(surviving_mask & (loads > 1.0))
        surviving_mask[over_one] = False
        heavy_removed.update(over_one.tolist())
        if over_one.size:
            loads = vertex_loads(t)
        newly_frozen = np.flatnonzero(
            surviving_mask
            & (freeze_at == _NEVER)
            & (loads >= 1.0 - 2.0 * epsilon)
        )
        freeze_at[newly_frozen] = t
        freeze_iteration.update(dict.fromkeys(newly_frozen.tolist(), t))
        maybe_record(
            trace,
            "matching_phase",
            phase=phases,
            iterations=iterations,
            degree_bound=d,
            machines=num_machines,
            max_machine_edges=max(local_edge_counts, default=0),
            frozen=len(freeze_iteration),
            heavy_removed=len(heavy_removed),
        )

    # Line (4): direct simulation of the remaining Central-Rand iterations.
    t_before_direct = t
    t = _direct_simulation(
        csr=csr,
        eu=eu,
        ev=ev,
        surviving_mask=surviving_mask,
        freeze_at=freeze_at,
        freeze_iteration=freeze_iteration,
        oracle=oracle,
        cluster=cluster,
        start_iteration=t,
        w0=w0,
        growth=growth,
        max_iterations=config.max_direct_iterations,
        vertex_loads=vertex_loads,
        executor=executor,
    )

    inside = surviving_mask[eu] & surviving_mask[ev]
    x = _edge_weights(freeze_at, eu[inside], ev[inside], t, w0, growth)
    cover = set(freeze_iteration) | heavy_removed
    result = MatchingMPCResult(
        matching=FractionalMatching(graph=csr, weights={}, vertex_cover=cover),
        rounds=cluster.rounds,
        phases=phases,
        iterations=t,
        freeze_iteration=dict(freeze_iteration),
        heavy_removed=heavy_removed,
        max_machine_edges=max(machine_edges_per_phase, default=0),
        machine_edges_per_phase=machine_edges_per_phase,
        direct_iterations=t - t_before_direct,
        total_comm_words=cluster.total_comm_words,
        peak_words=cluster.peak_words(),
    )
    return result, inside, x


def _ship_partitions(
    cluster: MPCCluster,
    local_edge_counts: List[int],
    phase: int,
    governor=None,
) -> None:
    """Deliver each machine its induced active subgraph (one exchange).

    Machine ``i`` receives (and, in the shuffle, forwards) part ``i``'s
    induced edges; the substrate validates both directions against the word
    budget — this is exactly the quantity Lemma 4.7 bounds by ``O(n)``.

    With a governor attached, a scatter whose per-machine volume would
    cross the soft watermark is split into sequential waves (rung 2),
    each within budget — extra rounds instead of an abort.  A *single*
    part too large even alone cannot be waved (the machine must hold its
    whole induced subgraph to iterate Central-Rand on it) and degrades.
    """
    context = f"matching: phase {phase + 1} scatter"
    messages = [
        (index % cluster.num_machines, edge_words(count))
        for index, count in enumerate(local_edge_counts)
    ]
    waves: List[List[tuple]] = [messages]
    if governor is not None:
        soft = governor.soft_words
        if any(words > soft for _, words in messages):
            worst = max(words for _, words in messages)
            governor.degrade(
                f"one induced subgraph of {worst} words exceeds the soft "
                f"budget {soft} even after sparsification",
                context,
            )
        elif governor.policy.allow_chunk:
            waves = _scatter_waves(messages, soft)
            if len(waves) > 1:
                hottest = max(
                    sum(w for d, w in messages if d == dest)
                    for dest in {d for d, _ in messages}
                )
                governor.record_chunk(context, hottest, len(waves))
    total = len(waves)
    for wave_index, wave in enumerate(waves):
        outboxes: Dict[int, List[Message]] = {}
        for destination, words in wave:
            outboxes.setdefault(destination, []).append(
                Message(destination=destination, words=words, payload=None)
            )
        wave_context = (
            context
            if total == 1
            else f"{context} [wave {wave_index + 1}/{total}]"
        )
        cluster.exchange(outboxes, context=wave_context)


def _scatter_waves(messages: List[tuple], soft_words: int) -> List[List[tuple]]:
    """Greedy first-fit wave split of ``(destination, words)`` messages.

    Each wave keeps every destination's inbox (and, in this scatter
    topology, each sender's outbox) within ``soft_words``.  Messages are
    taken in order, so an in-budget scatter comes back as exactly one
    wave with the original message order — the pass-through case.
    """
    waves: List[List[tuple]] = [[]]
    loads: List[Dict[int, int]] = [{}]
    for destination, words in messages:
        placed = False
        for wave, load in zip(waves, loads):
            if load.get(destination, 0) + words <= soft_words:
                wave.append((destination, words))
                load[destination] = load.get(destination, 0) + words
                placed = True
                break
        if not placed:
            waves.append([(destination, words)])
            loads.append({destination: words})
    return [wave for wave in waves if wave]


def _machine_insertions(
    vertex_ids: np.ndarray,
    machine_of: np.ndarray,
    local_u: np.ndarray,
    local_v: np.ndarray,
    y_range: np.ndarray,
    oracle: ThresholdOracle,
    start_iteration: int,
    iterations: int,
    num_machines: int,
    w0: float,
    growth: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """A contiguous range of machines' local Central-Rand blocks, fused.

    The ``matching.machines`` kernel: runs ``iterations`` local
    Central-Rand steps on every machine of the range as one loop over
    the disjoint union of their parts.  ``vertex_ids`` are the range's
    active ids sorted by ``(machine, id)`` and ``machine_of`` their
    machine labels; ``local_u``/``local_v`` are the same-machine edges
    relabelled to range positions; ``y_range`` is the frozen-load slice.

    Machines share no edge and every threshold is a pure function of
    ``(seed, v, t)``, so one :meth:`ThresholdOracle.crosses_batch` call
    per step decides each vertex exactly as its own machine would.  A
    machine that runs out of active vertices simply contributes nothing
    to later steps.

    Returns ``(vertices, t)`` freezes lexsorted on ``(machine, t,
    position)`` — the order a machine-by-machine replay produces.
    """
    k = len(vertex_ids)
    edge_alive = np.ones(len(local_u), dtype=bool)
    active = np.ones(k, dtype=bool)
    degree = np.bincount(local_u, minlength=k) + np.bincount(
        local_v, minlength=k
    )
    frozen_at = np.full(k, _NEVER, dtype=np.int64)
    for step in range(iterations):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        now = start_iteration + step
        w_t = w0 * growth**now
        # Same association as the scalar path: (m * deg) * w_t + y_old.
        estimates = num_machines * degree[act] * w_t + y_range[act]
        frozen = oracle.crosses_batch(vertex_ids[act], now, estimates)
        if not frozen.any():
            continue  # nothing froze: degrees are unchanged too
        newly = act[frozen]
        frozen_at[newly] = now
        active[newly] = False
        edge_alive &= active[local_u] & active[local_v]
        degree = np.bincount(local_u[edge_alive], minlength=k) + np.bincount(
            local_v[edge_alive], minlength=k
        )
    positions = np.flatnonzero(frozen_at != _NEVER)
    times = frozen_at[positions]
    order = np.lexsort((positions, times, machine_of[positions]))
    return vertex_ids[positions[order]], times[order]


def _direct_simulation(
    csr: CSRGraph,
    eu: np.ndarray,
    ev: np.ndarray,
    surviving_mask: np.ndarray,
    freeze_at: np.ndarray,
    freeze_iteration: Dict[int, int],
    oracle: ThresholdOracle,
    cluster: MPCCluster,
    start_iteration: int,
    w0: float,
    growth: float,
    max_iterations: int,
    vertex_loads,
    executor,
) -> int:
    """Line (4): simulate Central-Rand directly, one MPC round per iteration.

    Returns the final global iteration counter.  Every iteration is one
    :func:`direct_step` per worker.  The vertex range is partitioned
    contiguously over the executor's workers; each worker owns the
    mutable per-vertex state (active flag, active degree, frozen load)
    for its slice and reads the immutable CSR adjacency from the
    session.  Per iteration the driver broadcasts the previous
    iteration's global freeze list, sums the surviving active counts,
    and merges the newly-frozen ids — charging exactly one cluster round
    per executed iteration.  Every cell gets the same arithmetic
    whichever worker owns it, so the outputs do not depend on the
    worker count (the parity suite enforces it).
    """
    t = start_iteration
    n = len(surviving_mask)
    # Unfrozen survivors with at least one unfrozen surviving neighbor.
    unfrozen = surviving_mask & (freeze_at == _NEVER)
    live_edge = unfrozen[eu] & unfrozen[ev]
    live_degree = np.bincount(eu[live_edge], minlength=n) + np.bincount(
        ev[live_edge], minlength=n
    )
    initially_active = unfrozen & (live_degree > 0)
    if not initially_active.any():
        return t
    active_ids = np.flatnonzero(initially_active)
    active_degree = np.zeros(n, dtype=np.int64)
    active_degree[active_ids] = live_degree[active_ids]
    frozen_load = np.zeros(n, dtype=np.float64)
    loads = vertex_loads(t)
    # Association: loads[v] - (deg * w0) * growth**t.
    frozen_load[active_ids] = loads[active_ids] - (
        active_degree[active_ids] * w0
    ) * (growth**t)

    key = executor.open_session(
        "matching-direct", {"indptr": csr.indptr, "indices": csr.indices}
    )
    try:
        payloads = [
            {
                "session": key,
                "lo": lo,
                "hi": hi,
                "active": initially_active,
                "degree": active_degree[lo:hi],
                "load": frozen_load[lo:hi],
                "oracle": oracle,
                "w0": w0,
                "growth": growth,
            }
            for lo, hi in executor.partition(n)
        ]
        executor.scatter_step(
            "matching.direct_init", payloads, phase="direct-simulation"
        )
        # Termination and the iteration cap gate on the summed active
        # count *before* any round is charged or any freeze applied: a
        # step that finds every vertex inactive ends the loop without
        # charging a round.
        prev = np.empty(0, dtype=np.int64)
        steps = 0
        while True:
            results = executor.broadcast_step(
                "matching.direct_step",
                {"session": key, "t": t, "prev": prev},
                phase="direct-simulation",
            )
            if sum(count for _, count in results) == 0:
                return t
            if steps >= max_iterations:
                raise RuntimeError(
                    "direct Central-Rand simulation exceeded its iteration cap"
                )
            prev = np.concatenate([newly for newly, _ in results])
            freeze_at[prev] = t
            freeze_iteration.update(dict.fromkeys(prev.tolist(), t))
            t += 1
            steps += 1
            cluster.charge_rounds(1, "matching: direct Central-Rand iteration")
    finally:
        executor.close_session(key)


def direct_state(
    lo: int,
    hi: int,
    init_mask: np.ndarray,
    degree: np.ndarray,
    load: np.ndarray,
    oracle: ThresholdOracle,
    w0: float,
    growth: float,
) -> Dict[str, object]:
    """Mutable direct-simulation state for the owned vertex slice ``[lo, hi)``.

    ``init_mask`` is the full initially-active mask; ``degree`` and
    ``load`` are the owned slices (copied).
    """
    return {
        "lo": lo,
        "hi": hi,
        # Filters adjacency rows to the live active-active edges.
        "init_mask": init_mask,
        "active": init_mask[lo:hi].copy(),
        "degree": np.array(degree, dtype=np.int64),
        "load": np.array(load, dtype=np.float64),
        "oracle": oracle,
        "w0": float(w0),
        "growth": float(growth),
    }


def direct_step(
    state: Dict, indptr: np.ndarray, indices: np.ndarray, t: int, prev: np.ndarray
) -> Tuple[np.ndarray, int]:
    """One direct Central-Rand iteration on the owned slice of ``state``.

    1. *Apply* the previous iteration's global freeze list ``prev``:
       every occurrence of an owned vertex in a newly-frozen vertex's
       adjacency row adds ``w_{t-1}`` to its frozen load and decrements
       its active degree.  Rows are filtered by the initially-active
       mask, which leaves exactly the live edges (an edge with both
       endpoints initially active is live).  All increments of one step
       are the same value, so ``np.add.at`` gives the bits a
       per-neighbour loop would, in any order.
    2. Drop owned vertices whose active degree reached zero.
    3. If none is left, return ``(empty, 0)``: the caller ends the loop
       before charging a round.
    4. *Decide* iteration ``t`` with one batched oracle call and return
       the newly-frozen owned ids (ascending) and the active count.

    Updates land on every initially-active occurrence, including
    vertices that already froze or went inactive.  Those never re-enter
    the active set, so their (divergent) cells are never read.
    """
    lo = state["lo"]
    hi = state["hi"]
    if prev.size:
        w_prev = state["w0"] * state["growth"] ** (t - 1)
        hits = gather_rows(indices, indptr, prev)
        hits = hits[state["init_mask"][hits]]
        own = hits[(hits >= lo) & (hits < hi)] - lo
        if own.size:
            np.add.at(state["load"], own, w_prev)
            np.subtract.at(state["degree"], own, 1)
        state["active"] &= state["degree"] != 0

    count = int(np.count_nonzero(state["active"]))
    if count == 0:
        return prev[:0], 0

    w_t = state["w0"] * state["growth"] ** t
    local = np.flatnonzero(state["active"])
    estimates = state["load"][local] + state["degree"][local] * w_t
    act = local + lo
    newly = act[state["oracle"].crosses_batch(act, t, estimates)]
    state["active"][newly - lo] = False
    return newly, count
