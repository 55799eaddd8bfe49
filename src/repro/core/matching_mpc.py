"""MPC-Simulation — fractional matching and vertex cover in O(log log n)
MPC rounds (Section 4.3, Lemma 4.2).

The algorithm simulates Central-Rand in phases.  While the degree bound
``d`` exceeds a polylog floor, one phase:

* partitions the still-relevant vertices ``V'`` over ``m = √d`` machines
  (vertex-based sampling of [CŁM+18], Line (d));
* has each machine run ``I = Θ(log m)`` iterations of Central-Rand on its
  *induced local subgraph*, estimating each vertex's load as
  ``y~_v = m · (local active weight) + y_old_v`` and freezing vertices whose
  estimate crosses their random threshold ``T_{v,t}`` (Lines (e)).  A
  phase whose largest possible estimate, ``(m · deg) · w_max + y_old``
  over the starting degrees, stays below the band's low end ``1 - 4ε``
  freezes nothing, so its machine step is never dispatched; its rounds
  and words are charged all the same;
* recomputes true weights from freeze times (Line (g) — possible because
  every active edge grows by the same factor per iteration, so
  ``x_e = w_0 / (1-ε)^{t'}`` with ``t'`` the first endpoint-freeze time);
* removes vertices whose true load exceeded 1 (they join the cover;
  Line (i)) and freezes those in ``[1-2ε, 1]`` (Line (j));
* updates ``d ← d(1-ε)^I`` (Line (f)).

Once ``d`` reaches the floor the remaining iterations of Central-Rand are
simulated directly (Line (4)).  When the live active residual fits one
machine (two words per live edge plus one per active vertex, within
``S``), it is shipped to machine 0, which runs every remaining iteration
locally, and the freeze times are broadcast once: 2 rounds for the whole
tail.  That is the standard finish once a residual fits (the matching
algorithms of [CŁM+18] and of Assadi et al. (SODA'19), and the MIS
"leftover to leader" of Section 3).  A larger residual is charged one
round per iteration, as the paper's direct simulation.  Either way the
executor runs the tail as one task on one worker: its iterations are
small and each depends on the last, so a barrier per iteration would
cost more than the step it splits.  Only the charges differ, so both
forms freeze the same vertices at the same iterations.

Hot-path layout: the graph's edge list is materialized **once** into flat
NumPy arrays (via :class:`~repro.graph.csr.CSRGraph`) and every per-phase
edge scan — the frozen-load recomputation ``y_old``, the true-load
aggregation of Line (g), the active-subgraph extraction, the direct
simulation, and the final weight readout — is a vectorized pass over
those arrays.  Freezing decisions go through
:meth:`ThresholdOracle.crosses_batch`, which only materializes the
threshold when the load estimate lands inside the random band; a
dispatched compressed phase makes one such call per step per worker,
over the disjoint union of the worker's machines.

Randomness.  Both random choices are keyed draws of the order-free
counter generator (:mod:`repro.utils.counter_rng`): the thresholds
``T_{v,t}`` are a pure function of ``(seed, v, t)``, and the Line (d)
owner of vertex ``v`` in phase ``p`` a pure function of ``(seed, p, v)``.
Nothing is consumed in an order, so every executor and every worker
count reads the same values.

Output form.  The weights come back as a
:class:`~repro.core.fractional.FractionalMatching`: ``edges`` are the
canonical CSR rows (ascending ``(u, v)``, ``u < v``) whose endpoints both
survived, and ``x`` their weights in row order, for every input
representation.  So a ``Graph``, a ``CSRGraph`` and an ``MMapCSRGraph`` of
the same graph give the same bytes downstream (the Lemma 5.1 rounding, the
total weight, the report).

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
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.central import NEVER_FROZEN
from repro.core.config import MatchingConfig
from repro.core.fractional import FractionalMatching
from repro.core.thresholds import ThresholdOracle
from repro.dist.executor import in_process
from repro.govern.governor import governed_broadcast
from repro.graph.csr import CSRGraph, as_csr, gather_rows
from repro.graph.graph import Graph
from repro.mpc.cluster import Message, MPCCluster
from repro.mpc.spec import ClusterSpec
from repro.mpc.words import edge_words, id_words
from repro.utils import counter_rng
from repro.utils.rng import SeedLike, make_rng

# Cap on the phase count, far above the O(log log n) bound; converts a
# schedule bug into an exception instead of a hang.
_MAX_PHASES = 300

# "Never froze" sentinel for the int64 freeze-time array (NEVER_FROZEN in
# the result).  Large enough to lose every ``min(..., now)`` while staying
# far from int64 overflow.
_NEVER = np.int64(2**62)

_CAP_MESSAGE = "direct Central-Rand simulation exceeded its iteration cap"


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
    # One power per iteration, not per edge; the same bits, indexed by t'.
    return (w0 * np.power(growth, np.arange(now + 1)))[t_prime]


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
    freeze_at:
        Per-vertex global freeze iteration, int64 over ``range(n)``
        (:data:`~repro.core.central.NEVER_FROZEN` if it never froze).
    heavy_removed:
        Ascending ids of the vertices removed at Line (i) (load exceeded
        1); they are in the cover but their edges are excluded from the
        fractional matching.
    max_machine_edges:
        Largest per-machine induced subgraph over all phases (Lemma 4.7's
        ``O(n)`` quantity).
    """

    matching: FractionalMatching
    rounds: int
    phases: int
    iterations: int
    freeze_at: np.ndarray
    heavy_removed: np.ndarray
    max_machine_edges: int = 0
    machine_edges_per_phase: List[int] = field(default_factory=list)
    direct_iterations: int = 0
    total_comm_words: int = 0
    peak_words: int = 0

    @property
    def vertex_cover(self) -> np.ndarray:
        """The reported vertex cover, as ascending int64 ids."""
        return self.matching.vertex_cover

    @property
    def weight(self) -> float:
        """Total fractional weight."""
        return self.matching.weight()

    def rounding_candidates(self, epsilon: float) -> np.ndarray:
        """The high-load cover subset ``C~`` fed to Lemma 5.1 rounding,
        as sorted vertex ids."""
        return self.matching.heavy_vertices(1.0 - 5.0 * epsilon)


def mpc_fractional_matching(
    graph: Union[Graph, CSRGraph],
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    oracle: Optional[ThresholdOracle] = None,
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
        freeze broadcasts.  Exact pass-through when it never triggers,
        with one accounting exception: a direct tail is gathered onto
        machine 0 only under the soft watermark, so a tail between the
        watermark and ``S`` is charged one round per iteration (same
        outputs, more rounds) where an ungoverned run gathers it.
    """
    config = config or MatchingConfig()
    epsilon = config.epsilon
    rng = make_rng(seed)
    csr = as_csr(graph)
    n = csr.num_vertices

    if n == 0 or csr.num_edges == 0:
        return MatchingMPCResult(
            matching=FractionalMatching.empty(csr),
            rounds=0,
            phases=0,
            iterations=0,
            freeze_at=np.full(n, NEVER_FROZEN, dtype=np.int64),
            heavy_removed=np.empty(0, dtype=np.int64),
        )
    executor = in_process(executor)

    if oracle is None:
        oracle = ThresholdOracle(
            config.threshold_low, config.threshold_high, seed=rng.getrandbits(64)
        )
    growth = 1.0 / (1.0 - epsilon)
    w0 = (1.0 - 2.0 * epsilon) / n

    spec = ClusterSpec.from_graph(csr, config.memory_factor, machines="sqrt")
    cluster = spec.build_cluster()
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
    freeze_at = np.full(n, _NEVER, dtype=np.int64)
    heavy = np.zeros(n, dtype=bool)
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

            # Same-machine active edges and each machine's count of them.
            same = owner_of[active_u] == owner_of[active_v]
            local_u = active_u[same]
            local_v = active_v[same]
            machine_of_edge = owner_of[local_u]
            counts = np.bincount(machine_of_edge, minlength=num_machines)
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

        # Lines (e): every machine simulates I iterations locally.  A
        # phase in which no estimate can reach the threshold band freezes
        # nothing, so its machine step is not dispatched; the charges
        # above and below are the same either way.
        local_degree = np.bincount(
            np.concatenate((local_u, local_v)), minlength=n
        )
        if _phase_can_freeze(
            local_degree[active_ids],
            y_old[active_ids],
            oracle,
            t,
            iterations,
            num_machines,
            w0,
            growth,
        ):
            # Each worker runs one contiguous machine range as a single
            # fused block; the ranges come back in machine order, so array
            # writes replay the freezes exactly as a machine-by-machine
            # merge would.
            grouping = np.argsort(owner_vals, kind="stable")
            sorted_ids = active_ids[grouping]
            sorted_machines = owner_vals[grouping]
            bounds = np.zeros(num_machines + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(owner_vals, minlength=num_machines), out=bounds[1:]
            )
            # Same-machine edges, grouped by machine in one sort.
            grouping = np.argsort(machine_of_edge, kind="stable")
            local_u = local_u[grouping]
            local_v = local_v[grouping]
            boundaries = np.zeros(num_machines + 1, dtype=np.int64)
            np.cumsum(counts, out=boundaries[1:])
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
        heavy[over_one] = True
        if over_one.size:
            loads = vertex_loads(t)
        newly_frozen = np.flatnonzero(
            surviving_mask
            & (freeze_at == _NEVER)
            & (loads >= 1.0 - 2.0 * epsilon)
        )
        freeze_at[newly_frozen] = t

    # Line (4): direct simulation of the remaining Central-Rand iterations.
    t_before_direct = t
    t = _direct_simulation(
        csr=csr,
        eu=eu,
        ev=ev,
        surviving_mask=surviving_mask,
        freeze_at=freeze_at,
        oracle=oracle,
        cluster=cluster,
        start_iteration=t,
        w0=w0,
        growth=growth,
        max_iterations=config.max_direct_iterations,
        vertex_loads=vertex_loads,
        executor=executor,
        governor=governor,
    )

    inside = surviving_mask[eu] & surviving_mask[ev]
    x = _edge_weights(freeze_at, eu[inside], ev[inside], t, w0, growth)
    frozen = freeze_at != _NEVER
    cover = np.flatnonzero(frozen | heavy)
    return MatchingMPCResult(
        matching=FractionalMatching(csr, edge_array[inside], x, cover),
        rounds=cluster.rounds,
        phases=phases,
        iterations=t,
        freeze_at=np.where(frozen, freeze_at, NEVER_FROZEN),
        heavy_removed=np.flatnonzero(heavy),
        max_machine_edges=max(machine_edges_per_phase, default=0),
        machine_edges_per_phase=machine_edges_per_phase,
        direct_iterations=t - t_before_direct,
        total_comm_words=cluster.total_comm_words,
        peak_words=cluster.peak_words(),
    )


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


def _phase_can_freeze(
    degree: np.ndarray,
    y_old: np.ndarray,
    oracle: ThresholdOracle,
    start_iteration: int,
    iterations: int,
    num_machines: int,
    w0: float,
    growth: float,
) -> bool:
    """Whether some estimate of a compressed phase can reach ``oracle.low``.

    ``degree`` and ``y_old`` are the phase's starting same-machine
    degrees and frozen loads over the active vertices.  During the phase
    degrees only fall, ``y_old`` is fixed and the largest weight is the
    largest ``w_t``; with the kernel's association, IEEE rounding is
    monotone in each operand, so ``(m · deg) · w_max + y_old`` bounds
    every estimate :func:`_machine_insertions` forms.  Every threshold
    is at least ``low``, so a bound below it freezes no vertex at any
    step: ``False`` means the machine step would return no freeze.
    """
    if degree.size == 0:
        return False
    w_max = max(
        w0 * growth**now
        for now in range(start_iteration, start_iteration + iterations)
    )
    bound = num_machines * degree * w_max + y_old
    return bool(bound.max() >= oracle.low)


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

    The driver dispatches this kernel only when :func:`_phase_can_freeze`
    says some estimate can reach ``oracle.low``; otherwise every
    :meth:`ThresholdOracle.crosses_batch` call here would return all
    ``False``.

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
    oracle: ThresholdOracle,
    cluster: MPCCluster,
    start_iteration: int,
    w0: float,
    growth: float,
    max_iterations: int,
    vertex_loads,
    executor,
    governor=None,
) -> int:
    """Line (4): simulate the remaining Central-Rand iterations directly.

    Returns the final global iteration counter.  The tail starts from
    the live active residual: the unfrozen survivors with an unfrozen
    surviving neighbour, their live edges, degrees and frozen loads.
    One ``matching.direct_tail`` task runs every remaining iteration on
    one worker, reading the immutable CSR adjacency from the session.

    *Gathered* when that residual fits machine 0
    (:meth:`MPCCluster.fits_leader`: two words per live edge plus one
    per active vertex, under the governor's soft watermark when one is
    attached).  One ship puts it on the leader and one broadcast returns
    the freeze times: 2 charged rounds for the whole tail.

    *Per iteration* otherwise: the tail is charged one round for each
    iteration the task ran, the MPC cost of simulating Central-Rand one
    round at a time over all machines.

    The task is the same either way, so the freeze times are identical
    for both forms and every worker count (the parity suite enforces
    it).  Only the rounds and words differ.
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
    words = edge_words(int(np.count_nonzero(live_edge))) + id_words(
        len(active_ids)
    )

    gathered = cluster.fits_leader(words, governor)
    key = executor.open_session(
        "matching-direct", {"indptr": csr.indptr, "indices": csr.indices}
    )
    try:
        if gathered:
            cluster.ship_to_machine(
                0,
                "direct_tail",
                None,
                words,
                context="matching: direct tail to leader",
            )
        [(ids, times, t)] = executor.map_tasks(
            "matching.direct_tail",
            [
                {
                    "active": initially_active,
                    "degree": active_degree,
                    "load": frozen_load,
                    "oracle": oracle,
                    "w0": w0,
                    "growth": growth,
                    "start": t,
                    "max_iterations": max_iterations,
                }
            ],
            shared={"session": key},
            phase="direct-simulation",
        )
    finally:
        executor.close_session(key)
    freeze_at[ids] = times
    if not gathered:
        for _ in range(t - start_iteration):
            cluster.charge_rounds(1, "matching: direct Central-Rand iteration")
        return t
    # (vertex, iteration) pairs.
    governed_broadcast(
        cluster,
        id_words(2 * len(ids)),
        "matching: direct tail freezes",
        governor,
    )
    cluster.machine(0).release("direct_tail")
    return t


def direct_tail(
    indptr: np.ndarray,
    indices: np.ndarray,
    active: np.ndarray,
    degree: np.ndarray,
    load: np.ndarray,
    oracle: ThresholdOracle,
    w0: float,
    growth: float,
    start: int,
    max_iterations: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """A whole direct tail on one worker (``matching.direct_tail``).

    ``active``, ``degree`` and ``load`` are the initial state over
    ``[0, n)`` (``degree`` and ``load`` are copied).  The initially-active
    mask also filters adjacency rows to the live edges: an edge with
    both endpoints initially active is live.  Each iteration ``t``:

    1. *Apply* iteration ``t - 1``'s freezes: every occurrence of a
       vertex in a newly-frozen vertex's filtered row adds ``w_{t-1}``
       to its frozen load and decrements its active degree.  All
       increments of one step are the same value, so ``np.add.at``
       gives the bits a per-neighbour loop would, in any order.
       Updates also land on vertices that already froze or went
       inactive; those never re-enter the active set, so their
       (divergent) cells are never read.
    2. Drop vertices whose active degree reached zero; the tail ends
       when none is left.
    3. *Decide* iteration ``t`` with one batched oracle call.

    Returns ``(ids, times, t)``: the freezes in iteration order
    (ascending ids within one iteration), and the final iteration
    counter.  Raises :class:`RuntimeError` past ``max_iterations``.
    """
    live = active
    active = active.copy()
    degree = np.array(degree, dtype=np.int64)
    load = np.array(load, dtype=np.float64)
    newly = np.empty(0, dtype=np.int64)
    frozen: List[np.ndarray] = []
    t = start
    while True:
        if newly.size:
            hits = gather_rows(indices, indptr, newly)
            hits = hits[live[hits]]
            np.add.at(load, hits, w0 * growth ** (t - 1))
            np.subtract.at(degree, hits, 1)
            active &= degree != 0
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        if t - start >= max_iterations:
            raise RuntimeError(_CAP_MESSAGE)
        w_t = w0 * growth**t
        estimates = load[act] + degree[act] * w_t
        newly = act[oracle.crosses_batch(act, t, estimates)]
        active[newly] = False
        frozen.append(newly)
        t += 1
    ids = np.concatenate(frozen) if frozen else np.empty(0, dtype=np.int64)
    times = np.repeat(
        np.arange(start, t, dtype=np.int64), [len(f) for f in frozen]
    )
    return ids, times, t
