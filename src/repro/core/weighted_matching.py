"""(2+ε)-approximate maximum *weighted* matching — Corollary 1.4.

Follows the reduction of Lotker, Patt-Shamir, and Rosén [LPSR09] the paper
cites: bucket edges into ``O(log_{1+ε} (w_max/w_min))`` geometric weight
classes, then build the matching greedily from the heaviest class down,
computing a maximal matching among still-free vertices within each class.
Edges lighter than ``ε · w_max / n`` cannot contribute more than an ``ε``
fraction of any matching's weight and are dropped, capping the class count.

Each class is processed with the library's own O(log log n)-round maximal
matching machinery, so total rounds follow the corollary's
``O(log log n · 1/ε)`` shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.filtering import filtering_maximal_matching
from repro.dist.executor import in_process
from repro.graph.csr import CSRGraph, edge_rows
from repro.graph.graph import Edge
from repro.graph.weighted import WeightedGraph
from repro.mpc.spec import ClusterSpec
from repro.mpc.words import edge_words
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import require_epsilon


@dataclass
class WeightedMatchingResult:
    """Outcome of the weight-class reduction; ``matching`` is an int64
    ``(k, 2)`` array of canonical ``u < v`` rows, heaviest class first."""

    matching: np.ndarray
    weight: float
    rounds: int
    classes: int
    per_class_sizes: List[int] = field(default_factory=list)


def weight_classes(
    graph: WeightedGraph, epsilon: float
) -> List[List[Edge]]:
    """Partition edges into geometric classes, heaviest class first.

    Class ``j`` holds edges with weight in
    ``(w_max/(1+ε)^{j+1}, w_max/(1+ε)^j]``; edges below ``ε·w_max/n`` are
    dropped (they cannot matter at the ``(2+ε)`` scale).  Within a class,
    edges keep the order of ``graph.structure.edges()``.  The class index
    is ``math.log`` over the one weight array's ``tolist()``: ``np.log``
    may differ from it in the last bit, which could move a class boundary.
    """
    w_max = graph.max_weight()
    if w_max == 0.0:
        return []
    edges = list(graph.structure.edges())
    weights = graph.weights_of(edges)
    kept = np.flatnonzero(weights >= epsilon * w_max / max(1, graph.num_vertices))
    log_ratio = math.log(1.0 + epsilon)
    index = np.array(
        [
            math.floor(math.log(w_max / w) / log_ratio + 1e-12)
            for w in weights[kept].tolist()
        ],
        dtype=np.int64,
    )
    order = kept[np.argsort(index, kind="stable")].tolist()
    counts = np.bincount(index)
    ends = np.cumsum(counts[counts > 0]).tolist()
    return [
        [edges[i] for i in order[start:end]]
        for start, end in zip([0] + ends[:-1], ends)
    ]


def _filter_class(
    n: int,
    available: np.ndarray,
    words_per_machine: int,
    class_seed: int,
    sizes: Optional[List[int]],
) -> Tuple[np.ndarray, int]:
    """Run one weight class's free rows through filtering, in ``len(sizes)``
    batches; returns the matched rows and the rounds.

    ``sizes`` is the governor's chunk plan for the class (``None`` = in
    budget): the unchunked path is byte-identical to calling
    :func:`filtering_maximal_matching` directly.  Over-budget classes are
    split into sequential sub-batches; each batch drops edges already
    matched by earlier batches, so the union stays maximal on the class.
    """
    if sizes is None:
        outcome = filtering_maximal_matching(
            CSRGraph.from_edge_array(n, available),
            words_per_machine=words_per_machine,
            seed=class_seed,
        )
        return outcome.matching, outcome.rounds
    batch_rng = make_rng(class_seed)
    count = len(sizes)
    class_matched = np.zeros(n, dtype=bool)
    matched_rows = [available[:0]]
    rounds = 0
    for index in range(count):
        lo = index * len(available) // count
        hi = (index + 1) * len(available) // count
        batch = available[lo:hi]
        batch = batch[~(class_matched[batch[:, 0]] | class_matched[batch[:, 1]])]
        if len(batch) == 0:
            continue
        outcome = filtering_maximal_matching(
            CSRGraph.from_edge_array(n, batch),
            words_per_machine=words_per_machine,
            seed=batch_rng.getrandbits(64),
        )
        rounds += outcome.rounds
        matched_rows.append(outcome.matching)
        class_matched[outcome.matching.ravel()] = True
    return np.concatenate(matched_rows), rounds


def mpc_weighted_matching(
    graph: WeightedGraph,
    epsilon: float = 0.1,
    seed: SeedLike = None,
    memory_factor: int = 8,
    executor=None,
    governor=None,
) -> WeightedMatchingResult:
    """Compute a constant-approximate weighted matching of ``graph``.

    Greedy-by-class: for each weight class (heavy to light), compute a
    maximal matching on the class edges among still-free vertices and add
    it.  The classic analysis gives a ``2(1+ε)``-style factor against the
    optimum restricted to kept edges, hence ``(2+O(ε))`` overall.

    Classes are sequentially dependent (each sees the previous classes'
    matched vertices), so each class's filtering run is one
    ``weighted.filtering`` task on the ``executor`` (in process when it
    is ``None``); the per-class seed and the governor's chunk plan are
    drawn driver-side, so every executor computes the same classes.

    With a ``governor``, a weight class whose participating edge set
    exceeds the soft per-machine budget is chunked into sequential
    sub-batches, each filtered among still-free vertices.  Maximality on
    the class survives the split (the matched set only grows, so an edge
    left unmatched by every batch had both endpoints free during its own
    batch — contradicting that batch's maximality); byte-identity holds
    whenever no class is chunked.
    """
    require_epsilon(epsilon)
    rng = make_rng(seed)
    classes = weight_classes(graph, epsilon)
    n = graph.num_vertices
    matched = np.zeros(n, dtype=bool)
    matched_rows = [np.empty((0, 2), dtype=np.int64)]
    rounds = 0
    per_class: List[int] = []
    executor = in_process(executor)
    spec = ClusterSpec.from_graph(graph, memory_factor)
    words_per_machine = spec.words_per_machine
    if governor is not None:
        governor.bind_words(words_per_machine, spec.num_machines)

    for class_index, edges in enumerate(classes):
        rows = edge_rows(edges)
        available = rows[~(matched[rows[:, 0]] | matched[rows[:, 1]])]
        if len(available) == 0:
            per_class.append(0)
            continue
        class_seed = rng.getrandbits(64)
        sizes = None
        if governor is not None:
            sizes = governor.plan_chunks(
                edge_words(len(available)),
                f"weighted: class {class_index} filtering",
            )
        [(class_matching, class_rounds)] = executor.map_tasks(
            "weighted.filtering",
            [(n, available, words_per_machine, class_seed, sizes)],
            phase="weight-classes",
        )
        rounds += class_rounds
        per_class.append(len(class_matching))
        matched_rows.append(class_matching)
        matched[class_matching.ravel()] = True

    matching = np.concatenate(matched_rows)
    return WeightedMatchingResult(
        matching=matching,
        weight=graph.matching_weight(matching),
        rounds=rounds,
        classes=len(classes),
        per_class_sizes=per_class,
    )
