"""Integral (2+ε)-approximate maximum matching — Theorem 1.2.

The proof of Theorem 1.2 iterates algorithm ``A``:

1. run MPC-Simulation on the residual graph to get a fractional matching
   ``x`` and the high-load candidate set ``C~`` (at least a third of the
   cover has load ``≥ 1 - 5ε`` by Lemma 4.2);
2. round ``x`` with Lemma 5.1 to an integral matching ``M_i``;
3. delete the matched vertices and repeat.

Each pass extracts a constant fraction of the residual maximum matching,
so ``O(log 1/ε)`` passes leave at most an ``ε`` fraction behind.  The
paper's worst-case constant (1/150 per pass) would mean hundreds of
iterations; measured extraction is vastly better, so the loop simply runs
until the residual fractional weight is negligible (with a safety cap).
Following Section 4.4.5, a final small-matching cleanup handles the
leftover polylog-size matching via the LMSV11 filtering algorithm.

Residual layout.  The residual graph is never copied or mutated: it is
one vertex mask ``matched`` over the input's canonical CSR edge rows, and
each pass runs on ``csr.filter_edges(~matched)``.  The residual's rows are
the input's live rows in ascending order, so the per-pass weights of the
array core :func:`~repro.core.matching_mpc.fractional_matching_arrays`,
``(inside, x)`` over the residual's rows, map back to input rows with one
gather.  The rounding walks the weighted edges in that canonical order
for every input representation.

Float association.  The pass weight is the left-to-right Python ``sum``
of the weights in row order.  The candidate loads ``C~`` are one
``np.bincount`` over the interleaved ``(u0, v0, u1, v1, ...)`` endpoints,
which adds in exactly the order of the ``FractionalMatching.vertex_loads``
loop (``bincount(u) + bincount(v)`` would not).  The rounding sums are
per-candidate sequential (see :func:`~repro.core.rounding.round_edge_arrays`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Set, Union

import numpy as np

from repro.baselines.filtering import filtering_maximal_matching
from repro.core.config import MatchingConfig
from repro.core.matching_mpc import fractional_matching_arrays
from repro.core.rounding import round_edge_arrays
from repro.dist.executor import in_process
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Edge, Graph
from repro.mpc.spec import ClusterSpec
from repro.utils.rng import SeedLike, make_rng
from repro.utils.trace import Trace, maybe_record


@dataclass
class IntegralMatchingResult:
    """Outcome of the iterated matching extraction.

    Attributes
    ----------
    matching:
        The integral matching (a valid matching of the input graph).
    rounds:
        Total measured MPC rounds across all passes.
    passes:
        Number of algorithm-``A`` passes executed.
    per_pass_sizes:
        Matching edges extracted per pass (monitoring the extraction rate).
    cleanup_edges:
        Edges added by the final small-matching cleanup (Section 4.4.5).
    """

    matching: Set[Edge]
    rounds: int
    passes: int
    per_pass_sizes: List[int] = field(default_factory=list)
    cleanup_edges: int = 0
    total_comm_words: int = 0
    peak_words: int = 0


def mpc_maximum_matching(
    graph: Union[Graph, CSRGraph],
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    max_passes: Optional[int] = None,
    trace: Optional[Trace] = None,
    executor=None,
    governor=None,
) -> IntegralMatchingResult:
    """Compute a ``(2+O(ε))``-approximate integral matching of ``graph``.

    ``executor`` (an optional :class:`repro.dist.DistExecutor`; ``None``
    = one in-process worker, built once here) is handed to every per-pass
    fractional solve; rounding and cleanup stay driver-side (their
    sequential RNG order is load-bearing).  A
    ``governor`` is likewise handed to every pass — its peak-hold
    estimator persists across passes, so imbalance measured in pass 1
    informs the partition sizing of pass 2.
    """
    config = config or MatchingConfig()
    rng = make_rng(seed)
    if max_passes is None:
        # ln(1/ε) passes at the *measured* extraction rate (>= 1/3 of the
        # residual optimum per pass) leave an ε fraction; the cap is
        # generous so the fixed point, not the cap, ends the loop.
        max_passes = max(8, 4 * int(math.log(1.0 / config.epsilon) + 1))

    executor = in_process(executor)
    csr = as_csr(graph)
    n = csr.num_vertices
    edges = csr.edge_array()
    eu = edges[:, 0]
    ev = edges[:, 1]
    matched = np.zeros(n, dtype=bool)
    residual = csr
    matching: Set[Edge] = set()
    rounds = 0
    comm_words = 0
    peak_words = 0
    per_pass: List[int] = []
    empty_streak = 0

    for pass_index in range(max_passes):
        fractional, inside, x = fractional_matching_arrays(
            residual,
            config=config,
            seed=rng.getrandbits(64),
            trace=trace,
            executor=executor,
            governor=governor,
        )
        rounds += fractional.rounds
        comm_words += fractional.total_comm_words
        peak_words = max(peak_words, fractional.peak_words)

        # The residual's rows are the input's live rows, ascending.
        rows = np.flatnonzero(~(matched[eu] | matched[ev]))[inside]
        wu, wv, wx = eu[rows], ev[rows], x
        weight = sum(wx.tolist())

        ends = np.column_stack((wu, wv)).ravel()
        loads = np.bincount(ends, weights=np.repeat(wx, 2), minlength=n)
        # Only vertices with a weighted edge have a load; this matters
        # when 1 - 5ε <= 0.
        present = np.bincount(ends, minlength=n) > 0
        candidates = np.flatnonzero(
            present & (loads >= 1.0 - 5.0 * config.epsilon)
        )
        if weight < 1.0 or candidates.size == 0:
            break
        extracted = round_edge_arrays(
            wu, wv, wx, candidates, seed=rng.getrandbits(64)
        ).matching
        rounds += 1  # rounding is a single local-decision MPC round
        per_pass.append(len(extracted))
        maybe_record(
            trace,
            "integral_pass",
            pass_index=pass_index,
            extracted=len(extracted),
            fractional_weight=weight,
        )
        if not extracted:
            empty_streak += 1
            if empty_streak >= 2:
                break
            continue
        empty_streak = 0
        matching |= extracted
        matched[[v for edge in extracted for v in edge]] = True
        residual = csr.filter_edges(~matched)

    # Section 4.4.5: the residual optimum is now small; the LMSV11 filtering
    # maximal matching finishes it (maximal => 2-approximate on the residual).
    cleanup = filtering_maximal_matching(
        Graph(n, residual.edge_list()),
        words_per_machine=ClusterSpec.from_graph(
            graph, config.memory_factor
        ).words_per_machine,
        seed=rng.getrandbits(64),
    )
    matching |= cleanup.matching
    rounds += cleanup.rounds

    return IntegralMatchingResult(
        matching=matching,
        rounds=rounds,
        passes=len(per_pass),
        per_pass_sizes=per_pass,
        cleanup_edges=len(cleanup.matching),
        total_comm_words=comm_words,
        peak_words=peak_words,
    )
