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
iterations.  The loop runs ``max_passes`` passes (12 at ε = 0.1) unless
the residual weight drops below 1, ``C~`` is empty, or two passes in a row
extract nothing; on G(n, d=20) for n from 1k to 64k the cap ends it.
Following Section 4.4.5, a final small-matching cleanup handles the
leftover matching via the LMSV11 filtering algorithm.

Residual layout.  The residual graph is never copied or mutated: it is
one vertex mask ``matched`` over the input's CSR, and each pass, like the
filtering cleanup, runs on ``csr.filter_edges(~matched)``.  The residual
keeps the input's vertex labels, so each pass's
:class:`~repro.core.fractional.FractionalMatching` rows are input edges in
canonical order, and the rounding walks them in that order for every
input representation.

Float association.  Each pass uses the fractional matching's own
arithmetic, with no copy here: the pass weight and the candidates ``C~``
are :class:`~repro.core.fractional.FractionalMatching`'s row-order sum
and interleaved-endpoint loads; the rounding's per-candidate sequential
sums end in each candidate's reach, which decides whether it proposes
(see :func:`~repro.core.rounding.round_fractional_matching`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.baselines.filtering import filtering_maximal_matching
from repro.core.config import MatchingConfig
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.rounding import round_fractional_matching
from repro.dist.executor import in_process
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.graph import Graph
from repro.mpc.spec import ClusterSpec
from repro.utils.rng import SeedLike, make_rng


@dataclass
class IntegralMatchingResult:
    """Outcome of the iterated matching extraction.

    Attributes
    ----------
    matching:
        The integral matching of the input graph: int64 ``(k, 2)``
        canonical rows, each pass's then the cleanup's.
    rounds:
        Total measured MPC rounds across all passes.
    passes:
        Number of algorithm-``A`` passes executed.
    per_pass_sizes:
        Matching edges extracted per pass (monitoring the extraction rate).
    cleanup_edges:
        Edges added by the final small-matching cleanup (Section 4.4.5).
    """

    matching: np.ndarray
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
        # residual optimum per pass) leave an ε fraction.  In practice the
        # cap, not a fixed point, ends the loop (see the module docstring).
        max_passes = max(8, 4 * int(math.log(1.0 / config.epsilon) + 1))

    executor = in_process(executor)
    csr = as_csr(graph)
    matched = np.zeros(csr.num_vertices, dtype=bool)
    residual = csr
    extracted_rows: List[np.ndarray] = []
    rounds = 0
    comm_words = 0
    peak_words = 0
    per_pass: List[int] = []
    empty_streak = 0

    for _ in range(max_passes):
        fractional = mpc_fractional_matching(
            residual,
            config=config,
            seed=rng.getrandbits(64),
            executor=executor,
            governor=governor,
        )
        rounds += fractional.rounds
        comm_words += fractional.total_comm_words
        peak_words = max(peak_words, fractional.peak_words)

        candidates = fractional.rounding_candidates(config.epsilon)
        if fractional.weight < 1.0 or candidates.size == 0:
            break
        extracted = round_fractional_matching(
            fractional.matching, candidates, seed=rng.getrandbits(64)
        ).matching
        rounds += 1  # rounding is a single local-decision MPC round
        per_pass.append(len(extracted))
        if len(extracted) == 0:
            empty_streak += 1
            if empty_streak >= 2:
                break
            continue
        empty_streak = 0
        extracted_rows.append(extracted)
        matched[extracted.ravel()] = True
        residual = csr.filter_edges(~matched)

    # Section 4.4.5: the residual optimum is now small; the LMSV11 filtering
    # maximal matching finishes it (maximal => 2-approximate on the residual).
    cleanup = filtering_maximal_matching(
        residual,
        words_per_machine=ClusterSpec.from_graph(
            graph, config.memory_factor
        ).words_per_machine,
        seed=rng.getrandbits(64),
    )
    rounds += cleanup.rounds

    return IntegralMatchingResult(
        matching=np.concatenate(extracted_rows + [cleanup.matching]),
        rounds=rounds,
        passes=len(per_pass),
        per_pass_sizes=per_pass,
        cleanup_edges=len(cleanup.matching),
        total_comm_words=comm_words,
        peak_words=peak_words,
    )
