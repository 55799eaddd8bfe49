"""Workload characterization: the degree summary the load governor reads.

The summary is vectorized over the degrees array (a CSR graph hands one
over for free via ``np.diff(indptr)``), so it is cheap enough for the
load governor to call on every solve: :func:`load_summary` is the
hot-path entry the governor's peak-hold estimator primes itself from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


def _degrees_array(graph) -> np.ndarray:
    """Degrees of ``graph`` (a :class:`Graph` or CSR graph) as int64."""
    return np.asarray(graph.degrees(), dtype=np.int64)


@dataclass(frozen=True)
class LoadSummary:
    """The structural figures the load governor consumes.

    ``skew_ratio`` (max/mean degree) primes the peak-hold imbalance
    estimator before the first scatter; the percentiles and the two-hop
    ball estimate contextualize it in reports.
    """

    num_vertices: int
    num_edges: int
    mean_degree: float
    max_degree: int
    p50_degree: int
    p90_degree: int
    p99_degree: int
    skew_ratio: float
    estimated_ball_size: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for report extras."""
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "mean_degree": self.mean_degree,
            "max_degree": self.max_degree,
            "p50_degree": self.p50_degree,
            "p90_degree": self.p90_degree,
            "p99_degree": self.p99_degree,
            "skew_ratio": self.skew_ratio,
            "estimated_ball_size": self.estimated_ball_size,
        }


def load_summary(graph) -> LoadSummary:
    """Degree-percentile / ball-size summary of a :class:`Graph` or CSR.

    ``estimated_ball_size`` is the expected radius-2 ball size from a
    uniform vertex, ``1 + d̄ + d̄ · E[d²]/E[d]`` (the second factor is the
    friendship-paradox mean neighbor degree), capped at ``n`` — the
    quantity a ball-growing phase would materialize per vertex.
    """
    degrees = _degrees_array(graph)
    n = int(degrees.size)
    if n == 0:
        return LoadSummary(0, 0, 0.0, 0, 0, 0, 0, 0.0, 0.0)
    total = float(degrees.sum())
    mean = total / n
    ordered = np.sort(degrees)
    maximum = int(ordered[-1])
    if mean > 0.0:
        neighbor_mean = float(np.square(degrees, dtype=np.float64).sum()) / total
        ball = min(float(n), 1.0 + mean + mean * neighbor_mean)
        skew = maximum / mean
    else:
        ball = 1.0
        skew = 0.0
    return LoadSummary(
        num_vertices=n,
        num_edges=int(total) // 2,
        mean_degree=mean,
        max_degree=maximum,
        p50_degree=int(ordered[n // 2]),
        p90_degree=int(ordered[min(n - 1, (9 * n) // 10)]),
        p99_degree=int(ordered[min(n - 1, (99 * n) // 100)]),
        skew_ratio=skew,
        estimated_ball_size=ball,
    )
