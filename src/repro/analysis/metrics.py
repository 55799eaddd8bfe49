"""Measurement helpers for the experiment harness."""

from __future__ import annotations

import math
from typing import List, Sequence


def approximation_ratio(measured: float, optimal: float) -> float:
    """``optimal / measured`` for maximization problems (≥ 1 when valid).

    For minimization problems pass the arguments swapped.  A zero
    ``measured`` with nonzero ``optimal`` returns ``inf``.
    """
    if optimal == 0:
        return 1.0
    if measured == 0:
        return math.inf
    return optimal / measured


def loglog_slope(sizes: Sequence[int], rounds: Sequence[float]) -> float:
    """Least-squares slope of ``rounds`` against ``log2 log2 size``.

    The paper's headline claim is rounds ``= O(log log n)``: a bounded,
    modest slope here (with small residuals) is the measurable form of the
    claim.  Sizes must be > 2 so ``log log`` is defined.
    """
    if len(sizes) != len(rounds) or len(sizes) < 2:
        raise ValueError("need two equal-length series of length >= 2")
    xs = [math.log2(max(1.001, math.log2(s))) for s in sizes]
    ys = list(rounds)
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    variance = sum((x - mean_x) ** 2 for x in xs)
    if variance == 0:
        return 0.0
    return covariance / variance


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantiles(values: Sequence[float], points: Sequence[float]) -> List[float]:
    """Empirical quantiles (nearest-rank) of ``values`` at ``points``."""
    if not values:
        raise ValueError("quantiles of empty sequence")
    ordered = sorted(values)
    result = []
    for p in points:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile point {p} outside [0, 1]")
        rank = min(len(ordered) - 1, max(0, math.ceil(p * len(ordered)) - 1))
        result.append(ordered[rank])
    return result
