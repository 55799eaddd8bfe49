"""Ball gathering by graph exponentiation.

The sparsified-MIS finish (our substitute for [Gha17], see DESIGN.md §5)
relies on the standard round-compression fact: after ``k`` doubling steps
each vertex knows its radius-``2^k`` ball, so collecting radius-``R`` balls
costs ``ceil(log2(R)) + 1`` rounds.  Any ``R``-round LOCAL algorithm whose
per-vertex output depends only on the ``R``-ball and shared randomness can
then be simulated locally with **zero** further communication.

:func:`ball_gather_rounds` is that round charge;
:mod:`repro.core.sparsified_mis` charges its ball-gathering step with it.
"""

from __future__ import annotations

import math


def ball_gather_rounds(radius: int) -> int:
    """Rounds to collect radius-``radius`` balls by doubling."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius <= 1:
        return 1
    return math.ceil(math.log2(radius)) + 1
