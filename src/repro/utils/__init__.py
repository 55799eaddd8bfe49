"""Shared utilities: seeded randomness, tracing, and argument validation."""

from repro.utils.rng import RngStream, make_rng
from repro.utils.trace import Trace, TraceEvent
from repro.utils.validation import (
    require,
    require_epsilon,
    require_non_negative,
    require_positive,
    require_probability,
)

__all__ = [
    "RngStream",
    "make_rng",
    "Trace",
    "TraceEvent",
    "require",
    "require_epsilon",
    "require_non_negative",
    "require_positive",
    "require_probability",
]
