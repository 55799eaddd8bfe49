"""Argument validation helpers.

Public API entry points validate their inputs eagerly and raise
``ValueError``/``TypeError`` with actionable messages, per the library's
fail-fast policy: a bad parameter should never surface as a confusing
failure three layers down inside a simulation.
"""

from __future__ import annotations


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Require ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def require_probability(value: float, name: str) -> None:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def require_epsilon(value: float, name: str = "epsilon") -> None:
    """Require an approximation parameter in ``(0, 1/2)``.

    The paper's analysis assumes ``ε < 1/50`` for the tightest constants but
    the algorithms are well-defined for any ``ε ∈ (0, 1/2)``; we accept that
    range and let callers trade accuracy for speed.
    """
    if not 0.0 < value < 0.5:
        raise ValueError(f"{name} must lie in (0, 0.5), got {value!r}")

