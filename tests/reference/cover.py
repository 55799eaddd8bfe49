"""The endpoint cover of a matching, as a Python set.

The set form of :func:`repro.core.vertex_cover.cover_from_maximal_matching`
(which returns sorted int64 ids); the validator tests build their
witnesses with it.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple


def matching_vertices(edges: Iterable[Tuple[int, int]]) -> Set[int]:
    """The set of endpoints of a set of edges."""
    return {vertex for edge in edges for vertex in edge}
