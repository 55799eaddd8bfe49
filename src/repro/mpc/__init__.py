"""MPC (Massively Parallel Computation) substrate.

Implements the model of Karloff–Suri–Vassilvitskii as refined in
[GSZ11, BKS13, ANOY14] and used by the paper (Section 1.1.1): ``m``
machines with ``S`` words of memory each, synchronous rounds, per-round
communication bounded by machine memory.  The substrate *measures* round
complexity and *enforces* memory limits; algorithms never assert their own
costs.
"""

from repro.mpc.cluster import MPCCluster
from repro.mpc.errors import MemoryExceededError, ProtocolError
from repro.mpc.machine import Machine
from repro.mpc.words import (
    WORDS_PER_EDGE,
    WORDS_PER_FLOAT,
    WORDS_PER_ID,
    edge_words,
    id_words,
)
from repro.mpc.ball import ball_gather_rounds
from repro.mpc.engine import EngineResult, PregelEngine, VertexContext
from repro.mpc.spec import ClusterSpec

__all__ = [
    "ClusterSpec",
    "EngineResult",
    "PregelEngine",
    "VertexContext",
    "MPCCluster",
    "Machine",
    "MemoryExceededError",
    "ProtocolError",
    "WORDS_PER_EDGE",
    "WORDS_PER_FLOAT",
    "WORDS_PER_ID",
    "edge_words",
    "id_words",
    "ball_gather_rounds",
]
