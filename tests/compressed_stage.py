"""Inputs on which MPC-Simulation still runs compressed phases.

MPC-Simulation starts its degree bound at the input's maximum degree
``Δ`` and runs compressed phases only while the bound exceeds the degree
floor ``(log2 n)^2``.  A sparse G(n, p) has ``Δ`` under the floor and goes
straight to the direct simulation, so every test of the compressed stage
(its scatter, its fused machine blocks, its governance) takes its input
from :func:`compressed_stage_graph`.
"""

from __future__ import annotations

from repro.core.config import MatchingConfig
from repro.graph.csr import as_csr
from repro.graph.generators import barabasi_albert, gnp_random_graph
from repro.graph.graph import Graph

_BUILDERS = {
    # Δ 188 > floor 120: one phase, which dispatches matching.machines.
    "powerlaw": lambda: barabasi_albert(2000, 4, seed=1),
    # Δ 214 > floor 85: two dispatched phases; a tight budget fails in
    # the first phase's scatter.
    "dense": lambda: gnp_random_graph(600, 0.3, seed=1),
    # Δ 261 > floor 150: the shape of the BENCH_dist powerlaw-a5 cell.
    "powerlaw-5k": lambda: barabasi_albert(5000, 5, seed=1),
}


def reaches_compressed_stage(graph) -> bool:
    """Whether ``graph``'s maximum degree exceeds the default degree floor."""
    csr = as_csr(graph)
    return csr.max_degree() > MatchingConfig().degree_floor(csr.num_vertices)


def compressed_stage_graph(kind: str = "powerlaw") -> Graph:
    """A fresh input of the named ``kind`` whose ``Δ`` exceeds the floor."""
    graph = _BUILDERS[kind]()
    assert reaches_compressed_stage(graph), kind
    return graph
