"""Graph substrate: graph types, generators, validators, and I/O."""

from repro.graph.graph import Graph
from repro.graph.csr import CSRGraph, GraphView, as_csr
from repro.graph.weighted import WeightedGraph
from repro.graph.generators import (
    barabasi_albert,
    caterpillar,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    planted_matching_graph,
    random_bipartite_graph,
    star_graph,
)
from repro.graph.properties import (
    is_independent_set,
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    is_valid_fractional_matching,
    is_vertex_cover,
)

__all__ = [
    "CSRGraph",
    "Graph",
    "GraphView",
    "WeightedGraph",
    "as_csr",
    "barabasi_albert",
    "caterpillar",
    "complete_graph",
    "cycle_graph",
    "gnm_random_graph",
    "gnp_random_graph",
    "grid_graph",
    "path_graph",
    "planted_matching_graph",
    "random_bipartite_graph",
    "star_graph",
    "is_independent_set",
    "is_matching",
    "is_maximal_independent_set",
    "is_maximal_matching",
    "is_valid_fractional_matching",
    "is_vertex_cover",
]
