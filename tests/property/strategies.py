"""Shared hypothesis strategies for the library's graph types.

Before this module every property-test file grew its own ``@st.composite``
graph generator; these are the consolidated versions, parameterized the
same way everywhere:

* :func:`graphs` — random ``G(n, m)`` as the set-based :class:`Graph`
  (optionally guaranteeing edges for algorithms that need them);
* :func:`csr_graphs` — the same distribution as :class:`CSRGraph`;
* :func:`weighted_graphs` — random structure with positive uniform
  weights;
* :func:`graphs_with_subsets` — a graph plus a random vertex subset, for
  the mask/induced-subgraph parity checks;
* :func:`csr_disk_pairs` — a :class:`CSRGraph` round-tripped through the
  out-of-core on-disk format, paired with its
  :class:`~repro.ooc.MMapCSRGraph` view under random chunk sizes, for
  the mmap-vs-RAM kernel byte-parity suite;
* :func:`dense_pair_graphs` — small graphs drawn by sampling explicit
  vertex pairs (hits duplicate-edge and near-clique shapes ``G(n, m)``
  rarely produces);
* :func:`adversarial_graphs` — the memory-hostile regimes the governance
  ladder exists for: dense ``G(n, 1/2)`` and heavy power-law
  (Barabási–Albert with high attachment), where tight per-machine
  budgets breach without intervention;
* :func:`graphs_with_batches` — a graph plus a random
  :class:`~repro.stream.updates.EdgeBatch` sequence (inserts, deletes of
  present and absent edges, vertex growth), for the dynamic-overlay and
  maintainer properties.

``mask_of`` converts a subset to the boolean mask shape the CSR kernels
take; ``induced_edge_list`` is the set-side oracle for ``G[subset]``.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    gnm_random_graph,
    gnp_random_graph,
)
from repro.graph.graph import Graph
from repro.graph.weighted import WeightedGraph
from repro.ooc import MMapCSRGraph, save_csr
from repro.utils.rng import make_rng


@st.composite
def graphs(draw, max_vertices: int = 40, min_vertices: int = 0, min_edges: int = 0):
    """A random ``G(n, m)`` graph of arbitrary density."""
    n = draw(st.integers(min_value=max(min_vertices, 0), max_value=max_vertices))
    max_edges = n * (n - 1) // 2
    m = draw(st.integers(min_value=min(min_edges, max_edges), max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return gnm_random_graph(n, m, seed=seed)


@st.composite
def dense_pair_graphs(draw, max_vertices: int = 24, max_edges: int = 60):
    """A small graph built from explicitly sampled vertex pairs.

    Unlike :func:`graphs`, duplicate pairs are drawn and collapsed, so
    shrinking finds minimal edge lists quickly.
    """
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(possible), max_size=max_edges))
        if possible
        else []
    )
    return Graph(n, edges)


@st.composite
def adversarial_graphs(draw, min_vertices: int = 24, max_vertices: int = 96):
    """Graphs from the memory-hostile regimes of the governance suite.

    Either dense ``G(n, 1/2)`` (quadratic edge volume: every scatter and
    broadcast is hot) or heavy power-law (Barabási–Albert, attachment
    drawn up to 8: hub-induced subgraphs concentrate on few machines).
    Sizes start at ``min_vertices`` because tiny instances never stress
    a budget — the point of the strategy is load, not shrinkability.
    """
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    if draw(st.booleans()):
        return gnp_random_graph(n, 0.5, seed=seed)
    attachment = draw(st.integers(min_value=4, max_value=8))
    return barabasi_albert(max(n, attachment + 1), attachment, seed=seed)


@st.composite
def csr_graphs(draw, max_vertices: int = 40):
    """The :func:`graphs` distribution, converted to :class:`CSRGraph`."""
    return CSRGraph.from_graph(draw(graphs(max_vertices=max_vertices)))


@st.composite
def csr_disk_pairs(draw, max_vertices: int = 40):
    """A CSR graph and its on-disk mmap view, plus the backing tempdir.

    The returned :class:`tempfile.TemporaryDirectory` must stay
    referenced for as long as the mmap graph is used (its finalizer
    deletes the files); tests just keep the 3-tuple together.  Chunk
    sizes are drawn down to 1 so the chunked kernels cross chunk
    boundaries in every shape hypothesis can find.
    """
    ram = draw(csr_graphs(max_vertices=max_vertices))
    tmp = tempfile.TemporaryDirectory(prefix="repro-ooc-")
    save_csr(ram, tmp.name)
    chunk_slots = draw(st.integers(min_value=1, max_value=len(ram.indices) + 1))
    chunk_rows = draw(st.integers(min_value=1, max_value=ram.num_vertices + 1))
    mapped = MMapCSRGraph(
        tmp.name, chunk_slots=chunk_slots, chunk_rows=chunk_rows
    )
    return ram, mapped, tmp


@st.composite
def weighted_graphs(draw, max_vertices: int = 24, max_weight: float = 100.0):
    """Random structure with positive uniform edge weights."""
    graph = draw(graphs(max_vertices=max_vertices, min_vertices=2, min_edges=1))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = make_rng(seed)
    weighted = WeightedGraph(graph.num_vertices)
    for u, v in graph.edges():
        weighted.add_edge(u, v, rng.uniform(0.1, max_weight))
    return weighted


@st.composite
def graphs_with_subsets(draw, max_vertices: int = 24):
    """A graph plus a random vertex subset (possibly empty)."""
    graph = draw(dense_pair_graphs(max_vertices=max_vertices))
    n = graph.num_vertices
    subset = (
        draw(st.sets(st.integers(min_value=0, max_value=n - 1))) if n else set()
    )
    return graph, subset


def mask_of(subset, n: int) -> np.ndarray:
    """A boolean mask over ``n`` vertices with ``subset`` set."""
    mask = np.zeros(n, dtype=bool)
    mask[list(subset)] = True
    return mask


def induced_edge_list(graph, subset) -> list:
    """The edges of ``G[subset]``, canonical and ascending."""
    return sorted((u, v) for u, v in graph.edges() if u in subset and v in subset)


@st.composite
def graphs_with_batches(
    draw,
    max_vertices: int = 24,
    max_batches: int = 5,
    max_edits: int = 12,
    max_growth: int = 3,
):
    """A graph plus a random batch sequence to stream onto it.

    Batches mix insertions and deletions of arbitrary pairs (present or
    not — the overlay must treat the misses as no-ops) and occasionally
    append vertices; endpoints may target grown vertices of earlier
    batches.
    """
    from repro.stream.updates import EdgeBatch

    graph = draw(dense_pair_graphs(max_vertices=max_vertices))
    n = graph.num_vertices
    batches = []
    for index in range(draw(st.integers(min_value=0, max_value=max_batches))):
        growth = draw(st.integers(min_value=0, max_value=max_growth))
        n += growth
        pair = st.tuples(
            st.integers(min_value=0, max_value=max(n - 1, 0)),
            st.integers(min_value=0, max_value=max(n - 1, 0)),
        ).filter(lambda uv: uv[0] != uv[1])
        insertions = draw(st.lists(pair, max_size=max_edits)) if n >= 2 else []
        deletions = draw(st.lists(pair, max_size=max_edits)) if n >= 2 else []
        batches.append(
            EdgeBatch.make(
                insertions=insertions,
                deletions=deletions,
                new_vertices=growth,
                timestamp=float(index),
            )
        )
    return graph, batches
