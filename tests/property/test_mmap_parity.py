"""Byte-parity of every CSR kernel on MMapCSRGraph vs CSRGraph.

The out-of-core graph (:class:`repro.ooc.MMapCSRGraph`) overrides the
chunk-sensitive kernels of :class:`repro.graph.csr.CSRGraph` with
residency-bounded implementations.  Chunking only reorders exact
integer/boolean work, so every kernel must return byte-identical arrays
(same values, same dtype) for any graph and any chunk geometry — that
equivalence is what lets the solvers run unchanged on either
representation, which the MIS test at the end checks end to end.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MISConfig
from repro.core.mis_mpc import mis_mpc
from repro.core.sparsified_mis import STRATEGIES
from repro.graph.properties import is_maximal_independent_set
from tests.property.strategies import csr_disk_pairs, mask_of

SETTINGS = settings(max_examples=60, deadline=None)


def assert_same_array(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.array_equal(a, b)


@st.composite
def pairs_with_masks(draw, max_vertices: int = 40):
    ram, mapped, tmp = draw(csr_disk_pairs(max_vertices=max_vertices))
    n = ram.num_vertices
    subset = (
        draw(st.sets(st.integers(min_value=0, max_value=n - 1))) if n else set()
    )
    return ram, mapped, tmp, mask_of(subset, n)


@SETTINGS
@given(pairs_with_masks())
def test_structure_and_scalar_kernels(example):
    ram, mapped, _tmp, mask = example
    assert mapped == ram  # CSRGraph equality: same n, same arrays
    assert mapped.num_vertices == ram.num_vertices
    assert mapped.num_edges == ram.num_edges
    assert mapped.max_degree() == ram.max_degree()
    assert mapped.max_degree(mask) == ram.max_degree(mask)
    assert_same_array(np.asarray(mapped.indptr), np.asarray(ram.indptr))
    assert_same_array(np.asarray(mapped.indices), np.asarray(ram.indices))
    assert_same_array(mapped.src, ram.src)
    for v in range(min(ram.num_vertices, 8)):
        assert mapped.degree(v) == ram.degree(v)
        assert_same_array(
            np.asarray(mapped.neighbors(v)), np.asarray(ram.neighbors(v))
        )


@SETTINGS
@given(pairs_with_masks())
def test_degree_and_edge_kernels(example):
    ram, mapped, _tmp, mask = example
    assert_same_array(mapped.degrees(), ram.degrees())
    assert_same_array(mapped.degrees(mask), ram.degrees(mask))
    assert mapped.count_edges_within(mask) == ram.count_edges_within(mask)
    assert_same_array(mapped.edge_array(), ram.edge_array())
    assert_same_array(mapped.induced_edges(mask), ram.induced_edges(mask))
    assert_same_array(
        mapped.threshold_filter(2, mask), ram.threshold_filter(2, mask)
    )


@SETTINGS
@given(pairs_with_masks())
def test_adjacency_chunks_cover_slots_in_order(example):
    ram, mapped, _tmp, _mask = example
    pieces = list(mapped.adjacency_chunks())
    src = (
        np.concatenate([s for s, _ in pieces])
        if pieces
        else np.empty(0, dtype=np.int64)
    )
    dst = (
        np.concatenate([d for _, d in pieces])
        if pieces
        else np.empty(0, dtype=np.int64)
    )
    assert_same_array(src.astype(np.int64, copy=False), ram.src)
    assert_same_array(
        dst.astype(np.int64, copy=False), np.asarray(ram.indices)
    )


@SETTINGS
@given(pairs_with_masks())
def test_subgraph_kernels(example):
    ram, mapped, _tmp, mask = example
    assert mapped.filter_edges(mask) == ram.filter_edges(mask)
    sub_ram, kept_ram = ram.induced_subgraph(mask)
    sub_mapped, kept_mapped = mapped.induced_subgraph(mask)
    assert sub_mapped == sub_ram
    assert_same_array(kept_mapped, kept_ram)


@SETTINGS
@given(pairs_with_masks(), st.integers(min_value=0, max_value=2**31))
def test_removal_and_gather_kernels(example, seed):
    ram, mapped, _tmp, mask = example
    n = ram.num_vertices
    rng = np.random.default_rng(seed)
    chosen = np.flatnonzero(rng.random(n) < 0.3) if n else np.empty(0, np.int64)
    assert_same_array(
        mapped.neighbors_bulk(chosen), ram.neighbors_bulk(chosen)
    )
    mask_ram = mask.copy()
    mask_mapped = mask.copy()
    ram.remove_closed_neighborhoods(chosen, mask=mask_ram)
    mapped.remove_closed_neighborhoods(chosen, mask=mask_mapped)
    assert_same_array(mask_mapped, mask_ram)


@SETTINGS
@given(pairs_with_masks(), st.integers(min_value=0, max_value=2**31))
def test_sample_vertices_parity(example, seed):
    ram, mapped, _tmp, _mask = example
    assert_same_array(
        mapped.sample_vertices(0.4, seed), ram.sample_vertices(0.4, seed)
    )


@SETTINGS
@given(
    csr_disk_pairs(),
    st.sampled_from(STRATEGIES),
    st.integers(min_value=0, max_value=2**31),
)
def test_mis_strategies_agree_across_representations(example, strategy, seed):
    """Both finish processes return one maximal independent set, byte for
    byte, from a Graph, a CSRGraph and an MMapCSRGraph of one instance."""
    ram, mapped, _tmp = example
    plain = ram.to_graph()
    config = MISConfig(sparse_strategy=strategy)
    results = [mis_mpc(g, seed=seed, config=config) for g in (plain, ram, mapped)]
    assert is_maximal_independent_set(plain, results[0].mis)
    for other in results[1:]:
        assert_same_array(other.mis, results[0].mis)
        assert other.rounds == results[0].rounds
