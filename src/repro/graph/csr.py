"""NumPy-backed CSR graph kernels — the vectorized hot-path layer.

Every algorithm in the library bottoms out in the same few primitives:
degree queries, threshold filtering, vertex-subset sampling, induced
subgraphs, neighborhood deletion, and edge counting over a vertex mask.
:class:`CSRGraph` stores the adjacency structure once as two flat arrays
(``indptr``/``indices``, the classic compressed-sparse-row layout) and
exposes each primitive as a vectorized kernel, so the per-phase scans of
the MPC algorithms run at NumPy speed instead of per-element Python.

Design points:

* ``CSRGraph`` is **immutable**.  Algorithms that "delete" vertices (the
  greedy-MIS residual, Luby rounds, survivor sets) carry a boolean *mask*
  and pass it to the kernels — deletion is O(1) bookkeeping and every scan
  stays a flat array pass.  This matches how the residual graphs actually
  evolve: vertices are only ever isolated, never re-wired, so the residual
  edge set is exactly "original edges with both endpoints alive".
* Every solver reads this form: the façade converts its input once
  (:func:`as_csr`, memoized on a :class:`~repro.graph.graph.Graph`) and
  hands the result to the backend.  Conversion to the set-based graph
  is lossless and kept for the searches that walk adjacency sets (the
  augmenting-path DFS, Blossom, the brute-force oracle), which read
  :func:`canonical_graph`.
* Neighbor lists are sorted ascending within each row, which makes
  ``has_edge`` a binary search and lets the edge kernels emit canonical
  ``(u, v), u < v`` output in ascending order for free.

The :class:`GraphView` protocol names the read-only surface shared by
both representations; a call site that needs the arrays takes
:func:`as_csr` of whatever it was given.
"""

from __future__ import annotations

from array import array
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.graph.graph import Edge, Graph

# Below this many gathered rows, a per-row slice concatenation beats the
# ragged-gather index arithmetic (see ``neighbors_bulk``); the crossover is
# pinned by the ``remove_closed_neighborhoods_small`` kernel benchmark.
SMALL_GATHER_ROWS = 64

MaskLike = Union[np.ndarray, Iterable[int], None]


@runtime_checkable
class GraphView(Protocol):
    """The read-only surface shared by :class:`Graph` and :class:`CSRGraph`.

    Call sites written against this protocol work with either
    representation; :func:`as_csr` converts when the arrays are needed.
    """

    @property
    def num_vertices(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def vertices(self) -> range: ...

    def degree(self, v: int) -> int: ...

    def max_degree(self) -> int: ...

    def has_edge(self, u: int, v: int) -> bool: ...

    def edges(self) -> Iterator[Edge]: ...


class CSRGraph:
    """Immutable undirected simple graph in compressed-sparse-row form.

    ``indptr`` has length ``n + 1``; the neighbors of vertex ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]``, sorted ascending.  Each
    undirected edge appears twice (once per direction), so
    ``len(indices) == 2 * num_edges``.
    """

    __slots__ = ("_n", "_indptr", "_indices", "_src")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self._n = len(indptr) - 1
        self._indptr = indptr
        self._indices = indices
        self._src: Optional[np.ndarray] = None  # lazily built row-id array

    # -- construction -------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph, mask: MaskLike = None) -> "CSRGraph":
        """Lossless conversion from the set-based reference representation.

        With ``mask``, only edges with *both* endpoints inside the mask are
        kept (labels preserved, out-of-mask vertices isolated): the CSR of
        the residual graph, ``as_csr(graph).filter_edges(mask)``.

        Prefer :func:`as_csr`, which memoizes the unmasked result on the
        graph.  Hot-path layout: neighbor sets are drained row-by-row
        through an ``array('q')`` buffer (C-level set iteration, no
        per-element Python objects), and the within-row ascending order
        is restored with one flat sort of ``row * n + neighbor`` keys
        instead of a two-key lexsort.
        """
        if mask is not None:
            return as_csr(graph).filter_edges(mask)
        n = graph.num_vertices
        adjacency: List = [graph.neighbors_view(v) for v in range(n)]
        degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        buffer = array("q")
        extend = buffer.extend
        for neighbors in adjacency:
            extend(neighbors)
        if len(buffer):
            key = np.repeat(np.arange(n, dtype=np.int64), degrees)
            key *= np.int64(n)
            key += np.frombuffer(buffer, dtype=np.int64)
            key.sort()
            indices = key % np.int64(n)
        else:
            indices = np.empty(0, dtype=np.int64)
        return cls(indptr, indices)

    @classmethod
    def from_edge_array(cls, num_vertices: int, edges: np.ndarray) -> "CSRGraph":
        """Build from an ``(m, 2)`` array of distinct undirected edges.

        Self-loops are rejected; duplicate edges (in either orientation)
        are collapsed.
        """
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= num_vertices:
                raise ValueError("edge endpoint out of range")
            if (edges[:, 0] == edges[:, 1]).any():
                raise ValueError("self-loops are not allowed")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            canonical = sorted_unique(lo * np.int64(num_vertices) + hi)
            lo = canonical // num_vertices
            hi = canonical % num_vertices
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        return cls._from_directed(num_vertices, src, dst)

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Edge]) -> "CSRGraph":
        """Build from an iterable of ``(u, v)`` pairs."""
        return cls.from_edge_array(num_vertices, edge_rows(edges))

    @classmethod
    def _from_directed(
        cls, num_vertices: int, src: np.ndarray, dst: np.ndarray
    ) -> "CSRGraph":
        """Assemble CSR from directed slot arrays (both directions present)."""
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        counts = np.bincount(src, minlength=num_vertices).astype(np.int64)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst)

    def to_graph(self) -> Graph:
        """Lossless conversion back to the set-based representation.

        Rows are ascending, so each adjacency set is filled in the order
        the canonical ``add_edge`` loop would use; the result keeps this
        CSR as its memoized form.
        """
        return Graph._from_csr(self)

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return len(self._indices) // 2

    @property
    def indptr(self) -> np.ndarray:
        """The CSR row-pointer array (length ``n + 1``); do not mutate."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """The CSR column array (length ``2m``); do not mutate."""
        return self._indices

    @property
    def src(self) -> np.ndarray:
        """Row id of every directed slot: ``src[k]`` owns ``indices[k]``."""
        if self._src is None:
            self._src = np.repeat(
                np.arange(self._n, dtype=np.int64), np.diff(self._indptr)
            )
        return self._src

    def vertices(self) -> range:
        """The vertex set as a range."""
        return range(self._n)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of ``v``, sorted ascending (a read-only view)."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (binary search, rows are sorted)."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return pos < len(row) and row[pos] == v

    def edges(self) -> Iterator[Edge]:
        """Iterate edges in canonical ``(u, v), u < v`` form, ascending."""
        return iter(self.edge_list())

    def edge_array(self) -> np.ndarray:
        """All edges as a canonical ``(m, 2)`` array, ascending."""
        forward = self.src < self._indices
        return np.column_stack((self.src[forward], self._indices[forward]))

    def edge_list(self) -> List[Edge]:
        """All edges as a sorted list of tuples."""
        edges = self.edge_array()
        return list(zip(edges[:, 0].tolist(), edges[:, 1].tolist()))

    # -- vectorized kernels --------------------------------------------------

    def _as_mask(self, vertices: MaskLike) -> Optional[np.ndarray]:
        """Normalize a mask argument to a boolean array (or None = all)."""
        if vertices is None:
            return None
        array = np.asarray(vertices)
        if array.dtype == np.bool_:
            if len(array) != self._n:
                raise ValueError(
                    f"mask length {len(array)} != num_vertices {self._n}"
                )
            return array
        mask = np.zeros(self._n, dtype=bool)
        mask[array.astype(np.int64, copy=False)] = True
        return mask

    def degrees(self, mask: MaskLike = None) -> np.ndarray:
        """Degree sequence; with ``mask``, the degree sequence of ``G[mask]``.

        ``degrees(mask)[v]`` counts neighbors of ``v`` inside the mask for
        masked vertices and reads 0 outside it — exactly the per-phase
        residual-degree scan the MPC algorithms need.
        """
        selected = self._as_mask(mask)
        if selected is None:
            return np.diff(self._indptr)
        inside = selected[self.src] & selected[self._indices]
        return np.bincount(self.src[inside], minlength=self._n)

    def max_degree(self, mask: MaskLike = None) -> int:
        """Maximum degree ``Δ`` (restricted to ``mask`` when given)."""
        if self._n == 0:
            return 0
        return int(self.degrees(mask).max())

    def count_edges_within(self, mask: MaskLike) -> int:
        """Number of edges with *both* endpoints inside ``mask``."""
        selected = self._as_mask(mask)
        if selected is None:
            return self.num_edges
        inside = selected[self.src] & selected[self._indices]
        return int(np.count_nonzero(inside)) // 2

    def induced_edges(self, mask: MaskLike) -> np.ndarray:
        """Edges of ``G[mask]`` with original labels, canonical ascending."""
        selected = self._as_mask(mask)
        src = self.src
        forward = src < self._indices
        if selected is not None:
            forward &= selected[src] & selected[self._indices]
        return np.column_stack((src[forward], self._indices[forward]))

    def filter_edges(self, mask: MaskLike) -> "CSRGraph":
        """Same vertex set, keeping only edges with both endpoints in ``mask``.

        This is the "residual graph" materializer: vertices outside the
        mask become isolated, labels are preserved.
        """
        selected = self._as_mask(mask)
        if selected is None:
            return self
        inside = selected[self.src] & selected[self._indices]
        src = self.src[inside]
        dst = self._indices[inside]
        counts = np.bincount(src, minlength=self._n).astype(np.int64)
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Slot order is preserved, so rows stay sorted.
        return CSRGraph(indptr, dst)

    def neighbors_bulk(self, vertices: Sequence[int]) -> np.ndarray:
        """Concatenated neighbor lists of ``vertices`` (ragged gather)."""
        return gather_rows(self._indices, self._indptr, vertices)

    def remove_closed_neighborhoods(
        self, vertices: Sequence[int], mask: MaskLike = None
    ) -> np.ndarray:
        """Alive-mask after deleting ``vertices`` and all their neighbors.

        Returns a *new* boolean mask (the input mask is not mutated) with
        every listed vertex and each of its *original-graph* neighbors set
        to ``False``.  When the listed vertices form an independent set —
        how the greedy-MIS and Luby hot paths call it — this is exactly
        the result of applying :meth:`Graph.remove_closed_neighborhood`
        sequentially.
        """
        selected = self._as_mask(mask)
        out = (
            np.ones(self._n, dtype=bool) if selected is None else selected.copy()
        )
        vs = np.asarray(vertices, dtype=np.int64)
        if vs.size:
            out[vs] = False
            out[self.neighbors_bulk(vs)] = False
        return out

    def adjacency_chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(src, dst)`` directed-slot blocks covering all ``2m`` slots.

        Blocks arrive in slot order (ascending ``src``, rows sorted), so
        concatenating them reproduces ``(self.src, self.indices)`` exactly.
        The in-RAM graph yields one block; the memory-mapped subclass
        (:class:`repro.ooc.MMapCSRGraph`) yields bounded blocks and
        releases the backing pages between them — kernels written against
        this iterator are residency-bounded on out-of-core graphs for
        free.
        """
        yield self.src, self._indices

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - parity with Graph
        raise TypeError("CSRGraph is unhashable (compare by value instead)")

    def __repr__(self) -> str:
        return f"CSRGraph(n={self._n}, m={self.num_edges})"


def edge_rows(edges: Union[np.ndarray, Iterable[Edge]]) -> np.ndarray:
    """``edges`` as int64 ``(k, 2)`` rows, the edge-solution form (like
    :meth:`CSRGraph.edge_array`).  Arrays pass through; this is the one
    place a set of ``(u, v)`` pairs (or a report's lists) becomes rows, in
    its order and orientation."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def vertex_ids(vertices: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
    """``vertices`` as an int64 id array, the vertex-solution form: the
    vertex counterpart of :func:`edge_rows`."""
    if isinstance(vertices, np.ndarray):
        return vertices.astype(np.int64, copy=False)
    return np.fromiter(vertices, dtype=np.int64)


def sorted_unique(values: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
    """``np.unique(values)`` by sort and compare: the ascending distinct
    values of the flattened input, in its dtype.

    On integer keys a plain ``np.unique`` takes NumPy's hash path, which
    is far slower: 264 ms against 8 ms on 600k int64 keys (NumPy 2.4.6,
    2-vCPU host).  Keys may be negative.
    """
    ordered = np.sort(np.asarray(values), axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def gather_rows(
    flat: np.ndarray, indptr: np.ndarray, rows: Sequence[int]
) -> np.ndarray:
    """Concatenated ``flat`` rows delimited by ``indptr`` (ragged gather).

    The gather behind :meth:`CSRGraph.neighbors_bulk`, shared with callers
    that maintain their own compressed row structures (e.g. the batched
    Pregel kernels' filtered live-view adjacency).  Below
    :data:`SMALL_GATHER_ROWS` gathered rows, per-row slice views are
    concatenated directly — the batch-sized temporaries of the index
    arithmetic dominate at a handful of rows (the n=1k regression in
    BENCH_kernels.json).
    """
    vs = np.asarray(rows, dtype=np.int64)
    if vs.size == 0:
        return np.empty(0, dtype=np.int64)
    if vs.size <= SMALL_GATHER_ROWS:
        return np.concatenate(
            [flat[indptr[v] : indptr[v + 1]] for v in vs.tolist()]
        )
    starts = indptr[vs]
    counts = indptr[vs + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Standard ragged-gather index arithmetic: for each selected row, emit
    # starts[i], starts[i]+1, ..., starts[i]+counts[i]-1.
    row_of_slot = np.repeat(np.arange(len(vs)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return flat[starts[row_of_slot] + offsets]


def as_csr(graph: Union[Graph, CSRGraph]) -> CSRGraph:
    """``graph`` as a :class:`CSRGraph` (identity when already CSR).

    A :class:`Graph` keeps its CSR form until its next mutation, so
    repeated calls on an unchanged graph convert it once.
    """
    if isinstance(graph, CSRGraph):
        return graph
    if graph._csr is None:
        graph._csr = CSRGraph.from_graph(graph)
    return graph._csr


def canonical_graph(graph: Union[Graph, CSRGraph]) -> Graph:
    """``graph`` as a set-based :class:`Graph` filled in canonical edge order.

    A set's iteration order depends on its insertion history, so two
    ``Graph`` objects with one edge set can list neighbors differently.
    Searches that walk adjacency sets in iteration order (augmenting-path
    DFS, Blossom) read this form, so their output depends on the edge set
    alone, whatever representation the caller passed.
    """
    return as_csr(graph).to_graph()
