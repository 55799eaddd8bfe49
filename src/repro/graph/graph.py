"""An undirected simple graph with integer vertices ``0..n-1``.

The representation is an adjacency list of Python sets, the right trade-off
for this library: the MPC algorithms repeatedly take induced subgraphs,
delete closed neighborhoods, and iterate neighbor sets, all of which are
O(degree) here.  Vertices are dense integers so permutation ranks (Section 3
of the paper) and machine assignments are plain list lookups.

Edges are canonically stored as ``(min(u, v), max(u, v))`` tuples everywhere
in the library.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

Edge = Tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """The canonical ``(small, large)`` form of edge ``{u, v}``."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph on vertex set ``{0, ..., n-1}``.

    Parameters
    ----------
    num_vertices:
        Size of the vertex set.  Isolated vertices are allowed and common
        (residual graphs in the greedy MIS simulation shrink by deletion).
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self-loops are rejected;
        duplicate edges are collapsed.
    """

    __slots__ = ("_n", "_adj", "_num_edges", "_csr")

    def __init__(self, num_vertices: int, edges: Iterable[Edge] = ()) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        self._n = num_vertices
        self._adj: List[Set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        # Memoized CSR form (see ``repro.graph.csr.as_csr``); every
        # mutation goes through add_edge/remove_edge, which clear it.
        self._csr = None
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph sized to the maximum endpoint in ``edges``."""
        edge_list = [canonical_edge(u, v) for u, v in edges]
        n = 1 + max((e[1] for e in edge_list), default=-1)
        return cls(n, edge_list)

    @classmethod
    def _from_csr(cls, csr: Any) -> "Graph":
        """Build from a :class:`~repro.graph.csr.CSRGraph`, memoizing it.

        Private to :meth:`CSRGraph.to_graph`.  Ascending CSR rows fill each
        set in the order of the canonical ``add_edge`` loop over the sorted
        edge list, hence with the same iteration order.
        """
        flat, bounds = csr.indices.tolist(), csr.indptr.tolist()
        graph = cls(csr.num_vertices)
        graph._adj = [set(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
        graph._num_edges = csr.num_edges
        graph._csr = csr
        return graph

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``{u, v}``; no-op if already present."""
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1
            self._csr = None

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}``; raises ``KeyError`` if absent."""
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._num_edges -= 1
        self._csr = None

    def copy(self) -> "Graph":
        """An independent deep copy."""
        clone = Graph(self._n)
        clone._adj = [set(neighbors) for neighbors in self._adj]
        clone._num_edges = self._num_edges
        return clone

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return self._num_edges

    def vertices(self) -> range:
        """The vertex set as a range."""
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        return 0 <= u < self._n and v in self._adj[u]

    def neighbors(self, v: int) -> FrozenSet[int]:
        """The neighborhood ``N(v)`` as an immutable set."""
        self._check_vertex(v)
        return frozenset(self._adj[v])

    def neighbors_view(self, v: int) -> Set[int]:
        """The live neighbor set of ``v`` (hot-path access).

        Do not mutate it: the memoized CSR form is cleared only by
        :meth:`add_edge` and :meth:`remove_edge`, so editing the set in
        place would leave a stale memo.
        """
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Maximum degree ``Δ`` (0 on the empty graph)."""
        if self._n == 0:
            return 0
        return max(len(neighbors) for neighbors in self._adj)

    def degrees(self) -> List[int]:
        """Degree sequence indexed by vertex."""
        return [len(neighbors) for neighbors in self._adj]

    def edges(self) -> Iterator[Edge]:
        """Iterate edges in canonical form, ascending."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        """All edges as a sorted list."""
        return sorted(self.edges())

    # -- structural operations ---------------------------------------------

    def induced_subgraph(self, vertex_subset: Iterable[int]) -> "Graph":
        """The induced subgraph ``G[V']`` *re-labelled* onto ``0..|V'|-1``.

        Returns a graph whose vertex ``i`` corresponds to the ``i``-th
        smallest vertex of ``vertex_subset``.  Use
        :meth:`induced_edges` when original labels must be preserved.
        """
        ordered = sorted(set(vertex_subset))
        index = {v: i for i, v in enumerate(ordered)}
        sub = Graph(len(ordered))
        for v in ordered:
            for u in self._adj[v]:
                if u > v and u in index:
                    sub.add_edge(index[v], index[u])
        return sub

    def induced_edges(self, vertex_subset: Iterable[int]) -> List[Edge]:
        """Edges of ``G[V']`` with original labels."""
        subset = set(vertex_subset)
        result: List[Edge] = []
        for v in subset:
            for u in self._adj[v]:
                if u > v and u in subset:
                    result.append((v, u))
        return result

    def remove_closed_neighborhood(self, v: int) -> Set[int]:
        """Delete ``v`` and all its neighbors; return the deleted set.

        Deletion means "isolate": the vertex keeps its label but loses all
        incident edges, matching how the greedy MIS residual graph evolves.
        """
        removed = set(self._adj[v]) | {v}
        for w in removed:
            self.isolate(w)
        return removed

    def isolate(self, v: int) -> None:
        """Remove all edges incident to ``v``."""
        for u in list(self._adj[v]):
            self.remove_edge(v, u)

    def line_graph(self) -> Tuple["Graph", List[Edge]]:
        """The line graph ``L(G)`` and the edge ordering defining its vertices.

        Vertex ``i`` of ``L(G)`` is ``edge_order[i]``; two line-graph
        vertices are adjacent iff the underlying edges share an endpoint.
        Running an MIS algorithm on ``L(G)`` yields a maximal matching of
        ``G`` (Luby's classic reduction, referenced in the paper's intro).
        """
        edge_order = self.edge_list()
        index: Dict[Edge, int] = {e: i for i, e in enumerate(edge_order)}
        lg = Graph(len(edge_order))
        for v in range(self._n):
            incident = sorted(self._adj[v])
            for a_idx in range(len(incident)):
                for b_idx in range(a_idx + 1, len(incident)):
                    e1 = canonical_edge(v, incident[a_idx])
                    e2 = canonical_edge(v, incident[b_idx])
                    lg.add_edge(index[e1], index[e2])
        return lg, edge_order

    def connected_components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists."""
        seen = [False] * self._n
        components: List[List[int]] = []
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            component = []
            while stack:
                v = stack.pop()
                component.append(v)
                for u in self._adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            components.append(sorted(component))
        return components

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("Graph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._num_edges})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
