"""``DynamicGraph`` — a mutable delta overlay over the immutable CSR layout.

The PR 2 kernels are fast *because* :class:`~repro.graph.csr.CSRGraph` is
immutable — every scan is a flat array pass.  Dynamic workloads need
mutation, so this module layers pending edits on top of a frozen CSR
*base*:

* edge insertions/deletions accumulate in small delta structures (encoded
  NumPy key arrays for the batched paths, per-vertex sets for point
  queries);
* reads (``has_edge``, ``degree``, ``neighbors``) merge base + delta, so
  the overlay always answers for the *current* graph;
* :meth:`compact` folds the delta back into a fresh ``CSRGraph`` and
  advances the epoch counter — after compaction the vectorized kernels
  run on the hot CSR path again with zero overlay cost.

Deltas are intended to stay small relative to the base (one stream batch
per epoch); ``compact_fraction`` auto-compacts if a caller lets them grow
past that fraction of the base edge count, so reads never degrade to
scanning an overlay comparable in size to the graph.

Edges are keyed as ``min << 32 | max`` (stable under vertex growth), which
keeps batched membership tests against the base a single
``searchsorted`` — the base CSR's canonical ascending edge order means the
key array is already sorted.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph, as_csr, sorted_unique
from repro.graph.graph import Edge, Graph

_KEY_SHIFT = np.int64(32)
_MAX_VERTICES = 1 << 31  # keys pack two ids into one int64


def encode_edges(edges: np.ndarray) -> np.ndarray:
    """Canonical ``min << 32 | max`` keys for an ``(k, 2)`` edge array."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return (lo << _KEY_SHIFT) | hi


def decode_keys(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_edges`: keys back to ``(k, 2)`` edges."""
    keys = np.asarray(keys, dtype=np.int64)
    return np.column_stack((keys >> _KEY_SHIFT, keys & ((1 << 32) - 1)))


class DynamicGraph:
    """A mutable undirected simple graph: frozen CSR base + pending delta.

    Parameters
    ----------
    base:
        Initial graph (``Graph`` or ``CSRGraph``; converted to CSR).
    compact_fraction:
        Auto-compact when pending edits exceed this fraction of the base
        edge count (``None`` disables; explicit :meth:`compact` calls are
        the intended epoch boundary either way).
    """

    def __init__(
        self,
        base: Union[Graph, CSRGraph],
        *,
        compact_fraction: Optional[float] = 0.5,
    ) -> None:
        if compact_fraction is not None and compact_fraction <= 0:
            raise ValueError(
                f"compact_fraction must be positive or None, got {compact_fraction}"
            )
        self._rebase(as_csr(base))
        if self._n >= _MAX_VERTICES:
            raise ValueError(f"num_vertices must be < 2^31, got {self._n}")
        self._compact_fraction = compact_fraction
        self._epoch = 0

    def _rebase(self, base: CSRGraph) -> None:
        """Reset the overlay to an empty delta over ``base``."""
        self._base = base
        self._n = base.num_vertices
        # Directed slot keys ``src << 32 | dst`` — ascending because CSR
        # is row-major with sorted rows.  Compaction is pure array
        # surgery on this array (mask out removed slots, merge-insert
        # added ones), never a sort.
        self._base_dkeys = (base.src << _KEY_SHIFT) | base.indices
        # The canonical (u < v) half, also ascending: the membership index.
        self._base_keys = self._base_dkeys[base.src < base.indices]
        self._added: Set[int] = set()
        self._removed: Set[int] = set()
        self._adj_add: Dict[int, Set[int]] = {}
        self._adj_del: Dict[int, Set[int]] = {}
        self._dirty: Set[int] = set()
        self._snapshot: Optional[CSRGraph] = base

    # -- basic accessors ----------------------------------------------------

    @property
    def base(self) -> CSRGraph:
        """The frozen CSR base (current as of the last compaction)."""
        return self._base

    @property
    def epoch(self) -> int:
        """Number of compactions performed so far."""
        return self._epoch

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._base.num_edges + len(self._added) - len(self._removed)

    @property
    def pending_edits(self) -> int:
        """Pending insertions + deletions not yet folded into the base."""
        return len(self._added) + len(self._removed)

    def vertices(self) -> range:
        return range(self._n)

    def dirty_vertices(self) -> np.ndarray:
        """Vertices touched by an effective edit since the last compaction."""
        return np.fromiter(sorted(self._dirty), dtype=np.int64, count=len(self._dirty))

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self._n and 0 <= v < self._n):
            return False
        key = self._key(u, v)
        if key in self._added:
            return True
        if key in self._removed:
            return False
        return u < self._base.num_vertices and self._base.has_edge(u, v)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        base_deg = self._base.degree(v) if v < self._base.num_vertices else 0
        return (
            base_deg
            + len(self._adj_add.get(v, ()))
            - len(self._adj_del.get(v, ()))
        )

    def neighbors(self, v: int) -> np.ndarray:
        """Current neighbors of ``v``, sorted ascending (merged view)."""
        self._check_vertex(v)
        base_row = (
            self._base.neighbors(v)
            if v < self._base.num_vertices
            else np.empty(0, dtype=np.int64)
        )
        dropped = self._adj_del.get(v)
        gained = self._adj_add.get(v)
        if not dropped and not gained:
            return base_row
        merged = set(base_row.tolist())
        if dropped:
            merged -= dropped
        if gained:
            merged |= gained
        return np.fromiter(sorted(merged), dtype=np.int64, count=len(merged))

    def edges(self) -> Iterator[Edge]:
        """Iterate current edges in canonical form (via a snapshot)."""
        return self.snapshot().edges()

    # -- mutation -----------------------------------------------------------

    def add_vertices(self, count: int) -> int:
        """Append ``count`` isolated vertices; returns the first new id."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        first = self._n
        if count:
            if self._n + count >= _MAX_VERTICES:
                raise ValueError("vertex ids must stay < 2^31")
            self._n += count
            self._snapshot = None
        return first

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``{u, v}``; returns False (no-op) if already present."""
        self._check_endpoints(u, v)
        key = self._key(u, v)
        if key in self._added:
            return False
        if key in self._removed:
            self._removed.discard(key)
            self._link(self._adj_del, u, v, remove=True)
        elif self._in_base(key, u, v):
            return False
        else:
            self._added.add(key)
            self._link(self._adj_add, u, v)
        self._touch(u, v)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}``; raises ``KeyError`` if absent."""
        if not self.discard_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) is not in the graph")

    def discard_edge(self, u: int, v: int) -> bool:
        """Delete edge ``{u, v}`` if present; returns whether it was."""
        if u == v or not (0 <= u < self._n and 0 <= v < self._n):
            return False
        key = self._key(u, v)
        if key in self._added:
            self._added.discard(key)
            self._link(self._adj_add, u, v, remove=True)
        elif key not in self._removed and self._in_base(key, u, v):
            self._removed.add(key)
            self._link(self._adj_del, u, v)
        else:
            return False
        self._touch(u, v)
        return True

    # -- compaction ---------------------------------------------------------

    def snapshot(self) -> CSRGraph:
        """The current graph as an immutable ``CSRGraph`` (cached).

        Does not rebase: pending edits stay pending, the epoch does not
        advance.  The cache is invalidated by any mutation.

        Sort-free: the base's directed-key array is already ascending, so
        removed slots are masked out and added slots merge-inserted at
        their ``searchsorted`` positions — three flat passes over ``2m``.
        """
        if self._snapshot is None:
            dkeys = self._base_dkeys
            if self._removed:
                dkeys = dkeys[
                    ~np.isin(dkeys, self._directed(self._removed))
                ]
            if self._added:
                extra = np.sort(self._directed(self._added))
                dkeys = np.insert(
                    dkeys, np.searchsorted(dkeys, extra), extra
                )
            indices = dkeys & ((1 << 32) - 1)
            counts = np.bincount(
                dkeys >> _KEY_SHIFT, minlength=self._n
            ).astype(np.int64)
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._snapshot = CSRGraph(indptr, indices)
        return self._snapshot

    @staticmethod
    def _directed(keys: Set[int]) -> np.ndarray:
        """Both directed slot keys for each canonical edge key."""
        forward = np.fromiter(keys, dtype=np.int64, count=len(keys))
        backward = ((forward & ((1 << 32) - 1)) << _KEY_SHIFT) | (
            forward >> _KEY_SHIFT
        )
        return np.concatenate([forward, backward])

    def compact(self) -> CSRGraph:
        """Fold the delta into a fresh CSR base; advances the epoch.

        Clears the dirty-vertex set — callers needing the touched region
        read :meth:`dirty_vertices` (or the batch's applied delta) first.
        """
        if not self.pending_edits and self._n == self._base.num_vertices:
            self._dirty.clear()
            self._snapshot = self._base
            self._epoch += 1
            return self._base
        self._rebase(self.snapshot())
        self._epoch += 1
        return self._base

    def to_graph(self) -> Graph:
        """The current graph as a set-based :class:`Graph`."""
        return self.snapshot().to_graph()

    # -- batched application -------------------------------------------------

    def apply_edges(
        self, insertions: np.ndarray, deletions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply edge arrays in bulk; returns the *effective* (ins, dels).

        Deletions apply before insertions (so a batch can atomically
        rewire).  Inserting a present edge and deleting an absent one are
        no-ops, excluded from the returned arrays — maintainers repair
        from what actually changed, not what the stream requested.
        Out-of-range endpoints and self-loops raise (on either path;
        batch validation must not depend on the overlay's pending state).
        """
        del_edges = np.asarray(deletions, dtype=np.int64).reshape(-1, 2)
        ins_edges = np.asarray(insertions, dtype=np.int64).reshape(-1, 2)
        for edges, label in ((del_edges, "deletions"), (ins_edges, "insertions")):
            if len(edges):
                if edges.min() < 0 or edges.max() >= self._n:
                    raise ValueError(
                        f"{label}: endpoint out of range [0, {self._n})"
                    )
                if (edges[:, 0] == edges[:, 1]).any():
                    raise ValueError(f"{label}: self-loops are not allowed")
        if not self._added and not self._removed:
            inserted, deleted = self._apply_edges_clean(ins_edges, del_edges)
        else:
            # Pending edits present: take the per-edge path, whose
            # membership logic covers every overlay state.
            deleted = np.array(
                [
                    (u, v)
                    for u, v in del_edges
                    if self.discard_edge(int(u), int(v))
                ],
                dtype=np.int64,
            ).reshape(-1, 2)
            inserted = np.array(
                [
                    (u, v)
                    for u, v in ins_edges
                    if self.add_edge(int(u), int(v))
                ],
                dtype=np.int64,
            ).reshape(-1, 2)
        maybe_fraction = self._compact_fraction
        if (
            maybe_fraction is not None
            and self.pending_edits > maybe_fraction * max(1, self._base.num_edges)
        ):
            self.compact()
        return inserted, deleted

    def _apply_edges_clean(
        self, insertions: np.ndarray, deletions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized batch application for an overlay with no pending edits.

        With empty delta sets, presence is exactly base membership, so
        the whole batch resolves with two ``searchsorted`` passes; only
        the (small) effective delta is then walked to update the
        per-vertex bookkeeping.  Inputs are validated by the caller.
        """
        del_edges = deletions
        ins_edges = insertions
        del_keys = sorted_unique(encode_edges(del_edges)) if len(del_edges) else (
            np.empty(0, dtype=np.int64)
        )
        ins_keys = sorted_unique(encode_edges(ins_edges)) if len(ins_edges) else (
            np.empty(0, dtype=np.int64)
        )
        eff_del = del_keys[self._in_base_bulk(del_keys)]
        # Effective insert: absent after the deletions applied — either
        # never in the base, or deleted just now.
        ins_in_base = self._in_base_bulk(ins_keys)
        reinserted = np.isin(ins_keys, eff_del)
        eff_ins = ins_keys[~ins_in_base | reinserted]
        # Net pending state: a delete+insert of the same edge cancels.
        for key in eff_del[~np.isin(eff_del, eff_ins)]:
            self._removed.add(int(key))
            self._link(self._adj_del, int(key >> 32), int(key & ((1 << 32) - 1)))
        for key in eff_ins[~np.isin(eff_ins, self._base_keys)]:
            self._added.add(int(key))
            self._link(self._adj_add, int(key >> 32), int(key & ((1 << 32) - 1)))
        if len(eff_del) or len(eff_ins):
            touched = decode_keys(np.concatenate([eff_del, eff_ins]))
            self._dirty.update(int(v) for v in sorted_unique(touched))
            self._snapshot = None
        return decode_keys(eff_ins), decode_keys(eff_del)

    def _in_base_bulk(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership of canonical keys in the base edge set."""
        if not len(keys):
            return np.zeros(0, dtype=bool)
        pos = np.searchsorted(self._base_keys, keys)
        found = pos < len(self._base_keys)
        found[found] = self._base_keys[pos[found]] == keys[found]
        return found

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _key(u: int, v: int) -> int:
        lo, hi = (u, v) if u < v else (v, u)
        return (lo << 32) | hi

    def _in_base(self, key: int, u: int, v: int) -> bool:
        if max(u, v) >= self._base.num_vertices:
            return False
        pos = int(np.searchsorted(self._base_keys, key))
        return pos < len(self._base_keys) and int(self._base_keys[pos]) == key

    def _link(
        self, adjacency: Dict[int, Set[int]], u: int, v: int, remove: bool = False
    ) -> None:
        if remove:
            adjacency[u].discard(v)
            adjacency[v].discard(u)
        else:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)

    def _touch(self, u: int, v: int) -> None:
        self._dirty.add(u)
        self._dirty.add(v)
        self._snapshot = None

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")

    def _check_endpoints(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        self._check_vertex(u)
        self._check_vertex(v)

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(n={self._n}, m={self.num_edges}, "
            f"pending={self.pending_edits}, epoch={self._epoch})"
        )
