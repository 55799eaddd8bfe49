"""On-disk CSR format and the memory-mapped graph behind ``GraphView``.

A persisted graph is a directory of three files::

    header.json   schema version, n, m, dtype — written LAST (commit marker)
    indptr.npy    int64, length n + 1
    indices.npy   int64, length 2m (rows sorted ascending, both directions)

Every file is written with the snapshot discipline of
:mod:`repro.serve.snapshot`: same-directory tempfile + flush + fsync +
``os.replace``.  Because ``header.json`` lands last, a reader either
finds a complete, self-consistent graph or no graph at all — a build
crash can never leave a loadable torn state.

:class:`MMapCSRGraph` opens ``indices.npy`` with
``np.load(mmap_mode="r")`` and keeps only ``indptr`` (O(n)) resident.
It subclasses :class:`~repro.graph.csr.CSRGraph`, so every kernel and
every solver works unchanged; the kernels that would materialize the
O(m) ``src`` array (``degrees``, ``filter_edges``, ``induced_*``,
``edge_array``, …) are overridden with chunked passes over
:meth:`adjacency_chunks` that advise the kernel to drop the scanned
pages (``MADV_DONTNEED``) after each block.  The overrides are
*byte-identical* to the base kernels: they only reorder which slots are
in cache, never the arithmetic (integer bincounts and slot-order
concatenation are exact and associative).
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import tempfile
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, MaskLike, gather_rows

OOC_SCHEMA_VERSION = 1
_SUPPORTED_OOC_SCHEMAS = (1,)

HEADER_NAME = "header.json"
INDPTR_NAME = "indptr.npy"
INDICES_NAME = "indices.npy"

# Directed slots per chunk in the streaming kernels (~64 MB of int64
# pairs resident at a time) and rows per batch in the ragged gathers.
DEFAULT_CHUNK_SLOTS = 4_000_000
DEFAULT_CHUNK_ROWS = 262_144


def _atomic_replace(path: str, write_body) -> None:
    """Write a file atomically: same-dir tempfile + fsync + ``os.replace``."""
    directory = os.path.dirname(path) or "."
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "wb") as stream:
            write_body(stream)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _atomic_save_array(path: str, array: np.ndarray) -> None:
    _atomic_replace(path, lambda stream: np.save(stream, array))


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    _atomic_replace(path, lambda stream: stream.write(body))


def write_header(
    directory: Any, num_vertices: int, num_edges: int
) -> Dict[str, Any]:
    """Write the schema-versioned commit marker; returns the payload."""
    payload = {
        "schema": OOC_SCHEMA_VERSION,
        "num_vertices": int(num_vertices),
        "num_edges": int(num_edges),
        "dtype": "<i8",
    }
    _atomic_write_json(os.path.join(os.fspath(directory), HEADER_NAME), payload)
    return payload


def read_header(directory: Any) -> Dict[str, Any]:
    """Load and validate the header of a persisted graph directory."""
    directory = os.fspath(directory)
    path = os.path.join(directory, HEADER_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no out-of-core graph at {directory!r} (missing {HEADER_NAME}; "
            "an interrupted build leaves no header on purpose)"
        )
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    schema = payload.get("schema")
    if schema not in _SUPPORTED_OOC_SCHEMAS:
        raise ValueError(
            f"unsupported ooc graph schema {schema!r}; "
            f"supported: {_SUPPORTED_OOC_SCHEMAS}"
        )
    for field in ("num_vertices", "num_edges"):
        if not isinstance(payload.get(field), int) or payload[field] < 0:
            raise ValueError(f"ooc header field {field!r} invalid: {payload!r}")
    return payload


def save_csr(graph: CSRGraph, directory: Any) -> str:
    """Persist an in-RAM :class:`CSRGraph` to ``directory``; returns it.

    Array files first, header last — a crash anywhere leaves either a
    complete graph (the previous one, if overwriting) or none.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    _atomic_save_array(
        os.path.join(directory, INDPTR_NAME),
        np.ascontiguousarray(graph.indptr, dtype=np.int64),
    )
    _atomic_save_array(
        os.path.join(directory, INDICES_NAME),
        np.ascontiguousarray(graph.indices, dtype=np.int64),
    )
    write_header(directory, graph.num_vertices, graph.num_edges)
    return directory


class MMapCSRGraph(CSRGraph):
    """A :class:`CSRGraph` whose column array lives on disk, mmap-backed.

    ``indptr`` is materialized in RAM (O(n) — part of the resident
    budget alongside the solver's masks); ``indices`` stays a read-only
    ``np.memmap``.  Only the pages a kernel touches become resident, and
    the chunked kernel overrides release them again via
    ``MADV_DONTNEED``, so peak RSS is bounded by the chunk size instead
    of the edge bytes (measured in ``BENCH_ooc.json``).
    """

    __slots__ = ("_directory", "_chunk_slots", "_chunk_rows")

    def __init__(
        self,
        directory: Any,
        *,
        chunk_slots: int = DEFAULT_CHUNK_SLOTS,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        directory = os.fspath(directory)
        if chunk_slots <= 0 or chunk_rows <= 0:
            raise ValueError("chunk_slots and chunk_rows must be positive")
        header = read_header(directory)
        # A direct load reads straight into the final buffer; going via a
        # mmap copy would hold pages + copy simultaneously, doubling the
        # O(n) resident cost at the 10M rung.
        indptr = np.load(os.path.join(directory, INDPTR_NAME)).astype(
            np.int64, copy=False
        )
        indices = np.load(os.path.join(directory, INDICES_NAME), mmap_mode="r")
        n = header["num_vertices"]
        m = header["num_edges"]
        if len(indptr) != n + 1 or len(indices) != 2 * m:
            raise ValueError(
                f"ooc graph at {directory!r} inconsistent with header: "
                f"indptr={len(indptr)} (want {n + 1}), "
                f"indices={len(indices)} (want {2 * m})"
            )
        super().__init__(indptr, indices)
        self._directory = directory
        self._chunk_slots = int(chunk_slots)
        self._chunk_rows = int(chunk_rows)

    # -- residency ----------------------------------------------------------

    @property
    def directory(self) -> str:
        """The on-disk directory backing this graph."""
        return self._directory

    @property
    def indices_file_bytes(self) -> int:
        """Size of ``indices.npy`` on disk — the RSS budget's denominator."""
        return os.path.getsize(os.path.join(self._directory, INDICES_NAME))

    def release(self) -> None:
        """Advise the kernel to drop the resident ``indices`` pages.

        Clean file-backed pages re-fault cheaply; calling this after
        every chunk keeps the ``ru_maxrss`` high-water mark at one chunk
        instead of the whole file.
        """
        backing = getattr(self._indices, "_mmap", None)
        if backing is None or not hasattr(_mmap, "MADV_DONTNEED"):
            return
        try:
            backing.madvise(_mmap.MADV_DONTNEED)
        except (ValueError, OSError):  # pragma: no cover - platform quirk
            pass

    # -- chunked kernel overrides (byte-identical to the base class) --------

    def adjacency_chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        total = len(self._indices)
        if total == 0:
            yield np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            return
        indptr = self._indptr
        for start in range(0, total, self._chunk_slots):
            stop = min(start + self._chunk_slots, total)
            # Rows overlapping [start, stop): lo is the row owning slot
            # `start`; rows lo..hi-1 own at least one slot in range.
            lo = int(np.searchsorted(indptr, start, side="right")) - 1
            hi = int(np.searchsorted(indptr, stop, side="left"))
            spans = np.minimum(indptr[lo + 1 : hi + 1], stop) - np.maximum(
                indptr[lo:hi], start
            )
            src = np.repeat(np.arange(lo, hi, dtype=np.int64), spans)
            yield src, self._indices[start:stop]
            self.release()

    @property
    def src(self) -> np.ndarray:
        # Materializing the O(m) row-id array defeats the residency
        # model; every hot kernel is overridden below to avoid it.  Kept
        # functional (small graphs, debugging) but never cached.
        return np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(self._indptr)
        )

    def degrees(self, mask: MaskLike = None) -> np.ndarray:
        selected = self._as_mask(mask)
        if selected is None:
            return np.diff(self._indptr)
        out = np.zeros(self._n, dtype=np.int64)
        for src, dst in self.adjacency_chunks():
            inside = selected[src] & selected[dst]
            if inside.any():
                out += np.bincount(src[inside], minlength=self._n)
        return out

    def count_edges_within(self, mask: MaskLike) -> int:
        selected = self._as_mask(mask)
        if selected is None:
            return self.num_edges
        total = 0
        for src, dst in self.adjacency_chunks():
            total += int(np.count_nonzero(selected[src] & selected[dst]))
        return total // 2

    def induced_edges(self, mask: MaskLike) -> np.ndarray:
        selected = self._as_mask(mask)
        pieces = []
        for src, dst in self.adjacency_chunks():
            forward = src < dst
            if selected is not None:
                forward &= selected[src] & selected[dst]
            if forward.any():
                pieces.append(
                    np.column_stack((src[forward], np.asarray(dst[forward])))
                )
        if not pieces:
            return np.empty((0, 2), dtype=np.int64)
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def edge_array(self) -> np.ndarray:
        return self.induced_edges(None)

    def filter_edges(self, mask: MaskLike) -> CSRGraph:
        selected = self._as_mask(mask)
        if selected is None:
            return self
        counts = np.zeros(self._n, dtype=np.int64)
        pieces = []
        for src, dst in self.adjacency_chunks():
            inside = selected[src] & selected[dst]
            if inside.any():
                counts += np.bincount(src[inside], minlength=self._n)
                pieces.append(np.asarray(dst[inside]))
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        dst_all = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        return CSRGraph(indptr, dst_all)

    def neighbors_bulk(self, vertices: Sequence[int]) -> np.ndarray:
        out = gather_rows(self._indices, self._indptr, vertices)
        self.release()
        return np.asarray(out, dtype=np.int64)

    def remove_closed_neighborhoods(
        self, vertices: Sequence[int], mask: MaskLike = None
    ) -> np.ndarray:
        selected = self._as_mask(mask)
        out = (
            np.ones(self._n, dtype=bool) if selected is None else selected.copy()
        )
        vs = np.asarray(vertices, dtype=np.int64)
        if vs.size:
            out[vs] = False
            # Batch by *file span*, not row count: scattered rows fault in
            # ~a page each, so a count-bounded batch over uniformly spread
            # rows can touch a page per row (a ~1 GB high-water at the 10M
            # rung) before the next release().  Sorting first (the output
            # mask is order-free) makes each batch a contiguous indptr
            # range, so the pages one batch can touch — and its gathered
            # output — are both bounded by ``chunk_slots``.
            vs = np.sort(vs)
            ends = self._indptr[vs + 1]
            lo = 0
            while lo < len(vs):
                hi = max(
                    int(
                        np.searchsorted(
                            ends, self._indptr[vs[lo]] + self._chunk_slots
                        )
                    ),
                    lo + 1,
                )
                batch = vs[lo:hi]
                out[gather_rows(self._indices, self._indptr, batch)] = False
                self.release()
                lo = hi
        return out

    def __repr__(self) -> str:
        return (
            f"MMapCSRGraph(n={self._n}, m={self.num_edges}, "
            f"dir={self._directory!r})"
        )


def load_csr(directory: Any, *, materialize: bool = False) -> CSRGraph:
    """Open a persisted graph: mmap-backed by default, in-RAM on request."""
    graph = MMapCSRGraph(directory)
    if not materialize:
        return graph
    return CSRGraph(
        np.array(graph.indptr, dtype=np.int64),
        np.array(graph.indices, dtype=np.int64),
    )
