"""Transports: where distributed kernels actually run.

A :class:`Transport` owns a fixed set of workers and moves three kinds of
traffic between the driver and them:

* ``install(key, arrays)`` — a *session*: named immutable NumPy arrays
  (CSR ``indptr``/``indices``, rank permutations) every worker can read
  for the session's lifetime.  :class:`MultiprocessTransport` places them
  in ``multiprocessing.shared_memory`` segments mapped read-only by every
  worker, so a 50k-vertex graph costs one copy total, not one per worker.
* ``step(kernel, payloads)`` — one superstep barrier: payload ``i`` goes
  to worker ``i``, the named kernel (see :mod:`repro.dist.kernels`) runs
  on each, and the per-worker results come back in worker order.  Round
  payloads move as pickle-protocol-5 messages whose NumPy buffers travel
  out-of-band through chunked, CRC32-checksummed pipe frames, and arrive
  with NumPy's canonical dtype descriptors.
* ``drop``/``close`` — session and worker teardown.

:class:`LocalTransport` is the in-process reference implementation: the
same sessions, the same kernels, run sequentially in the driver process.
It defines the semantics the real transports must reproduce; it is
what ``executor=None`` (one worker) and ``executor="local"`` run on, and
the supervision layer (:mod:`repro.dist.faults`) degrades onto it when
the worker pool is beyond saving.  DISTRIBUTED.md sketches how the same
interface maps onto ``mpi4py``.

Failure surface (the contract the fault tests pin):

* every driver-side receive is **poll-based with a deadline** — there is
  no bare blocking ``recv_bytes`` anywhere on the driver, so a wedged or
  sleeping worker raises :class:`~repro.dist.errors.DistTimeoutError`
  instead of hanging the caller;
* every message carries CRC32 checksums over its frames; a corrupt reply
  raises :class:`~repro.dist.errors.DistCorruptionError`;
* a worker process dying mid-phase surfaces as
  :class:`~repro.dist.errors.DistExecutionError` with structured context
  (worker, phase, recovery action).

The fail-fast methods (``step``) tear the transport down on a fatal
worker failure.  The supervision layer builds on the non-raising
per-worker primitives instead — :meth:`MultiprocessTransport.step_partial`
(per-worker outcomes), :meth:`MultiprocessTransport.respawn_worker`
(replace one dead worker, re-attaching the still-linked shared-memory
sessions), and the fault-injection hooks (:meth:`kill_worker`,
:meth:`delay_next_receive`, :meth:`corrupt_next_receive`) that
:class:`~repro.dist.faults.ChaosTransport` drives deterministically.
"""

from __future__ import annotations

import atexit
import gc
import io
import pickle
import time
import traceback
import weakref
import zlib
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dist.errors import (
    DistCorruptionError,
    DistExecutionError,
    DistTimeoutError,
)
from repro.dist.pool import mp_context

# Pipe frame size for out-of-band buffers.  Large arrays are sent as
# multiple frames so no single ``send_bytes`` call materializes an
# unbounded intermediate copy.
_CHUNK_BYTES = 1 << 23  # 8 MiB

#: Default driver-side receive deadline per message.  Finite on purpose:
#: even the unsupervised fail-fast transport must never block forever on
#: a wedged worker (the supervised policy usually tightens this a lot).
DEFAULT_STEP_TIMEOUT_S = 300.0

#: Granularity of the deadline poll loop.
_POLL_INTERVAL_S = 0.02

#: Per-worker step outcome: ``(kind, value)`` where kind is one of
#: ``"ok"`` (value = kernel result), ``"kernel_error"`` (value = worker
#: traceback text), ``"died"``, ``"timeout"``, ``"corrupt"``.
Outcome = Tuple[str, Any]


class Session:
    """One installed session on one worker: shared arrays + mutable state.

    ``arrays`` holds the read-only install payload; ``state`` is the
    kernel scratch space that persists across ``step`` calls (e.g. the
    ``mis.prefix_greedy`` CSR wrapper).
    """

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        self.arrays = arrays
        self.state: Dict[str, Any] = {}


class WorkerContext:
    """What a kernel sees: its identity and the installed sessions."""

    def __init__(self, worker_id: int, num_workers: int) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self._sessions: Dict[str, Session] = {}

    def add_session(self, key: str, arrays: Dict[str, np.ndarray]) -> None:
        self._sessions[key] = Session(arrays)

    def drop_session(self, key: str) -> None:
        self._sessions.pop(key, None)

    def session(self, key: str) -> Session:
        try:
            return self._sessions[key]
        except KeyError:
            raise KeyError(
                f"no session {key!r} installed on worker {self.worker_id}"
            ) from None


class Transport:
    """Abstract transport; see the module docstring for the contract."""

    @property
    def workers(self) -> int:
        raise NotImplementedError

    def install(self, key: str, arrays: Dict[str, np.ndarray]) -> None:
        raise NotImplementedError

    def drop(self, key: str) -> None:
        raise NotImplementedError

    def step(self, kernel: str, payloads: Sequence[Any]) -> List[Any]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalTransport(Transport):
    """The reference transport: kernels run inline, one worker at a time.

    Sessions share the driver's arrays by reference (no copies), so
    kernels must treat ``Session.arrays`` and received payloads as
    read-only — the process-isolated transports enforce by construction
    what this one enforces by convention, and the parity suite checks the
    two agree.
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._num_workers = workers
        self._contexts = [WorkerContext(i, workers) for i in range(workers)]
        self._closed = False

    @property
    def workers(self) -> int:
        # Stored, like MultiprocessTransport's, so run-report metadata
        # read after close() still has the count.
        return self._num_workers

    def install(self, key: str, arrays: Dict[str, np.ndarray]) -> None:
        self._ensure_open()
        for ctx in self._contexts:
            ctx.add_session(key, dict(arrays))

    def drop(self, key: str) -> None:
        # Dropping on a closed transport is benign cleanup (solver
        # ``finally`` blocks run after a failure already closed us) — it
        # must not raise and mask the original error.
        if self._closed:
            return
        for ctx in self._contexts:
            ctx.drop_session(key)

    def step(self, kernel: str, payloads: Sequence[Any]) -> List[Any]:
        self._ensure_open()
        self._check_payloads(payloads)
        from repro.dist.kernels import get_kernel

        fn = get_kernel(kernel)
        results = []
        for ctx, payload in zip(self._contexts, payloads):
            try:
                results.append(fn(ctx, payload))
            except Exception as error:
                raise DistExecutionError(
                    f"kernel {kernel!r} raised on worker {ctx.worker_id}: "
                    f"{type(error).__name__}: {error}",
                    worker_id=ctx.worker_id,
                    phase=kernel,
                    attempts=1,
                    recovery="none",
                ) from error
        return results

    def close(self) -> None:
        self._closed = True
        self._contexts = []

    def _check_payloads(self, payloads: Sequence[Any]) -> None:
        if len(payloads) != self.workers:
            raise ValueError(
                f"step needs one payload per worker "
                f"({self.workers}), got {len(payloads)}"
            )

    def _ensure_open(self) -> None:
        if self._closed:
            raise DistExecutionError("transport is closed")


# ---------------------------------------------------------------------------
# Pipe message protocol (driver <-> worker)
# ---------------------------------------------------------------------------
#
# A message is pickled with protocol 5 so NumPy array payloads detach
# their buffers; frames on the wire are:
#
#   [head pickle] [buffer-size list pickle] [buffer chunks ...] [crc list]
#
# Each buffer is split into <= _CHUNK_BYTES frames.  The receiver
# reassembles the buffers, verifies the CRC32 trailer (head, size list,
# then one checksum per buffer), and feeds them back to ``pickle.loads``
# — a zero-parse copy for array payloads of any size.  Driver-side
# receives go through a poll loop with a deadline; worker-side receives
# block (a worker waiting for work is not a hazard — the driver is).


class _ReceiveTimeout(Exception):
    """Internal: the receive deadline elapsed before a full message arrived."""


def _wait_readable(conn, deadline_ts, pretend_until) -> None:
    """Poll until ``conn`` is readable, honoring deadline and fake delay.

    ``pretend_until`` (a monotonic timestamp, or ``None``) simulates a
    slow worker for fault injection: data already in the pipe is treated
    as not-yet-arrived until the timestamp passes — so an injected delay
    longer than the deadline produces exactly the timeout a genuinely
    stuck worker would.
    """
    while True:
        now = time.monotonic()
        if pretend_until is not None and now < pretend_until:
            if deadline_ts is not None and now >= deadline_ts:
                raise _ReceiveTimeout()
            time.sleep(min(_POLL_INTERVAL_S, pretend_until - now))
            continue
        if deadline_ts is None:
            if conn.poll(_POLL_INTERVAL_S):
                return
            continue
        remaining = deadline_ts - now
        if remaining <= 0:
            raise _ReceiveTimeout()
        if conn.poll(min(_POLL_INTERVAL_S, remaining)):
            return


def _rebuild_array(buffer, dtype: str, shape: Tuple[int, ...]) -> np.ndarray:
    return np.frombuffer(buffer, dtype=np.dtype(dtype)).reshape(shape)


class _Pickler(pickle.Pickler):
    """Protocol-5 pickler that ships numeric arrays as buffer + ``dtype.str``.

    NumPy's own reduction pickles the dtype object, and the receiver gets
    a descriptor equal to, but not the same object as, NumPy's canonical
    one; ``ufunc.at`` then misses its fast loop (``np.add.at`` ran 10-24x
    slower on received arrays).  Rebuilding from ``dtype.str`` restores
    the canonical descriptor.  Non-contiguous arrays are sent as a
    C-contiguous copy, as NumPy's reduction does.
    """

    def reducer_override(self, obj):
        if type(obj) is np.ndarray and obj.dtype.kind in "biufc":
            return _rebuild_array, (
                pickle.PickleBuffer(np.ascontiguousarray(obj)),
                obj.dtype.str,
                obj.shape,
            )
        return NotImplemented


def _send_msg(conn, obj: Any) -> None:
    buffers: List[pickle.PickleBuffer] = []
    stream = io.BytesIO()
    _Pickler(stream, protocol=5, buffer_callback=buffers.append).dump(obj)
    head = stream.getvalue()
    views = [buf.raw().cast("B") for buf in buffers]
    sizes = pickle.dumps([len(view) for view in views])
    checksums = [zlib.crc32(head), zlib.crc32(sizes)]
    conn.send_bytes(head)
    conn.send_bytes(sizes)
    for view in views:
        checksums.append(zlib.crc32(view))
        for offset in range(0, len(view), _CHUNK_BYTES):
            conn.send_bytes(view[offset : offset + _CHUNK_BYTES])
    conn.send_bytes(pickle.dumps(checksums))


def _recv_msg(
    conn,
    timeout: Optional[float] = None,
    _pretend_delay: Optional[float] = None,
    _corrupt: bool = False,
) -> Any:
    """Receive one message; ``timeout`` covers the whole message.

    ``_pretend_delay`` and ``_corrupt`` are the fault-injection hooks
    (driver-side only): the former defers readability (see
    :func:`_wait_readable`), the latter flips a byte of the head frame
    after receipt so the CRC check fails exactly as real corruption
    would.  With neither a timeout nor injections (the worker side), the
    receive blocks natively.
    """
    deadline_ts = None if timeout is None else time.monotonic() + timeout
    pretend_until = (
        None if _pretend_delay is None else time.monotonic() + _pretend_delay
    )
    blocking = deadline_ts is None and pretend_until is None

    def frame() -> bytes:
        if not blocking:
            _wait_readable(conn, deadline_ts, pretend_until)
        return conn.recv_bytes()

    head = frame()
    if _corrupt and head:
        head = bytes([head[0] ^ 0xFF]) + head[1:]
    sizes_frame = frame()
    sizes = pickle.loads(sizes_frame)
    buffers = []
    for size in sizes:
        data = bytearray(size)
        view = memoryview(data)
        offset = 0
        while offset < size:
            if not blocking:
                _wait_readable(conn, deadline_ts, pretend_until)
            offset += conn.recv_bytes_into(view[offset:])
        buffers.append(data)
    checksums = pickle.loads(frame())
    computed = [zlib.crc32(head), zlib.crc32(sizes_frame)]
    computed.extend(zlib.crc32(buffer) for buffer in buffers)
    if checksums != computed:
        raise DistCorruptionError(
            "message failed its CRC32 integrity check "
            f"(sent {checksums}, computed {computed})"
        )
    return pickle.loads(head, buffers=buffers)


def _attach_shared(name: str):
    """Attach an existing shared-memory segment (worker side).

    CPython's ``resource_tracker`` registers every attach as if the
    process owned the segment.  Because the workers are multiprocessing
    children, they share the *driver's* tracker process, where the
    registration is a set no-op (the driver already registered the name
    at create time) — so no unregister correction is needed, and issuing
    one would strip the driver's own registration out of the shared
    tracker, making the driver's unlink-time unregister fail.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _install_session(
    ctx: WorkerContext, segments: Dict[str, list], key: str, specs: Dict
) -> None:
    """Attach a session's shared segments and map them as read-only arrays.

    A helper (not inlined in the worker loop) so that no loop-frame local
    keeps referencing the array views after the session is dropped —
    ``SharedMemory.close`` raises ``BufferError`` while exported pointers
    exist.
    """
    arrays: Dict[str, np.ndarray] = {}
    attached = []
    for name, (shm_name, dtype, shape) in specs.items():
        segment = _attach_shared(shm_name)
        attached.append(segment)
        count = int(np.prod(shape, dtype=np.int64))
        array = np.frombuffer(
            segment.buf, dtype=np.dtype(dtype), count=count
        ).reshape(shape)
        array.flags.writeable = False
        arrays[name] = array
    segments[key] = attached
    ctx.add_session(key, arrays)


def _close_segment(segment) -> None:
    """Unmap a dropped session's segment once no view into it is left.

    Views die with the session by reference counting, unless a cyclic
    holder (e.g. a cached CSR wrapper) keeps one until a collection.
    ``SharedMemory.close`` raises ``BufferError`` while a view is
    exported, so a full collection (tens of milliseconds in a worker
    with NumPy loaded) runs only then.
    """
    try:
        segment.close()
    except BufferError:
        gc.collect()
        segment.close()


def _worker_main(conn, worker_id: int, num_workers: int) -> None:
    """Worker process loop: install/drop/step/close until EOF."""
    from repro.dist.kernels import get_kernel

    ctx = WorkerContext(worker_id, num_workers)
    segments: Dict[str, list] = {}
    try:
        while True:
            try:
                message = _recv_msg(conn)
            except (EOFError, OSError):
                break
            except DistCorruptionError:
                # A corrupt command: the frame-delimited protocol keeps
                # the stream aligned, so reply with the error and keep
                # serving — the driver decides what to do about it.
                try:
                    _send_msg(conn, ("err", traceback.format_exc()))
                except (OSError, ValueError):
                    break
                continue
            command = message[0]
            if command == "close":
                _send_msg(conn, ("ok", None))
                break
            try:
                if command == "install":
                    _, key, specs = message
                    _install_session(ctx, segments, key, specs)
                    _send_msg(conn, ("ok", None))
                elif command == "drop":
                    _, key = message
                    ctx.drop_session(key)
                    for segment in segments.pop(key, []):
                        _close_segment(segment)
                    _send_msg(conn, ("ok", None))
                elif command == "step":
                    _, kernel_name, payload = message
                    # Result computed inline: no loop-frame local may
                    # outlive the step holding a shared-array view.
                    _send_msg(
                        conn, ("ok", get_kernel(kernel_name)(ctx, payload))
                    )
                    del payload
                else:
                    _send_msg(conn, ("err", f"unknown command {command!r}"))
            except Exception:
                _send_msg(conn, ("err", traceback.format_exc()))
    finally:
        conn.close()


class _WorkerHandle:
    """One worker process + its duplex pipe, as the driver tracks it."""

    __slots__ = ("worker_id", "process", "conn", "dead")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.dead = False


# Driver-owned shared-memory segments outlive an interrupted solve: a
# Ctrl-C mid-step unwinds through frames that still reference the
# transport, ``__del__`` is then at the mercy of GC order during
# interpreter shutdown, and every segment the driver created stays
# linked in /dev/shm (with the resource tracker shouting about leaks it
# cannot safely clean).  One process-wide atexit hook closes whatever
# transports are still live at exit; the WeakSet keeps the hook from
# pinning transports that were closed and collected normally.
_LIVE_TRANSPORTS: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _close_live_transports() -> None:  # pragma: no cover - exercised via subprocess test
    for transport in list(_LIVE_TRANSPORTS):
        try:
            transport.close()
        except Exception:
            pass


class MultiprocessTransport(Transport):
    """A persistent pool of worker *processes* behind the transport API.

    Workers are long-lived: they are forked once (see
    :func:`repro.dist.pool.mp_context`), hold installed sessions in
    shared memory across any number of steps, and die at ``close``.
    Immutable session arrays live in ``shared_memory`` segments the
    driver owns and every worker maps read-only; per-step payloads and
    results move through chunked duplex pipes (see the framing protocol
    above).

    ``step`` is fail-fast: a fatal worker failure (death, timeout,
    corrupt reply) tears the transport down and raises.  The supervision
    layer (:class:`repro.dist.faults.SupervisedTransport`) instead uses
    :meth:`step_partial` + :meth:`respawn_worker` to recover in place.
    """

    def __init__(
        self,
        workers: int = 2,
        start_method: Optional[str] = None,
        step_timeout_s: Optional[float] = DEFAULT_STEP_TIMEOUT_S,
        close_timeout_s: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # Start the resource tracker *before* forking so every worker
        # inherits the same tracker process.  Attach-time registrations
        # then land in the shared (idempotent) cache instead of private
        # per-worker trackers that would warn about "leaked" segments
        # they never owned at worker exit.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        self._context = mp_context(start_method)
        self._num_workers = workers
        self._step_timeout_s = step_timeout_s
        self._close_timeout_s = close_timeout_s
        self._workers: List[_WorkerHandle] = []
        self._segments: Dict[str, list] = {}
        self._session_specs: Dict[str, Dict] = {}
        self._delay_injections: Dict[int, float] = {}
        self._corrupt_injections: Set[int] = set()
        self._closed = False
        # Registered before the first segment can exist, so an interrupt
        # at any later point finds this transport in the atexit sweep.
        _LIVE_TRANSPORTS.add(self)
        try:
            for worker_id in range(workers):
                self._workers.append(self._spawn(worker_id))
        except Exception:
            self.close()
            raise

    @property
    def workers(self) -> int:
        # Stored, not len(self._workers): the count must stay readable
        # for run-report metadata after close() reaps the processes.
        return self._num_workers

    @property
    def step_timeout_s(self) -> Optional[float]:
        """The default per-message receive deadline (None = no deadline)."""
        return self._step_timeout_s

    def install(self, key: str, arrays: Dict[str, np.ndarray]) -> None:
        self._ensure_open()
        if key in self._segments:
            raise ValueError(f"session {key!r} is already installed")
        from multiprocessing import shared_memory

        specs = {}
        segments = []
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                segments.append(segment)
                if array.nbytes:
                    shared = np.frombuffer(segment.buf, dtype=array.dtype)
                    shared[: array.size] = array.ravel()
                specs[name] = (segment.name, array.dtype.str, array.shape)
        except Exception:
            for segment in segments:
                segment.close()
                segment.unlink()
            raise
        self._segments[key] = segments
        self._session_specs[key] = specs
        self._command_all(("install", key, specs), context=f"install {key!r}")

    def drop(self, key: str) -> None:
        # Benign after close (see LocalTransport.drop): cleanup paths in
        # solver ``finally`` blocks must not mask the original failure.
        if self._closed:
            return
        if key not in self._segments:
            return
        self._session_specs.pop(key, None)
        self._command_all(("drop", key), context=f"drop {key!r}")
        for segment in self._segments.pop(key):
            segment.close()
            segment.unlink()

    def step(self, kernel: str, payloads: Sequence[Any]) -> List[Any]:
        outcomes = self.step_partial(kernel, payloads)
        return self._failfast_results(kernel, outcomes)

    def step_partial(
        self,
        kernel: str,
        payloads: Sequence[Any],
        only: Optional[Set[int]] = None,
        deadline: Optional[float] = None,
    ) -> Dict[int, Outcome]:
        """One barrier step, returning per-worker outcomes instead of raising.

        ``payloads`` is always the full one-per-worker list; ``only``
        restricts dispatch to a subset of workers (the supervision layer
        retries only the workers that failed).  ``deadline`` overrides
        the transport's default receive deadline for this step.

        Outcome kinds: ``"ok"``/``"kernel_error"`` (worker alive and
        serving), ``"corrupt"`` (worker alive, reply unreadable),
        ``"died"``/``"timeout"`` (worker gone — a timed-out worker is
        killed because its pipe can no longer be trusted to stay
        frame-aligned).  Dead workers need :meth:`respawn_worker` before
        they can serve again.
        """
        self._ensure_open()
        if len(payloads) != self.workers:
            raise ValueError(
                f"step needs one payload per worker "
                f"({self.workers}), got {len(payloads)}"
            )
        targets = (
            list(range(self.workers)) if only is None else sorted(only)
        )
        if deadline is None:
            deadline = self._step_timeout_s
        outcomes: Dict[int, Outcome] = {}
        await_reply: List[int] = []
        for worker_id in targets:
            handle = self._workers[worker_id]
            if handle.dead:
                outcomes[worker_id] = ("died", "worker process is not running")
                continue
            try:
                _send_msg(handle.conn, ("step", kernel, payloads[worker_id]))
            except (OSError, ValueError) as error:
                self._retire(handle)
                outcomes[worker_id] = (
                    "died",
                    f"{type(error).__name__} while sending",
                )
            else:
                await_reply.append(worker_id)
        for worker_id in await_reply:
            handle = self._workers[worker_id]
            delay = self._delay_injections.pop(worker_id, None)
            corrupt = worker_id in self._corrupt_injections
            self._corrupt_injections.discard(worker_id)
            started = time.monotonic()
            try:
                status, value = _recv_msg(
                    handle.conn,
                    timeout=deadline,
                    _pretend_delay=delay,
                    _corrupt=corrupt,
                )
            except _ReceiveTimeout:
                self._retire(handle)
                outcomes[worker_id] = ("timeout", time.monotonic() - started)
            except DistCorruptionError as error:
                outcomes[worker_id] = ("corrupt", str(error))
            except (EOFError, OSError) as error:
                self._retire(handle)
                outcomes[worker_id] = ("died", type(error).__name__)
            else:
                outcomes[worker_id] = (
                    ("ok", value) if status == "ok" else ("kernel_error", value)
                )
        return outcomes

    def close(self) -> None:
        """Tear down: close, then escalate terminate → kill, always unlink.

        Never blocks on a wedged worker: each join is bounded by
        ``close_timeout_s``, a worker that survives ``terminate()`` (e.g.
        SIGTERM masked) is ``kill()``-ed, and shared-memory segments are
        unlinked in a ``finally`` so no failure path leaks them.
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_TRANSPORTS.discard(self)
        try:
            for handle in self._workers:
                if handle.dead:
                    continue
                try:
                    _send_msg(handle.conn, ("close",))
                except (OSError, ValueError):
                    pass
            for handle in self._workers:
                process = handle.process
                process.join(timeout=self._close_timeout_s)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=self._close_timeout_s)
                if process.is_alive():  # SIGTERM ignored/blocked: escalate
                    process.kill()
                    process.join()
            for handle in self._workers:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover - already gone
                    pass
        finally:
            for segments in self._segments.values():
                for segment in segments:
                    try:
                        segment.close()
                        segment.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
            self._segments.clear()
            self._session_specs.clear()
            self._workers = []

    # -- supervision & fault-injection surface ------------------------------

    def respawn_worker(self, worker_id: int) -> None:
        """Replace a dead/stuck worker process with a fresh one.

        The shared-memory segments are driver-owned and still linked, so
        the fresh process *re-attaches* every live session — no array is
        copied.  Kernel session **state** is not restored here; that is
        the supervision layer's job (journal replay — see
        :class:`repro.dist.faults.SupervisedTransport`).
        """
        self._ensure_open()
        handle = self._workers[worker_id]
        self._retire(handle)
        self._delay_injections.pop(worker_id, None)
        self._corrupt_injections.discard(worker_id)
        fresh = self._spawn(worker_id)
        self._workers[worker_id] = fresh
        for key, specs in self._session_specs.items():
            try:
                _send_msg(fresh.conn, ("install", key, specs))
                status, value = _recv_msg(
                    fresh.conn, timeout=self._step_timeout_s
                )
            except (_ReceiveTimeout, EOFError, OSError, ValueError) as error:
                self._retire(fresh)
                raise DistExecutionError(
                    f"respawned worker {worker_id} failed to re-attach "
                    f"session {key!r} ({type(error).__name__})",
                    worker_id=worker_id,
                    phase="respawn",
                    recovery="respawn-failed",
                ) from error
            if status != "ok":
                raise DistExecutionError(
                    f"respawned worker {worker_id} rejected session "
                    f"{key!r}:\n{value}",
                    worker_id=worker_id,
                    phase="respawn",
                    recovery="respawn-failed",
                )

    def kill_worker(self, worker_id: int) -> None:
        """Fault-injection hook: SIGKILL a worker process outright.

        Used by :class:`repro.dist.faults.ChaosTransport` (``crash``
        faults) and the fault tests; the death is then observed through
        the normal pipe-EOF path, exactly like an OOM kill or segfault.
        """
        self._ensure_open()
        handle = self._workers[worker_id]
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join()

    def delay_next_receive(self, worker_id: int, seconds: float) -> None:
        """Fault-injection hook: treat the worker's next reply as late.

        The reply is considered unreadable for ``seconds`` even if it is
        already in the pipe — a delay longer than the receive deadline
        produces exactly the timeout a genuinely stuck worker would.
        """
        self._ensure_open()
        self._delay_injections[worker_id] = float(seconds)

    def corrupt_next_receive(self, worker_id: int) -> None:
        """Fault-injection hook: corrupt the worker's next reply in flight.

        A byte of the received head frame is flipped before the CRC32
        verification, so detection runs through the real integrity-check
        path.
        """
        self._ensure_open()
        self._corrupt_injections.add(worker_id)

    # -- internals ----------------------------------------------------------

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        parent, child = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child, worker_id, self._num_workers),
            daemon=True,
        )
        process.start()
        child.close()
        return _WorkerHandle(worker_id, process, parent)

    def _retire(self, handle: _WorkerHandle) -> None:
        """Mark a worker dead: kill if needed, reap, close its pipe."""
        handle.dead = True
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join()
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def _failfast_results(
        self, kernel: str, outcomes: Dict[int, Outcome]
    ) -> List[Any]:
        """Fold per-worker outcomes into fail-fast ``step`` semantics.

        Fatal failures (death, timeout, corruption) tear the transport
        down; kernel errors leave it usable and raise the first one by
        worker order — every reply was already drained by
        :meth:`step_partial`, so the pipes stay step-aligned.
        """
        for worker_id in sorted(outcomes):
            kind, info = outcomes[worker_id]
            if kind == "died":
                self.close()
                raise DistExecutionError(
                    f"worker {worker_id} died during {kernel} ({info}); "
                    f"transport closed",
                    worker_id=worker_id,
                    phase=kernel,
                    attempts=1,
                    recovery="transport-closed",
                )
            if kind == "timeout":
                self.close()
                raise DistTimeoutError(
                    f"worker {worker_id} timed out after {info:.2f}s during "
                    f"{kernel}; transport closed",
                    worker_id=worker_id,
                    phase=kernel,
                    attempts=1,
                    recovery="transport-closed",
                )
            if kind == "corrupt":
                self.close()
                raise DistCorruptionError(
                    f"reply from worker {worker_id} during {kernel} failed "
                    f"its checksum ({info}); transport closed",
                    worker_id=worker_id,
                    phase=kernel,
                    attempts=1,
                    recovery="transport-closed",
                )
        first_error: Optional[DistExecutionError] = None
        results: List[Any] = []
        for worker_id in sorted(outcomes):
            kind, value = outcomes[worker_id]
            if kind == "ok":
                results.append(value)
            elif first_error is None:
                # Kernel-level failure: the worker survived and the
                # transport stays usable; re-raise the worker traceback
                # driver-side.
                first_error = DistExecutionError(
                    f"worker {worker_id} failed during {kernel}:\n{value}",
                    worker_id=worker_id,
                    phase=kernel,
                    attempts=1,
                    recovery="none",
                )
        if first_error is not None:
            raise first_error
        return results

    def _command_all(self, message, context: str) -> None:
        for handle in self._workers:
            try:
                _send_msg(handle.conn, message)
            except (OSError, ValueError) as error:
                self._fail(handle, context, error)
        for handle in self._workers:
            try:
                status, value = _recv_msg(
                    handle.conn, timeout=self._step_timeout_s
                )
            except _ReceiveTimeout as error:
                self._retire(handle)
                self._fail(handle, context, error, timed_out=True)
            except (EOFError, OSError, DistCorruptionError) as error:
                self._fail(handle, context, error)
            else:
                if status == "err":
                    # Kernel/command-level failure: the worker survived
                    # and the transport stays usable.
                    raise DistExecutionError(
                        f"worker {handle.worker_id} failed during "
                        f"{context}:\n{value}",
                        worker_id=handle.worker_id,
                        phase=context,
                        attempts=1,
                        recovery="none",
                    )

    def _fail(
        self,
        handle: _WorkerHandle,
        context: str,
        error: Exception,
        timed_out: bool = False,
    ) -> None:
        """A worker died mid-command: tear everything down, raise cleanly."""
        self.close()
        error_type = DistTimeoutError if timed_out else DistExecutionError
        raise error_type(
            f"worker {handle.worker_id} died during {context} "
            f"({type(error).__name__}); transport closed",
            worker_id=handle.worker_id,
            phase=context,
            attempts=1,
            recovery="transport-closed",
        ) from error

    def _ensure_open(self) -> None:
        if self._closed:
            raise DistExecutionError("transport is closed")

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
