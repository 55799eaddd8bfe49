"""Host-speed probe: a fixed kernel timed next to every wall-clock sample.

On a small shared VM the raw wall time of the same ``solve()`` drifts by
10-25% over tens of seconds, and every task drifts together.  The probe
does a fixed mix of interpreter work and NumPy work on arrays built once,
with the garbage collector off, and imports nothing from the program, so
no change to the program can move it.  A sample bracketed by two probes
is reported in reference-host seconds::

    wall * CALIB_REF / mean(probe_before, probe_after)

Each vCPU switches between fast and slow phases on its own, so a probe
must run where the timed code runs.  It runs a pass on every CPU the
process may use: single-threaded workloads pin themselves to one CPU, so
that is the one probed, and multi-process ones probe every CPU in turn.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

#: Median probe time (seconds) on the reference host: 2 vCPU, Python
#: 3.11, NumPy 2.4.  Only a scale: it converts a sample into "seconds on
#: that host", so any fixed value keeps comparisons valid.
CALIB_REF = 0.0086

_KERNEL_REPEATS = 3

_ARRAY_SIZE = 50_000
_generator = np.random.default_rng(20180226)
_KEYS = _generator.integers(0, 1 << 30, size=_ARRAY_SIZE)
_BINS = _generator.integers(0, 4_096, size=_ARRAY_SIZE)
_WEIGHTS = _generator.random(_ARRAY_SIZE)


def _kernel() -> int:
    """One pass of fixed work: dict/tuple churn plus sort and scatter-add."""
    table = {}
    for i in range(28_000):
        key = (i * 7_919) % 2_053
        table[key] = table.get(key, 0) + i
    acc = 0
    for value in table.values():
        acc ^= value
    order = np.argsort(_KEYS, kind="stable")
    sums = np.bincount(_BINS, weights=_WEIGHTS, minlength=4_096)
    return acc + int(order[17]) + int(sums.argmax())


def probe() -> float:
    """Seconds for one kernel pass: the median of a few, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        walls = []
        for _ in range(_KERNEL_REPEATS):
            started = time.perf_counter()
            _kernel()
            walls.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(walls)


def probe_cpus(cpus: Sequence[int]) -> float:
    """Mean :func:`probe` over ``cpus``, running on each in turn."""
    mask = os.sched_getaffinity(0)
    try:
        values = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            values.append(probe())
    finally:
        os.sched_setaffinity(0, mask)
    return statistics.mean(values)


class Block:
    """Raw samples taken between two probes; ``factor`` set on exit."""

    def __init__(self) -> None:
        self.factor = 1.0

    def ref(self, raw_s: float) -> float:
        """A raw wall time of this block in reference-host seconds."""
        return raw_s * self.factor


class Calibrator:
    """Brackets samples with probes and keeps every probe for diagnostics."""

    def __init__(self) -> None:
        self.probes: List[float] = []

    def _probe(self) -> float:
        value = probe_cpus(sorted(os.sched_getaffinity(0)))
        self.probes.append(value)
        return value

    @contextmanager
    def block(self) -> Iterator[Block]:
        """Probe, run the body, probe again; then ``block.factor`` is valid."""
        block = Block()
        before = self._probe()
        yield block
        after = self._probe()
        block.factor = CALIB_REF / ((before + after) / 2.0)

    def timed(self, fn: Callable[[], object]) -> Tuple[float, float, object]:
        """``(raw_s, ref_s, result)`` of one call bracketed by probes."""
        with self.block() as block:
            started = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - started
        return raw, block.ref(raw), result

    def summary(self) -> Tuple[float, float]:
        """Median probe in ms and its interquartile range over the median."""
        if len(self.probes) < 4:
            return 1000.0 * statistics.median(self.probes), 0.0
        q1, q2, q3 = statistics.quantiles(self.probes, n=4)
        return 1000.0 * q2, (q3 - q1) / q2
