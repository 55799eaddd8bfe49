"""Counter-based fast randomness.

The value for entity ``e`` in round ``r`` under stream key ``k`` is a
pure function ``mix(k, r, e)`` computed by a vectorized SplitMix64-style
finalizer over whole NumPy arrays at memory-bandwidth speed.  It is the
only generator of the MPC, CONGESTED-CLIQUE and Pregel solvers: the
matching family's Central-Rand thresholds and Line (d) machine
assignment (:mod:`repro.core.matching_mpc`), MIS's rank permutation and
sparsified-finish draws (:mod:`repro.core.mis_mpc`,
:mod:`repro.core.sparsified_mis`), and the Pregel engine's per-(vertex,
superstep) draws and vertex placement (:mod:`repro.mpc.engine`).  At the
out-of-core scale (n = 10M) a single Luby round wants 10M draws, which a
SHA-256-per-draw stream (~1 µs per draw) cannot serve.

Properties the solve paths rely on:

* **Deterministic** — the same ``(seed, namespace, counter, entities)``
  always produces the same floats, on any graph representation
  (``Graph``, in-RAM ``CSRGraph`` or ``repro.ooc.MMapCSRGraph``) and on
  any executor.
* **Order-free** — the value for an entity does not depend on how many
  other entities drew before it, so chunked/partitioned evaluation over
  an out-of-core graph gives the same numbers as a single pass.
* **Statistically sound, not cryptographic** — SplitMix64's finalizer
  passes BigCrush as a sequential generator; here each (key, counter)
  pair selects a stream offset and entities index into that stream.
  ``repro.verify``'s sweep and the whp audits check the guarantees the
  solvers built on it certify (see OUT_OF_CORE.md and PERFORMANCE.md).

Permutations use NumPy's counter-based Philox bit generator so that the
10M-vertex shuffle needs no Python-level loop.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

__all__ = [
    "derive_key",
    "mix64",
    "uniform01",
    "integers",
    "permutation",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64 stream increment
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_COUNTER_STEP = 0xD1342543DE82EF95  # odd; separates per-round stream offsets
_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / float(1 << 53)


def derive_key(seed_material: Any, namespace: str) -> int:
    """A 64-bit stream key from ``(seed_material, namespace)``.

    The namespace string keeps independent subsystems (vertex draws,
    thresholds, machine assignment) on unrelated streams even when they
    share one user-facing seed.
    """
    material = f"counter|{namespace}|{seed_material}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over a ``uint64`` array.

    Wraparound is the point of the arithmetic; the errstate guard
    silences NumPy's *scalar* overflow warning (array ops never warn).
    """
    with np.errstate(over="ignore"):
        z = values + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _stream_base(key: int, counter: int) -> np.uint64:
    """The stream offset for ``(key, counter)`` — one scalar mix."""
    raw = (int(key) ^ (int(counter) * _COUNTER_STEP)) & _MASK64
    return mix64(np.uint64(raw))


def hash_u64(key: int, entities: Any, counter: int = 0) -> np.ndarray:
    """Raw 64-bit hashes for ``entities`` under ``(key, counter)``.

    Follows SplitMix64's state recurrence: entity ``e`` reads the
    stream state ``base + e * GAMMA`` and finalizes it.
    """
    ents = np.asarray(entities)
    if ents.dtype != np.uint64:
        ents = ents.astype(np.uint64)
    return mix64(_stream_base(key, counter) + ents * _GAMMA)


def uniform01(key: int, entities: Any, counter: int = 0) -> np.ndarray:
    """IID-quality uniforms in ``[0, 1)``, one per entity.

    The top 53 bits of the hash become the mantissa, so every value is
    exactly representable and the map is bias-free.
    """
    h = hash_u64(key, entities, counter)
    return (h >> np.uint64(11)).astype(np.float64) * _INV_2_53


def integers(key: int, entities: Any, counter: int, high: int) -> np.ndarray:
    """Uniform draws in ``[0, high)``, one per entity (``int64``).

    Computed as ``floor(u01 * high)``; the modulo-style bias is
    ``< high / 2^53``, negligible for the machine counts (≤ n) used
    here.
    """
    if high <= 0:
        raise ValueError(f"high must be positive, got {high}")
    draws = uniform01(key, entities, counter) * float(high)
    out = draws.astype(np.int64)
    # floor(u * high) can round up to `high` only through float error;
    # clamp to keep the contract exact.
    np.minimum(out, high - 1, out=out)
    return out


def permutation(key: int, size: int) -> np.ndarray:
    """A uniform permutation of ``range(size)`` as an ``int64`` array.

    Uses the Philox counter-based bit generator: O(size) vectorized
    work, no Python-level Fisher-Yates loop.
    """
    generator = np.random.Generator(np.random.Philox(key=int(key) & _MASK64))
    return generator.permutation(size).astype(np.int64, copy=False)
