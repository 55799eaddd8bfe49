"""Deterministic randomness management.

Every randomized algorithm in this library takes an explicit ``seed`` (or an
already-constructed :class:`random.Random`) so that runs are reproducible;
:func:`make_rng` normalizes it.  Per-entity, per-round draws come from the
counter generator of :mod:`repro.utils.counter_rng`, keyed by a namespace
string so that independent subsystems never perturb one another.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, Union

import numpy as np

try:  # the C core class: same seeding/stream, no gauss bookkeeping
    import _random

    _CoreRandom = _random.Random
except ImportError:  # pragma: no cover - exotic builds
    _CoreRandom = random.Random  # type: ignore[assignment]

SeedLike = Union[int, random.Random, None]

_DEFAULT_SEED = 0x5EED


def make_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    ``seed`` may be an int, an existing generator (returned unchanged), or
    ``None`` (a fixed default seed — the library is deterministic unless the
    caller opts out by passing their own entropy).
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    return random.Random(seed)


class RngStream:
    """A labelled SHA-256 + Mersenne-Twister family of generators.

    The value for ``key`` is a pure function of ``(seed, namespace, key)``,
    whichever order the keys are drawn in.  No solver draws from it: every
    per-(entity, round) draw comes from :mod:`repro.utils.counter_rng`.
    The class stays only while the perfbench tracer still names
    :meth:`random_batch` as a target.
    """

    def __init__(self, seed: SeedLike = None, namespace: str = "") -> None:
        self._seed_material = make_rng(seed).getrandbits(64)
        self._namespace = namespace

    def rng_for(self, *key: object) -> random.Random:
        """Return the generator associated with ``key`` (deterministic)."""
        material = f"{self._namespace}|{self._seed_material}|" + "|".join(
            repr(part) for part in key
        )
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def uniform(self, lo: float, hi: float, *key: object) -> float:
        """A uniform draw in ``[lo, hi]`` determined by ``key``."""
        return self.rng_for(*key).uniform(lo, hi)

    def random(self, *key: object) -> float:
        """A uniform draw in ``[0, 1)`` determined by ``key``."""
        return self.rng_for(*key).random()

    # -- batched draws ------------------------------------------------------
    #
    # The batch path assembles the whole batch's key material in one pass
    # and drains it through a single fused hash→reseed→draw loop over one
    # reused C-core generator.  The values are bit-for-bit identical to
    # the scalar methods — each draw is still SHA-256(material) feeding a
    # Mersenne-Twister seed.

    def _material_parts(self, entities: Sequence[int], key: Sequence[object]):
        """Per-entity key material, encoded; ``entities`` vary, ``key`` is fixed."""
        prefix = f"{self._namespace}|{self._seed_material}|"
        suffix = "".join(f"|{part!r}" for part in key)
        # ``tolist`` normalizes NumPy integers to Python ints so the
        # material matches ``repr`` in the scalar path exactly.
        ents = np.asarray(entities, dtype=np.int64).tolist()
        return [f"{prefix}{e}{suffix}".encode("utf-8") for e in ents]

    def random_batch(self, entities: Sequence[int], *key: object) -> np.ndarray:
        """``[self.random(e, *key) for e in entities]``, batched."""
        parts = self._material_parts(entities, key)
        out = np.empty(len(parts), dtype=np.float64)
        core = _CoreRandom()
        reseed = core.seed
        draw = core.random
        sha = hashlib.sha256
        from_bytes = int.from_bytes
        for i, part in enumerate(parts):
            reseed(from_bytes(sha(part).digest()[:8], "big"))
            out[i] = draw()
        return out

