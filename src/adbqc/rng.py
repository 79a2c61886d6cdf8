"""Named, reproducible random streams.

Every random choice in the package is drawn from a stream derived from a
single root seed plus a purpose string (and optionally a trial index), so
parties, adversaries and repeated trials stay statistically independent
while a rerun with the same seed reproduces every draw bit for bit. A
protocol run draws all its client and adversary choices from its streams
before it starts (``protocols.driver.draw_plan``).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


@functools.cache
def _purpose_words(purpose: str) -> tuple[int, ...]:
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return the generator for (seed, purpose, index).

    The spawn key mixes a hash of the purpose string with the index, so
    streams for different purposes or trial indices never collide. A
    negative seed is refused, naming the field.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = _purpose_words(purpose) + (index & 0xFFFFFFFF, index >> 32)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
