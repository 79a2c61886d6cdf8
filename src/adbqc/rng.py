"""Named, reproducible random streams.

Every random choice in the package is drawn from a stream derived from a
single root seed plus a purpose string (and optionally a trial index), so
parties, adversaries and repeated trials stay statistically independent
while a rerun with the same seed reproduces every draw bit for bit. An
exact enumeration reads each stream through a ``DrawLog``, so that all its
forks share one sequence of draws.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np


def _purpose_words(purpose: str) -> tuple[int, ...]:
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return the generator for (seed, purpose, index).

    The spawn key mixes a hash of the purpose string with the index, so
    streams for different purposes or trial indices never collide.
    """
    key = _purpose_words(purpose) + (index & 0xFFFFFFFF, index >> 32)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


class DrawLog:
    """A generator's draws, logged so that forks of one run share them.

    Every outcome path of a run asks its generators for the same sequence of
    draws. The first fork to reach a draw makes it and logs it with the call
    that asked for it; every other fork reads it back at its own cursor. A
    fork that asks for a different draw than the log holds is refused.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._log: list[tuple[tuple, object]] = []  # ((method, args), value)
        self._cursor = 0

    def fork(self) -> "DrawLog":
        """A cursor on the same log at this cursor's position."""
        return copy.copy(self)

    def _draw(self, *request):
        if self._cursor == len(self._log):
            method, *args = request
            self._log.append((request, getattr(self._rng, method)(*args)))
        held, value = self._log[self._cursor]
        if held != request:
            raise ValueError(f"draw {self._cursor} asks for {request}, the log holds {held}")
        self._cursor += 1
        return value

    def integers(self, high: int):
        return self._draw("integers", high)

    def random(self):
        return self._draw("random")

    def permutation(self, n: int):
        return self._draw("permutation", n)
