"""Prepare-only client protocol.

The client's only quantum ability is preparing single qubits; the server
holds the register, couples the client's ancillas in, and measures them in
bases the client announces. The rotation angle stays hidden because the
announced angle is a one-time-padded combination of the target angle, the
random preparation angle and a pad bit: ``SECRETS`` holds the sixteen
equally likely (hiding octant, pad bit) pairs its three ``COINS`` ``fold`` into.
"""

from __future__ import annotations

from ..gadgets import sueki_hrz_on_runtime
from ..runtime import QuantumRuntime

COINS = (8, 2, 2)  # one rotation's hiding octant, pad bit and mirror coin
SECRETS = tuple((hiding, pad) for hiding in range(8) for pad in (0, 1))


def fold(hiding: int, pad: int, mirror: int) -> tuple[int, int]:
    """One rotation's secrets (hiding octant, pad bit) from its ``COINS``. The mirror coin
    is no new secret (the mirrored preparation is the one at -hiding up to a global phase),
    but every pinned output (golden runs, pinned run outputs, smoke fingerprints) drew it."""
    return (-hiding if mirror else hiding) % 8, pad


def hrz(rt: QuantumRuntime, label: str, octant: int, secrets: tuple[int, ...]) -> int:
    """One hidden rotation under the client's secrets from ``fold``."""
    return sueki_hrz_on_runtime(rt, label, octant, *secrets)
