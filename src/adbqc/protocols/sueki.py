"""Prepare-only client protocol.

The client's only quantum ability is preparing single qubits; the server
holds the register, couples the client's ancillas in, and measures them in
bases the client announces. The rotation angle stays hidden because the
announced angle is a one-time-padded combination of the target angle, the
random preparation angle and a pad bit: ``SECRETS`` holds the sixteen
equally likely (hiding octant, pad bit) pairs ``draw_secrets`` draws.
"""

from __future__ import annotations

from ..gadgets import draw_sueki_secrets, sueki_hrz_on_runtime
from ..runtime import QuantumRuntime

draw_secrets = draw_sueki_secrets
SECRETS = tuple((hiding, pad) for hiding in range(8) for pad in (0, 1))


def hrz(rt: QuantumRuntime, label: str, octant: int, secrets: tuple[int, ...]) -> int:
    """One hidden rotation under the client's secrets from ``draw_secrets``."""
    return sueki_hrz_on_runtime(rt, label, octant, *secrets)
