"""Prepare-only client protocol.

The client's only quantum ability is preparing single qubits; the server
holds the register, couples the client's ancillas in, and measures them in
bases the client announces. The rotation angle stays hidden because the
announced angle is a one-time-padded combination of the target angle, the
random preparation angle, the preparation sign, and a pad bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..gadgets import draw_sueki_secrets, sueki_hrz_on_runtime

if TYPE_CHECKING:
    from .driver import Session


def hrz(session: Session, label: str, octant: int) -> int:
    """One hidden rotation: the client draws the pad and preparation angle."""
    hiding, pad, sign = draw_sueki_secrets(session.alice_rng)
    return sueki_hrz_on_runtime(session.rt, label, octant, hiding, pad, sign)
