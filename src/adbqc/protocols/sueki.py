"""Prepare-only client protocol.

The client's only quantum ability is preparing single qubits; the server
holds the register, couples the client's ancillas in, and measures them in
bases the client announces. The rotation angle stays hidden because the
announced angle is a one-time-padded combination of the target angle, the
random preparation angle, the preparation sign, and a pad bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..gadgets import sueki_hrz_on_runtime

if TYPE_CHECKING:
    from .driver import Session


def hrz(session: Session, label: str, octant: int) -> int:
    """One hidden rotation: the client draws the pad and preparation angle."""
    rng = session.alice_rng
    hiding = int(rng.integers(8))
    pad = int(rng.integers(2))
    sign = 1 if int(rng.integers(2)) == 0 else -1
    res = sueki_hrz_on_runtime(
        session.rt,
        label,
        octant,
        hiding,
        pad,
        sign,
        session.tape,
        labels=(session.fresh("a"), session.fresh("a"), session.fresh("a")),
    )
    return res.frame_delta[0]
