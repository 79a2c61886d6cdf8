"""Gate-only client protocol (protocol 2).

The client owns a single fixed gate: the one-octant phase rotation. For
each hidden rotation the server couples a fresh |+> ancilla to the target
and lends the ancilla out; the client turns it k times and hands it back;
the server X-measures it and announces the outcome. The turn count never
appears on the wire, so the server learns nothing about the angle.

In a full run the client also adds a private half turn (four extra
octants) to each rotation with probability one half. That flips the X
by-product by a bit only the client knows, so the raw output bits the
server measures and reports at the end are one-time padded: their
statistics reveal nothing about the computation. The client's frame
absorbs the pads, so decoding is unchanged. ``SECRETS`` holds the two
equally likely pad bits, each its one coin (``COINS``).
"""

from __future__ import annotations

from ..gadgets import couple_in, measure_out
from ..qsim import PLUS_AMPS, RZ_BY_OCTANT, X_BASIS
from ..runtime import QuantumRuntime
from ..transcript import ALICE, BOB


def p2_hrz_on_runtime(rt: QuantumRuntime, target: str, octant: int) -> int:
    """One gate-driven H R_Z(octant * pi/4); returns the X by-product.

    Exactly one qubit travels each way and one classical bit comes back.
    """
    octant %= 8
    anc = rt.fresh("g")
    couple_in(rt, anc, PLUS_AMPS, "plus", BOB, (target,))

    # lent out for the client's whole contribution: k turns of its fixed rotation
    rt.transfer(anc, ALICE)
    rt.apply(RZ_BY_OCTANT[octant], [anc])
    rt.tape.local(ALICE, op="rotate", qubit=anc, turns=octant)
    rt.transfer(anc, BOB)

    return measure_out(rt, anc, X_BASIS)


COINS = (2,)  # one rotation's private half-turn pad bit
SECRETS = ((0,), (1,))


def fold(pad: int) -> tuple[int]:
    return (pad,)


def hrz(rt: QuantumRuntime, label: str, octant: int, secrets: tuple[int, ...]) -> int:
    # the half-turn pad one-time-pads the by-product bit (see module
    # docstring); the returned delta accounts for it, the server cannot
    (pad,) = secrets
    return p2_hrz_on_runtime(rt, label, (octant + 4 * pad) % 8) ^ pad
