"""Measure-only client protocol (protocol 1).

The server's per-rotation script never varies: share a Bell half, couple
the kept half to the target, drive it a fixed eighth turn, send it over,
absorb the stray Hadamard, then repeat with a second Bell pair without the
drive. The client realizes the hidden angle purely through its choice of
measurement bases, and no classical or quantum message ever travels from
client to server.

Angles with an even octant count are realized in the second coupling
segment (the first collapses to a deterministic correction); odd octants
use the driven first segment. The client picks the equatorial phase f and
a relabel bit rho so the realized rotation lands on the requested octant:

  even k:  (-(-1)^b * 2f + 4 rho) mod 8 == k
  odd k:   ((-1)^a * (1 - 2f) + 4 rho) mod 8 == k

where a / b is the X-basis Bell outcome of the active segment. The
by-product is X^(z_bell ^ m ^ rho) with z_bell the Z-basis Bell outcome.
Both cases are the one step ``hrz``: no secrets (``SECRETS``), no coin (``COINS``).
"""

from __future__ import annotations

import numpy as np

from ..gadgets import couple, h_cancel
from ..qsim import EQUATORIAL_BY_OCTANT, RZ_BY_OCTANT, SQRT_HALF, X_BASIS, Z_BASIS, share
from ..runtime import QuantumRuntime
from ..transcript import ALICE, BOB

BELL = share(np.array([SQRT_HALF, 0, 0, SQRT_HALF], dtype=complex))  # (|00> + |11>)/sqrt(2)


def classify_angle(octant: int) -> str:
    """Even octants are case "a" (undriven segment), odd are case "b"."""
    return "a" if octant % 2 == 0 else "b"


def solve_phase_choice(octant: int, case: str, x_bell_bit: int) -> tuple[int, int]:
    """Pick the equatorial phase index f and relabel bit rho for ``octant``.

    ``x_bell_bit`` is the client's X-basis Bell outcome for the active
    segment. The solution is unique: the four (f, rho) pairs sweep the four
    even or the four odd octants exactly once.
    """
    sign = 1 if x_bell_bit == 0 else -1
    for f in (0, 1):
        for rho in (0, 1):
            if case == "a":
                val = (-sign * 2 * f + 4 * rho) % 8
            else:
                val = (sign * (1 - 2 * f) + 4 * rho) % 8
            if val == octant % 8:
                return f, rho
    raise AssertionError(f"no phase choice reaches octant {octant} in case {case}")


def p1_hrz_on_runtime(rt: QuantumRuntime, target: str, octant: int) -> int:
    """One measurement-driven H R_Z(octant * pi/4); returns the X by-product.

    Two Bell-pair segments (the first driven, the second not) flank a
    Hadamard-cancelling coupling.
    """
    tape = rt.tape
    octant %= 8
    case = classify_angle(octant)

    def segment(half: str, kept: str, drive: bool, active: bool) -> int:
        """One segment; returns its share of the by-product: the Z-basis
        Bell outcome of the idle segment, or m ^ rho of the active one."""
        # a Bell pair, one half handed to the client
        rt.load(BELL, [half, kept], BOB)
        tape.local(BOB, op="prepare_bell", qubits=[half, kept])
        rt.transfer(half, ALICE)

        # the client measures its half; the basis choice is its secret
        basis = X_BASIS if active else Z_BASIS
        bell_bit, _ = rt.measure(half, basis)
        tape.outcome(ALICE, bell_bit, qubit=half)
        rt.discard(half)

        # the server couples the kept half, drives it one octant if asked,
        # and sends it over
        couple(rt, kept, target)
        if drive:
            rt.apply(RZ_BY_OCTANT[1], [kept])
            tape.local(BOB, op="drive", qubit=kept)
        rt.transfer(kept, ALICE)

        # the active segment realizes the rotation on the kept half
        share = bell_bit
        if active:
            f, rho = solve_phase_choice(octant, case, bell_bit)
            m_bit, _ = rt.measure(kept, EQUATORIAL_BY_OCTANT[2 * f])
            tape.outcome(ALICE, m_bit, qubit=kept)
            share = m_bit ^ rho
        else:
            tape.local(ALICE, op="discard", qubit=kept)
        rt.discard(kept)
        return share

    e1a, e1b = rt.fresh("e"), rt.fresh("e")
    e2a, e2b = rt.fresh("e"), rt.fresh("e")
    # odd octants realize the rotation in the driven segment
    by_product = segment(e1a, e1b, drive=True, active=case == "b")
    # the server absorbs the stray Hadamard with a fresh |0> coupling
    h_cancel(rt, target, rt.fresh("h"))
    # even octants realize it in the undriven one
    return by_product ^ segment(e2a, e2b, drive=False, active=case == "a")


COINS = ()  # none: the client's basis choices follow from its Bell outcomes
SECRETS = ((),)


def fold() -> tuple[()]:
    return ()


def hrz(rt: QuantumRuntime, label: str, octant: int, secrets: tuple[int, ...]) -> int:
    return p1_hrz_on_runtime(rt, label, octant)
