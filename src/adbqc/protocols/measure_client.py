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
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable

from ..gadgets import OCTANT, couple, h_cancel
from ..qsim import Gate, MeasurementBasis, StateVector
from ..runtime import QuantumRuntime
from ..transcript import ALICE, BOB, Transcript

if TYPE_CHECKING:
    from .driver import Session

BELL = StateVector.of([1, 0, 0, 1])

Checkpoint = Callable[[int], None]


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


def p1_hrz_on_runtime(
    rt: QuantumRuntime,
    target: str,
    octant: int,
    tape: Transcript | None = None,
    mint: Callable[[str], str] | None = None,
    checkpoint: Checkpoint | None = None,
) -> int:
    """One measurement-driven H R_Z(octant * pi/4); returns the X by-product.

    The nine numbered stages match the audit checkpoints: odd stages are
    server moves, even stages are client measurements or discards.
    """
    octant %= 8
    case = classify_angle(octant)
    if mint is None:
        counter = itertools.count()
        mint = lambda prefix: f"{prefix}{next(counter)}_{target}"  # noqa: E731
    names = mint
    e1a, e1b = names("e"), names("e")
    e2a, e2b = names("e"), names("e")

    def mark(step: int) -> None:
        if checkpoint is not None:
            checkpoint(step)

    # 1: first Bell pair, one half handed to the client
    rt.load(BELL, [e1a, e1b], BOB)
    if tape:
        tape.local(BOB, op="prepare_bell", qubits=[e1a, e1b])
        tape.transfer(BOB, ALICE, e1a)
    rt.transfer(e1a, ALICE)
    mark(1)

    # 2: client measures its half; the basis choice is the first secret
    basis = MeasurementBasis.z() if case == "a" else MeasurementBasis.x()
    a_bit, _ = rt.measure(e1a, basis)
    if tape:
        tape.outcome(ALICE, a_bit, qubit=e1a)
    rt.discard(e1a)
    mark(2)

    # 3: server couples the kept half, drives it one octant, sends it over
    couple(rt, e1b, target)
    rt.apply(Gate.rz(OCTANT), [e1b])
    rt.transfer(e1b, ALICE)
    if tape:
        tape.local(BOB, op="couple", qubits=[e1b, target])
        tape.local(BOB, op="drive", qubit=e1b)
        tape.transfer(BOB, ALICE, e1b)
    mark(3)

    # 4: odd octants realize the rotation on the driven ancilla
    m_bit = rho = 0
    if case == "b":
        f, rho = solve_phase_choice(octant, case, a_bit)
        m_bit, _ = rt.measure(e1b, MeasurementBasis.equatorial(f * math.pi / 2))
        if tape:
            tape.outcome(ALICE, m_bit, qubit=e1b)
    elif tape:
        tape.local(ALICE, op="discard", qubit=e1b)
    rt.discard(e1b)
    mark(4)

    # 5: server absorbs the stray Hadamard with a fresh |0> coupling
    h_cancel(rt, target, names("h"), tape, prep_party=BOB)
    mark(5)

    # 6: second Bell pair
    rt.load(BELL, [e2a, e2b], BOB)
    if tape:
        tape.local(BOB, op="prepare_bell", qubits=[e2a, e2b])
        tape.transfer(BOB, ALICE, e2a)
    rt.transfer(e2a, ALICE)
    mark(6)

    # 7: client measures the second Bell half in the complementary basis
    basis = MeasurementBasis.x() if case == "a" else MeasurementBasis.z()
    b_bit, _ = rt.measure(e2a, basis)
    if tape:
        tape.outcome(ALICE, b_bit, qubit=e2a)
    rt.discard(e2a)
    mark(7)

    # 8: second coupling, no drive
    couple(rt, e2b, target)
    rt.transfer(e2b, ALICE)
    if tape:
        tape.local(BOB, op="couple", qubits=[e2b, target])
        tape.transfer(BOB, ALICE, e2b)
    mark(8)

    # 9: even octants realize the rotation on the second ancilla
    if case == "a":
        f, rho = solve_phase_choice(octant, case, b_bit)
        m_bit, _ = rt.measure(e2b, MeasurementBasis.equatorial(f * math.pi / 2))
        if tape:
            tape.outcome(ALICE, m_bit, qubit=e2b)
    elif tape:
        tape.local(ALICE, op="discard", qubit=e2b)
    rt.discard(e2b)
    mark(9)

    z_bell = a_bit if case == "a" else b_bit
    return z_bell ^ m_bit ^ rho


def hrz(session: Session, label: str, octant: int) -> int:
    return p1_hrz_on_runtime(
        session.rt, label, octant, session.tape, mint=session.fresh
    )
