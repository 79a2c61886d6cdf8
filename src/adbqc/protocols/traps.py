"""Trap placement and output decoding.

A layout assigns each register position a role: computation slot or trap.
Traps are single-qubit eigenstates prepared through the same gadget
pipeline as everything else; at the end they are measured in their own
basis and any frame-corrected mismatch is evidence of tampering. The rule
for which Pauli flips which reading (``reading_flip``) and the
measure-only layout's roles (``thirds_roles``) live here once; decoding and
the adversary's escape analyses both read them.

The slot order is: computation slots first (in logical order), then traps.
``permutation[slot]`` is the physical register position of that slot, drawn
uniformly so the server cannot tell roles apart by position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gadgets import PauliFrame

# trap role -> (measurement basis, expected frame-corrected bit, named gate
# the final layer applies to |0> to prepare it)
TRAP_STATES = {
    "zero": ("z", 0, "i"),
    "one": ("z", 1, "x"),
    "plus": ("x", 0, "h"),
    "minus": ("x", 1, "hx"),
}


def resolve_trap_count(protocol: str, num_qubits: int, trap_count: int | None) -> int:
    """The trap count of a ``protocol`` run on ``num_qubits``: none for sueki,
    2N/3 for p1 (N a multiple of 3), a given 0 < t < N for p2. ``None`` asks
    for the fixed count; a count that breaks the rule is refused."""
    if protocol == "sueki":
        if trap_count not in (None, 0):
            raise ValueError("the prepare-only protocol takes no traps")
        return 0
    if protocol == "p1":
        if num_qubits % 3 != 0:
            raise ValueError("p1 needs a register width divisible by 3")
        required = 2 * num_qubits // 3
        if trap_count not in (None, required):
            raise ValueError(f"p1 needs 2N/3 traps, {required} for N={num_qubits}")
        return required
    if protocol == "p2":
        if trap_count is None:
            raise ValueError("p2 needs an explicit trap count")
        if not 0 < trap_count < num_qubits:
            raise ValueError("p2 trap count must satisfy 0 < traps < N")
        return trap_count
    raise ValueError(f"unknown protocol {protocol!r}")


def thirds_roles(num_qubits: int) -> tuple[str, ...]:
    """Slot roles of the measure-only layout: equal thirds of computation
    slots, |0> traps and |+> traps."""
    if num_qubits % 3 != 0 or num_qubits <= 0:
        raise ValueError("the thirds layout needs a positive multiple of 3")
    width = num_qubits // 3
    return ("compute",) * width + ("zero",) * width + ("plus",) * width


def reading_flip(basis: str, x: int, z: int) -> int:
    """Whether a pending X^x Z^z flips a reading in ``basis``: X flips a Z
    reading, Z flips an X reading."""
    return x if basis == "z" else z


@dataclass(frozen=True)
class TrapLayout:
    """Slot roles plus the slot-to-position permutation."""

    num_qubits: int
    permutation: tuple[int, ...]
    roles: tuple[str, ...]  # per slot: "compute" or a TRAP_STATES key

    def __post_init__(self) -> None:
        if sorted(self.permutation) != list(range(self.num_qubits)):
            raise ValueError("permutation must be a bijection on positions")
        if len(self.roles) != self.num_qubits:
            raise ValueError("need one role per slot")
        for role in self.roles:
            if role != "compute" and role not in TRAP_STATES:
                raise ValueError(f"unknown role {role!r}")

    @property
    def compute_slots(self) -> tuple[int, ...]:
        return tuple(s for s, r in enumerate(self.roles) if r == "compute")

    @property
    def trap_slots(self) -> tuple[int, ...]:
        return tuple(s for s, r in enumerate(self.roles) if r != "compute")

    def position_of_logical(self, q: int) -> int:
        return self.permutation[self.compute_slots[q]]

    def basis_plan(self, computation_plan: tuple[str, ...]) -> tuple[str, ...]:
        """Measurement basis per physical position."""
        bases = [""] * self.num_qubits
        for s, role in enumerate(self.roles):
            pos = self.permutation[s]
            if role == "compute":
                logical = self.compute_slots.index(s)
                bases[pos] = computation_plan[logical]
            else:
                bases[pos] = TRAP_STATES[role][0]
        return tuple(bases)


def place_traps(
    num_qubits: int, trap_count: int, protocol: str, rng: np.random.Generator
) -> TrapLayout:
    """Draw a fresh trap layout for one run, once ``resolve_trap_count``
    admits ``trap_count``. Sueki has no traps and keeps every slot in place,
    drawing nothing; p1 uses equal thirds (computation, |0> traps, |+>
    traps); p2 draws each trap state uniformly from ``TRAP_STATES``."""
    trap_count = resolve_trap_count(protocol, num_qubits, trap_count)
    if protocol == "sueki":
        return TrapLayout(num_qubits, tuple(range(num_qubits)), ("compute",) * num_qubits)
    if protocol == "p1":
        roles = thirds_roles(num_qubits)
    else:
        trap_roles = tuple(TRAP_STATES)
        roles = ("compute",) * (num_qubits - trap_count) + tuple(
            trap_roles[int(rng.integers(len(trap_roles)))] for _ in range(trap_count)
        )
    permutation = tuple(int(p) for p in rng.permutation(num_qubits))
    return TrapLayout(num_qubits, permutation, roles)


@dataclass(frozen=True)
class DecodedOutput:
    computation_bits: tuple[int, ...]
    trap_errors: int
    trap_total: int
    failed_positions: tuple[int, ...]


def decode_output(
    raw_bits: tuple[int, ...],
    bases: tuple[str, ...],
    frame: PauliFrame,
    layout: TrapLayout,
) -> DecodedOutput:
    """Frame-correct the raw output bits, unscramble the permutation and
    check every trap (``reading_flip`` says which pending Paulis flip a
    reading)."""
    n = layout.num_qubits
    if len(raw_bits) != n or len(bases) != n or len(frame.x) != n:
        raise ValueError("raw bits, bases and frame must cover every position")
    corrected = []
    for pos in range(n):
        corrected.append(raw_bits[pos] ^ reading_flip(bases[pos], frame.x[pos], frame.z[pos]))
    computation: list[int] = []
    errors = 0
    failed: list[int] = []
    total = 0
    for s, role in enumerate(layout.roles):
        pos = layout.permutation[s]
        if role == "compute":
            computation.append(corrected[pos])
        else:
            total += 1
            expected_basis, expected_bit, _ = TRAP_STATES[role]
            if bases[pos] != expected_basis:
                raise ValueError(
                    f"trap at position {pos} measured in {bases[pos]!r}, "
                    f"needs {expected_basis!r}"
                )
            if corrected[pos] != expected_bit:
                errors += 1
                failed.append(pos)
    return DecodedOutput(tuple(computation), errors, total, tuple(failed))
