"""Measurement-driven gate gadgets and the algebra behind them.

Each gadget couples ancilla qubits to register qubits with the fixed
two-qubit entangler E = (H x H) CZ (``ENTANGLER``, a read-only array like
every gate and basis of ``qsim``) and consumes the ancillas by
measurement, leaving a gate on the register up to Pauli by-products that a
classical frame records. Gadgets act on labeled qubits of a
``QuantumRuntime``, into which a bare state is ``load``-ed. The building blocks:

- ``couple_in`` and ``measure_out``: the ancilla step every gadget shares.
  ``couple_in`` prepares an ancilla, hands it to the server and couples it
  to each target; ``measure_out`` has the server measure it, record and
  announce the outcome, and drop it. A gadget needs only the runtime: it
  names ancillas with ``rt.fresh`` and records through ``rt.tape``
  (``rt.transfer`` records each handover itself).
- ``couple`` and ``h_cancel``: one entangler coupling, and a |0> ancilla
  coupled then discarded, which leaves a deterministic H on the register.
- ``sueki_hrz_on_runtime``: the prepare-only client's H R_Z(theta) gadget.
  A hiding angle and a pad bit make the announced angle uniform; the
  realized gate is X^(s2 xor pad) H R_Z(theta) exactly, on every outcome
  branch. Like every H R_Z gadget it returns its X by-product bit.
- ``cz_on_runtime``: CZ between two register qubits from one shared ancilla
  (outcome s leaves a Z^s by-product on the first qubit) followed by one
  Hadamard-cancelling |0> coupling on each qubit.
- ``frame_conjugate`` and ``PauliFrame``: pushing X/Z records through the
  gates the gadgets realize.
- ``NAMED_GATE_OCTANTS`` and ``pattern_unitary``: named gates as the octants
  (beta, gamma, delta) of R_Z R_X R_Z, and the unitary four H R_Z invocations
  with those octants realize, one read-only table entry per triple mod 8.

All angles at protocol boundaries are octant integers k, meaning k*pi/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import CZ_GATE, EQUATORIAL_BY_OCTANT, H_GATE, HIDDEN_BY_OCTANT, HRZ_BY_OCTANT
from .qsim import PLUS_AMPS, X_GATE, Z_BASIS, Z_GATE, ZERO_AMPS, apply_gate, share
from .runtime import QuantumRuntime
from .transcript import ALICE, BOB

ENTANGLER = share(np.kron(H_GATE, H_GATE) @ CZ_GATE)  # E = (H x H) CZ, shared like qsim's gates


# ---------------------------------------------------------------------------
# Pauli frame


@dataclass(frozen=True)
class PauliFrame:
    """Records the pending X^x Z^z correction per qubit (up to global phase)."""

    x: tuple[int, ...]
    z: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "PauliFrame":
        return cls((0,) * n, (0,) * n)

    def flip_x(self, q: int) -> "PauliFrame":
        x = list(self.x)
        x[q] ^= 1
        return PauliFrame(tuple(x), self.z)

    def flip_z(self, q: int) -> "PauliFrame":
        z = list(self.z)
        z[q] ^= 1
        return PauliFrame(self.x, tuple(z))

    def matrix_on(self, state: np.ndarray) -> np.ndarray:
        """Apply the recorded correction to a state on the frame's qubits."""
        n = len(self.x)
        if state.shape != (1 << n,):
            raise ValueError(f"a frame on {n} qubits cannot act on a state of shape {state.shape}")
        out = state
        for q in range(n):
            if self.z[q]:
                out = apply_gate(out, Z_GATE, [q])
            if self.x[q]:
                out = apply_gate(out, X_GATE, [q])
        return out


def frame_conjugate(
    frame: PauliFrame, gate_kind: str, targets: tuple[int, ...]
) -> tuple[PauliFrame, int]:
    """Push the frame through the next gate a layer runs, ``"hrz"`` or ``"cz"``.

    Returns the updated frame plus the sign (+1 or -1) that must multiply
    the hrz angle so that gate-then-frame equals frame-then-original-gate
    up to global phase.
    """
    x, z = frame.x, frame.z
    if gate_kind == "hrz":  # H swaps the target's records; a frame they agree on stays
        (q,) = targets
        if x[q] != z[q]:
            x, z = list(x), list(z)
            x[q], z[q] = z[q], x[q]
            frame = PauliFrame(tuple(x), tuple(z))
        return frame, -1 if frame.z[q] else +1  # the new Z record is the old X record
    if gate_kind == "cz":  # each target's Z record takes the other's X record
        i, j = targets
        frame = frame.flip_z(i) if x[j] else frame
        return (frame.flip_z(j) if x[i] else frame), +1
    raise ValueError(f"frame conjugation not defined for gate {gate_kind!r}")


# ---------------------------------------------------------------------------
# Gadget primitives on a runtime

def couple(rt: QuantumRuntime, ancilla: str, register: str) -> None:
    """Apply the entangler with the ancilla as the high matrix bit; the
    server records the coupling."""
    rt.apply(ENTANGLER, [ancilla, register])
    rt.tape.local(BOB, op="couple", qubits=[ancilla, register])


def couple_in(
    rt: QuantumRuntime,
    label: str,
    amplitudes: np.ndarray,
    which: str,
    prep_party: str,
    targets: tuple[str, ...],
) -> None:
    """Prepare an ancilla, hand it to the server and couple it to each target."""
    rt.add_qubit(label, amplitudes, prep_party)
    rt.tape.local(prep_party, op="prepare", qubit=label, which=which)
    if prep_party != BOB:
        rt.transfer(label, BOB)
    for target in targets:
        couple(rt, label, target)


def measure_out(rt: QuantumRuntime, label: str, basis: np.ndarray) -> int:
    """The server measures the ancilla, records and announces the outcome,
    and drops the ancilla."""
    s, _ = rt.measure(label, basis)
    rt.tape.outcome(BOB, s, qubit=label)
    rt.tape.msg(BOB, ALICE, outcome=s)
    rt.discard(label)
    return s


def h_cancel(rt: QuantumRuntime, register: str, label: str, prep_party: str = BOB) -> None:
    """Couple a fresh |0> ancilla and discard it: a deterministic H."""
    couple_in(rt, label, ZERO_AMPS, "zero", prep_party, (register,))
    rt.discard(label)
    rt.tape.local(BOB, op="discard", qubit=label)


def announced_octant(target_octant: int, hiding_octant: int, pad_bit: int, s1: int) -> int:
    """Octant the prepare-only client announces after the first outcome.

    Over uniform (hiding octant, pad bit) the result is uniform on all
    eight octants whatever the target octant: the map is exactly two-to-one.
    """
    sign1 = -1 if s1 else +1
    return (-(target_octant % 8) - sign1 * (hiding_octant % 8 + 4 * pad_bit)) % 8


def sueki_hrz_on_runtime(
    rt: QuantumRuntime, target: str, target_octant: int, hiding_octant: int, pad_bit: int
) -> int:
    """Prepare-only client's H R_Z gadget; realizes X^b H R_Z(k pi/4) exactly
    and returns b = s2 xor pad, the X by-product.

    The client supplies all three ancillas. Its secrets (hiding octant, pad
    bit) shape only the announced angle, which is uniform when they are.
    """
    # hidden-rotation coupling, its ancilla read from qsim's read-only table
    a_hide = rt.fresh("a")
    couple_in(rt, a_hide, HIDDEN_BY_OCTANT[hiding_octant % 8], "hidden", ALICE, (target,))
    s1 = measure_out(rt, a_hide, Z_BASIS)

    # Hadamard-cancelling coupling
    h_cancel(rt, target, rt.fresh("a"), prep_party=ALICE)

    # announced angle folds the secrets with the first outcome
    k_public = announced_octant(target_octant, hiding_octant, pad_bit, s1)
    rt.tape.msg(ALICE, BOB, theta_octant=k_public)

    # driven coupling measured in the announced equatorial basis
    a_drive = rt.fresh("a")
    couple_in(rt, a_drive, PLUS_AMPS, "plus", ALICE, (target,))
    s2 = measure_out(rt, a_drive, EQUATORIAL_BY_OCTANT[k_public])

    return s2 ^ pad_bit


def cz_on_runtime(
    rt: QuantumRuntime, target_i: str, target_j: str, prep_party: str = BOB
) -> int:
    """CZ between two register qubits; realizes Z_i^s CZ_ij exactly and
    returns s, the Z by-product on the first target.

    One |+> ancilla is coupled to both qubits and Z-measured (the outcome
    travels server to client); a |0> coupling on each qubit absorbs the
    leftover Hadamards.
    """
    a_cz = rt.fresh("c")
    couple_in(rt, a_cz, PLUS_AMPS, "plus", prep_party, (target_i, target_j))
    s = measure_out(rt, a_cz, Z_BASIS)
    h_cancel(rt, target_i, rt.fresh("c"), prep_party)
    h_cancel(rt, target_j, rt.fresh("c"), prep_party)
    return s


# ---------------------------------------------------------------------------
# Named gates and octant patterns


NAMED_GATE_OCTANTS: dict[str, tuple[int, int, int]] = {
    "i": (0, 0, 0),
    "h": (2, 2, 2),
    "x": (0, 4, 0),
    "z": (4, 0, 0),
    "s": (2, 0, 0),
    "t": (1, 0, 0),
    "hx": (6, 2, 2),
}

_PATTERNS: dict[tuple[int, int, int], np.ndarray] = {}  # octants mod 8 -> read-only, on first use


def pattern_unitary(octants: tuple[int, int, int]) -> np.ndarray:
    """Unitary realized by the four-invocation pattern HRZ(0),HRZ(b),HRZ(g),HRZ(d).

    Equals R_Z(b) R_X(g) R_Z(d) up to the global phase e^{i g/2}; shared from ``_PATTERNS``.
    """
    kb, kg, kd = octants
    key = (kb % 8, kg % 8, kd % 8)
    if (m := _PATTERNS.get(key)) is None:
        m = np.eye(2, dtype=complex)
        for k in (kd, kg, kb, 0):
            m = HRZ_BY_OCTANT[k % 8] @ m
        m.flags.writeable = False
        _PATTERNS[key] = m
    return m
