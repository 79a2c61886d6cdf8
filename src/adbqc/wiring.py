"""Gadget wiring descriptions: a frozen text format and its evaluator.

A wiring is an ordered list of steps. Each step runs one ancilla through
its whole life: prepare it, couple it to register qubits with the standard
entangler (ancilla is the high matrix bit), then either measure it in a
named basis or discard it. Discarding is only sound when the ancilla
deterministically factors out, which the evaluator checks; algebraically
that restricts outcome-free steps to computational-basis preparations.

``wiring_branches`` turns a wiring into one register operator per outcome
string; ``_couple_chain`` is the package's one computation of the
back-action <a| E-chain |prep> of a single ancilla. ``validate_wiring``
checks that every branch is a Pauli correction times a target gate and
that the branches are complete. The fixtures under ``wirings/`` freeze
the H, CZ and H R_Z(pi/2) gadgets in this format.

Line format, one step per line (``#`` comments and blank lines allowed):

    step prep=plus couple=0,1 measure=z
    step prep=zero couple=0 discard
    step prep=hidden:3 couple=0 measure=equatorial:6
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .qsim import (
    COMPLETENESS_ATOL, PROPORTIONALITY_ATOL, Gate, MeasurementBasis, plus_state
)
from .gadgets import octant_angle

_PREPS = ("zero", "plus") + tuple(f"hidden:{k}" for k in range(8))
_MEASURES = ("z", "x") + tuple(f"equatorial:{k}" for k in range(8))


@dataclass(frozen=True)
class WiringStep:
    prep: str  # "zero" | "plus" | "hidden:<octant>"
    couple: tuple[int, ...]  # register qubits, coupled in order
    measure: str | None  # None = discard; else "z" | "x" | "equatorial:<octant>"

    def __post_init__(self) -> None:
        if self.prep not in _PREPS:
            raise ValueError(f"unknown preparation {self.prep!r}")
        if not self.couple:
            raise ValueError("a step must couple at least once")
        if len(self.couple) > 3:
            raise ValueError("at most three couplings per ancilla")
        if self.measure is not None and self.measure not in _MEASURES:
            raise ValueError(f"unknown measurement {self.measure!r}")

    def prep_vector(self) -> np.ndarray:
        if self.prep == "zero":
            return np.array([1, 0], dtype=complex)
        if self.prep == "plus":
            return plus_state(math.pi / 2, 0.0)
        k = int(self.prep.split(":")[1])
        return plus_state(octant_angle(k), math.pi / 2)

    def basis(self) -> MeasurementBasis:
        if self.measure is None:
            raise ValueError("discard steps have no basis")
        if self.measure == "z":
            return MeasurementBasis.z()
        if self.measure == "x":
            return MeasurementBasis.x()
        k = int(self.measure.split(":")[1])
        return MeasurementBasis.equatorial(octant_angle(k))


def serialize_wiring(steps: tuple[WiringStep, ...] | list[WiringStep]) -> str:
    lines = []
    for s in steps:
        tail = "discard" if s.measure is None else f"measure={s.measure}"
        lines.append(
            f"step prep={s.prep} couple={','.join(str(q) for q in s.couple)} {tail}"
        )
    return "\n".join(lines) + "\n"


def parse_wiring(text: str) -> tuple[WiringStep, ...]:
    steps = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "step":
            raise ValueError(f"bad wiring line: {raw!r}")
        fields = {}
        measure: str | None = None
        saw_discard = False
        for tok in tokens[1:]:
            if tok == "discard":
                saw_discard = True
            elif "=" in tok:
                key, val = tok.split("=", 1)
                fields[key] = val
            else:
                raise ValueError(f"bad token {tok!r} in line {raw!r}")
        if "measure" in fields:
            measure = fields["measure"]
        if saw_discard == (measure is not None):
            raise ValueError(f"step needs exactly one of measure=/discard: {raw!r}")
        couple = tuple(int(q) for q in fields["couple"].split(","))
        steps.append(WiringStep(fields["prep"], couple, measure))
    if not steps:
        raise ValueError("empty wiring")
    return tuple(steps)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class WiringBranch:
    outcomes: tuple[int, ...]  # one bit per measuring step, in step order
    operator: np.ndarray  # register-space branch operator


@lru_cache(maxsize=None)
def _couple_chain(step: WiringStep, num_register: int) -> np.ndarray:
    """W[a] = <a|_anc E-chain (|prep> (x) I_reg), shape (2, dim, dim)."""
    from .qsim import _apply_matrix

    dim = 1 << num_register
    ent = Gate.entangler().matrix
    cols = np.zeros((2 * dim, dim), dtype=complex)
    prep = step.prep_vector()
    for col in range(dim):
        vec = np.zeros(2 * dim, dtype=complex)
        # ancilla is qubit index num_register (most significant)
        vec[col] = prep[0]
        vec[dim + col] = prep[1]
        for q in step.couple:
            if not 0 <= q < num_register:
                raise ValueError(f"coupling target {q} outside register")
            vec = _apply_matrix(vec, ent, [num_register, q], num_register + 1)
        cols[:, col] = vec
    return cols.reshape(2, dim, dim)


def wiring_branches(
    steps: tuple[WiringStep, ...], num_register: int
) -> list[WiringBranch]:
    """All branch operators of a wiring, one per measurement outcome string.

    Raises if a discard step leaves its ancilla entangled with the register
    on any branch.
    """
    dim = 1 << num_register
    branches = [WiringBranch((), np.eye(dim, dtype=complex))]
    for step in steps:
        w = _couple_chain(step, num_register)
        new: list[WiringBranch] = []
        for br in branches:
            if step.measure is None:
                # stacked map register -> ancilla (x) register must factor
                stacked = np.concatenate(
                    [w[0] @ br.operator, w[1] @ br.operator], axis=0
                )
                u, sv, vh = np.linalg.svd(stacked.reshape(2, -1), full_matrices=False)
                if sv.shape[0] > 1 and sv[1] > math.sqrt(PROPORTIONALITY_ATOL):
                    raise ValueError(
                        "discarded ancilla stays entangled with the register"
                    )
                op = (sv[0] * vh[0]).reshape(dim, dim)
                # fix the arbitrary SVD phase against the ancilla vector
                anchor = u[np.argmax(np.abs(u[:, 0])), 0]
                op = op * (anchor / abs(anchor))
                new.append(WiringBranch(br.outcomes, op))
            else:
                eig = step.basis().eigenstates
                for m in (0, 1):
                    k_op = (
                        np.conj(eig[m, 0]) * w[0] + np.conj(eig[m, 1]) * w[1]
                    ) @ br.operator
                    new.append(WiringBranch(br.outcomes + (m,), k_op))
        branches = new
    return branches


def _pauli_strings(num_register: int):
    singles = {
        "i": np.eye(2, dtype=complex),
        "x": Gate.x().matrix,
        "z": Gate.z().matrix,
        "xz": Gate.x().matrix @ Gate.z().matrix,
    }
    for combo in itertools.product(sorted(singles), repeat=num_register):
        mat = np.eye(1, dtype=complex)
        # qubit 0 is the least significant factor
        for name in reversed(combo):
            mat = np.kron(mat, singles[name])
        yield combo, mat


@dataclass(frozen=True)
class WiringReport:
    valid: bool
    branches: tuple[tuple[tuple[int, ...], tuple[str, ...], float], ...]
    completeness_defect: float
    reason: str = ""


def validate_wiring(
    steps: tuple[WiringStep, ...], target: np.ndarray, num_register: int
) -> WiringReport:
    """Check every branch equals (Pauli correction) x target, up to phase
    and a branch weight, and that the branch weights are complete."""
    dim = 1 << num_register
    if target.shape != (dim, dim):
        raise ValueError("target dimension does not match the register")
    try:
        branches = wiring_branches(steps, num_register)
    except ValueError as err:
        return WiringReport(False, (), math.inf, str(err))

    total = np.zeros((dim, dim), dtype=complex)
    rows = []
    for br in branches:
        total = total + br.operator.conj().T @ br.operator
        weight = float(np.linalg.norm(br.operator) ** 2) / dim
        matched = None
        for combo, pauli in _pauli_strings(num_register):
            candidate = pauli @ target
            inner = np.vdot(candidate, br.operator)
            if (
                abs(abs(inner) ** 2 - np.linalg.norm(candidate) ** 2
                    * np.linalg.norm(br.operator) ** 2)
                <= PROPORTIONALITY_ATOL
            ):
                matched = combo
                break
        if matched is None:
            return WiringReport(
                False, (), math.inf,
                f"branch {br.outcomes} is not Pauli-equivalent to the target",
            )
        rows.append((br.outcomes, matched, weight))
    defect = float(np.max(np.abs(total - np.eye(dim))))
    if defect > COMPLETENESS_ATOL:
        return WiringReport(False, tuple(rows), defect, "branches are not complete")
    return WiringReport(True, tuple(rows), defect)


# ---------------------------------------------------------------------------
# Frozen fixtures


def load_wiring(name: str) -> tuple[WiringStep, ...]:
    """Load a frozen wiring fixture shipped with the package."""
    text = (
        resources.files("adbqc").joinpath("wirings").joinpath(f"{name}.txt").read_text()
    )
    return parse_wiring(text)

