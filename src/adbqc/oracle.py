"""Per-branch soundness tables for the measurement-driven gate gadgets.

Each gadget is enumerated once over every outcome path, on its register
maximally entangled with a reference, which gives each path's operator;
a table on a given input state is then arithmetic. A row records the
path's outcomes, its exact probability, and the fidelity of the
frame-corrected output against the ideal gate. The ``oracle`` CLI
subcommand prints these tables and the acceptance suite sweeps them over
random inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .gadgets import (
    EVEN_OCTANTS,
    ODD_OCTANTS,
    PauliFrame,
    announced_octant,
    cz_on_runtime,
    draw_sueki_secrets,
    octant_angle,
    sueki_hrz_on_runtime,
)
from .protocols.gate_client import p2_hrz_on_runtime
from .protocols.measure_client import p1_hrz_on_runtime
from .qsim import (
    BRANCH_PROB_FLOOR,
    CZ_GATE,
    GADGET_FIDELITY_ATOL,
    haar_random_state,
    hrz_matrix,
)
from .runtime import OutcomeSource, QuantumRuntime, enumerate_runs
from .transcript import BOB

ORACLE_GADGETS = ("hrz-sueki", "p1-a", "p1-b", "p2", "cz")


@dataclass(frozen=True)
class BranchRow:
    """One outcome path of a single gadget application."""

    outcomes: tuple[int, ...]
    probability: float
    fidelity: float
    announced: int | None = None  # octant the prepare-only client discloses


def admissible_octants(gadget: str) -> tuple[int, ...]:
    """Octants a gadget can realize directly.

    The measure-only client's gadget splits by parity: the even octants ride
    on a computational first measurement, the odd ones on an equatorial one.
    The coupling gadget takes no angle at all.
    """
    if gadget not in ORACLE_GADGETS:
        raise ValueError(f"unknown gadget {gadget!r}")
    if gadget == "p1-a":
        return EVEN_OCTANTS
    if gadget == "p1-b":
        return ODD_OCTANTS
    if gadget == "cz":
        return (0,)
    return tuple(range(8))


def check_octant(gadget: str, octant: int) -> None:
    """Refuse an octant ``gadget`` cannot realize; 8 is not 0."""
    if octant not in admissible_octants(gadget):
        raise ValueError(f"octant {octant} is not admissible for gadget {gadget!r}")


def drive_gadget(
    gadget: str,
    rt: QuantumRuntime,
    labels: list[str],
    octant: int,
    hidden: tuple[int, int] = (0, 0),
) -> PauliFrame:
    """Apply one oracle gadget to ``labels``; the one map from a gadget
    name to its function, and the one check of the name and octant.

    ``hidden`` holds the prepare-only client's (hiding octant, pad bit).
    Returns the by-product frame over ``labels``.
    """
    check_octant(gadget, octant)
    if gadget == "cz":
        return PauliFrame((0, 0), (cz_on_runtime(rt, labels[0], labels[1]), 0))
    if gadget == "hrz-sueki":
        return PauliFrame((sueki_hrz_on_runtime(rt, labels[0], octant, *hidden),), (0,))
    hrz = p2_hrz_on_runtime if gadget == "p2" else p1_hrz_on_runtime
    return PauliFrame((hrz(rt, labels[0], octant),), (0,))


def _branches(gadget: str, octant: int, hidden: tuple[int, int]) -> list[tuple]:
    """Every outcome path of one gadget application, whatever its input.

    A path applies a fixed operator K to the register, so one enumeration on
    the register maximally entangled with a reference finds them all: the
    path's post-state is K / sqrt(d p) (d the register dimension, p the path
    probability). Each path is (outcomes, U^dagger F K, announced octant),
    F its by-product correction and U the ideal gate.
    """
    width = 2 if gadget == "cz" else 1
    dim = 1 << width
    entangled = np.eye(dim).reshape(-1) / math.sqrt(dim)
    ideal = CZ_GATE if gadget == "cz" else hrz_matrix(octant_angle(octant))

    def run(src: OutcomeSource) -> np.ndarray:
        rt, labels = QuantumRuntime.from_state(entangled, src, BOB)
        frame = drive_gadget(gadget, rt, labels[:width], octant, hidden)
        frame = PauliFrame(frame.x + (0,) * width, frame.z + (0,) * width)
        return frame.matrix_on(rt.snapshot(labels))

    # the prepare-only client announces by the gadget's rule from the first outcome
    hiding, pad = hidden
    undo = ideal.conj().T
    return [
        (br.outcomes, math.sqrt(dim * br.probability) * undo @ br.value.reshape(dim, dim).T,
         announced_octant(octant, hiding, pad, br.outcomes[0])
         if gadget == "hrz-sueki" else None)
        for br in enumerate_runs(run)
    ]


def _rows(branches: list[tuple], psi: np.ndarray) -> tuple[BranchRow, ...]:
    """The rows of ``branches`` on ``psi``: with M = U^dagger F K, a path's
    probability is |M psi|^2 and its fidelity |<psi|M psi>|^2 over that."""
    rows = []
    for outcomes, operator, announced in branches:
        out = operator @ psi
        prob = float(np.vdot(out, out).real)
        if prob > BRANCH_PROB_FLOOR:
            fidelity = float(abs(np.vdot(psi, out)) ** 2) / prob
            rows.append(BranchRow(outcomes, prob, fidelity, announced))
    return tuple(rows)


def branch_table(
    gadget: str,
    octant: int = 0,
    state: np.ndarray | None = None,
    hidden: tuple[int, int] | None = None,
    seed: int = 2026,
) -> tuple[BranchRow, ...]:
    """Enumerate every outcome branch of one gadget application.

    ``hidden`` pins the prepare-only client's secrets (hiding octant, pad
    bit); when omitted they are drawn from ``seed``, as is the Haar-random
    input ``state``. Branch probabilities are exact.
    """
    num_qubits = 2 if gadget == "cz" else 1
    if state is None:
        state = haar_random_state(num_qubits, rng.stream(seed, "oracle-input"))
    if state.shape != (1 << num_qubits,):
        raise ValueError(f"gadget {gadget!r} acts on {num_qubits} qubit(s)")
    if hidden is None:
        hidden = draw_sueki_secrets(rng.stream(seed, "oracle-secrets"))
    return _rows(_branches(gadget, octant, hidden), state)


def table_passes(rows) -> bool:
    return all(row.fidelity >= 1.0 - GADGET_FIDELITY_ATOL for row in rows)


def soundness_sweep(states_per_octant: int = 4, seed: int = 2026) -> tuple[float, int]:
    """Worst branch fidelity over every gadget, octant, and random input.

    Returns (worst fidelity, number of random input states consumed). With
    the default four states per admissible octant the sweep uses exactly
    100 inputs: 8 + 4 + 4 + 8 + 1 = 25 combinations times four.
    """
    if states_per_octant < 1:
        raise ValueError("the soundness sweep needs at least one state per octant")
    worst = 1.0
    count = 0
    # a gadget's paths do not depend on its input, and only the
    # prepare-only gadget reads (and so draws) the secrets
    branches: dict[tuple, list[tuple]] = {}
    for gadget in ORACLE_GADGETS:
        width = 2 if gadget == "cz" else 1
        for octant in admissible_octants(gadget):
            for _ in range(states_per_octant):
                state = haar_random_state(width, rng.stream(seed, "oracle-sweep", count))
                hidden = (draw_sueki_secrets(rng.stream(seed, "oracle-secrets", count))
                          if gadget == "hrz-sueki" else (0, 0))
                key = (gadget, octant, hidden)
                if key not in branches:
                    branches[key] = _branches(gadget, octant, hidden)
                worst = min(worst, min(row.fidelity for row in _rows(branches[key], state)))
                count += 1
    return worst, count
