"""Per-branch soundness tables for the measurement-driven gate gadgets.

Each H R_Z gadget is a client's own step, the ``hrz`` of its module in
``driver.CLIENT_BY_PROTOCOL`` that every run drives, under secrets in the
shape of that client's ``draw_secrets``; ``cz`` is the coupling gadget.
Each is enumerated over every outcome path once per process and
(gadget, octant, secrets) by ``driver.gadget_rows``, through the
``driver.drive_gadget`` a run drives, on its register maximally entangled
with a reference, which gives each path's operator and server record;
``branch_table``, ``soundness_sweep`` and the gadget-view audit of
``blindness`` read these paths, so a table on an input is arithmetic. A
row records the path's outcomes, its exact probability, and the fidelity
of the frame-corrected output against the ideal gate. The ``oracle`` CLI
subcommand prints these tables and the acceptance suite sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .protocols.config import _integer
from .protocols.driver import CLIENT_BY_PROTOCOL, gadget_rows
from .qsim import BRANCH_PROB_FLOOR, GADGET_FIDELITY_ATOL, haar_random_state

# the protocol whose client step each H R_Z gadget drives
PROTOCOL_BY_GADGET = {"hrz-sueki": "sueki", "p1": "p1", "p2": "p2"}
ORACLE_GADGETS = (*PROTOCOL_BY_GADGET, "cz")


@dataclass(frozen=True)
class BranchRow:
    """One outcome path of a single gadget application."""

    outcomes: tuple[int, ...]
    probability: float
    fidelity: float
    announced: int | None = None  # octant the prepare-only client discloses


def _octants(gadget: str) -> range:
    """Octants a gadget realizes: all eight, or only 0 for the coupling gadget."""
    return range(1) if gadget == "cz" else range(8)


def check_octant(gadget: str, octant: int) -> None:
    """Refuse an unknown gadget, or an octant it cannot realize or that is no int; 8 is not 0."""
    if gadget not in ORACLE_GADGETS:
        raise ValueError(f"unknown gadget {gadget!r}")
    if _integer("octant", octant) not in _octants(gadget):
        raise ValueError(f"octant {octant} is not admissible for gadget {gadget!r}")


def _draw_secrets(gadget: str, gen: np.random.Generator) -> tuple[int, ...]:
    """The gadget's client secrets, drawn as a run draws them; none for cz."""
    protocol = PROTOCOL_BY_GADGET.get(gadget)
    return CLIENT_BY_PROTOCOL[protocol].draw_secrets(gen) if protocol else ()


def _rows(branches: tuple[tuple, ...], psi: np.ndarray) -> tuple[BranchRow, ...]:
    """The rows of ``branches`` on ``psi``: with M = U^dagger F K, a path's
    probability is |M psi|^2 and its fidelity |<psi|M psi>|^2 over that."""
    rows = []
    for outcomes, operator, announced, _ in branches:
        out = operator @ psi
        prob = float(np.vdot(out, out).real)
        if prob > BRANCH_PROB_FLOOR:
            fidelity = float(abs(np.vdot(psi, out)) ** 2) / prob
            rows.append(BranchRow(outcomes, prob, fidelity, announced))
    return tuple(rows)


def branch_table(
    gadget: str, octant: int = 0, state: np.ndarray | None = None,
    secrets: tuple[int, ...] | None = None, seed: int = 2026,
) -> tuple[BranchRow, ...]:
    """Enumerate every outcome branch of one gadget application.

    ``secrets`` pins the client's secrets, in the shape of its
    ``draw_secrets``; when omitted they are drawn from ``seed``, as is the
    Haar-random input ``state``. Branch probabilities are exact. The rows
    are ``driver.gadget_rows``'s, read once octant and secrets are checked.
    """
    num_qubits = 2 if gadget == "cz" else 1
    if state is None:
        state = haar_random_state(num_qubits, rng.stream(seed, "oracle-input"))
    if state.shape != (1 << num_qubits,):
        raise ValueError(f"gadget {gadget!r} acts on {num_qubits} qubit(s)")
    if secrets is None:
        secrets = _draw_secrets(gadget, rng.stream(seed, "oracle-secrets"))
    check_octant(gadget, octant)
    protocol = PROTOCOL_BY_GADGET.get(gadget)
    secrets = tuple(_integer("secret", s) for s in secrets)
    if secrets not in (CLIENT_BY_PROTOCOL[protocol].SECRETS if protocol else ((),)):
        raise ValueError(f"secrets {secrets} are not among gadget {gadget!r}'s")
    return _rows(gadget_rows(protocol or gadget, int(octant), secrets), state)


def table_passes(rows) -> bool:
    return all(row.fidelity >= 1.0 - GADGET_FIDELITY_ATOL for row in rows)


def soundness_sweep(states_per_octant: int = 4, seed: int = 2026) -> tuple[float, int]:
    """Worst branch fidelity over every gadget, octant, and random input.

    Returns (worst fidelity, number of random input states consumed). With
    the default four states per octant the sweep uses exactly 100 inputs:
    8 + 8 + 8 + 1 = 25 combinations times four. Each input's client secrets
    come from the sweep's one secrets stream, in input order. Its octants
    and secrets are admissible, so it reads ``gadget_rows`` unchecked.
    """
    if states_per_octant < 1:
        raise ValueError("the soundness sweep needs at least one state per octant")
    worst = 1.0
    count = 0
    secrets_rng = rng.stream(seed, "oracle-secrets")
    for gadget in ORACLE_GADGETS:
        width = 2 if gadget == "cz" else 1
        name = PROTOCOL_BY_GADGET.get(gadget, gadget)  # as ``gadget_rows`` names it
        for octant in _octants(gadget):
            for _ in range(states_per_octant):
                state = haar_random_state(width, rng.stream(seed, "oracle-sweep", count))
                rows = _rows(gadget_rows(name, octant, _draw_secrets(gadget, secrets_rng)), state)
                worst = min(worst, min(row.fidelity for row in rows))
                count += 1
    return worst, count
