"""Per-branch soundness tables for the measurement-driven gate gadgets.

Each H R_Z gadget is a client's own step, the ``hrz`` of its module in
``driver.CLIENT_BY_PROTOCOL`` that every run drives, under secrets in the
shape of that client's ``fold``ed ``COINS``; ``cz`` is the coupling gadget.
Each is enumerated over every outcome path once per process and
(gadget, octant, secrets) by ``driver.gadget_rows``, through the
``driver.drive_gadget`` a run drives, on its register maximally entangled
with a reference (``driver.walk_gadget``, the walk the view audits take
their checkpoints on), which gives each path's operator M and its score by
the exact walk's check (``driver.row_scores``: M a scalar times I), which
``soundness_sweep`` reads for drawn keys. ``branch_table`` reads the rows on
one input (``_path_stats``), a row per path with its outcomes, probability,
and fidelity of the frame-corrected output against the ideal gate. The
``oracle`` CLI subcommand prints these tables and the acceptance suite
sweeps them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .protocols.config import _integer
from .protocols.driver import CLIENT_BY_PROTOCOL, draw_secrets, gadget_rows, row_scores
from .qsim import BRANCH_PROB_FLOOR, GADGET_FIDELITY_ATOL, _has_unit_norm, haar_random_state

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
    return draw_secrets(CLIENT_BY_PROTOCOL[protocol], gen) if protocol else ()


def _path_stats(rows: tuple, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each path's probability |M psi|^2 and fidelity |<psi|M psi>|^2 over it, for the
    operators M = U^dagger F K of ``rows`` on ``state``, in one pass."""
    out = (np.stack([op for _, op, _, _ in rows]) * state).sum(-1)
    prob = (out.real**2 + out.imag**2).sum(-1)
    overlap = (state.conj() * out).sum(-1)
    return prob, (overlap.real**2 + overlap.imag**2) / np.maximum(prob, BRANCH_PROB_FLOOR)


def branch_table(
    gadget: str, octant: int = 0, state: np.ndarray | None = None,
    secrets: tuple[int, ...] | None = None, seed: int = 2026,
) -> tuple[BranchRow, ...]:
    """Enumerate every outcome branch of one gadget application.

    ``secrets`` pins the client's secrets, in the shape of its
    ``fold``; when omitted they are drawn from ``seed``, as is the
    Haar-random input ``state``, which must be normalized (within
    ``NORM_ATOL``; a NaN is refused). Branch probabilities are exact. The rows
    are ``driver.gadget_rows``'s above ``BRANCH_PROB_FLOOR``, read once octant
    and secrets are checked.
    """
    num_qubits = 2 if gadget == "cz" else 1
    if state is None:
        state = haar_random_state(num_qubits, rng.stream(seed, "oracle-input"))
    state = np.asarray(state)
    if state.shape != (1 << num_qubits,):
        raise ValueError(f"gadget {gadget!r} acts on {num_qubits} qubit(s)")
    if not _has_unit_norm(state):
        raise ValueError("the input state must be normalized")
    if secrets is None:
        secrets = _draw_secrets(gadget, rng.stream(seed, "oracle-secrets"))
    check_octant(gadget, octant)
    protocol = PROTOCOL_BY_GADGET.get(gadget)
    secrets = tuple(_integer("secret", s) for s in secrets)
    if secrets not in (CLIENT_BY_PROTOCOL[protocol].SECRETS if protocol else ((),)):
        raise ValueError(f"secrets {secrets} are not among gadget {gadget!r}'s")
    rows = gadget_rows(protocol or gadget, int(octant), secrets)
    prob, fidelity = _path_stats(rows, state)
    return tuple(BranchRow(row[0], float(p), float(f), row[2])
                 for row, p, f in zip(rows, prob, fidelity) if p > BRANCH_PROB_FLOOR)


def table_passes(rows) -> bool:
    return all(row.fidelity >= 1.0 - GADGET_FIDELITY_ATOL for row in rows)


def soundness_sweep(states_per_octant: int = 4, seed: int = 2026) -> tuple[float, int]:
    """Worst ``driver.row_fidelities`` value over every gadget and octant,
    drawn ``states_per_octant`` times each with fresh client secrets.

    Returns (worst value, number of drawn (gadget, octant, secrets) items):
    100 with the default four per octant, 8 + 8 + 8 + 1 = 25 times four.
    The secrets come from the one ``oracle-secrets`` stream in item order; a
    row's value holds for every input, so none is drawn. Each distinct key's
    scores, compiled with its rows (``driver.row_scores``), are read once,
    unchecked (its keys are admissible).
    """
    if states_per_octant < 1:
        raise ValueError("the soundness sweep needs at least one state per octant")
    secrets_rng = rng.stream(seed, "oracle-secrets")
    drawn = [(PROTOCOL_BY_GADGET.get(gadget, gadget), octant, _draw_secrets(gadget, secrets_rng))
             for gadget in ORACLE_GADGETS for octant in _octants(gadget)
             for _ in range(states_per_octant)]
    worst = np.concatenate([row_scores(*key) for key in dict.fromkeys(drawn)]).min()
    return float(worst), len(drawn)
