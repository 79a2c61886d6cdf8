"""Server deviation models and their detection statistics.

Covers the three implemented deviations:

- stray Paulis on the handed-over register (measure-only protocol), with
  exact escape combinatorics, the closed-form bound, and a Monte Carlo;
- report tampering (gate-only protocol), where every reported bit is
  correct only with some probability;
- the entangled-probe analysis of the lent-ancilla gadget, quantifying
  what a server that entangles the lent qubit with a memory could learn.

The Pauli analysis relies on the measure-only register layout
(``traps.thirds_roles``): computation slots, |0> traps, |+> traps. A trap
catches an error that flips its reading (``traps.reading_flip``), so an X
is caught by a |0> trap only, a Z by a |+> trap only and an XZ by both.
Escape therefore depends only on which roles the error positions land in,
and a uniformly random layout with uniformly random disjoint error
positions is equivalent to fixed roles with uniform positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .protocols.driver import pauli_hits
from .protocols.traps import TRAP_STATES, reading_flip, thirds_roles
from .qsim import PROBABILITY_SLACK, RZ_BY_OCTANT


def pauli_is_caught(kind: str, role: str) -> bool:
    """Whether an error of ``kind`` ("x", "z" or "xz") on a position of
    ``role`` ("compute" or a ``TRAP_STATES`` key) trips a trap there."""
    if role == "compute":
        return False
    return bool(reading_flip(TRAP_STATES[role][0], "x" in kind, "z" in kind))


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def escape_counts(
    num_qubits: int, pauli_counts: tuple[int, int, int]
) -> tuple[int, int]:
    """(escaping placements, total placements) for the trap check.

    ``pauli_counts`` = (X, Z, XZ) errors on disjoint uniform positions of an
    equal-thirds register. X errors escape on computation or |+> positions,
    Z errors on computation or |0> positions, XZ only on computation slots.
    The counts are unreduced ordered placements, so the ratio reads directly
    off the combinatorics (e.g. 120/504 for three X errors on nine slots:
    504 ordered triples of positions, 120 of which avoid the |0> traps).
    """
    w = thirds_roles(num_qubits).count("compute")
    a, b, c = pauli_counts
    if min(a, b, c) < 0 or a + b + c > num_qubits:
        raise ValueError(f"bad pauli counts {pauli_counts} for N={num_qubits}")
    total = comb(num_qubits, a) * comb(num_qubits - a, b) * comb(num_qubits - a - b, c)
    good = 0
    for i in range(min(a, w) + 1):  # X errors placed on computation slots
        for j in range(min(b, w) + 1):  # Z errors on computation slots
            used = i + j + c
            if used > w or a - i > w or b - j > w:
                continue
            ways = comb(w, i) * comb(w - i, j) * comb(w - i - j, c)
            ways *= comb(w, a - i)  # remaining X errors on |+> traps
            ways *= comb(w, b - j)  # remaining Z errors on |0> traps
            good += ways
    order = factorial(a) * factorial(b) * factorial(c)
    return good * order, total * order


def escape_probability_exact(
    num_qubits: int, pauli_counts: tuple[int, int, int]
) -> Fraction:
    """Exact probability that the trap check misses the whole attack."""
    good, total = escape_counts(num_qubits, pauli_counts)
    return Fraction(good, total)


def escape_bound(total_errors: int) -> float:
    """Closed-form ceiling on the escape probability for ``total_errors``."""
    if total_errors < 0:
        raise ValueError("error count must be non-negative")
    return (2.0 / 3.0) ** (total_errors / 3.0)


@dataclass(frozen=True)
class EscapeAnalysis:
    trials: int
    escaped: int
    estimate: float
    exact: float
    bound: float
    z_score: float


def simulate_escape(
    num_qubits: int,
    pauli_counts: tuple[int, int, int],
    trials: int,
    rng: np.random.Generator,
) -> EscapeAnalysis:
    """Monte Carlo of the detection process over random error positions.

    Draws each trial's hits with ``driver.pauli_hits``, as a protocol run
    does, and asks ``pauli_is_caught`` of each hit (the layout symmetry
    above fixes the roles without loss of generality).
    """
    _check_trials(trials)
    roles = thirds_roles(num_qubits)
    escaped = 0
    for _ in range(trials):
        hits = pauli_hits(pauli_counts, num_qubits, rng)
        escaped += not any(pauli_is_caught(kind, roles[p]) for kind, p in hits)
    exact = float(escape_probability_exact(num_qubits, pauli_counts))
    estimate = escaped / trials
    z = monte_carlo_z(estimate, exact, trials)
    return EscapeAnalysis(trials, escaped, estimate, exact, escape_bound(sum(pauli_counts)), z)


def monte_carlo_z(estimate: float, exact: float, trials: int) -> float:
    """z-score of a Monte Carlo ``estimate`` of the Bernoulli probability
    ``exact`` over ``trials``; 0 when the spread is 0, since at an exact 0
    or 1 every trial agrees with it."""
    spread = math.sqrt(exact * (1.0 - exact) / trials)
    return 0.0 if spread == 0.0 else (estimate - exact) / spread


# ---------------------------------------------------------------------------
# Report tampering


def _check_tamper(tamper_rate: float, trap_count: int) -> None:
    if not 0.0 <= tamper_rate <= 1.0:
        raise ValueError("tamper rate must be in [0, 1]")
    if trap_count < 0:
        raise ValueError("trap count must be non-negative")


def tamper_acceptance_exact(tamper_rate: float, trap_count: int) -> float:
    """Acceptance probability when every reported bit is correct only with
    probability ``tamper_rate``: all ``trap_count`` trap bits must survive."""
    _check_tamper(tamper_rate, trap_count)
    return tamper_rate**trap_count


def simulate_tamper_acceptance(
    tamper_rate: float, trap_count: int, trials: int, rng: np.random.Generator
) -> float:
    """Monte Carlo of the tamper channel: fraction of runs with no trap bit
    flipped. Honest trap readings are deterministic, so a flip is an error."""
    _check_tamper(tamper_rate, trap_count)
    _check_trials(trials)
    flips = rng.random((trials, trap_count)) >= tamper_rate
    return float(np.mean(~np.any(flips, axis=1)))


# ---------------------------------------------------------------------------
# Entangled probe of the lent-ancilla gadget


_TURNS = np.stack(RZ_BY_OCTANT)[:, None]  # (8, 1, 2, 2): every octant's R_Z, over a batch axis
_TURNS.flags.writeable = False


def probe_gram(probe: np.ndarray, lent_qubit: int) -> np.ndarray:
    """Gram matrix of the server's post-rotation states across octants.

    ``probe`` is the joint state of the lent qubit and the server's memory
    (leading axes: a batch of probes, one matrix each). Entry (k, k') is the
    overlap of the joint states after the client turns the lent qubit k
    versus k' octants; |entries| < 1 mean the server can statistically
    distinguish angle hypotheses.
    """
    batch = probe.shape[:-1]  # each R_Z acts on the lent qubit's axis of the (hi, 2, lo) view
    states = (_TURNS @ probe.reshape(*batch, 1, -1, 2, 1 << lent_qubit)).reshape(*batch, 8, -1)
    return states.conj() @ np.swapaxes(states, -1, -2)


def probe_gram_closed_form(weight_one: float | np.ndarray) -> np.ndarray:
    """Same Gram matrix from the lent qubit's |1> weight alone.

    G(k, k') = (1 - w) + w * exp(i (k' - k) pi / 4), with w the probability
    of the lent qubit being |1>; an array of weights gives one matrix each.
    An honest unentangled |+> lend leaves the server no residual system at
    all; this form quantifies the best case for a server that keeps one.
    """
    w = np.asarray(weight_one)[..., None, None]
    if not np.all((-PROBABILITY_SLACK <= w) & (w <= 1.0 + PROBABILITY_SLACK)):
        raise ValueError("weight must be a probability")
    delta = np.arange(8) - np.arange(8)[:, None]  # k' - k
    return (1.0 - w) + w * np.exp(1j * delta * math.pi / 4.0)


def lent_weight_one(probe: np.ndarray, lent_qubit: int) -> float | np.ndarray:
    """Probability that the lent qubit of ``probe`` (or of each in a batch) reads 1."""
    split = probe.reshape(*probe.shape[:-1], -1, 2, 1 << lent_qubit)
    return np.sum(np.abs(split[..., 1, :]) ** 2, axis=(-2, -1))


def distinguishability(gram: np.ndarray) -> float | np.ndarray:
    """Best single-shot distinguishing advantage over octant pairs.

    For pure states with overlap G the optimal measurement separates them
    with trace distance sqrt(1 - |G|^2); this returns the maximum over all
    distinct pairs, one per Gram matrix of a batch. 0 means perfectly
    blind, 1 means some pair is perfectly distinguishable.
    """
    overlap = np.minimum(np.abs(gram[(..., *np.triu_indices(8, 1))]), 1.0)
    return np.sqrt(1.0 - overlap**2).max(axis=-1)
