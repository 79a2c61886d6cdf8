"""Server deviation models and their detection statistics.

Covers the three implemented deviations (``exact_escape`` takes the first
two's exact rates from the protocol itself):

- stray Paulis on the handed-over register (measure-only protocol), with
  exact escape combinatorics and the closed-form bound;
- report tampering (gate-only protocol), where every reported bit is
  correct only with some probability, with its closed form;
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

import itertools
import math
from math import comb, factorial, perm

import numpy as np

from .protocols.config import ProtocolConfig
from .protocols.driver import enumerate_output, pauli_hits, walk_run
from .protocols.traps import thirds_roles
from .qsim import BRANCH_BUDGET, PROBABILITY_SLACK, RZ_BY_OCTANT


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


def escape_bound(total_errors: int) -> float:
    """Closed-form ceiling on the escape probability for ``total_errors``."""
    if total_errors < 0:
        raise ValueError("error count must be non-negative")
    return (2.0 / 3.0) ** (total_errors / 3.0)


# ---------------------------------------------------------------------------
# Report tampering


def tamper_acceptance_exact(tamper_rate: float, trap_count: int) -> float:
    """Acceptance probability when every reported bit is correct only with
    probability ``tamper_rate``: all ``trap_count`` trap bits must survive."""
    if not 0.0 <= tamper_rate <= 1.0:
        raise ValueError("tamper rate must be in [0, 1]")
    if trap_count < 0:
        raise ValueError("trap count must be non-negative")
    return tamper_rate**trap_count


# ---------------------------------------------------------------------------
# Both deviations, exactly, on the protocol


def exact_escape(config: ProtocolConfig) -> tuple[float, float]:
    """Exact P(accept) and P(accept and decoded bits wrong) of a run of
    ``config`` under its adversary: one walk (``driver.walk_run``), then the
    output stage (``driver.enumerate_output``) under each plan the adversary
    can draw, weighted by its probability. The plans are every ordered
    placement of the stray Paulis (``pauli_hits`` on distinct positions;
    fixed ``pauli_positions`` are one), or every tamper flip pattern. Wrong
    means decoded bits other than the honest plan's, so a config whose honest
    output is not deterministic is refused, as is one with more than
    ``BRANCH_BUDGET`` plans."""
    adv, n = config.adversary, config.num_qubits
    if adv.kind == "trap_tamper":
        count, rate = 2**n, adv.tamper_rate
        variants = (
            (rate ** (n - sum(flips)) * (1.0 - rate) ** sum(flips), {"flips": flips})
            for flips in itertools.product((False, True), repeat=n)
        )
    elif adv.pauli_positions is None:  # an honest config has one, empty, placement
        k = sum(adv.pauli_counts)
        count = perm(n, k)
        variants = (
            (1.0 / count, {"hits": pauli_hits(adv.pauli_counts, positions)})
            for positions in itertools.permutations(range(n), k)
        )
    else:
        count, variants = 1, [(1.0, {})]
    if count > BRANCH_BUDGET:
        raise ValueError(f"{count} attack plans exceed the budget of {BRANCH_BUDGET}")
    session, plan = walk_run(config)
    honest = enumerate_output(session, plan._replace(hits=(), flips=(False,) * n))
    outputs = {br.value.computation_bits for br in honest}
    if len(outputs) != 1:
        raise ValueError("the honest output is not deterministic, so no output is wrong")
    (right,) = outputs
    accept = wrong = 0.0
    for weight, changes in variants:
        for br in enumerate_output(session, plan._replace(**changes)):
            if br.value.trap_errors == 0:
                accept += weight * br.probability
                wrong += weight * br.probability * (br.value.computation_bits != right)
    return accept, wrong


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
