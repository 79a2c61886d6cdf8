"""Labeled-qubit runtime: the package's one measurement and enumeration core.

A ``QuantumRuntime`` holds string-labeled qubits, with an owner tag per
qubit, as a product of factors. It is the one context a gadget runs in: it
also holds the transcript (``tape``), mints ancilla labels (``fresh``) and
records every handover (``transfer``). Two-party protocols are written once
and executed either by sampling measurement outcomes (``SampledOutcomes``)
or by exhaustively enumerating every outcome path (``enumerate_runs``,
which replays a computation once per path, so later steps may depend on
earlier outcomes). A protocol run draws its other random choices before it
starts, so the outcome source is a runtime's only randomness. Its exact
enumeration applies each gadget step's greedy compiled row, one ``apply``
each, and replays only the output stage, on ``fork``s of the runtime where
that stage starts. Gadgets, protocol runs,
oracles and audits all measure through ``QuantumRuntime.measure``; ``qsim``
only builds states and applies gates.

A factor is some qubits, in its own order, and one amplitude array that no
operation writes in place; the owner table's keys order the qubits. An ancilla
couples to one or two register qubits and is measured away, so each gadget
works on its targets' factor: ``add_qubit`` and ``load`` start a factor,
``apply`` first tensors the factors of its qubits into one, and ``measure``
splits the qubit off. ``apply`` keeps its first label's factor on top, so
an ancilla (the first label of each coupling) coupled to a lone qubit gets
the identity axis order, which ``qsim._apply_matrix`` serves with one
product on the amplitudes as they lie. ``measure`` and ``discard`` work on
the factor's (2, rest) halves, row b the rest's amplitudes where the qubit
reads b; on the top qubit, where ancillas sit, that is the amplitudes as
they lie, reshaped. ``measure`` takes both outcomes' overlaps from one
product with the conjugated basis, and ``discard`` reads its 2x2 reduced
state as the Gram matrix of the two halves, or drops a lone factor.
What a split leaves of no qubit is kept as a global phase, so ``snapshot``
returns, as a ``qsim`` state array, the amplitudes one joint vector would hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .qsim import (
    BRANCH_BUDGET,
    BRANCH_PROB_FLOOR,
    MAX_QUBITS,
    PRODUCT_ATOL,
    _apply_matrix,
    _check_gate,
    _has_unit_norm,
    partial_trace,
)
from .transcript import Transcript


class OutcomeSource:
    """Supplies measurement outcome bits and records the realized path."""

    def __init__(self) -> None:
        self.trace: list[tuple[int, float]] = []  # (bit, probability of bit 0)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(bit for bit, _ in self.trace)

    def take(self, p0: float) -> int:
        raise NotImplementedError

    def path_probability(self) -> float:
        """The product of the probabilities of the outcomes taken, in order."""
        return math.prod(p0 if bit == 0 else 1.0 - p0 for bit, p0 in self.trace)


class SampledOutcomes(OutcomeSource):
    """Draws each outcome with Born probability: 0 when a uniform draw from
    ``rng`` falls below the probability of 0."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self._rng = rng

    def take(self, p0: float) -> int:
        bit = 0 if float(self._rng.random()) < p0 else 1
        self.trace.append((bit, p0))
        return bit


class ReplayOutcomes(OutcomeSource):
    """Forces a prefix of outcomes, then greedily takes the first viable bit.

    Used by ``enumerate_runs``: re-running the computation with successively
    longer forced prefixes walks the whole outcome tree.
    """

    def __init__(self, prefix: Sequence[int]) -> None:
        super().__init__()
        self.prefix = tuple(prefix)

    def take(self, p0: float) -> int:
        i = len(self.trace)
        if i < len(self.prefix):
            bit = self.prefix[i]
            if (p0 if bit == 0 else 1.0 - p0) < BRANCH_PROB_FLOOR:
                raise ValueError(f"forced outcome {bit} at step {i} has zero probability")
        else:
            bit = 0 if p0 > BRANCH_PROB_FLOOR else 1
        self.trace.append((bit, p0))
        return bit


class QuantumRuntime:
    """Labeled, owner-tagged qubits held as a product of factors, with the
    transcript their handovers are recorded on."""

    def __init__(self, outcomes: OutcomeSource, tape: Transcript | None = None) -> None:
        self.outcomes = outcomes
        self.tape = tape or Transcript(record=False)
        # label -> its factor: (labels, amplitudes), labels[i] the factor's qubit i
        self._factors: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}
        self._phase = 1.0 + 0.0j  # what measurements and discards leave of no qubit
        self._owners: dict[str, str] = {}  # label -> owner, keys in qubit-index order
        self._minted = 0  # ancilla labels handed out by ``fresh``

    @property
    def num_qubits(self) -> int:
        return len(self._owners)

    def fresh(self, prefix: str) -> str:
        """A new ancilla label ``<prefix><n>``, numbered per runtime."""
        self._minted += 1
        return f"{prefix}{self._minted - 1}"

    def fork(self, outcomes: OutcomeSource) -> "QuantumRuntime":
        """A copy that takes its outcomes from ``outcomes``. It shares the
        factors' amplitude arrays, which every operation replaces and none
        writes in place, and the transcript; it copies the factor table,
        owners and label counter."""
        twin = QuantumRuntime(outcomes, self.tape)
        twin._factors = dict(self._factors)
        twin._phase = self._phase
        twin._owners = dict(self._owners)
        twin._minted = self._minted
        return twin

    def index_of(self, label: str) -> int:
        return list(self._owners).index(label)

    def _factor(self, label: str) -> tuple[tuple[str, ...], np.ndarray]:
        try:
            return self._factors[label]
        except KeyError:
            raise ValueError(f"unknown qubit {label!r}") from None

    def _store(self, labels: tuple[str, ...], amps: np.ndarray) -> None:
        """Make ``amps`` the factor of ``labels``; a factor of no qubit is a
        phase, folded into the global one."""
        if not labels:
            self._phase *= complex(amps[0])
            return
        factor = (labels, amps)
        for lb in labels:
            self._factors[lb] = factor

    def load(self, state: np.ndarray, labels: Sequence[str], owner: str) -> None:
        """Tensor a copy of a normalized state in as one factor; labels[i] is its qubit i."""
        labels = tuple(labels)
        amps = np.array(state, dtype=complex)
        if amps.shape != (1 << len(labels),) or len(set(labels)) != len(labels):
            raise ValueError("need one distinct label per loaded qubit")
        self._admit(labels, amps)
        self._store(labels, amps)
        self._owners.update(dict.fromkeys(labels, owner))

    def add_qubit(self, label: str, amplitudes: np.ndarray, owner: str) -> None:
        """Append a fresh qubit (becomes the most significant one) as a
        factor of its own."""
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (2,):
            raise ValueError("new qubit needs a 2-vector")
        self._admit((label,), amps)
        self._factors[label] = ((label,), amps)
        self._owners[label] = owner

    def _admit(self, labels: tuple[str, ...], amps: np.ndarray) -> None:
        """Refuse new qubits ``labels`` when one is in use, the qubit budget
        would be exceeded, or their state ``amps`` is not normalized
        (``qsim._has_unit_norm``)."""
        for lb in labels:
            if lb in self._owners:
                raise ValueError(f"label {lb!r} already in use")
        if len(self._owners) + len(labels) > MAX_QUBITS:
            raise ValueError(f"qubit budget of {MAX_QUBITS} exceeded")
        if not _has_unit_norm(amps):
            raise ValueError("a new qubit's state must be normalized")

    def apply(self, matrix: np.ndarray, labels: Sequence[str]) -> None:
        """Apply ``matrix`` to ``labels``; labels[0] is the matrix's high bit.
        The factors of ``labels`` are tensored into one first, labels[0]'s on top."""
        _check_gate(matrix, labels)
        local, amps = self._factor(labels[0])
        for lb in labels[1:]:
            if lb not in local:
                other, other_amps = self._factor(lb)
                local, amps = other + local, (amps[:, None] * other_amps).reshape(-1)
        targets = tuple(map(local.index, labels))
        self._store(local, _apply_matrix(amps, matrix, targets, len(local)))

    def measure(self, label: str, basis: np.ndarray) -> tuple[int, float]:
        """Collapse ``label`` in ``basis``, a 2x2 array whose row b is the
        eigenstate of outcome b; returns (bit, probability of bit). The
        qubit leaves its factor as a factor of its own."""
        local, amps = self._factor(label)
        q = local.index(label)
        # row b: the rest's overlap with row b of the basis
        overlaps = basis.conj().dot(_halves(amps, q, len(local)))
        p0 = min(max(float(np.vdot(overlaps[0], overlaps[0]).real), 0.0), 1.0)
        bit = self.outcomes.take(p0)
        prob = p0 if bit == 0 else 1.0 - p0
        rest = overlaps[bit] / math.sqrt(max(prob, BRANCH_PROB_FLOOR))
        self._store(local[:q] + local[q + 1:], rest)
        self._factors[label] = ((label,), basis[bit].copy())
        return bit, prob

    def discard(self, label: str) -> None:
        """Remove a qubit that is in a product state with the rest. A qubit
        that shares its factor must pass the purity check within it; a lone
        factor is product with everything, so it is dropped and leaves its
        phase behind. Both keep the heavier half; a shared factor keeps the
        |0> half unless the |1> half is heavier by more than ``PRODUCT_ATOL``,
        so on a product qubit's equal halves the phase left does not follow
        rounding."""
        local, amps = self._factor(label)
        if len(local) == 1:
            # its purity is 1 whatever it holds, so measure-then-discard
            # skips the numpy pass below
            a0, a1 = amps.tolist()
            lead = a0 if abs(a0) >= abs(a1) else a1
            self._phase *= lead / abs(lead)
        else:
            q = local.index(label)
            halves = _halves(amps, q, len(local))
            (g00, g01), (_, g11) = halves.dot(halves.conj().T).tolist()  # its reduced state
            w0, w1 = g00.real, g11.real
            purity = w0 * w0 + w1 * w1 + 2.0 * abs(g01) ** 2
            if purity < 1.0 - PRODUCT_ATOL:
                raise ValueError(
                    f"qubit {label!r} is entangled (purity {purity}); cannot discard"
                )
            rest, weight = (halves[0], w0) if w0 >= w1 - PRODUCT_ATOL else (halves[1], w1)
            self._store(local[:q] + local[q + 1:], rest / math.sqrt(weight))
        del self._factors[label]
        del self._owners[label]

    def transfer(self, label: str, new_owner: str) -> None:
        """Hand ``label`` to ``new_owner`` and record the handover."""
        if label not in self._owners:
            raise ValueError(f"unknown qubit {label!r}")
        self.tape.transfer(self._owners[label], new_owner, label)
        self._owners[label] = new_owner

    def owned_by(self, owner: str) -> list[str]:
        return [lb for lb, held_by in self._owners.items() if held_by == owner]

    def density_of(self, owner: str) -> np.ndarray:
        """Reduced density matrix over ``owner``'s qubits in qubit-index order,
        from only the factors that hold them: the rest trace to 1."""
        held = {self._factors[lb][0] for lb in self.owned_by(owner)}
        labels = [lb for lb in self._owners if self._factors[lb][0] in held]
        keep = [i for i, lb in enumerate(labels) if self._owners[lb] == owner]
        return partial_trace(self._joint(labels), keep) if keep else np.ones((1, 1), complex)

    def _joint(self, labels: list[str]) -> np.ndarray:
        """The factors of ``labels`` (whole factors) tensored back in that
        order, times the global phase."""
        amps, order = None, ()
        for lb in labels:
            if lb not in order:
                local, factor_amps = self._factors[lb]
                amps = factor_amps if amps is None else np.multiply.outer(factor_amps, amps)
                order += local
        if amps is None:
            return np.full(1, self._phase)
        if list(order) != labels:
            axes = [len(order) - 1 - order.index(lb) for lb in reversed(labels)]
            amps = amps.reshape((2,) * len(order)).transpose(axes)
        return amps.reshape(-1) * self._phase

    def snapshot(self, labels: Sequence[str] | None = None) -> np.ndarray:
        """Current state over ``labels`` (little-endian in the given order).

        The remaining qubits must be product with the requested ones; by
        default the whole register is returned.
        """
        if labels is None:
            return self._joint(list(self._owners))
        wanted = list(labels)
        n = self.num_qubits
        psi = self._joint(list(self._owners)).reshape([2] * n)
        axes = [n - 1 - self.index_of(lb) for lb in reversed(wanted)]
        other_axes = [ax for ax in range(n) if ax not in axes]
        m = np.transpose(psi, axes + other_axes).reshape(2 ** len(wanted), -1)
        if m.shape[1] == 1:
            vec = m[:, 0]
        else:
            col_norms = np.linalg.norm(m, axis=0)
            j = int(np.argmax(col_norms))
            vec = m[:, j] / col_norms[j]
            residual = m - np.outer(vec, vec.conj() @ m)
            if float(np.linalg.norm(residual)) > math.sqrt(PRODUCT_ATOL):
                raise ValueError(f"qubits {wanted} are entangled with the rest")
        return vec / np.linalg.norm(vec)


def _halves(amps: np.ndarray, q: int, n: int) -> np.ndarray:
    """The (2, rest) view of an n-qubit factor split by its qubit q: row b
    holds the rest's amplitudes where qubit q reads b, in (hi, lo) order."""
    if q == n - 1:
        return amps.reshape(2, -1)
    return amps.reshape(-1, 2, 1 << q).swapaxes(0, 1).reshape(2, -1)


@dataclass(frozen=True)
class RunBranch:
    """One outcome path of a replayed computation."""

    outcomes: tuple[int, ...]
    probability: float
    value: Any


def enumerate_runs(run_fn: Callable[[OutcomeSource], Any]) -> list[RunBranch]:
    """Enumerate every outcome path of ``run_fn``.

    ``run_fn`` must be deterministic apart from the outcomes it takes from
    the supplied source; it is re-executed once per path.
    """
    results: list[RunBranch] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        src = ReplayOutcomes(prefix)
        value = run_fn(src)
        results.append(RunBranch(src.bits, src.path_probability(), value))
        if len(results) > BRANCH_BUDGET:
            raise ValueError(f"branch budget of {BRANCH_BUDGET} exceeded")
        for k in range(len(prefix), len(src.trace)):
            bit, p0 = src.trace[k]
            p_other = 1.0 - p0 if bit == 0 else p0
            if p_other > BRANCH_PROB_FLOOR:
                stack.append(tuple(b for b, _ in src.trace[:k]) + (1 - bit,))
    results.sort(key=lambda br: br.outcomes)
    return results
