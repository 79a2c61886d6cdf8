"""Statevector core: conventions, gates, measurement, branching, reductions.

Measurement and branch enumeration run through the runtime
(``QuantumRuntime.measure`` and ``enumerate_runs``), the package's only
measurement core. Expected values are either worked out inline with raw
numpy (independent of the code under test) or are small enough to assert
directly.
"""

import hashlib
import math

import numpy as np
import pytest

from adbqc import adversary, gadgets, qsim, rng, runtime
from adbqc.gadgets import ENTANGLER
from adbqc.qsim import (
    BRANCH_PROB_FLOOR,
    CZ_GATE,
    EQUATORIAL_BY_OCTANT,
    H_GATE,
    HIDDEN_BY_OCTANT,
    HRZ_BY_OCTANT,
    MAX_QUBITS,
    PLUS_AMPS,
    RZ_BY_OCTANT,
    X_BASIS,
    X_GATE,
    Z_BASIS,
    Z_GATE,
    ZERO_AMPS,
    apply_gate,
    equatorial_basis,
    haar_random_state,
    haar_random_states,
    partial_trace,
    plus_state,
    rz_matrix,
    trace_distance,
)
from adbqc.runtime import (
    OutcomeSource,
    QuantumRuntime,
    ReplayOutcomes,
    RunBranch,
    SampledOutcomes,
    enumerate_runs,
)
from adbqc.transcript import BOB
from helpers import (
    fidelity_up_to_phase, from_state, identity_gap, normalized, octant_angle, rotated, rx_matrix,
    zero_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
Y_GATE = np.array([[0, -1j], [1j, 0]])


def embed_apply(matrix: np.ndarray, targets, psi: np.ndarray) -> np.ndarray:
    """Reference gate application by explicit bit surgery.

    ``targets[0]`` addresses the most significant bit of ``matrix``; qubit q
    is bit q of the amplitude index (little-endian).
    """
    k = len(targets)
    out = np.zeros_like(psi)
    for i, amp in enumerate(psi):
        if amp == 0:
            continue
        local_in = 0
        for t in targets:
            local_in = (local_in << 1) | ((i >> t) & 1)
        for local_out in range(2**k):
            coeff = matrix[local_out, local_in]
            if coeff == 0:
                continue
            j = i
            for pos, t in enumerate(targets):
                bit = (local_out >> (k - 1 - pos)) & 1
                j = (j & ~(1 << t)) | (bit << t)
            out[j] += coeff * amp
    return out


def projection_weight(psi: np.ndarray, qubit: int, eigen: np.ndarray) -> float:
    """Probability of collapsing ``qubit`` onto the 1-qubit state ``eigen``."""
    acc = 0.0
    for j in range(len(psi)):
        if (j >> qubit) & 1 == 0:
            amp = np.conj(eigen[0]) * psi[j] + np.conj(eigen[1]) * psi[j | (1 << qubit)]
            acc += abs(amp) ** 2
    return acc


def measure(
    state: np.ndarray, qubit: int, basis: np.ndarray, outcomes: OutcomeSource
):
    """One runtime measurement of ``state`` whose outcome ``outcomes`` gives.

    Returns (outcome, probability of the outcome, post-measurement state);
    the measured qubit stays in the state, collapsed onto its eigenstate.
    """
    rt, labels = from_state(state, outcomes, BOB)
    outcome, probability = rt.measure(labels[qubit], basis)
    return outcome, probability, rt.snapshot()


def run_program(initial: np.ndarray, program, source):
    """Run ``("gate", gate, targets)`` / ``("measure", qubit, basis)`` steps
    on a runtime fed by ``source``; returns the final state."""
    rt, labels = from_state(initial, source, BOB)
    for step in program:
        if step[0] == "gate":
            rt.apply(step[1], [labels[q] for q in step[2]])
        else:
            rt.measure(labels[step[1]], step[2])
    return rt.snapshot()


def enumerate_program(initial: np.ndarray, program) -> list[RunBranch]:
    return enumerate_runs(lambda source: run_program(initial, program, source))


# ---------------------------------------------------------------------------
# Conventions


def test_rz_matrix_convention():
    m = rz_matrix(np.pi / 3)
    assert m[0, 0] == 1.0
    assert m[0, 1] == m[1, 0] == 0.0
    assert m[1, 1] == pytest.approx(np.exp(1j * np.pi / 3))


def test_rx_matrix_is_hadamard_conjugate_of_rz():
    """H RZ(theta) H = e^{i theta/2} RX(theta) with the phase-shift RZ."""
    h = H_GATE
    theta = 0.77
    want = np.exp(1j * theta / 2) * rx_matrix(theta)
    assert np.allclose(want, h @ rz_matrix(theta) @ h, atol=1e-12)


@pytest.mark.parametrize(
    "polar,phase,mirror,expected",
    [
        (np.pi / 2, 0.0, +1, np.array([INV_SQRT2, INV_SQRT2])),
        (np.pi / 2, np.pi, +1, np.array([INV_SQRT2, -INV_SQRT2])),
        (0.0, 0.3, +1, np.array([1.0, 0.0])),
        (np.pi, 0.0, +1, np.array([0.0, 1.0])),
        (np.pi / 2, np.pi / 2, +1, np.array([INV_SQRT2, 1j * INV_SQRT2])),
        (np.pi / 2, np.pi / 2, -1, np.array([INV_SQRT2, -1j * INV_SQRT2])),
    ],
)
def test_plus_state_parameterization(polar, phase, mirror, expected):
    """A mirrored preparation (mirror -1) is the one at the negated polar
    angle: cos(a/2)|0> - e^{ip} sin(a/2)|1>."""
    got = plus_state(mirror * polar, phase)
    assert np.allclose(got, expected, atol=1e-12)


def test_little_endian_indexing():
    """Qubit 0 is the least significant bit of the amplitude index."""
    state = apply_gate(zero_state(2), X_GATE, [0])
    assert np.allclose(state, [0, 1, 0, 0], atol=1e-12)
    state = apply_gate(zero_state(2), X_GATE, [1])
    assert np.allclose(state, [0, 0, 1, 0], atol=1e-12)


def test_tensor_appends_high_bits():
    """A qubit added to the runtime, or a state loaded into it, becomes its
    most significant bits."""
    one = normalized([0.0, 1.0])
    rt, _ = from_state(one, ReplayOutcomes(()), BOB)
    rt.add_qubit("high", ZERO_AMPS, BOB)
    assert rt.num_qubits == 2
    assert np.allclose(rt.snapshot(), [0, 1, 0, 0], atol=1e-12)
    rt, _ = from_state(zero_state(1), ReplayOutcomes(()), BOB)
    rt.load(one, ["high"], BOB)
    assert np.allclose(rt.snapshot(), [0, 0, 1, 0], atol=1e-12)


def test_coupled_ancilla_tops_the_factor_and_skips_the_transpose(monkeypatch):
    """``apply`` tensors labels[0]'s factor on the high side, so an ancilla
    coupled to a lone register qubit is their factor's top qubit, the
    entangler's targets are its qubits high to low and the kernel's axis
    order is the identity."""
    reg_amps = normalized([0.6, 0.8j])
    rt, (reg,) = from_state(reg_amps, ReplayOutcomes(()), BOB)
    rt.add_qubit("a", PLUS_AMPS, BOB)
    seen = []
    kernel = runtime._apply_matrix

    def recording(amps, matrix, targets, n):
        seen.append((targets, n))
        return kernel(amps, matrix, targets, n)

    monkeypatch.setattr(runtime, "_apply_matrix", recording)
    rt.apply(ENTANGLER, ["a", reg])
    assert seen == [((1, 0), 2)]
    assert qsim._transpose_plan(2, (1, 0))[1:] == ((0, 1), (0, 1))
    want = apply_gate(np.kron(PLUS_AMPS, reg_amps), ENTANGLER, [1, 0])
    assert np.allclose(rt.snapshot(), want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Gates


@pytest.mark.parametrize(
    "gate",
    [
        X_GATE,
        Y_GATE,
        Z_GATE,
        H_GATE,
        rz_matrix(0.4),
        rx_matrix(1.1),
        HRZ_BY_OCTANT[1],
        CZ_GATE,
        ENTANGLER,
    ],
)
def test_gates_are_unitary(gate):
    assert identity_gap(gate) <= 1e-12


def test_apply_x_flips_zero():
    state = apply_gate(zero_state(1), X_GATE, [0])
    assert np.allclose(state, [0.0, 1.0], atol=1e-12)


def test_rz_pi_turns_plus_into_minus():
    plus = plus_state(np.pi / 2, 0.0)
    state = apply_gate(plus, rz_matrix(np.pi), [0])
    assert np.allclose(state, [INV_SQRT2, -INV_SQRT2], atol=1e-12)


def test_entangler_order_matters():
    """E is (H x H) CZ, which differs from the reverse order CZ (H x H)."""
    e = ENTANGLER
    h2 = np.kron(H_GATE, H_GATE)
    cz = CZ_GATE
    assert np.allclose(e, h2 @ cz, atol=1e-12)
    assert not np.allclose(e, cz @ h2, atol=1e-6)


def test_entangler_on_plus_plus_is_maximally_entangled():
    state = np.kron(plus_state(np.pi / 2, 0), plus_state(np.pi / 2, 0))
    out = apply_gate(state, ENTANGLER, [1, 0])
    coeffs = np.linalg.svd(out.reshape(2, 2), compute_uv=False)
    assert np.allclose(coeffs, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_target_order_sets_matrix_high_bit():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    one_low = apply_gate(zero_state(2), X_GATE, [0])  # |q1=0, q0=1>
    # targets [1, 0]: qubit 1 is the control (high bit), stays |01>.
    unchanged = apply_gate(one_low, cnot, [1, 0])
    assert np.allclose(unchanged, one_low, atol=1e-12)
    # targets [0, 1]: qubit 0 is the control, so qubit 1 flips.
    flipped = apply_gate(one_low, cnot, [0, 1])
    assert np.allclose(flipped, [0, 0, 0, 1], atol=1e-12)


@pytest.mark.parametrize("trial", range(25))
def test_apply_gate_matches_bit_surgery_oracle(trial):
    gen = rng.stream(90, "qsim-apply", trial)
    n = int(gen.integers(1, 4))
    state = haar_random_state(n, gen)
    if n == 1 or gen.random() < 0.5:
        gate = [H_GATE, rz_matrix(float(gen.random() * 7)), X_GATE, Y_GATE][
            int(gen.integers(4))
        ]
        targets = [int(gen.integers(n))]
    else:
        gate = [CZ_GATE, ENTANGLER][int(gen.integers(2))]
        targets = list(gen.permutation(n)[:2])
    got = apply_gate(state, gate, targets)
    want = embed_apply(gate, targets, state)
    assert np.linalg.norm(got - want) < 1e-10
    assert abs(np.linalg.norm(got) - 1.0) < 1e-9


def test_apply_gate_rejects_bad_targets():
    state = zero_state(2)
    with pytest.raises(ValueError):
        apply_gate(state, CZ_GATE, [0, 0])
    with pytest.raises(ValueError):
        apply_gate(state, X_GATE, [2])
    with pytest.raises(ValueError):
        apply_gate(state, CZ_GATE, [0])


@pytest.mark.parametrize(
    "matrix,labels,message",
    [(CZ_GATE, ["r0", "r0"], "distinct targets"), (CZ_GATE, ["r0"], "cannot act on"),
     (H_GATE, ["r0", "r1"], "cannot act on"), (H_GATE, [], "distinct targets")],
    ids=["repeated-label", "4x4-one-label", "2x2-two-labels", "no-label"],
)
def test_runtime_apply_refuses_what_apply_gate_refuses(matrix, labels, message):
    """A wrong gate must not act on other qubits: on two |+> qubits CZ on
    one label would otherwise hit both, and H on two labels only one."""
    rt, _ = from_state(
        np.full(4, 0.5, dtype=complex), ReplayOutcomes(()), BOB
    )
    before = rt.snapshot()
    with pytest.raises(ValueError, match=message):
        rt.apply(matrix, labels)
    assert np.array_equal(rt.snapshot(), before)


# ---------------------------------------------------------------------------
# Measurement


def test_measure_plus_in_x_is_deterministic():
    plus = plus_state(np.pi / 2, 0.0)
    outcome, probability, _ = measure(plus, 0, X_BASIS, ReplayOutcomes((0,)))
    assert outcome == 0
    assert probability == pytest.approx(1.0, abs=1e-12)


def test_measure_zero_in_x_is_fair():
    zero = zero_state(1)
    out0, prob0, _ = measure(zero, 0, X_BASIS, ReplayOutcomes((0,)))
    out1, prob1, _ = measure(zero, 0, X_BASIS, ReplayOutcomes((1,)))
    assert (out0, out1) == (0, 1)
    assert prob0 == pytest.approx(0.5, abs=1e-12)
    assert prob1 == pytest.approx(0.5, abs=1e-12)


def test_measure_tilted_state_in_z():
    """cos(pi/6)^2 = 3/4 lands on outcome 0."""
    state = plus_state(np.pi / 3, np.pi / 2)
    outcome, probability, _ = measure(state, 0, Z_BASIS, ReplayOutcomes((0,)))
    assert outcome == 0
    assert probability == pytest.approx(0.75, abs=1e-12)
    outcome, probability, _ = measure(state, 0, Z_BASIS, ReplayOutcomes((1,)))
    assert outcome == 1
    assert probability == pytest.approx(0.25, abs=1e-12)


class _FixedDraw:
    """Stands in for a generator: ``random()`` returns one chosen draw."""

    def __init__(self, draw: float) -> None:
        self.draw = draw

    def random(self) -> float:
        return self.draw


def test_measure_coin_boundary_is_half_open():
    """Outcome 0 exactly when the draw is below p0, so a sampled outcome
    of probability 0 never occurs: checked where p0 is 1 and 0, at the
    extreme draws and at sampled ones."""
    zero = zero_state(1)
    one = normalized([0.0, 1.0])
    top = SampledOutcomes(_FixedDraw(1.0 - 2.0**-53))
    assert measure(zero, 0, Z_BASIS, top)[0] == 0
    assert measure(one, 0, Z_BASIS, SampledOutcomes(_FixedDraw(0.0)))[0] == 1
    gen = rng.stream(90, "qsim-boundary")
    for _ in range(100):
        assert measure(zero, 0, Z_BASIS, SampledOutcomes(gen))[0] == 0
        assert measure(one, 0, Z_BASIS, SampledOutcomes(gen))[0] == 1


def test_forced_outcome_of_zero_probability_is_refused():
    rt = QuantumRuntime(ReplayOutcomes((1,)))
    rt.add_qubit("q", ZERO_AMPS, BOB)
    with pytest.raises(ValueError, match="forced outcome 1 at step 0 has zero probability"):
        rt.measure("q", Z_BASIS)


@pytest.mark.parametrize("trial", range(20))
def test_measure_probability_matches_projection(trial):
    gen = rng.stream(91, "qsim-measure", trial)
    n = int(gen.integers(1, 4))
    state = haar_random_state(n, gen)
    qubit = int(gen.integers(n))
    basis = rotated(float(gen.random() * np.pi), float(gen.random() * 7))
    p0 = projection_weight(state, qubit, basis[0])
    p1 = projection_weight(state, qubit, basis[1])
    assert p0 + p1 == pytest.approx(1.0, abs=1e-10)
    outcome, probability, post = measure(state, qubit, basis, ReplayOutcomes(()))
    assert probability == pytest.approx(p0 if outcome == 0 else p1, abs=1e-10)
    assert post.shape == (1 << n,)
    assert abs(np.linalg.norm(post) - 1.0) < 1e-9


def test_measure_post_state_is_eigenstate():
    state = haar_random_state(2, rng.stream(92, "post"))
    rt, labels = from_state(state, ReplayOutcomes(()), BOB)
    outcome, _ = rt.measure(labels[1], X_BASIS)
    again, probability = rt.measure(labels[1], X_BASIS)
    assert again == outcome
    assert probability == pytest.approx(1.0, abs=1e-10)


def test_degenerate_basis_rejected():
    """No gate or basis is checked when it is built: the tests' identity gap
    is what flags a degenerate basis and a non-unitary matrix."""
    e = plus_state(np.pi / 2, 0.0)
    assert identity_gap(np.stack([e, e])) == pytest.approx(1.0, abs=1e-12)
    assert identity_gap(np.array([[1, 1], [0, 1]])) == pytest.approx(1.0, abs=1e-12)


def test_rotated_basis_special_cases():
    x = rotated(np.pi / 2, 0.0)
    y = rotated(np.pi / 2, np.pi / 2)
    y_basis = np.array([[1, 1j], [1, -1j]]) * INV_SQRT2
    for got, want in ((x, X_BASIS), (y, y_basis)):
        for a, b in zip(got, want):
            assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-12
    assert np.allclose(equatorial_basis(1.3), rotated(np.pi / 2, 1.3), atol=1e-12)


def shared_arrays(module) -> dict[str, np.ndarray]:
    """Every module-level array of ``module``, and every array inside a
    module-level tuple, by name."""
    found = {}
    for name, value in vars(module).items():
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for i, item in items:
            if isinstance(item, np.ndarray):
                found[name if i is None else f"{name}[{i}]"] = item
    return found


def test_shared_gates_and_bases_are_read_only():
    """Every run, and every fork of a run, shares the module-level arrays of
    ``qsim`` and ``gadgets`` (and every probe audit ``adversary``'s), so each
    must refuse a write; the fixed ones also match their formulas."""
    arrays = {**shared_arrays(qsim), **shared_arrays(gadgets), **shared_arrays(adversary)}
    assert {"CZ_GATE", "X_BASIS", "RZ_BY_OCTANT[7]", "HRZ_BY_OCTANT[7]", "EQUATORIAL_BY_OCTANT[7]",
            "HIDDEN_BY_OCTANT[7]", "ENTANGLER", "PLUS_AMPS", "_TURNS"} <= set(arrays)
    accepted = []
    for name, array in arrays.items():
        index = (0,) * array.ndim
        try:
            array[index] = array[index]
        except ValueError as refusal:
            assert "read-only" in str(refusal)
        else:
            accepted.append(name)
    assert accepted == []
    fixed = [(Z_GATE, np.diag([1, -1])), (X_GATE, [[0, 1], [1, 0]]), (Z_BASIS, np.eye(2)),
             (ZERO_AMPS, [1, 0]), (PLUS_AMPS, plus_state(np.pi / 2, 0.0))]
    fixed += [(RZ_BY_OCTANT[k], rz_matrix(k * np.pi / 4)) for k in range(8)]
    fixed += [(HRZ_BY_OCTANT[k], H_GATE @ rz_matrix(k * np.pi / 4)) for k in range(8)]
    fixed += [(EQUATORIAL_BY_OCTANT[k], equatorial_basis(k * np.pi / 4)) for k in range(8)]
    fixed += [(HIDDEN_BY_OCTANT[k], plus_state(octant_angle(k), math.pi / 2)) for k in range(8)]
    for got, want in fixed:
        assert np.array_equal(got, want)


def test_sampled_outcomes_track_born_rule():
    """10^4 coin draws against the 3/4 line stay within four sigma."""
    state = plus_state(np.pi / 3, np.pi / 2)
    gen = rng.stream(93, "qsim-sampling")
    trials = 10_000
    zeros = sum(
        measure(state, 0, Z_BASIS, SampledOutcomes(gen))[0] == 0
        for _ in range(trials)
    )
    sigma = np.sqrt(trials * 0.75 * 0.25)
    assert abs(zeros - trials * 0.75) <= 4 * sigma


# ---------------------------------------------------------------------------
# Branch enumeration


def test_enumerate_branches_drops_zero_probability():
    program = [("measure", 0, Z_BASIS)]
    branches = enumerate_program(zero_state(1), program)
    assert len(branches) == 1
    assert branches[0].outcomes == (0,)
    assert branches[0].probability == pytest.approx(1.0)
    assert BRANCH_PROB_FLOOR < 1e-9


def test_enumerate_branches_covers_all_paths():
    program = [
        ("gate", H_GATE, [0]),
        ("measure", 0, Z_BASIS),
        ("gate", H_GATE, [1]),
        ("measure", 1, Z_BASIS),
    ]
    branches = enumerate_program(zero_state(2), program)
    assert len(branches) == 4
    assert sorted(b.outcomes for b in branches) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
    for b in branches:
        assert isinstance(b, RunBranch)
        assert b.probability == pytest.approx(0.25, abs=1e-12)


def test_enumeration_matches_sequential_sampling():
    """Branch weights reproduce sequential sampling within four sigma."""
    program = [
        ("gate", H_GATE, [0]),
        ("gate", CZ_GATE, [0, 1]),
        ("gate", rz_matrix(np.pi / 3), [1]),
        ("measure", 0, X_BASIS),
        ("measure", 1, equatorial_basis(np.pi / 4)),
    ]
    initial = apply_gate(zero_state(2), H_GATE, [1])
    branches = enumerate_program(initial, program)
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)

    gen = rng.stream(94, "qsim-branch-sampling")
    trials = 10_000
    counts = {b.outcomes: 0 for b in branches}
    for _ in range(trials):
        source = SampledOutcomes(gen)
        run_program(initial, program, source)
        counts[source.bits] += 1
    for b in branches:
        sigma = np.sqrt(trials * b.probability * (1 - b.probability))
        assert abs(counts[b.outcomes] - trials * b.probability) <= 4 * sigma


# ---------------------------------------------------------------------------
# Reductions and distances


def test_partial_trace_of_product_state():
    joint = normalized([0.0, 0.0, 1.0, 0.0])  # |q1=1, q0=0>
    rho0 = partial_trace(joint, keep=[0])
    assert np.allclose(rho0, [[1, 0], [0, 0]], atol=1e-12)
    rho1 = partial_trace(joint, keep=[1])
    assert np.allclose(rho1, [[0, 0], [0, 1]], atol=1e-12)


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    bell = normalized([INV_SQRT2, 0.0, 0.0, INV_SQRT2])
    for keep in ([0], [1]):
        rho = partial_trace(bell, keep=keep)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_kron_oracle():
    """keep[i] becomes output qubit i, so keep order permutes the result."""
    gen = rng.stream(95, "qsim-ptrace")
    state = haar_random_state(3, gen)
    psi = state.reshape(2, 2, 2)  # axes q2, q1, q0
    want = np.einsum("abc,dbc->ad", psi, psi.conj())  # keep q2
    rho = partial_trace(state, keep=[2])
    assert np.allclose(rho, want, atol=1e-12)
    # keep=[0, 1]: output bit 0 is q0, output bit 1 is q1.
    want01 = np.einsum("abc,ade->bcde", psi, psi.conj()).reshape(4, 4)
    rho01 = partial_trace(state, keep=[0, 1])
    assert np.allclose(rho01, want01, atol=1e-12)
    # Reversing keep swaps the two output qubits.
    swap = [0, 2, 1, 3]
    rho10 = partial_trace(state, keep=[1, 0])
    assert np.allclose(rho10, want01[np.ix_(swap, swap)], atol=1e-12)


def test_fidelity_ignores_global_phase():
    zero = zero_state(1)
    spun = np.exp(0.7j) * zero
    assert fidelity_up_to_phase(zero, spun) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_of_zero_and_plus():
    plus = plus_state(np.pi / 2, 0.0)
    assert fidelity_up_to_phase(zero_state(1), plus) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_extremes():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    mixed = np.eye(2, dtype=complex) / 2
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_of_two_stacks_is_each_pairs_distance():
    """Two stacks give one distance per pair, each bit for bit the distance
    of the pair on its own."""
    gen = rng.stream(97, "stacked-trace-distance")
    rhos = [partial_trace(haar_random_state(3, gen), [0, 1]) for _ in range(12)]
    a, b = np.stack(rhos[:6]), np.stack(rhos[6:])
    stacked = trace_distance(a, b)
    assert stacked.shape == (6,)
    assert stacked.tolist() == [trace_distance(x, y) for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# Validation and random states


@pytest.mark.parametrize(
    "state,labels,message",
    [(np.array([1.0, 1.0]), ["q"], "normalized"),
     (np.array([1.0, 0.0]), ["q", "p"], "one distinct label"),
     (np.array([1.0, 0.0, 0.0]), ["q", "p"], "one distinct label"),
     (np.eye(2), ["q", "p"], "one distinct label"),
     (zero_state(2), ["q", "q"], "one distinct label"),
     (zero_state(1), ["r0"], "already in use"),
     (zero_state(MAX_QUBITS), [f"x{i}" for i in range(MAX_QUBITS)], "qubit budget")],
    ids=["unnormalized", "too-short", "not-a-power-of-two", "2-d", "repeated-label",
         "label-in-use", "over-budget"],
)
def test_load_refuses_a_state_it_cannot_hold(state, labels, message):
    """``load`` is where an outside state enters a runtime, so it checks
    the length against the labels, the labels, the qubit budget and the
    norm, and changes nothing when it refuses."""
    rt, _ = from_state(zero_state(1), ReplayOutcomes(()), BOB)
    with pytest.raises(ValueError, match=message):
        rt.load(state, labels, BOB)
    assert rt.num_qubits == 1
    assert np.array_equal(rt.snapshot(), zero_state(1))


NON_FINITE = {
    "nan": np.array([np.nan, 0.0]),
    "nan-beside-one": np.array([1.0, np.nan]),
    "nan-phase": np.array([complex(np.nan, 0.0), 0.0]),
    "inf": np.array([np.inf, 0.0]),
}


@pytest.mark.parametrize("amps", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_a_state_with_a_non_finite_norm_is_refused(amps):
    """A NaN norm fails every comparison, so a norm check written as "too
    far from 1" would admit it; ``load`` and ``add_qubit`` each refuse it,
    and an infinite one, and change nothing, also as a whole loaded state."""
    rt, _ = from_state(zero_state(1), ReplayOutcomes(()), BOB)
    with pytest.raises(ValueError, match="normalized"):
        rt.load(amps, ["p"], BOB)
    with pytest.raises(ValueError, match="normalized"):
        rt.add_qubit("p", amps, BOB)
    assert rt.num_qubits == 1
    assert np.array_equal(rt.snapshot(), zero_state(1))
    with pytest.raises(ValueError, match="normalized"):
        from_state(amps, ReplayOutcomes(()), BOB)
    with pytest.raises(ValueError, match="normalized"):
        from_state(np.concatenate([amps, [0.0, 0.0]]), ReplayOutcomes(()), BOB)


def test_load_copies_its_state():
    """A runtime never shares a loaded array: writing it afterwards, or
    writing the array a snapshot returns, leaves the runtime as it was."""
    state = normalized([1.0, 1.0])
    rt, _ = from_state(state, ReplayOutcomes(()), BOB)
    state[0] = 0.0
    rt.snapshot()[0] = 0.0
    assert np.allclose(rt.snapshot(), [INV_SQRT2, INV_SQRT2], atol=1e-12)


@pytest.mark.parametrize(
    "state",
    [np.ones(3) / np.sqrt(3), np.ones(0), np.eye(2) / np.sqrt(2), np.ones(()),
     zero_state(MAX_QUBITS + 1)],
    ids=["length-3", "empty", "2-d", "0-d", "over-max-qubits"],
)
def test_state_width_is_refused_unless_a_power_of_two(state):
    """One width rule reads n from a state's 2^n amplitudes, and
    ``apply_gate``, ``partial_trace`` and the tests' ``from_state`` all
    refuse what it refuses."""
    with pytest.raises(ValueError, match="2\\^n amplitudes"):
        apply_gate(state, X_GATE, [0])
    with pytest.raises(ValueError, match="2\\^n amplitudes"):
        partial_trace(state, [0])
    with pytest.raises(ValueError, match="2\\^n amplitudes"):
        from_state(state, ReplayOutcomes(()), BOB)


def test_fidelity_refuses_states_of_different_widths():
    with pytest.raises(ValueError, match="cannot be compared"):
        fidelity_up_to_phase(zero_state(1), zero_state(2))


def uncached_stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """``rng.stream`` from its formula, hashing the purpose on every call."""
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    key = words + (index & 0xFFFFFFFF, index >> 32)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@pytest.mark.parametrize(
    "seed,purpose,index",
    [(0, "outcomes", 0), (2026, "oracle-sweep", 99), (5, "alice", 0),
     (7, "", 2**33 + 5), (1, "h\u00e9t\u00e9rodyne", 3)],
)
def test_a_stream_draws_what_the_uncached_formula_draws(seed, purpose, index):
    """The purpose hash is cached per purpose; the first and every later
    stream of a purpose draw what the formula draws, bit for bit."""
    for _ in range(2):
        got, want = rng.stream(seed, purpose, index), uncached_stream(seed, purpose, index)
        assert np.array_equal(got.random(8), want.random(8))
        assert np.array_equal(got.integers(2**63, size=4), want.integers(2**63, size=4))


def test_a_purpose_is_hashed_once(monkeypatch):
    hashed = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(rng.hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
    for index in range(3):
        rng.stream(index, "a purpose no other test opens", index)
    assert hashed == [b"a purpose no other test opens"]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_haar_random_state_is_normalized_and_seeded(n):
    a = haar_random_state(n, rng.stream(96, "haar", 0))
    b = haar_random_state(n, rng.stream(96, "haar", 0))
    c = haar_random_state(n, rng.stream(96, "haar", 1))
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    assert np.array_equal(a, b)
    assert not np.allclose(a, c, atol=1e-3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_haar_draws_are_the_single_draws_bit_for_bit(n):
    """One draw of ``count`` rows consumes the stream as ``count`` single
    draws do, each normalized as ``np.linalg.norm`` of one vector does."""
    gen = rng.stream(98, "haar-batch", n)
    singles = []
    for _ in range(100):
        v = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
        singles.append(v / np.linalg.norm(v))
    batched = haar_random_states(100, n, rng.stream(98, "haar-batch", n))
    assert np.array_equal(batched, np.stack(singles))
    one_at_a_time = rng.stream(98, "haar-batch", n)
    assert np.array_equal(np.stack([haar_random_state(n, one_at_a_time) for _ in range(100)]),
                          batched)
