"""Measure-only client protocol: gadget algebra, traps, attacks, decoding."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from adbqc import rng
from adbqc.adversary import escape_counts
from adbqc.blindness import confirm_capability
from adbqc.gadgets import PauliFrame, couple
from adbqc.protocols import (
    AdversaryConfig,
    GateRequest,
    ProtocolConfig,
    TrapLayout,
    decode_output,
    measure_client,
    place_traps,
    run_protocol1,
)
from adbqc.protocols.measure_client import (
    classify_angle,
    p1_hrz_on_runtime,
    solve_phase_choice,
)
from adbqc.qsim import (
    X_BASIS,
    Z_BASIS,
    apply_gate,
    haar_random_state,
    plus_state,
    trace_distance,
)
from adbqc.runtime import QuantumRuntime, ReplayOutcomes, enumerate_runs
from adbqc.transcript import ALICE, BOB, Transcript
from helpers import (
    client_to_server_traffic, fidelity_up_to_phase, from_state, hrz_matrix, octant_angle,
    sampled_distribution, zero_state,
)


# ---------------------------------------------------------------------------
# Case split and phase choices


@pytest.mark.parametrize("octant,case", [(0, "a"), (1, "b"), (2, "a"), (5, "b"), (6, "a")])
def test_classify_angle(octant, case):
    assert classify_angle(octant) == case


@pytest.mark.parametrize("case,bit", [("a", 0), ("a", 1), ("b", 0), ("b", 1)])
def test_phase_choices_sweep_the_case_octants(case, bit):
    """The four (f, rho) pairs reach each admissible octant exactly once."""
    targets = (0, 2, 4, 6) if case == "a" else (1, 3, 5, 7)
    seen = {}
    for octant in targets:
        f, rho = solve_phase_choice(octant, case, bit)
        assert f in (0, 1) and rho in (0, 1)
        sign = 1 if bit == 0 else -1
        if case == "a":
            assert (-sign * 2 * f + 4 * rho) % 8 == octant
        else:
            assert (sign * (1 - 2 * f) + 4 * rho) % 8 == octant
        seen[(f, rho)] = octant
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# Single-gadget soundness


@pytest.mark.parametrize("octant", range(8))
def test_gadget_soundness_all_branches(octant):
    """Frame-corrected output equals H R_Z(k pi/4) on every outcome path."""
    state = haar_random_state(1, rng.stream(200, "p1-state", octant))
    want = apply_gate(state, hrz_matrix(octant_angle(octant)), [0])
    for bits in itertools.product((0, 1), repeat=3):
        rt, labels = from_state(state, ReplayOutcomes(bits), BOB, Transcript())
        delta = p1_hrz_on_runtime(rt, labels[0], octant)
        outcomes = [ev for ev in rt.tape.events if ev.kind == "outcome" and ev.party == ALICE]
        assert len(outcomes) == 3
        corrected = PauliFrame((delta,), (0,)).matrix_on(rt.snapshot(labels))
        assert fidelity_up_to_phase(corrected, want) == pytest.approx(1.0, abs=1e-9)


def kept_halves_before_coupling(monkeypatch) -> list:
    """Each Bell half the server keeps, snapshotted just before it couples
    the half to the target, in the step's order."""
    kept_states = []

    def snapshotting(rt, kept, target):
        kept_states.append(rt.snapshot([kept]))
        couple(rt, kept, target)

    monkeypatch.setattr(measure_client, "couple", snapshotting)
    return kept_states


def test_first_bell_half_becomes_z_padded_plus(monkeypatch):
    """Case b: after the client's X measurement the kept half is Z^a |+>."""
    kept_states = kept_halves_before_coupling(monkeypatch)
    for a_bit in (0, 1):
        rt = QuantumRuntime(ReplayOutcomes((a_bit,)))
        rt.load(zero_state(1), ["r0"], BOB)
        p1_hrz_on_runtime(rt, "r0", 1)
        want = plus_state(np.pi / 2, 0.0 if a_bit == 0 else np.pi)
        assert fidelity_up_to_phase(kept_states[0], want) == pytest.approx(1.0, abs=1e-12)
        kept_states.clear()


def test_case_a_first_bell_half_collapses_computationally(monkeypatch):
    kept_states = kept_halves_before_coupling(monkeypatch)
    for a_bit in (0, 1):
        rt = QuantumRuntime(ReplayOutcomes((a_bit,)))
        rt.load(zero_state(1), ["r0"], BOB)
        p1_hrz_on_runtime(rt, "r0", 2)
        want = np.array([1.0 - a_bit, float(a_bit)], dtype=complex)
        assert fidelity_up_to_phase(kept_states[0], want) == pytest.approx(1.0, abs=1e-12)
        kept_states.clear()


def test_client_discard_leaves_server_density_unchanged():
    """The undriven ancilla factors out, so discarding it is invisible."""
    state = haar_random_state(1, rng.stream(201, "p1-discard"))
    rt = QuantumRuntime(ReplayOutcomes((0, 1, 0)))
    rt.load(state, ["r0"], BOB)
    discard, around = rt.discard, {}

    def watched(label: str) -> None:
        before = rt.density_of(BOB)
        discard(label)
        around[label] = (before, rt.density_of(BOB))

    rt.discard = watched
    p1_hrz_on_runtime(rt, "r0", 2)
    # e1, the first segment's kept half, which the client holds when it drops it
    assert trace_distance(*around["e1"]) <= 1e-10


# ---------------------------------------------------------------------------
# Exhaustive gadget compositions


def run_composition(source, octant_seq, out_basis="z"):
    """Drive a chain of rotations on one qubit, frame-tracked, then read out."""
    rt = QuantumRuntime(source)
    rt.load(zero_state(1), ["r0"], BOB)
    x = z = 0
    for k in octant_seq:
        k_eff = k if x == 0 else (-k) % 8
        delta = p1_hrz_on_runtime(rt, "r0", k_eff)
        x, z = delta ^ z, x
    basis = Z_BASIS if out_basis == "z" else X_BASIS
    bit, _ = rt.measure("r0", basis)
    return bit ^ (x if out_basis == "z" else z)


@pytest.mark.parametrize("octant", range(8))
def test_two_gadget_composition_reproduces_born_weights(octant):
    """H R_Z(k pi/4) H |0> in the Z basis: P(0) = cos^2(k pi/8), exactly."""
    dist = {0: 0.0, 1: 0.0}
    for branch in enumerate_runs(lambda src: run_composition(src, (0, octant))):
        dist[branch.value] += branch.probability
    want0 = float(np.cos(octant * np.pi / 8) ** 2)
    assert dist[0] == pytest.approx(want0, abs=1e-9)
    assert dist[0] + dist[1] == pytest.approx(1.0, abs=1e-9)


def test_single_gadget_x_basis_is_deterministic():
    """One rotation makes |+> up to frame, so the X readout decodes to 0."""
    for branch in enumerate_runs(lambda src: run_composition(src, (0,), "x")):
        assert branch.value == 0


# ---------------------------------------------------------------------------
# Trap layouts and decoding


def test_p1_layout_uses_equal_thirds():
    layout = place_traps(3, 2, "p1", rng.stream(202, "layout"))
    assert sorted(layout.roles) == ["compute", "plus", "zero"]
    assert layout.trap_slots == (1, 2)
    layout9 = place_traps(9, 6, "p1", rng.stream(202, "layout", 1))
    assert layout9.roles.count("compute") == 3
    assert layout9.roles.count("zero") == 3
    assert layout9.roles.count("plus") == 3


def test_p1_layout_validation():
    with pytest.raises(ValueError, match="divisible by 3"):
        place_traps(4, 2, "p1", rng.stream(203, "layout"))
    with pytest.raises(ValueError, match="2N/3 traps"):
        place_traps(9, 3, "p1", rng.stream(203, "layout"))
    with pytest.raises(ValueError):
        place_traps(3, 2, "teleport", rng.stream(203, "layout"))


def test_layout_permutation_is_uniform():
    """The logical qubit lands on each physical position a third of the time."""
    trials = 900
    counts = [0, 0, 0]
    for t in range(trials):
        layout = place_traps(3, 2, "p1", rng.stream(204, "layout-sweep", t))
        counts[layout.position_of_logical(0)] += 1
    sigma = np.sqrt(trials * (1 / 3) * (2 / 3))
    for c in counts:
        assert abs(c - trials / 3) <= 4 * sigma


def role_at(layout: TrapLayout, pos: int) -> str:
    return layout.roles[layout.permutation.index(pos)]


def test_layout_accessors():
    layout = TrapLayout(3, (2, 0, 1), ("compute", "zero", "plus"))
    assert layout.compute_slots == (0,)
    assert layout.position_of_logical(0) == 2
    assert [role_at(layout, pos) for pos in (0, 1)] == ["zero", "plus"]
    assert layout.basis_plan(("x",)) == ("z", "x", "x")


def test_layout_validation():
    with pytest.raises(ValueError):
        TrapLayout(3, (0, 0, 1), ("compute", "zero", "plus"))
    with pytest.raises(ValueError):
        TrapLayout(3, (0, 1, 2), ("compute", "zero"))
    with pytest.raises(ValueError):
        TrapLayout(3, (0, 1, 2), ("compute", "zero", "spooky"))


def test_decode_output_flags_trap_mismatches():
    layout = TrapLayout(3, (2, 0, 1), ("compute", "zero", "plus"))
    bases = layout.basis_plan(("z",))
    clean = decode_output((0, 0, 1), bases, PauliFrame.identity(3), layout)
    assert clean.computation_bits == (1,)
    assert clean.trap_errors == 0
    assert clean.trap_total == 2
    # a pending X on position 0 flips the Z-basis zero trap there
    framed = decode_output((0, 0, 1), bases, PauliFrame((1, 0, 0), (0, 0, 0)), layout)
    assert framed.trap_errors == 1
    assert framed.failed_positions == (0,)
    # X-basis traps ignore pending X but catch pending Z
    zed = decode_output((0, 0, 1), bases, PauliFrame((0, 0, 0), (0, 1, 0)), layout)
    assert zed.trap_errors == 1
    assert zed.failed_positions == (1,)
    with pytest.raises(ValueError):
        decode_output((0, 0, 1), ("z", "z", "z"), PauliFrame.identity(3), layout)


# ---------------------------------------------------------------------------
# Full runs


def p1_config(seed=0, qubits=3, algorithm=(), **kw) -> ProtocolConfig:
    return ProtocolConfig("p1", qubits, 1, seed=seed, algorithm=tuple(algorithm), **kw)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_honest_identity_run(seed):
    res = run_protocol1(p1_config(seed=seed))
    assert res.report.accepted
    assert res.report.trap_errors == 0
    assert res.report.trap_total == 2
    assert res.report.computation_bits == (0,)
    assert res.attack_hits == ()


def test_client_sends_nothing_to_the_server():
    """Zero classical messages and zero qubit transfers flow client to server."""
    res = run_protocol1(p1_config(seed=7, algorithm=[GateRequest.single(0, name="t")]))
    assert client_to_server_traffic(res.transcript) == (0, 0)
    audit = confirm_capability(res.transcript, "measure_only")
    assert audit.passed


def test_trap_total_scales_with_width():
    res = run_protocol1(p1_config(seed=3, qubits=9))
    assert res.report.trap_total == 6
    assert len(res.report.computation_bits) == 3


def test_sampled_h_distribution_matches_reference():
    config = p1_config(seed=11, algorithm=[GateRequest.single(0, name="h")])
    trials = 250
    dist = sampled_distribution(run_protocol1, config, trials)
    sigma = np.sqrt(0.25 / trials)
    assert abs(dist.get((0,), 0.0) - 0.5) <= 4 * sigma


# ---------------------------------------------------------------------------
# Attacks on the handover


@pytest.mark.parametrize("kind,expected_escapes", [("x", 2), ("z", 2), ("xz", 1)])
def test_forced_single_pauli_exhaustive(kind, expected_escapes):
    """Sweeping one error over all three positions matches the trap algebra."""
    escapes = 0
    counts = {"x": (1, 0, 0), "z": (0, 1, 0), "xz": (0, 0, 1)}[kind]
    for pos in range(3):
        adv = AdversaryConfig(
            kind="random_pauli", pauli_counts=counts, pauli_positions=((kind, pos),)
        )
        res = run_protocol1(p1_config(seed=31, adversary=adv))
        role = role_at(res.layout, pos)
        assert res.attack_hits == ((kind, pos),)
        # Z-basis zero traps flag bit flips, X-basis plus traps flag phase flips.
        caught = ("x" in kind and role == "zero") or ("z" in kind and role == "plus")
        assert res.report.accepted == (not caught)
        escapes += int(res.report.accepted)
    assert escapes == expected_escapes
    assert Fraction(*escape_counts(3, counts)) == Fraction(expected_escapes, 3)


def test_single_x_on_nine_positions_escapes_two_thirds():
    """Exhaustive positions: exactly the three |0> traps catch a stray X."""
    rejections = 0
    for pos in range(9):
        adv = AdversaryConfig(
            kind="random_pauli", pauli_counts=(1, 0, 0), pauli_positions=(("x", pos),)
        )
        res = run_protocol1(p1_config(seed=13, qubits=9, adversary=adv))
        rejections += int(not res.report.accepted)
    assert rejections == 3


def test_uniform_pauli_attack_matches_exact_rate():
    """Quantum runs agree with the placement combinatorics at 250 trials."""
    exact = float(Fraction(*escape_counts(9, (3, 0, 0))))
    adv = AdversaryConfig(kind="random_pauli", pauli_counts=(3, 0, 0))
    trials = 250
    escaped = 0
    base = p1_config(seed=0, qubits=9, adversary=adv, record_transcript=False)
    for t in range(trials):
        res = run_protocol1(base.with_seed(1000 + t))
        escaped += int(res.report.accepted)
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert abs(escaped / trials - exact) <= 4 * sigma


def test_wrong_protocol_config_rejected():
    with pytest.raises(ValueError):
        run_protocol1(ProtocolConfig("sueki", 1, 1))
