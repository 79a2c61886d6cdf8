"""Measurement-driven gate gadgets: couplings, back-actions, frames, patterns.

The gadget algebra is checked against explicit matrix identities built with
raw numpy, never against the gadget code itself.
"""

import itertools

import numpy as np
import pytest

from adbqc import gadgets, rng, runtime
from adbqc.gadgets import (
    NAMED_GATE_OCTANTS,
    PauliFrame,
    announced_octant,
    couple,
    cz_on_runtime,
    frame_conjugate,
    h_cancel,
    pattern_unitary,
    sueki_hrz_on_runtime,
)
from adbqc.protocols import GateRequest, ProtocolConfig, run, sueki
from adbqc.protocols.driver import draw_secrets
from adbqc.qsim import (
    CZ_GATE,
    H_GATE,
    X_GATE,
    Z_GATE,
    apply_gate,
    haar_random_state,
    plus_state,
    rz_matrix,
)
from adbqc.runtime import QuantumRuntime, ReplayOutcomes
from adbqc.transcript import BOB, Transcript
from helpers import (
    fidelity_up_to_phase, from_state, hrz_matrix, normalized, octant_angle, rx_matrix,
    zero_state,
)

H = H_GATE
X = X_GATE
Z = Z_GATE
I2 = np.eye(2, dtype=complex)
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def proportional(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    """True when a = phase * b for some unit phase (neither may be zero)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < atol or nb < atol:
        return False
    overlap = np.vdot(b.reshape(-1), a.reshape(-1))
    if abs(overlap) < atol:
        return False
    phase = overlap / abs(overlap)
    return bool(np.allclose(a, phase * (na / nb) * b, atol=atol))


def fresh_runtime(
    state: np.ndarray, outcomes, tape: Transcript | None = None
) -> tuple[QuantumRuntime, list[str]]:
    """A runtime holding ``state`` whose first measurements give ``outcomes``."""
    return from_state(state, ReplayOutcomes(outcomes), BOB, tape)


def announced(rt: QuantumRuntime) -> int:
    """The one octant the client announced on the runtime's recording tape."""
    (octant,) = (ev.payload["theta_octant"] for ev in rt.tape.events
                 if ev.kind == "msg" and "theta_octant" in ev.payload)
    return octant


# ---------------------------------------------------------------------------
# Entangler facts


def test_octant_angle_wraps():
    assert octant_angle(3) == pytest.approx(3 * np.pi / 4)
    assert octant_angle(9) == pytest.approx(np.pi / 4)
    assert octant_angle(-1) == pytest.approx(7 * np.pi / 4)


def test_entangler_on_00():
    plus = plus_state(np.pi / 2, 0.0)
    want = np.kron(plus, plus)
    got = gadgets.ENTANGLER @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(got, want, atol=1e-12)


def test_entangler_on_11_gives_minus_minus():
    minus = plus_state(np.pi / 2, np.pi)
    want = -np.kron(minus, minus)
    got = gadgets.ENTANGLER @ np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# Back-action of one coupling, from raw matrices

ENTANGLER = np.kron(H, H) @ np.diag([1, 1, 1, -1]).astype(complex)
Z_BASIS = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))


def equatorial_basis(phi: float) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.array([1, s * np.exp(1j * phi)]) * INV_SQRT2 for s in (+1, -1))


def hidden_prep(k: int) -> np.ndarray:
    """cos(g/2)|0> + i sin(g/2)|1> with g = k pi/4."""
    gamma = octant_angle(k)
    return np.array([np.cos(gamma / 2), 1j * np.sin(gamma / 2)])


def backaction(prep: np.ndarray, basis) -> list[np.ndarray]:
    """K_m = (<e_m| x I) E (|prep> x I) for one ancilla, the high bit,
    coupled once to one register qubit and found in basis state m."""
    coupled = (ENTANGLER @ np.kron(prep.reshape(2, 1), I2)).reshape(2, 2, 2)
    return [np.tensordot(e.conj(), coupled, axes=1) for e in basis]


# "hhcz" names the one entangler, E = (H x H) CZ
@pytest.mark.parametrize(
    "basis,prep_octant",
    [
        pytest.param(basis, k, id=f"hhcz-{label}-{k}")
        for label, basis in (
            ("z", Z_BASIS), ("x", equatorial_basis(0.0)), ("eq", equatorial_basis(octant_angle(3)))
        )
        for k in range(8)
    ],
)
def test_kraus_completeness(basis, prep_octant):
    """One hidden-rotation ancilla, measured in any basis, is a complete
    measurement on the register: K0^dag K0 + K1^dag K1 = I."""
    k0, k1 = backaction(hidden_prep(prep_octant), basis)
    completeness = k0.conj().T @ k0 + k1.conj().T @ k1
    assert np.abs(completeness - I2).max() < 1e-10


@pytest.mark.parametrize("k", range(8))
def test_kraus_of_hidden_rotation(k):
    """Polar-angle prep with phase pi/2, measured in Z, hides a rotation.

    cos(g/2)|0> + i sin(g/2)|1> gives the unitary branches H R_Z(-g) and
    H R_Z(+g); the fixed pi/2 phase is what makes both outcomes unitary.
    At k = 4 both branches are H R_Z(pi); at k = 3 the outcome-1 branch
    differs from outcome 0 by R_Z(3 pi/2), which no Pauli corrects.
    """
    gamma = octant_angle(k)
    k0, k1 = backaction(hidden_prep(k), Z_BASIS)
    assert proportional(k0, H @ rz_matrix(-gamma))
    assert proportional(k1, H @ rz_matrix(+gamma))


def test_kraus_of_computational_prep_is_deterministic_h():
    k0, k1 = backaction(Z_BASIS[0], Z_BASIS)
    assert proportional(k0, H)
    assert proportional(k1, H)
    completeness = k0.conj().T @ k0 + k1.conj().T @ k1
    assert np.abs(completeness - I2).max() < 1e-12


# ---------------------------------------------------------------------------
# Pauli frame bookkeeping


def pauli_matrix(x: int, z: int) -> np.ndarray:
    return (X if x else I2) @ (Z if z else I2)


def test_frame_matrix_applies_z_before_x():
    frame = PauliFrame((1,), (1,))
    out = frame.matrix_on(normalized([0.0, 1.0]))
    assert np.allclose(out, [-1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "frame,state",
    [(PauliFrame((0, 1), (0, 0)), zero_state(1)), (PauliFrame((1,), (0,)), zero_state(2))],
    ids=["wider-frame", "narrower-frame"],
)
def test_frame_matrix_refuses_a_state_of_another_width(frame, state):
    """A wider frame would drop its X on the missing qubit without a word,
    and a narrower one leave the extra qubits uncorrected."""
    with pytest.raises(ValueError, match="frame on"):
        frame.matrix_on(state)


def test_frame_flips():
    frame = PauliFrame.identity(2).flip_x(0).flip_z(1)
    assert frame.x == (1, 0)
    assert frame.z == (0, 1)


@pytest.mark.parametrize("x", (0, 1))
@pytest.mark.parametrize("z", (0, 1))
@pytest.mark.parametrize("kind", ["hrz"])
def test_frame_conjugation_matches_matrix_identity(x, z, kind):
    """gate . frame = frame' . gate' as matrices, up to global phase."""
    theta = 0.93
    gate = hrz_matrix(theta)
    frame = PauliFrame((x,), (z,))
    new_frame, sign = frame_conjugate(frame, kind, (0,))
    new_gate = hrz_matrix(sign * theta)
    lhs = gate @ pauli_matrix(x, z)
    rhs = pauli_matrix(new_frame.x[0], new_frame.z[0]) @ new_gate
    assert proportional(lhs, rhs)


@pytest.mark.parametrize("bits", range(16))
def test_cz_frame_conjugation(bits):
    x0, z0, x1, z1 = ((bits >> i) & 1 for i in range(4))
    frame = PauliFrame((x0, x1), (z0, z1))
    new_frame, sign = frame_conjugate(frame, "cz", (0, 1))
    assert sign == +1
    assert new_frame.x == frame.x
    assert new_frame.z == (z0 ^ x1, z1 ^ x0)
    cz = CZ_GATE
    before = np.kron(pauli_matrix(x1, z1), pauli_matrix(x0, z0))
    after = np.kron(
        pauli_matrix(new_frame.x[1], new_frame.z[1]),
        pauli_matrix(new_frame.x[0], new_frame.z[0]),
    )
    assert proportional(cz @ before, after @ cz)


def test_frame_conjugate_rejects_unknown_gate():
    for kind in ("swap", "h"):
        with pytest.raises(ValueError):
            frame_conjugate(PauliFrame.identity(1), kind, (0,))


def test_hrz_byproduct_identity():
    """H R_Z(theta + pi) = X H R_Z(theta), the outcome-1 correction rule."""
    for k in range(8):
        theta = octant_angle(k)
        lhs = hrz_matrix(theta + np.pi)
        rhs = X @ hrz_matrix(theta)
        assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# The prepare-only H R_Z gadget


def test_announced_octant_spot_value():
    assert announced_octant(1, 0, 0, 0) == 7


@pytest.mark.parametrize("trial", range(30))
def test_announced_octant_formula(trial):
    gen = rng.stream(150, "announce", trial)
    target, hide = int(gen.integers(8)), int(gen.integers(8))
    pad, s1 = int(gen.integers(2)), int(gen.integers(2))
    s1_sign = -1 if s1 else +1
    want = (-target - s1_sign * (hide + 4 * pad)) % 8
    assert announced_octant(target, hide, pad, s1) == want


@pytest.mark.parametrize("trial", range(16))
def test_draw_sueki_secrets_folds_its_mirror_coin(trial):
    """Three draws, in order: hiding octant, pad bit, and a coin that mirrors
    the octant. The golden runs and the pinned run outputs were drawn so."""
    raw = rng.stream(153, "sueki-draws", trial)
    hiding, pad, mirror = int(raw.integers(8)), int(raw.integers(2)), int(raw.integers(2))
    gen = rng.stream(153, "sueki-draws", trial)
    got = draw_secrets(sueki, gen)
    cause = "the prepare-only client must draw octant, pad and mirror coin and fold the coin in"
    assert got == ((-hiding if mirror else hiding) % 8, pad), cause
    assert gen.integers(1 << 30) == raw.integers(1 << 30), cause


def test_announced_octant_covers_octants_two_to_one():
    for target in range(8):
        seen = [announced_octant(target, h, p, 0) for h in range(8) for p in (0, 1)]
        assert sorted(seen) == [k for k in range(8) for _ in range(2)]


@pytest.mark.parametrize("octant", range(8))
@pytest.mark.parametrize("coin_pair", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_sueki_gadget_soundness(octant, coin_pair):
    """Every realized branch equals H R_Z(k pi/4) after the frame correction."""
    state = haar_random_state(1, rng.stream(151, "sueki-state", octant))
    rt, labels = fresh_runtime(state, coin_pair, Transcript())
    x = sueki_hrz_on_runtime(rt, labels[0], octant, hiding_octant=3, pad_bit=1)
    assert announced(rt) == announced_octant(octant, 3, 1, rt.outcomes.bits[0])
    corrected = PauliFrame((x,), (0,)).matrix_on(rt.snapshot(labels))
    want = apply_gate(state, hrz_matrix(octant_angle(octant)), [0])
    assert fidelity_up_to_phase(corrected, want) == pytest.approx(1.0, abs=1e-9)


def test_sueki_gadget_branch_weights_on_zero_input():
    """Hiding octant 2 makes all four outcome branches weight 1/4."""
    for outcomes in itertools.product((0, 1), repeat=2):
        rt, labels = fresh_runtime(zero_state(1), outcomes)
        sueki_hrz_on_runtime(rt, labels[0], 0, hiding_octant=2, pad_bit=0)
        assert rt.outcomes.path_probability() == pytest.approx(0.25, abs=1e-12)


def test_sueki_gadget_prep_sign_branches():
    """A mirrored preparation sign is the mirrored hiding octant: sign -1 at
    hiding octant 6 is hiding octant 2."""
    state = haar_random_state(1, rng.stream(152, "sueki-sign"))
    for outcomes in ((0, 0), (1, 1)):
        rt, labels = fresh_runtime(state, outcomes, Transcript())
        x = sueki_hrz_on_runtime(rt, labels[0], 5, hiding_octant=2, pad_bit=0)
        assert announced(rt) == announced_octant(5, 2, 0, rt.outcomes.bits[0])
        corrected = PauliFrame((x,), (0,)).matrix_on(rt.snapshot(labels))
        want = apply_gate(state, hrz_matrix(octant_angle(5)), [0])
        assert fidelity_up_to_phase(corrected, want) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# The CZ gadget


@pytest.mark.parametrize("coin", [0.25, 0.75])
def test_cz_gadget_soundness(coin):
    state = haar_random_state(2, rng.stream(153, "cz-state"))
    # the outcome a uniform draw ``coin`` picks on the gadget's fair branch
    rt, labels = fresh_runtime(state, (int(coin >= 0.5),))
    s = cz_on_runtime(rt, labels[0], labels[1])
    corrected = PauliFrame((0, 0), (s, 0)).matrix_on(rt.snapshot(labels))
    want = apply_gate(state, CZ_GATE, [0, 1])
    assert fidelity_up_to_phase(corrected, want) == pytest.approx(1.0, abs=1e-9)


def test_cz_gadget_outcome_is_fair_coin():
    state = haar_random_state(2, rng.stream(154, "cz-prob"))
    for want in (0, 1):
        rt, labels = fresh_runtime(state, (want,))
        assert cz_on_runtime(rt, labels[0], labels[1]) == want
        assert rt.outcomes.path_probability() == pytest.approx(0.5, abs=1e-12)


def test_h_cancel_is_deterministic():
    state = haar_random_state(1, rng.stream(155, "hcancel"))
    rt, labels = fresh_runtime(state, ())
    h_cancel(rt, labels[0], "anc")
    assert rt.outcomes.path_probability() == pytest.approx(1.0)
    want = apply_gate(state, H_GATE, [0])
    assert fidelity_up_to_phase(rt.snapshot(labels), want) == pytest.approx(1.0, abs=1e-12)


def test_entangled_discard_is_rejected():
    """A |+> ancilla coupled to a |+> register qubit is entangled with it:
    the runtime refuses to discard it or to split the register off."""
    rt, labels = fresh_runtime(normalized([1.0, 1.0]), ())
    rt.add_qubit("anc", np.array([INV_SQRT2, INV_SQRT2], dtype=complex), BOB)
    couple(rt, "anc", labels[0])
    with pytest.raises(ValueError, match="entangled"):
        rt.discard("anc")
    with pytest.raises(ValueError, match="entangled"):
        rt.snapshot(labels)


# ---------------------------------------------------------------------------
# Named gates and octant patterns


def named_matrix(name: str) -> np.ndarray:
    table = {
        "i": I2,
        "h": H,
        "x": X,
        "z": Z,
        "s": rz_matrix(np.pi / 2),
        "t": rz_matrix(np.pi / 4),
        "hx": H @ X,
    }
    return table[name]


@pytest.mark.parametrize("trial", range(20))
def test_pattern_unitary_matches_euler_product(trial):
    gen = rng.stream(157, "pattern", trial)
    kb, kg, kd = (int(gen.integers(8)) for _ in range(3))
    got = pattern_unitary((kb, kg, kd))
    want = (
        np.exp(1j * octant_angle(kg) / 2)
        * rz_matrix(octant_angle(kb))
        @ rx_matrix(octant_angle(kg))
        @ rz_matrix(octant_angle(kd))
    )
    assert np.allclose(got, want, atol=1e-12)


def multiplied_pattern(octants) -> np.ndarray:
    """The pattern's product as written out per call: H R_Z at octants d, g,
    b and 0, in turn, on the identity, each H R_Z from its formula."""
    kb, kg, kd = octants
    m = np.eye(2, dtype=complex)
    for k in (kd, kg, kb, 0):
        m = hrz_matrix(octant_angle(k)) @ m
    return m


def test_pattern_unitary_is_the_product_bit_for_bit():
    for octants in itertools.product(range(8), repeat=3):
        assert (pattern_unitary(octants) == multiplied_pattern(octants)).all(), octants


def test_pattern_unitary_shares_one_read_only_entry_per_triple_mod_8():
    for octants in itertools.product(range(8), repeat=3):
        m = pattern_unitary(octants)
        assert not m.flags.writeable, octants
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0
        for shift in (8, 16, -8):
            assert pattern_unitary(tuple(k + shift for k in octants)) is m
    assert len(gadgets._PATTERNS) == 512


@pytest.mark.parametrize("name", sorted(NAMED_GATE_OCTANTS))
def test_pattern_unitary_realizes_named_gates(name):
    got = pattern_unitary(NAMED_GATE_OCTANTS[name])
    assert proportional(got, named_matrix(name))


@pytest.mark.parametrize(
    "protocol, num_qubits, traps", [("p2", 13, 6), ("p1", 12, None), ("sueki", 12, None)]
)
def test_one_cz_run_never_applies_a_gate_to_more_than_eight_amplitudes(
    protocol, num_qubits, traps, monkeypatch
):
    """Each gadget acts on its targets' factor, not the whole register: with
    one CZ the widest factor a gate meets is the two CZ targets and one
    ancilla, whatever the register's width."""
    lengths = []
    kernel = runtime._apply_matrix

    def recording(amps, *args):
        lengths.append(amps.shape[0])
        return kernel(amps, *args)

    monkeypatch.setattr(runtime, "_apply_matrix", recording)
    config = ProtocolConfig(protocol, num_qubits, 1, trap_count=traps, seed=3,
                            algorithm=(GateRequest.cz_pair(0, 1),))
    assert run(config).report.accepted
    assert max(lengths) == 8
