"""Deviation models: Pauli escape combinatorics, tampering, probe analysis."""

from fractions import Fraction

import numpy as np
import pytest

from adbqc import rng
from adbqc.adversary import (
    distinguishability,
    escape_bound,
    escape_counts,
    escape_probability_exact,
    lent_weight_one,
    monte_carlo_z,
    pauli_is_caught,
    probe_gram,
    probe_gram_closed_form,
    simulate_escape,
    simulate_tamper_acceptance,
    tamper_acceptance_exact,
)
from adbqc import adversary
from adbqc.protocols import AdversaryConfig, ProtocolConfig
from adbqc.protocols.driver import apply_attack, new_session, register_label, sample_attack
from adbqc.protocols.traps import thirds_roles
from adbqc.qsim import fidelity_up_to_phase, haar_random_state, haar_random_states, plus_state
from adbqc.transcript import BOB
from helpers import per_probe_gram, zero_state


# ---------------------------------------------------------------------------
# Pauli application (the driver's attack) and the catch predicate


def attacked(amplitudes: np.ndarray, hits) -> np.ndarray:
    """Register qubit 0 in ``amplitudes`` after ``apply_attack`` on a p1 session."""
    session = new_session(ProtocolConfig("p1", 3, 1))
    session.rt.add_qubit(register_label(0), amplitudes, BOB)
    apply_attack(session, hits)
    return session.rt.snapshot([register_label(0)])


def test_apply_attack_examples():
    plus = plus_state(np.pi / 2, 0.0)
    minus = plus_state(np.pi / 2, np.pi)
    flipped = attacked(plus, (("z", 0),))
    assert fidelity_up_to_phase(flipped, minus) == pytest.approx(1.0, abs=1e-12)
    # XZ|0> = X|0> = |1>, and XZ|+> = -|->
    one = attacked(np.array([1, 0], dtype=complex), (("xz", 0),))
    assert abs(one[1]) == pytest.approx(1.0, abs=1e-12)
    y_on_plus = attacked(plus, (("xz", 0),))
    assert fidelity_up_to_phase(y_on_plus, minus) == pytest.approx(1.0, abs=1e-12)
    # Z then X: XZ|+> carries the sign -1 that ZX|+> would not
    assert y_on_plus == pytest.approx(-minus, abs=1e-12)


@pytest.mark.parametrize(
    "kind,role,caught",
    [
        ("x", "compute", False),
        ("x", "zero", True),
        ("x", "one", True),
        ("x", "plus", False),
        ("x", "minus", False),
        ("z", "compute", False),
        ("z", "zero", False),
        ("z", "one", False),
        ("z", "plus", True),
        ("z", "minus", True),
        ("xz", "compute", False),
        ("xz", "zero", True),
        ("xz", "one", True),
        ("xz", "plus", True),
        ("xz", "minus", True),
    ],
)
def test_pauli_is_caught(kind, role, caught):
    assert pauli_is_caught(kind, role) is caught


# ---------------------------------------------------------------------------
# Exact escape combinatorics


def test_escape_counts_spot_values():
    assert escape_counts(9, (3, 0, 0)) == (120, 504)
    assert escape_counts(3, (1, 1, 1)) == (1, 6)
    assert escape_counts(3, (3, 0, 0)) == (0, 6)
    assert escape_counts(9, (0, 0, 0)) == (1, 1)


def test_escape_probability_exact_spot_values():
    assert escape_probability_exact(9, (3, 0, 0)) == Fraction(5, 21)
    assert escape_probability_exact(3, (1, 0, 0)) == Fraction(2, 3)
    assert escape_probability_exact(3, (0, 1, 0)) == Fraction(2, 3)
    assert escape_probability_exact(3, (0, 0, 1)) == Fraction(1, 3)
    assert escape_probability_exact(6, (0, 0, 2)) == Fraction(2, 6 * 5)


def test_escape_counts_validation():
    with pytest.raises(ValueError):
        escape_counts(8, (1, 0, 0))
    with pytest.raises(ValueError):
        escape_counts(3, (2, 2, 0))
    with pytest.raises(ValueError):
        escape_counts(3, (-1, 1, 0))


def test_escape_counts_by_brute_force():
    """Count ordered disjoint placements directly on a 6-slot register."""
    from itertools import permutations

    roles = ["compute"] * 2 + ["zero"] * 2 + ["plus"] * 2
    for counts in [(1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 1, 1), (0, 2, 1), (2, 2, 2)]:
        a, b, c = counts
        k = a + b + c
        good = total = 0
        for pos in permutations(range(6), k):
            total += 1
            kinds = ["x"] * a + ["z"] * b + ["xz"] * c
            caught = any(
                pauli_is_caught(kind, roles[p]) for kind, p in zip(kinds, pos)
            )
            good += 0 if caught else 1
        # same ratio; the helper never counts interleavings within a kind
        want = escape_probability_exact(6, counts)
        assert Fraction(good, total) == want


def test_escape_bound_values():
    assert escape_bound(0) == pytest.approx(1.0)
    assert escape_bound(3) == pytest.approx(2.0 / 3.0)
    assert escape_bound(6) == pytest.approx(4.0 / 9.0)
    with pytest.raises(ValueError):
        escape_bound(-1)


@pytest.mark.parametrize("num_qubits", [3, 6])
def test_bound_dominates_every_exact_rate(num_qubits):
    for a in range(num_qubits + 1):
        for b in range(num_qubits + 1 - a):
            for c in range(num_qubits + 1 - a - b):
                exact = float(escape_probability_exact(num_qubits, (a, b, c)))
                assert exact <= escape_bound(a + b + c) + 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks


def test_simulate_escape_tracks_exact_rate():
    analysis = simulate_escape(9, (3, 0, 0), 4000, rng.stream(400, "mc"))
    assert analysis.trials == 4000
    assert analysis.exact == pytest.approx(5 / 21)
    assert analysis.bound == pytest.approx(2 / 3)
    assert abs(analysis.z_score) <= 4.0


def test_simulate_escape_honest_always_escapes():
    analysis = simulate_escape(3, (0, 0, 0), 50, rng.stream(401, "mc"))
    assert analysis.estimate == 1.0
    assert analysis.z_score == 0.0


def test_monte_carlo_z_is_the_binomial_z_and_zero_without_spread():
    assert monte_carlo_z(0.3, 0.25, 300) == pytest.approx(0.05 / np.sqrt(0.25 * 0.75 / 300))
    assert monte_carlo_z(1.0, 1.0, 10) == 0.0
    assert monte_carlo_z(0.0, 0.0, 10) == 0.0
    analysis = simulate_escape(9, (3, 0, 0), 500, rng.stream(403, "mc"))
    assert analysis.z_score == monte_carlo_z(analysis.estimate, analysis.exact, 500)


@pytest.mark.parametrize("trials", [0, -2])
def test_monte_carlo_refuses_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        simulate_escape(9, (1, 0, 0), trials, rng.stream(404, "mc"))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        simulate_tamper_acceptance(0.5, 4, trials, rng.stream(404, "mc"))


def test_simulate_escape_rejects_overfull_attack():
    with pytest.raises(ValueError):
        simulate_escape(3, (2, 2, 0), 10, rng.stream(402, "mc"))


def test_run_and_monte_carlo_draw_the_same_hits(monkeypatch):
    """A run's stray Paulis (``sample_attack``) and the Monte Carlo's
    (``simulate_escape``) are the same hits when drawn from generators in the
    same state: each trial asks about the run's kinds at the run's roles, in
    order, and both generators end in the same state."""
    counts, trials = (2, 1, 2), 50
    config = ProtocolConfig(
        "p1", 9, 1, seed=406,
        adversary=AdversaryConfig(kind="random_pauli", pauli_counts=counts),
    )
    run_rng = rng.stream(config.seed, "adversary")
    roles = thirds_roles(9)
    expected = [
        (kind, roles[p]) for _ in range(trials) for kind, p in sample_attack(config, run_rng)
    ]
    asked = []
    monkeypatch.setattr(
        adversary, "pauli_is_caught", lambda kind, role: asked.append((kind, role)) or False
    )
    mc_rng = rng.stream(config.seed, "adversary")
    simulate_escape(9, counts, trials, mc_rng)
    assert asked == expected
    assert mc_rng.bit_generator.state == run_rng.bit_generator.state


# ---------------------------------------------------------------------------
# Report tampering


@pytest.mark.parametrize(
    "rate,traps,want",
    [(0.5, 4, 0.0625), (0.3, 3, 0.027), (0.9, 8, 0.43046721), (0.7, 0, 1.0)],
)
def test_tamper_acceptance_exact(rate, traps, want):
    assert tamper_acceptance_exact(rate, traps) == pytest.approx(want, abs=1e-12)


def test_tamper_acceptance_validation():
    """The Monte Carlo refuses what the closed form refuses."""
    for rate, traps in ((1.5, 3), (-0.5, 3), (0.5, -1)):
        with pytest.raises(ValueError, match="tamper rate|trap count"):
            tamper_acceptance_exact(rate, traps)
        with pytest.raises(ValueError, match="tamper rate|trap count"):
            simulate_tamper_acceptance(rate, traps, 10, rng.stream(405, "mc"))


def test_simulate_tamper_acceptance_tracks_exact():
    trials = 10_000
    est = simulate_tamper_acceptance(0.5, 4, trials, rng.stream(403, "mc"))
    exact = 0.0625
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert abs(est - exact) <= 4 * sigma


# ---------------------------------------------------------------------------
# Entangled probes of the lent ancilla


def test_probe_gram_matches_closed_form_on_random_probes():
    """Any joint probe's octant Gram matrix depends only on the |1> weight."""
    for trial in range(25):
        num_qubits = 1 + trial % 3
        lent = trial % num_qubits
        probe = haar_random_state(num_qubits, rng.stream(404, "probe", trial))
        gram = probe_gram(probe, lent)
        want = probe_gram_closed_form(lent_weight_one(probe, lent))
        assert np.max(np.abs(gram - want)) <= 1e-10


@pytest.mark.parametrize("num_qubits, lent", [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)])
def test_batched_probe_grams_equal_per_probe_apply_gate_grams(num_qubits, lent):
    """A batch of probes gets, probe by probe, the Gram matrix that eight
    ``apply_gate`` calls give, and so do its weights and advantages."""
    gen = rng.stream(405, "probe-batch", 3 * num_qubits + lent)
    probes = haar_random_states(20, num_qubits, gen)
    grams = probe_gram(probes, lent)
    assert grams.shape == (20, 8, 8)
    for probe, gram in zip(probes, grams):
        assert np.max(np.abs(gram - per_probe_gram(probe, lent))) <= 1e-12
        assert np.max(np.abs(probe_gram(probe, lent) - per_probe_gram(probe, lent))) <= 1e-12
    weights = lent_weight_one(probes, lent)
    assert weights.tolist() == [lent_weight_one(p, lent) for p in probes]
    assert np.array_equal(probe_gram_closed_form(weights),
                          np.stack([probe_gram_closed_form(w) for w in weights]))
    assert distinguishability(grams).tolist() == [distinguishability(g) for g in grams]


def test_probe_gram_entangled_pair():
    ghz = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    gram = probe_gram(ghz, 0)
    assert lent_weight_one(ghz, 0) == pytest.approx(0.5)
    assert abs(gram[0, 4]) <= 1e-12
    assert gram[0, 2] == pytest.approx((1 + 1j) / 2, abs=1e-12)
    assert distinguishability(gram) == pytest.approx(1.0, abs=1e-12)


def test_probe_gram_product_zero_is_blind():
    probe = zero_state(2)
    gram = probe_gram(probe, 0)
    assert np.max(np.abs(gram - 1.0)) <= 1e-12
    assert distinguishability(gram) == pytest.approx(0.0, abs=1e-9)


def test_lent_weight_one_reads_the_right_qubit():
    # |01>: qubit 0 is 1, qubit 1 is 0 (amplitude index 1)
    state = np.array([0, 1, 0, 0], dtype=complex)
    assert lent_weight_one(state, 0) == pytest.approx(1.0)
    assert lent_weight_one(state, 1) == pytest.approx(0.0)


def test_adjacent_octants_stay_confusable():
    """No |1> weight makes neighbouring angle hypotheses fully separable."""
    for w in np.linspace(0.0, 1.0, 21):
        gram = probe_gram_closed_form(float(w))
        assert abs(gram[0, 1]) >= np.cos(np.pi / 8) - 1e-12


def test_probe_gram_closed_form_validation():
    with pytest.raises(ValueError):
        probe_gram_closed_form(1.5)
    for weights in ([0.2, 1.5], [0.2, float("nan")]):
        with pytest.raises(ValueError, match="must be a probability"):
            probe_gram_closed_form(np.array(weights))
