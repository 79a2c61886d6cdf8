"""Deviation models: Pauli escape combinatorics, tampering, probe analysis,
and both deviations' exact rates on the protocol itself."""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from adbqc import rng
from adbqc.adversary import (
    distinguishability,
    escape_bound,
    escape_counts,
    exact_escape,
    lent_weight_one,
    probe_gram,
    probe_gram_closed_form,
    tamper_acceptance_exact,
)
from adbqc import adversary
from adbqc.protocols import AdversaryConfig, GateRequest, ProtocolConfig, run
from adbqc.protocols import driver
from adbqc.protocols.driver import apply_attack, new_session, register_label
from adbqc.protocols.traps import TRAP_STATES, reading_flip
from adbqc.qsim import BRANCH_BUDGET, PROBABILITY_SLACK
from adbqc.qsim import haar_random_state, haar_random_states, plus_state
from adbqc.transcript import BOB
from helpers import fidelity_up_to_phase, per_probe_gram, zero_state


# ---------------------------------------------------------------------------
# Pauli application (the driver's attack) and what catches it


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
    """One ``kind`` hit on a position of ``role``, applied to a p2 run's own
    register before its output stage, is rejected on every output path
    exactly when the role is a trap whose reading the hit flips."""
    for seed in itertools.count():
        session, plan = driver.walk_run(ProtocolConfig("p2", 2, 1, trap_count=1, seed=seed))
        if role in plan.layout.roles:
            break
    pos = plan.layout.permutation[plan.layout.roles.index(role)]
    branches = driver.enumerate_output(session, plan._replace(hits=((kind, pos),)))
    assert {br.value.trap_errors > 0 for br in branches} == {caught}


# ---------------------------------------------------------------------------
# Exact escape combinatorics


def test_escape_counts_spot_values():
    assert escape_counts(9, (3, 0, 0)) == (120, 504)
    assert escape_counts(3, (1, 1, 1)) == (1, 6)
    assert escape_counts(3, (3, 0, 0)) == (0, 6)
    assert escape_counts(9, (0, 0, 0)) == (1, 1)


def test_escape_probability_exact_spot_values():
    assert Fraction(*escape_counts(9, (3, 0, 0))) == Fraction(5, 21)
    assert Fraction(*escape_counts(3, (1, 0, 0))) == Fraction(2, 3)
    assert Fraction(*escape_counts(3, (0, 1, 0))) == Fraction(2, 3)
    assert Fraction(*escape_counts(3, (0, 0, 1))) == Fraction(1, 3)
    assert Fraction(*escape_counts(6, (0, 0, 2))) == Fraction(2, 6 * 5)


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
                roles[p] != "compute"
                and reading_flip(TRAP_STATES[roles[p]][0], "x" in kind, "z" in kind)
                for kind, p in zip(kinds, pos)
            )
            good += 0 if caught else 1
        assert (good, total) == escape_counts(6, counts)


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
                exact = Fraction(*escape_counts(num_qubits, (a, b, c)))
                assert exact <= escape_bound(a + b + c) + PROBABILITY_SLACK


# ---------------------------------------------------------------------------
# Report tampering


@pytest.mark.parametrize(
    "rate,traps,want",
    [(0.5, 4, 0.0625), (0.3, 3, 0.027), (0.9, 8, 0.43046721), (0.7, 0, 1.0)],
)
def test_tamper_acceptance_exact(rate, traps, want):
    assert tamper_acceptance_exact(rate, traps) == pytest.approx(want, abs=1e-12)


def test_tamper_acceptance_validation():
    for rate, traps in ((1.5, 3), (-0.5, 3), (0.5, -1)):
        with pytest.raises(ValueError, match="tamper rate|trap count"):
            tamper_acceptance_exact(rate, traps)


# ---------------------------------------------------------------------------
# Exact rates on the protocol itself


def pauli(num_qubits: int, depth: int, counts, **fields) -> ProtocolConfig:
    adv = AdversaryConfig(kind="random_pauli", pauli_counts=counts)
    return ProtocolConfig("p1", num_qubits, depth, adversary=adv, **fields)


def tamper(num_qubits: int, traps: int, rate: float, **fields) -> ProtocolConfig:
    adv = AdversaryConfig(kind="trap_tamper", tamper_rate=rate)
    return ProtocolConfig("p2", num_qubits, 1, trap_count=traps, adversary=adv, **fields)


X_THEN_CZ = (GateRequest.single(0, name="x"), GateRequest.cz_pair(0, 1))


@pytest.mark.parametrize(
    "num_qubits,depth,algorithm", [(3, 1, ()), (6, 2, X_THEN_CZ)], ids=["N3", "N6"]
)
def test_exact_escape_equals_the_closed_form(num_qubits, depth, algorithm):
    """Every count of at most three stray Paulis, over every ordered placement
    the run can draw, is accepted as often as the equal-thirds combinatorics say."""
    for a, b, c in itertools.product(range(4), repeat=3):
        if a + b + c <= 3:
            config = pauli(num_qubits, depth, (a, b, c), algorithm=algorithm)
            accept, _ = exact_escape(config)
            want = Fraction(*escape_counts(num_qubits, (a, b, c)))
            assert abs(accept - want) <= PROBABILITY_SLACK, (a, b, c)


@pytest.mark.parametrize(
    "counts,accept,wrong",
    [
        ((1, 0, 0), Fraction(2, 3), Fraction(1, 3)),
        ((0, 1, 0), Fraction(2, 3), 0),
        ((0, 0, 1), Fraction(1, 3), Fraction(1, 3)),
        ((3, 0, 0), Fraction(1, 5), Fraction(1, 5)),
    ],
)
def test_exact_escape_pins_accepted_and_wrong(counts, accept, wrong):
    """On p1 N=6 the equal thirds are symmetric under swapping X with Z, so
    P(accept) alone cannot tell them apart; P(accept and wrong) can: an X on
    a computation slot flips its Z reading, a Z does not."""
    got = exact_escape(pauli(6, 2, counts, algorithm=X_THEN_CZ))
    assert got == pytest.approx((accept, wrong), abs=PROBABILITY_SLACK)


def test_exact_escape_tamper_on_p2():
    """Two traps at rate 0.7 pass with 0.7^2; a flip of either computation
    bit leaves the output wrong."""
    config = tamper(4, 2, 0.7, output_bases=("x", "z"),
                    algorithm=(GateRequest.single(0, name="h"),))
    accept, wrong = exact_escape(config)
    assert accept == pytest.approx(0.49, abs=1e-12)
    assert wrong == pytest.approx(0.49 * (1 - 0.7**2), abs=1e-12)


@pytest.mark.parametrize("traps,rate", [(1, 0.7), (4, 0.5), (3, 0.0), (3, 1.0)])
def test_exact_escape_tamper_matches_closed_form(traps, rate):
    accept, wrong = exact_escape(tamper(traps + 1, traps, rate))
    assert abs(accept - tamper_acceptance_exact(rate, traps)) <= PROBABILITY_SLACK
    assert abs(wrong - rate**traps * (1 - rate)) <= PROBABILITY_SLACK


@pytest.mark.parametrize(
    "config",
    [ProtocolConfig("sueki", 2, 1), ProtocolConfig("p1", 6, 2, algorithm=X_THEN_CZ),
     ProtocolConfig("p2", 3, 1, trap_count=2)],
    ids=["sueki", "p1", "p2"],
)
def test_exact_escape_honest_always_accepts(config):
    assert exact_escape(config) == pytest.approx((1.0, 0.0), abs=PROBABILITY_SLACK)


def test_exact_escape_is_the_same_on_every_layout():
    """Each of p1 N=3's six trap layouts (found among seeds) gives the
    closed form, so their average does too: the symmetry the closed form
    assumes, and one that an attacker who locates the traps breaks."""
    for counts in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]:
        by_layout = {}
        for seed in itertools.count():
            config = pauli(3, 1, counts, seed=seed)
            layout = driver.draw_plan(config).layout
            if layout not in by_layout:
                by_layout[layout] = exact_escape(config)[0]
            if len(by_layout) == 6:
                break
        want = Fraction(*escape_counts(3, counts))
        average = sum(by_layout.values()) / 6
        assert abs(average - want) <= PROBABILITY_SLACK
        assert all(abs(v - average) <= PROBABILITY_SLACK for v in by_layout.values())


def test_exact_escape_takes_fixed_positions_as_one_placement():
    """One fixed X is accepted with certainty, wrongly on a computation slot,
    unless it lands on a |0> trap, which rejects it with certainty."""
    layout = driver.draw_plan(ProtocolConfig("p1", 6, 2, algorithm=X_THEN_CZ)).layout
    for slot, role in enumerate(layout.roles):
        hit = ("x", layout.permutation[slot])
        adv = AdversaryConfig(kind="random_pauli", pauli_positions=(hit,))
        config = ProtocolConfig("p1", 6, 2, algorithm=X_THEN_CZ, adversary=adv)
        want = {"compute": (1.0, 1.0), "zero": (0.0, 0.0), "plus": (1.0, 0.0)}[role]
        assert exact_escape(config) == pytest.approx(want, abs=PROBABILITY_SLACK)


def test_run_draws_only_enumerated_hits(monkeypatch):
    """``exact_escape`` enumerates exactly the hits a run draws: on p1 N=3
    with one X and one Z, every ``draw_plan`` over seeds 0..199 draws one of
    its six ordered placements, and all six occur."""
    enumerated = []
    real = adversary.enumerate_output
    monkeypatch.setattr(
        adversary, "enumerate_output",
        lambda session, plan: enumerated.append(plan.hits) or real(session, plan),
    )
    config = pauli(3, 1, (1, 1, 0))
    exact_escape(config)
    honest, *placements = enumerated
    assert honest == () and len(set(placements)) == len(placements) == 6
    drawn = {driver.draw_plan(config.with_seed(seed)).hits for seed in range(200)}
    assert drawn == set(placements)


def test_exact_escape_refuses_an_undetermined_honest_output():
    config = pauli(3, 1, (1, 0, 0), algorithm=(GateRequest.single(0, name="h"),))
    with pytest.raises(ValueError, match="not deterministic"):
        exact_escape(config)


def test_overfull_attack_is_refused_before_any_run():
    """More stray Paulis than positions: the config refuses it, so neither a
    run nor ``exact_escape`` ever draws from ``pauli_hits`` short of positions."""
    with pytest.raises(ValueError, match="more Pauli errors than output positions"):
        pauli(3, 1, (2, 2, 0))


def test_exact_escape_refuses_more_placements_than_the_budget(monkeypatch):
    """Refused before the walk: 12 * 11 * 10 * 9 * 8 ordered placements of five X."""
    assert 12 * 11 * 10 * 9 * 8 > BRANCH_BUDGET
    monkeypatch.setattr(adversary, "walk_run", lambda config: pytest.fail("walked"))
    with pytest.raises(ValueError, match="budget"):
        exact_escape(pauli(12, 1, (5, 0, 0)))


# ---------------------------------------------------------------------------
# The located attacker: the server reads the computation's positions off its
# own record. These tests pin the leak as it stands; once the register's
# entangling pattern and output bases are hidden (ROADMAP item 2(b)/(c)),
# the first is re-pinned to the closed form's P(accept) = 2/3 and the second
# finds traps and computation positions among both bases.

LEAK_SEEDS = range(100)


def labelled_positions(num_qubits: int) -> dict[str, int]:
    return {register_label(pos): pos for pos in range(num_qubits)}


def located_position(config: ProtocolConfig) -> int:
    """The attacker's one X: the lower register position a ``c`` ancilla (the
    CZ gadget's, or one cancelling its Hadamards) is coupled to, as the
    server's own events of an honest run show it."""
    positions = labelled_positions(config.num_qubits)
    coupled = {
        positions[ev.payload["qubits"][1]]
        for ev in run(config).transcript.bob_events()
        if ev.payload.get("op") == "couple" and ev.payload["qubits"][0].startswith("c")
    }
    return min(coupled)


def test_the_located_attacker_always_escapes_and_always_corrupts():
    """On p1 N=6 d=2 running X(0), CZ(0,1), the CZ graph names both
    computation positions: the position the server reads off its record is
    the plan's lower computation position on every seed, and one X there is
    accepted with certainty and always leaves the decoded bits wrong."""
    for seed in LEAK_SEEDS:
        config = ProtocolConfig("p1", 6, 2, seed=seed, algorithm=X_THEN_CZ)
        pos = located_position(config)
        layout = driver.draw_plan(config).layout
        assert pos == min(layout.position_of_logical(0), layout.position_of_logical(1)), seed
        attack = AdversaryConfig("random_pauli", pauli_positions=(("x", pos),))
        assert exact_escape(replace(config, adversary=attack)) == (1.0, 1.0), seed


def test_the_announced_x_bases_name_the_traps():
    """On p2 N=4 d=1 with two traps running H(0), every position the client
    announces an X-basis measurement for is a trap: 109 announcements over
    the seeds, all of them traps."""
    positions = labelled_positions(4)
    announced = 0
    for seed in LEAK_SEEDS:
        config = ProtocolConfig("p2", 4, 1, trap_count=2, seed=seed,
                                algorithm=(GateRequest.single(0, name="h"),))
        result = run(config)
        traps = {result.layout.permutation[s] for s in result.layout.trap_slots}
        for ev in result.transcript.bob_events():
            if ev.kind == "msg" and ev.payload.get("basis") == "x":
                assert positions[ev.payload["qubit"]] in traps, seed
                announced += 1
    assert announced == 109


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
