"""Gate-only client protocol: lent-ancilla gadget, padding, tamper attacks."""

import numpy as np
import pytest

from adbqc import rng
from adbqc.blindness import confirm_capability
from adbqc.gadgets import PauliFrame
from adbqc.protocols import (
    AdversaryConfig,
    GateRequest,
    ProtocolConfig,
    place_traps,
    run_protocol2,
)
from adbqc.protocols.gate_client import p2_hrz_on_runtime
from adbqc.protocols.reference import reference_distribution, total_variation
from adbqc.qsim import (
    apply_gate,
    haar_random_state,
)
from adbqc.runtime import QuantumRuntime, ReplayOutcomes, enumerate_runs
from adbqc.transcript import ALICE, BOB, Transcript
from helpers import (
    client_to_server_traffic, fidelity_up_to_phase, from_state, hrz_matrix, octant_angle,
    zero_state,
)


def fair_coin(coin: float) -> ReplayOutcomes:
    """The outcome a uniform draw ``coin`` picks on a branch of weight 1/2
    (0 below 1/2, 1 above), forced."""
    return ReplayOutcomes((int(coin >= 0.5),))


# ---------------------------------------------------------------------------
# Single gadget


@pytest.mark.parametrize("octant", range(8))
@pytest.mark.parametrize("coin", [0.2, 0.8])
def test_gadget_soundness(octant, coin):
    """Returned-ancilla gadget equals H R_Z(k pi/4) after the X correction."""
    state = haar_random_state(1, rng.stream(300, "p2-state", octant))
    want = apply_gate(state, hrz_matrix(octant_angle(octant)), [0])
    rt, labels = from_state(state, fair_coin(coin), BOB, Transcript())
    delta = p2_hrz_on_runtime(rt, labels[0], octant)
    (announced,) = [ev.payload["bit"] for ev in rt.tape.events if ev.kind == "outcome"]
    assert delta == announced
    corrected = PauliFrame((delta,), (0,)).matrix_on(rt.snapshot(labels))
    assert fidelity_up_to_phase(corrected, want) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("coin,outcome", [(0.2, 0), (0.8, 1)])
def test_gadget_outcome_is_a_fair_coin(coin, outcome):
    """The announced bit carries no angle information: both paths weigh 1/2."""
    rt = QuantumRuntime(fair_coin(coin))
    rt.load(zero_state(1), ["r0"], BOB)
    s = p2_hrz_on_runtime(rt, "r0", 1)
    assert s == outcome
    assert rt.outcomes.path_probability() == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Full runs


def p2_config(seed=0, qubits=2, traps=1, algorithm=(), **kw) -> ProtocolConfig:
    return ProtocolConfig(
        "p2", qubits, 1, seed=seed, trap_count=traps, algorithm=tuple(algorithm), **kw
    )


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_honest_identity_run(seed):
    res = run_protocol2(p2_config(seed=seed))
    assert res.report.accepted
    assert res.report.trap_errors == 0
    assert res.report.trap_total == 1
    assert res.report.computation_bits == (0,)


def test_one_qubit_each_way_per_invocation():
    """Two positions, four rotations each: eight loans out, eight returns."""
    res = run_protocol2(p2_config(seed=9, algorithm=[GateRequest.single(0, name="t")]))
    msgs, transfers = client_to_server_traffic(res.transcript)
    assert transfers == 8
    assert msgs == 2  # only the final per-position measurement instructions
    outbound = [
        ev for ev in res.transcript.events if ev.kind == "transfer" and ev.party == BOB
    ]
    assert len(outbound) == 8
    audit = confirm_capability(res.transcript, "gate_only")
    assert audit.passed


def test_enumerated_h_run_matches_reference():
    """All 1024 outcome paths of an H computation reproduce the fair coin."""
    config = p2_config(
        seed=4, algorithm=[GateRequest.single(0, name="h")], record_transcript=False
    )
    dist: dict = {}
    for branch in enumerate_runs(
        lambda src: run_protocol2(config, src).report.computation_bits
    ):
        dist[branch.value] = dist.get(branch.value, 0.0) + branch.probability
    want = reference_distribution(config)
    assert total_variation(dist, want) <= 1e-9


def test_output_bits_are_one_time_padded():
    """raw xor s2 xor s4 recovers the client's private half-turn pad parity.

    The server sees raw and both announced bits, so the residual must look
    like a fair coin to it; across runs it is the XOR of two private pads.
    """
    trials = 600
    residuals = []
    for t in range(trials):
        res = run_protocol2(p2_config(seed=20000 + t))
        pos = res.layout.position_of_logical(0)
        announced = {
            ev.payload["qubit"]: ev.payload["bit"]
            for ev in res.transcript.events
            if ev.kind == "outcome" and ev.party == BOB and "qubit" in ev.payload
        }
        s2 = announced[f"g{4 * pos + 1}"]
        s4 = announced[f"g{4 * pos + 3}"]
        residuals.append(res.raw_bits[pos] ^ s2 ^ s4)
    ones = sum(residuals)
    sigma = np.sqrt(trials * 0.25)
    assert abs(ones - trials / 2) <= 4 * sigma
    assert 0 < ones < trials


# ---------------------------------------------------------------------------
# Trap placement


def test_p2_trap_roles_cover_all_four_states():
    layout = place_traps(9, 4, "p2", rng.stream(301, "roles"))
    assert len(layout.trap_slots) == 4
    assert set(layout.roles) <= {"compute", "zero", "one", "plus", "minus"}
    assert layout.roles.count("compute") == 5


def test_p2_trap_role_draw_is_uniform():
    trials = 800
    counts: dict = {}
    for t in range(trials):
        layout = place_traps(2, 1, "p2", rng.stream(302, "roles-sweep", t))
        role = layout.roles[layout.trap_slots[0]]
        counts[role] = counts.get(role, 0) + 1
    sigma = np.sqrt(trials * 0.25 * 0.75)
    assert set(counts) == {"zero", "one", "plus", "minus"}
    for c in counts.values():
        assert abs(c - trials / 4) <= 4 * sigma


def test_p2_trap_count_bounds():
    with pytest.raises(ValueError):
        place_traps(4, 4, "p2", rng.stream(303, "roles"))
    with pytest.raises(ValueError):
        place_traps(4, 0, "p2", rng.stream(303, "roles"))


def test_basis_instructions_do_not_mark_traps():
    """The Z-basis fraction of measurement instructions is the same at trap
    and compute positions once the client randomizes its output basis."""
    trials = 800
    bases_rng = rng.stream(304, "bases")
    z_at = {"trap": 0, "compute": 0}
    for t in range(trials):
        wanted = "z" if bases_rng.integers(2) == 0 else "x"
        res = run_protocol2(p2_config(seed=40000 + t, output_bases=(wanted,)))
        instructions = {
            ev.payload["qubit"]: ev.payload["basis"]
            for ev in res.transcript.events
            if ev.kind == "msg" and ev.party == ALICE and ev.payload.get("op") == "measure"
        }
        compute_pos = res.layout.position_of_logical(0)
        for pos in range(2):
            kind = "compute" if pos == compute_pos else "trap"
            z_at[kind] += int(instructions[f"q{pos}"] == "z")
    diff = abs(z_at["trap"] - z_at["compute"]) / trials
    sigma = np.sqrt(2 * 0.25 / trials)
    assert diff <= 4 * sigma


# ---------------------------------------------------------------------------
# Tampered reporting


def test_fully_honest_reporting_rate_always_accepts():
    adv = AdversaryConfig(kind="trap_tamper", tamper_rate=1.0)
    for seed in range(5):
        res = run_protocol2(p2_config(seed=seed, qubits=5, traps=4, adversary=adv))
        assert res.report.accepted


def test_tamper_escape_rate_matches_analysis():
    """With four traps and honesty rate 1/2 the acceptance rate is 1/16."""
    adv = AdversaryConfig(kind="trap_tamper", tamper_rate=0.5)
    base = p2_config(qubits=5, traps=4, adversary=adv, record_transcript=False)
    trials = 800
    accepted = 0
    for t in range(trials):
        res = run_protocol2(base.with_seed(50000 + t))
        accepted += int(res.report.accepted)
    exact = 0.5**4
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert abs(accepted / trials - exact) <= 4 * sigma


def test_wrong_protocol_config_rejected():
    with pytest.raises(ValueError):
        run_protocol2(ProtocolConfig("p1", 3, 1))
