"""End-to-end runs of the prepare-only-client protocol."""

import pytest

from adbqc.blindness import client_quantum_actions, confirm_capability
from adbqc.protocols import (
    GateRequest,
    ProtocolConfig,
    enumerated_distribution,
    reference_distribution,
    run_sueki,
    total_variation,
)
from helpers import client_to_server_traffic, sampled_distribution


def sueki_config(algorithm, qubits=1, depth=1, seed=5, **kw) -> ProtocolConfig:
    return ProtocolConfig("sueki", qubits, depth, seed=seed, algorithm=tuple(algorithm), **kw)


# ---------------------------------------------------------------------------
# Exact output distributions (every branch enumerated)


def test_identity_run_is_deterministic_zero():
    config = sueki_config([GateRequest.single(0, name="i")])
    dist = enumerated_distribution(run_sueki, config)
    assert dist == {(0,): pytest.approx(1.0, abs=1e-12)}


def test_x_run_is_deterministic_one():
    config = sueki_config([GateRequest.single(0, name="x")])
    dist = enumerated_distribution(run_sueki, config)
    assert dist == {(1,): pytest.approx(1.0, abs=1e-12)}


@pytest.mark.parametrize("name", ["h", "t", "s", "hx"])
def test_single_gate_matches_reference(name):
    config = sueki_config([GateRequest.single(0, name=name)])
    got = enumerated_distribution(run_sueki, config)
    want = reference_distribution(config)
    assert total_variation(got, want) <= 1e-9


def test_x_basis_output_matches_reference():
    config = sueki_config([GateRequest.single(0, octants=(1, 2, 0))], output_bases=("x",))
    got = enumerated_distribution(run_sueki, config)
    want = reference_distribution(config)
    assert total_variation(got, want) <= 1e-9
    # R_Z(pi/4) R_X(pi/2) |0> measured along X: cos(pi/8)^2 on outcome 0.
    assert want[(0,)] == pytest.approx(0.8535533905932737, abs=1e-12)


def test_generic_octant_pattern_matches_reference():
    config = sueki_config([GateRequest.single(0, octants=(3, 5, 1))], output_bases=("x",))
    got = enumerated_distribution(run_sueki, config)
    want = reference_distribution(config)
    assert total_variation(got, want) <= 1e-9


# ---------------------------------------------------------------------------
# Sampled two-qubit correlations


def test_entangling_circuit_yields_perfect_correlation():
    """H then CZ then H wires qubit 0 onto qubit 1: outputs always agree."""
    algorithm = [
        GateRequest.single(0, name="h"),
        GateRequest.single(1, name="h"),
        GateRequest.cz_pair(0, 1),
        GateRequest.single(1, name="h"),
    ]
    config = sueki_config(algorithm, qubits=2, depth=2, seed=100)
    dist = sampled_distribution(run_sueki, config, trials=1000)
    assert set(dist) == {(0, 0), (1, 1)}
    assert dist[(0, 0)] + dist[(1, 1)] == pytest.approx(1.0)
    sigma = (0.25 / 1000) ** 0.5
    assert abs(dist[(0, 0)] - 0.5) <= 4 * sigma


# ---------------------------------------------------------------------------
# Transcript shape and capability confinement


def test_announcements_are_octant_integers_on_the_wire():
    config = sueki_config([GateRequest.single(0, name="t")], seed=9)
    res = run_sueki(config)
    announced = [
        ev.payload["theta_octant"]
        for ev in res.transcript.events
        if ev.kind == "msg" and "theta_octant" in ev.payload
    ]
    assert len(announced) == 4  # four rotations per pattern slot
    assert all(isinstance(k, int) and 0 <= k <= 7 for k in announced)


def test_client_only_prepares_and_discards():
    config = sueki_config(
        [GateRequest.single(0, name="h"), GateRequest.cz_pair(0, 1)], qubits=2
    )
    res = run_sueki(config)
    actions = client_quantum_actions(res.transcript)
    assert actions <= {"prepare", "discard"}
    audit = confirm_capability(res.transcript, "prepare_only")
    assert audit.passed
    msgs, transfers = client_to_server_traffic(res.transcript)
    assert transfers > 0  # the client ships every ancilla
    assert msgs > 0  # and announces the measurement angles


def test_no_traps_and_always_accepted():
    res = run_sueki(sueki_config([GateRequest.single(0, name="h")]))
    assert res.report.accepted
    assert res.report.trap_errors == 0
    assert res.report.trap_total == 0


def test_decoding_applies_the_frame():
    config = sueki_config([GateRequest.single(0, name="h")], seed=17)
    res = run_sueki(config)
    assert res.report.computation_bits[0] == res.raw_bits[0] ^ res.frame.x[0]


def test_runs_are_reproducible_by_seed():
    config = sueki_config([GateRequest.single(0, name="t")], seed=23)
    a = run_sueki(config)
    b = run_sueki(config)
    c = run_sueki(config.with_seed(24))
    assert a.transcript.digest() == b.transcript.digest()
    assert a.report == b.report
    assert c.transcript.digest() != a.transcript.digest()


def test_wrong_protocol_config_rejected():
    with pytest.raises(ValueError):
        run_sueki(ProtocolConfig("p1", 3, 1))
