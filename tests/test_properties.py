"""Property-based checks over random valid configs and gate programs.

Configs cover every protocol, every adversary kind a run accepts (none for
all, stray Paulis for p1, report tampering for p2) and both transcript
settings; gate programs mix named, octant and CZ requests on one to five
qubits. Examples are derandomized, so each run of the suite checks the same
cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from adbqc.gadgets import NAMED_GATE_OCTANTS
from adbqc.protocols import (
    HONEST,
    AdversaryConfig,
    GateRequest,
    ProtocolConfig,
    RunManifest,
    config_from_dict,
    config_to_dict,
    schedule,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def gate_requests(draw, width: int) -> GateRequest:
    if width >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True))
        return GateRequest.cz_pair(i, j)
    target = draw(st.integers(0, width - 1))
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(NAMED_GATE_OCTANTS)))
        return GateRequest.single(target, name=name)
    return GateRequest.single(target, octants=draw(st.tuples(*[st.integers(0, 7)] * 3)))


@st.composite
def adversaries(draw, protocol: str, num_qubits: int) -> AdversaryConfig:
    if not draw(st.booleans()):
        return HONEST
    if protocol == "p1":
        spots = draw(st.lists(st.integers(0, num_qubits - 1), unique=True))
        x = draw(st.integers(0, num_qubits))
        z = draw(st.integers(0, num_qubits - x))
        counts = (x, z, draw(st.integers(0, num_qubits - x - z)))
        positions = None
        if draw(st.booleans()):
            positions = tuple((draw(st.sampled_from(("x", "z", "xz"))), p) for p in spots)
        return AdversaryConfig("random_pauli", pauli_counts=counts, pauli_positions=positions)
    if protocol == "p2":
        return AdversaryConfig("trap_tamper", tamper_rate=draw(st.floats(0.0, 1.0)))
    return HONEST


@st.composite
def configs(draw) -> ProtocolConfig:
    protocol = draw(st.sampled_from(("sueki", "p1", "p2")))
    traps = None
    if protocol == "sueki":
        n = width = draw(st.integers(1, 6))
    elif protocol == "p1":
        n = draw(st.sampled_from((3, 6, 9)))
        width = n // 3  # p1 fixes 2N/3 traps
    else:
        n = draw(st.integers(2, 8))
        traps = draw(st.integers(1, n - 1))
        width = n - traps
    bases = None
    if draw(st.booleans()):
        bases = tuple(draw(st.lists(st.sampled_from("zx"), min_size=width, max_size=width)))
    return ProtocolConfig(
        protocol,
        n,
        draw(st.integers(1, 4)),
        trap_count=traps,
        seed=draw(st.integers(0, 2**63 - 1)),
        algorithm=tuple(draw(st.lists(gate_requests(width), max_size=6))),
        output_bases=bases,
        adversary=draw(adversaries(protocol, n)),
        record_transcript=draw(st.booleans()),
    )


@PROPERTY_SETTINGS
@given(configs())
def test_config_dict_roundtrip_property(config):
    assert config_from_dict(config_to_dict(config)) == config


@PROPERTY_SETTINGS
@given(configs(), st.text(max_size=24))
def test_manifest_json_roundtrip_property(config, created):
    manifest = RunManifest(config, created=created)
    text = manifest.to_json()
    again = RunManifest.from_json(text)
    assert again == manifest
    assert again.to_json() == text


@st.composite
def programs(draw) -> tuple[int, tuple[GateRequest, ...]]:
    width = draw(st.integers(1, 5))
    return width, tuple(draw(st.lists(gate_requests(width), max_size=12)))


@PROPERTY_SETTINGS
@given(programs())
def test_schedule_keeps_program_order_per_qubit(program):
    width, requests = program
    layers = schedule(requests, width, max(1, len(requests)))
    executed: dict[int, list] = {q: [] for q in range(width)}
    for layer in layers:
        # a layer runs its patterns, then its CZs; each qubit at most once in each
        pattern_qubits = [q for q, _ in layer.patterns]
        cz_qubits = [q for pair in layer.czs for q in pair]
        assert len(set(pattern_qubits)) == len(pattern_qubits)
        assert len(set(cz_qubits)) == len(cz_qubits)
        for q, octants in layer.patterns:
            executed[q].append(("su", octants))
        for pair in layer.czs:
            for q in pair:
                executed[q].append(("cz", pair))
    for q in range(width):
        wanted = [
            ("su", r.resolved_octants()) if r.kind == "su" else ("cz", r.targets)
            for r in requests
            if q in r.targets
        ]
        assert executed[q] == wanted

