"""Run configuration, manifest serialization, and transcript plumbing."""

import json
from dataclasses import replace

import numpy as np
import pytest

from adbqc.protocols import (
    AdversaryConfig,
    ClientCapability,
    GateRequest,
    ProtocolConfig,
    RunManifest,
    VerificationReport,
    config_from_dict,
    config_to_dict,
    run,
    schedule,
)
from adbqc.transcript import ALICE, BOB, Transcript
from helpers import read_manifest

H_REQ = GateRequest.single(0, name="h")


# ---------------------------------------------------------------------------
# Gate requests


def test_single_request_resolves_named_gate():
    assert H_REQ.resolved_octants() == (2, 2, 2)
    explicit = GateRequest.single(0, octants=(1, 0, 0))
    assert explicit.resolved_octants() == (1, 0, 0)


def test_cz_request_has_no_octants():
    req = GateRequest.cz_pair(0, 1)
    assert req.targets == (0, 1)
    with pytest.raises(ValueError):
        req.resolved_octants()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="su", targets=(0, 1), name="h"),
        dict(kind="su", targets=(0,)),  # neither octants nor name
        dict(kind="su", targets=(0,), octants=(1, 0, 0), name="h"),  # both
        dict(kind="su", targets=(0,), name="ccz"),
        dict(kind="su", targets=(0,), octants=(8, 0, 0)),
        dict(kind="su", targets=(0,), octants=(1, 0)),
        dict(kind="cz", targets=(1, 1)),
        dict(kind="cz", targets=(0,)),
        dict(kind="cz", targets=(0, 1), name="h"),
        dict(kind="swap", targets=(0, 1)),
        dict(kind="su", targets=(0,), octants=(1.5, 0, 0)),  # not an integer
        dict(kind="su", targets=(0.0,), name="h"),
        dict(kind="su", targets=(True,), name="h"),
        dict(kind="cz", targets=(0, 1.0)),
    ],
)
def test_bad_requests_rejected(kwargs):
    with pytest.raises(ValueError):
        GateRequest(**kwargs)


# ---------------------------------------------------------------------------
# Adversary configuration


def test_adversary_validation():
    with pytest.raises(ValueError):
        AdversaryConfig(kind="byzantine")
    with pytest.raises(ValueError):
        AdversaryConfig(kind="random_pauli", pauli_counts=(-1, 0, 0))
    with pytest.raises(ValueError):
        AdversaryConfig(
            kind="random_pauli", pauli_counts=(1, 0, 0), pauli_positions=(("y", 0),)
        )
    with pytest.raises(ValueError):
        AdversaryConfig(
            kind="random_pauli",
            pauli_counts=(2, 0, 0),
            pauli_positions=(("x", 3), ("x", 3)),
        )
    with pytest.raises(ValueError):
        AdversaryConfig(kind="none", pauli_positions=(("x", 0),))
    with pytest.raises(ValueError):
        AdversaryConfig(kind="trap_tamper", tamper_rate=1.5)


@pytest.mark.parametrize(
    "kind,params",
    [("none", {"pauli_counts": (1, 0, 0)}), ("none", {"tamper_rate": 0.3}),
     ("trap_tamper", {"pauli_counts": (0, 0, 2)}), ("random_pauli", {"tamper_rate": 0.5})],
    ids=["none-counts", "none-rate", "tamper-counts", "pauli-rate"],
)
def test_adversary_refuses_a_parameter_its_kind_ignores(kind, params):
    """A kept parameter that the kind never reads would be dropped by
    ``config_to_dict``, so the config would not read back as itself."""
    with pytest.raises(ValueError, match="only appl"):
        AdversaryConfig(kind, **params)
    data = config_to_dict(ProtocolConfig("p1", 3, 1))
    data["adversary"] = {"kind": kind, "params": {k: v if isinstance(v, float) else list(v)
                                                   for k, v in params.items()}}
    with pytest.raises(ValueError, match="only appl"):
        config_from_dict(data)


def test_capability_validation():
    with pytest.raises(ValueError):
        ClientCapability("omnipotent")


# ---------------------------------------------------------------------------
# Protocol configuration


def test_trap_counts_by_protocol():
    sueki = ProtocolConfig("sueki", 2, 1)
    assert sueki.trap_count == 0
    assert sueki.logical_width == 2
    p1 = ProtocolConfig("p1", 9, 1)
    assert p1.trap_count == 6
    assert p1.logical_width == 3
    p2 = ProtocolConfig("p2", 4, 1, trap_count=3)
    assert p2.logical_width == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(protocol="bqp", num_qubits=2, depth=1),
        dict(protocol="sueki", num_qubits=0, depth=1),
        dict(protocol="sueki", num_qubits=2, depth=0),
        dict(protocol="sueki", num_qubits=2, depth=1, trap_count=1),
        dict(protocol="p1", num_qubits=4, depth=1),  # width not divisible by 3
        dict(protocol="p1", num_qubits=9, depth=1, trap_count=3),  # 2N/3 is fixed
        dict(protocol="p2", num_qubits=4, depth=1),  # trap count required
        dict(protocol="p2", num_qubits=4, depth=1, trap_count=0),
        dict(protocol="p2", num_qubits=4, depth=1, trap_count=4),
        dict(protocol="sueki", num_qubits=40, depth=1),  # far over the qubit budget
        dict(protocol="sueki", num_qubits=2.0, depth=1),  # not an integer
        dict(protocol="sueki", num_qubits=2, depth=1.5),
        dict(protocol="p2", num_qubits=3, depth=1, trap_count="1"),
        dict(protocol="sueki", num_qubits=2, depth=1, seed=5.7),
        dict(protocol="sueki", num_qubits=2, depth=1, seed=True),
        # malformed Pauli fields; the adversary is built inside the check
        dict(protocol="p1", num_qubits=3, depth=1,
             adversary=dict(kind="random_pauli", pauli_counts=(1.5, 0, 0))),
        dict(protocol="p1", num_qubits=3, depth=1,
             adversary=dict(kind="random_pauli", pauli_counts=(1, 0))),
        dict(protocol="p1", num_qubits=3, depth=1,
             adversary=dict(kind="random_pauli", pauli_counts=(1, 0, 0),
                            pauli_positions=(("x", 0.7),))),
        dict(protocol="p1", num_qubits=3, depth=1,
             adversary=dict(kind="random_pauli", pauli_counts=(1, 0, 0),
                            pauli_positions=(("x", True),))),
        dict(protocol="sueki", num_qubits=1, depth=1, seed=-1),  # used to fail inside run
    ],
)
def test_bad_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        if isinstance(kwargs.get("adversary"), dict):
            kwargs = {**kwargs, "adversary": AdversaryConfig(**kwargs["adversary"])}
        ProtocolConfig(**kwargs)


def test_numpy_integers_are_accepted_as_plain_ints():
    req = GateRequest.single(np.int64(0), octants=np.array([1, 0, 0]))
    assert req == GateRequest.single(0, octants=(1, 0, 0))
    assert all(type(v) is int for v in req.targets + req.octants)
    cfg = ProtocolConfig("p2", np.int64(3), np.int32(1), trap_count=np.int64(1),
                         seed=np.uint8(5), algorithm=(req,))
    assert cfg == ProtocolConfig("p2", 3, 1, trap_count=1, seed=5, algorithm=(req,))
    json.dumps(config_to_dict(cfg))  # still JSON-clean


# each dict loads into a config that cannot run: before the integer checks
# these raised TypeError or AssertionError partway through, ran as seed 5,
# or truncated a Pauli position to 0
NON_INTEGER_DICTS = [
    {"protocol": "p2", "num_register_qubits": 3, "depth": 1, "trap_count": "1"},
    {"protocol": "sueki", "num_register_qubits": 2, "depth": 1,
     "algorithm": [{"kind": "su", "targets": [0.0], "name": "h"}]},
    {"protocol": "p1", "num_register_qubits": 3, "depth": 1,
     "algorithm": [{"kind": "su", "targets": [0], "octants": [1.5, 0, 0]}]},
    {"protocol": "sueki", "num_register_qubits": 2, "depth": 1,
     "algorithm": [{"kind": "su", "targets": [0], "octants": [1.5, 0, 0]}]},
    {"protocol": "sueki", "num_register_qubits": 2, "depth": 1, "seed": 5.7},
    {"protocol": "sueki", "num_register_qubits": 2.0, "depth": 1},
    {"protocol": "sueki", "num_register_qubits": 2, "depth": "1"},
    {"protocol": "p1", "num_register_qubits": 3, "depth": 1,
     "adversary": {"kind": "random_pauli", "params": {"pauli_counts": [1.5, 0, 0]}}},
    {"protocol": "p1", "num_register_qubits": 3, "depth": 1,
     "adversary": {"kind": "random_pauli",
                   "params": {"pauli_counts": [1, 0, 0], "pauli_positions": [["x", 0.7]]}}},
    {"protocol": "p1", "num_register_qubits": 3, "depth": 1,
     "adversary": {"kind": "random_pauli",
                   "params": {"pauli_counts": [1, 0, 0], "pauli_positions": [["x", True]]}}},
]


# each input has a field of the wrong shape: before the shape checks these
# raised TypeError or AttributeError partway through the build
_P1 = {"protocol": "p1", "num_register_qubits": 3, "depth": 1}
MALFORMED_INPUTS = [
    ({**_P1, "adversary": {"kind": "random_pauli", "params": {"pauli_counts": 3}}},
     "pauli_counts must be a list"),
    ({**_P1, "adversary": {"kind": "random_pauli", "params": {"pauli_counts": [1, 0, 0],
                                                         "pauli_positions": [5]}}},
     "pauli_positions entry must be a"),
    ({**_P1, "algorithm": [{"kind": "su", "targets": 0, "name": "h"}]},
     "targets must be a list"),
    ({"protocol": "p2", "num_register_qubits": 3, "depth": 1, "trap_count": 1,
      "adversary": {"kind": "trap_tamper", "params": {"tamper_rate": None}}},
     "tamper_rate must be a number"),
    ({**_P1, "algorithm": [5]}, "algorithm entry must be an object"),
    ({**_P1, "algorithm": 5}, "algorithm must be a list"),
    ({**_P1, "adversary": "none"}, "adversary must be an object"),
    ([_P1], "config must be an object"),
    ({**_P1, "output_bases": 5}, "output_bases must be a list"),
    ({**_P1, "output_bases": [0]}, "output basis must be a string"),
    ({**_P1, "output_bases": []}, "output_bases needs one of z/x"),  # used to read as null
    ({**_P1, "adversary": {"kind": "none", "params": 5}},
     "adversary params must be an object"),
    ({**_P1, "adversary": {"kind": "random_pauli", "params": {"pauli_positions": [["x"]]}}},
     "pauli_positions entry must be a"),
    # a required key is missing
    ({"num_register_qubits": 3, "depth": 1}, "config needs protocol"),
    ({"protocol": "p1", "depth": 1}, "config needs num_register_qubits"),
    ({**_P1, "algorithm": [{"targets": [0], "name": "h"}]}, "algorithm entry 0 needs kind"),
    ({**_P1, "algorithm": [{"kind": "su", "targets": [0], "name": "h"},
                           {"kind": "su", "name": "h"}]},
     "algorithm entry 1 needs targets"),
    # an unknown key, which used to be ignored, at each level
    ({**_P1, "output_base": ["x"], "sed": 5}, r"config has unknown key\(s\) 'output_base', 'sed'"),
    ({**_P1, "adversary": {"kind": "none", "params": {"rate": 1}}},
     r"adversary params has unknown key\(s\) 'rate'"),
    ({**_P1, "algorithm": [{"kind": "su", "targets": [0], "gate": "h"}]},
     r"algorithm entry 0 has unknown key\(s\) 'gate'"),
    # an empty non-object, which used to read as an honest adversary
    ({**_P1, "adversary": []}, "adversary must be an object"),
    ({**_P1, "adversary": None}, "adversary must be an object"),
    ({**_P1, "adversary": {"kind": "random_pauli", "params": 0}},
     "adversary params must be an object"),
    # a negative seed, which used to build and then fail inside the run
    ({**_P1, "seed": -1}, "seed must be non-negative, got -1"),
]
_REFUSALS = [(data, "must be an integer") for data in NON_INTEGER_DICTS] + MALFORMED_INPUTS


@pytest.mark.parametrize(
    "data,message", _REFUSALS, ids=[f"data{i}" for i in range(len(_REFUSALS))]
)
def test_config_from_dict_rejects_non_integers(data, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(data)


# widest register each protocol fits in the 16-qubit budget beside its
# gadget's ancillas (p1 holds a Bell pair, the others one qubit), and the
# next width up
_WIDEST_AND_OVER = {
    "sueki": (dict(num_qubits=15), dict(num_qubits=16)),
    "p1": (dict(num_qubits=12), dict(num_qubits=15)),
    "p2": (dict(num_qubits=15, trap_count=1), dict(num_qubits=16, trap_count=1)),
}


@pytest.mark.parametrize("protocol", sorted(_WIDEST_AND_OVER))
def test_widest_register_runs_and_next_width_is_rejected(protocol):
    widest, over = _WIDEST_AND_OVER[protocol]
    result = run(ProtocolConfig(protocol, depth=1, seed=1, **widest))
    assert result.report.accepted
    with pytest.raises(ValueError, match="over the budget of 16"):
        ProtocolConfig(protocol, depth=1, **over)


def test_algorithm_targets_checked_against_logical_width():
    with pytest.raises(ValueError):
        ProtocolConfig("p2", 4, 1, trap_count=3, algorithm=(GateRequest.single(1, name="h"),))
    ok = ProtocolConfig("p1", 9, 1, algorithm=(GateRequest.cz_pair(0, 2),))
    assert ok.logical_width == 3


def test_algorithm_deeper_than_depth_is_refused_when_built():
    chain = (GateRequest.cz_pair(0, 1), GateRequest.cz_pair(1, 2))  # two layers
    with pytest.raises(ValueError, match="needs 2 layers, configured depth is 1"):
        ProtocolConfig("sueki", 3, 1, algorithm=chain)
    with pytest.raises(ValueError, match="needs 2 layers"):
        config_from_dict({"protocol": "sueki", "num_register_qubits": 3, "depth": 1,
                          "algorithm": [{"kind": "cz", "targets": [0, 1]},
                                        {"kind": "cz", "targets": [1, 2]}]})
    assert run(ProtocolConfig("sueki", 3, 2, seed=1, algorithm=chain)).report.accepted


def test_replace_schedules_again_and_the_layers_are_no_input():
    """``replace`` builds a new config, whose checks schedule its own algorithm
    and depth; the kept layers stay out of equality, repr and the dict."""
    chain = (GateRequest.cz_pair(0, 1), GateRequest.cz_pair(1, 2))  # two layers
    config = ProtocolConfig("sueki", 3, 1, algorithm=(H_REQ,))
    deeper = replace(config, depth=3)
    assert len(deeper.layers) == 3 and deeper.layers == schedule((H_REQ,), 3, 3)
    chained = replace(deeper, algorithm=chain)
    assert chained.layers == schedule(chain, 3, 3) != deeper.layers
    with pytest.raises(ValueError, match="needs 2 layers, configured depth is 1"):
        replace(config, algorithm=chain)
    with pytest.raises(ValueError, match="init=False"):
        replace(config, layers=())
    twin = replace(config)
    assert twin == config and hash(twin) == hash(config) and twin.layers == config.layers
    assert "layers" not in repr(config) and "layers" not in config_to_dict(config)


def test_output_bases_validation():
    cfg = ProtocolConfig("p2", 4, 1, trap_count=2, output_bases=("Z", "x"))
    assert cfg.output_bases == ("z", "x")
    assert cfg.plan() == ("z", "x")
    with pytest.raises(ValueError):
        ProtocolConfig("p2", 4, 1, trap_count=2, output_bases=("z",))
    with pytest.raises(ValueError):
        ProtocolConfig("p2", 4, 1, trap_count=2, output_bases=("z", "y"))


def test_default_plan_is_all_z():
    assert ProtocolConfig("p1", 3, 1).plan() == ("z",)


def test_adversary_protocol_pairing():
    pauli = AdversaryConfig(kind="random_pauli", pauli_counts=(1, 0, 0))
    tamper = AdversaryConfig(kind="trap_tamper", tamper_rate=0.5)
    ProtocolConfig("p1", 3, 1, adversary=pauli)  # allowed
    ProtocolConfig("p2", 4, 1, trap_count=2, adversary=tamper)  # allowed
    with pytest.raises(ValueError):
        ProtocolConfig("p2", 4, 1, trap_count=2, adversary=pauli)
    with pytest.raises(ValueError):
        ProtocolConfig("p1", 3, 1, adversary=tamper)
    with pytest.raises(ValueError):
        ProtocolConfig("sueki", 2, 1, adversary=tamper)


def test_probe_adversary_not_runnable():
    """The probe analysis lives in the audits; as a run adversary it is an
    unknown kind."""
    with pytest.raises(ValueError, match="unknown adversary kind 'entangled_probe'"):
        AdversaryConfig(kind="entangled_probe")


def test_pauli_counts_bounded_by_register():
    adv = AdversaryConfig(kind="random_pauli", pauli_counts=(4, 0, 0))
    with pytest.raises(ValueError):
        ProtocolConfig("p1", 3, 1, adversary=adv)
    spot = AdversaryConfig(
        kind="random_pauli", pauli_counts=(1, 0, 0), pauli_positions=(("x", 5),)
    )
    with pytest.raises(ValueError):
        ProtocolConfig("p1", 3, 1, adversary=spot)


def test_pauli_positions_set_the_counts():
    """The counts are those of the listed hits, so a manifest never claims
    hits the run does not make; other given counts are refused."""
    hits = (("z", 0), ("xz", 2), ("z", 1))
    listed = AdversaryConfig("random_pauli", pauli_positions=hits)
    assert listed.pauli_counts == (0, 2, 1)
    assert AdversaryConfig("random_pauli", pauli_counts=(0, 2, 1), pauli_positions=hits) == listed
    refused = r"counts \(3, 0, 0\) differ from the positions' \(0, 1, 0\)"
    with pytest.raises(ValueError, match=refused):
        AdversaryConfig("random_pauli", pauli_counts=(3, 0, 0), pauli_positions=(("z", 0),))


def test_with_seed_and_capability():
    cfg = ProtocolConfig("p1", 3, 1, seed=5)
    assert cfg.with_seed(11).seed == 11
    assert cfg.with_seed(11).protocol == "p1"
    assert cfg.capability.kind == "measure_only"
    assert ProtocolConfig("sueki", 1, 1).capability.kind == "prepare_only"
    assert ProtocolConfig("p2", 2, 1, trap_count=1).capability.kind == "gate_only"


# ---------------------------------------------------------------------------
# Serialization


ROUNDTRIP_CONFIGS = [
    ProtocolConfig("sueki", 2, 2, seed=3, algorithm=(H_REQ, GateRequest.cz_pair(0, 1))),
    ProtocolConfig(
        "p1",
        9,
        1,
        seed=8,
        algorithm=(GateRequest.single(2, octants=(1, 0, 0)),),
        adversary=AdversaryConfig(
            kind="random_pauli", pauli_counts=(1, 1, 0), pauli_positions=(("x", 0), ("z", 4))
        ),
    ),
    ProtocolConfig(
        "p2",
        4,
        1,
        trap_count=2,
        output_bases=("x", "z"),
        adversary=AdversaryConfig(kind="trap_tamper", tamper_rate=0.25),
    ),
    ProtocolConfig("p2", 3, 1, trap_count=1, seed=5, record_transcript=False),
]


@pytest.mark.parametrize("config", ROUNDTRIP_CONFIGS)
def test_config_dict_roundtrip(config):
    data = config_to_dict(config)
    json.dumps(data)  # must be JSON-clean
    assert config_from_dict(data) == config


def test_config_from_dict_refuses_the_qubit_alias():
    data = config_to_dict(ProtocolConfig("p1", 3, 1))
    data["num_qubits"] = data.pop("num_register_qubits")
    with pytest.raises(ValueError, match="unknown key.*'num_qubits'"):
        config_from_dict(data)


def test_config_from_dict_defaults_depth_and_seed():
    data = config_to_dict(ProtocolConfig("p1", 3, 1))
    del data["depth"], data["seed"]
    assert config_from_dict(data) == ProtocolConfig("p1", 3, 1)


def test_config_from_dict_rejects_a_non_boolean_record_flag():
    data = config_to_dict(ROUNDTRIP_CONFIGS[3])
    data["record_transcript"] = "false"
    with pytest.raises(ValueError, match="record_transcript"):
        config_from_dict(data)


def test_config_from_dict_refuses_flattened_adversary():
    data = config_to_dict(ROUNDTRIP_CONFIGS[2])
    adv = data["adversary"]
    adv.update(adv.pop("params"))
    with pytest.raises(ValueError, match="adversary has unknown key"):
        config_from_dict(data)


def test_manifest_roundtrip():
    manifest = RunManifest(ROUNDTRIP_CONFIGS[1], created="2026-01-01T00:00:00Z")
    text = manifest.to_json()
    config = read_manifest(text)
    assert config == manifest.config
    # serialization is deterministic
    assert RunManifest(config, created=manifest.created).to_json() == text


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param('{"tool": "adbqc"}', "manifest needs config", id="no-config"),
        pytest.param('{"config": 3}', "config must be an object", id="bad-config"),
        pytest.param("[1, 2]", "config must be an object", id="not-an-object"),
        pytest.param(
            '{"tool": "adbqc", "config": {}, "confg": 1}',
            "manifest has unknown key\\(s\\) 'confg'",
            id="unknown-key",
        ),
    ],
)
def test_manifest_reader_names_what_is_wrong(text, message):
    with pytest.raises(ValueError, match=message):
        read_manifest(text)


def test_report_as_dict():
    report = VerificationReport(True, 0, 6, (1, 0), "abc123")
    assert report.as_dict() == {
        "accepted": True,
        "trap_errors": 0,
        "trap_total": 6,
        "computation_bits": [1, 0],
        "transcript_digest": "abc123",
    }


# ---------------------------------------------------------------------------
# Transcripts


def test_transcript_event_ordering_and_kinds():
    tape = Transcript()
    tape.msg(ALICE, BOB, theta_octant=5)
    tape.transfer(BOB, ALICE, "q0")
    tape.local(ALICE, op="prepare", qubit="a0")
    tape.outcome(BOB, 1, qubit="q0")
    assert [ev.seq for ev in tape.events] == [0, 1, 2, 3]
    assert [ev.kind for ev in tape.events] == ["msg", "transfer", "local", "outcome"]
    assert tape.events[0].party == ALICE


def test_transcript_rejects_floats_on_the_wire():
    tape = Transcript()
    for value in (0.785, None, np.int64(1), [1]):
        with pytest.raises(ValueError, match="wire-safe"):
            tape.msg(ALICE, BOB, theta=value)
    tape.msg(ALICE, BOB, octant=1, label="q0", flag=True)  # wire-safe payloads


def test_server_view_filters_client_locals():
    tape = Transcript()
    tape.local(ALICE, op="secret", octant=7)
    tape.msg(ALICE, BOB, announce=3)
    tape.local(BOB, op="couple")
    tape.outcome(ALICE, 0, qubit="e0")
    tape.outcome(BOB, 1, qubit="g0")
    kinds = [(ev.kind, ev.party) for ev in tape.bob_events()]
    assert kinds == [("msg", ALICE), ("local", BOB), ("outcome", BOB)]
    assert tape.bob_classical_values() == (3, 1, "g0")


def test_transcript_jsonl_and_digest():
    tape = Transcript()
    tape.msg(ALICE, BOB, octant=2)
    lines = tape.to_jsonl().splitlines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert parsed["payload"] == {"octant": 2}
    digest = tape.digest()
    assert len(digest) == 64
    tape.msg(ALICE, BOB, octant=3)
    assert tape.digest() != digest


def test_unrecorded_transcript_stays_empty():
    tape = Transcript(record=False)
    tape.msg(ALICE, BOB, octant=2)
    tape.outcome(BOB, 1)
    assert tape.events == []
