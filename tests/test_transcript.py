"""The transcript's JSON lines and digest against ``json.dumps``, and the
exact audits, which record transcripts without encoding them."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adbqc.blindness import audit_gadget_view_tv, audit_no_signaling
from adbqc.oracle import soundness_sweep
from adbqc.protocols import ProtocolConfig, run_protocol1, run_protocol2, run_sueki
from adbqc.qsim import GADGET_FIDELITY_ATOL
from adbqc.transcript import ALICE, BOB, Transcript
from helpers import json_dumps_jsonl

# the honest-run configs of acceptance criterion 8, recording their transcripts
ACCEPTANCE_8 = {
    "sueki": (run_sueki, ProtocolConfig("sueki", 1, 1)),
    "p1": (run_protocol1, ProtocolConfig("p1", 3, 1)),
    "p2": (run_protocol2, ProtocolConfig("p2", 3, 1, trap_count=1)),
}


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_8))
def test_jsonl_is_byte_identical_to_json_dumps(name):
    runner, config = ACCEPTANCE_8[name]
    for seed in range(200):
        tape = runner(config.with_seed(seed)).transcript
        assert tape.events
        text = json_dumps_jsonl(tape)
        assert tape.to_jsonl() == text
        assert tape.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_a_whole_wide_run_is_one_format_call_equal_to_json_dumps():
    tape = run_sueki(ProtocolConfig("sueki", 12, 2)).transcript
    assert len(tape.events) > 1000
    assert tape.to_jsonl() == json_dumps_jsonl(tape)


def test_an_empty_transcript_encodes_to_nothing():
    tape = Transcript()
    assert tape.to_jsonl() == ""
    assert tape.digest() == hashlib.sha256(b"").hexdigest()


def test_format_specifiers_in_strings_labels_and_keys_stay_literal():
    """Every line is filled by one ``%`` call, so a ``%`` in a value, a label
    or a key must reach the line as written."""
    tape = Transcript()
    tape.msg(ALICE, BOB, note="100% %s %% %d", **{"%s": "%d", "k%%": 1})
    tape.local(BOB, op="%", qubits=["%s", "%%", "%d", "%"], **{"%d": ["a%", 2]})
    tape.transfer(BOB, ALICE, "%s%d")
    tape.outcome(ALICE, 0, qubit="%%s")
    assert tape.to_jsonl() == json_dumps_jsonl(tape)


def test_jsonl_escapes_strings_as_json_dumps_does():
    tape = Transcript()
    tape.msg(ALICE, BOB, note='quote " back \\ tab \t line \n', accent="é \U0001f600",
             flag=True, off=False, big=-(2**70))
    tape.local(BOB, op="prepare", qubits=["a\"0", "ü1"], which="plus")
    tape.transfer(BOB, ALICE, "q\x00")
    tape.outcome(ALICE, 1, qubit="e\\1")
    assert tape.to_jsonl() == json_dumps_jsonl(tape)


# Keys repeat, so event shapes repeat with values of other types; "%" and
# '"' in keys and parties reach the cached templates' fixed text.
KEYS = st.sampled_from(["a", "op", "qubits", "%s", 'k"\\', "é"])
PARTIES = st.sampled_from([ALICE, BOB, 'c%d "é"'])
TEXT = st.text(max_size=6)
WIRE_VALUES = st.one_of(TEXT, st.booleans(), st.integers(-(2**80), 2**80))
# label lists (one C-level join) and lists holding anything else, nested
# lists and the empty list included (encoded element by element)
LABELS = st.lists(TEXT, max_size=3)
LOCAL_VALUES = st.one_of(WIRE_VALUES, st.none(), LABELS,
                         st.lists(st.one_of(WIRE_VALUES, st.none(), LABELS), max_size=3))
EVENTS = st.one_of(
    st.tuples(st.just("msg"), PARTIES, PARTIES, st.dictionaries(KEYS, WIRE_VALUES, max_size=3)),
    st.tuples(st.just("transfer"), PARTIES, PARTIES, TEXT),
    st.tuples(st.just("local"), PARTIES, st.dictionaries(KEYS, LOCAL_VALUES, max_size=3)),
    st.tuples(st.just("outcome"), PARTIES, st.sampled_from([0, 1, True, False]),
              st.dictionaries(KEYS, LOCAL_VALUES, max_size=3)),
)


def push(tape: Transcript, event: tuple) -> None:
    kind, *args = event
    if kind in ("msg", "local", "outcome"):
        *positional, payload = args
        getattr(tape, kind)(*positional, **payload)
    else:
        tape.transfer(*args)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(EVENTS, max_size=12), st.lists(EVENTS, min_size=1, max_size=4))
def test_templated_lines_match_json_dumps(events, more):
    tape = Transcript()
    for batch in (events, more):
        for event in batch:
            push(tape, event)
        text = json_dumps_jsonl(tape)
        assert tape.to_jsonl() == text
        assert tape.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_exact_audits_never_encode_a_transcript(monkeypatch):
    def refuse(self):
        raise AssertionError("an exact audit encoded its transcript")

    monkeypatch.setattr(Transcript, "to_jsonl", refuse)
    assert audit_no_signaling().passed
    assert audit_gadget_view_tv("hrz-sueki", 0, 3).passed
    assert audit_gadget_view_tv("p2", 1, 6).passed
    worst, _ = soundness_sweep(1)
    assert worst >= 1.0 - GADGET_FIDELITY_ATOL
