"""The transcript's JSON lines and digest against ``json.dumps``."""

import hashlib

import pytest

from adbqc.protocols import ProtocolConfig, run_protocol1, run_protocol2, run_sueki
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


def test_jsonl_escapes_strings_as_json_dumps_does():
    tape = Transcript()
    tape.msg(ALICE, BOB, note='quote " back \\ tab \t line \n', accent="é \U0001f600",
             flag=True, off=False, big=-(2**70))
    tape.local(BOB, op="prepare", qubits=["a\"0", "ü1"], which="plus")
    tape.transfer(BOB, ALICE, "q\x00")
    tape.outcome(ALICE, 1, qubit="e\\1")
    assert tape.to_jsonl() == json_dumps_jsonl(tape)
