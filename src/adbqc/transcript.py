"""Append-only protocol transcripts.

Every run produces an ordered event log with four kinds:

- ``msg``: a classical message between the parties. Payload values must be
  integers, booleans or short strings; angles travel as octant integers
  (multiples of pi/4), never as floats.
- ``transfer``: a qubit changing hands (label only, no state information).
- ``local``: a party's local operation (state prep, gate, deviation).
- ``outcome``: a measurement result produced by a party.

The server-side view of a transcript is what the protocols' blindness
arguments quantify over: everything the server sends, receives or locally
produces. Client-local events stay out of it.

Recording only appends events. Encoding waits for ``to_jsonl`` or
``digest``, so a transcript kept only to read ``bob_classical_values``
never pays for it. Each line's template is cached per event shape (kind,
parties and payload keys) and holds its fixed text, keys sorted and escaped;
one pass collects every event's template, escaped values and seq, and one
``%`` call fills them all.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

ALICE = "alice"  # client
BOB = "bob"  # server


def server_sees(kind: str, party: str) -> bool:
    """Whether the server sees an event: all traffic plus its own local record."""
    return kind in ("msg", "transfer") or party == BOB


def server_values(kind: str, payload: dict) -> tuple:
    """What a visible event adds to the server's record: msg/outcome payload values by key."""
    return tuple(payload[key] for key in sorted(payload)) if kind in ("msg", "outcome") else ()


# not frozen: a frozen __init__ sets each field through object.__setattr__,
# several times slower, and it runs once per pushed event
@dataclass(slots=True)
class Event:
    seq: int
    kind: str
    party: str  # actor; sender for msg/transfer
    to: str | None
    payload: dict


class Transcript:
    """Ordered event log with monotonically increasing sequence numbers."""

    def __init__(self, record: bool = True) -> None:
        self.record = record
        self.events: list[Event] = []

    def _push(self, kind: str, party: str, to: str | None, payload: dict) -> None:
        if not self.record:
            return
        self.events.append(Event(len(self.events), kind, party, to, payload))

    def msg(self, party: str, to: str, **payload) -> None:
        if not self.record:  # nothing is kept, so there is nothing to check
            return
        for key, value in payload.items():
            if not isinstance(value, (int, str)):  # a bool is an int
                raise ValueError(
                    f"classical payload {key}={value!r} is not wire-safe "
                    "(integers, booleans and strings only)"
                )
        self._push("msg", party, to, payload)

    def transfer(self, party: str, to: str, label: str) -> None:
        self._push("transfer", party, to, {"qubit": label})

    def local(self, party: str, **payload) -> None:
        self._push("local", party, None, payload)

    def outcome(self, party: str, bit: int, **extra) -> None:
        self._push("outcome", party, None, {"bit": int(bit), **extra})

    def bob_events(self) -> list[Event]:
        """Events the server can see (``server_sees``)."""
        return [ev for ev in self.events if server_sees(ev.kind, ev.party)]

    def bob_classical_values(self) -> tuple:
        """Flat tuple of the classical values in the server's view, in order."""
        return tuple(v for ev in self.bob_events() for v in server_values(ev.kind, ev.payload))


    def to_jsonl(self) -> str:
        """One line per event: ``json.dumps`` of the event's fields, with
        ``party`` under the key ``from``, ``sort_keys=True`` and
        ``separators=(",", ":")``, byte for byte. One pass encodes the values
        (``_json``, its str and int branches inline); one ``%`` fills them in."""
        lines, values = [], []
        for ev in self.events:
            payload = ev.payload
            keys, line = _template(ev.kind, ev.party, ev.to, tuple(payload))
            lines.append(line)
            for key in keys:
                value = payload[key]
                values.append(encode_basestring_ascii(value) if type(value) is str else
                              str(value) if type(value) is int else _json(value))
            values.append(ev.seq)
        return "\n".join(lines) % tuple(values)

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=256)
def _template(kind: str, party: str, to: str | None, keys: tuple) -> tuple[tuple, str]:
    """The payload keys in sorted order, and the line of an event of this
    shape with a ``%s`` hole per payload value, in that order, and a ``%d``
    hole for its seq."""
    keys = tuple(sorted(keys))

    def fixed(value) -> str:
        return _json(value).replace("%", "%%")

    fields = ",".join(f"{fixed(key)}:%s" for key in keys)
    return keys, (f'{{"from":{fixed(party)},"kind":{fixed(kind)},"payload":{{{fields}}},'
                  f'"seq":%d,"to":{fixed(to)}}}')


def _json(value) -> str:
    """Compact JSON for the values events carry (strings, integers, None and
    label lists, joined in C unless an element is not a string); any other
    value goes through ``json.dumps``."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return str(value)
    if value is None:
        return "null"
    if type(value) is list:
        try:
            return "[" + ",".join(map(encode_basestring_ascii, value)) + "]"
        except TypeError:  # an element that is not a string
            return "[" + ",".join(map(_json, value)) + "]"
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
