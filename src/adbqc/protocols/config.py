"""Run configuration, manifests and reports for the three protocols.

``sueki`` is the prepare-only-client protocol (no traps), ``p1`` the
measure-only-client protocol (two thirds of the register are traps), and
``p2`` the gate-only-client protocol (a chosen number of traps). The
configuration pins everything a rerun needs: register width, layer count,
trap count, the gate requests, the output measurement plan, the adversary
and the root seed.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace

from .. import __version__
from ..gadgets import NAMED_GATE_OCTANTS
from ..qsim import MAX_QUBITS
from .schedule import Layer, schedule
from .traps import resolve_trap_count

PROTOCOLS = ("sueki", "p1", "p2")

CAPABILITY_BY_PROTOCOL = {
    "sueki": "prepare_only",
    "p1": "measure_only",
    "p2": "gate_only",
}

# most ancillas one gadget holds beside the register at once: p1's H R_Z
# holds a Bell pair, every other gadget one qubit at a time
PEAK_ANCILLAS = {"sueki": 1, "p1": 2, "p2": 1}

_LIST = (list, tuple)  # the types a JSON array loads as, or a caller passes


def _typed(what: str, value, types, expected: str, length: int | None = None):
    """``value`` if it is one of ``types``, not a bool and of ``length`` if given;
    otherwise a ValueError naming the field, in place of a TypeError later on."""
    if isinstance(value, bool) or not isinstance(value, types) or (
        length is not None and len(value) != length
    ):
        raise ValueError(f"{what} must be {expected}, got {value!r}")
    return value


def _required(data: dict, key: str, where: str):
    """``data[key]``, or a ValueError naming the missing field and where."""
    if key not in data:
        raise ValueError(f"{where} needs {key}")
    return data[key]


def _object(what: str, value, keys: tuple[str, ...], where: str | None = None) -> dict:
    """``value`` if it is a dict whose every key is one of ``keys``; otherwise a
    ValueError naming the field, or each unknown key and where (default
    ``what``), in place of ignoring it."""
    value = _typed(what, value, dict, "an object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"{where or what} has unknown key(s) {', '.join(map(repr, unknown))}")
    return value


def _integer(what: str, value) -> int:
    """``value`` as an int; a bool, float or string is refused, not truncated."""
    return int(_typed(what, value, numbers.Integral, "an integer"))


@dataclass(frozen=True)
class ClientCapability:
    """What the client is physically able to do."""

    kind: str  # prepare_only | measure_only | gate_only

    def __post_init__(self) -> None:
        if self.kind not in ("prepare_only", "measure_only", "gate_only"):
            raise ValueError(f"unknown capability {self.kind!r}")


@dataclass(frozen=True)
class GateRequest:
    """One algorithm step: a single-qubit pattern or a CZ between two qubits.

    Single-qubit requests carry Euler octants (beta, gamma, delta), meaning
    R_Z(b pi/4) R_X(g pi/4) R_Z(d pi/4), or a named gate that resolves to
    octants. Targets are logical computation-qubit indices.
    """

    kind: str  # "su" | "cz"
    targets: tuple[int, ...]
    octants: tuple[int, int, int] | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        targets = _typed("targets", self.targets, _LIST, "a list")
        object.__setattr__(self, "targets", tuple(_integer("target", q) for q in targets))
        if self.octants is not None:
            octants = _typed("octants", self.octants, _LIST, "a list")
            octants = tuple(_integer("octant", k) for k in octants)
            object.__setattr__(self, "octants", octants)
        if self.kind == "su":
            if len(self.targets) != 1:
                raise ValueError("single-qubit request needs exactly one target")
            if (self.octants is None) == (self.name is None):
                raise ValueError("give either octants or a gate name")
            if self.name is not None and self.name not in NAMED_GATE_OCTANTS:
                raise ValueError(f"unknown gate name {self.name!r}")
            if self.octants is not None and (
                len(self.octants) != 3 or any(not 0 <= k <= 7 for k in self.octants)
            ):
                raise ValueError(f"octants must be three values in 0..7: {self.octants}")
        elif self.kind == "cz":
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError("cz needs two distinct targets")
            if self.octants is not None or self.name is not None:
                raise ValueError("cz takes no angles")
        else:
            raise ValueError(f"unknown request kind {self.kind!r}")

    @classmethod
    def single(cls, target: int, octants=None, name=None) -> "GateRequest":
        octs = tuple(octants) if octants is not None else None
        return cls("su", (target,), octs, name)

    @classmethod
    def cz_pair(cls, i: int, j: int) -> "GateRequest":
        return cls("cz", (i, j))

    def resolved_octants(self) -> tuple[int, int, int]:
        if self.kind != "su":
            raise ValueError("only single-qubit requests carry octants")
        if self.name is not None:
            return NAMED_GATE_OCTANTS[self.name]
        return self.octants  # type: ignore[return-value]


@dataclass(frozen=True)
class AdversaryConfig:
    """Server deviation model.

    - none: honest run.
    - random_pauli: X / Z / XZ errors on disjoint uniformly random output
      positions, counts given by ``pauli_counts`` (three integers), or at
      the fixed (kind, integer position) hits of ``pauli_positions``, which
      then set the counts (given counts must be zero or match them).
    - trap_tamper: every reported output bit is correct only with
      probability ``tamper_rate``, independently.

    Each kind refuses another kind's parameter unless it is left at its default.
    """

    kind: str = "none"
    pauli_counts: tuple[int, int, int] = (0, 0, 0)
    tamper_rate: float = 0.0
    pauli_positions: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "random_pauli", "trap_tamper"):
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        counts = _typed("pauli_counts", self.pauli_counts, _LIST, "a list")
        counts = tuple(_integer("pauli count", c) for c in counts)
        if len(counts) != 3:
            raise ValueError(f"pauli counts must be three values (X, Z, XZ): {counts}")
        object.__setattr__(self, "pauli_counts", counts)
        if self.kind == "random_pauli":
            if any(c < 0 for c in self.pauli_counts):
                raise ValueError("pauli counts must be non-negative")
            if self.pauli_positions is not None:
                entries = _typed("pauli_positions", self.pauli_positions, _LIST, "a list")
                pairs = (_typed("pauli_positions entry", e, _LIST, "a [kind, position] pair", 2)
                         for e in entries)
                positions = tuple((k, _integer("pauli position", p)) for k, p in pairs)
                if any(k not in ("x", "z", "xz") for k, _ in positions):
                    raise ValueError("pauli position kinds must be x, z or xz")
                if len({p for _, p in positions}) != len(positions):
                    raise ValueError("pauli positions must be distinct")
                listed = tuple(sum(k == kind for k, _ in positions) for kind in ("x", "z", "xz"))
                if counts not in ((0, 0, 0), listed):
                    raise ValueError(f"pauli counts {counts} differ from the positions' {listed}")
                object.__setattr__(self, "pauli_counts", listed)
                object.__setattr__(self, "pauli_positions", positions)
        elif self.pauli_positions is not None or any(counts):
            raise ValueError("pauli counts and positions only apply to random_pauli")
        rate = _typed("tamper_rate", self.tamper_rate, numbers.Real, "a number")
        object.__setattr__(self, "tamper_rate", float(rate))
        if self.kind != "trap_tamper" and self.tamper_rate != 0.0:
            raise ValueError("a tamper rate only applies to trap_tamper")
        if self.kind == "trap_tamper" and not 0.0 <= self.tamper_rate <= 1.0:
            raise ValueError(f"tamper rate {self.tamper_rate} outside [0, 1]")


HONEST = AdversaryConfig()


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything that defines one run; the seed makes it reproducible. The checks
    keep the algorithm's ``schedule``, which refuses one deeper than ``depth``, as ``layers``."""

    protocol: str
    num_qubits: int
    depth: int
    trap_count: int | None = None
    seed: int = 0
    algorithm: tuple[GateRequest, ...] = ()
    output_bases: tuple[str, ...] | None = None
    adversary: AdversaryConfig = HONEST
    record_transcript: bool = True
    layers: tuple[Layer, ...] = field(init=False, repr=False, compare=False)  # not an input

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        for name in ("num_qubits", "depth", "trap_count", "seed"):
            value = getattr(self, name)
            if not (name == "trap_count" and value is None):  # None: resolved below
                object.__setattr__(self, name, _integer(name, value))
        if self.num_qubits < 1:
            raise ValueError("need at least one register qubit")
        if self.depth < 1:
            raise ValueError("need at least one layer")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        peak = self.num_qubits + PEAK_ANCILLAS[self.protocol]
        if peak > MAX_QUBITS:
            raise ValueError(
                f"{self.protocol} at N={self.num_qubits} peaks at {peak} qubits, "
                f"over the budget of {MAX_QUBITS}"
            )
        object.__setattr__(self, "algorithm", tuple(self.algorithm))
        traps = resolve_trap_count(self.protocol, self.num_qubits, self.trap_count)
        object.__setattr__(self, "trap_count", traps)
        if self.logical_width < 1:
            raise ValueError("no computation qubits left after traps")
        for req in self.algorithm:
            if any(not 0 <= q < self.logical_width for q in req.targets):
                raise ValueError(
                    f"request targets {req.targets} outside logical width "
                    f"{self.logical_width}"
                )
        object.__setattr__(self, "layers", schedule(self.algorithm, self.logical_width, self.depth))
        if self.output_bases is not None:
            bases = _typed("output_bases", self.output_bases, _LIST, "a list")
            bases = tuple(_typed("output basis", b, str, "a string").lower() for b in bases)
            if len(bases) != self.logical_width or any(b not in ("z", "x") for b in bases):
                raise ValueError("output_bases needs one of z/x per computation qubit")
            object.__setattr__(self, "output_bases", bases)
        if self.adversary.kind == "random_pauli":
            if self.protocol != "p1":
                raise ValueError(
                    "the stray-Pauli adversary acts on the handed-over register, "
                    "which only p1 has"
                )
            if sum(self.adversary.pauli_counts) > self.num_qubits:
                raise ValueError("more Pauli errors than output positions")
            if self.adversary.pauli_positions is not None and any(
                not 0 <= p < self.num_qubits
                for _, p in self.adversary.pauli_positions
            ):
                raise ValueError("pauli position outside the register")
        if self.adversary.kind == "trap_tamper" and self.protocol != "p2":
            raise ValueError(
                "the report-tamper adversary corrupts server-reported bits, "
                "which only p2 has"
            )

    @property
    def logical_width(self) -> int:
        return self.num_qubits - self.trap_count

    @property
    def capability(self) -> ClientCapability:
        return ClientCapability(CAPABILITY_BY_PROTOCOL[self.protocol])

    def plan(self) -> tuple[str, ...]:
        return self.output_bases or ("z",) * self.logical_width

    def with_seed(self, seed: int) -> "ProtocolConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the trap check plus the decoded computation bits."""

    accepted: bool
    trap_errors: int
    trap_total: int
    computation_bits: tuple[int, ...]
    transcript_digest: str

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "trap_errors": self.trap_errors,
            "trap_total": self.trap_total,
            "computation_bits": list(self.computation_bits),
            "transcript_digest": self.transcript_digest,
        }


# ---------------------------------------------------------------------------
# Manifest (de)serialization


def config_to_dict(config: ProtocolConfig) -> dict:
    adv = config.adversary
    params: dict = {}
    if adv.kind == "random_pauli":
        params["pauli_counts"] = list(adv.pauli_counts)
        if adv.pauli_positions is not None:
            params["pauli_positions"] = [[k, p] for k, p in adv.pauli_positions]
    elif adv.kind == "trap_tamper":
        params["tamper_rate"] = adv.tamper_rate
    data = {
        "protocol": config.protocol,
        "num_register_qubits": config.num_qubits,
        "depth": config.depth,
        "trap_count": config.trap_count,
        "seed": config.seed,
        "algorithm": [
            {
                "kind": r.kind,
                "targets": list(r.targets),
                **({"octants": list(r.octants)} if r.octants is not None else {}),
                **({"name": r.name} if r.name is not None else {}),
            }
            for r in config.algorithm
        ],
        "output_bases": list(config.output_bases) if config.output_bases else None,
        "adversary": {"kind": adv.kind, "params": params},
    }
    # written only when off, so every recording config keeps its dict
    if not config.record_transcript:
        data["record_transcript"] = False
    return data


_CONFIG_KEYS = ("protocol", "num_register_qubits", "depth", "trap_count", "seed",
                "algorithm", "output_bases", "adversary", "record_transcript")


def _request(i: int, entry) -> GateRequest:
    """The request of algorithm entry ``i`` of a config dict."""
    where = f"algorithm entry {i}"
    entry = _object("algorithm entry", entry, ("kind", "targets", "octants", "name"), where)
    return GateRequest(
        kind=_required(entry, "kind", where),
        targets=_required(entry, "targets", where),
        octants=entry.get("octants"),
        name=entry.get("name"),
    )


def config_from_dict(data: dict) -> ProtocolConfig:
    """The config of a dict in the layout ``config_to_dict`` writes; an
    unknown key at any level is refused, a missing optional one defaults."""
    data = _object("config", data, _CONFIG_KEYS)
    adv_data = _object("adversary", data.get("adversary", {}), ("kind", "params"))
    params = _object("adversary params", adv_data.get("params", {}),
                     ("pauli_counts", "tamper_rate", "pauli_positions"))
    adversary = AdversaryConfig(
        kind=adv_data.get("kind", "none"),
        pauli_counts=params.get("pauli_counts", (0, 0, 0)),
        tamper_rate=params.get("tamper_rate", 0.0),
        pauli_positions=params.get("pauli_positions"),
    )
    entries = _typed("algorithm", data.get("algorithm", ()), _LIST, "a list")
    algorithm = tuple(_request(i, entry) for i, entry in enumerate(entries))
    record = data.get("record_transcript", True)
    if not isinstance(record, bool):
        raise ValueError(f"record_transcript must be true or false, got {record!r}")
    return ProtocolConfig(
        protocol=_required(data, "protocol", "config"),
        num_qubits=_required(data, "num_register_qubits", "config"),
        depth=data.get("depth", 1),
        trap_count=data.get("trap_count"),
        seed=data.get("seed", 0),
        algorithm=algorithm,
        output_bases=data.get("output_bases"),
        adversary=adversary,
        record_transcript=record,
    )


@dataclass(frozen=True)
class RunManifest:
    """Self-contained description of a run, written as JSON and read back
    by ``config_object``, then ``config_from_dict``.

    Rerunning a manifest reproduces the transcript and report byte for
    byte; the creation timestamp is provenance only and takes no part in
    seeding or output.
    """

    config: ProtocolConfig
    tool: str = "adbqc"
    version: str = __version__
    created: str = ""  # ISO-8601, filled when the manifest is first written

    def to_json(self) -> str:
        return json.dumps(
            {
                "tool": self.tool,
                "version": self.version,
                "created": self.created,
                "config": config_to_dict(self.config),
            },
            sort_keys=True,
            indent=2,
        )


MANIFEST_KEYS = ("tool", "version", "created", "config")  # what ``to_json`` writes


def config_object(data) -> dict:
    """The config object of a parsed config file, or of a manifest, which
    nests it under ``config``: the one reader of what ``to_json`` writes."""
    data = _typed("config", data, dict, "an object")
    if data.keys() & MANIFEST_KEYS:
        data = _required(_object("manifest", data, MANIFEST_KEYS), "config", "manifest")
    return _typed("config", data, dict, "an object")
