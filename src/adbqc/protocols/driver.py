"""The one run driver for all three protocols.

Every protocol is the same ancilla-driven run: a session, a trap layout,
the register, the compiled gadget grid, the server's deviation, the output
measurements and the decoding. The protocols differ in two places only:
the client's part of each H R_Z gadget (``HRZ_BY_PROTOCOL``), and, through
the client's capability, who prepares the CZ ancilla and who measures the
output register.

A session bundles the joint quantum runtime (which holds the transcript and
mints the ancilla labels) and one named random stream per decision maker
(client choices, server choices, adversary, measurement outcomes), all
derived from the run seed so a rerun or an outcome-enumeration replay
repeats every choice exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..gadgets import NAMED_GATE_OCTANTS, PauliFrame, cz_on_runtime, frame_conjugate
from ..qsim import X_BASIS, X_GATE, Z_BASIS, Z_GATE, ZERO_AMPS
from ..rng import stream
from ..runtime import OutcomeSource, QuantumRuntime, SampledOutcomes
from ..transcript import ALICE, BOB, Transcript
from . import gate_client, measure_client, sueki
from .config import ProtocolConfig, VerificationReport
from .schedule import Layer, schedule
from .traps import TRAP_STATES, TrapLayout, decode_output, place_traps


@dataclass
class Session:
    config: ProtocolConfig
    rt: QuantumRuntime
    alice_rng: np.random.Generator
    adversary_rng: np.random.Generator


def new_session(
    config: ProtocolConfig, outcomes: OutcomeSource | None = None
) -> Session:
    source = outcomes or SampledOutcomes(rng=stream(config.seed, "outcomes"))
    return Session(
        config=config,
        rt=QuantumRuntime(source, Transcript(record=config.record_transcript)),
        alice_rng=stream(config.seed, "alice"),
        adversary_rng=stream(config.seed, "adversary"),
    )


def register_label(pos: int) -> str:
    return f"q{pos}"


def prepare_register(session: Session) -> list[str]:
    """Server initializes every register qubit to |0>."""
    labels = []
    for pos in range(session.config.num_qubits):
        label = register_label(pos)
        session.rt.add_qubit(label, ZERO_AMPS, BOB)
        labels.append(label)
    session.rt.tape.local(BOB, op="prepare_register", width=session.config.num_qubits)
    return labels


@dataclass(frozen=True)
class PhysicalLayer:
    patterns: tuple[tuple[int, int, int], ...]  # octants per physical position
    czs: tuple[tuple[int, int], ...]  # physical position pairs


def compile_layers(
    config: ProtocolConfig, layout: TrapLayout
) -> tuple[PhysicalLayer, ...]:
    """Map scheduled logical layers onto physical positions, pad idle
    positions with identity patterns and append trap preparations in the
    final layer."""
    logical_layers: tuple[Layer, ...] = schedule(
        config.algorithm, config.logical_width, config.depth
    )
    out = []
    for idx, layer in enumerate(logical_layers):
        patterns = [(0, 0, 0)] * config.num_qubits
        for q, octants in layer.patterns:
            patterns[layout.position_of_logical(q)] = octants
        if idx == config.depth - 1:
            for s in layout.trap_slots:
                pos = layout.permutation[s]
                patterns[pos] = NAMED_GATE_OCTANTS[TRAP_STATES[layout.roles[s]][2]]
        czs = tuple(
            (layout.position_of_logical(i), layout.position_of_logical(j))
            for i, j in layer.czs
        )
        out.append(PhysicalLayer(tuple(patterns), czs))
    return tuple(out)


HrzFn = Callable[[Session, str, int], int]


def run_grid(
    session: Session,
    layers: tuple[PhysicalLayer, ...],
    hrz: HrzFn,
    cz_prep_party: str = BOB,
) -> PauliFrame:
    """Drive every pattern slot and CZ through gadgets, tracking the frame.

    Each pattern is four H R_Z invocations with angles (0, b, g, d). The
    frame is pushed through each gate (``frame_conjugate``), which also
    gives the sign of the angle actually driven; the gadget's by-product
    then flips the frame's X (H R_Z) or first-qubit Z (CZ) record.
    """
    frame = PauliFrame.identity(session.config.num_qubits)
    for layer in layers:
        for pos, (kb, kg, kd) in enumerate(layer.patterns):
            label = register_label(pos)
            for k in (kd, kg, kb, 0):
                frame, sign = frame_conjugate(frame, "hrz", (pos,))
                if hrz(session, label, (sign * k) % 8):
                    frame = frame.flip_x(pos)
        for pi, pj in layer.czs:
            frame, _ = frame_conjugate(frame, "cz", (pi, pj))
            if cz_on_runtime(
                session.rt, register_label(pi), register_label(pj), cz_prep_party
            ):
                frame = frame.flip_z(pi)
    return frame


def pauli_hits(
    counts: tuple[int, int, int], num_qubits: int, rng: np.random.Generator
) -> tuple[tuple[str, int], ...]:
    """(kind, position) hits of ``counts`` (X, Z, XZ) stray Paulis on disjoint
    uniform positions: one permutation gives the X, then Z, then XZ hits."""
    a, b, c = counts
    if a + b + c > num_qubits:
        raise ValueError("more Pauli errors than positions")
    kinds = ("x",) * a + ("z",) * b + ("xz",) * c
    return tuple(zip(kinds, rng.permutation(num_qubits).tolist()))


def sample_attack(session: Session) -> tuple[tuple[str, int], ...]:
    """Resolve the random-Pauli adversary to concrete (kind, position) hits."""
    adv = session.config.adversary
    if adv.kind != "random_pauli":
        return ()
    if adv.pauli_positions is not None:
        return adv.pauli_positions
    return pauli_hits(adv.pauli_counts, session.config.num_qubits, session.adversary_rng)


def apply_attack(session: Session, hits: tuple[tuple[str, int], ...]) -> None:
    """Server deviation: stray Paulis on output positions before handover."""
    for kind, pos in hits:
        label = register_label(pos)
        if "z" in kind:
            session.rt.apply(Z_GATE, [label])
        if "x" in kind:
            session.rt.apply(X_GATE, [label])


OUTPUT_BASES = {"z": Z_BASIS, "x": X_BASIS}


def _server_measures(session: Session, bases: tuple[str, ...]) -> tuple[int, ...]:
    """The client announces a basis per position; the server measures there
    and reports, possibly lying under the tamper model."""
    adv = session.config.adversary
    tape = session.rt.tape
    raw = []
    for pos, basis_name in enumerate(bases):
        label = register_label(pos)
        tape.msg(ALICE, to=BOB, op="measure", qubit=label, basis=basis_name)
        bit, _ = session.rt.measure(label, OUTPUT_BASES[basis_name])
        if adv.kind == "trap_tamper" and session.adversary_rng.random() >= adv.tamper_rate:
            bit ^= 1
        tape.outcome(BOB, bit, qubit=label)
        tape.msg(BOB, to=ALICE, op="report", qubit=label, bit=bit)
        raw.append(bit)
    return tuple(raw)


def _client_measures(session: Session, bases: tuple[str, ...]) -> tuple[int, ...]:
    """The server hands the whole register over; the client measures it."""
    for pos in range(len(bases)):
        session.rt.transfer(register_label(pos), ALICE)
    raw = []
    for pos, basis_name in enumerate(bases):
        bit, _ = session.rt.measure(register_label(pos), OUTPUT_BASES[basis_name])
        session.rt.tape.outcome(ALICE, bit, qubit=register_label(pos))
        raw.append(bit)
    return tuple(raw)


@dataclass(frozen=True)
class RunResult:
    transcript: Transcript
    report: VerificationReport
    layout: TrapLayout
    frame: PauliFrame
    raw_bits: tuple[int, ...]
    attack_hits: tuple[tuple[str, int], ...]


# the client's part of each H R_Z gadget: prepare, measure or rotate
HRZ_BY_PROTOCOL: dict[str, HrzFn] = {
    "sueki": sueki.hrz,
    "p1": measure_client.hrz,
    "p2": gate_client.hrz,
}


def run(config: ProtocolConfig, outcomes: OutcomeSource | None = None) -> RunResult:
    """Execute one run of ``config``; ``outcomes`` overrides the sampled
    measurement outcomes (exact enumeration replays through it)."""
    capability = config.capability.kind
    session = new_session(config, outcomes)
    layout = place_traps(
        config.num_qubits, config.trap_count, config.protocol, session.alice_rng
    )
    prepare_register(session)
    layers = compile_layers(config, layout)
    cz_prep_party = ALICE if capability == "prepare_only" else BOB
    frame = run_grid(session, layers, HRZ_BY_PROTOCOL[config.protocol], cz_prep_party)

    # server-side deviation strikes just before the output stage
    hits = sample_attack(session)
    apply_attack(session, hits)

    bases = layout.basis_plan(config.plan())
    if capability == "measure_only":
        raw = _client_measures(session, bases)
    else:
        raw = _server_measures(session, bases)
    decoded = decode_output(raw, bases, frame, layout)
    report = VerificationReport(
        accepted=decoded.trap_errors == 0,
        trap_errors=decoded.trap_errors,
        trap_total=decoded.trap_total,
        computation_bits=decoded.computation_bits,
        transcript_digest=session.rt.tape.digest(),
    )
    return RunResult(session.rt.tape, report, layout, frame, raw, hits)


def _expect(config: ProtocolConfig, protocol: str) -> None:
    if config.protocol != protocol:
        raise ValueError(f"config is for protocol {config.protocol!r}")


def run_sueki(config: ProtocolConfig, outcomes: OutcomeSource | None = None) -> RunResult:
    _expect(config, "sueki")
    return run(config, outcomes)


def run_protocol1(
    config: ProtocolConfig, outcomes: OutcomeSource | None = None
) -> RunResult:
    _expect(config, "p1")
    return run(config, outcomes)


def run_protocol2(
    config: ProtocolConfig, outcomes: OutcomeSource | None = None
) -> RunResult:
    _expect(config, "p2")
    return run(config, outcomes)
