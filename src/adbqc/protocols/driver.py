"""The one run driver for all three protocols.

Every protocol is the same ancilla-driven run: a session, a trap layout,
the register, the compiled gadget grid, the server's deviation, the output
measurements and the decoding. The protocols differ in two places only:
the client's part of each H R_Z gadget (``CLIENT_BY_PROTOCOL``), and,
through the client's capability, who prepares the CZ ancilla and who
measures the output register.

No choice of the client or the adversary depends on what the server
measures, so ``draw_plan`` draws them all from the run seed's "alice" and
"adversary" streams before the run starts: a run is a function of its plan
and its measurement outcomes. A session holds the config, the joint
quantum runtime (which holds the transcript and mints the ancilla labels)
and the client's Pauli frame. The grid is one flat list of gadget steps,
each driven by ``drive_step``; a sampled run drives them in order, and
``enumerate_run`` drives each on forks of one session, checks that they
agree up to the frame, and goes on with one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from types import ModuleType
from typing import Callable, NamedTuple

import numpy as np

from ..gadgets import NAMED_GATE_OCTANTS, PauliFrame, cz_on_runtime, frame_conjugate
from ..qsim import GADGET_FIDELITY_ATOL, X_BASIS, X_GATE, Z_BASIS, Z_GATE, ZERO_AMPS
from ..qsim import fidelity_up_to_phase
from ..rng import stream
from ..runtime import (
    OutcomeSource,
    QuantumRuntime,
    ReplayOutcomes,
    RunBranch,
    SampledOutcomes,
    enumerate_runs,
)
from ..transcript import ALICE, BOB, Transcript
from . import gate_client, measure_client, sueki
from .config import ProtocolConfig, VerificationReport
from .schedule import schedule
from .traps import TRAP_STATES, DecodedOutput, TrapLayout, decode_output, place_traps


@dataclass
class Session:
    config: ProtocolConfig
    rt: QuantumRuntime
    frame: PauliFrame  # the client's pending correction

    def fork(self, outcomes: OutcomeSource) -> "Session":
        """A copy that goes on from here with ``outcomes``."""
        return Session(self.config, self.rt.fork(outcomes), self.frame)


def new_session(
    config: ProtocolConfig, outcomes: OutcomeSource | None = None
) -> Session:
    source = outcomes or SampledOutcomes(rng=stream(config.seed, "outcomes"))
    return Session(
        config=config,
        rt=QuantumRuntime(source, Transcript(record=config.record_transcript)),
        frame=PauliFrame.identity(config.num_qubits),
    )


def register_label(pos: int) -> str:
    return f"q{pos}"


def prepare_register(session: Session) -> None:
    """Server initializes every register qubit to |0>."""
    for pos in range(session.config.num_qubits):
        session.rt.add_qubit(register_label(pos), ZERO_AMPS, BOB)
    session.rt.tape.local(BOB, op="prepare_register", width=session.config.num_qubits)


class Step(NamedTuple):
    """One gadget invocation of the grid: an H R_Z on one position, with the
    client's secrets for it, or a CZ on two (``octant`` is 0)."""

    kind: str  # "hrz" or "cz"
    positions: tuple[int, ...]
    octant: int = 0
    secrets: tuple[int, ...] = ()


def compile_steps(config: ProtocolConfig, layout: TrapLayout) -> tuple[Step, ...]:
    """Map the scheduled logical layers onto physical positions as one flat
    list of steps: per layer, every position's pattern, then the CZs.

    A pattern is four H R_Z invocations with angles (0, b, g, d). Idle
    positions get the identity pattern, and trap positions their
    preparation in the final layer.
    """
    steps = []
    for idx, layer in enumerate(schedule(config.algorithm, config.logical_width, config.depth)):
        patterns = [(0, 0, 0)] * config.num_qubits
        for q, octants in layer.patterns:
            patterns[layout.position_of_logical(q)] = octants
        if idx == config.depth - 1:
            for s in layout.trap_slots:
                pos = layout.permutation[s]
                patterns[pos] = NAMED_GATE_OCTANTS[TRAP_STATES[layout.roles[s]][2]]
        for pos, (kb, kg, kd) in enumerate(patterns):
            steps.extend(Step("hrz", (pos,), k) for k in (kd, kg, kb, 0))
        steps.extend(
            Step("cz", (layout.position_of_logical(i), layout.position_of_logical(j)))
            for i, j in layer.czs
        )
    return tuple(steps)


def drive_step(session: Session, step: Step) -> None:
    """Drive one step through its gadget and track the session's frame.

    The frame is pushed through the gate (``frame_conjugate``), which also
    gives the sign of the angle actually driven; the gadget's by-product
    then flips the frame's X (H R_Z) or first-qubit Z (CZ) record.
    """
    config = session.config
    frame, sign = frame_conjugate(session.frame, step.kind, step.positions)
    if step.kind == "hrz":
        (pos,) = step.positions
        hrz = CLIENT_BY_PROTOCOL[config.protocol].hrz
        if hrz(session.rt, register_label(pos), (sign * step.octant) % 8, step.secrets):
            frame = frame.flip_x(pos)
    else:
        pi, pj = step.positions
        prep_party = ALICE if config.capability.kind == "prepare_only" else BOB
        if cz_on_runtime(session.rt, register_label(pi), register_label(pj), prep_party):
            frame = frame.flip_z(pi)
    session.frame = frame


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


def sample_attack(
    config: ProtocolConfig, rng: np.random.Generator
) -> tuple[tuple[str, int], ...]:
    """Resolve the random-Pauli adversary to concrete (kind, position) hits."""
    adv = config.adversary
    if adv.kind != "random_pauli":
        return ()
    if adv.pauli_positions is not None:
        return adv.pauli_positions
    return pauli_hits(adv.pauli_counts, config.num_qubits, rng)


def apply_attack(session: Session, hits: tuple[tuple[str, int], ...]) -> None:
    """Server deviation: stray Paulis on output positions before handover."""
    for kind, pos in hits:
        label = register_label(pos)
        if "z" in kind:
            session.rt.apply(Z_GATE, [label])
        if "x" in kind:
            session.rt.apply(X_GATE, [label])


OUTPUT_BASES = {"z": Z_BASIS, "x": X_BASIS}


def _server_measures(
    session: Session, bases: tuple[str, ...], flips: tuple[bool, ...]
) -> tuple[int, ...]:
    """The client announces a basis per position; the server measures there
    and reports, lying where the tamper model flips the bit."""
    tape = session.rt.tape
    raw = []
    for pos, basis_name in enumerate(bases):
        label = register_label(pos)
        tape.msg(ALICE, to=BOB, op="measure", qubit=label, basis=basis_name)
        bit, _ = session.rt.measure(label, OUTPUT_BASES[basis_name])
        bit ^= flips[pos]
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


# the client's part of each H R_Z gadget (prepare, measure or rotate): its
# ``draw_secrets(rng)`` and its ``hrz(rt, label, octant, secrets)``
CLIENT_BY_PROTOCOL: dict[str, ModuleType] = {
    "sueki": sueki,
    "p1": measure_client,
    "p2": gate_client,
}


class Plan(NamedTuple):
    """Every choice of a run that is not a measurement outcome."""

    layout: TrapLayout
    steps: tuple[Step, ...]  # each H R_Z step carries its client secrets
    hits: tuple[tuple[str, int], ...]  # the stray Paulis
    flips: tuple[bool, ...]  # per output position, whether a report is flipped


def draw_plan(config: ProtocolConfig) -> Plan:
    """Draw every choice of a run before it starts. From the "alice" stream:
    the trap layout, then each H R_Z step's client secrets in step order;
    from the "adversary" stream: the stray-Pauli hits, then the tamper flip
    of each output position."""
    alice = stream(config.seed, "alice")
    layout = place_traps(config.num_qubits, config.trap_count, config.protocol, alice)
    draw_secrets = CLIENT_BY_PROTOCOL[config.protocol].draw_secrets
    steps = tuple(
        step._replace(secrets=draw_secrets(alice)) if step.kind == "hrz" else step
        for step in compile_steps(config, layout)
    )
    adversary = stream(config.seed, "adversary")
    hits = sample_attack(config, adversary)
    adv = config.adversary
    flips = tuple(
        adv.kind == "trap_tamper" and adversary.random() >= adv.tamper_rate
        for _ in range(config.num_qubits)
    )
    return Plan(layout, steps, hits, flips)


def finish_run(session: Session, plan: Plan) -> tuple[tuple[int, ...], DecodedOutput]:
    """The server's deviation, the output measurements and the decoding:
    returns the raw output bits and the decoded output."""
    config = session.config
    # server-side deviation strikes just before the output stage
    apply_attack(session, plan.hits)

    bases = plan.layout.basis_plan(config.plan())
    if config.capability.kind == "measure_only":
        raw = _client_measures(session, bases)
    else:
        raw = _server_measures(session, bases, plan.flips)
    return raw, decode_output(raw, bases, session.frame, plan.layout)


def run(config: ProtocolConfig, outcomes: OutcomeSource | None = None) -> RunResult:
    """Execute one run of ``config``; ``outcomes`` overrides the sampled
    measurement outcomes."""
    session = new_session(config, outcomes)
    plan = draw_plan(config)
    prepare_register(session)
    for step in plan.steps:
        drive_step(session, step)
    raw, decoded = finish_run(session, plan)
    report = VerificationReport(
        accepted=decoded.trap_errors == 0,
        trap_errors=decoded.trap_errors,
        trap_total=decoded.trap_total,
        computation_bits=decoded.computation_bits,
        transcript_digest=session.rt.tape.digest(),
    )
    return RunResult(session.rt.tape, report, plan.layout, session.frame, raw, plan.hits)


def _fork_branches(session: Session, drive: Callable[[Session], object]) -> list[RunBranch]:
    """``enumerate_runs`` of ``drive`` on forks of ``session``; each
    branch's value is (the fork after ``drive``, what ``drive`` returned)."""

    def on_fork(source: OutcomeSource):
        fork = session.fork(source)
        return fork, drive(fork)

    return enumerate_runs(on_fork)


def _corrected_step(session: Session, step: Step) -> np.ndarray:
    """``drive_step``, then the frame-corrected register state."""
    drive_step(session, step)
    return session.frame.matrix_on(session.rt.snapshot())


def enumerate_run(config: ProtocolConfig) -> list[RunBranch]:
    """Every output path of a quiet ``run(config)``, with its decoded
    computation bits as the value, sorted by outcomes like ``enumerate_runs``.

    Each gadget realizes its gate on every outcome up to a by-product the
    frame records, so every fork of a step must leave the same corrected
    register state; the walk checks that and goes on with the first fork,
    the greedy path. The output stage is then enumerated on that session:
    each path is the kept outcomes plus an output path, with the output
    path's probability.
    """
    session = new_session(replace(config, record_transcript=False), ReplayOutcomes(()))
    plan = draw_plan(config)
    prepare_register(session)
    kept: tuple[int, ...] = ()
    for step in plan.steps:
        first, *rest = _fork_branches(session, functools.partial(_corrected_step, step=step))
        session, state = first.value
        for branch in rest:
            if fidelity_up_to_phase(state, branch.value[1]) < 1.0 - GADGET_FIDELITY_ATOL:
                raise AssertionError(
                    f"{step.kind} step on {step.positions} (octant {step.octant}): outcomes "
                    f"{first.outcomes} and {branch.outcomes} leave different states"
                )
        kept += first.outcomes
    leaves = _fork_branches(session, lambda fork: finish_run(fork, plan)[1].computation_bits)
    return [RunBranch(kept + br.outcomes, br.probability, br.value[1]) for br in leaves]


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
