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
each driven by ``drive_step`` through ``drive_gadget``, the one map from a
gadget to the step it drives. A sampled run drives them in order;
``enumerate_run`` applies each step's greedy compiled row (``walk_run``,
which checks the rows, ``gadget_rows``, once per process), and enumerates
the output stage on forks of the walk's session (``enumerate_output``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import ModuleType
from typing import NamedTuple, Sequence

import numpy as np

from ..gadgets import NAMED_GATE_OCTANTS, PauliFrame, announced_octant, cz_on_runtime
from ..gadgets import frame_conjugate
from ..qsim import CZ_GATE, GADGET_FIDELITY_ATOL, HRZ_BY_OCTANT, X_BASIS, X_GATE, Z_BASIS
from ..qsim import Z_GATE, ZERO_AMPS
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
from .traps import TRAP_STATES, DecodedOutput, TrapLayout, decode_output, place_traps


@dataclass
class Session:
    config: ProtocolConfig
    rt: QuantumRuntime
    frame: PauliFrame  # the client's pending correction
    kept: tuple[int, ...] = ()  # the outcomes ``walk_run`` took, from the rows it applied

    def fork(self, outcomes: OutcomeSource) -> "Session":
        """A copy that goes on from here with ``outcomes``."""
        return replace(self, rt=self.rt.fork(outcomes))


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
    for idx, layer in enumerate(config.layers):
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


def drive_gadget(
    rt: QuantumRuntime, gadget: str, frame: PauliFrame, positions: tuple[int, ...],
    octant: int, secrets: tuple[int, ...], prep_party: str = BOB,
) -> PauliFrame:
    """Drive one gadget on the register qubits at ``positions`` and return
    ``frame`` with its by-product recorded: a protocol's H R_Z (``gadget``
    "sueki", "p1" or "p2", its client's ``hrz`` under ``secrets``) flips its
    target's X record, and "cz" flips its first target's Z record."""
    if gadget == "cz":
        pi, pj = positions
        z = cz_on_runtime(rt, register_label(pi), register_label(pj), prep_party)
        return frame.flip_z(pi) if z else frame
    (pos,) = positions
    x = CLIENT_BY_PROTOCOL[gadget].hrz(rt, register_label(pos), octant, secrets)
    return frame.flip_x(pos) if x else frame


def step_key(session: Session, step: Step) -> tuple[PauliFrame, tuple]:
    """The session's frame pushed through the step's gate by ``frame_conjugate``,
    and the step's row key (gadget, octant signed by the frame, secrets)."""
    frame, sign = frame_conjugate(session.frame, step.kind, step.positions)
    gadget = "cz" if step.kind == "cz" else session.config.protocol
    return frame, (gadget, (sign * step.octant) % 8, step.secrets)


def drive_step(session: Session, step: Step) -> tuple:
    """Drive one step through ``drive_gadget`` and track the session's frame
    (``step_key``); returns the step's row key."""
    frame, key = step_key(session, step)
    gadget, octant, secrets = key
    # only the CZ gadget's ancillas depend on who prepares them
    prep_party = ALICE if gadget == "cz" and session.config.capability.kind == "prepare_only" else BOB
    session.frame = drive_gadget(
        session.rt, gadget, frame, step.positions, octant, secrets, prep_party
    )
    return key


def pauli_hits(
    counts: tuple[int, int, int], positions: tuple[int, ...]
) -> tuple[tuple[str, int], ...]:
    """(kind, position) hits of ``counts`` (X, Z, XZ) stray Paulis on the first
    of the distinct ``positions``: X, then Z, then XZ. The one placement rule of
    ``sample_attack``'s draw and ``adversary.exact_escape``'s enumeration."""
    a, b, c = counts
    return tuple(zip(("x",) * a + ("z",) * b + ("xz",) * c, positions))


def sample_attack(
    config: ProtocolConfig, rng: np.random.Generator
) -> tuple[tuple[str, int], ...]:
    """Resolve the random-Pauli adversary to concrete (kind, position) hits: its
    fixed ``pauli_positions``, or ``pauli_hits`` on a uniform permutation, so
    every ordered placement on distinct positions is equally likely."""
    adv = config.adversary
    if adv.kind != "random_pauli":
        return ()
    if adv.pauli_positions is not None:
        return adv.pauli_positions
    return pauli_hits(adv.pauli_counts, rng.permutation(config.num_qubits).tolist())


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


# the client's part of each H R_Z gadget (prepare, measure or rotate): its per-step
# ``COINS``, their ``fold(*coins)`` into secrets, and ``hrz(rt, label, octant, secrets)``
CLIENT_BY_PROTOCOL: dict[str, ModuleType] = {
    "sueki": sueki,
    "p1": measure_client,
    "p2": gate_client,
}
# (gadget, octant, secrets) -> the gadget's rows (``gadget_rows``), compiled on first use
_ROWS: dict[tuple, tuple[tuple, ...]] = {}
_GREEDY: dict[tuple, np.ndarray] = {}  # row key -> its first row's K / sqrt(p), with the rows
_SCORES: dict[tuple, np.ndarray] = {}  # row key -> its rows' ``row_fidelities``, with the rows
_CHECKED: set[tuple] = set()  # row keys ``_check_rows`` has passed


def draw_secrets(client: ModuleType, rng: np.random.Generator) -> tuple:
    """One step's secrets of ``client``: its ``COINS`` in order, one scalar draw each, ``fold``ed."""
    return client.fold(*[int(rng.integers(high)) for high in client.COINS])


class Plan(NamedTuple):
    """Every choice of a run that is not a measurement outcome."""

    layout: TrapLayout
    steps: tuple[Step, ...]  # each H R_Z step carries its client secrets
    hits: tuple[tuple[str, int], ...]  # the stray Paulis
    flips: tuple[bool, ...]  # per output position, whether a report is flipped


def draw_plan(config: ProtocolConfig) -> Plan:
    """Draw every choice of a run before it starts. From the "alice" stream:
    the trap layout, then each H R_Z step's client secrets in step order;
    from the "adversary" stream, opened only if read: the stray-Pauli hits,
    then the tamper flip of each output position."""
    alice = stream(config.seed, "alice")
    layout = place_traps(config.num_qubits, config.trap_count, config.protocol, alice)
    client = CLIENT_BY_PROTOCOL[config.protocol]
    steps = tuple(
        step._replace(secrets=draw_secrets(client, alice)) if step.kind == "hrz" else step
        for step in compile_steps(config, layout)
    )
    adv = config.adversary
    draws = adv.kind == "trap_tamper" or adv.kind == "random_pauli" and adv.pauli_positions is None
    adversary = stream(config.seed, "adversary") if draws else None
    hits = sample_attack(config, adversary)
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


def gadget_rows(gadget: str, octant: int, secrets: tuple[int, ...]) -> tuple[tuple, ...]:
    """Every outcome path of one ``drive_gadget`` step, whatever its input.

    A path applies a fixed operator K to the register, so one enumeration on
    the register maximally entangled with a reference finds them all: the
    path's post-state is K / sqrt(d p) (d the register dimension, p the path
    probability). Each row is (outcomes, M = U^dagger F K, announced octant,
    by-product bit: X on an H R_Z's target, Z on a CZ's first), F its
    correction and U the ideal gate, kept read-only in ``_ROWS`` from a
    key's first call; the first, greedy, row's K / sqrt(p) = F U M / sqrt(p)
    goes to ``_GREEDY`` and the rows' ``row_fidelities`` to ``_SCORES``. The
    key is not checked here: ``oracle`` checks the ones its callers give.
    """
    key = (gadget, octant, secrets)
    if key in _ROWS:
        return _ROWS[key]
    width = 2 if gadget == "cz" else 1
    dim = 1 << width
    labels = [register_label(i) for i in range(2 * width)]  # the register, then the reference
    gate = CZ_GATE if gadget == "cz" else HRZ_BY_OCTANT[octant]

    def run_fn(src: OutcomeSource) -> tuple:
        rt = QuantumRuntime(src)
        rt.load(np.eye(dim).reshape(-1) / math.sqrt(dim), labels, BOB)
        frame = PauliFrame.identity(2 * width)  # the reference carries no by-product
        frame = drive_gadget(rt, gadget, frame, tuple(range(width)), octant, secrets)
        post = frame.matrix_on(rt.snapshot(labels)).reshape(dim, dim).T
        operator = math.sqrt(dim * src.path_probability()) * gate.conj().T @ post
        operator.flags.writeable = False
        # the prepare-only client announces by the gadget's rule from the first outcome
        announced = announced_octant(octant, *secrets, src.bits[0]) if gadget == "sueki" else None
        return src.bits, operator, announced, frame.z[0] if gadget == "cz" else frame.x[0]

    _ROWS[key] = rows = tuple(br.value for br in enumerate_runs(run_fn))
    _, operator, _, by_product = rows[0]
    pauli = np.kron(np.eye(2), Z_GATE) if gadget == "cz" else X_GATE  # on the low qubit
    scale = math.sqrt(dim) / np.linalg.norm(operator)  # 1 / sqrt(p)
    _GREEDY[key] = np.linalg.matrix_power(pauli, by_product) @ gate @ (operator * scale)
    _SCORES[key] = row_fidelities(rows)
    _SCORES[key].flags.writeable = False
    return rows


def row_scores(gadget: str, octant: int, secrets: tuple[int, ...]) -> np.ndarray:
    """The ``row_fidelities`` of the key's ``gadget_rows``, compiled with them."""
    gadget_rows(gadget, octant, secrets)
    return _SCORES[gadget, octant, secrets]


def row_fidelities(rows: Sequence[tuple]) -> np.ndarray:
    """Each row's |tr M|^2 / (d ||M||_F^2), M = U^dagger F K (one shape for all):
    its path's fidelity with the gate on the register maximally entangled
    with a reference, 1 exactly when M is a scalar times I."""
    ops = np.stack([op for _, op, _, _ in rows])
    trace = np.trace(ops, axis1=1, axis2=2)
    norm = (ops.real**2 + ops.imag**2).sum((1, 2))
    return (trace.real**2 + trace.imag**2) / (ops.shape[1] * norm)


def _check_rows(key: tuple, step: Step) -> None:
    """Refuse ``step`` unless every row of its ``key`` passes by its score
    (``row_scores``), naming the worst row's outcomes. Each key is checked
    once per process."""
    if key in _CHECKED:
        return
    fidelity = row_scores(*key)
    worst = int(np.argmin(fidelity))
    if fidelity[worst] < 1.0 - GADGET_FIDELITY_ATOL:
        raise AssertionError(
            f"{step.kind} step on {step.positions} (octant {step.octant}): outcomes "
            f"{gadget_rows(*key)[worst][0]} and the gate leave different states"
        )
    _CHECKED.add(key)


def walk_run(config: ProtocolConfig) -> tuple[Session, Plan]:
    """Walk every gadget step of a quiet ``run(config)`` and return the
    session and plan where ``finish_run`` starts.

    Each gadget realizes its gate on every outcome up to a by-product the
    frame records, whatever the register holds, so no step is driven: the
    walk checks the compiled rows of the step's key (``_check_rows``) and
    applies the greedy row, the path ``run`` takes on ``ReplayOutcomes(())``:
    its operator (``_GREEDY``), its by-product and its outcomes.
    """
    session = Session(config, QuantumRuntime(ReplayOutcomes(())),  # records no transcript
                      PauliFrame.identity(config.num_qubits))
    plan = draw_plan(config)
    prepare_register(session)
    for step in plan.steps:
        frame, key = step_key(session, step)
        _check_rows(key, step)
        bits, _, _, by_product = gadget_rows(*key)[0]
        # a row's operator reads the register little-endian, apply's labels[0] is its high bit
        session.rt.apply(_GREEDY[key], [register_label(pos) for pos in reversed(step.positions)])
        flip = frame.flip_z if step.kind == "cz" else frame.flip_x
        session.frame = flip(step.positions[0]) if by_product else frame
        session.kept += bits
    return session, plan


def enumerate_output(session: Session, plan: Plan) -> list[RunBranch]:
    """Every path of the output stage, ``finish_run(session, plan)``, each on
    a fork of ``session``: the session's kept outcomes plus the output path,
    with the output path's probability and the ``DecodedOutput`` as the value."""
    kept = session.kept
    leaves = enumerate_runs(lambda src: finish_run(session.fork(src), plan)[1])
    return [RunBranch(kept + br.outcomes, br.probability, br.value) for br in leaves]


def enumerate_run(config: ProtocolConfig) -> list[RunBranch]:
    """Every output path of a quiet ``run(config)``, with its decoded
    computation bits as the value, sorted by outcomes like ``enumerate_runs``:
    the walk (``walk_run``), then its output stage (``enumerate_output``)."""
    branches = enumerate_output(*walk_run(config))
    return [RunBranch(br.outcomes, br.probability, br.value.computation_bits) for br in branches]


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


# each protocol's own runner, which ``enumerated_distribution`` accepts beside ``run``
_RUNNER_BY_PROTOCOL = {"sueki": run_sueki, "p1": run_protocol1, "p2": run_protocol2}
