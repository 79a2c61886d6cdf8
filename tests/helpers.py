"""Small readers over run results, and references, that only the tests need."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from adbqc import blindness, rng
from adbqc.gadgets import PauliFrame, announced_octant, octant_angle, pattern_unitary
from adbqc.oracle import ORACLE_GADGETS, PROTOCOL_BY_GADGET, BranchRow
from adbqc.protocols import ProtocolConfig, config_from_dict, config_object, driver, run
from adbqc.protocols.driver import RunResult
from adbqc.protocols.reference import reference_state
from adbqc.protocols.schedule import schedule
from adbqc.qsim import (
    CZ_GATE, GADGET_FIDELITY_ATOL, H_GATE, NO_SIGNALING_ATOL, PLUS_AMPS, PRODUCT_ATOL,
    RZ_BY_OCTANT, X_GATE, Z_GATE, _width, apply_gate, partial_trace, plus_state, rz_matrix,
    trace_distance,
)
from adbqc.runtime import OutcomeSource, QuantumRuntime, ReplayOutcomes, RunBranch, enumerate_runs
from adbqc.transcript import ALICE, BOB, Transcript


def from_state(
    state: np.ndarray, outcomes: OutcomeSource, owner: str, tape: Transcript | None = None,
) -> tuple[QuantumRuntime, list[str]]:
    """A runtime holding ``state``, loaded as qubits labeled r0, r1, ... (qubit
    order), its width read by ``qsim._width``."""
    rt = QuantumRuntime(outcomes, tape)
    labels = [f"r{i}" for i in range(_width(state))]
    rt.load(state, labels, owner)
    return rt, labels


def fidelity_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2: 1 iff the states agree up to a global phase."""
    if a.shape != b.shape:
        raise ValueError(f"states of shapes {a.shape} and {b.shape} cannot be compared")
    return float(abs(np.vdot(a, b)) ** 2)


def hrz_matrix(theta: float) -> np.ndarray:
    """H R_Z(theta), from the formula rather than ``qsim.HRZ_BY_OCTANT``."""
    return H_GATE @ rz_matrix(theta)


def rx_matrix(theta: float) -> np.ndarray:
    """R_X(theta) in the package's convention: H R_Z(theta) H = e^{i theta/2} R_X(theta)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def zero_state(n: int) -> np.ndarray:
    """|0...0> on ``n`` qubits."""
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def normalized(amplitudes) -> np.ndarray:
    """``amplitudes`` as a complex array scaled to unit norm."""
    amps = np.asarray(amplitudes, dtype=complex)
    return amps / np.linalg.norm(amps)


def identity_gap(rows: np.ndarray) -> float:
    """Largest entry of |rows rows^dagger - I|: 0 exactly when ``rows`` is a
    unitary matrix, or a basis of orthonormal eigenstate rows. ``src/``
    checks no gate or basis, so the tests check each through this."""
    return float(np.max(np.abs(rows @ rows.conj().T - np.eye(rows.shape[0]))))


def rotated(polar: float, phase: float) -> np.ndarray:
    """The basis {|+_{a,p}>, |-_{a,p}>}: row b is the eigenstate of outcome b,
    and |-_{a,p}> = sin(a/2)|0> - e^{ip} cos(a/2)|1>."""
    minus = np.array([math.sin(polar / 2), -np.exp(1j * phase) * math.cos(polar / 2)])
    return np.stack([plus_state(polar, phase), minus])


class DenseRegister:
    """The runtime's operations on one dense statevector over labeled qubits,
    through ``qsim.apply_gate`` and projectors: the reference the factored
    ``QuantumRuntime`` is checked against. Qubit i is ``labels[i]``."""

    def __init__(self) -> None:
        self.amps = np.ones(1, dtype=complex)
        self.labels: list[str] = []

    def _reads(self, label: str, bit: int) -> np.ndarray:
        """Mask of the amplitudes whose ``label`` qubit reads ``bit``."""
        q = self.labels.index(label)
        return (np.arange(self.amps.shape[0]) >> q) & 1 == bit

    def add(self, amplitudes: np.ndarray, labels: list[str]) -> None:
        """Tensor ``amplitudes`` in as the new most significant qubits."""
        self.amps = np.kron(amplitudes, self.amps)
        self.labels += labels

    def apply(self, matrix: np.ndarray, labels: list[str]) -> None:
        targets = [self.labels.index(lb) for lb in labels]
        self.amps = apply_gate(self.amps, matrix, targets)

    def measure(self, label: str, basis: np.ndarray, bit: int) -> float:
        """Project ``label`` onto row ``bit`` of ``basis``; returns its probability."""
        q = self.labels.index(label)
        turned = apply_gate(self.amps, basis.conj(), [q])  # reads the outcome
        kept = np.where(self._reads(label, bit), turned, 0)
        prob = float(np.vdot(kept, kept).real)
        self.amps = apply_gate(kept / math.sqrt(prob), basis.T, [q])  # |bit> back to row bit
        return prob

    def discard(self, label: str) -> bool:
        """Drop ``label`` if its reduced state is pure, keeping the heavier
        of its halves (the |0> half on a tie); False if it is entangled."""
        rho = partial_trace(self.amps, [self.labels.index(label)])
        if float(np.trace(rho @ rho).real) < 1.0 - PRODUCT_ATOL:
            return False
        rest = self.amps[self._reads(label, 0 if rho[0, 0].real >= rho[1, 1].real else 1)]
        self.amps = rest / np.linalg.norm(rest)
        self.labels.remove(label)
        return True


# The run as a channel: each compute position starts maximally entangled
# with a reference qubit that neither party holds, so the frame-corrected
# end state is (U x I)|Phi> exactly when the run realizes U on every input.
REFERENCE = "reference"
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def ideal_channel_state(config: ProtocolConfig) -> np.ndarray:
    """(U x I)|Phi>: logical qubit q (qubit q) paired with reference q
    (qubit w + q), then the scheduled patterns and CZs on the logical half."""
    w = config.logical_width
    state = np.eye(1 << w, dtype=complex).reshape(-1) / math.sqrt(1 << w)
    for layer in schedule(config.algorithm, w, config.depth):
        for q, octants in layer.patterns:
            state = apply_gate(state, pattern_unitary(octants), [q])
        for i, j in layer.czs:
            state = apply_gate(state, CZ_GATE, [i, j])
    return state


def looped_reference_distribution(config: ProtocolConfig) -> dict[tuple[int, ...], float]:
    """``reference_distribution`` by a Python loop over all 2^w weights,
    building one bit tuple per nonzero entry: the path its numpy keys replace."""
    state = reference_state(config)
    for q, basis in enumerate(config.plan()):
        if basis == "x":
            state = apply_gate(state, H_GATE, [q])
    weights = np.abs(state) ** 2
    out: dict[tuple[int, ...], float] = {}
    for idx, w in enumerate(weights):
        if w <= 0.0:
            continue
        bits = tuple((idx >> q) & 1 for q in range(config.logical_width))
        out[bits] = out.get(bits, 0.0) + float(w)
    return out


def assert_channel_is_ideal(config: ProtocolConfig) -> RunResult:
    """``run(config)`` with ``driver.prepare_register`` monkeypatched to
    entangle each compute position with a reference qubit ``ref<q>``; the
    frame-corrected state of the compute positions (logical order) and the
    references, taken just before the output stage, must be
    (U x I)|Phi> up to a global phase. Returns the run's result."""
    real_prepare, real_finish = driver.prepare_register, driver.finish_run
    corrected = []

    def prepare(session) -> None:
        real_prepare(session)
        layout = driver.draw_plan(session.config).layout
        for q in range(session.config.logical_width):
            session.rt.add_qubit(f"ref{q}", PLUS_AMPS, REFERENCE)
            position = driver.register_label(layout.position_of_logical(q))
            session.rt.apply(CNOT, [f"ref{q}", position])

    def finish(session, plan):
        rt, frame = session.rt.fork(ReplayOutcomes(())), session.frame
        for pos in range(session.config.num_qubits):
            for bit, gate in ((frame.z[pos], Z_GATE), (frame.x[pos], X_GATE)):
                if bit:
                    rt.apply(gate, [driver.register_label(pos)])
        compute = [driver.register_label(plan.layout.position_of_logical(q))
                   for q in range(session.config.logical_width)]
        corrected.append(rt.snapshot(compute + rt.owned_by(REFERENCE)))
        return real_finish(session, plan)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "prepare_register", prepare)
        patch.setattr(driver, "finish_run", finish)
        result = run(config)
    (state,) = corrected
    assert fidelity_up_to_phase(state, ideal_channel_state(config)) >= 1.0 - GADGET_FIDELITY_ATOL
    return result


def read_manifest(text: str) -> ProtocolConfig:
    """The config of manifest ``text``, read as ``adbqc run --config`` reads it."""
    return config_from_dict(config_object(json.loads(text)))


def client_to_server_traffic(transcript: Transcript) -> tuple[int, int]:
    """(classical messages, qubit transfers) sent client to server."""
    sent = Counter(ev.kind for ev in transcript.events if ev.party == ALICE and ev.to == BOB)
    return sent["msg"], sent["transfer"]


def sampled_distribution(run_protocol, config, trials: int) -> dict[tuple[int, ...], float]:
    """Monte Carlo decoded-output distribution over seeds ``config.seed + t``."""
    quiet = replace(config, record_transcript=False)
    counts = Counter(
        run_protocol(quiet.with_seed(config.seed + t)).report.computation_bits
        for t in range(trials)
    )
    return {bits: c / trials for bits, c in counts.items()}


def drive_gadget_on(
    gadget: str, state: np.ndarray, src: OutcomeSource, octant: int, secrets: tuple[int, ...]
) -> tuple[QuantumRuntime, list[str], PauliFrame]:
    """``state`` loaded on the register qubits that ``driver.drive_gadget``
    drives, then oracle ``gadget`` driven on them; returns the runtime, the
    register labels and the by-product frame over them."""
    rt = QuantumRuntime(src, Transcript())
    labels = [driver.register_label(i) for i in range(len(state).bit_length() - 1)]
    rt.load(state, labels, BOB)
    frame = driver.drive_gadget(
        rt, PROTOCOL_BY_GADGET.get(gadget, gadget), PauliFrame.identity(len(labels)),
        tuple(range(len(labels))), octant, secrets,
    )
    return rt, labels, frame


def driven_walk_run(config: ProtocolConfig) -> tuple[driver.Session, driver.Plan]:
    """``driver.walk_run`` by driving every step: each gadget step goes
    through ``driver.drive_step`` on the greedy path, ancillas, couplings,
    measurements, discards and frame included, and its key's rows are
    checked (``driver._check_rows``); the outcomes its runtime measured are
    the session's kept ones. The reference the walk's applied rows replaced."""
    session = driver.new_session(replace(config, record_transcript=False), ReplayOutcomes(()))
    plan = driver.draw_plan(config)
    driver.prepare_register(session)
    for step in plan.steps:
        driver._check_rows(driver.drive_step(session, step), step)
    session.kept = session.rt.outcomes.bits
    return session, plan


def forked_enumerate_run(config: ProtocolConfig) -> list[RunBranch]:
    """``driver.enumerate_run`` by forking every step: each gadget step is
    driven on forks of one session, one per outcome branch, every fork's
    frame-corrected register state is compared with the first's, and the
    walk goes on with the first fork, the greedy path. The reference the
    walk's compiled-row check replaced."""
    session = driver.new_session(replace(config, record_transcript=False), ReplayOutcomes(()))
    plan = driver.draw_plan(config)
    driver.prepare_register(session)

    def forks(drive) -> list[RunBranch]:
        def on_fork(source: OutcomeSource) -> tuple:
            fork = session.fork(source)
            return fork, drive(fork)

        return enumerate_runs(on_fork)

    def corrected_step(fork: driver.Session, step: driver.Step) -> np.ndarray:
        driver.drive_step(fork, step)
        return fork.frame.matrix_on(fork.rt.snapshot())

    kept: tuple[int, ...] = ()
    for step in plan.steps:
        first, *rest = forks(lambda fork: corrected_step(fork, step))
        session, state = first.value
        for branch in rest:
            if fidelity_up_to_phase(state, branch.value[1]) < 1.0 - GADGET_FIDELITY_ATOL:
                raise AssertionError(
                    f"{step.kind} step on {step.positions} (octant {step.octant}): outcomes "
                    f"{first.outcomes} and {branch.outcomes} leave different states"
                )
        kept += first.outcomes
    leaves = forks(lambda fork: driver.finish_run(fork, plan)[1].computation_bits)
    return [RunBranch(kept + br.outcomes, br.probability, br.value[1]) for br in leaves]


def replayed_branch_table(
    gadget: str, octant: int, state: np.ndarray, secrets: tuple[int, ...]
) -> tuple[BranchRow, ...]:
    """``oracle.branch_table`` by replaying the gadget on ``state`` itself,
    once per outcome path."""
    if gadget == "cz":
        target = apply_gate(state, CZ_GATE, [1, 0])
    else:
        target = apply_gate(state, hrz_matrix(octant_angle(octant)), [0])

    def run(src: OutcomeSource) -> float:
        rt, labels, frame = drive_gadget_on(gadget, state, src, octant, secrets)
        return fidelity_up_to_phase(frame.matrix_on(rt.snapshot(labels)), target)

    return tuple(
        BranchRow(br.outcomes, br.probability, float(br.value),
                  announced_octant(octant, *secrets, br.outcomes[0])
                  if gadget == "hrz-sueki" else None)
        for br in enumerate_runs(run)
    )


class ViewWatcher(Transcript):
    """A transcript that, on each event the server can see (as ``bob_events``
    tells it after the push), keeps the server's record from before the event
    (``bob_classical_values``) and ``rt.density_of(BOB)``, which no push
    changes: the view before that event."""

    def __init__(self) -> None:
        super().__init__()
        self.rt: QuantumRuntime | None = None
        self.views: list[tuple[tuple, np.ndarray]] = []

    def _push(self, kind: str, party: str, to: str | None, payload: dict) -> None:
        record, seen = self.bob_classical_values(), len(self.bob_events())
        super()._push(kind, party, to, payload)
        if len(self.bob_events()) > seen:
            self.views.append((record, self.rt.density_of(BOB)))


def per_path_server_views(
    protocol: str, octant: int, state: np.ndarray, secrets: tuple[int, ...]
) -> dict[int, dict[tuple, np.ndarray]]:
    """The server's view blocks of ``protocol``'s rotation step under one
    ``secrets`` entry, by replaying ``driver.drive_gadget`` on ``state``
    itself (qubit 0 the target, any further qubits the server's) once per
    outcome path, with a ``ViewWatcher``: before each event the server can see,
    and at the end, the view on every path, weighted by that path's
    probability and keyed by checkpoint (from 1) and server record. On the target
    maximally entangled with one reference qubit, averaged over the client's
    ``SECRETS``, these are the blocks ``blindness._compiled_views`` compiles
    once per prefix."""

    def run_fn(source: OutcomeSource) -> list:
        tape = ViewWatcher()
        rt = tape.rt = QuantumRuntime(source, tape)
        rt.load(state, [driver.register_label(i) for i in range(len(state).bit_length() - 1)], BOB)
        driver.drive_gadget(rt, protocol, PauliFrame.identity(1), (0,), octant, secrets)
        return tape.views + [(tape.bob_classical_values(), rt.density_of(BOB))]

    blocks: dict[int, dict[tuple, np.ndarray]] = {}
    for branch in enumerate_runs(run_fn):
        for at, (record, rho) in enumerate(branch.value, start=1):
            view = blocks.setdefault(at, {})
            view[record] = view.get(record, 0.0) + branch.probability * rho
    return blocks


def joint_density_of(rt: QuantumRuntime, owner: str) -> np.ndarray:
    """``QuantumRuntime.density_of`` as the partial trace of the whole joint
    state: the reference for its tensoring of the owner's factors only."""
    keep = sorted(map(rt.index_of, rt.owned_by(owner)))
    if not keep:
        return np.ones((1, 1), dtype=complex)
    return partial_trace(rt.snapshot(), keep)


def replayed_view_distribution(gadget: str, octant: int, state: np.ndarray) -> tuple[dict, int]:
    """The server's classical view distribution on ``state`` that the final
    blocks of ``blindness.audit_gadget_view_tv`` give, by replaying the client's step on
    ``state`` once per outcome path under each of its equally likely
    ``SECRETS``; returns (distribution, paths walked)."""
    secrets = driver.CLIENT_BY_PROTOCOL[PROTOCOL_BY_GADGET[gadget]].SECRETS
    weight = 1.0 / len(secrets)
    probs: dict = {}
    walked = 0
    for drawn in secrets:

        def body(src: OutcomeSource) -> tuple:
            rt, _, _ = drive_gadget_on(gadget, state, src, octant, drawn)
            return rt.tape.bob_classical_values()

        for br in enumerate_runs(body):
            walked += 1
            probs[br.value] = probs.get(br.value, 0.0) + weight * br.probability
    return probs, walked


def block_trace_distance(a: dict[tuple, np.ndarray], b: dict[tuple, np.ndarray]) -> float:
    """Trace distance between two classical-quantum block states, one
    ``trace_distance`` call per view key: the per-pair formula that
    ``blindness.block_trace_distances`` stacks."""
    keys = set(a) | set(b)
    return math.fsum(trace_distance(a.get(k, 0.0), b.get(k, 0.0)) for k in keys)


def bytes_interned_block_trace_distances(views, pairs) -> list[float]:
    """``blindness.block_trace_distances`` as it was before compiled blocks were
    interned: each call keys every block by its bytes, so bit-equal blocks share a
    row and read 0 without an eigendecomposition, and every (pair, key) cell whose
    rows differ gets its own ``trace_distance``, however many share its two blocks."""
    by_shape: dict[tuple, tuple[dict, dict, dict]] = {}  # keys, distinct blocks' rows, cells
    for v, view in enumerate(views):
        for key, block in view.items():
            keys, rows, cells = by_shape.setdefault(block.shape, ({}, {}, {}))
            row = rows.setdefault(np.asarray(block, complex).tobytes(), 1 + len(rows))
            cells[keys.setdefault(key, len(keys)), v] = row
    first, second = np.array(pairs).reshape(-1, 2).T
    terms: list[list[float]] = [[] for _ in pairs]
    for shape, (keys, rows, cells) in by_shape.items():
        row = np.zeros((len(keys), len(views)), dtype=int)
        row[tuple(zip(*cells))] = list(cells.values())
        zero = bytes(16 * math.prod(shape))  # row 0, the zero block: no block
        stack = np.frombuffer(zero + b"".join(rows), dtype=complex).reshape(-1, *shape)
        key, pair = np.nonzero(row[:, first] != row[:, second])
        dists = trace_distance(stack[row[key, first[pair]]], stack[row[key, second[pair]]])
        for p, dist in zip(pair.tolist(), dists.tolist()):
            terms[p].append(dist)
    return [math.fsum(dists) for dists in terms]


def per_checkpoint_view_audit(
    protocol: str, octants, steps=None, details: dict | None = None
) -> tuple[float, bool, dict]:
    """(statistic, passed, details) of ``blindness._audit_views`` by one
    ``block_trace_distance`` per checkpoint and octant pair, on the compiled
    views: no stacking, and an aliased checkpoint compared again."""
    compiled = [blindness._compiled_views(protocol, k) for k in octants]
    if steps is None:
        steps = range(1, 1 + max(at for _, _, views in compiled for at in views))
    pairs = [(i, j) for i in range(len(octants)) for j in range(i + 1, len(octants))]
    compared = [(s, octants[i], octants[j]) for s in steps for i, j in pairs]
    dists = [block_trace_distance(compiled[i][2].get(s, {}), compiled[j][2].get(s, {}))
             for s in steps for i, j in pairs]
    worst = max(dists)
    return worst, worst <= NO_SIGNALING_ATOL, {
        **(details or {}), "worst_at": compared[dists.index(worst)] if worst > 0.0 else None,
        "steps": list(steps), "octants": list(octants),
        "branches": sum(paths for paths, _, _ in compiled),
        "views": sum(made[s] for _, made, _ in compiled for s in steps)}


def looped_row_fidelities(rows) -> list[float]:
    """``driver.row_fidelities`` by the per-row loop it replaced: each row's
    M = U^dagger F K and I compared as unit vectors by ``fidelity_up_to_phase``."""
    fidelities = []
    for _, operator, _, _ in rows:
        flat = operator.reshape(-1) / np.linalg.norm(operator)
        ideal = np.eye(len(operator)).reshape(-1) / math.sqrt(len(operator))
        fidelities.append(fidelity_up_to_phase(flat, ideal))
    return fidelities


def sweep_by_keys(states_per_octant: int = 4, seed: int = 2026) -> tuple[float, int]:
    """``oracle.soundness_sweep`` by one ``driver.row_fidelities`` call per
    drawn (gadget, octant, secrets) item, each item's client secrets drawn
    from the sweep's one secrets stream, in item order: no key is merged
    with another, and none is read only once."""
    worst, count = 1.0, 0
    secrets_rng = rng.stream(seed, "oracle-secrets")
    for gadget in ORACLE_GADGETS:
        protocol = PROTOCOL_BY_GADGET.get(gadget)
        client = driver.CLIENT_BY_PROTOCOL.get(protocol)
        for octant in range(8) if protocol else (0,):
            for _ in range(states_per_octant):
                drawn = driver.draw_secrets(client, secrets_rng) if client else ()
                rows = driver.gadget_rows(protocol or gadget, octant, drawn)
                worst = min(worst, float(driver.row_fidelities(rows).min()))
                count += 1
    return worst, count


def per_probe_gram(probe: np.ndarray, lent_qubit: int) -> np.ndarray:
    """``adversary.probe_gram`` of one probe, by one ``apply_gate`` per octant."""
    states = np.stack([apply_gate(probe, rz, [lent_qubit]) for rz in RZ_BY_OCTANT])
    return states.conj() @ states.T


def json_dumps_jsonl(transcript: Transcript) -> str:
    """``Transcript.to_jsonl`` by ``json.dumps`` on each event."""
    return "\n".join(
        json.dumps(
            {"seq": ev.seq, "kind": ev.kind, "from": ev.party, "to": ev.to,
             "payload": ev.payload},
            sort_keys=True, separators=(",", ":"),
        )
        for ev in transcript.events
    )
