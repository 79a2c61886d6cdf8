"""Property-based checks over random valid configs, gate programs, exact
runs and the statevector kernels.

Configs cover every protocol, every adversary kind a run accepts (none for
all, stray Paulis for p1, report tampering for p2) and both transcript
settings; gate programs mix named, octant and CZ requests on one to five
qubits. Small honest runs of every protocol, with random programs and
output bases, decode exactly to the reference distribution, and the
reference distribution of prepare-only configs up to width 12 equals, key
for key and bit for bit, a per-entry loop over the state's weights. The runtime's
gate, measurement and discard kernels are checked against dense references
on Haar-random states and unitaries of one to seven qubits, and random
programs of every runtime operation (fresh qubits, loaded pairs, gates
across factors, forced measurements in random bases, discards from shared
and lone factors, forks) against one dense register; the gate kernel's
cached transpose plans are checked against their formula for random widths
and targets, and a gate on the top qubits, high to low (the identity axis
order), against the plain product and against the same gate on reordered
qubits, and so is a measurement of a factor's top qubit against the same
measurement on reordered qubits. Reduced states from
``partial_trace`` on random keep lists are checked to be density matrices
(Hermitian, unit trace, no negative eigenvalue) and against an einsum
reference, and
``QuantumRuntime.density_of`` against ``partial_trace`` for random owners.
Every gate ``src/`` builds is checked unitary and every basis orthonormal,
since nothing in ``src/`` checks them.
Examples are derandomized, so each run of the suite checks the same cases.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    DenseRegister, assert_channel_is_ideal, from_state, identity_gap, joint_density_of,
    looped_reference_distribution, read_manifest, zero_state,
)
from test_qsim import embed_apply

from adbqc.gadgets import ENTANGLER, NAMED_GATE_OCTANTS, pattern_unitary
from adbqc.protocols import (
    HONEST,
    AdversaryConfig,
    GateRequest,
    ProtocolConfig,
    RunManifest,
    config_from_dict,
    config_to_dict,
    enumerated_distribution,
    reference,
    reference_distribution,
    run,
    schedule,
    total_variation,
)
from adbqc.qsim import (
    CZ_GATE,
    EQUATORIAL_BY_OCTANT,
    H_GATE,
    HRZ_BY_OCTANT,
    MAX_QUBITS,
    NORM_ATOL,
    PLUS_AMPS,
    PROBABILITY_SLACK,
    RZ_BY_OCTANT,
    X_BASIS,
    X_GATE,
    Z_BASIS,
    Z_GATE,
    ZERO_AMPS,
    _apply_matrix,
    _transpose_plan,
    apply_gate,
    equatorial_basis,
    haar_random_state,
    partial_trace,
    rz_matrix,
)
from adbqc.runtime import OutcomeSource, QuantumRuntime, ReplayOutcomes, SampledOutcomes
from adbqc.transcript import ALICE, BOB

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
        if draw(st.booleans()):  # fixed hits, which set the counts
            spots = draw(st.lists(st.integers(0, num_qubits - 1), unique=True))
            positions = tuple((draw(st.sampled_from(("x", "z", "xz"))), p) for p in spots)
            return AdversaryConfig("random_pauli", pauli_positions=positions)
        x = draw(st.integers(0, num_qubits))
        z = draw(st.integers(0, num_qubits - x))
        counts = (x, z, draw(st.integers(0, num_qubits - x - z)))
        return AdversaryConfig("random_pauli", pauli_counts=counts)
    if protocol == "p2":
        return AdversaryConfig("trap_tamper", tamper_rate=draw(st.floats(0.0, 1.0)))
    return HONEST


def layers_needed(requests: tuple[GateRequest, ...], width: int) -> int:
    """The fewest layers ``requests`` fit in: one past the last that ``schedule`` fills."""
    layers = schedule(requests, width, max(1, len(requests)))
    return 1 + max((k for k, layer in enumerate(layers) if layer.patterns or layer.czs), default=0)


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
    depth = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**63 - 1))
    algorithm = tuple(draw(st.lists(gate_requests(width), max_size=6)))
    return ProtocolConfig(
        protocol,
        n,
        max(depth, layers_needed(algorithm, width)),  # a config refuses fewer
        trap_count=traps,
        seed=seed,
        algorithm=algorithm,
        output_bases=bases,
        adversary=draw(adversaries(protocol, n)),
        record_transcript=draw(st.booleans()),
    )


@PROPERTY_SETTINGS
@given(configs())
def test_config_dict_roundtrip_property(config):
    assert config_from_dict(config_to_dict(config)) == config


@PROPERTY_SETTINGS
@given(configs())
def test_config_keeps_the_schedule_of_its_algorithm(config):
    assert config.layers == schedule(config.algorithm, config.logical_width, config.depth)


@PROPERTY_SETTINGS
@given(configs(), st.text(max_size=24))
def test_manifest_json_roundtrip_property(config, created):
    text = RunManifest(config, created=created).to_json()
    again = read_manifest(text)
    assert again == config
    assert RunManifest(again, created=created).to_json() == text


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


@st.composite
def exact_configs(draw, protocol: str, n: int) -> ProtocolConfig:
    """An honest ``protocol`` run on ``n`` qubits of a random program, at
    the depth its schedule needs, with random output bases."""
    traps = draw(st.integers(1, n - 1)) if protocol == "p2" else None
    width = ProtocolConfig(protocol, n, 1, trap_count=traps).logical_width
    requests = tuple(draw(st.lists(gate_requests(width), max_size=3)))
    depth = layers_needed(requests, width)
    bases = tuple(draw(st.lists(st.sampled_from("zx"), min_size=width, max_size=width)))
    return ProtocolConfig(
        protocol, n, depth, trap_count=traps, seed=draw(st.integers(0, 2**31 - 1)),
        algorithm=requests, output_bases=bases, record_transcript=False,
    )


EXACT_SHAPES = [("sueki", 1), ("sueki", 2), ("sueki", 3), ("p1", 3), ("p1", 6),
                ("p2", 2), ("p2", 3), ("p2", 4)]


@pytest.mark.parametrize("protocol, n", EXACT_SHAPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_runs_decode_to_the_reference(protocol, n, data):
    config = data.draw(exact_configs(protocol, n))
    dist = enumerated_distribution(run, config)
    assert total_variation(dist, reference_distribution(config)) <= PROBABILITY_SLACK
    assert_channel_is_ideal(config)


@st.composite
def reference_configs(draw) -> ProtocolConfig:
    """A prepare-only config of width 1 to 12 and depth 1 to 3 running the
    random requests that fit that depth, with random output bases. Few
    requests on a wide register leave many exact zeros in the state."""
    width = draw(st.integers(1, 12))
    depth = draw(st.integers(1, 3))
    algorithm = ()
    for request in draw(st.lists(gate_requests(width), max_size=3 * width)):
        if layers_needed(algorithm + (request,), width) <= depth:
            algorithm += (request,)
    bases = tuple(draw(st.lists(st.sampled_from("zx"), min_size=width, max_size=width)))
    return ProtocolConfig("sueki", width, depth, algorithm=algorithm, output_bases=bases)


def counted_reference(config: ProtocolConfig) -> tuple[dict, int]:
    """``reference_distribution(config)`` and how many ``apply_gate`` calls it made."""
    calls = []

    def counting(*args):
        calls.append(args)
        return apply_gate(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "apply_gate", counting)
        dist = reference_distribution(config)
    return dist, len(calls)


def scheduled_gate_count(config: ProtocolConfig) -> int:
    """Patterns plus CZs of the config's schedule, plus one H per X-basis output."""
    layers = schedule(config.algorithm, config.logical_width, config.depth)
    return sum(len(layer.patterns) + len(layer.czs) for layer in layers) + config.plan().count("x")


@PROPERTY_SETTINGS
@given(reference_configs())
@example(ProtocolConfig("sueki", 12, 1))  # |0...0>: one key and 4095 exact zeros
def test_reference_distribution_matches_the_per_entry_loop(config):
    """Same keys, same float bits, same order, and the same state arithmetic."""
    dist, calls = counted_reference(config)
    assert list(dist.items()) == list(looped_reference_distribution(config).items())
    assert calls == scheduled_gate_count(config)


def test_dense_reference_distribution_matches_the_per_entry_loop():
    hadamards = tuple(GateRequest.single(q, name="h") for q in range(12))
    config = ProtocolConfig("sueki", 12, 1, algorithm=hadamards)
    dist, calls = counted_reference(config)
    assert len(dist) == 4096
    assert list(dist.items()) == list(looped_reference_distribution(config).items())
    assert calls == 12


# ---------------------------------------------------------------------------
# Kernels against dense references

KERNEL_ATOL = 1e-12


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def gate_placements(draw) -> tuple[int, list[int], int]:
    """(width, distinct targets, seed) for a one- or two-qubit gate."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(2, n)))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return n, targets, draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(gate_placements())
@example((7, [0, 6], 0))
@example((7, [6, 0], 1))
@example((2, [0, 1], 2))
@example((2, [1, 0], 3))
@example((1, [0], 4))
def test_apply_gate_matches_bit_surgery(placement):
    n, targets, seed = placement
    rng = np.random.default_rng(seed)
    state = haar_random_state(n, rng)
    u = haar_unitary(2 ** len(targets), rng)
    got = apply_gate(state, u, targets)
    want = embed_apply(u, targets, state)
    assert np.allclose(got, want, rtol=0.0, atol=KERNEL_ATOL)


@st.composite
def target_lists(draw) -> tuple[int, tuple[int, ...]]:
    """(width, one or more distinct targets in any order) up to ``MAX_QUBITS``."""
    n = draw(st.integers(1, MAX_QUBITS))
    return n, tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))


@PROPERTY_SETTINGS
@given(target_lists())
@example((16, (0, 15)))
@example((3, (2, 0, 1)))
def test_cached_transpose_plan_matches_its_formula(case):
    n, targets = case
    front = [n - 1 - q for q in targets]
    perm = front + [ax for ax in range(n) if ax not in front]
    want = ((2,) * n, tuple(perm), tuple(int(ax) for ax in np.argsort(perm)))
    assert _transpose_plan(n, targets) == want  # filled on a miss
    assert _transpose_plan(n, targets) == want  # read back on a hit
    cube = np.arange(1 << n).reshape(want[0])
    moved = cube.transpose(want[1])
    assert np.array_equal(moved, np.moveaxis(cube, front, range(len(targets))))
    assert np.array_equal(moved.transpose(want[2]), cube)


@PROPERTY_SETTINGS
@given(st.integers(1, 8), st.data())
def test_gate_on_the_top_qubits_is_the_plain_product_and_equals_it_reordered(n, data):
    """A gate on a factor's top k qubits, high to low, gets the identity axis
    order: the kernel's result is bit for bit one product on the amplitudes
    as they lie, and equals the transposed path taken by the same gate once
    the qubits are reordered so that its targets sit anywhere."""
    k = data.draw(st.integers(1, n))
    order = data.draw(st.permutations(range(n)))  # qubit q moves to order[q]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state, u = haar_random_state(n, rng), haar_unitary(1 << k, rng)
    top = tuple(range(n - 1, n - 1 - k, -1))
    on_top = _apply_matrix(state, u, top, n)
    assert np.array_equal(on_top, (u @ state.reshape(1 << k, -1)).reshape(-1))
    axes = [n - 1 - q for q in range(n)], [n - 1 - order[q] for q in range(n)]
    moved = np.moveaxis(state.reshape((2,) * n), *axes).reshape(-1)
    elsewhere = _apply_matrix(moved, u, tuple(order[q] for q in top), n)
    back = np.moveaxis(elsewhere.reshape((2,) * n), axes[1], axes[0]).reshape(-1)
    assert np.allclose(on_top, back, rtol=0.0, atol=KERNEL_ATOL)


@st.composite
def measurements(draw) -> tuple[int, int, int, int]:
    """(width, measured qubit, forced bit, seed)."""
    n = draw(st.integers(1, 7))
    return n, draw(st.integers(0, n - 1)), draw(st.integers(0, 1)), draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(measurements())
@example((7, 0, 1, 0))
@example((7, 6, 0, 1))
@example((2, 1, 1, 2))  # the top qubit of a 2-qubit factor
@example((3, 2, 0, 3))  # the top qubit of a 3-qubit factor
def test_forced_measurement_matches_projector(case):
    n, q, bit, seed = case
    rng = np.random.default_rng(seed)
    state = haar_random_state(n, rng)
    basis = haar_unitary(2, rng)  # rows: the two eigenstates
    e = basis[bit]
    projected = embed_apply(np.outer(e, e.conj()), [q], state)
    want_prob = float(np.vdot(projected, projected).real)

    rt, labels = from_state(state, ReplayOutcomes([bit]), BOB)
    got_bit, got_prob = rt.measure(labels[q], basis)
    assert got_bit == bit
    assert abs(got_prob - want_prob) <= KERNEL_ATOL
    assert np.allclose(
        rt.snapshot(), projected / np.sqrt(want_prob), rtol=0.0, atol=KERNEL_ATOL
    )


def insert_qubit(rest: np.ndarray, qubit: np.ndarray, q: int) -> np.ndarray:
    """Amplitudes of ``rest`` with ``qubit`` inserted as qubit q, index by index."""
    n = int(np.log2(rest.shape[0])) + 1
    out = np.zeros(2**n, dtype=complex)
    for i in range(2**n):
        low, high = i & ((1 << q) - 1), i >> (q + 1)
        out[i] = qubit[(i >> q) & 1] * rest[(high << q) | low]
    return out


@PROPERTY_SETTINGS
@given(measurements())
def test_measuring_the_top_qubit_equals_it_reordered(case):
    """Measuring a factor's top qubit reads its (2, rest) halves as the
    amplitudes lie, and takes the same bit with the same probability, and
    leaves the same state, as measuring that qubit once the qubits are
    reordered so that it sits at position q."""
    n, q, _, seed = case
    rng = np.random.default_rng(seed)
    state, basis = haar_random_state(n, rng), haar_unitary(2, rng)
    order = [p for p in range(n) if p != q] + [q]  # qubit i moves to order[i]; the top to q
    axes = [n - 1 - i for i in range(n)], [n - 1 - order[i] for i in range(n)]
    moved = np.moveaxis(state.reshape((2,) * n), *axes).reshape(-1)
    results = []
    for amps, position in ((state, n - 1), (moved, q)):
        rt, labels = from_state(amps, SampledOutcomes(np.random.default_rng(seed)), BOB)
        results.append((*rt.measure(labels[position], basis), rt.snapshot()))
    (top_bit, top_prob, top_after), (bit, prob, after) = results
    assert top_bit == bit
    assert abs(top_prob - prob) <= KERNEL_ATOL
    back = np.moveaxis(after.reshape((2,) * n), axes[1], axes[0]).reshape(-1)
    assert np.allclose(top_after, back, rtol=0.0, atol=KERNEL_ATOL)


@PROPERTY_SETTINGS
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
@example(2, 4)  # the qubit on top of a 2-qubit factor at q = 1
@example(3, 5)  # the qubit on top of a 3-qubit factor at q = 2
def test_discard_leaves_the_partial_trace(n, seed):
    rng = np.random.default_rng(seed)
    rest = haar_random_state(n - 1, rng)
    qubit = haar_random_state(1, rng)
    for q in range(n):
        state = insert_qubit(rest, qubit, q)
        rt, labels = from_state(state, ReplayOutcomes(()), BOB)
        rt.discard(labels[q])
        v = rt.snapshot()
        want = partial_trace(state, [i for i in range(n) if i != q])
        assert np.allclose(np.outer(v, v.conj()), want, rtol=0.0, atol=KERNEL_ATOL)
    # a Haar-random state entangles every qubit with the rest
    rt, labels = from_state(haar_random_state(n, rng), ReplayOutcomes(()), BOB)
    for label in labels:
        with pytest.raises(ValueError, match="entangled"):
            rt.discard(label)


@pytest.mark.parametrize("octant", range(8))
def test_discarding_an_equatorial_qubit_leaves_the_rest_with_its_phase(octant):
    """Both halves of an equatorial qubit weigh 1/2, up to rounding, and its
    |0> amplitude is real and positive; so at every position q of a Haar rest
    the discard keeps the |0> half and leaves ``rest``, phase included."""
    rng = np.random.default_rng(octant)
    rest = haar_random_state(4, rng)
    for qubit in EQUATORIAL_BY_OCTANT[octant]:
        for q in range(5):
            rt, labels = from_state(insert_qubit(rest, qubit, q), ReplayOutcomes(()), BOB)
            rt.discard(labels[q])
            assert np.allclose(rt.snapshot(), rest, rtol=0.0, atol=KERNEL_ATOL)


# The bounds a reduced state is held to: Hermitian entrywise, unit trace
# (real and imaginary parts), and no eigenvalue below the floor.
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-9
PSD_FLOOR = -1e-9


def density_defects(rho: np.ndarray) -> list[str]:
    """The conditions of a density matrix that ``rho`` breaks."""
    defects = []
    if not np.allclose(rho, rho.conj().T, rtol=0.0, atol=HERMITIAN_ATOL):
        defects.append("not hermitian")
    trace = complex(np.trace(rho))
    if abs(trace.real - 1.0) > TRACE_ATOL or abs(trace.imag) > TRACE_ATOL:
        defects.append("trace")
    if float(np.linalg.eigvalsh(rho).min()) < PSD_FLOOR:
        defects.append("negative eigenvalue")
    return defects


def test_density_defects_flags_each_broken_condition():
    assert "not hermitian" in density_defects(np.array([[1.0, 0.5j], [0.5j, 0.0]]))
    assert density_defects(np.eye(2, dtype=complex)) == ["trace"]
    assert density_defects(np.diag([1.5, -0.5]).astype(complex)) == ["negative eigenvalue"]
    assert density_defects(np.eye(2, dtype=complex) / 2) == []


def reduced_by_einsum(amps: np.ndarray, keep: list[int]) -> np.ndarray:
    """Partial trace of |psi><psi| with one einsum: the row and column of each
    traced-out qubit share a subscript; keep[-1] is the output's high bit."""
    n = int(np.log2(amps.shape[0]))
    rows = [chr(ord("a") + n - 1 - q) for q in range(n)]  # subscript of qubit q
    cols = [rows[q] if q not in keep else chr(ord("A") + n - 1 - q) for q in range(n)]
    spec = "".join(reversed(rows)) + "," + "".join(reversed(cols)) + "->"
    spec += "".join(rows[q] for q in reversed(keep)) + "".join(cols[q] for q in reversed(keep))
    psi = amps.reshape([2] * n)
    return np.einsum(spec, psi, psi.conj()).reshape(2 ** len(keep), -1)


@st.composite
def reductions(draw) -> tuple[int, list[int], int]:
    """(width, a non-empty keep list in any order, seed)."""
    n = draw(st.integers(1, 7))
    keep = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return n, keep, draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(reductions())
@example((6, [0, 1, 2], 0))
@example((6, [5, 3, 4], 1))
@example((7, [6, 0], 2))
def test_partial_trace_is_a_density_matrix(case):
    n, keep, seed = case
    state = haar_random_state(n, np.random.default_rng(seed))
    rho = partial_trace(state, keep)
    assert rho.shape == (2 ** len(keep),) * 2
    assert density_defects(rho) == []
    assert np.allclose(rho, reduced_by_einsum(state, keep), rtol=0.0, atol=KERNEL_ATOL)


@PROPERTY_SETTINGS
@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.data())
def test_density_of_is_the_partial_trace_on_the_owners_qubits(n, seed, data):
    owners = data.draw(st.lists(st.sampled_from([ALICE, BOB]), min_size=n, max_size=n))
    state = haar_random_state(n, np.random.default_rng(seed))
    rt, labels = from_state(state, ReplayOutcomes(()), BOB)
    for label, owner in zip(labels, owners):
        if owner == ALICE:
            rt.transfer(label, ALICE)
    for owner in (ALICE, BOB):
        keep = [q for q in range(n) if owners[q] == owner]
        got = rt.density_of(owner)
        if keep:
            assert np.array_equal(got, partial_trace(rt.snapshot(), keep))
        else:
            assert got.dtype == complex and got.tolist() == [[1]]


class WantedOutcomes(OutcomeSource):
    """Takes the bit in ``want`` unless its probability is below 1e-3."""

    want = 0

    def take(self, p0: float) -> int:
        bit = self.want if (p0 if self.want == 0 else 1.0 - p0) >= 1e-3 else 1 - self.want
        self.trace.append((bit, p0))
        return bit


# each list also draws a Haar-random one; H x X merges its qubits' factors
# and leaves them product, so a discard then reads a shared factor's Gram
# matrix and keeps a qubit's half
ONE_QUBIT_GATES = (H_GATE, X_GATE, RZ_BY_OCTANT[1])
TWO_QUBIT_GATES = (CZ_GATE, ENTANGLER, np.kron(H_GATE, X_GATE))
FRESH_QUBITS = (ZERO_AMPS, PLUS_AMPS)
BASES = (Z_BASIS, X_BASIS, EQUATORIAL_BY_OCTANT[3])
RUNTIME_WIDTH = 6


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.data())
def test_factored_runtime_matches_a_dense_register(seed, data):
    """Random programs of fresh qubits, loaded entangled pairs, gates within
    and across factors, forced measurements, discards and forks leave the
    runtime with the dense reference's amplitudes, global phase included,
    and its outcome probabilities; ``discard`` refuses exactly the qubits
    whose reduced state is mixed, and a fork never changes its parent."""
    rng = np.random.default_rng(seed)
    source = WantedOutcomes()
    rt, ref = QuantumRuntime(source), DenseRegister()
    left_behind = []  # (runtime that was forked, its amplitudes then)
    minted = itertools.count()

    def pick(options, haar):
        choice = data.draw(st.integers(0, len(options)))
        return options[choice] if choice < len(options) else haar()

    for _ in range(data.draw(st.integers(1, 14))):
        live = list(ref.labels)
        ops = ["fork"]
        ops += ["add"] * (len(live) < RUNTIME_WIDTH) + ["load"] * (len(live) <= RUNTIME_WIDTH - 2)
        ops += ["gate1", "measure", "discard"] * bool(live) + ["gate2"] * (len(live) >= 2)
        op = data.draw(st.sampled_from(ops))
        if op == "add":
            label = f"q{next(minted)}"
            amps = pick(FRESH_QUBITS, lambda: haar_random_state(1, rng))
            rt.add_qubit(label, amps, BOB)
            ref.add(amps, [label])
        elif op == "load":
            pair = [f"q{next(minted)}", f"q{next(minted)}"]
            state = haar_random_state(2, rng)
            rt.load(state, pair, BOB)
            ref.add(state, pair)
        elif op in ("gate1", "gate2"):
            k = 1 if op == "gate1" else 2
            labels = data.draw(st.lists(st.sampled_from(live), min_size=k, max_size=k, unique=True))
            gate = pick(ONE_QUBIT_GATES if k == 1 else TWO_QUBIT_GATES,
                        lambda: haar_unitary(1 << k, rng))
            rt.apply(gate, labels)
            ref.apply(gate, labels)
        elif op == "measure":
            label = data.draw(st.sampled_from(live))
            basis = pick(BASES, lambda: haar_unitary(2, rng))
            source.want = data.draw(st.integers(0, 1))
            bit, prob = rt.measure(label, basis)
            assert abs(prob - ref.measure(label, basis, bit)) <= KERNEL_ATOL
        elif op == "discard":
            label = data.draw(st.sampled_from(live))
            if ref.discard(label):
                rt.discard(label)
            else:
                with pytest.raises(ValueError, match="entangled"):
                    rt.discard(label)
        else:
            left_behind.append((rt, rt.snapshot().copy()))
            rt = rt.fork(source)
        assert rt.owned_by(BOB) == ref.labels
        assert np.allclose(rt.snapshot(), ref.amps, rtol=0.0, atol=KERNEL_ATOL)
        assert abs(np.linalg.norm(rt.snapshot()) - 1.0) <= NORM_ATOL
    for old, amps in left_behind:
        assert np.array_equal(old.snapshot(), amps)


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.data())
def test_density_of_reads_only_the_owners_factors(seed, data):
    """On random factor layouts (either party's fresh qubits, gates that merge
    factors, measurements that split a qubit off), each party's reduced state
    from only the factors holding its qubits is the partial trace of the
    whole joint state, in qubit-index order."""
    rng = np.random.default_rng(seed)
    rt = QuantumRuntime(WantedOutcomes())
    labels = [f"q{i}" for i in range(data.draw(st.integers(1, RUNTIME_WIDTH)))]
    for label in labels:
        rt.add_qubit(label, haar_random_state(1, rng), data.draw(st.sampled_from([ALICE, BOB])))
    for _ in range(data.draw(st.integers(0, 8))):
        if len(labels) >= 2 and data.draw(st.booleans()):
            rt.apply(haar_unitary(4, rng), data.draw(
                st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True)))
        else:
            rt.measure(data.draw(st.sampled_from(labels)), haar_unitary(2, rng))
    for owner in (ALICE, BOB):
        got, whole = rt.density_of(owner), joint_density_of(rt, owner)
        assert got.shape == whole.shape
        assert np.max(np.abs(got - whole)) <= 1e-12


# ---------------------------------------------------------------------------
# Gates and bases: built from formulas that ``src/`` never checks

UNITARY_ATOL = 1e-9
ORTHONORMAL_ATOL = 1e-10


def test_every_built_gate_is_unitary():
    """The shared gates, the entangler, H R_Z at each octant, and the pattern
    unitary of all 512 octant triples."""
    gates = [H_GATE, X_GATE, Z_GATE, CZ_GATE, ENTANGLER, *RZ_BY_OCTANT]
    gates += HRZ_BY_OCTANT
    gates += [pattern_unitary(octants) for octants in itertools.product(range(8), repeat=3)]
    for gate in gates:
        assert identity_gap(gate) <= UNITARY_ATOL


@PROPERTY_SETTINGS
@given(st.floats(-20.0, 20.0))
def test_rz_matrix_is_unitary(theta):
    assert identity_gap(rz_matrix(theta)) <= UNITARY_ATOL


def test_every_shared_basis_is_orthonormal():
    for basis in (Z_BASIS, X_BASIS, *EQUATORIAL_BY_OCTANT):
        assert identity_gap(basis) <= ORTHONORMAL_ATOL


@PROPERTY_SETTINGS
@given(st.floats(-20.0, 20.0))
def test_equatorial_basis_is_orthonormal(phase):
    assert identity_gap(equatorial_basis(phase)) <= ORTHONORMAL_ATOL


@pytest.mark.parametrize(
    "matrix,targets",
    [(np.eye(3), [0]), (np.eye(3), [0, 1]), (CZ_GATE, [0])],
    ids=["3x3-one-target", "3x3-two-targets", "4x4-one-target"],
)
def test_apply_gate_refuses_a_matrix_of_the_wrong_size(matrix, targets):
    with pytest.raises(ValueError, match="cannot act on targets"):
        apply_gate(zero_state(2), matrix, targets)
