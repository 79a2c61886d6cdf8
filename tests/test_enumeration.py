"""The exact walk against whole-run replay, a greedy run, the driven and
forked walks and the reference, and its primitives.

``enumerated_distribution`` sums the branches of one walk of a run's gadget
steps on one session (``driver.enumerate_run``) and runs nothing else: the
walk checks that every compiled row of each step's gadget realizes its gate
up to the frame, applies the step's greedy row (its path operator, its
by-product and its outcomes) and enumerates the output stage. Its runner
argument is only checked. The replay path runs the whole run once per
outcome path through ``enumerate_runs``; both must give the same support
and the same probabilities up to rounding, since they sum them in
different orders. The walk's first branch must be the path and decoded
bits of a greedy ``run``. The driven walk (``helpers.driven_walk_run``)
drives every step through the runtime on the greedy path, and the forked
walk (``helpers.forked_enumerate_run``) forks every step into its outcome
branches and compares their states; the walk must give their outcomes and
decoded bits bit for bit, and their probabilities to the last bits
(``assert_same_branches``): its paths multiply compiled rows, theirs the
measurements they drive.
"""

import functools
import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import adbqc.runtime
from adbqc import protocols
from adbqc.blindness import confirm_capability
from adbqc.protocols import driver, gate_client, sueki
from adbqc.protocols import (
    TRAP_STATES,
    AdversaryConfig,
    GateRequest,
    ProtocolConfig,
    enumerated_distribution,
    reference_distribution,
    reference_state,
    run,
    run_protocol2,
    run_sueki,
    total_variation,
)
from adbqc.qsim import (
    BRANCH_PROB_FLOOR,
    CZ_GATE,
    GADGET_FIDELITY_ATOL,
    H_GATE,
    PLUS_AMPS,
    PROBABILITY_SLACK,
    X_BASIS,
    ZERO_AMPS,
)
from adbqc.runtime import QuantumRuntime, ReplayOutcomes, enumerate_runs
from adbqc.transcript import BOB
from helpers import (
    assert_channel_is_ideal, driven_walk_run, fidelity_up_to_phase, forked_enumerate_run,
    from_state,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"

SUEKI_H = ProtocolConfig("sueki", 1, 1, seed=5, algorithm=(GateRequest.single(0, name="h"),))
SUEKI_HH_CZ = ProtocolConfig("sueki", 2, 1, seed=4, algorithm=(
    GateRequest.single(0, name="h"), GateRequest.single(1, name="h"), GateRequest.cz_pair(0, 1),
))


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def replayed_distribution(config):
    """The distribution of ``config`` with every path replayed whole."""
    quiet = replace(config, record_transcript=False)
    out = {}
    for branch in enumerate_runs(lambda src: run(quiet, src).report.computation_bits):
        key = tuple(branch.value)
        out[key] = out.get(key, 0.0) + branch.probability
    return out


def runner(config):
    return {"sueki": protocols.run_sueki, "p1": protocols.run_protocol1,
            "p2": protocols.run_protocol2}[config.protocol]


def assert_walk_matches_replay(config):
    walked = enumerated_distribution(runner(config), config)
    replayed = replayed_distribution(config)
    assert walked.keys() == replayed.keys()
    assert total_variation(walked, replayed) <= PROBABILITY_SLACK


def assert_first_branch_is_the_greedy_run(config):
    """The walk's first branch takes the path of ``run`` on
    ``ReplayOutcomes(())`` and decodes to its bits."""
    source = ReplayOutcomes(())
    report = run(config, source).report
    first = driver.enumerate_run(config)[0]
    assert (first.outcomes, first.value) == (source.bits, report.computation_bits)


# how far a walked branch's probability may lie from a driven one's: the
# walk's paths apply each step's compiled row, theirs multiply measured ones
BRANCH_ROUNDING = 1e-14


def assert_same_branches(got, want):
    """Outcomes and values of every branch bit for bit, and probabilities
    within ``BRANCH_ROUNDING``."""
    assert [(br.outcomes, br.value) for br in got] == [(br.outcomes, br.value) for br in want]
    np.testing.assert_allclose([br.probability for br in got], [br.probability for br in want],
                               rtol=0, atol=BRANCH_ROUNDING)


def assert_walk_equals_the_forked_walk(config):
    assert_same_branches(driver.enumerate_run(config), forked_enumerate_run(config))


def assert_walk_equals_the_driven_walk(config):
    """The walk and the driven walk check the same row keys and leave the
    same frame, kept outcomes and register state, and their output stages
    give the same branches. The register is compared up to a global phase:
    the measure-only client discards a Bell half whose two halves weigh
    exactly 1/2 each, so which one the runtime keeps, and the phase it
    leaves, follows the rounding of the register it acts on."""
    driver._CHECKED.clear()
    driven, plan = driven_walk_run(config)
    checked = set(driver._CHECKED)
    driver._CHECKED.clear()
    walked, _ = driver.walk_run(config)
    assert driver._CHECKED == checked
    assert walked.frame == driven.frame
    assert (walked.kept, walked.rt.outcomes.bits) == (driven.kept, ())
    got, want = walked.rt.snapshot(), driven.rt.snapshot()
    phase = np.vdot(got, want)
    np.testing.assert_allclose(got * phase / abs(phase), want, rtol=0, atol=1e-12)
    assert_same_branches(driver.enumerate_output(walked, plan),
                         driver.enumerate_output(driven, plan))


# ---------------------------------------------------------------------------
# The walk against replay


@pytest.mark.parametrize("seed", range(6))
def test_fork_equals_replay_on_the_exact_workload(workloads, seed):
    for config in next(workloads.exact_rounds(seed)).configs:
        assert_walk_matches_replay(config)


@pytest.mark.parametrize("index", [0, 2], ids=["sueki", "p2"])
def test_fork_equals_replay_on_acceptance_9(workloads, index):
    config = ProtocolConfig(**workloads.ACCEPTANCE_9[index])
    assert_walk_matches_replay(config)


def test_fork_equals_replay_when_the_adversary_draws_after_the_forks():
    """The tamper flips act in the output stage, after the walk."""
    config = ProtocolConfig(
        "p2", 2, 1, trap_count=1, seed=9,
        adversary=AdversaryConfig(kind="trap_tamper", tamper_rate=0.5),
        algorithm=(GateRequest.single(0, octants=(1, 3, 5)),),
    )
    assert_walk_matches_replay(config)


@pytest.mark.parametrize("seed", range(6))
def test_the_first_branch_is_the_greedy_run_on_the_exact_workload(workloads, seed):
    for config in next(workloads.exact_rounds(seed)).configs:
        assert_first_branch_is_the_greedy_run(config)


@pytest.mark.parametrize("index", [0, 2], ids=["sueki", "p2"])
def test_the_first_branch_is_the_greedy_run_on_acceptance_9(workloads, index):
    assert_first_branch_is_the_greedy_run(ProtocolConfig(**workloads.ACCEPTANCE_9[index]))


@pytest.mark.parametrize("seed", range(6))
def test_the_walk_equals_the_forked_walk_on_the_exact_workload(workloads, seed):
    for config in next(workloads.exact_rounds(seed)).configs:
        assert_walk_equals_the_forked_walk(config)


@pytest.mark.parametrize("index", [0, 2], ids=["sueki", "p2"])
def test_the_walk_equals_the_forked_walk_on_acceptance_9(workloads, index):
    assert_walk_equals_the_forked_walk(ProtocolConfig(**workloads.ACCEPTANCE_9[index]))


@pytest.mark.parametrize("seed", range(6))
def test_the_walk_equals_the_driven_walk_on_the_exact_workload(workloads, seed):
    for config in next(workloads.exact_rounds(seed)).configs:
        assert_walk_equals_the_driven_walk(config)


@pytest.mark.parametrize("index", range(3), ids=["sueki", "p1", "p2"])
def test_the_walk_equals_the_driven_walk_on_acceptance_9(workloads, index):
    assert_walk_equals_the_driven_walk(ProtocolConfig(**workloads.ACCEPTANCE_9[index]))


P2_N2 = ProtocolConfig("p2", 2, 1, trap_count=1)


def test_a_runner_for_another_protocol_is_refused(monkeypatch):
    """Any runner but ``run`` and the config's own, a lambda that calls
    ``run`` included, is refused before the walk checks or reads any step's
    rows."""
    def refuse(*args):
        raise AssertionError("a step was walked")

    for name in ("_check_rows", "gadget_rows"):
        monkeypatch.setattr(driver, name, refuse)
    for wrong, config in [
        (run_sueki, P2_N2),
        (run_protocol2, SUEKI_H),
        (lambda config, outcomes=None: run(config, outcomes), SUEKI_H),
    ]:
        with pytest.raises(ValueError, match=f"^config is for protocol '{config.protocol}'$"):
            enumerated_distribution(wrong, config)


def never_called(fn):
    """A ``functools.wraps`` wrapper of ``fn``, as the benchmark tracer
    installs, that fails if it is called."""
    return functools.wraps(fn)(lambda *args, **kwargs: pytest.fail(f"{fn.__name__} called"))


@pytest.mark.parametrize("config", [SUEKI_H, SUEKI_HH_CZ, P2_N2],
                         ids=["sueki-H", "sueki-HH-CZ", "p2"])
def test_run_and_the_configs_own_runner_give_the_same_distribution(config):
    """``run`` and the config's own runner are both accepted, a wrapper of
    either counts as it, and none of them is called."""
    own = runner(config)
    want = enumerated_distribution(run, config)
    for accepted in (own, never_called(run), never_called(own)):
        assert enumerated_distribution(accepted, config) == want


def test_the_walk_catches_a_by_product_the_frame_does_not_record(monkeypatch):
    """A CZ gadget whose Z by-product lands on its second target while the
    frame flips the first leaves its outcome branches in different states."""
    real = driver.cz_on_runtime
    monkeypatch.setattr(
        driver, "cz_on_runtime", lambda rt, i, j, party=BOB: real(rt, j, i, party)
    )
    with pytest.raises(AssertionError, match=r"cz step on \(0, 1\).*different states"):
        enumerated_distribution(run_sueki, SUEKI_HH_CZ)


@pytest.mark.parametrize("name", ["sueki-HH-CZ", "p1-N9-d3"])
def test_the_walk_checks_the_keys_the_run_drives(monkeypatch, name):
    """The walk checks the rows of each (gadget, octant, secrets) the
    client's step is called with on the greedy path, the octant signed by
    the frame, and of the CZ where there is one; some steps here are driven
    at the negated octant, so an unsigned key would check other rows."""
    config = {"sueki-HH-CZ": SUEKI_HH_CZ, **EXACT}[name]
    client = driver.CLIENT_BY_PROTOCOL[config.protocol]
    real, driven = client.hrz, []

    def recording(rt, label, octant, secrets):
        driven.append(octant)
        return real(rt, label, octant, secrets)

    monkeypatch.setattr(client, "hrz", recording)
    run(config, ReplayOutcomes(()))
    steps = [step for step in driver.draw_plan(config).steps if step.kind == "hrz"]
    assert driven != [step.octant for step in steps]
    want = {(config.protocol, k, step.secrets) for k, step in zip(driven, steps)} | {("cz", 0, ())}
    driver.enumerate_run(config)
    assert driver._CHECKED == want


def test_the_walk_catches_a_p2_by_product_without_its_pad(monkeypatch):
    """The gate-only step without ``^ pad``: a pad-1 step's rows leave an
    X the frame does not record on every outcome, so the forks agree with
    each other, and the walk names the first step that draws pad 1."""
    monkeypatch.setattr(
        gate_client, "hrz",
        lambda rt, label, octant, secrets:
            gate_client.p2_hrz_on_runtime(rt, label, (octant + 4 * secrets[0]) % 8),
    )
    config = EXACT["p2-N3-d2-cz"]
    first = next(step for step in driver.draw_plan(config).steps if step.secrets == (1,))
    (pos,) = first.positions
    want = rf"^hrz step on \({pos},\) \(octant {first.octant}\)"
    with pytest.raises(AssertionError, match=want):
        enumerated_distribution(run_protocol2, config)


def test_the_walk_catches_a_flipped_sueki_by_product(monkeypatch):
    """A prepare-only step that reports the wrong X by-product on every
    outcome fails the walk's first step; the forked walk, which compares
    the outcome branches only with each other, lets it through."""
    real = sueki.hrz
    monkeypatch.setattr(sueki, "hrz", lambda *args: real(*args) ^ 1)
    forked_enumerate_run(SUEKI_H)
    with pytest.raises(AssertionError, match=r"^hrz step on \(0,\) \(octant 2\)"):
        enumerated_distribution(run_sueki, SUEKI_H)


# ---------------------------------------------------------------------------
# The walk against the reference

EXACT = {
    "p1-N3-d1": ProtocolConfig("p1", 3, 1, seed=7, algorithm=(GateRequest.single(0, name="h"),)),
    "p1-N6-d2-cz": ProtocolConfig("p1", 6, 2, seed=8, algorithm=(
        GateRequest.single(0, name="h"), GateRequest.cz_pair(0, 1),
        GateRequest.single(1, octants=(1, 3, 5)),
    )),
    "p1-N9-d3": ProtocolConfig("p1", 9, 3, seed=9, algorithm=(
        GateRequest.single(0, name="h"), GateRequest.cz_pair(0, 1),
        GateRequest.single(1, name="h"), GateRequest.cz_pair(1, 2),
        GateRequest.single(2, octants=(2, 1, 7)),
    ), output_bases=("x", "z", "z")),
    "p2-N3-d2-cz": ProtocolConfig("p2", 3, 2, trap_count=1, seed=10, algorithm=(
        GateRequest.single(0, name="h"), GateRequest.cz_pair(0, 1),
        GateRequest.single(1, octants=(3, 5, 1)),
    ), output_bases=("z", "x")),
}


@pytest.mark.parametrize("config", EXACT.values(), ids=EXACT.keys())
def test_the_walk_equals_the_forked_walk_on_the_exact_configs(config):
    assert_walk_equals_the_forked_walk(config)


@pytest.mark.parametrize("config", EXACT.values(), ids=EXACT.keys())
def test_the_walk_equals_the_driven_walk_on_the_exact_configs(config):
    assert_walk_equals_the_driven_walk(config)


@pytest.mark.parametrize("config", EXACT.values(), ids=EXACT.keys())
def test_the_first_branch_is_the_greedy_run_on_the_exact_configs(config):
    assert_first_branch_is_the_greedy_run(config)


@pytest.mark.parametrize("config", EXACT.values(), ids=EXACT.keys())
def test_the_walk_decodes_to_the_reference(config):
    dist = enumerated_distribution(runner(config), config)
    assert total_variation(dist, reference_distribution(config)) <= PROBABILITY_SLACK


def test_reference_keys_above_the_floor_are_the_enumerated_support():
    """The reference keeps a key at rounding level, (0, 0) at about 7e-33
    here, so its support is read with the branch floor."""
    config = ProtocolConfig("p1", 6, 2, seed=0, algorithm=(
        GateRequest.single(0, name="x"), GateRequest.cz_pair(0, 1),
    ))
    ref = reference_distribution(config)
    assert 0.0 < ref[(0, 0)] < BRANCH_PROB_FLOOR
    support = {bits for bits, p in ref.items() if p > BRANCH_PROB_FLOOR}
    assert support == set(enumerated_distribution(runner(config), config)) == {(1, 0)}


# ---------------------------------------------------------------------------
# The run's final state against the ideal


def assert_final_state_is_ideal(config):
    """Drive the greedy path and frame-correct the register: the compute
    positions, in logical order, hold ``reference_state`` and each trap its
    ``TRAP_STATES`` eigenstate, up to a global phase."""
    session = driver.new_session(config, ReplayOutcomes(()))
    plan = driver.draw_plan(config)
    driver.prepare_register(session)
    for step in plan.steps:
        driver.drive_step(session, step)
    corrected = session.frame.matrix_on(session.rt.snapshot())
    rt, labels = from_state(corrected, ReplayOutcomes(()), BOB)
    layout = plan.layout
    compute = rt.snapshot(
        [labels[layout.position_of_logical(q)] for q in range(config.logical_width)]
    )
    assert fidelity_up_to_phase(compute, reference_state(config)) >= 1.0 - GADGET_FIDELITY_ATOL
    for slot in layout.trap_slots:
        basis, bit, _ = TRAP_STATES[layout.roles[slot]]
        want = driver.OUTPUT_BASES[basis][bit]
        got = rt.snapshot([labels[layout.permutation[slot]]])
        assert fidelity_up_to_phase(got, want) >= 1.0 - GADGET_FIDELITY_ATOL


@pytest.mark.parametrize("index", range(3), ids=["sueki", "p1", "p2"])
def test_the_final_state_is_ideal_on_acceptance_9(workloads, index):
    assert_final_state_is_ideal(ProtocolConfig(**workloads.ACCEPTANCE_9[index]))


# Every acceptance-9 compute qubit ends in a Z eigenstate, where a wrong
# final R_Z changes nothing; these end off the Z axis before a Z reading.
OFF_AXIS = {
    "sueki": SUEKI_HH_CZ,
    **{key: EXACT[key] for key in ("p1-N6-d2-cz", "p2-N3-d2-cz")},
}


@pytest.mark.parametrize("config", OFF_AXIS.values(), ids=OFF_AXIS.keys())
def test_the_final_state_is_ideal_off_the_z_axis(config):
    assert_final_state_is_ideal(config)


CHANNEL = {"sueki-HH-CZ": SUEKI_HH_CZ, **EXACT}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["sueki", "p1", "p2", *CHANNEL])
def test_the_run_realizes_its_channel(workloads, name, seed):
    """``assert_channel_is_ideal`` on the acceptance-9 configs and the exact
    ones, over three seeds each (so three layouts and sampled outcome
    paths). The traps must still pass and the client keep to its
    capability."""
    acceptance_9 = {c["protocol"]: ProtocolConfig(**c) for c in workloads.ACCEPTANCE_9}
    config = acceptance_9.get(name) or CHANNEL[name]
    result = assert_channel_is_ideal(config.with_seed(config.seed + seed))
    assert result.report.accepted
    assert confirm_capability(result.transcript, config.capability.kind).passed


# ---------------------------------------------------------------------------
# Fork primitives


def test_a_fork_leaves_its_parent_unchanged():
    rt = QuantumRuntime(ReplayOutcomes(()))
    rt.add_qubit("q0", PLUS_AMPS, "bob")
    rt.add_qubit(rt.fresh("a"), PLUS_AMPS, "alice")
    rt.apply(CZ_GATE, ["q0", "a0"])
    amps = rt.snapshot().copy()
    owned = (rt.owned_by("bob"), rt.owned_by("alice"))

    fork = rt.fork(ReplayOutcomes((1,)))
    fork.add_qubit(fork.fresh("a"), ZERO_AMPS, "bob")
    fork.transfer("q0", "alice")
    assert fork.measure("a0", X_BASIS)[0] == 1
    fork.discard("a0")
    fork.apply(H_GATE, ["q0"])

    assert np.array_equal(rt.snapshot(), amps)
    assert (rt.owned_by("bob"), rt.owned_by("alice")) == owned
    assert rt.outcomes.trace == []
    assert rt.fresh("a") == "a1"
    assert fork.fresh("a") == "a2"


# ---------------------------------------------------------------------------
# The plan: every client and adversary draw happens before the run


class Refusing:
    """A generator that refuses every draw once ``closed`` holds anything."""

    def __init__(self, rng, closed):
        self._rng, self._closed = rng, closed

    def __getattr__(self, name):
        if self._closed:
            raise AssertionError(f"{name} drawn after the plan")
        return getattr(self._rng, name)


PLANNED = [
    ProtocolConfig("sueki", 2, 1, seed=4, algorithm=(GateRequest.cz_pair(0, 1),)),
    ProtocolConfig(
        "p1", 3, 1, seed=2,
        adversary=AdversaryConfig(kind="random_pauli", pauli_counts=(1, 0, 1)),
    ),
    ProtocolConfig(
        "p2", 3, 1, trap_count=2, seed=6,
        adversary=AdversaryConfig(kind="trap_tamper", tamper_rate=0.5),
    ),
]


@pytest.mark.parametrize("config", PLANNED, ids=lambda config: config.protocol)
def test_nothing_after_draw_plan_draws(monkeypatch, config):
    """Once the plan is drawn, no stream opens and no client or adversary
    generator draws; only the measurement outcomes are still sampled."""
    want = run(config).report
    closed = []
    real_stream, real_draw_plan = driver.stream, driver.draw_plan

    def guarded_stream(seed, purpose, index=0):
        if purpose == "outcomes":
            return real_stream(seed, purpose, index)
        if closed:
            raise AssertionError(f"stream {purpose!r} opened after the plan")
        return Refusing(real_stream(seed, purpose, index), closed)

    def draw_then_close(config):
        plan = real_draw_plan(config)
        closed.append(True)
        return plan

    monkeypatch.setattr(driver, "stream", guarded_stream)
    monkeypatch.setattr(driver, "draw_plan", draw_then_close)
    assert run(config).report == want
    assert closed == [True]


def test_branch_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(adbqc.runtime, "BRANCH_BUDGET", 4)
    with pytest.raises(ValueError, match="branch budget of 4 exceeded"):
        enumerate_runs(lambda src: run(SUEKI_H, src))
