"""Forked exact enumeration against whole-run replay, and its primitives.

``enumerated_distribution`` enumerates a run by forking it at its gadget
steps (``driver.enumerate_run``). The reference path replays the whole run
once per outcome path through ``enumerate_runs``. Both must give the same
distribution, float for float.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import adbqc.runtime
from adbqc import protocols
from adbqc.protocols import driver
from adbqc.protocols import (
    AdversaryConfig,
    GateRequest,
    ProtocolConfig,
    enumerated_distribution,
    run,
    run_sueki,
)
from adbqc.qsim import PLUS_AMPS, X_BASIS, ZERO_AMPS, Gate
from adbqc.runtime import QuantumRuntime, ReplayOutcomes, enumerate_runs

BENCH = Path(__file__).resolve().parent.parent / "bench"

SUEKI_H = ProtocolConfig("sueki", 1, 1, seed=5, algorithm=(GateRequest.single(0, name="h"),))


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


# ---------------------------------------------------------------------------
# Forks against replay


@pytest.mark.parametrize("seed", range(6))
def test_fork_equals_replay_on_the_exact_workload(workloads, seed):
    for config in next(workloads.exact_rounds(seed)).configs:
        assert enumerated_distribution(runner(config), config) == replayed_distribution(config)


@pytest.mark.parametrize("index", [0, 2], ids=["sueki", "p2"])
def test_fork_equals_replay_on_acceptance_9(workloads, index):
    config = ProtocolConfig(**workloads.ACCEPTANCE_9[index])
    assert enumerated_distribution(runner(config), config) == replayed_distribution(config)


def test_fork_equals_replay_when_the_adversary_draws_after_the_forks():
    """The tamper draws come after every gadget step's fork."""
    config = ProtocolConfig(
        "p2", 2, 1, trap_count=1, seed=9,
        adversary=AdversaryConfig(kind="trap_tamper", tamper_rate=0.5),
        algorithm=(GateRequest.single(0, octants=(1, 3, 5)),),
    )
    assert enumerated_distribution(runner(config), config) == replayed_distribution(config)


def test_a_runner_for_another_protocol_is_refused():
    config = ProtocolConfig("p2", 2, 1, trap_count=1)
    with pytest.raises(ValueError, match="config is for protocol 'p2'"):
        enumerated_distribution(run_sueki, config)


def test_a_runner_that_disagrees_with_the_forks_is_refused():
    def flipped(config, outcomes=None):
        result = run(config, outcomes)
        bits = tuple(1 - b for b in result.report.computation_bits)
        return replace(result, report=replace(result.report, computation_bits=bits))

    with pytest.raises(AssertionError, match="differs from the replayed"):
        enumerated_distribution(flipped, SUEKI_H)


# ---------------------------------------------------------------------------
# Fork primitives


def test_a_fork_leaves_its_parent_unchanged():
    rt = QuantumRuntime(ReplayOutcomes(()))
    rt.add_qubit("q0", PLUS_AMPS, "bob")
    rt.add_qubit(rt.fresh("a"), PLUS_AMPS, "alice")
    rt.apply(Gate.cz(), ["q0", "a0"])
    amps = rt.snapshot().amplitudes.copy()
    owned = (rt.owned_by("bob"), rt.owned_by("alice"))

    fork = rt.fork(ReplayOutcomes((1,)))
    fork.add_qubit(fork.fresh("a"), ZERO_AMPS, "bob")
    fork.transfer("q0", "alice")
    assert fork.measure("a0", X_BASIS)[0] == 1
    fork.discard("a0")
    fork.apply(Gate.h(), ["q0"])

    assert np.array_equal(rt.snapshot().amplitudes, amps)
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
    with pytest.raises(ValueError, match="branch budget of 4 exceeded"):
        enumerated_distribution(run_sueki, SUEKI_H)
