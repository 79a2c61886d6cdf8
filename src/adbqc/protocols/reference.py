"""Direct (single-party) simulation of a configured algorithm.

Gives the ground-truth output distribution a protocol run must reproduce:
the scheduled patterns and CZs are applied as plain unitaries on the
logical register and the measurement statistics read off the final state.
The keys are built in one numpy pass over the nonzero weights.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..gadgets import pattern_unitary
from ..qsim import CZ_GATE, H_GATE, apply_gate
from ..runtime import ReplayOutcomes
from .config import ProtocolConfig
from .driver import enumerate_run
from .schedule import schedule


def reference_state(config: ProtocolConfig) -> np.ndarray:
    """Run the algorithm as bare unitaries on |0...0> (logical width only)."""
    width = config.logical_width
    state = np.zeros(1 << width, dtype=complex)
    state[0] = 1.0
    for layer in schedule(config.algorithm, width, config.depth):
        for q, octants in layer.patterns:
            state = apply_gate(state, pattern_unitary(octants), [q])
        for i, j in layer.czs:
            state = apply_gate(state, CZ_GATE, [i, j])
    return state


def reference_distribution(config: ProtocolConfig) -> dict[tuple[int, ...], float]:
    """Exact joint distribution of the logical output bits.

    Bit q of each key is logical qubit q, measured in its configured basis.
    Only nonzero weights get a key, in ascending index order, and each
    value is the state's weight |a|^2 unchanged. So a key may hold rounding
    noise (about 1e-32 where the exact weight is 0): a support check reads
    keys above a floor such as ``BRANCH_PROB_FLOOR``.
    """
    state = reference_state(config)
    for q, basis in enumerate(config.plan()):
        if basis == "x":
            state = apply_gate(state, H_GATE, [q])
    weights = np.abs(state) ** 2
    (idx,) = weights.nonzero()
    # row q: bit q of each index, as lists, so the int array is freed before the keys are built
    bits = ((idx >> np.arange(config.logical_width)[:, None]) & 1).tolist()
    return dict(zip(zip(*bits), weights[idx].tolist()))


def enumerated_distribution(
    run_protocol, config: ProtocolConfig
) -> dict[tuple[int, ...], float]:
    """Exact decoded-output distribution of a protocol, all branches.

    The paths come from ``enumerate_run``, which drives each gadget step once.
    ``run_protocol`` runs a config against an outcome source, like
    ``protocols.run``. It runs once, on the greedy path, so a runner for
    another protocol is refused and the walk's first path (outcomes and
    decoded bits) is checked against a whole replayed run there.
    """
    source = ReplayOutcomes(())
    result = run_protocol(replace(config, record_transcript=False), outcomes=source)
    replayed = (source.bits, result.report.computation_bits)
    branches = enumerate_run(config)
    if (branches[0].outcomes, branches[0].value) != replayed:
        raise AssertionError(
            f"walked first path {branches[0]} differs from the replayed {replayed}"
        )
    out: dict[tuple[int, ...], float] = {}
    for branch in branches:
        key = tuple(branch.value)
        out[key] = out.get(key, 0.0) + branch.probability
    return out


def total_variation(
    p: dict[tuple[int, ...], float], q: dict[tuple[int, ...], float]
) -> float:
    """Total variation distance; ``fsum`` makes it independent of key order."""
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
