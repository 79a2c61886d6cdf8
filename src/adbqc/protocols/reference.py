"""Direct (single-party) simulation of a configured algorithm.

Gives the ground-truth output distribution a protocol run must reproduce:
the scheduled patterns and CZs are applied as plain unitaries on the
logical register and the measurement statistics read off the final state.
The keys are built in one numpy pass over the nonzero weights.
``enumerated_distribution`` sums ``driver.enumerate_run``'s paths into such keys.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from ..gadgets import pattern_unitary
from ..qsim import CZ_GATE, H_GATE, apply_gate
from .config import ProtocolConfig
from .driver import _RUNNER_BY_PROTOCOL, enumerate_run, run
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

    The paths come from ``enumerate_run`` alone, which applies each gadget
    step's greedy compiled row. ``run_protocol`` is checked, never called:
    it must be ``run`` or the config's own runner (a ``functools.wraps``
    wrapper, such as the benchmark tracer's, counts as what it wraps), else
    the config is refused before any step is walked. It stays only for the benchmark's
    call.
    """
    runner = inspect.unwrap(run_protocol)
    if runner is not run and runner is not _RUNNER_BY_PROTOCOL[config.protocol]:
        raise ValueError(f"config is for protocol {config.protocol!r}")
    out: dict[tuple[int, ...], float] = {}
    for branch in enumerate_run(config):
        key = tuple(branch.value)
        out[key] = out.get(key, 0.0) + branch.probability
    return out


def total_variation(
    p: dict[tuple[int, ...], float], q: dict[tuple[int, ...], float]
) -> float:
    """Total variation distance; ``fsum`` makes it independent of key order."""
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
