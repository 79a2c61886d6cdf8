"""Audits that check what the server's view reveals about hidden angles.

Six audits:

- announced-angle uniformity for the prepare-only client (counting);
- no-signaling for the measure-only client: the server's combined
  classical/quantum view at every stage of the rotation gadget, with the
  gadget's input maximally entangled with a reference the server keeps, is
  identical whatever the octant (exact: views compiled once per octant);
- transcript statistics for full protocol runs: a permutation test that
  the server-visible classical record does not separate two angle choices;
- gadget-view distance: what the server sees classically in one client's
  rotation step, over every secret the client draws, compared across two
  octants on every input at once (the POVM of the oracle's paths);
- the entangled-probe analysis of the lent-ancilla gadget, with the
  closed-form Gram matrix as the oracle, all probes in one batch;
- capability confinement: the client used no quantum operation outside
  its class.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adversary import (
    distinguishability,
    lent_weight_one,
    probe_gram,
    probe_gram_closed_form,
)
from .gadgets import announced_octant
from .oracle import PROTOCOL_BY_GADGET, check_octant
from .protocols import sueki
from .protocols.config import _integer
from .protocols.driver import CLIENT_BY_PROTOCOL, gadget_rows, run
from .protocols.measure_client import p1_hrz_on_runtime
from .protocols.reference import total_variation
from .qsim import (
    GADGET_VIEW_TV_ATOL,
    NO_SIGNALING_ATOL,
    PROBE_GRAM_ATOL,
    haar_random_states,
    trace_distance,
)
from .rng import stream
from .runtime import OutcomeSource, QuantumRuntime, enumerate_runs
from .transcript import ALICE, BOB, Transcript

NULL_SIGMAS = 5.0

CAPABILITY_QUANTUM_ACTIONS = {
    "prepare_only": frozenset({"prepare", "discard"}),
    "measure_only": frozenset({"measure", "discard"}),
    "gate_only": frozenset({"rotate", "discard"}),
}


@dataclass(frozen=True)
class AuditResult:
    name: str
    passed: bool
    statistic: float
    threshold: float
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Announced-angle uniformity (prepare-only client)


def audit_theta_uniformity() -> AuditResult:
    """The announced octant must cover all eight octants equally often (twice)
    over the client's sixteen equally likely secrets ``sueki.SECRETS``, for
    every target octant and first outcome: 8 targets x 2 outcomes x 8
    coverage counts = 128 deterministic checks, zero tolerance."""
    share = len(sueki.SECRETS) // 8
    worst = 0
    checks = 0
    for target in range(8):
        for s1 in (0, 1):
            seen = Counter(announced_octant(target, *secrets, s1) for secrets in sueki.SECRETS)
            for k in range(8):
                worst = max(worst, abs(seen.get(k, 0) - share))
                checks += 1
    return AuditResult(
        name="theta_uniformity",
        passed=worst == 0,
        statistic=float(worst),
        threshold=0.0,
        details={"checks": checks},
    )


# ---------------------------------------------------------------------------
# No-signaling through the measure-only rotation gadget


_VIEWS: dict[int, tuple] = {}  # octant -> (paths, views per step, {step: {record: p rho}})


def _compiled_views(octant: int) -> tuple[int, Counter, dict[int, dict[tuple, np.ndarray]]]:
    """The server's view at each checkpoint of the measure-only gadget, compiled
    into ``_VIEWS`` once: one walk on the register maximally entangled with a
    reference the server holds (qubit 1) gives, per outcome prefix of
    probability p, the block p rho of the server's state, summed per (step,
    record). These blocks are the view of a server that keeps the reference,
    the strongest view of the gadget on any input."""
    if octant not in _VIEWS:
        blocks: dict[int, dict[tuple, np.ndarray]] = {}
        seen: set[tuple[int, tuple[int, ...]]] = set()

        def run_fn(source: OutcomeSource) -> None:
            entangled = np.eye(2).reshape(-1) / math.sqrt(2)
            rt, labels = QuantumRuntime.from_state(entangled, source, BOB, Transcript())

            def checkpoint(at: int) -> None:
                if (prefix := (at, source.bits)) not in seen:
                    seen.add(prefix)
                    view, key = blocks.setdefault(at, {}), rt.tape.bob_classical_values()
                    rho = source.path_probability() * rt.density_of(BOB)
                    view[key] = view.get(key, 0.0) + rho

            p1_hrz_on_runtime(rt, labels[0], octant, checkpoint=checkpoint)

        _VIEWS[octant] = (len(enumerate_runs(run_fn)), Counter(at for at, _ in seen), blocks)
        for block in (block for view in blocks.values() for block in view.values()):
            block.flags.writeable = False
    return _VIEWS[octant]


def block_trace_distances(views: Sequence[dict], pairs: Sequence[tuple[int, int]]) -> list[float]:
    """Trace distance between the block states ``views[i]`` and ``views[j]`` of each
    pair (i, j): the ``math.fsum`` over keys of each block pair's distance (a missing
    block is 0). The blocks of each shape are stacked once, as (key, view), and one
    ``trace_distance`` call per shape takes every pair at every key."""
    by_shape: dict[tuple, tuple[dict, list]] = {}
    for v, view in enumerate(views):
        for key, block in view.items():
            keys, cells = by_shape.setdefault(block.shape, ({}, []))
            cells.append((keys.setdefault(key, len(keys)), v, block))
    first, second = np.array(pairs).reshape(-1, 2).T
    dists = [np.zeros((0, len(pairs)))]  # (key, pair) per shape
    for shape, (keys, cells) in by_shape.items():
        at_key, at_view, blocks = zip(*cells)
        stacks = np.zeros((len(keys), len(views), *shape), dtype=complex)
        stacks[at_key, at_view] = blocks
        dists.append(trace_distance(stacks[:, first], stacks[:, second]))
    return [math.fsum(column) for column in np.concatenate(dists).T.tolist()]


def audit_no_signaling(
    octants: Sequence[int] = tuple(range(8)),
    steps: Sequence[int] = tuple(range(1, 10)),
) -> AuditResult:
    """Exact check that the server's view of the measure-only rotation
    gadget is octant-independent at every stage, on every input: compares
    each octant's compiled views at each checkpoint in ``steps`` (distinct
    integers 1 to 9) across all octant pairs by trace distance, drawing no
    random number. Each octant is an integer 0..7 (no bool or float; 8 is
    not 0), none repeated.
    """
    if len(octants) < 2 or not steps:
        raise ValueError("the no-signaling audit needs two octants and a step to compare")
    octants = [_integer("octant", k) for k in octants]
    if any(k not in range(8) for k in octants) or len(set(octants)) != len(octants):
        raise ValueError(f"the no-signaling audit needs distinct octants in 0..7, got {octants}")
    steps = [_integer("step", s) for s in steps]
    if len(set(steps)) != len(steps):
        raise ValueError(f"the no-signaling audit needs distinct steps, got {steps}")
    if unmarked := [s for s in steps if s not in range(1, 10)]:
        raise ValueError(f"the measure-only gadget marks no step {unmarked[0]}")
    pairs = [(i, j) for i in range(len(octants)) for j in range(i + 1, len(octants))]
    compared = [(s, octants[i], octants[j]) for s in steps for i, j in pairs]
    dists = [dist for s in steps for dist in
             block_trace_distances([_compiled_views(k)[2][s] for k in octants], pairs)]
    worst = max(dists)
    worst_at = compared[dists.index(worst)] if worst > 0.0 else None
    return AuditResult(
        name="no_signaling",
        passed=worst <= NO_SIGNALING_ATOL,
        statistic=worst,
        threshold=NO_SIGNALING_ATOL,
        details={"worst_at": worst_at, "steps": steps, "octants": octants,
                 "branches": sum(_VIEWS[k][0] for k in octants),
                 "views": sum(_VIEWS[k][1][s] for k in octants for s in steps)},
    )


# ---------------------------------------------------------------------------
# Transcript statistics for full protocol runs


def _empirical_tv(group_a: list[tuple], group_b: list[tuple]) -> float:
    freq = [{k: c / len(g) for k, c in Counter(g).items()} for g in (group_a, group_b)]
    return total_variation(*freq)


def audit_transcript_tv(
    config_a,
    config_b,
    runs: int = 200,
    resamples: int = 200,
    seed: int = 1000,
) -> AuditResult:
    """Permutation test on server-visible transcripts of two angle choices.

    Two groups of protocol runs (``driver.run``, independent seeds) are
    reduced to their classical signatures; the observed total-variation
    distance is compared against a null distribution obtained by pooling
    and resplitting. A null threshold of 1 or more, the largest total
    variation, could reject nothing (as when every run's signature is
    unique), so it is refused.
    """
    if runs < 1 or resamples < 1:
        raise ValueError("the transcript audit needs at least one run and one resample")

    def gather(config, base: int) -> list[tuple]:
        return [
            run(config.with_seed(base + t)).transcript.bob_classical_values()
            for t in range(runs)
        ]

    group_a = gather(config_a, seed)
    group_b = gather(config_b, seed + runs)
    observed = _empirical_tv(group_a, group_b)

    pool = group_a + group_b
    rng = stream(seed, "transcript-null")
    null = np.empty(resamples)
    for r in range(resamples):
        perm = rng.permutation(len(pool))
        half = len(pool) // 2
        left = [pool[i] for i in perm[:half]]
        right = [pool[i] for i in perm[half:]]
        null[r] = _empirical_tv(left, right)
    threshold = float(np.mean(null) + NULL_SIGMAS * np.std(null))
    if threshold >= 1.0:
        raise ValueError(
            f"the transcript audit's null threshold {threshold:.3f} is at least 1, "
            "the largest total variation, so it could reject nothing"
        )
    return AuditResult(
        name="transcript_tv",
        passed=observed <= threshold,
        statistic=observed,
        threshold=threshold,
        details={"runs": runs, "null_mean": float(np.mean(null)),
                 "null_std": float(np.std(null))},
    )


def audit_gadget_view_tv(
    gadget: str,
    octant_a: int,
    octant_b: int,
) -> AuditResult:
    """Exact distance between the server's classical views of one gadget.

    Compares what the server sees classically (outcomes it measures plus
    messages it receives) in one client's rotation step at two octants, with
    the client's secrets marginalized over its equally likely ``SECRETS``.
    Per server record, E = sum M^dagger M over the gadget's compiled paths
    (``driver.gadget_rows``), averaged over the secrets and divided by the
    input dimension, is that record's block when the server keeps a reference
    maximally entangled with the input; the block trace distance between the
    octants' E's is zero exactly when the record distributions agree on
    every input. For the honest clients it must vanish.
    """
    if gadget == "cz":
        raise ValueError(f"gadget {gadget!r} has no angle to hide")
    if gadget not in PROTOCOL_BY_GADGET:
        raise ValueError(f"unknown gadget {gadget!r}")
    protocol = PROTOCOL_BY_GADGET[gadget]
    secrets = CLIENT_BY_PROTOCOL[protocol].SECRETS

    def povm(octant: int) -> tuple[int, dict]:
        check_octant(gadget, octant)
        rows = [row for drawn in secrets for row in gadget_rows(protocol, int(octant), drawn)]
        ops = np.stack([operator for _, operator, _, _ in rows])
        slot: dict = {}  # server record -> its index
        at = [slot.setdefault(record, len(slot)) for *_, record in rows]
        elements = np.zeros((len(slot), *ops.shape[1:]), dtype=complex)
        np.add.at(elements, at, ops.conj().swapaxes(1, 2) @ ops)
        return len(rows), dict(zip(slot, elements / (len(secrets) * ops.shape[-1])))

    (paths_a, ea), (paths_b, eb) = povm(octant_a), povm(octant_b)
    dist = block_trace_distances([ea, eb], [(0, 1)])[0]
    return AuditResult(
        name="gadget_view_tv",
        passed=dist <= GADGET_VIEW_TV_ATOL,
        statistic=dist,
        threshold=GADGET_VIEW_TV_ATOL,
        details={"gadget": gadget, "views_a": len(ea), "views_b": len(eb),
                 "branches": paths_a + paths_b},
    )


# ---------------------------------------------------------------------------
# Entangled-probe analysis of the lent-ancilla gadget


def audit_probe_gram(num_probes: int = 100, seed: int = 77) -> AuditResult:
    """Check the closed-form probe Gram matrix against direct simulation.

    Random two-qubit probes (lent qubit plus server memory), in one batch:
    the overlap pattern across the eight octant hypotheses must match
    (1 - w) + w exp(i (k' - k) pi / 4) entrywise.
    """
    if num_probes < 1:
        raise ValueError("the probe audit needs at least one probe")
    probes = haar_random_states(num_probes, 2, stream(seed, "probe-states"))
    direct = probe_gram(probes, lent_qubit=0)
    closed = probe_gram_closed_form(lent_weight_one(probes, 0))
    worst = float(np.max(np.abs(direct - closed)))
    sharpest = float(np.max(distinguishability(direct)))
    return AuditResult(
        name="probe_gram",
        passed=worst <= PROBE_GRAM_ATOL,
        statistic=worst,
        threshold=PROBE_GRAM_ATOL,
        details={"probes": num_probes, "max_distinguishability": sharpest},
    )


# ---------------------------------------------------------------------------
# Capability confinement


def client_quantum_actions(transcript: Transcript) -> set[str]:
    """Quantum operations the client performed, from its local record."""
    actions: set[str] = set()
    for ev in transcript.events:
        if ev.party != ALICE:
            continue
        if ev.kind == "outcome":
            actions.add("measure")
        elif ev.kind == "local":
            actions.add(ev.payload.get("op", "unnamed"))
    return actions


def confirm_capability(transcript: Transcript, capability: str) -> AuditResult:
    """Check the client never used a quantum ability outside its class."""
    allowed = CAPABILITY_QUANTUM_ACTIONS.get(capability)
    if allowed is None:
        raise ValueError(f"unknown capability {capability!r}")
    used = client_quantum_actions(transcript)
    extra = used - allowed
    return AuditResult(
        name="capability_confinement",
        passed=not extra,
        statistic=float(len(extra)),
        threshold=0.0,
        details={"capability": capability, "used": sorted(used),
                 "violations": sorted(extra)},
    )
