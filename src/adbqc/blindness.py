"""Audits that check what the server's view reveals about hidden angles.

Six audits:

- announced-angle uniformity for the prepare-only client (counting);
- no-signaling for the measure-only client: the server's combined
  classical/quantum view at every stage of the rotation gadget is identical
  whatever the octant (exact: views compiled once per octant, stacked distances);
- transcript statistics for full protocol runs: a permutation test that
  the server-visible classical record does not separate two angle choices;
- gadget-view total variation: the exact distribution of what the server
  sees classically in one client's rotation step, over every secret the
  client draws, compared across two octants (from the oracle's paths);
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
from .oracle import PROTOCOL_BY_GADGET, _branches
from .protocols import sueki
from .protocols.config import _integer
from .protocols.driver import CLIENT_BY_PROTOCOL, run
from .protocols.measure_client import p1_hrz_on_runtime
from .protocols.reference import total_variation
from .qsim import (
    GADGET_VIEW_TV_ATOL,
    NO_SIGNALING_ATOL,
    NORM_ATOL,
    PROBE_GRAM_ATOL,
    haar_random_state,
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


_VIEWS: dict[int, tuple] = {}  # octant -> (paths, views per step, {step: {record: Choi J}})


def _compiled_views(octant: int) -> tuple[int, Counter, dict[int, dict[tuple, np.ndarray]]]:
    """The server's view at each checkpoint of the measure-only gadget as a fixed
    map of the input, compiled into ``_VIEWS`` once: one walk on the register
    maximally entangled with a server-held reference (qubit 1) gives, per outcome
    prefix of probability p, its Choi matrix J = 2 p rho, summed per (step, record)."""
    if octant not in _VIEWS:
        chois: dict[int, dict[tuple, np.ndarray]] = {}
        seen: set[tuple[int, tuple[int, ...]]] = set()

        def run_fn(source: OutcomeSource) -> None:
            entangled = np.eye(2).reshape(-1) / math.sqrt(2)
            rt, labels = QuantumRuntime.from_state(entangled, source, BOB, Transcript())

            def checkpoint(at: int) -> None:
                if (prefix := (at, source.bits)) not in seen:
                    seen.add(prefix)
                    view, key = chois.setdefault(at, {}), rt.tape.bob_classical_values()
                    rho = 2 * source.path_probability() * rt.density_of(BOB)
                    view[key] = view.get(key, 0.0) + rho

            p1_hrz_on_runtime(rt, labels[0], octant, checkpoint=checkpoint)

        _VIEWS[octant] = (len(enumerate_runs(run_fn)), Counter(at for at, _ in seen), chois)
        for choi in (choi for view in chois.values() for choi in view.values()):
            choi.flags.writeable = False
    return _VIEWS[octant]


def _bob_view_blocks(octants: Sequence[int], state: np.ndarray, steps: Sequence[int]) -> dict:
    """Each octant's server view at each checkpoint in ``steps``, blocks keyed by the server's
    record: sum_ij psi_i conj(psi_j) <i|_ref J |j>_ref of each compiled J, one einsum per shape."""
    by_shape: dict[tuple, list] = {}
    for k, step in ((k, step) for k in octants for step in steps):
        for key, choi in _compiled_views(k)[2][step].items():
            by_shape.setdefault(choi.shape, []).append((k, step, key, choi))
    views: dict[int, dict[int, dict]] = {k: {step: {} for step in steps} for k in octants}
    for group in by_shape.values():
        rest = group[0][3].shape[0] // 4  # the qubits above the reference
        chois = np.stack([choi for *_, choi in group]).reshape(-1, rest, 2, 2, rest, 2, 2)
        blocks = np.einsum("nairbjc,i,j->narbc", chois, state, np.conj(state))
        for (k, step, key, _), block in zip(group, blocks.reshape(len(group), 2 * rest, -1)):
            views[k][step][key] = block
    return views


def block_trace_distances(pairs: Sequence[tuple[dict, dict]]) -> list[float]:
    """Trace distance between the block states a, b of each pair: the ``math.fsum`` over view
    keys of each block pair's distance (a missing block is 0), one stacked call per shape."""
    by_shape: dict[tuple, list] = {}
    for i, (a, b) in enumerate(pairs):
        for key in a.keys() | b.keys():
            rho_a, rho_b = a.get(key), b.get(key)
            rho_a = 0 * rho_b if rho_a is None else rho_a  # a missing block is 0
            rho_b = 0 * rho_a if rho_b is None else rho_b
            by_shape.setdefault(rho_a.shape, []).append((i, rho_a, rho_b))
    parts: list[list[float]] = [[] for _ in pairs]
    for owners, a_blocks, b_blocks in (zip(*blocks) for blocks in by_shape.values()):
        for i, dist in zip(owners, trace_distance(np.stack(a_blocks), np.stack(b_blocks))):
            parts[i].append(float(dist))
    return [math.fsum(part) for part in parts]


def audit_no_signaling(
    state: np.ndarray | None = None,
    octants: Sequence[int] = tuple(range(8)),
    steps: Sequence[int] = tuple(range(1, 10)),
    seed: int = 404,
) -> AuditResult:
    """Exact check that the server's view of the measure-only rotation
    gadget is octant-independent at every stage.

    Contracts each octant's compiled views with ``state`` (one normalized
    qubit) at each checkpoint in ``steps`` (distinct integers 1 to 9) and
    compares them across all octant pairs by trace distance. Each octant is
    an integer 0..7 (no bool or float; 8 is not 0), none repeated.
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
    state = haar_random_state(1, stream(seed, "no-signaling-state")) if state is None else state
    if np.shape(state) != (2,) or not abs(np.linalg.norm(state) - 1.0) <= NORM_ATOL:  # NaN too
        raise ValueError("the no-signaling audit needs one normalized qubit as its state")
    views = _bob_view_blocks(octants, state, steps)
    compared = [(s, a, b) for s in steps for i, a in enumerate(octants) for b in octants[i + 1:]]
    dists = block_trace_distances([(views[a][s], views[b][s]) for s, a, b in compared])
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
    """Exact total variation between the server's views of one gadget.

    Compares the exact distributions of everything the server sees
    classically (outcomes it measures plus messages it receives) in one
    client's rotation step at two different octants, with the client's
    secrets marginalized over its equally likely ``SECRETS``. Each
    distribution sums, per server record, the probabilities |M psi|^2 of the
    gadget's compiled paths (``oracle._branches``) on one Haar-random input.
    For the honest clients the distance must vanish.
    """
    if gadget == "cz":
        raise ValueError(f"gadget {gadget!r} has no angle to hide")
    if gadget not in PROTOCOL_BY_GADGET:
        raise ValueError(f"unknown gadget {gadget!r}")
    state = haar_random_state(1, stream(99, "gadget-view-input"))
    secrets = CLIENT_BY_PROTOCOL[PROTOCOL_BY_GADGET[gadget]].SECRETS
    weight = 1.0 / len(secrets)
    branches = 0

    def distribution(octant: int) -> dict:
        nonlocal branches
        probs: dict = {}
        for drawn in secrets:
            rows = _branches(gadget, octant, drawn)
            branches += len(rows)
            for _, operator, _, record in rows:
                out = operator @ state
                probs[record] = probs.get(record, 0.0) + weight * float(np.vdot(out, out).real)
        return probs

    pa = distribution(octant_a)
    pb = distribution(octant_b)
    tv = total_variation(pa, pb)
    return AuditResult(
        name="gadget_view_tv",
        passed=tv <= GADGET_VIEW_TV_ATOL,
        statistic=float(tv),
        threshold=GADGET_VIEW_TV_ATOL,
        details={"gadget": gadget, "views_a": len(pa), "views_b": len(pb),
                 "branches": branches},
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
