"""Audits that check what the server's view reveals about hidden angles.

Six audits:

- announced-angle uniformity for the prepare-only client (counting);
- the server's view of one client's rotation step (``audit_gadget_view_tv``,
  any client): its quantum state and classical record before each event it
  can see and at the end, over every secret the client draws, with the
  step's input maximally entangled with a reference the server keeps, must
  be identical whatever the octant (exact: views compiled once per client
  and octant, by one walk of the step that runs, bit-equal blocks interned
  as one object; each call decomposes each distinct pair of blocks once);
- no-signaling for the measure-only client: the same audit's p1 case, over
  any set of octants and checkpoints;
- transcript statistics for full protocol runs: a permutation test that
  the server-visible classical record does not separate two angle choices;
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
from .gadgets import PauliFrame, announced_octant
from .oracle import PROTOCOL_BY_GADGET, check_octant
from .protocols import sueki
from .protocols.config import _integer
from .protocols.driver import CLIENT_BY_PROTOCOL, drive_gadget, register_label, run
from .protocols.reference import total_variation
from .qsim import NO_SIGNALING_ATOL, PROBE_GRAM_ATOL, haar_random_states, trace_distance
from .rng import stream
from .runtime import OutcomeSource, QuantumRuntime, enumerate_runs
from .transcript import ALICE, BOB, Transcript, server_sees, server_values

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
# The server's view of one client's rotation step


# the rotation step's register maximally entangled with a reference, and no by-product yet
_ENTANGLED = np.eye(2).reshape(-1) / math.sqrt(2)
_NO_FRAME = PauliFrame.identity(1)
# paths walked, views made per checkpoint, and {checkpoint: {server record: block}}
_Views = tuple[int, Counter, dict[int, dict[tuple, np.ndarray]]]
_VIEWS: dict[tuple[str, int], _Views] = {}  # (protocol, octant) -> its views
_BLOCKS: dict[bytes, np.ndarray] = {}  # bytes -> the one compiled block: a read-only array on them


class _Checkpoints(Transcript):
    """A transcript that keeps no event: for each event the server can see
    (``server_sees``), it calls ``take(checkpoint, record)`` before the event
    counts, so checkpoint k comes before the k-th visible event, and the
    record is the server's classical record so far (the ``server_values``
    that ``bob_classical_values`` joins), both kept up as the events arrive."""

    def __init__(self, take) -> None:
        super().__init__()
        self.take = take
        self.visible = 0
        self.server_record: tuple = ()

    def _push(self, kind: str, party: str, to: str | None, payload: dict) -> None:
        if server_sees(kind, party):
            self.visible += 1
            self.take(self.visible, self.server_record)
            self.server_record += server_values(kind, payload)


def _compiled_views(protocol: str, octant: int) -> _Views:
    """The server's view at each checkpoint of ``protocol``'s rotation step
    (``drive_gadget``), compiled into ``_VIEWS`` once: for each entry of the
    client's ``SECRETS``, one walk on the register maximally entangled with a
    reference the server holds adds, once per (checkpoint, outcome prefix) of
    probability p, p ``density_of(BOB)`` / len(SECRETS) to that (checkpoint,
    server record) block: the strongest view of the step on any input. A
    checkpoint comes before each event the server can see, and one at the end.
    Every block is interned (``_BLOCKS``): bit-equal blocks of all views are one object,
    and a checkpoint whose blocks are the last one's objects is the last one's dict."""
    if (protocol, octant) not in _VIEWS:
        secrets = CLIENT_BY_PROTOCOL[protocol].SECRETS
        blocks: dict[int, dict[tuple, np.ndarray]] = {}
        made: Counter = Counter()
        paths = 0
        for drawn in secrets:
            seen: set[tuple[int, tuple[int, ...]]] = set()

            def run_fn(source: OutcomeSource) -> None:
                def take(at: int, record: tuple) -> None:
                    if (prefix := (at, source.bits)) not in seen:
                        seen.add(prefix)
                        view = blocks.setdefault(at, {})
                        rho = source.path_probability() / len(secrets) * rt.density_of(BOB)
                        view[record] = view.get(record, 0.0) + rho

                tape = _Checkpoints(take)
                rt = QuantumRuntime(source, tape)
                rt.load(_ENTANGLED, [register_label(0), register_label(1)], BOB)
                drive_gadget(rt, protocol, _NO_FRAME, (0,), octant, drawn)
                take(tape.visible + 1, tape.server_record)

            paths += len(enumerate_runs(run_fn))
            made.update(at for at, _ in seen)
        for at in sorted(blocks):  # interned; an unchanged checkpoint is its predecessor
            view, last = blocks[at], blocks.get(at - 1, {})
            for record, block in view.items():
                shape, raw = block.shape, block.tobytes()
                view[record] = _BLOCKS.setdefault(raw, np.frombuffer(raw, complex).reshape(shape))
            if view.keys() == last.keys() and all(view[k] is last[k] for k in view):
                blocks[at] = last
        _VIEWS[protocol, octant] = (paths, made, blocks)
    return _VIEWS[protocol, octant]


def block_trace_distances(views: Sequence[dict], pairs: Sequence[tuple[int, int]]) -> list[float]:
    """Trace distance between the block states ``views[i]`` and ``views[j]`` of each
    pair (i, j): the ``math.fsum`` over keys of each block pair's distance (a missing
    block is 0; one object is 0 from itself). Blocks are told apart by identity, as
    compiled ones are interned (``_BLOCKS``), and per shape one ``trace_distance``
    call takes each distinct ordered pair of blocks once, for every cell it fills."""
    by_shape: dict[tuple, tuple[dict, dict, dict]] = {}  # keys, distinct blocks' rows, cells
    for v, view in enumerate(views):
        for key, block in view.items():
            keys, rows, cells = by_shape.get(block.shape) or by_shape.setdefault(
                block.shape, ({}, {}, {}))
            row = rows.get(id(block)) or rows.setdefault(id(block), (1 + len(rows), block))
            cells[keys.setdefault(key, len(keys)), v] = row[0]
    first, second = np.array(list(zip(*pairs)), dtype=int).reshape(2, -1)
    terms: dict[int, list[float]] = {}  # each pair's distances at the keys where it differs
    for shape, (keys, rows, cells) in by_shape.items():
        row = np.zeros((len(keys), len(views)), dtype=int)
        row[tuple(zip(*cells))] = list(cells.values())  # each (key, view)'s block row
        stack = np.array([np.zeros(shape, complex), *(block for _, block in rows.values())])
        key, pair = np.nonzero(row[:, first] != row[:, second])  # row 0, the zero block: no block
        both = list(zip(row[key, first[pair]].tolist(), row[key, second[pair]].tolist()))
        # ordered: eigvalsh(b - a) is eigvalsh(a - b) negated and reversed, whose sum can differ
        a, b = np.array(list(distinct := dict.fromkeys(both)), dtype=int).reshape(-1, 2).T
        dist = dict(zip(distinct, trace_distance(stack[a], stack[b]).tolist()))
        for p, ab in zip(pair.tolist(), both):
            terms.setdefault(p, []).append(dist[ab])
    return [math.fsum(terms.get(p, ())) for p in range(len(pairs))]


def _audit_views(
    name: str, protocol: str, octants: list[int], steps: list[int] | None, details: dict
) -> AuditResult:
    """Compare the compiled views of ``protocol``'s step at each pair of ``octants`` at
    each checkpoint in ``steps`` (every one when None) by trace distance, in one
    ``block_trace_distances`` call that takes each distinct tuple of view objects once."""
    compiled = [_compiled_views(protocol, k) for k in octants]
    checkpoints = range(1, 1 + max(at for _, _, views in compiled for at in views))
    steps = list(checkpoints) if steps is None else steps
    if outside := [s for s in steps if s not in checkpoints]:
        raise ValueError(f"the {protocol} step has no checkpoint {outside[0]}")
    pairs = [(i, j) for i in range(len(octants)) for j in range(i + 1, len(octants))]
    compared = [(s, octants[i], octants[j]) for s in steps for i, j in pairs]
    at_step = [[views.get(s, {}) for _, _, views in compiled] for s in steps]
    distinct = {tuple(map(id, at)): at for at in at_step}  # an alias is compared once
    n = len(octants)
    once = block_trace_distances([view for at in distinct.values() for view in at], [
        (d * n + i, d * n + j) for d in range(len(distinct)) for i, j in pairs])
    by_ids = {ids: once[d * len(pairs):(d + 1) * len(pairs)] for d, ids in enumerate(distinct)}
    dists = [dist for at in at_step for dist in by_ids[tuple(map(id, at))]]
    worst = max(dists)
    return AuditResult(
        name=name,
        passed=worst <= NO_SIGNALING_ATOL,
        statistic=worst,
        threshold=NO_SIGNALING_ATOL,
        details={**details, "worst_at": compared[dists.index(worst)] if worst > 0.0 else None,
                 "steps": steps, "octants": octants,
                 "branches": sum(paths for paths, _, _ in compiled),
                 "views": sum(made[s] for _, made, _ in compiled for s in steps)},
    )


def audit_no_signaling(
    octants: Sequence[int] = tuple(range(8)),
    steps: Sequence[int] | None = None,
) -> AuditResult:
    """Exact check that the server's view of the measure-only rotation step
    is octant-independent at every checkpoint, on every input: the p1 case
    of ``audit_gadget_view_tv``, over all pairs of ``octants`` and at each
    checkpoint in ``steps`` (distinct integers 1 to 13, every one by
    default), drawing no random number. Each octant is an integer 0..7 (no
    bool or float; 8 is not 0), none repeated.
    """
    if len(octants) < 2 or (steps is not None and not steps):
        raise ValueError("the no-signaling audit needs two octants and a step to compare")
    octants = [_integer("octant", k) for k in octants]
    if any(k not in range(8) for k in octants) or len(set(octants)) != len(octants):
        raise ValueError(f"the no-signaling audit needs distinct octants in 0..7, got {octants}")
    if steps is not None:
        steps = [_integer("step", s) for s in steps]
        if len(set(steps)) != len(steps):
            raise ValueError(f"the no-signaling audit needs distinct steps, got {steps}")
    return _audit_views("no_signaling", "p1", octants, steps, {})


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
    """Exact distance between the server's views of one client's rotation step.

    Compares the compiled views (``_compiled_views``) of the gadget's client
    at two octants at every checkpoint: the server's quantum state and
    classical record, with the client's secrets marginalized over its
    equally likely ``SECRETS``, on the step's input maximally entangled with
    a reference the server keeps. The distance is zero exactly when the
    server's view agrees on every input. For the honest clients it must
    vanish.
    """
    if gadget == "cz":
        raise ValueError(f"gadget {gadget!r} has no angle to hide")
    for octant in (octant_a, octant_b):
        check_octant(gadget, octant)
    octants = [int(octant_a), int(octant_b)]
    return _audit_views("gadget_view_tv", PROTOCOL_BY_GADGET[gadget], octants, None,
                        {"gadget": gadget})


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
