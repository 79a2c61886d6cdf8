"""Audits that check what the server's view reveals about hidden angles.

Six audits:

- announced-angle uniformity for the prepare-only client (one broadcast count);
- the server's view of one client's rotation step (``audit_gadget_view_tv``,
  any client): its quantum state and classical record before each event it
  can see and at the end, over every secret the client draws, with the
  step's input maximally entangled with a reference the server keeps, must
  be identical whatever the octant (exact: views compiled once per client
  and octant, taken at the checkpoints of ``driver.walk_gadget``, the walk
  that also compiles the step's rows, bit-equal blocks interned as one row
  of a stack; each call pairs the views' compiled cells in numpy and
  decomposes each distinct pair of blocks once);
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
from .gadgets import announced_octant
from .oracle import PROTOCOL_BY_GADGET, check_octant
from .protocols import sueki
from .protocols.config import _integer
from .protocols.driver import CLIENT_BY_PROTOCOL, run, walk_gadget
from .protocols.reference import total_variation
from .qsim import NO_SIGNALING_ATOL, PROBE_GRAM_ATOL, haar_random_states, trace_distance
from .rng import stream
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
    coverage counts = 128 deterministic checks, zero tolerance, counted in
    one ``announced_octant`` call per outcome over every target and secret."""
    targets, (hiding, pad) = np.arange(8), np.array(sueki.SECRETS).T
    seen = [announced_octant(targets[:, None], hiding, pad, s1) for s1 in (0, 1)]
    # one count per (outcome, target, announced octant)
    counts = np.bincount((np.arange(16)[:, None] * 8 + np.concatenate(seen)).ravel(), minlength=128)
    worst = int(np.abs(counts - len(sueki.SECRETS) // 8).max())
    return AuditResult(
        name="theta_uniformity",
        passed=worst == 0,
        statistic=float(worst),
        threshold=0.0,
        details={"checks": len(counts)},
    )


# ---------------------------------------------------------------------------
# The server's view of one client's rotation step


class _View(dict):
    """A view {server record: block} with its cells (``_intern``): per record, its
    (d, record) slot, its block's dimension d and row, the rows of an int array."""

    __slots__ = ("cells",)


# paths walked, views made per checkpoint, and {checkpoint: view}
_Views = tuple[int, Counter, dict[int, _View]]
_VIEWS: dict[tuple[str, int], _Views] = {}  # (protocol, octant) -> its views
_BLOCKS: dict[bytes, tuple[int, np.ndarray]] = {}  # bytes -> (row, the one block: an array on them)
_STACKS: dict[int, list[np.ndarray]] = {}  # d -> its d x d blocks by row, row 0 the zero block
_SLOTS: dict[tuple, int] = {}  # (d, server record) -> its slot


def _intern(view: dict) -> _View:
    """``view`` with its cells, each block interned: the one object of its bytes in
    ``_BLOCKS``, a read-only array on them, which is its row of its dimension's
    stack (``_STACKS``, whose row 0 is the zero block, no block)."""
    interned, cells = _View(), []
    for record, block in view.items():
        d, raw = len(block), block.tobytes()
        stack = _STACKS.setdefault(d, [np.zeros((d, d), complex)])
        new = np.frombuffer(raw, complex).reshape(d, d)
        row, interned[record] = _BLOCKS.setdefault(raw, (len(stack), new))
        if row == len(stack):
            stack.append(new)
        cells.append((_SLOTS.setdefault((d, record), len(_SLOTS)), d, row))
    interned.cells = np.array(cells, dtype=int).reshape(-1, 3).T
    return interned


def _compiled_views(protocol: str, octant: int) -> _Views:
    """The server's view at each checkpoint of ``protocol``'s rotation step
    (``drive_gadget``), compiled into ``_VIEWS`` once: for each entry of the
    client's ``SECRETS``, one ``walk_gadget`` on the register maximally entangled
    with a reference the server holds, whose rows it ignores, adds, once per
    (checkpoint, outcome prefix) of probability p, p ``density_of(BOB)`` /
    len(SECRETS) to that (checkpoint, server record) block: the strongest view
    of the step on any input. A checkpoint comes before each event the server
    can see, and one at the end.
    Every view is interned (``_intern``): bit-equal blocks of all views are one object,
    and a checkpoint whose blocks are the last one's objects is the last one's view."""
    if (protocol, octant) not in _VIEWS:
        secrets = CLIENT_BY_PROTOCOL[protocol].SECRETS
        blocks: dict[int, dict[tuple, np.ndarray]] = {}
        made: Counter = Counter()
        paths = 0
        for drawn in secrets:
            seen: set[tuple[int, tuple[int, ...]]] = set()

            def take(at: int, record: tuple, source, rt) -> None:
                if (prefix := (at, source.bits)) not in seen:
                    seen.add(prefix)
                    view = blocks.setdefault(at, {})
                    rho = source.path_probability() / len(secrets) * rt.density_of(BOB)
                    view[record] = view.get(record, 0.0) + rho

            paths += len(walk_gadget(protocol, octant, drawn, take))
            made.update(at for at, _ in seen)
        for at in sorted(blocks):  # interned; an unchanged checkpoint is its predecessor
            view, last = _intern(blocks[at]), blocks.get(at - 1, {})
            unchanged = view.keys() == last.keys() and all(view[k] is last[k] for k in view)
            blocks[at] = last if unchanged else view
        _VIEWS[protocol, octant] = (paths, made, blocks)
    return _VIEWS[protocol, octant]


def block_trace_distances(views: Sequence[_View], pairs) -> np.ndarray:
    """Trace distance between the interned (``_intern``) block states ``views[i]`` and
    ``views[j]`` of each pair (i, j), as an array: the exact (``math.fsum``) sum over
    records of each block pair's distance (a missing block is the zero block; one block is
    0 from itself). The views' cells grid each (slot, view)'s block row, and per dimension
    one ``trace_distance`` call takes each distinct ordered pair of rows once."""
    slot, dim, row = np.concatenate([view.cells for view in views], axis=1)
    at = np.repeat(np.arange(len(views)), [len(view) for view in views])
    taken = np.cumsum(np.bincount(slot, minlength=1) > 0)  # the views' slots, numbered from 1
    slot, used = taken[slot] - 1, taken[-1]
    rows, dims = np.zeros((used, len(views)), dtype=int), np.zeros(used, dtype=int)
    rows[slot, at], dims[slot] = row, dim  # each (slot, view)'s block row, each slot's d
    first, second = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    pair, cell = np.nonzero(rows[:, first].T != rows[:, second].T)  # each pair's slots that differ
    d, a, b = dims[cell], rows[cell, first[pair]], rows[cell, second[pair]]
    # ordered: eigvalsh(b - a) is eigvalsh(a - b) negated and reversed, whose sum can differ
    base = 1 + max(map(len, _STACKS.values()), default=0)
    distinct, inverse = np.unique((d * base + a) * base + b, return_inverse=True)
    d, (a, b) = distinct // base**2, np.divmod(distinct % base**2, base)  # by dimension
    once = np.empty(len(d))
    for n in set(d.tolist()):
        i, j = np.searchsorted(d, [n, n + 1]).tolist()
        blocks_a, blocks_b = (np.array([_STACKS[n][r] for r in x[i:j].tolist()]) for x in (a, b))
        once[i:j] = trace_distance(blocks_a, blocks_b)
    terms = once[inverse]  # each cell's terms, in pair order
    dists = np.bincount(pair, terms, len(first))  # one rounding: exact for two terms
    for p in np.flatnonzero(np.bincount(pair, minlength=len(first)) > 2).tolist():
        dists[p] = math.fsum(terms[slice(*np.searchsorted(pair, [p, p + 1]))].tolist())
    return dists


def _audit_views(
    name: str, protocol: str, octants: list[int], steps: list[int] | None, details: dict
) -> AuditResult:
    """Compare the compiled views of ``protocol``'s step at each pair of ``octants`` at
    each checkpoint in ``steps`` (every one when None) by trace distance, in one
    ``block_trace_distances`` call: an aliased checkpoint adds no distinct pair of blocks."""
    compiled = [_compiled_views(protocol, k) for k in octants]
    checkpoints = range(1, 1 + max(at for _, _, views in compiled for at in views))
    steps = list(checkpoints) if steps is None else steps
    if outside := [s for s in steps if s not in checkpoints]:
        raise ValueError(f"the {protocol} step has no checkpoint {outside[0]}")
    pairs = np.array([(i, j) for i in range(len(octants)) for j in range(i + 1, len(octants))])
    dists = block_trace_distances(
        [views.get(s) or _intern({}) for s in steps for _, _, views in compiled],
        np.arange(len(steps))[:, None, None] * len(octants) + pairs)
    at = int(np.argmax(dists))  # the first worst (step, pair)
    worst = float(dists[at])
    step, (i, j) = steps[at // len(pairs)], pairs[at % len(pairs)].tolist()
    return AuditResult(
        name=name,
        passed=worst <= NO_SIGNALING_ATOL,
        statistic=worst,
        threshold=NO_SIGNALING_ATOL,
        details={**details, "worst_at": (step, octants[i], octants[j]) if worst > 0.0 else None,
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
