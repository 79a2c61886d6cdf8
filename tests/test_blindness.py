"""Blindness audits: angle uniformity, no-signaling, transcript statistics."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from adbqc import blindness, cli, qsim, rng
from adbqc.blindness import (
    audit_gadget_view_tv,
    audit_no_signaling,
    audit_probe_gram,
    audit_theta_uniformity,
    audit_transcript_tv,
    block_trace_distances,
    client_quantum_actions,
    confirm_capability,
)
from adbqc.gadgets import announced_octant
from adbqc.oracle import PROTOCOL_BY_GADGET, branch_table
from adbqc.protocols import (
    GateRequest,
    ProtocolConfig,
    driver,
    gate_client,
    measure_client,
    p1_hrz_on_runtime,
    run_protocol1,
    run_protocol2,
    run_sueki,
    sueki,
)
from adbqc.protocols.driver import CLIENT_BY_PROTOCOL, drive_gadget
from adbqc.qsim import NO_SIGNALING_ATOL, RZ_BY_OCTANT, haar_random_state
from adbqc.runtime import QuantumRuntime, enumerate_runs
from adbqc.transcript import ALICE, BOB, Transcript
from helpers import (
    block_trace_distance,
    bytes_interned_block_trace_distances,
    joint_density_of,
    looped_theta_uniformity,
    normalized,
    per_checkpoint_view_audit,
    per_path_server_views,
    replayed_view_distribution,
    zero_state,
)

# Leaks for the power tests: each puts a secret in the server's view, where
# the audits read it, so an audit that misses it is blind.


def rotating_p1_hrz(rt, label, octant, secrets):
    """The measure-only step after turning its target by the octant: a leak
    in the server's quantum view that leaves no classical trace."""
    rt.apply(RZ_BY_OCTANT[octant % 8], [label])
    return p1_hrz_on_runtime(rt, label, octant)


def leaky_drive_gadget(rt, gadget, frame, positions, octant, secrets, prep_party=BOB):
    """A gadget step, sending its octant on the wire before it runs."""
    rt.tape.msg(ALICE, to=BOB, op="leak", octant=octant)
    return drive_gadget(rt, gadget, frame, positions, octant, secrets, prep_party)


def run_p1_and_leak(config):
    """A measure-only run whose client then sends the algorithm's octants."""
    res = run_protocol1(config)
    for req in config.algorithm:
        for k in req.resolved_octants():
            res.transcript.msg(ALICE, to=BOB, op="leak", octant=k)
    return res


# ---------------------------------------------------------------------------
# Announced-angle uniformity


def test_theta_uniformity_audit_passes():
    result = audit_theta_uniformity()
    assert result.passed
    assert result.statistic == 0.0
    assert result.details["checks"] == 128


# sets of (hiding octant, pad bit) secrets: the first three cover every octant
# once per share, "hiding-0-to-3" only through its pad bits
THETA_SECRETS = {
    "all": sueki.SECRETS,
    "hiding-0-to-3": tuple((hiding, pad) for hiding in range(4) for pad in (0, 1)),
    "even-hiding": tuple((hiding, pad) for hiding in (0, 2, 4, 6) for pad in (0, 1)),
    "no-pad": tuple((hiding, 0) for hiding in range(8)),
    "odd": ((1, 0), (3, 1), (4, 1), (6, 0), (7, 1)),
}


@pytest.mark.parametrize("name", THETA_SECRETS)
def test_theta_uniformity_counts_as_the_looped_count(monkeypatch, name):
    """The audit's one broadcast count over every target, outcome and secret
    gives the statistic, verdict and details of the count per (target,
    outcome), on the client's secrets and on sets where the pad matters."""
    monkeypatch.setattr(sueki, "SECRETS", THETA_SECRETS[name])
    result = audit_theta_uniformity()
    assert (result.statistic, result.passed, result.details) == looped_theta_uniformity()
    assert result.passed == (name in ("all", "hiding-0-to-3", "no-pad"))


def test_theta_uniformity_needs_the_full_secret_range():
    """Restricting the hiding octant to even values skews the announcement,
    so the coverage counting really is sensitive to a broken pad."""
    seen = Counter(
        announced_octant(3, hide, pad, 0) for hide in (0, 2, 4, 6) for pad in (0, 1)
    )
    worst = max(abs(seen.get(k, 0) - 1) for k in range(8))
    assert worst > 0


# ---------------------------------------------------------------------------
# No-signaling through the measure-only gadget


def test_no_signaling_across_octants_and_stages():
    result = audit_no_signaling(octants=(0, 1, 5), steps=(2, 4, 7, 9))
    assert result.passed
    assert result.statistic <= 1e-10


def test_no_signaling_same_octant_is_exactly_zero():
    """An octant's views, compiled afresh with nothing interned, are bit for bit
    the first compile's: other block objects, yet exactly 0 apart."""
    first = blindness._compiled_views("p1", 3)[2][5]
    blindness._VIEWS.clear()
    blindness._BLOCKS.clear()
    again = blindness._compiled_views("p1", 3)[2][5]
    assert first is not again and first[()] is not again[()]
    assert block_trace_distances([first, again], [(0, 1)]).tolist() == [0.0]


@pytest.mark.parametrize(
    "octants", [(3, 3), (1, 9), (0, 8), (-1, 2), (0, 1, 0)],
    ids=["repeated", "nine-is-one", "eight-is-zero", "negative", "repeated-of-three"],
)
def test_no_signaling_refuses_an_octant_outside_0_to_7_or_repeated(octants):
    with pytest.raises(ValueError, match="distinct octants in 0..7"):
        audit_no_signaling(octants=octants, steps=(5,))


def test_no_signaling_flags_a_classical_leak(monkeypatch):
    monkeypatch.setattr(driver, "drive_gadget", leaky_drive_gadget)
    result = audit_no_signaling(octants=(0, 4), steps=(9,))
    assert not result.passed
    assert result.statistic == pytest.approx(1.0, abs=1e-9)


def test_no_signaling_flags_a_leak_without_a_classical_trace(monkeypatch):
    """A step that turns its target by the octant before the honest gadget
    sends nothing on the wire, and a |0> input hides the turn entirely. The
    server that keeps the reference of an entangled input sees it: octants k
    and k+4 differ by a half turn, which takes (R_Z(pi) x I)|Phi> to an
    orthogonal state. The worst pair is the first largest of the per-pair
    distances."""
    monkeypatch.setattr(measure_client, "hrz", rotating_p1_hrz)
    result = audit_no_signaling()
    assert not result.passed
    assert result.statistic >= 0.99
    views = {k: blindness._compiled_views("p1", k)[2] for k in range(8)}
    compared = [(s, a, b) for s in range(1, 14) for a in range(8) for b in range(a + 1, 8)]
    dists = [block_trace_distance(views[a][s], views[b][s]) for s, a, b in compared]
    assert abs(result.statistic - max(dists)) <= 1e-12
    assert result.details["worst_at"] == compared[dists.index(max(dists))]


@pytest.mark.parametrize(
    "octants,steps",
    [((3,), (5,)), ((), (5,)), ((0, 1), ())],
    ids=["one-octant", "no-octant", "no-step"],
)
def test_no_signaling_refuses_to_compare_nothing(octants, steps):
    with pytest.raises(ValueError, match="two octants and a step"):
        audit_no_signaling(octants=octants, steps=steps)


def test_no_signaling_refuses_a_step_the_gadget_never_marks():
    """The measure-only step has 12 events the server can see, so
    checkpoints 1 to 13; the range is known once the octants' views are
    compiled."""
    with pytest.raises(ValueError, match="the p1 step has no checkpoint 14$"):
        audit_no_signaling(octants=(0, 1), steps=(14,))
    assert sorted(blindness._VIEWS) == [("p1", 0), ("p1", 1)]


# the measure-only step's checkpoints are 1 to 13
@pytest.mark.parametrize(
    "steps,message",
    [((True,), "step must be an integer"), ((1.0,), "step must be an integer"),
     ((2, 1.5), "step must be an integer"), ((1, 1), "distinct steps"),
     ((3, 5, 3), "distinct steps"), ((0,), "has no checkpoint 0"),
     ((13, -1), "has no checkpoint -1")],
    ids=["bool", "float", "float-second", "repeated", "repeated-of-three", "zero", "negative"],
)
def test_no_signaling_refuses_steps_that_are_not_distinct_integers_1_to_13(steps, message):
    with pytest.raises(ValueError, match=message):
        audit_no_signaling(octants=(0, 1), steps=steps)
    # only the range check needs the compiled views
    assert bool(blindness._VIEWS) == ("checkpoint" in message)


def test_shallow_no_signaling_compiles_every_step_once(monkeypatch):
    """Asking for checkpoint 1 compiles each octant's views at all 13
    checkpoints, one walk of its 8 paths each: a later audit of every
    checkpoint on those octants walks nothing and counts the same paths."""
    walked = []

    def counted(run_fn):
        branches = enumerate_runs(run_fn)
        walked.append(len(branches))
        return branches

    monkeypatch.setattr(driver, "enumerate_runs", counted)
    shallow = audit_no_signaling(octants=(0, 1), steps=(1,))
    assert walked == [8, 8]
    assert sorted(blindness._VIEWS["p1", 0][2]) == list(range(1, 14))
    full = audit_no_signaling(octants=(0, 1))
    assert walked == [8, 8]
    assert full.details["steps"] == list(range(1, 14))
    assert shallow.details["branches"] == full.details["branches"] == 16
    assert (shallow.details["views"], full.details["views"]) == (2, 86)


@pytest.mark.parametrize("octant", range(8))
def test_views_per_prefix_equal_views_per_path(octant):
    """For every client, the compiled views (one block per outcome prefix
    and secrets entry) are, at every checkpoint, the blocks that a replay of
    the client's step on the entangled two-qubit input gives with a view on
    every path, weighted by the path and averaged over the client's
    ``SECRETS``: 13 checkpoints for p1 and sueki, 7 for p2."""
    entangled = normalized([1, 0, 0, 1])
    for protocol, checkpoints in (("p1", 13), ("p2", 7), ("sueki", 13)):
        fast = blindness._compiled_views(protocol, octant)[2]
        secrets = CLIENT_BY_PROTOCOL[protocol].SECRETS
        slow: dict = {}
        for drawn in secrets:
            for at, view in per_path_server_views(protocol, octant, entangled, drawn).items():
                mean = slow.setdefault(at, {})
                for key, rho in view.items():
                    mean[key] = mean.get(key, 0.0) + rho / len(secrets)
        assert sorted(fast) == sorted(slow) == list(range(1, checkpoints + 1))
        for at, view in fast.items():
            assert view.keys() == slow[at].keys()
            for key, rho in view.items():
                assert np.max(np.abs(rho - slow[at][key])) <= 1e-12


def test_no_signaling_computes_one_view_per_prefix(monkeypatch):
    """The default audit's first call computes 344 views over its 64 paths
    (a path through the same checkpoint prefix as an earlier one reuses its
    view); a second call computes none and reports the same counts."""
    calls = Counter()
    density_of = QuantumRuntime.density_of

    def counted(self, owner):
        calls["density_of"] += 1
        return density_of(self, owner)

    monkeypatch.setattr(QuantumRuntime, "density_of", counted)
    first = audit_no_signaling()
    assert calls["density_of"] == 344
    second = audit_no_signaling()
    assert calls["density_of"] == 344  # the second call computes none
    for result in (first, second):
        assert result.details["views"] == 344
        assert result.details["branches"] == 64


def test_a_second_no_signaling_call_replays_nothing(monkeypatch):
    """Once every octant is compiled, the default audit runs no
    ``enumerate_runs`` and no ``density_of``, and gives the same result."""
    first = audit_no_signaling()
    assert sorted(blindness._VIEWS) == [("p1", k) for k in range(8)]

    def refuse(*args, **kwargs):
        raise AssertionError("a compiled audit replayed the gadget")

    monkeypatch.setattr(driver, "enumerate_runs", refuse)
    monkeypatch.setattr(QuantumRuntime, "density_of", refuse)
    assert audit_no_signaling() == first


def test_rows_and_views_compile_through_the_one_walk(monkeypatch):
    """The views of all 24 (protocol, octant) pairs take 152 walks with a view
    hook, one per ``SECRETS`` entry (8 x (16 + 1 + 2)), and the rows of all 153
    keys take 153 walks without one. Every row a hooked walk returns is, bit for
    bit, its key's compiled row: a view hook cannot change a row."""
    walks = []
    walk = driver.walk_gadget

    def recorded(gadget, octant, secrets, take):
        branches = walk(gadget, octant, secrets, take)
        walks.append(((gadget, octant, secrets), [br.value for br in branches]))
        return branches

    monkeypatch.setattr(driver, "walk_gadget", recorded)
    monkeypatch.setattr(blindness, "walk_gadget", recorded)
    for protocol in CLIENT_BY_PROTOCOL:
        for octant in range(8):
            blindness._compiled_views(protocol, octant)
    hooked, walks[:] = list(walks), []
    keys = [(protocol, octant, drawn) for protocol, client in CLIENT_BY_PROTOCOL.items()
            for octant in range(8) for drawn in client.SECRETS]
    rows = {key: driver.gadget_rows(*key) for key in [*keys, ("cz", 0, ())]}
    assert (len(hooked), len(walks), len(rows)) == (152, 153, 153)
    assert sorted(key for key, _ in hooked) == sorted(keys)
    assert sorted(key for key, _ in walks) == sorted(rows)
    for key, got in hooked:
        assert len(got) == len(rows[key])
        for (bits, op, announced, by_product), want in zip(got, rows[key]):
            assert (bits, announced, by_product) == (want[0], want[2], want[3])
            assert op.dtype == want[1].dtype and op.tobytes() == want[1].tobytes()


def test_compiled_views_are_read_only():
    audit_no_signaling(octants=(2, 5), steps=(1,))
    for _, _, blocks in blindness._VIEWS.values():
        for block in (block for view in blocks.values() for block in view.values()):
            assert not block.flags.writeable


def test_bit_equal_compiled_blocks_are_one_object():
    """Bit-equal blocks of any compiled views, of one client or of two, are one
    object: the one ``_BLOCKS`` holds for their bytes, which is itself (no copy)
    its row of its dimension's stack, whose row 0 is the zero block. Each view's
    cells name its records' slots and its blocks' dimensions and rows. Sueki
    octants k and k+4 share every block."""
    audit_no_signaling(octants=(2, 5), steps=(1,))
    audit_gadget_view_tv("hrz-sueki", 1, 5)
    audit_gadget_view_tv("p2", 0, 3)
    by_bytes: dict = {}
    for _, _, blocks in blindness._VIEWS.values():
        for view in blocks.values():
            rows = [blindness._BLOCKS[block.tobytes()][0] for block in view.values()]
            slots = [blindness._SLOTS[len(block), record] for record, block in view.items()]
            assert view.cells.tolist() == [slots, [len(block) for block in view.values()], rows]
            for row, block in zip(rows, view.values()):
                assert by_bytes.setdefault(block.tobytes(), block) is block
                assert blindness._BLOCKS[block.tobytes()][1] is block
                assert blindness._STACKS[len(block)][row] is block
    assert len(by_bytes) == len(blindness._BLOCKS)
    assert sum(len(stack) - 1 for stack in blindness._STACKS.values()) == len(blindness._BLOCKS)
    assert not any(stack[0].any() for stack in blindness._STACKS.values())
    one, five = (blindness._VIEWS["sueki", k][2] for k in (1, 5))
    assert all(one[at][key] is five[at][key] for at in one for key in one[at])


def test_views_from_the_servers_factors_equal_the_whole_partial_trace(monkeypatch):
    """Each of the 344 server views that the default audit compiles, tensored
    from only the factors that hold the server's qubits, is the partial trace
    of the whole joint state in qubit-index order."""
    gaps = []
    density_of = QuantumRuntime.density_of

    def checked(self, owner):
        rho, whole = density_of(self, owner), joint_density_of(self, owner)
        assert rho.shape == whole.shape
        gaps.append(float(np.max(np.abs(rho - whole))))
        return rho

    monkeypatch.setattr(QuantumRuntime, "density_of", checked)
    assert audit_no_signaling().passed
    assert len(gaps) == 344
    assert max(gaps) <= 1e-12


def test_stacked_no_signaling_distances_equal_the_per_pair_formula():
    """Every (checkpoint, octant pair) distance of the default audit, from
    each checkpoint's views stacked once, is the per-key sum that one
    ``trace_distance`` call per block gives."""
    steps = tuple(range(1, 14))
    pairs = [(ka, kb) for ka in range(8) for kb in range(ka + 1, 8)]
    views = {k: blindness._compiled_views("p1", k)[2] for k in range(8)}
    assert len(steps) * len(pairs) == 364
    assert {rho.shape for k in views for s in steps for rho in views[k][s].values()} == {
        (4, 4), (8, 8), (16, 16)}
    for step in steps:
        got = block_trace_distances([views[k][step] for k in range(8)], pairs)
        for dist, (ka, kb) in zip(got, pairs):
            assert abs(dist - block_trace_distance(views[ka][step], views[kb][step])) <= 1e-12
    # the views of a product input differ, so the distances are not all 0
    product = normalized([1, 0, 1, 0])
    for k in (0, 3):
        moved = per_path_server_views("p1", k, product, ())
        dists = block_trace_distances(
            [views[k][s] for s in steps] + [blindness._intern(moved[s]) for s in steps],
            [(i, i + len(steps)) for i in range(len(steps))])
        assert max(dists) > 0.1
        for dist, s in zip(dists, steps):
            assert abs(dist - block_trace_distance(views[k][s], moved[s])) <= 1e-12


def test_block_trace_distances_equal_the_bytes_interned_reference(monkeypatch):
    """On compiled views, blocks told apart by identity, with each distinct ordered
    pair of blocks decomposed once per call, give exactly the distances of the
    former call that interned every block by its bytes: all 364 (checkpoint,
    octant pair) cells of the default no-signaling audit, every ordered sueki and
    p2 octant pair at every checkpoint, and the 364 cells of a leaking step."""

    def compare(protocol: str, pairs: list) -> list[float]:
        compiled = [blindness._compiled_views(protocol, k)[2] for k in range(8)]
        dists = []
        for step in compiled[0]:
            at = [views[step] for views in compiled]
            got = block_trace_distances(at, pairs).tolist()
            assert got == bytes_interned_block_trace_distances(at, pairs)
            dists += got
        return dists

    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    assert len(compare("p1", pairs)) == 364
    ordered = [(a, b) for a in range(8) for b in range(8) if a != b]
    for protocol in ("sueki", "p2"):
        assert 0.0 < max(compare(protocol, ordered)) <= NO_SIGNALING_ATOL
    blindness._VIEWS.clear()
    monkeypatch.setattr(measure_client, "hrz", rotating_p1_hrz)
    leaked = compare("p1", pairs)
    assert len(leaked) == 364 and max(leaked) >= 0.99


def test_the_default_no_signaling_audit_decomposes_46_block_pairs(monkeypatch):
    """The default audit's 156 (checkpoint, octant pair, key) cells whose blocks
    are not one object hold only 46 distinct ordered pairs of blocks: 6 of
    16x16, 22 of 8x8 and 18 of 4x4. ``trace_distance`` takes each once, and a
    second identical call takes each once again: no distance outlives a call."""
    audit_no_signaling()  # compiled first, so only the audit's own calls count
    sizes: Counter = Counter()

    def counted(a, b):
        sizes[a.shape[-1]] += len(a)
        return qsim.trace_distance(a, b)

    monkeypatch.setattr(blindness, "trace_distance", counted)
    for calls in (1, 2):
        assert audit_no_signaling().passed
        assert sizes == {16: 6 * calls, 8: 22 * calls, 4: 18 * calls}


@pytest.mark.parametrize(
    "octants", [(0, 1.0), (0, True), (2.0, 5)], ids=["float", "bool", "float-first"]
)
def test_no_signaling_refuses_an_octant_that_is_not_an_integer(octants):
    with pytest.raises(ValueError, match="octant must be an integer"):
        audit_no_signaling(octants=octants, steps=(1,))


def test_no_signaling_accepts_numpy_integer_octants():
    result = audit_no_signaling(octants=(np.int64(0), np.int8(5)), steps=(1,))
    assert result.passed and result.details["octants"] == [0, 5]


def test_block_trace_distance_handles_disjoint_keys():
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    a, b = blindness._intern({("a",): rho}), blindness._intern({("b",): rho})
    far, same = block_trace_distances([a, b], [(0, 1), (0, 0)])
    assert far == pytest.approx(1.0)
    assert same == 0.0


class ForgetfulBlocks(dict):
    """An intern table that keeps nothing: every block stays its own object."""

    def setdefault(self, key, default=None):
        return default


# every checkpoint of each client whose blocks equal the last one's bit for bit
ALIASED = {"p1": [2, 5, 10, 12], "sueki": [8], "p2": [3]}


@pytest.mark.parametrize("protocol", ALIASED)
def test_an_unchanged_checkpoint_is_its_predecessor(monkeypatch, protocol):
    """At every octant, a checkpoint is the last one's dict exactly where a
    compile that interns, and so aliases, nothing finds every block equal to
    the last one's, and each of its blocks equals, bit for bit, that compile's."""
    aliased = {k: blindness._compiled_views(protocol, k)[2] for k in range(8)}
    blindness._VIEWS.clear()
    with monkeypatch.context() as patch:
        patch.setattr(blindness, "_BLOCKS", ForgetfulBlocks())
        plain = {k: blindness._compiled_views(protocol, k)[2] for k in range(8)}
    for k in range(8):
        assert [at for at in aliased[k] if aliased[k][at] is aliased[k].get(at - 1)] == (
            ALIASED[protocol])
        assert not any(plain[k][at] is plain[k].get(at - 1) for at in plain[k])
        for at, view in plain[k].items():
            assert view.keys() == aliased[k][at].keys()
            assert all(np.array_equal(view[key], aliased[k][at][key]) for key in view)
            last = plain[k].get(at - 1, {})
            unchanged = view.keys() == last.keys() and all(
                np.array_equal(view[key], last[key]) for key in view)
            assert unchanged == (at in ALIASED[protocol])


def turning_the_first_handed_half(rt, label, octant, secrets):
    """The measure-only step, turning the first Bell half by the octant just
    before the server hands it over: a leak between checkpoints 1 and 2,
    where the honest step changes nothing."""
    transfer = rt.transfer

    def turned(qubit, owner):
        rt.apply(RZ_BY_OCTANT[octant], [qubit])
        rt.transfer = transfer
        return transfer(qubit, owner)

    rt.transfer = turned
    return p1_hrz_on_runtime(rt, label, octant)


def test_a_leak_between_aliased_checkpoints_is_read(monkeypatch):
    monkeypatch.setattr(measure_client, "hrz", turning_the_first_handed_half)
    views = {k: blindness._compiled_views("p1", k)[2] for k in (1, 5)}
    assert all(views[k][2] is not views[k][1] for k in views)
    at_two = audit_no_signaling(octants=(1, 5), steps=(2,))
    assert not at_two.passed
    assert at_two.statistic >= 0.99
    assert audit_gadget_view_tv("p1", 1, 5).statistic >= 0.99


VIEW_AUDITS = {
    "no-signaling": (audit_no_signaling, (), "p1", tuple(range(8)), None, {}),
    "no-signaling-0-3": (lambda: audit_no_signaling(octants=(0, 3), steps=(2, 5, 12)), (),
                         "p1", (0, 3), (2, 5, 12), {}),
    **{f"{gadget}-{a}-{b}": (audit_gadget_view_tv, (gadget, a, b), PROTOCOL_BY_GADGET[gadget],
                             (a, b), None, {"gadget": gadget})
       for gadget in ("hrz-sueki", "p1", "p2") for a, b in ((1, 5), (0, 3), (4, 4))},
}


@pytest.mark.parametrize("gadget", ["hrz-sueki", "p1", "p2"])
def test_every_octant_pairs_view_audit_equals_one_comparison_per_checkpoint(gadget):
    """For each client, the view audit of each of the 28 octant pairs gives bit
    for bit what one ``block_trace_distance`` per checkpoint gives."""
    for a in range(8):
        for b in range(a + 1, 8):
            result = audit_gadget_view_tv(gadget, a, b)
            assert (result.statistic, result.passed, result.details) == per_checkpoint_view_audit(
                PROTOCOL_BY_GADGET[gadget], (a, b), None, {"gadget": gadget})


@pytest.mark.parametrize("case", VIEW_AUDITS)
def test_view_audits_equal_one_comparison_per_checkpoint(case):
    """Each exact view audit, with its distinct checkpoints compared in one
    stacked call, gives bit for bit the statistic, verdict and details of
    one ``block_trace_distance`` per checkpoint and octant pair; equal
    octants read exactly 0."""
    audit, args, protocol, octants, steps, details = VIEW_AUDITS[case]
    result = audit(*args)
    assert (result.statistic, result.passed, result.details) == per_checkpoint_view_audit(
        protocol, octants, steps, details)
    if len(set(octants)) == 1:
        assert result.statistic == 0.0 and result.passed


# ---------------------------------------------------------------------------
# The server's view of each client's rotation step


# a measure-only id names the step's case at both octants (``classify_angle``)
@pytest.mark.parametrize(
    "gadget,octant_a,octant_b",
    [("hrz-sueki", 2, 5), pytest.param("p1", 0, 6, id="p1-a-0-6"),
     pytest.param("p1", 1, 7, id="p1-b-1-7"), pytest.param("p1", 1, 6, id="p1-ba-1-6"),
     ("p2", 3, 4)],
)
def test_gadget_views_are_angle_independent(gadget, octant_a, octant_b):
    result = audit_gadget_view_tv(gadget, octant_a, octant_b)
    assert result.passed
    assert result.statistic <= 1e-10


@pytest.mark.parametrize("gadget,checkpoints", [("hrz-sueki", 13), ("p1", 13), ("p2", 7)])
def test_every_clients_view_is_angle_independent_at_every_checkpoint(gadget, checkpoints):
    """All 28 octant pairs of each client, at each checkpoint: one before
    each event the server can see, and one at the end."""
    worst = 0.0
    for a in range(8):
        for b in range(a + 1, 8):
            result = audit_gadget_view_tv(gadget, a, b)
            assert result.details["steps"] == list(range(1, checkpoints + 1))
            worst = max(worst, result.statistic)
    assert worst <= NO_SIGNALING_ATOL


def fix_secrets(module, secrets):
    return lambda patch: patch.setattr(module, "SECRETS", secrets)


# each leak, with an octant pair it separates
LEAKS = {
    "p2-pad-0": ("p2", (1, 5), fix_secrets(gate_client, ((0,),))),
    "sueki-pad-0": ("hrz-sueki", (1, 5),
                    fix_secrets(sueki, tuple((hiding, 0) for hiding in range(8)))),
    "sueki-hiding-0": ("hrz-sueki", (1, 2), fix_secrets(sueki, ((0, 0), (0, 1)))),
    "p1-turned-target": ("p1", (1, 5),
                         lambda patch: patch.setattr(measure_client, "hrz", rotating_p1_hrz)),
    **{f"{gadget}-octant-on-the-wire": (
        gadget, (2, 3), lambda patch: patch.setattr(driver, "drive_gadget", leaky_drive_gadget))
       for gadget in ("hrz-sueki", "p1", "p2")},
}


@pytest.mark.parametrize("leak", LEAKS)
def test_view_audit_reads_each_leak(monkeypatch, leak):
    """A client whose pad or hiding octant is fixed, a measure-only step that
    turns its target first (no classical trace), and a step that sends its
    octant on the wire each read at least 0.99."""
    gadget, octants, patch = LEAKS[leak]
    patch(monkeypatch)
    result = audit_gadget_view_tv(gadget, *octants)
    assert not result.passed
    assert result.statistic >= 0.99


@pytest.mark.parametrize("gadget,branches", [("hrz-sueki", 128), ("p1", 16), ("p2", 8)])
def test_gadget_view_audit_counts_its_branches(gadget, branches):
    """At each of two octants: 16 secret pairs with 4 paths each for the
    prepare-only step, 8 paths without secrets for the measure-only one,
    and 2 pad bits with 2 paths each for the gate-lending one."""
    assert audit_gadget_view_tv(gadget, 1, 2).details["branches"] == branches


@pytest.mark.parametrize(
    "gadget,octant_pairs,branches",
    [("hrz-sueki", ((0, 3), (2, 5), (6, 7)), 128),
     ("p1", ((0, 6), (1, 7), (1, 6), (3, 4)), 16),
     ("p2", ((1, 6), (3, 4), (0, 5)), 8)],
)
def test_final_views_give_the_replayed_record_distribution(gadget, octant_pairs, branches):
    """The audit's last view of each server record, traced down to the
    reference (qubit 1), is rho = E^T / 2 for the record's POVM element E, so
    it gives on an input psi the record's probability psi^T (2 rho) psi^*: to
    1e-12 and over as many paths, what a replay of the client's step on psi
    gives, once per outcome path and secret, for |0>, |+> and a Haar draw."""
    haar = haar_random_state(1, rng.stream(99, "gadget-view-input"))
    for octants in octant_pairs:
        result = audit_gadget_view_tv(gadget, *octants)
        # the views the audit compared at its last checkpoint
        at = result.details["steps"][-1]
        last = [blindness._compiled_views(PROTOCOL_BY_GADGET[gadget], k)[2][at] for k in octants]
        for state in (zero_state(1), normalized([1, 1]), haar):
            replayed = [replayed_view_distribution(gadget, k, state) for k in octants]
            assert result.details["branches"] == branches == sum(walked for _, walked in replayed)
            for views, (want, _) in zip(last, replayed):
                assert views.keys() == want.keys()
                reference = {record: np.einsum("iaja->ij", block.reshape(2, 2, 2, 2))
                             for record, block in views.items()}
                got = {record: 2 * np.vdot(state.conj(), rho @ state.conj()).real
                       for record, rho in reference.items()}
                assert max(abs(got[view] - want[view]) for view in got) <= 1e-12


@pytest.mark.parametrize(
    "gadget,octant_a,octant_b",
    [("hrz-sueki", 0, 4), pytest.param("p1", 2, 4, id="p1-a-2-4"),
     pytest.param("p1", 3, 5, id="p1-b-3-5"), ("p2", 1, 6)],
)
def test_gadget_view_audit_flags_a_leak(monkeypatch, gadget, octant_a, octant_b):
    # patched where the views' walk drives the step
    monkeypatch.setattr(driver, "drive_gadget", leaky_drive_gadget)
    result = audit_gadget_view_tv(gadget, octant_a, octant_b)
    assert not result.passed
    assert result.statistic == pytest.approx(1.0, abs=1e-12)


def test_exact_audit_statistics_do_not_depend_on_the_hash_seed():
    # the view keys hold label strings, so set iteration order, and with it
    # the order a plain float sum adds the per-key terms, follows the hash seed
    # (the gadget-view run leaks its octant, so its distance is a sum of
    # nonzero terms)
    script = (
        "from adbqc import blindness\n"
        "from adbqc.protocols import driver\n"
        "from adbqc.transcript import ALICE, BOB\n"
        "drive = driver.drive_gadget\n"
        "def leaky(rt, gadget, *rest):\n"
        "    rt.tape.msg(ALICE, to=BOB, op='leak', octant=rest[2])\n"
        "    return drive(rt, gadget, *rest)\n"
        "driver.drive_gadget = leaky\n"
        "print(repr(blindness.audit_gadget_view_tv('hrz-sueki', 1, 5).statistic))\n"
        "print(repr(blindness.audit_no_signaling(octants=(0, 1), steps=(2, 5)).statistic))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "gadget,message",
    [("cz", "has no angle to hide"), ("p1-a", "unknown gadget"), ("teleport", "unknown gadget")],
    ids=["cz", "p1-a", "teleport"],
)
def test_gadget_view_audit_refuses_a_gadget_without_a_client_angle(gadget, message):
    with pytest.raises(ValueError, match=message):
        audit_gadget_view_tv(gadget, 0, 2)


@pytest.mark.parametrize("gadget,octant", [("p1", 8), ("p1", 9), ("p2", 8), ("p2", -1)])
def test_gadget_view_audit_refuses_an_octant_the_oracle_refuses(gadget, octant):
    # one octant check for the exact gadget tools: 8 is not 0 in either
    with pytest.raises(ValueError, match=f"octant {octant} is not admissible"):
        branch_table(gadget, octant)
    with pytest.raises(ValueError, match=f"octant {octant} is not admissible"):
        audit_gadget_view_tv(gadget, octant, 1)


# ---------------------------------------------------------------------------
# Whole-run transcript statistics


@pytest.mark.parametrize("runs,resamples", [(0, 10), (10, 0)])
def test_transcript_audit_refuses_to_compare_nothing(runs, resamples):
    config = ProtocolConfig("sueki", 1, 1)
    with pytest.raises(ValueError, match="at least one run and one resample"):
        audit_transcript_tv(config, config, runs=runs, resamples=resamples)


# The padded announcements (sueki) and reported bits (p2) make nearly every
# whole-run signature unique, so the null threshold reaches 1 (sueki) or
# passes it (p2, 1.012): an audit that could reject nothing is refused.


def test_sueki_transcript_audit_refuses_unique_signatures():
    config_a = ProtocolConfig(
        "sueki", 1, 1, algorithm=(GateRequest.single(0, octants=(0, 0, 0)),)
    )
    config_b = ProtocolConfig(
        "sueki", 1, 1, algorithm=(GateRequest.single(0, octants=(0, 0, 2)),)
    )
    with pytest.raises(ValueError, match="could reject nothing"):
        audit_transcript_tv(config_a, config_b, runs=150, resamples=150)


def test_p2_transcript_audit_refuses_unique_signatures():
    config_a = ProtocolConfig(
        "p2", 2, 1, trap_count=1,
        algorithm=(GateRequest.single(0, octants=(0, 0, 1)),),
    )
    config_b = ProtocolConfig(
        "p2", 2, 1, trap_count=1,
        algorithm=(GateRequest.single(0, octants=(0, 0, 5)),),
    )
    with pytest.raises(ValueError, match="could reject nothing"):
        audit_transcript_tv(config_a, config_b, runs=150, resamples=150)


def test_transcript_audit_flags_a_leak(monkeypatch):
    """The measure-only transcript is empty, so the null band is exactly
    zero width and a secret sent on the wire is flagged with certainty."""
    config_a = ProtocolConfig(
        "p1", 3, 1, algorithm=(GateRequest.single(0, octants=(0, 0, 0)),)
    )
    config_b = ProtocolConfig(
        "p1", 3, 1, algorithm=(GateRequest.single(0, octants=(0, 0, 2)),)
    )
    honest = audit_transcript_tv(config_a, config_b, runs=40, resamples=40)
    assert honest.passed
    assert honest.statistic == 0.0
    monkeypatch.setattr(blindness, "run", run_p1_and_leak)
    leaky = audit_transcript_tv(config_a, config_b, runs=40, resamples=40)
    assert not leaky.passed
    assert leaky.statistic == pytest.approx(1.0)


def test_measure_only_server_view_has_no_classical_values():
    """The measure-only client announces nothing, so the server's classical
    record is empty and run transcripts are blind by construction."""
    res = run_protocol1(ProtocolConfig("p1", 3, 1, seed=8))
    assert res.transcript.bob_classical_values() == ()


# ---------------------------------------------------------------------------
# Probe audit and capability confinement


def test_probe_gram_audit():
    result = audit_probe_gram()
    assert result.passed
    assert result.statistic <= 1e-10
    assert result.details["probes"] == 100
    assert result.details["max_distinguishability"] > 0.9


def test_probe_gram_audit_fails_a_wrong_closed_form(monkeypatch):
    """The batched audit still compares simulation with the closed form: a
    closed form fed half the lent qubit's |1> weight fails it."""
    weight = blindness.lent_weight_one
    monkeypatch.setattr(blindness, "lent_weight_one", lambda probe, lent: 0.5 * weight(probe, lent))
    result = audit_probe_gram()
    assert not result.passed
    assert result.statistic > 0.1


@pytest.mark.parametrize("probes", [0, -3])
def test_probe_gram_audit_refuses_to_check_no_probe(probes):
    with pytest.raises(ValueError, match="at least one probe"):
        audit_probe_gram(num_probes=probes)


def test_capability_confinement_across_protocols():
    sueki = run_sueki(
        ProtocolConfig("sueki", 1, 1, algorithm=(GateRequest.single(0, name="h"),))
    )
    p1 = run_protocol1(ProtocolConfig("p1", 3, 1, seed=2))
    p2 = run_protocol2(ProtocolConfig("p2", 2, 1, trap_count=1, seed=2))
    assert confirm_capability(sueki.transcript, "prepare_only").passed
    assert confirm_capability(p1.transcript, "measure_only").passed
    assert confirm_capability(p2.transcript, "gate_only").passed
    crossed = confirm_capability(sueki.transcript, "measure_only")
    assert not crossed.passed
    assert "prepare" in crossed.details["violations"]
    assert not confirm_capability(p1.transcript, "gate_only").passed
    assert not confirm_capability(p2.transcript, "prepare_only").passed
    with pytest.raises(ValueError):
        confirm_capability(p1.transcript, "telepathy")


def test_capability_confinement_counts_every_client_operation():
    """A client coupling qubits itself is outside all three capabilities."""
    tape = Transcript()
    tape.local(ALICE, op="couple", qubits=["a0", "q0"])
    assert client_quantum_actions(tape) == {"couple"}
    for capability in ("prepare_only", "measure_only", "gate_only"):
        audit = confirm_capability(tape, capability)
        assert not audit.passed
        assert audit.details["violations"] == ["couple"]


def test_exact_view_audits_draw_no_random_number(monkeypatch, capsys):
    """Both exact view audits compare views that hold for every input, so
    they run and pass with every random draw refused, and the command line's
    no-signaling audit prints the same bytes whatever its seed."""

    def refuse(*args, **kwargs):
        raise AssertionError("an exact view audit drew a random number")

    for module, name in ((blindness, "stream"), (rng, "stream"), (blindness, "haar_random_states"),
                         (qsim, "haar_random_state"), (qsim, "haar_random_states")):
        monkeypatch.setattr(module, name, refuse)
    assert audit_no_signaling().passed
    for gadget in ("hrz-sueki", "p1", "p2"):
        assert audit_gadget_view_tv(gadget, 0, 5).passed
    printed = []
    for seed in ("1", "2"):
        assert cli.main(["blindness", "--audit", "nosig", "--seed", seed]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
