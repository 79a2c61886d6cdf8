"""Independent branch-by-branch checks of every gadget family."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from adbqc import rng
from adbqc.oracle import (
    GADGET_FIDELITY_ATOL,
    ORACLE_GADGETS,
    PROTOCOL_BY_GADGET,
    BranchRow,
    branch_table,
    check_octant,
    soundness_sweep,
    table_passes,
)
from adbqc.protocols import driver, gate_client, measure_client, sueki
from adbqc.protocols.driver import CLIENT_BY_PROTOCOL
from adbqc.protocols.measure_client import classify_angle
from adbqc.qsim import Z_GATE, haar_random_state
from helpers import (
    identity_gap, looped_row_fidelities, replayed_branch_table, sweep_by_keys, zero_state,
)


def gadget_octant_id(gadget: str, octant: int) -> str:
    """A test id; a measure-only one names the step's case (``classify_angle``)."""
    return f"p1-{classify_angle(octant)}-{octant}" if gadget == "p1" else f"{gadget}-{octant}"


GADGET_OCTANTS = [
    pytest.param(g, k, id=gadget_octant_id(g, k))
    for g in ORACLE_GADGETS
    for k in ((0,) if g == "cz" else range(8))
]


def test_gadget_roster():
    assert ORACLE_GADGETS == ("hrz-sueki", "p1", "p2", "cz")
    clients = [CLIENT_BY_PROTOCOL[p] for p in PROTOCOL_BY_GADGET.values()]
    assert clients == [sueki, measure_client, gate_client]


def test_admissible_octants():
    """Every H R_Z gadget realizes all eight octants, the coupling gadget
    only 0; 8 is not 0."""
    for gadget in ORACLE_GADGETS:
        admitted = (0,) if gadget == "cz" else tuple(range(8))
        for octant in range(-1, 10):
            if octant in admitted:
                check_octant(gadget, octant)
            else:
                with pytest.raises(ValueError, match=f"octant {octant} is not admissible"):
                    check_octant(gadget, octant)


@pytest.mark.parametrize(
    "gadget, octant", [("p2", 1.0), ("hrz-sueki", True), ("p1", 2.0), ("cz", False)]
)
def test_branch_table_refuses_an_octant_that_is_not_an_integer(gadget, octant):
    """A float or bool octant is refused by the one check, as a config refuses
    it, not indexed into an octant table or run as 0 or 1."""
    with pytest.raises(ValueError, match="octant must be an integer"):
        branch_table(gadget, octant)


def test_check_octant_accepts_numpy_integers():
    check_octant("p1", np.int64(7))
    check_octant("cz", np.uint8(0))
    assert branch_table("p2", np.int64(1)) == branch_table("p2", 1)


@pytest.mark.parametrize(
    "gadget,state",
    [("p2", np.array([2.0, 0.0])), ("p2", np.array([np.nan, 0.0])), ("hrz-sueki", np.zeros(2)),
     ("cz", np.full(4, 0.6)), ("p1", np.array([1.0, np.inf]))],
    ids=["norm-2", "nan", "zero", "cz-norm-1.2", "inf"],
)
def test_branch_table_refuses_a_state_that_is_not_normalized(gadget, state):
    """Rows on a state of norm 2 would read probability 2 and fidelity 4, and
    a NaN or all-zero state would give no row at all, which ``table_passes``
    passes: each is refused, by the rule that admits a runtime's states."""
    with pytest.raises(ValueError, match="input state must be normalized"):
        branch_table(gadget, 0, state)


def test_branch_table_reads_a_normalized_list_as_its_array():
    assert branch_table("p2", 3, [0.6, 0.8]) == branch_table("p2", 3, np.array([0.6, 0.8]))


def test_compiled_rows_do_not_serve_an_octant_the_check_refuses():
    """Once octants 1 and 2 are compiled, a float or bool equal to one of
    them, or an octant 8 away, is still refused, not served their rows
    (``2.0 == 2`` and ``True == 1`` hash alike)."""
    for octant in (1, 2):
        branch_table("p2", octant)
    assert len(driver._ROWS) == 2
    for octant in (2.0, True, 1.0):
        with pytest.raises(ValueError, match="octant must be an integer"):
            branch_table("p2", octant)
    for octant in (9, 10, -7):
        with pytest.raises(ValueError, match=f"octant {octant} is not admissible"):
            branch_table("p2", octant)
    assert len(driver._ROWS) == 2


def test_secrets_are_checked_before_the_lookup():
    """A list of secrets reads the rows of its tuple; secrets outside the
    client's ``SECRETS``, or a bool or float among them, are refused with a
    ValueError, before any row is compiled."""
    state = haar_random_state(1, rng.stream(173, "oracle-secrets-check"))
    listed = branch_table("hrz-sueki", 3, state, secrets=[5, 1])
    assert listed == branch_table("hrz-sueki", 3, state, secrets=(5, 1))
    assert branch_table("p2", 1, state, secrets=[np.int64(1)]) == branch_table(
        "p2", 1, state, secrets=(1,))
    assert branch_table("p1", 3, state, secrets=[]) == branch_table("p1", 3, state, secrets=())
    assert len(driver._ROWS) == 3
    for gadget, secrets in [("hrz-sueki", (8, 0)), ("hrz-sueki", (1,)), ("hrz-sueki", [2, 2]),
                            ("p2", (2,)), ("p2", ()), ("p1", (0,)), ("cz", (0,))]:
        with pytest.raises(ValueError, match="are not among"):
            branch_table(gadget, 0, secrets=secrets)
    for secrets in [(True,), (1.0,), [np.float64(0)]]:
        with pytest.raises(ValueError, match="secret must be an integer"):
            branch_table("p2", 1, secrets=secrets)
    assert len(driver._ROWS) == 3


def test_every_key_compiles_once_into_read_only_rows(monkeypatch):
    """The 153 (gadget, octant, secrets) keys compile into 610 paths, each a
    tuple whose operator refuses a write; a second lookup replays nothing.
    Every row passes the one soundness check, and its batched value is the
    per-row loop's to 1e-15. Each key's greedy path operator, which the
    exact walk applies, is unitary to 1e-15."""
    keys = [(PROTOCOL_BY_GADGET.get(g, g), k, drawn)
            for g in ORACLE_GADGETS for k in ((0,) if g == "cz" else range(8))
            for drawn in (CLIENT_BY_PROTOCOL[PROTOCOL_BY_GADGET[g]].SECRETS
                          if g in PROTOCOL_BY_GADGET else ((),))]
    assert len(keys) == 153
    compiled = [driver.gadget_rows(*key) for key in keys]
    assert sum(map(len, compiled)) == 610
    for shape in ([r for rows in compiled[:-1] for r in rows], compiled[-1]):  # cz last
        fidelities = driver.row_fidelities(shape)
        assert fidelities.min() >= 1.0 - GADGET_FIDELITY_ATOL
        np.testing.assert_allclose(fidelities, looped_row_fidelities(shape), rtol=0, atol=1e-15)
    assert max(identity_gap(driver._GREEDY[key]) for key in keys) <= 1e-15
    for rows in compiled:
        assert isinstance(rows, tuple)
        for row in rows:
            assert isinstance(row, tuple)
            with pytest.raises(ValueError, match="read-only"):
                row[1][0, 0] = 0.0
    monkeypatch.setattr(driver, "enumerate_runs", None)  # a replay would fail
    assert [driver.gadget_rows(*key) for key in keys] == compiled
    assert soundness_sweep(1)[1] == 25


def test_admissible_octants_unknown_gadget():
    # the measure-only step is one gadget: its two cases are not gadgets
    for gadget in ("teleport", "p1-a", "p1-b"):
        with pytest.raises(ValueError, match="unknown gadget"):
            check_octant(gadget, 0)


def test_sueki_table_on_zero_input():
    rows = branch_table("hrz-sueki", 0, zero_state(1), secrets=(2, 0))
    assert len(rows) == 4
    for row in rows:
        assert row.probability == pytest.approx(0.25, abs=1e-12)
        assert row.fidelity >= 1.0 - GADGET_FIDELITY_ATOL
        assert row.announced is not None
    assert sum(r.probability for r in rows) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("octant", range(8))
def test_gate_lending_table(octant):
    rows = branch_table("p2", octant)
    assert len(rows) == 2
    for row in rows:
        assert row.probability == pytest.approx(0.5, abs=1e-9)
        assert row.fidelity >= 1.0 - GADGET_FIDELITY_ATOL
        assert row.announced is None


@pytest.mark.parametrize("octant", [2, 6, 1, 7], ids=lambda k: gadget_octant_id("p1", k))
def test_measure_only_tables(octant):
    """Both cases of the measure-only step: even octants ride the undriven
    segment, odd ones the driven one."""
    state = haar_random_state(1, rng.stream(170, "oracle-p1", octant))
    rows = branch_table("p1", octant, state)
    assert sum(r.probability for r in rows) == pytest.approx(1.0, abs=1e-9)
    for row in rows:
        assert row.fidelity >= 1.0 - GADGET_FIDELITY_ATOL


def test_cz_table():
    state = haar_random_state(2, rng.stream(171, "oracle-cz"))
    rows = branch_table("cz", 0, state)
    assert len(rows) == 2
    assert sum(r.probability for r in rows) == pytest.approx(1.0, abs=1e-9)
    for row in rows:
        assert row.fidelity >= 1.0 - GADGET_FIDELITY_ATOL


@pytest.mark.parametrize("gadget,octant", [("p1", 8), ("p1", -1), ("cz", 3)])
def test_inadmissible_octants_rejected(gadget, octant):
    with pytest.raises(ValueError, match=f"octant {octant} is not admissible"):
        branch_table(gadget, octant)


def test_table_passes_flags_low_fidelity():
    rows = branch_table("p2", 3)
    assert table_passes(rows)
    broken = list(rows) + [BranchRow((0,), 0.0, 0.9)]
    assert not table_passes(broken)


def test_soundness_sweep_small():
    worst, count = soundness_sweep(states_per_octant=1, seed=321)
    assert count == 25
    assert worst >= 1.0 - GADGET_FIDELITY_ATOL


@pytest.mark.parametrize("states", [0, -1])
def test_soundness_sweep_refuses_fewer_than_one_state(states):
    with pytest.raises(ValueError, match="at least one state per octant"):
        soundness_sweep(states)


def test_soundness_sweep_is_seeded():
    a = soundness_sweep(states_per_octant=1, seed=99)
    b = soundness_sweep(states_per_octant=1, seed=99)
    assert a == b


def test_soundness_sweep_draws_secrets_only_where_they_are_read(monkeypatch):
    """One secrets stream serves the whole sweep, and it draws no input: each
    item's client draws from the stream in item order (the measure-only
    client and cz draw nothing), and the result is the per-key reference's."""
    purposes = Counter()
    stream = rng.stream

    def counting(seed, purpose, index=0):
        purposes[purpose] += 1
        return stream(seed, purpose, index)

    monkeypatch.setattr(rng, "stream", counting)
    result = soundness_sweep()
    monkeypatch.undo()
    assert purposes == {"oracle-secrets": 1}
    assert result == sweep_by_keys()


@pytest.mark.parametrize("states", [1, 4])
@pytest.mark.parametrize("seed", [2026, 1, 99, 321])
def test_soundness_sweep_equals_a_table_per_input(seed, states):
    """The sweep's one check per operator shape over the drawn keys' rows
    gives, bit for bit, what one check per drawn (gadget, octant, secrets)
    item, the sweep's input, gives."""
    assert soundness_sweep(states, seed) == sweep_by_keys(states, seed)


SECRETS_TRIED = {"hrz-sueki": ((0, 0), (3, 1)), "p1": ((),), "p2": ((0,), (1,)), "cz": ((),)}


@pytest.mark.parametrize("gadget,octant", GADGET_OCTANTS)
def test_tables_from_the_entangled_input_match_replay(gadget, octant):
    """Each row built from the gadget's branch operators equals the row of a
    replay of the gadget on the input itself."""
    width = 2 if gadget == "cz" else 1
    for i in range(2):
        state = haar_random_state(width, rng.stream(172, "oracle-replay", 2 * octant + i))
        for secrets in SECRETS_TRIED[gadget]:
            fast = branch_table(gadget, octant, state, secrets=secrets)
            slow = replayed_branch_table(gadget, octant, state, secrets)
            assert [r.outcomes for r in fast] == [r.outcomes for r in slow]
            assert [r.announced for r in fast] == [r.announced for r in slow]
            for a, b in zip(fast, slow):
                assert a.probability == pytest.approx(b.probability, abs=1e-12)
                assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)


def flip_the_by_product(gadget):
    return lambda *args, **kwargs: gadget(*args, **kwargs) ^ 1


@pytest.mark.parametrize(
    "module,name",
    [(sueki, "sueki_hrz_on_runtime"), (measure_client, "p1_hrz_on_runtime"),
     (gate_client, "p2_hrz_on_runtime"), (driver, "cz_on_runtime")],
    ids=["sueki_hrz_on_runtime", "p1_hrz_on_runtime", "p2_hrz_on_runtime", "cz_on_runtime"],
)
def test_soundness_sweep_catches_a_wrong_by_product(monkeypatch, module, name):
    # each gadget function patched where the step that runs it looks it up
    monkeypatch.setattr(module, name, flip_the_by_product(getattr(module, name)))
    worst, count = soundness_sweep(1)
    assert count == 25
    assert worst < 1.0 - GADGET_FIDELITY_ATOL


def test_soundness_sweep_drives_the_clients_own_steps(monkeypatch):
    """The sweep reaches the gate-only client's fold of its half-turn pad
    into the by-product: without it, every p2 item that draws pad 1 goes wrong."""

    def hrz_without_the_pad_fold(rt, label, octant, secrets):
        (pad,) = secrets
        return gate_client.p2_hrz_on_runtime(rt, label, (octant + 4 * pad) % 8)

    monkeypatch.setattr(gate_client, "hrz", hrz_without_the_pad_fold)
    worst, count = soundness_sweep(4)
    assert count == 100
    assert worst < 1.0 - GADGET_FIDELITY_ATOL


@pytest.mark.parametrize(
    "key,wrong", [(("p1", 3, ()), Z_GATE), (("cz", 0, ()), np.kron(Z_GATE, np.eye(2)))],
    ids=["one-qubit", "two-qubit"],
)
def test_soundness_sweep_reads_every_gathered_row(monkeypatch, key, wrong):
    """The last row of one key the sweep draws, its operator M replaced with
    Z, fails the sweep at either width: an honest M is c I, which passes
    the check, so only a wrong one shows that no gathered row is dropped."""
    *kept, (outcomes, _, announced, by_product) = driver.gadget_rows(*key)
    monkeypatch.setitem(driver._ROWS, key, (*kept, (outcomes, wrong, announced, by_product)))
    worst, count = soundness_sweep(4)
    assert count == 100
    assert worst < 1.0 - GADGET_FIDELITY_ATOL


@pytest.mark.parametrize(
    "client,sequences",
    [(sueki, 32), (measure_client, 1), (gate_client, 2)],
    ids=["sueki", "p1", "p2"],
)
def test_secrets_are_what_draw_secrets_draws(client, sequences):
    """``SECRETS`` is the support of one step's ``driver.draw_secrets``: its
    ``COINS``, every sequence equally likely, ``fold``ed; the prepare-only
    client's 32 (hiding, pad, mirror) coin triples fold 2-to-1 onto its 16
    pairs."""
    tossed = list(itertools.product(*map(range, client.COINS)))
    support = Counter(client.fold(*coins) for coins in tossed)
    assert len(tossed) == sequences
    assert len(set(client.SECRETS)) == len(client.SECRETS)
    assert set(support) == set(client.SECRETS)
    assert {Fraction(n, len(tossed)) for n in support.values()} == {
        Fraction(1, len(client.SECRETS))}
