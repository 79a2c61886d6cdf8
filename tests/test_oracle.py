"""Independent branch-by-branch checks of every gadget family."""

from collections import Counter

import pytest

from adbqc import oracle, rng
from adbqc.gadgets import draw_sueki_secrets
from adbqc.oracle import (
    GADGET_FIDELITY_ATOL,
    ORACLE_GADGETS,
    BranchRow,
    admissible_octants,
    branch_table,
    soundness_sweep,
    table_passes,
)
from adbqc.qsim import haar_random_state
from helpers import replayed_branch_table, zero_state


def test_gadget_roster():
    assert ORACLE_GADGETS == ("hrz-sueki", "p1-a", "p1-b", "p2", "cz")


def test_admissible_octants():
    assert admissible_octants("hrz-sueki") == tuple(range(8))
    assert admissible_octants("p2") == tuple(range(8))
    assert admissible_octants("p1-a") == (0, 2, 4, 6)
    assert admissible_octants("p1-b") == (1, 3, 5, 7)
    assert admissible_octants("cz") == (0,)


def test_admissible_octants_unknown_gadget():
    with pytest.raises(ValueError):
        admissible_octants("teleport")


def test_sueki_table_on_zero_input():
    rows = branch_table("hrz-sueki", 0, zero_state(1), hidden=(2, 0))
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


@pytest.mark.parametrize("gadget,octant", [("p1-a", 2), ("p1-a", 6), ("p1-b", 1), ("p1-b", 7)])
def test_measure_only_tables(gadget, octant):
    state = haar_random_state(1, rng.stream(170, "oracle-p1", octant))
    rows = branch_table(gadget, octant, state)
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


@pytest.mark.parametrize("gadget,octant", [("p1-a", 1), ("p1-b", 2), ("cz", 3)])
def test_inadmissible_octants_rejected(gadget, octant):
    with pytest.raises(ValueError):
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


def sweep_drawing_every_secret(states_per_octant: int = 4, seed: int = 2026):
    """``soundness_sweep`` drawing secrets for every input, whether or not its
    gadget reads them, and enumerating each input's gadget anew."""
    worst, count = 1.0, 0
    for gadget in ORACLE_GADGETS:
        width = 2 if gadget == "cz" else 1
        for octant in admissible_octants(gadget):
            for _ in range(states_per_octant):
                state = haar_random_state(width, rng.stream(seed, "oracle-sweep", count))
                hidden = draw_sueki_secrets(rng.stream(seed, "oracle-secrets", count))
                rows = branch_table(gadget, octant, state=state, hidden=hidden)
                worst = min(worst, min(row.fidelity for row in rows))
                count += 1
    return worst, count


def test_soundness_sweep_draws_secrets_only_where_they_are_read(monkeypatch):
    """Only the 32 prepare-only inputs draw secrets, and the result is the
    one the sweep gives when every input draws them."""
    purposes = Counter()
    stream = rng.stream

    def counting(seed, purpose, index=0):
        purposes[purpose] += 1
        return stream(seed, purpose, index)

    monkeypatch.setattr(rng, "stream", counting)
    result = soundness_sweep()
    monkeypatch.undo()
    assert purposes == {"oracle-sweep": 100, "oracle-secrets": 32}
    assert result == sweep_drawing_every_secret()


SECRET_PAIRS = ((0, 0), (3, 1))  # (3, 1) is hiding octant 5 mirrored


@pytest.mark.parametrize(
    "gadget,octant", [(g, k) for g in ORACLE_GADGETS for k in admissible_octants(g)]
)
def test_tables_from_the_entangled_input_match_replay(gadget, octant):
    """Each row built from the gadget's branch operators equals the row of a
    replay of the gadget on the input itself."""
    width = 2 if gadget == "cz" else 1
    for i in range(2):
        state = haar_random_state(width, rng.stream(172, "oracle-replay", 2 * octant + i))
        for hidden in SECRET_PAIRS:
            fast = branch_table(gadget, octant, state, hidden=hidden)
            slow = replayed_branch_table(gadget, octant, state, hidden)
            assert [r.outcomes for r in fast] == [r.outcomes for r in slow]
            assert [r.announced for r in fast] == [r.announced for r in slow]
            for a, b in zip(fast, slow):
                assert a.probability == pytest.approx(b.probability, abs=1e-12)
                assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)


def flip_the_by_product(gadget):
    return lambda *args, **kwargs: gadget(*args, **kwargs) ^ 1


@pytest.mark.parametrize("name", ["p2_hrz_on_runtime", "cz_on_runtime"])
def test_soundness_sweep_catches_a_wrong_by_product(monkeypatch, name):
    monkeypatch.setattr(oracle, name, flip_the_by_product(getattr(oracle, name)))
    worst, count = soundness_sweep(1)
    assert count == 25
    assert worst < 1.0 - GADGET_FIDELITY_ATOL
