"""Wiring text format, branch evaluation, and the frozen fixtures."""

import numpy as np
import pytest

from adbqc.qsim import Gate
from adbqc.wiring import (
    WiringStep,
    load_wiring,
    parse_wiring,
    serialize_wiring,
    validate_wiring,
    wiring_branches,
)


# ---------------------------------------------------------------------------
# Text format


def test_parse_serialize_roundtrip():
    text = (
        "# leading comment\n"
        "step prep=plus couple=0,1 measure=z\n"
        "\n"
        "step prep=zero couple=1 discard  # trailing comment\n"
        "step prep=hidden:3 couple=0 measure=equatorial:6\n"
    )
    steps = parse_wiring(text)
    assert steps == (
        WiringStep("plus", (0, 1), "z"),
        WiringStep("zero", (1,), None),
        WiringStep("hidden:3", (0,), "equatorial:6"),
    )
    canonical = serialize_wiring(steps)
    assert parse_wiring(canonical) == steps
    assert canonical.endswith("\n")
    assert "#" not in canonical


@pytest.mark.parametrize(
    "text",
    [
        "prep=zero couple=0 discard",  # missing the step keyword
        "step prep=zero couple=0",  # neither measure nor discard
        "step prep=zero couple=0 measure=z discard",  # both
        "step prep=zero couple=0 junk discard",  # stray token
        "",  # no steps at all
        "# only a comment\n",
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_wiring(text)


def test_step_field_validation():
    with pytest.raises(ValueError):
        WiringStep("fancy", (0,), "z")
    with pytest.raises(ValueError):
        WiringStep("zero", (), "z")
    with pytest.raises(ValueError):
        WiringStep("zero", (0, 1, 0, 1), "z")
    with pytest.raises(ValueError):
        WiringStep("zero", (0,), "diagonal")


# ---------------------------------------------------------------------------
# Branch evaluation


def test_fixture_h_validates():
    report = validate_wiring(load_wiring("h"), Gate.h().matrix, 1)
    assert report.valid
    assert report.completeness_defect < 1e-9
    assert report.branches == (((), ("i",), pytest.approx(1.0)),)


def test_fixture_hrz2_validates():
    report = validate_wiring(load_wiring("hrz2"), Gate.hrz(np.pi / 2).matrix, 1)
    assert report.valid
    assert len(report.branches) == 2
    weights = sorted(w for _, _, w in report.branches)
    assert weights == [pytest.approx(0.5), pytest.approx(0.5)]
    assert {p for _, p, _ in report.branches} == {("i",), ("x",)}


def test_fixture_cz_validates():
    report = validate_wiring(load_wiring("cz"), Gate.cz().matrix, 2)
    assert report.valid
    assert report.completeness_defect < 1e-9
    rows = {(outcomes, paulis) for outcomes, paulis, _ in report.branches}
    assert rows == {((0,), ("i", "i")), ((1,), ("z", "i"))}
    for _, _, weight in report.branches:
        assert weight == pytest.approx(0.5)


def test_hidden_prep_realizes_half_turn_rotation():
    """hidden:4 measured in Z has identical branches H R_Z(pi)."""
    wiring = (WiringStep("hidden:4", (0,), "z"),)
    report = validate_wiring(wiring, Gate.hrz(np.pi).matrix, 1)
    assert report.valid
    assert {p for _, p, _ in report.branches} == {("i",)}


def test_hidden_prep_alone_is_not_pauli_correctable():
    """hidden:3 leaves a residual R_Z(3 pi/2) on the outcome-1 branch."""
    wiring = (WiringStep("hidden:3", (0,), "z"),)
    report = validate_wiring(wiring, Gate.hrz(-3 * np.pi / 4).matrix, 1)
    assert not report.valid
    assert "Pauli" in report.reason


def test_wrong_target_is_rejected():
    report = validate_wiring(load_wiring("h"), Gate.x().matrix, 1)
    assert not report.valid


def test_validate_checks_dimensions():
    with pytest.raises(ValueError):
        validate_wiring(load_wiring("h"), Gate.cz().matrix, 1)


def test_entangled_discard_is_rejected():
    wiring = (WiringStep("plus", (0,), None),)
    with pytest.raises(ValueError, match="entangled"):
        wiring_branches(wiring, 1)
    report = validate_wiring(wiring, Gate.h().matrix, 1)
    assert not report.valid
    assert "entangled" in report.reason


def test_branch_weights_follow_outcome_count():
    wiring = load_wiring("cz")
    branches = wiring_branches(wiring, 2)
    assert sorted(b.outcomes for b in branches) == [(0,), (1,)]
    total = sum(np.linalg.norm(b.operator) ** 2 for b in branches)
    assert total == pytest.approx(4.0, abs=1e-9)  # completeness on dim 4
    completeness = sum(b.operator.conj().T @ b.operator for b in branches)
    assert np.abs(completeness - np.eye(4)).max() < 1e-9
