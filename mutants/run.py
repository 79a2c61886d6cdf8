"""Re-run the mutation catalogue: each entry breaks the package on purpose,
and every test it names must then fail.

For each entry the runner copies ``src/``, ``tests/`` and ``pyproject.toml``
into a temporary directory, replaces the entry's ``old`` text, which must
occur exactly once in its file, with ``new``, and runs only the entry's
tests there. An entry is caught when every one of its tests fails. The
runner exits 1 if an entry's old text is not found exactly once or if any
of its tests does not fail. No entry names a test that pins bytes, so an
entry is caught by what the tests check, not by a changed digest.

From the repository root: ``python3 mutants/run.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


CATALOGUE = (
    Mutant(
        "pad-dropped",  # the gate-only step forgets its pad in the by-product
        "src/adbqc/protocols/gate_client.py",
        "    return p2_hrz_on_runtime(rt, label, (octant + 4 * pad) % 8) ^ pad\n",
        "    return p2_hrz_on_runtime(rt, label, (octant + 4 * pad) % 8)\n",
        ("tests/test_oracle.py::test_every_key_compiles_once_into_read_only_rows",
         "tests/test_oracle.py::test_soundness_sweep_small",
         "tests/test_acceptance.py::test_acceptance_1_gadget_soundness",
         "tests/test_enumeration.py::test_the_walk_decodes_to_the_reference[p2-N3-d2-cz]"),
    ),
    Mutant(
        "check-returns-at-once",  # every row passes the soundness check
        "src/adbqc/protocols/driver.py",
        "    ops = np.stack([op for _, op, _, _ in rows])\n",
        "    return np.ones(len(rows))\n",
        ("tests/test_oracle.py::test_soundness_sweep_catches_a_wrong_by_product"
         "[sueki_hrz_on_runtime]",
         "tests/test_oracle.py::test_soundness_sweep_reads_every_gathered_row[two-qubit]",
         "tests/test_enumeration.py::test_the_walk_catches_a_p2_by_product_without_its_pad",
         "tests/test_enumeration.py::test_the_walk_catches_a_flipped_sueki_by_product"),
    ),
    Mutant(
        "rows-against-the-first-row",  # a by-product wrong on every outcome passes
        "src/adbqc/protocols/driver.py",
        "    trace = np.trace(ops, axis1=1, axis2=2)\n"
        "    norm = (ops.real**2 + ops.imag**2).sum((1, 2))\n"
        "    return (trace.real**2 + trace.imag**2) / (ops.shape[1] * norm)\n",
        "    trace = (ops[0].conj() * ops).sum((1, 2))\n"
        "    norm = (ops.real**2 + ops.imag**2).sum((1, 2))\n"
        "    return (trace.real**2 + trace.imag**2) / (norm[0] * norm)\n",
        ("tests/test_oracle.py::test_soundness_sweep_catches_a_wrong_by_product[cz_on_runtime]",
         "tests/test_enumeration.py::test_the_walk_catches_a_p2_by_product_without_its_pad",
         "tests/test_enumeration.py::test_the_walk_catches_a_flipped_sueki_by_product"),
    ),
    Mutant(
        "unsigned-row-key",  # the walk checks the rows of the undriven octant
        "src/adbqc/protocols/driver.py",
        "    return frame, (gadget, (sign * step.octant) % 8, step.secrets)\n",
        "    return frame, (gadget, step.octant, step.secrets)\n",
        ("tests/test_enumeration.py::test_the_walk_checks_the_keys_the_run_drives[sueki-HH-CZ]",
         "tests/test_enumeration.py::test_the_walk_checks_the_keys_the_run_drives[p1-N9-d3]"),
    ),
    Mutant(
        "walk-drops-the-by-product",  # the exact walk never flips the frame by a row's bit
        "src/adbqc/protocols/driver.py",
        "        session.frame = flip(step.positions[0]) if by_product else frame\n",
        "        session.frame = frame\n",
        ("tests/test_enumeration.py::test_the_walk_equals_the_driven_walk_on_the_exact_configs"
         "[p1-N6-d2-cz]",
         "tests/test_enumeration.py::test_the_walk_equals_the_driven_walk_on_the_exact_configs"
         "[p2-N3-d2-cz]",
         "tests/test_enumeration.py::test_the_walk_decodes_to_the_reference[p1-N6-d2-cz]"),
    ),
    Mutant(
        "sweep-drops-each-last-row",  # the sweep reads every key's scores but the last row's
        "src/adbqc/oracle.py",
        "[row_scores(*key) for key",
        "[row_scores(*key)[:-1] for key",
        ("tests/test_oracle.py::test_soundness_sweep_reads_every_gathered_row[one-qubit]",
         "tests/test_oracle.py::test_soundness_sweep_reads_every_gathered_row[two-qubit]",
         "tests/test_oracle.py::test_soundness_sweep_draws_secrets_only_where_they_are_read"),
    ),
    Mutant(
        "scores-skip-the-last-row",  # a key's scores, compiled with its rows, miss its last row
        "src/adbqc/protocols/driver.py",
        "    _SCORES[key] = row_fidelities(rows)\n",
        "    _SCORES[key] = row_fidelities(rows[:-1])\n",
        ("tests/test_oracle.py::test_soundness_sweep_reads_every_gathered_row[one-qubit]",
         "tests/test_oracle.py::test_soundness_sweep_reads_every_gathered_row[two-qubit]",
         "tests/test_oracle.py::test_every_key_compiles_once_into_read_only_rows"),
    ),
    Mutant(
        "view-against-itself",  # block_trace_distances compares each view with itself
        "src/adbqc/blindness.py",
        "    first, second = np.asarray(pairs, dtype=int).reshape(-1, 2).T\n",
        "    first, second = np.asarray(pairs, dtype=int).reshape(-1, 2).T[[0, 0]]\n",
        ("tests/test_blindness.py::test_no_signaling_flags_a_classical_leak",
         "tests/test_blindness.py::test_no_signaling_flags_a_leak_without_a_classical_trace",
         "tests/test_blindness.py::test_block_trace_distance_handles_disjoint_keys",
         "tests/test_blindness.py::test_a_leak_between_aliased_checkpoints_is_read"),
    ),
    Mutant(
        "alias-rule-drops-each-last-record",  # a checkpoint whose last block changed is aliased
        "src/adbqc/blindness.py",
        "all(view[k] is last[k] for k in view)",
        "all(view[k] is last[k] for k in list(view)[:-1])",
        ("tests/test_blindness.py::test_an_unchanged_checkpoint_is_its_predecessor[p1]",
         "tests/test_blindness.py::test_an_unchanged_checkpoint_is_its_predecessor[sueki]",
         "tests/test_blindness.py::test_an_unchanged_checkpoint_is_its_predecessor[p2]",
         "tests/test_blindness.py::test_a_leak_between_aliased_checkpoints_is_read"),
    ),
    Mutant(
        "every-cell-reads-the-first-pair",  # the dedupe hands each cell one pair's distance
        "src/adbqc/blindness.py",
        "    terms = once[inverse]  # each cell's terms, in pair order\n",
        "    terms = once[0 * inverse]  # each cell's terms, in pair order\n",
        ("tests/test_blindness.py::test_block_trace_distances_equal_the_bytes_interned_reference",
         "tests/test_blindness.py::test_no_signaling_flags_a_leak_without_a_classical_trace",
         "tests/test_blindness.py::test_view_audits_equal_one_comparison_per_checkpoint"
         "[hrz-sueki-0-3]",
         "tests/test_blindness.py::test_gadget_view_audit_flags_a_leak[p2-1-6]"),
    ),
    Mutant(
        "walk-on-00",  # the one walk loads |00> in place of the entangled pair
        "src/adbqc/protocols/driver.py",
        "        rt.load(np.eye(dim).reshape(-1) / math.sqrt(dim), labels, BOB)\n",
        "        rt.load(np.eye(dim * dim)[0], labels, BOB)\n",
        ("tests/test_oracle.py::test_every_key_compiles_once_into_read_only_rows",
         "tests/test_oracle.py::test_tables_from_the_entangled_input_match_replay[p1-a-0]",
         "tests/test_blindness.py::test_no_signaling_flags_a_leak_without_a_classical_trace",
         "tests/test_blindness.py::test_views_per_prefix_equal_views_per_path[0]"),
    ),
    Mutant(
        "checkpoint-after-the-event",  # a checkpoint's record already holds its event's values
        "src/adbqc/protocols/driver.py",
        "            self.take(self.visible, self.server_record, self.rt.outcomes, self.rt)\n"
        "            self.server_record += server_values(kind, payload)\n",
        "            self.server_record += server_values(kind, payload)\n"
        "            self.take(self.visible, self.server_record, self.rt.outcomes, self.rt)\n",
        ("tests/test_blindness.py::test_views_per_prefix_equal_views_per_path[0]",
         "tests/test_blindness.py::test_an_unchanged_checkpoint_is_its_predecessor[sueki]"),
    ),
    Mutant(
        "theta-count-drops-the-pad",  # the announced octant is counted as if no pad were drawn
        "src/adbqc/blindness.py",
        "announced_octant(targets[:, None], hiding, pad, s1)",
        "announced_octant(targets[:, None], hiding, 0, s1)",
        ("tests/test_blindness.py::test_theta_uniformity_counts_as_the_looped_count"
         "[hiding-0-to-3]",),
    ),
    Mutant(
        "discard-tie-reads-rounding",  # which equal half a discard keeps follows rounding
        "src/adbqc/runtime.py",
        "if w0 >= w1 - PRODUCT_ATOL else",
        "if w0 >= w1 else",
        ("tests/test_enumeration.py::test_the_walk_equals_the_driven_walk_on_the_exact_configs"
         "[p1-N9-d3]",
         "tests/test_properties.py::"
         "test_discarding_an_equatorial_qubit_leaves_the_rest_with_its_phase[0]",
         "tests/test_properties.py::"
         "test_discarding_an_equatorial_qubit_leaves_the_rest_with_its_phase[3]"),
    ),
    Mutant(
        "halves-top-swapped",  # the top qubit's (2, rest) view reads its rows in swapped order
        "src/adbqc/runtime.py",
        "        return amps.reshape(2, -1)\n",
        "        return amps.reshape(2, -1)[::-1]\n",
        ("tests/test_properties.py::test_forced_measurement_matches_projector",
         "tests/test_properties.py::test_measuring_the_top_qubit_equals_it_reordered",
         "tests/test_properties.py::"
         "test_discarding_an_equatorial_qubit_leaves_the_rest_with_its_phase[4]"),
    ),
    Mutant(
        "cz-gate-writable",  # the CZ gate is built without ``share``, so it stays writable
        "src/adbqc/qsim.py",
        "CZ_GATE = share(np.diag([1, 1, 1, -1]).astype(complex))",
        "CZ_GATE = np.diag([1, 1, 1, -1]).astype(complex)",
        ("tests/test_qsim.py::test_shared_gates_and_bases_are_read_only",),
    ),
    Mutant(
        "partial-trace-unconjugated",  # the reduced state is m m^T, not m m^dagger
        "src/adbqc/qsim.py",
        "    return m @ m.conj().T\n",
        "    return m @ m.T\n",
        ("tests/test_qsim.py::test_partial_trace_matches_kron_oracle",),
    ),
    Mutant(
        "template-percent-unescaped",  # a "%" in a key or party reaches the template raw
        "src/adbqc/transcript.py",
        '        return _json(value).replace("%", "%%")\n',
        "        return _json(value)\n",
        ("tests/test_transcript.py::test_templated_lines_match_json_dumps",
         "tests/test_transcript.py::"
         "test_format_specifiers_in_strings_labels_and_keys_stay_literal"),
    ),
    Mutant(
        "label-list-unescaped",  # labels are joined between raw quotes, unescaped
        "src/adbqc/transcript.py",
        '",".join(map(encode_basestring_ascii, value))',
        """",".join(map(lambda label: '"' + label + '"', value))""",
        ("tests/test_transcript.py::test_jsonl_escapes_strings_as_json_dumps_does",
         "tests/test_transcript.py::test_templated_lines_match_json_dumps"),
    ),
    Mutant(
        "pattern-table-writable",  # a pattern unitary every later call shares accepts writes
        "src/adbqc/gadgets.py",
        "        m.flags.writeable = False\n",
        "",
        ("tests/test_gadgets.py::test_pattern_unitary_shares_one_read_only_entry_per_triple_mod_8",),
    ),
    Mutant(
        "first-rz-dropped-in-compile-steps",  # each pattern runs without its R_Z(delta)
        "src/adbqc/protocols/driver.py",
        'Step("hrz", (pos,), k) for k in (kd, kg, kb, 0))',
        'Step("hrz", (pos,), k) for k in (kg, kb, 0))',
        ("tests/test_enumeration.py::test_the_walk_decodes_to_the_reference[p1-N6-d2-cz]",
         "tests/test_enumeration.py::test_the_final_state_is_ideal_off_the_z_axis[sueki]",
         "tests/test_protocols_sueki.py::test_generic_octant_pattern_matches_reference",
         "tests/test_adversary.py::test_exact_escape_honest_always_accepts[p2]"),
    ),
    Mutant(
        "hrz-order-swapped",  # the H R_Z table, and every pattern built from it, holds R_Z H
        "src/adbqc/qsim.py",
        "tuple(share(H_GATE @ rz) for rz in RZ_BY_OCTANT)",
        "tuple(share(rz @ H_GATE) for rz in RZ_BY_OCTANT)",
        ("tests/test_gadgets.py::test_pattern_unitary_is_the_product_bit_for_bit",
         "tests/test_gadgets.py::test_pattern_unitary_matches_euler_product[0]",
         "tests/test_oracle.py::test_soundness_sweep_small",
         "tests/test_protocols_sueki.py::test_generic_octant_pattern_matches_reference"),
    ),
    Mutant(
        "check-gate-not-distinct",  # a gate may name one target twice
        "src/adbqc/qsim.py",
        "    if not k or k > 1 and len(set(targets)) != k:\n",
        "    if not k:\n",
        ("tests/test_qsim.py::test_runtime_apply_refuses_what_apply_gate_refuses[repeated-label]",),
    ),
    Mutant(
        "admit-without-norm-check",  # a new qubit's state is admitted whatever its norm
        "src/adbqc/runtime.py",
        "        if not _has_unit_norm(amps):\n"
        "            raise ValueError(\"a new qubit's state must be normalized\")\n",
        "",
        ("tests/test_qsim.py::test_load_refuses_a_state_it_cannot_hold[unnormalized]",
         "tests/test_qsim.py::test_a_state_with_a_non_finite_norm_is_refused[nan]"),
    ),
    Mutant(
        "equatorial-minus-unsigned",  # |-_{pi/2,p}> loses its sign: the bases stop being bases
        "src/adbqc/qsim.py",
        "    minus = [math.sin(math.pi / 4), -np.exp(1j * phase) * math.cos(math.pi / 4)]\n",
        "    minus = [math.sin(math.pi / 4), np.exp(1j * phase) * math.cos(math.pi / 4)]\n",
        ("tests/test_acceptance.py::test_acceptance_1_gadget_soundness",
         "tests/test_gadgets.py::test_sueki_gadget_soundness[coin_pair1-0]"),
    ),
    Mutant(
        "shared-conjugate-unconjugated",  # a shared basis is measured through itself, unconjugated
        "src/adbqc/qsim.py",
        "    conj = array.conj()\n",
        "    conj = array\n",
        ("tests/test_qsim.py::test_every_shared_array_is_held_with_its_read_only_conjugate",
         "tests/test_properties.py::test_a_shared_basis_measures_as_a_writable_copy_of_it"),
    ),
    Mutant(
        "add-qubit-holds-a-writable-array",  # a caller's writable array becomes a factor as given
        "src/adbqc/runtime.py",
        "amps = amplitudes if id(amplitudes) in SHARED else np.array(amplitudes, complex).reshape(-1)",
        "amps = np.asarray(amplitudes, complex).reshape(-1)",
        ("tests/test_qsim.py::test_a_written_caller_array_leaves_the_runtime_as_it_was",),
    ),
)


def survivors(mutant: Mutant) -> list[str]:
    """What keeps ``mutant`` from being caught: its old text not found once,
    or each of its tests that does not fail on the mutated copy."""
    with tempfile.TemporaryDirectory(prefix="adbqc-mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return [f"old text found {text.count(mutant.old)} times in {mutant.path}"]
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in result.stdout.splitlines() if line.startswith("FAILED ")}
    return [f"{test} did not fail" for test in mutant.tests if test not in failed]


def main() -> int:
    escaped = 0
    for mutant in CATALOGUE:
        problems = survivors(mutant)
        escaped += bool(problems)
        print(f"{'SURVIVED' if problems else 'caught'}: {mutant.name}")
        for problem in problems:
            print(f"    {problem}")
    print(f"{escaped} entries not caught")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
