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
        "sweep-drops-each-last-row",
        "src/adbqc/oracle.py",
        "for row in gadget_rows(*key)]",
        "for row in gadget_rows(*key)[:-1]]",
        ("tests/test_oracle.py::test_soundness_sweep_reads_every_gathered_row[one-qubit]",
         "tests/test_oracle.py::test_soundness_sweep_reads_every_gathered_row[two-qubit]",
         "tests/test_oracle.py::test_soundness_sweep_draws_secrets_only_where_they_are_read"),
    ),
    Mutant(
        "view-against-itself",  # block_trace_distances compares each view with itself
        "src/adbqc/blindness.py",
        "    first, second = np.array(list(zip(*pairs)), dtype=int).reshape(2, -1)\n",
        "    first, second = np.array(list(zip(*pairs)), dtype=int).reshape(2, -1)[[0, 0]]\n",
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
        "            terms.setdefault(p, []).append(dist[ab])\n",
        "            terms.setdefault(p, []).append(dist[both[0]])\n",
        ("tests/test_blindness.py::test_block_trace_distances_equal_the_bytes_interned_reference",
         "tests/test_blindness.py::test_no_signaling_flags_a_leak_without_a_classical_trace",
         "tests/test_blindness.py::test_view_audits_equal_one_comparison_per_checkpoint"
         "[hrz-sueki-0-3]",
         "tests/test_blindness.py::test_gadget_view_audit_flags_a_leak[p2-1-6]"),
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
