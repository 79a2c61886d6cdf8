"""End-to-end command line checks (in-process, JSON output contract)."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import adbqc
from adbqc.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, main, parse_adversary
from adbqc.protocols import HONEST


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# run


def test_run_p1_honest(capsys):
    code, report, _ = run_json(
        capsys, "run", "--protocol", "p1", "--qubits", "9", "--depth", "2",
        "--seed", "7",
    )
    assert code == EXIT_OK
    assert report["accepted"] is True
    assert report["trap_total"] == 6
    assert report["trap_errors"] == 0
    assert len(report["computation_bits"]) == 3


def test_run_rejects_traps_for_the_prepare_only_protocol(capsys):
    code, _, err = run_cli(
        capsys, "run", "--protocol", "sueki", "--qubits", "1", "--traps", "3"
    )
    assert code == EXIT_ERROR
    assert "error" in err


def test_run_rejects_an_over_budget_width(capsys):
    code, out, err = run_cli(capsys, "run", "--protocol", "sueki", "--qubits", "16")
    assert code == EXIT_ERROR
    assert out == ""
    assert "over the budget of 16" in err


_P1 = {"protocol": "p1", "num_register_qubits": 3}
_BAD_CONFIG_FILES = [
    ({"protocol": "p2", "num_register_qubits": 3, "trap_count": "1"}, "must be an integer"),
    ({"protocol": "sueki", "num_register_qubits": 2, "seed": 5.7}, "must be an integer"),
    ({**_P1, "algorithm": [{"kind": "su", "targets": [0.0], "name": "h"}]},
     "must be an integer"),
    ({**_P1, "algorithm": [{"kind": "su", "targets": [0], "octants": [1.5, 0, 0]}]},
     "must be an integer"),
    ({**_P1, "adversary": {"kind": "random_pauli", "params": {"pauli_counts": [1.5, 0, 0]}}},
     "must be an integer"),
    # wrong shapes, which used to end in a TypeError or AttributeError traceback
    ({**_P1, "adversary": {"kind": "random_pauli", "params": {"pauli_counts": 3}}},
     "pauli_counts must be a list"),
    ({**_P1, "adversary": {"kind": "random_pauli", "params": {"pauli_counts": [1, 0, 0],
                                                         "pauli_positions": [5]}}},
     "pauli_positions entry must be a"),
    ({**_P1, "algorithm": [{"kind": "su", "targets": 0, "name": "h"}]},
     "targets must be a list"),
    ({"protocol": "p2", "num_register_qubits": 3, "trap_count": 1,
      "adversary": {"kind": "trap_tamper", "params": {"tamper_rate": None}}},
     "tamper_rate must be a number"),
    ({**_P1, "algorithm": [5]}, "algorithm entry must be an object"),
    ({**_P1, "algorithm": 5}, "algorithm must be a list"),
    ({**_P1, "adversary": "none"}, "adversary must be an object"),
    ([_P1], "config must be an object"),
    ({**_P1, "adversary": {"kind": "random_pauli", "params": {"pauli_positions": [["x"]]}}},
     "pauli_positions entry must be a"),
    # a required key is missing (the CLI itself asks for a protocol and a
    # width, and the depth defaults to 1, so only algorithm entry keys reach
    # the config)
    ({**_P1, "algorithm": [{"targets": [0], "name": "h"}]}, "algorithm entry 0 needs kind"),
    ({**_P1, "algorithm": [{"kind": "su", "name": "h"}]}, "algorithm entry 0 needs targets"),
    # an unknown key, which used to be ignored (this ran in Z with seed 0)
    ({**_P1, "output_base": ["x"], "sed": 5}, "config has unknown key(s) 'output_base', 'sed'"),
]


@pytest.mark.parametrize(
    "config,message",
    _BAD_CONFIG_FILES,
    ids=[f"config{i}" for i in range(len(_BAD_CONFIG_FILES))],
)
def test_run_rejects_a_non_integer_config_field(capsys, tmp_path, config, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("adbqc: error:") and message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_run_refuses_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "run", "--protocol", "sueki", "--qubits", "1",
                             "--seed", "-1")
    assert code == EXIT_ERROR
    assert out == ""
    assert "seed must be non-negative" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("oracle", "--gadget", "p2"), id="oracle"),
        pytest.param(("blindness", "--audit", "probe"), id="blindness"),
    ],
)
def test_subcommands_refuse_a_negative_seed(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("adbqc: error:") and "seed must be non-negative, got -1" in err


def test_run_requires_a_protocol(capsys):
    code, _, err = run_cli(capsys, "run", "--qubits", "3")
    assert code == EXIT_ERROR
    assert "--protocol" in err


def test_run_bad_adversary_spec(capsys):
    code, _, err = run_cli(
        capsys, "run", "--protocol", "p1", "--qubits", "3", "--adversary", "foo:1"
    )
    assert code == EXIT_ERROR
    assert "adversary" in err


def test_run_adversary_flag_replaces_the_file_adversary(capsys, tmp_path):
    config = {"protocol": "p1", "num_register_qubits": 3, "depth": 1, "seed": 2,
              "adversary": {"kind": "random_pauli", "params": {"pauli_counts": [1, 0, 0]}}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, report, _ = run_json(capsys, "run", "--config", str(path), "--adversary", "none")
    assert code == EXIT_OK and report["trap_errors"] == 0
    # the replaced config is checked again, so a p2-only deviation is refused
    code, out, err = run_cli(
        capsys, "run", "--config", str(path), "--adversary", "tamper:0.5"
    )
    assert code == EXIT_ERROR and out == ""
    assert "which only p2 has" in err


def test_run_config_file_with_flag_override(capsys, tmp_path):
    config = {"protocol": "p1", "num_register_qubits": 9, "depth": 1, "seed": 3}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, report, _ = run_json(capsys, "run", "--config", str(path), "--qubits", "3")
    assert code == EXIT_OK
    assert report["trap_total"] == 2  # the flag shrank the register


def test_run_manifest_rerun_is_byte_identical(capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    t1 = tmp_path / "a.jsonl"
    t2 = tmp_path / "b.jsonl"
    code, out1, _ = run_cli(
        capsys, "run", "--protocol", "p2", "--qubits", "3", "--traps", "1",
        "--seed", "11", "--manifest-out", str(manifest), "--transcript-out", str(t1),
    )
    assert code == EXIT_OK
    saved = json.loads(manifest.read_text())
    assert saved["config"]["seed"] == 11
    code, out2, _ = run_cli(
        capsys, "run", "--config", str(manifest), "--transcript-out", str(t2)
    )
    assert code == EXIT_OK
    assert out1 == out2
    assert t1.read_bytes() == t2.read_bytes()


def test_run_known_rejecting_tamper_seed(capsys):
    code, report, _ = run_json(
        capsys, "run", "--protocol", "p2", "--qubits", "5", "--traps", "4",
        "--seed", "1", "--adversary", "tamper:0.1",
    )
    assert code == EXIT_REJECT
    assert report["accepted"] is False
    assert report["trap_errors"] > 0


def test_run_tamper_rejection_rate(capsys):
    """Exit codes across seeds track the 0.25 acceptance rate for two traps."""
    trials = 400
    accepted = 0
    for seed in range(trials):
        code = main(
            ["run", "--protocol", "p2", "--qubits", "3", "--traps", "2",
             "--seed", str(seed), "--adversary", "tamper:0.5"]
        )
        assert code in (EXIT_OK, EXIT_REJECT)
        accepted += int(code == EXIT_OK)
    capsys.readouterr()  # drop the accumulated reports
    sigma = np.sqrt(0.25 * 0.75 / trials)
    assert abs(accepted / trials - 0.25) <= 4 * sigma


# ---------------------------------------------------------------------------
# oracle


def test_oracle_cz_table(capsys):
    code, payload, _ = run_json(capsys, "oracle", "--gadget", "cz")
    assert code == EXIT_OK
    assert payload["all_pass"] is True
    assert len(payload["branches"]) == 2
    for row in payload["branches"]:
        assert row["fidelity"] >= payload["fidelity_floor"]


def test_oracle_p2_announces_no_octant(capsys):
    code, payload, _ = run_json(
        capsys, "oracle", "--gadget", "p2", "--theta-octant", "5"
    )
    assert code == EXIT_OK
    assert all("announced_octant" not in row for row in payload["branches"])
    assert sum(row["probability"] for row in payload["branches"]) == pytest.approx(1.0)


def test_oracle_sueki_announces_octants(capsys):
    code, payload, _ = run_json(
        capsys, "oracle", "--gadget", "hrz-sueki", "--theta-octant", "2"
    )
    assert code == EXIT_OK
    assert all(0 <= row["announced_octant"] <= 7 for row in payload["branches"])


def test_oracle_rejects_inadmissible_octant(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--gadget", "p1", "--theta-octant", "8"
    )
    assert code == EXIT_ERROR
    assert "error" in err


# ---------------------------------------------------------------------------
# attack


def test_attack_pauli_reports_the_exact_fraction(capsys):
    code, payload, _ = run_json(capsys, "attack", "--pauli", "3,0,0")
    assert code == EXIT_OK
    assert payload["exact_fraction"] == "120/504"
    assert payload["exact"] == pytest.approx(5 / 21)
    assert payload["bound"] == pytest.approx(2 / 3)
    # p1 at N=9, d=1, over every ordered placement of the three X
    assert payload["protocol_accept"] == pytest.approx(5 / 21, abs=1e-12)
    assert payload["protocol_accept_and_wrong"] == pytest.approx(5 / 21 - 1 / 84, abs=1e-12)
    assert payload["passed"] is True


def test_attack_pauli_exact_only(capsys):
    code, payload, _ = run_json(capsys, "attack", "--pauli", "1,1,1", "--qubits", "3")
    assert code == EXIT_OK
    assert payload["exact"] == pytest.approx(1 / 6)
    assert payload["protocol_accept"] == pytest.approx(1 / 6, abs=1e-12)
    assert not {"estimate", "trials", "z_score"} & set(payload)


def test_attack_tamper_exact(capsys):
    code, payload, _ = run_json(capsys, "attack", "--tamper", "0.5", "--traps", "4")
    assert code == EXIT_OK
    assert payload["exact_acceptance"] == pytest.approx(0.0625)
    # p2 at N=5 with 4 traps: the computation bit is flipped half the time
    assert payload["protocol_accept"] == pytest.approx(0.0625, abs=1e-12)
    assert payload["protocol_accept_and_wrong"] == pytest.approx(0.03125, abs=1e-12)


def test_attack_tamper_runs_the_protocol(capsys):
    code, payload, _ = run_json(capsys, "attack", "--tamper", "0.9", "--traps", "8")
    assert code == EXIT_OK
    assert payload["exact_acceptance"] == pytest.approx(0.43046721)
    assert payload["protocol_accept"] == pytest.approx(0.43046721, abs=1e-12)
    assert payload["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("--pauli", "1,0,0", "--qubits", "15"), id="p1-over-max-qubits"),
        pytest.param(("--pauli", "5,0,0", "--qubits", "12"), id="over-branch-budget"),
        pytest.param(("--tamper", "0.5", "--traps", "0"), id="p2-without-traps"),
    ],
)
def test_attack_protocol_fields_are_null_where_no_run_fits(capsys, argv):
    """The closed form still prints and passes; the protocol's figures are
    null where no config holds the size or the budget refuses the attack."""
    code, payload, _ = run_json(capsys, "attack", *argv)
    assert code == EXIT_OK and payload["passed"] is True
    assert payload["protocol_accept"] is None and payload["protocol_accept_and_wrong"] is None


@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_attack_takes_no_monte_carlo_flags(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["attack", "--pauli", "3,0,0", flag, "5"])
    assert info.value.code == EXIT_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


def test_attack_argument_validation(capsys):
    code, _, err = run_cli(capsys, "attack", "--pauli", "1,0,0", "--tamper", "0.5")
    assert code == EXIT_ERROR
    code, _, err = run_cli(capsys, "attack", "--tamper", "1.5")
    assert code == EXIT_ERROR
    code, _, err = run_cli(capsys, "attack", "--pauli", "1,0")
    assert code == EXIT_ERROR
    assert "pauli counts must be three values" in err
    # attack takes no --protocol: --pauli implies p1 and --tamper p2
    with pytest.raises(SystemExit) as info:
        main(["attack", "--protocol", "p2", "--pauli", "1,0,0"])
    assert info.value.code == EXIT_ERROR


def test_parse_adversary_forms():
    assert parse_adversary("none") is HONEST
    pauli = parse_adversary("pauli:1,2,0")
    assert pauli.kind == "random_pauli" and pauli.pauli_counts == (1, 2, 0)
    tamper = parse_adversary("tamper:0.75")
    assert tamper.kind == "trap_tamper" and tamper.tamper_rate == 0.75
    with pytest.raises(ValueError):
        parse_adversary("pauli:1,2")
    with pytest.raises(ValueError):
        parse_adversary("probe")


# ---------------------------------------------------------------------------
# blindness


def test_blindness_theta(capsys):
    code, payload, _ = run_json(capsys, "blindness", "--audit", "theta")
    assert code == EXIT_OK
    assert payload["passed"] is True
    assert payload["details"]["checks"] == 128
    assert payload["statistic"] == 0.0


def test_blindness_probe(capsys):
    code, payload, _ = run_json(
        capsys, "blindness", "--audit", "probe", "--samples", "25"
    )
    assert code == EXIT_OK
    assert payload["details"]["probes"] == 25


def test_blindness_exact_tv(capsys):
    code, payload, _ = run_json(
        capsys, "blindness", "--audit", "tv", "--gadget", "p1",
        "--octant-a", "1", "--octant-b", "4",
    )
    assert code == EXIT_OK
    assert payload["statistic"] <= 1e-9


def test_blindness_sampled_tv_from_configs(capsys, tmp_path):
    def write(name, protocol, width, octants):
        path = tmp_path / name
        path.write_text(json.dumps({
            "protocol": protocol, "num_register_qubits": width, "depth": 1,
            "algorithm": [{"kind": "su", "targets": [0], "octants": list(octants)}],
            **({"trap_count": 1} if protocol == "p2" else {}),
        }))
        return str(path)

    # the measure-only server sees no classical value, so every view matches
    code, payload, _ = run_json(
        capsys, "blindness", "--audit", "tv", "--runs", "40",
        "--config-a", write("a.json", "p1", 3, (0, 0, 1)),
        "--config-b", write("b.json", "p1", 3, (0, 0, 5)),
    )
    assert code == EXIT_OK
    assert payload["audit"] == "transcript_tv" and payload["statistic"] == 0.0
    # p2's padded reports make every view unique: the audit could reject nothing
    code, out, err = run_cli(
        capsys, "blindness", "--audit", "tv", "--runs", "40",
        "--config-a", write("a.json", "p2", 2, (0, 0, 1)),
        "--config-b", write("b.json", "p2", 2, (0, 0, 5)),
    )
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("adbqc: error:") and "could reject nothing" in err


def test_blindness_sampled_tv_reads_a_manifest(capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    code, _, _ = run_cli(
        capsys, "run", "--protocol", "p1", "--qubits", "3",
        "--manifest-out", str(manifest),
    )
    assert code == EXIT_OK
    config = tmp_path / "b.json"
    config.write_text(json.dumps(json.loads(manifest.read_text())["config"]))
    code, payload, _ = run_json(
        capsys, "blindness", "--audit", "tv", "--runs", "20",
        "--config-a", str(manifest), "--config-b", str(config),
    )
    assert code == EXIT_OK
    assert payload["audit"] == "transcript_tv" and payload["details"]["runs"] == 20


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(("blindness", "--audit", "probe", "--samples", "0"),
                     "at least one probe", id="no-probe"),
        pytest.param(("blindness", "--audit", "tv", "--gadget", "p1", "--octant-a", "8",
                      "--octant-b", "2"), "octant 8 is not admissible", id="octant-8"),
    ],
)
def test_cli_refuses_a_check_that_compares_nothing(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("adbqc: error:") and message in err


def test_sampled_tv_refuses_zero_runs(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"protocol": "sueki", "num_register_qubits": 1, "depth": 1}))
    code, out, err = run_cli(
        capsys, "blindness", "--audit", "tv", "--runs", "0",
        "--config-a", str(path), "--config-b", str(path),
    )
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("adbqc: error:") and "at least one run" in err


def test_run_and_blindness_read_a_config_without_depth_alike(capsys, tmp_path):
    """Every config reader defaults the depth to 1."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"protocol": "p1", "num_register_qubits": 3, "seed": 4}))
    code, report, _ = run_json(capsys, "run", "--config", str(path))
    assert code == EXIT_OK
    assert run_json(capsys, "run", "--config", str(path), "--depth", "1")[1] == report
    code, payload, _ = run_json(
        capsys, "blindness", "--audit", "tv", "--runs", "10",
        "--config-a", str(path), "--config-b", str(path),
    )
    assert code == EXIT_OK and payload["details"]["runs"] == 10


def test_blindness_tv_needs_both_configs(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text("{}")
    code, _, err = run_cli(
        capsys, "blindness", "--audit", "tv", "--config-a", str(path)
    )
    assert code == EXIT_ERROR


# ---------------------------------------------------------------------------
# parser plumbing


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "adbqc" in capsys.readouterr().out


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["oracle"])  # missing required --gadget
    assert info.value.code == EXIT_ERROR


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["teleport"])
    assert info.value.code == EXIT_ERROR


ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# README examples


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command, lines shown below it) for each ``$ adbqc`` line of the
    README, with any trailing ``# comment`` stripped."""
    examples, shown = [], None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("$ adbqc "):
            shown = []
            examples.append((re.sub(r"\s+#.*", "", line[2:]), shown))
        elif line.startswith("```"):
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


_SHOWN_FIELD = re.compile(r'\s*"(\w+)": (.*?),?')


def test_readme_command_examples_run_as_shown(capsys):
    """Every README example exits 0 with JSON on stdout, and each
    ``"key": value`` line shown below one matches that key of the output; a
    string shown ending in ``..."`` is a prefix."""
    examples = readme_examples()
    assert len(examples) >= 8
    with_output = 0
    for command, shown in examples:
        code, payload, _ = run_json(capsys, *shlex.split(command)[1:])
        assert code == EXIT_OK, command
        fields = [m.groups() for m in map(_SHOWN_FIELD.fullmatch, shown) if m]
        for key, value in fields:
            if value.endswith('..."'):
                assert payload[key].startswith(value[1:-4]), (command, key)
            else:
                assert payload[key] == json.loads(value), (command, key)
        with_output += bool(fields)
    assert with_output == 2  # run --protocol p1 and attack --pauli


def load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)


def test_console_script_is_installed():
    """The declared ``adbqc`` console script starts and reports the version.

    An installer turns each ``[project.scripts]`` entry into a wrapper that
    imports the named object and exits with its return value.  This runs that
    wrapper in a fresh interpreter against the source tree, so no install is
    needed.
    """
    project = load_pyproject()["project"]
    entry = EntryPoint(
        name="adbqc", value=project["scripts"]["adbqc"], group="console_scripts"
    )
    assert callable(entry.load())
    wrapper = (
        "import sys\n"
        f"from {entry.module} import {entry.attr.split('.')[0]}\n"
        "sys.argv[0] = 'adbqc'\n"
        f"sys.exit({entry.attr}())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"adbqc {project['version']}"
    assert project["version"] == adbqc.__version__


@pytest.mark.skipif(shutil.which("adbqc") is None, reason="no adbqc on PATH")
def test_installed_console_script_runs():
    out = subprocess.run(
        [shutil.which("adbqc"), "--version"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"adbqc {adbqc.__version__}"
