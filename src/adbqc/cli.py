"""Command-line front door: argument parsing, one config-file reader, calls
into the library and JSON out. Every check and statistic is the library's.

Four subcommands: ``run`` executes a protocol and prints the verification
report, ``oracle`` prints per-branch gadget soundness tables, ``attack``
prints escape / tamper analyses, and ``blindness`` runs the leakage audits.
``run --config`` and ``blindness --config-a/--config-b`` read a config file
or a manifest. All reports are JSON on standard output with sorted keys, so
identical inputs give identical bytes. Exit codes: 0 accepted / all checks
pass, 2 rejected / check failed, 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__
from .adversary import escape_bound, escape_counts, exact_escape, tamper_acceptance_exact
from .blindness import (
    audit_gadget_view_tv,
    audit_no_signaling,
    audit_probe_gram,
    audit_theta_uniformity,
    audit_transcript_tv,
)
from .oracle import ORACLE_GADGETS, branch_table, table_passes
from .protocols import (
    HONEST, PROTOCOLS, AdversaryConfig, ProtocolConfig, RunManifest, config_from_dict,
    config_object, run,
)
from .qsim import GADGET_FIDELITY_ATOL, PROBABILITY_SLACK

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means 'rejected', so remap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _emit(payload: dict) -> None:
    # numpy scalars are the only report values json cannot write itself
    print(json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.item()))


def _read_config(path: str) -> dict:
    """The config object of a config file or a manifest file."""
    with open(path) as fh:
        return config_object(json.load(fh))


def parse_adversary(spec: str) -> AdversaryConfig:
    """Parse ``none`` | ``pauli:a,b,c`` | ``tamper:rate``."""
    if spec in ("", "none"):
        return HONEST
    kind, sep, params = spec.partition(":")
    if kind == "pauli" and sep:
        counts = tuple(int(x) for x in params.split(","))
        return AdversaryConfig(kind="random_pauli", pauli_counts=counts)
    if kind == "tamper" and sep:
        return AdversaryConfig(kind="trap_tamper", tamper_rate=float(params))
    raise ValueError(f"bad adversary spec {spec!r} (none | pauli:a,b,c | tamper:rate)")


# ---------------------------------------------------------------------------
# run


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="execute one protocol run and print the report")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--qubits", type=int, help="register width N")
    p.add_argument("--depth", type=int, help="number of gate layers")
    p.add_argument("--traps", type=int, help="trap count (p2 only; p1 fixes 2N/3)")
    p.add_argument("--seed", type=int, help="root seed for all randomness")
    p.add_argument("--config", help="JSON config or manifest file; flags override")
    p.add_argument("--adversary", default=None, help="none | pauli:a,b,c | tamper:rate")
    p.add_argument("--manifest-out", help="write a rerunnable manifest JSON here")
    p.add_argument("--transcript-out", help="write the transcript JSON lines here")


def cmd_run(args) -> int:
    base = _read_config(args.config) if args.config else {}
    # flags override the file's fields
    flags = {
        "protocol": args.protocol,
        "num_register_qubits": args.qubits,
        "depth": args.depth,
        "trap_count": args.traps,
        "seed": args.seed,
    }
    base.update((key, value) for key, value in flags.items() if value is not None)
    adversary = None
    if args.adversary is not None:
        adversary = parse_adversary(args.adversary)
        base.pop("adversary", None)  # replaced below, so never read
    if "protocol" not in base:
        raise ValueError("--protocol is required (flag or config file)")
    if "num_register_qubits" not in base:
        raise ValueError("--qubits is required (flag or config file)")
    config = config_from_dict(base)
    if adversary is not None:
        # replace re-runs the config's checks, the protocol/adversary match too
        config = replace(config, adversary=adversary)

    result = run(config)
    if args.manifest_out:
        manifest = RunManifest(
            config=config,
            created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
        with open(args.manifest_out, "w") as fh:
            fh.write(manifest.to_json() + "\n")
    if args.transcript_out:
        with open(args.transcript_out, "w") as fh:
            fh.write(result.transcript.to_jsonl())
    _emit(result.report.as_dict())
    return EXIT_OK if result.report.accepted else EXIT_REJECT


# ---------------------------------------------------------------------------
# oracle


def _add_oracle_parser(sub) -> None:
    p = sub.add_parser("oracle", help="print a gadget's per-branch soundness table")
    p.add_argument("--gadget", required=True, choices=ORACLE_GADGETS)
    p.add_argument("--theta-octant", type=int, default=0, help="angle as a multiple of pi/4")
    p.add_argument("--seed", type=int, default=2026, help="seed for input state and secrets")


def cmd_oracle(args) -> int:
    rows = branch_table(args.gadget, args.theta_octant, seed=args.seed)
    payload = {
        "gadget": args.gadget,
        "theta_octant": args.theta_octant,
        "fidelity_floor": 1.0 - GADGET_FIDELITY_ATOL,
        "branches": [
            {
                "outcomes": list(r.outcomes),
                "probability": r.probability,
                "fidelity": r.fidelity,
                **({"announced_octant": r.announced} if r.announced is not None else {}),
            }
            for r in rows
        ],
        "all_pass": table_passes(rows),
    }
    _emit(payload)
    return EXIT_OK if payload["all_pass"] else EXIT_REJECT


# ---------------------------------------------------------------------------
# attack


def _add_attack_parser(sub) -> None:
    p = sub.add_parser("attack", help="escape / tamper analysis against the traps")
    p.add_argument("--pauli", help="a,b,c counts of X / Z / XZ errors (p1)")
    p.add_argument("--tamper", type=float, help="per-bit report fidelity (p2)")
    p.add_argument("--qubits", type=int, default=9, help="register width (pauli)")
    p.add_argument("--traps", type=int, default=4, help="trap count (tamper)")


def _protocol_rates(closed_form: float, **fields) -> tuple[dict, bool]:
    """``exact_escape`` of the depth-1 config of ``fields`` (nulls where no
    config holds the size or the budget refuses the attack), and whether its
    acceptance is ``closed_form``."""
    try:
        accept, wrong = exact_escape(ProtocolConfig(depth=1, **fields))
    except ValueError:
        accept = wrong = None
    ok = accept is None or abs(accept - closed_form) <= PROBABILITY_SLACK
    return {"protocol_accept": accept, "protocol_accept_and_wrong": wrong}, ok


def cmd_attack(args) -> int:
    if (args.pauli is None) == (args.tamper is None):
        raise ValueError("give exactly one of --pauli a,b,c or --tamper rate")
    if args.pauli is not None:
        adversary = parse_adversary(f"pauli:{args.pauli}")
        counts = adversary.pauli_counts
        good, total = escape_counts(args.qubits, counts)
        bound = escape_bound(sum(counts))
        rates, ok = _protocol_rates(
            good / total, protocol="p1", num_qubits=args.qubits, adversary=adversary
        )
        payload = {
            "kind": "random_pauli",
            "protocol": "p1",
            "num_qubits": args.qubits,
            "pauli_counts": list(counts),
            "exact": good / total,
            "exact_fraction": f"{good}/{total}",
            "bound": bound,
            "bound_formula": "(2/3)^(alpha/3)",
            **rates,
        }
        ok = ok and good / total <= bound + PROBABILITY_SLACK
    else:
        adversary = AdversaryConfig(kind="trap_tamper", tamper_rate=args.tamper)
        exact = tamper_acceptance_exact(adversary.tamper_rate, args.traps)
        rates, ok = _protocol_rates(
            exact, protocol="p2", num_qubits=args.traps + 1, trap_count=args.traps,
            adversary=adversary,
        )
        payload = {
            "kind": "trap_tamper",
            "protocol": "p2",
            "tamper_rate": adversary.tamper_rate,
            "trap_count": args.traps,
            "exact_acceptance": exact,
            **rates,
        }
    payload["passed"] = ok
    _emit(payload)
    return EXIT_OK if ok else EXIT_REJECT


# ---------------------------------------------------------------------------
# blindness


def _add_blindness_parser(sub) -> None:
    p = sub.add_parser("blindness", help="run one of the leakage audits")
    p.add_argument("--audit", required=True, choices=("theta", "nosig", "tv", "probe"))
    p.add_argument("--samples", type=int, default=100, help="probe count (probe audit)")
    p.add_argument("--runs", type=int, default=200, help="runs per secret (sampled tv)")
    p.add_argument("--seed", type=int, default=404, help="seed (probe and sampled tv audits)")
    p.add_argument("--gadget", default="p2", help="gadget for the exact view audit (tv)")
    p.add_argument("--octant-a", type=int, default=1, help="first secret octant (view audit)")
    p.add_argument("--octant-b", type=int, default=5, help="second secret octant (view audit)")
    p.add_argument("--config-a", help="first run config JSON (sampled tv audit)")
    p.add_argument("--config-b", help="second run config JSON (sampled tv audit)")


def cmd_blindness(args) -> int:
    if args.audit == "theta":
        res = audit_theta_uniformity()
    elif args.audit == "nosig":
        res = audit_no_signaling()
    elif args.audit == "probe":
        res = audit_probe_gram(num_probes=args.samples, seed=args.seed)
    else:
        if (args.config_a is None) != (args.config_b is None):
            raise ValueError("the sampled tv audit needs both --config-a and --config-b")
        if args.config_a:
            # sampled permutation test on whole-run transcripts
            config_a = config_from_dict(_read_config(args.config_a))
            config_b = config_from_dict(_read_config(args.config_b))
            if config_a.protocol != config_b.protocol:
                raise ValueError("tv audit configs must share a protocol")
            res = audit_transcript_tv(config_a, config_b, runs=args.runs, seed=args.seed)
        else:
            # the exact server views of one client's rotation step
            res = audit_gadget_view_tv(args.gadget, args.octant_a, args.octant_b)
    _emit(
        {
            "audit": res.name,
            "passed": res.passed,
            "statistic": res.statistic,
            "threshold": res.threshold,
            "details": res.details,
        }
    )
    return EXIT_OK if res.passed else EXIT_REJECT


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="adbqc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"adbqc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_oracle_parser(sub)
    _add_attack_parser(sub)
    _add_blindness_parser(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": cmd_run,
        "oracle": cmd_oracle,
        "attack": cmd_attack,
        "blindness": cmd_blindness,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"adbqc: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
