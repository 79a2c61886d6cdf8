"""Seed-driven workloads of the adbqc benchmark.

A workload is an endless sequence of rounds drawn from the workload seed:
the seed fixes every config, algorithm and run seed, so the same seed always
yields the same calls. A round calls the public API of ``adbqc`` from one
process, one call at a time (a closed loop with a single caller), and checks
every output it gets back:

- ``mc-narrow``: one sampled honest run each of sueki N=2 d=2, p1 N=3 d=1
  and p2 N=4 d=2 (2 traps). The joint state stays at 6 qubits or fewer, so
  per-operation Python and numpy overhead dominates.
- ``mc-wide``: one sampled honest run each of sueki N=12, p1 N=12 and p2
  N=13 (6 traps), depth 1 on even rounds and 2 on odd ones. Ancillas push
  the joint state to 14 qubits, so the amplitude kernels dominate.
- ``exact``: ``enumerated_distribution`` for sueki N=1 and p2 N=2 (1 trap),
  each checked against ``reference_distribution``, then the exact audits.

Every sampled run must be accepted with clean traps, its decoded bits must
lie in the support of the exact reference distribution, and its transcript
must pass the capability-confinement audit.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "adbqc" / "__init__.py").is_file():
    raise ImportError(f"the adbqc sources are missing: no {SRC / 'adbqc'}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from adbqc import blindness, oracle  # noqa: E402
from adbqc import protocols as P  # noqa: E402

RUNNERS = {"sueki": "run_sueki", "p1": "run_protocol1", "p2": "run_protocol2"}

# decoded bits of an honest run must have at least this reference probability
SUPPORT_FLOOR = 1e-12
# enumerated and reference distributions must agree to this total variation
TV_ATOL = 1e-9
# exact probabilities enter fingerprints rounded to this many decimals, so a
# change that only reorders floating-point sums keeps the fingerprint
DIST_DECIMALS = 10
AUDIT_DECIMALS = 9

# A sueki or p2 pattern whose R_X octant is 0 or 4 makes one gadget outcome
# deterministic and halves the outcome tree (256 instead of 512 paths). The
# exact workload draws R_X octants from the other six so that every seed
# enumerates trees of the same size and seeds stay comparable.
FULL_TREE_GAMMAS = (1, 2, 3, 5, 6, 7)

GOLDEN_SEED = 0

# The three acceptance-9 determinism configs, pinned by the golden file.
ACCEPTANCE_9 = (
    dict(protocol="sueki", num_qubits=1, depth=1, seed=21,
         algorithm=(P.GateRequest.single(0, name="t"),)),
    dict(protocol="p1", num_qubits=3, depth=1, seed=22),
    dict(protocol="p2", num_qubits=3, depth=1, trap_count=1, seed=23),
)


@dataclass
class Ledger:
    """What a pass over some rounds did: outputs, checks and timings."""

    records: list = field(default_factory=list)
    keep_records: bool = True
    attempted: int = 0
    failures: list = field(default_factory=list)
    run_s: list = field(default_factory=list)  # seconds per main call
    # in calibration units (seconds when the pass is not calibrated)
    run_cal: list = field(default_factory=list)  # one per main call
    exact_cal: list = field(default_factory=list)  # one per round
    audit_cal: list = field(default_factory=list)  # one per round

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def error(self, label: str) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: {traceback.format_exc()}")

    def record(self, item: dict) -> None:
        if self.keep_records:
            self.records.append(item)


@dataclass
class Timing:
    seconds: float = 0.0  # wall time of the operation
    cal: float = 0.0  # the same in calibration units (seconds without one)


class Calls:
    """Times the operations of a pass.

    Numbers each operation and, given a tracer, opens its root span. Given
    a calibration, it reruns it before an operation once ``every`` seconds
    have passed since the last run, and again after any operation that took
    that long; an operation's time is converted with the median of the last
    three calibrations before it, averaged with the one right after it.
    """

    def __init__(self, tracer=None, calibration=None, every: float = 0.1) -> None:
        self.tracer = tracer
        self.count = 0
        self.calibration = calibration
        self.every = every
        self.unit = 1.0
        self.units: list[float] = []
        self._calibrated_at = float("-inf")

    def _recalibrate(self) -> None:
        self.units.append(self.calibration())
        self.unit = statistics.median(self.units[-3:])
        self._calibrated_at = perf_counter()

    @contextlib.contextmanager
    def timed(self, name: str):
        self.count += 1
        calibrated = self.calibration is not None
        if calibrated and perf_counter() - self._calibrated_at >= self.every:
            self._recalibrate()
        timing = Timing()
        span = (contextlib.nullcontext() if self.tracer is None
                else self.tracer.operation_span(name, self.count))
        with span:
            t0 = perf_counter()
            try:
                yield timing
            finally:
                timing.seconds = perf_counter() - t0
        unit = self.unit
        if calibrated and timing.seconds >= self.every:
            self._recalibrate()
            unit = (unit + self.units[-1]) / 2
        timing.cal = timing.seconds / unit


class _Event:
    __slots__ = ("seq", "kind", "payload")

    def __init__(self, seq: int, kind: str, payload: dict) -> None:
        self.seq = seq
        self.kind = kind
        self.payload = payload


def calibrate(steps: int = 20) -> float:
    """Seconds for a fixed mix of interpreter work (objects, dicts, JSON,
    hashing) and small numpy calls that never touches adbqc."""
    a = np.array([1, 0], dtype=complex)
    t0 = perf_counter()
    for _ in range(steps):
        events = [_Event(j, "msg", {"qubit": f"q{j}", "bit": j & 1}) for j in range(30)]
        blob = "\n".join(
            json.dumps({"seq": e.seq, "kind": e.kind, "payload": e.payload}, sort_keys=True)
            for e in events
        )
        hashlib.sha256(blob.encode("utf-8")).hexdigest()
        b = np.kron(a, a).reshape(2, 2)
        m = np.tensordot(b, b, axes=([1], [0]))
        np.moveaxis(m, 0, 1).reshape(-1) / np.linalg.norm(m)
    return perf_counter() - t0


def fingerprint(records: list) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _octants(rng: np.random.Generator) -> tuple[int, int, int]:
    return tuple(int(k) for k in rng.integers(8, size=3))


def random_algorithm(rng: np.random.Generator, width: int, depth: int) -> tuple:
    """Up to one pattern per qubit and one CZ per layer, trimmed to fit."""
    requests = []
    for _ in range(depth):
        for q in range(width):
            if rng.random() < 0.5:
                requests.append(P.GateRequest.single(q, octants=_octants(rng)))
        if width >= 2 and rng.random() < 0.5:
            i, j = (int(v) for v in rng.choice(width, size=2, replace=False))
            requests.append(P.GateRequest.cz_pair(i, j))
    while requests:
        try:
            P.schedule(tuple(requests), width, depth)
            break
        except ValueError:
            requests.pop()
    return tuple(requests)


def random_config(rng, protocol, num_qubits, depth, trap_count=None):
    width = num_qubits - (trap_count or 0)
    if protocol == "p1":
        width = num_qubits // 3
    return P.ProtocolConfig(
        protocol, num_qubits, depth, trap_count=trap_count,
        seed=int(rng.integers(2**31)),
        algorithm=random_algorithm(rng, width, depth),
        output_bases=tuple(str(b) for b in rng.choice(["z", "x"], size=width)),
    )


# ---------------------------------------------------------------------------
# Sampled runs (mc-narrow, mc-wide)


def run_sampled(configs, ledger: Ledger, calls: Calls) -> None:
    """One sampled run per config, each checked three ways."""
    exact = audit = 0.0
    for config in configs:
        runner = getattr(P, RUNNERS[config.protocol])
        label = f"{config.protocol} N={config.num_qubits} seed={config.seed}"
        try:
            with calls.timed("bench.run") as timing:
                result = runner(config)
            ledger.run_s.append(timing.seconds)
            ledger.run_cal.append(timing.cal)
            report = result.report
            ledger.check(report.accepted and report.trap_errors == 0,
                         f"{label}: honest run rejected")
            with calls.timed("bench.exact") as timing:
                reference = P.reference_distribution(config)
            exact += timing.cal
            ledger.check(reference.get(report.computation_bits, 0.0) > SUPPORT_FLOOR,
                         f"{label}: output {report.computation_bits} outside the reference support")
            with calls.timed("bench.audit") as timing:
                verdict = blindness.confirm_capability(result.transcript, config.capability.kind)
            audit += timing.cal
            ledger.check(verdict.passed, f"{label}: capability audit failed {verdict.details}")
            ledger.record({"config": P.config_to_dict(config), "report": report.as_dict()})
        except Exception:
            ledger.error(label)
    ledger.exact_cal.append(exact)
    ledger.audit_cal.append(audit)


def narrow_rounds(seed: int):
    rng = np.random.default_rng([seed, 1])
    while True:
        yield (
            random_config(rng, "sueki", 2, 2),
            random_config(rng, "p1", 3, 1),
            random_config(rng, "p2", 4, 2, trap_count=2),
        )


def wide_rounds(seed: int):
    rng = np.random.default_rng([seed, 2])
    index = 0
    while True:
        depth = 1 + index % 2
        yield (
            random_config(rng, "sueki", 12, depth),
            random_config(rng, "p1", 12, depth),
            random_config(rng, "p2", 13, depth, trap_count=6),
        )
        index += 1


def warm_sampled(configs) -> None:
    run_sampled(configs, Ledger(), Calls())


# ---------------------------------------------------------------------------
# Exact distributions and audits (exact)


@dataclass(frozen=True)
class ExactRound:
    configs: tuple  # enumerated and checked against the reference
    sueki_view_octants: tuple[int, int]
    p2_view_octants: tuple[int, int]


def exact_rounds(seed: int):
    rng = np.random.default_rng([seed, 3])

    def request():
        beta, delta = (int(k) for k in rng.integers(8, size=2))
        gamma = int(rng.choice(FULL_TREE_GAMMAS))
        return (P.GateRequest.single(0, octants=(beta, gamma, delta)),)

    while True:
        sueki = P.ProtocolConfig("sueki", 1, 1, seed=int(rng.integers(2**31)),
                                 algorithm=request())
        p2 = P.ProtocolConfig("p2", 2, 1, trap_count=1, seed=int(rng.integers(2**31)),
                              algorithm=request())
        yield ExactRound(
            (sueki, p2),
            tuple(int(k) for k in rng.integers(8, size=2)),
            tuple(int(k) for k in rng.integers(8, size=2)),
        )


def _sweep_verdict(result) -> tuple[bool, float]:
    worst, inputs = result
    return worst >= 1.0 - oracle.GADGET_FIDELITY_ATOL and inputs == 100, worst


def _audit_verdict(result) -> tuple[bool, float]:
    return result.passed, result.statistic


def audits(spec: ExactRound):
    """(name, call, verdict) for every audit of one exact round."""
    return (
        ("soundness_sweep", lambda: oracle.soundness_sweep(4), _sweep_verdict),
        ("no_signaling", lambda: blindness.audit_no_signaling(), _audit_verdict),
        ("gadget_view_tv:hrz-sueki",
         lambda: blindness.audit_gadget_view_tv("hrz-sueki", *spec.sueki_view_octants),
         _audit_verdict),
        ("gadget_view_tv:p2",
         lambda: blindness.audit_gadget_view_tv("p2", *spec.p2_view_octants),
         _audit_verdict),
        ("theta_uniformity", lambda: blindness.audit_theta_uniformity(), _audit_verdict),
        ("probe_gram", lambda: blindness.audit_probe_gram(), _audit_verdict),
    )


def run_exact(spec: ExactRound, ledger: Ledger, calls: Calls) -> None:
    exact = audit = 0.0
    for config in spec.configs:
        runner = getattr(P, RUNNERS[config.protocol])
        label = f"enumerate {config.protocol} N={config.num_qubits} seed={config.seed}"
        try:
            with calls.timed("bench.enumerate") as timing:
                dist = P.enumerated_distribution(runner, config)
                tv = P.total_variation(dist, P.reference_distribution(config))
            ledger.run_s.append(timing.seconds)
            ledger.run_cal.append(timing.cal)
            exact += timing.cal
            ledger.check(tv <= TV_ATOL, f"{label}: TV {tv} against the reference")
            ledger.record({
                "config": P.config_to_dict(config),
                "distribution": sorted(
                    [list(bits), round(p, DIST_DECIMALS)] for bits, p in dist.items()
                ),
            })
        except Exception:
            ledger.error(label)
    for name, call, verdict in audits(spec):
        try:
            with calls.timed("bench.audit") as timing:
                result = call()
            audit += timing.cal
            passed, statistic = verdict(result)
            ledger.check(passed, f"audit {name} failed: statistic {statistic}")
            ledger.record({"audit": name, "passed": bool(passed),
                           "statistic": round(float(statistic), AUDIT_DECIMALS)})
        except Exception:
            ledger.error(f"audit {name}")
    ledger.exact_cal.append(exact)
    ledger.audit_cal.append(audit)


def warm_exact(spec: ExactRound) -> None:
    """First call of each entry point the exact workload uses, on the
    cheapest input each one accepts."""
    for config in spec.configs:
        P.total_variation(P.reference_distribution(config), {})
        getattr(P, RUNNERS[config.protocol])(config)
    oracle.soundness_sweep(1)
    blindness.audit_no_signaling(octants=(0, 1), steps=(1,))
    blindness.audit_gadget_view_tv("hrz-sueki", *spec.sueki_view_octants)
    blindness.audit_gadget_view_tv("p2", *spec.p2_view_octants)
    blindness.audit_theta_uniformity()
    blindness.audit_probe_gram(num_probes=1)


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: object  # seed -> iterator of round specs
    run: object  # (spec, ledger, calls) -> None
    warm: object  # spec -> None
    # leading rounds fingerprinted, pinned by the golden file, and replayed
    # by each pass of a traced run
    fixed_rounds: int
    # rounds in one timed pass: at least 100 main calls where they are
    # short, so that ten of them lie beyond the 90th percentile
    measured_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-narrow", narrow_rounds, run_sampled, warm_sampled, 8, 100),
        Workload("mc-wide", wide_rounds, run_sampled, warm_sampled, 2, 34),
        Workload("exact", exact_rounds, run_exact, warm_exact, 1, 1),
    )
}


def leading_rounds(workload: Workload, seed: int, count: int | None = None) -> list:
    rounds = workload.rounds(seed)
    return [next(rounds) for _ in range(count or workload.fixed_rounds)]


def run_fixed(workload: Workload, seed: int, tracer=None) -> Ledger:
    """Run the workload's leading rounds once and return what they did."""
    ledger = Ledger()
    calls = Calls(tracer)
    for spec in leading_rounds(workload, seed):
        workload.run(spec, ledger, calls)
    return ledger


def acceptance_9_records() -> list:
    out = []
    for kwargs in ACCEPTANCE_9:
        config = P.ProtocolConfig(**kwargs)
        report = getattr(P, RUNNERS[config.protocol])(config).report
        out.append({"config": P.config_to_dict(config), "report": report.as_dict()})
    return out
