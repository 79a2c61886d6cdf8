"""adbqc benchmark: one command for every workload, end to end or traced.

    python3 bench/run.py --workload mc-narrow --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout holding ``src/adbqc``). With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
prints the per-layer metrics of a traced run. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when any output check, golden
record or audit fails, and 2 when the sources cannot be found. See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 5
CALIBRATE_EVERY_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "runs_per_cal": "1/cal",
    "run_cal_p50": "cal",
    "run_cal_p90": "cal",
    "exact_cal": "cal",
    "audit_cal": "cal",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("mc-narrow", "mc-wide", "exact"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal run: one setup probe and only the fixed leading rounds")
    ap.add_argument("--spans-out", type=Path,
                    help="with --trace 1, write the last traced pass's spans here as JSON lines")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-golden", action="store_true",
                    help="regenerate golden.json from the current sources and exit")
    args = ap.parse_args(argv)
    if args.workload is None and not args.write_golden:
        ap.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# Machine record


def blas_threads():
    """Thread count OpenBLAS is configured with in this process."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (HERE.parent / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# Golden records


def golden_payload(W) -> dict:
    out = {"seed": W.GOLDEN_SEED, "acceptance_9": W.acceptance_9_records()}
    for name, workload in W.WORKLOADS.items():
        records = W.run_fixed(workload, W.GOLDEN_SEED).records
        out[name] = {"fingerprint": W.fingerprint(records), "records": records}
    return out


def check_golden(W, workload, ledger) -> None:
    """Compare the acceptance-9 runs and the workload's leading rounds at
    the golden seed with the stored records, one check per record."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    fixed = W.run_fixed(workload, golden["seed"])
    ledger.attempted += fixed.attempted
    ledger.failures += fixed.failures
    pairs = [("acceptance_9", golden["acceptance_9"], W.acceptance_9_records()),
             (workload.name, golden[workload.name]["records"], fixed.records)]
    for label, want, got in pairs:
        ledger.check(len(want) == len(got), f"golden {label}: {len(got)} records, want {len(want)}")
        for i, (w, g) in enumerate(zip(want, got)):
            ledger.check(w == g, f"golden {label} record {i} differs:\n  want {w}\n  got  {g}")


# ---------------------------------------------------------------------------
# Measurement


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Wall time of fresh processes that import adbqc and make the first
    call of each entry point the workload uses."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, timeout=170,
        )
        times.append(perf_counter() - t0)
    return times


def p90(samples: list[float]) -> float:
    # inclusive: with the few samples of the exact workload, the exclusive
    # method extrapolates beyond the largest sample
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def measure(W, workload, seed: int, seconds: float, count: int, min_passes: int, ledger):
    """Repeat one pass over the seed's first ``count`` rounds for about
    ``seconds`` and at least ``min_passes`` times; report each timing in
    calibration units.

    The machine's speed drifts by up to 50% over tens of seconds, so every
    timing is divided by calibration loops run around it (see
    ``workloads.Calls``). Each operation then takes its median over the
    passes, and the metrics are taken over operations. Where runs are short,
    a pass holds enough of them that at least ten lie beyond the 90th
    percentile.
    """
    specs = W.leading_rounds(workload, seed, count)
    passes = []
    units = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        part = W.Ledger()
        calls = W.Calls(calibration=W.calibrate, every=CALIBRATE_EVERY_S)
        for i, spec in enumerate(specs):
            part.keep_records = not passes and i < workload.fixed_rounds
            workload.run(spec, part, calls)
        if not passes:
            fp = W.fingerprint(part.records)
        ledger.attempted += part.attempted
        ledger.failures += part.failures
        passes.append(part)
        units += calls.units
    wall = perf_counter() - start

    def per_operation(name):
        columns = [getattr(p, name) for p in passes]
        if len({len(c) for c in columns}) != 1:
            ledger.check(False, f"passes timed different numbers of {name} operations")
        return [statistics.median(times) for times in zip(*columns)]

    runs = per_operation("run_cal")
    raw = per_operation("run_s")
    tail = p90(runs)
    values = {
        "runs_per_cal": len(runs) / sum(runs),
        "run_cal_p50": statistics.median(runs),
        "run_cal_p90": tail,
        "exact_cal": statistics.median(per_operation("exact_cal")),
        "audit_cal": statistics.median(per_operation("audit_cal")),
    }
    notes = [
        f"measured {len(passes)} passes over {len(specs)} rounds ({len(runs)} runs) "
        f"in {wall:.2f} s; each operation keeps its median over passes",
        f"calibration: {len(units)} loops, median {statistics.median(units) * 1e3:.3f} ms, "
        f"range {min(units) * 1e3:.3f}-{max(units) * 1e3:.3f} ms",
        f"run_cal_p90 over {len(runs)} runs, {sum(r > tail for r in runs)} beyond it",
        f"uncalibrated: runs_per_s {len(raw) / sum(raw):.4f}, "
        f"run_ms_p50 {statistics.median(raw) * 1e3:.4f}, run_ms_p90 {p90(raw) * 1e3:.4f}",
    ]
    return values, fp, notes


def traced(W, workload, seed: int, seconds: float, ledger, spans_out):
    """Alternate untraced and traced passes over the fixed leading rounds.

    Counts come from one traced pass and must repeat exactly in every pass;
    times are medians over the traced passes. Every pass must reproduce the
    untraced fingerprint: tracing may not change a result.
    """
    from tracing import Tracer, metric_units

    units = metric_units()
    plain_walls, traced_walls, summaries = [], [], []
    reference = None
    tracer = None
    start = perf_counter()
    while not summaries or perf_counter() - start < seconds:
        t0 = perf_counter()
        plain = W.run_fixed(workload, seed)
        plain_walls.append(perf_counter() - t0)
        tracer = Tracer()
        t0 = perf_counter()
        with tracer:
            shadow = W.run_fixed(workload, seed, tracer)
        traced_walls.append(perf_counter() - t0)
        summaries.append(tracer.summary())
        for part in (plain, shadow):
            ledger.attempted += part.attempted
            ledger.failures += part.failures
        if reference is None:
            reference = W.fingerprint(plain.records)
        for label, part in (("untraced", plain), ("traced", shadow)):
            ledger.check(W.fingerprint(part.records) == reference,
                         f"{label} pass changed the fingerprint")
    values = {}
    for name, unit in units.items():
        series = [s[name] for s in summaries]
        if unit in ("count", "qubits", "ratio"):
            ledger.check(len(set(series)) == 1, f"{name} differs between traced passes: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    if spans_out is not None:
        tracer.write_spans(spans_out)
    notes = [
        f"{len(summaries)} traced and {len(summaries)} untraced passes over "
        f"{workload.fixed_rounds} rounds",
        f"tracing overhead: traced pass {statistics.median(traced_walls):.4f} s "
        f"/ untraced pass {statistics.median(plain_walls):.4f} s = {overhead:.3f}",
    ]
    return values, units, reference, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads as W
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.write_golden:
        GOLDEN.write_text(json.dumps(golden_payload(W), indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {GOLDEN}")
        return 0
    workload = W.WORKLOADS[args.workload]
    first = W.leading_rounds(workload, args.seed)[0]
    if args.setup_probe:
        workload.warm(first)
        return 0

    seconds = 0.0 if args.smoke else args.seconds
    probes = 1 if args.smoke else SETUP_PROBES
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {seconds}")
    print("machine " + json.dumps(machine_record(), sort_keys=True))

    ledger = W.Ledger()
    metrics: dict[str, dict] = {}
    if args.trace:
        check_golden(W, workload, ledger)
        values, units, fp, notes = traced(W, workload, args.seed, seconds, ledger, args.spans_out)
    else:
        setup = setup_seconds(args.workload, args.seed, probes)
        workload.warm(first)
        check_golden(W, workload, ledger)
        count, min_passes = ((workload.fixed_rounds, 1) if args.smoke
                             else (workload.measured_rounds, 2))
        values, fp, notes = measure(W, workload, args.seed, seconds, count, min_passes, ledger)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        notes.append(f"setup_s is the median of {len(setup)} fresh processes: "
                     + ", ".join(f"{s:.4f}" for s in setup))
        units = END_TO_END_UNITS
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} {values[name]} {unit}")
    for note in notes:
        print(note)
    print(f"fingerprint {args.workload} seed {args.seed} {fp}")
    failed = len(ledger.failures)
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"failed_ratio {failed}/{ledger.attempted} = {failed / max(ledger.attempted, 1)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
