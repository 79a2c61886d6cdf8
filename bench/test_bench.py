"""Self-tests of the benchmark: tracing neutrality, golden records, smoke runs.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as W
from tracing import Tracer

import adbqc.protocols.driver
import adbqc.protocols.measure_client
import adbqc.protocols.sueki
import adbqc.runtime
from adbqc import protocols as P

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_tracing_counts_one_p2_run_exactly():
    config = P.ProtocolConfig("p2", 2, 1, trap_count=1, seed=3)
    plain = P.run_protocol2(config)
    tracer = Tracer()
    with tracer:
        shadow = P.run_protocol2(config)
    got = tracer.summary()
    assert shadow.report == plain.report
    assert shadow.transcript.to_jsonl() == plain.transcript.to_jsonl()
    assert {k: got[k] for k in (
        "protocols.run.calls", "gadgets.hrz.calls", "runtime.alloc.calls",
        "runtime.apply.calls", "runtime.measure.calls", "runtime.discard.calls",
        "transcript.events", "transcript.digest.calls", "gadgets.ancillas",
    )} == {
        "protocols.run.calls": 1, "gadgets.hrz.calls": 8, "runtime.alloc.calls": 10,
        "runtime.apply.calls": 16, "runtime.measure.calls": 10, "runtime.discard.calls": 8,
        "transcript.events": 63, "transcript.digest.calls": 1, "gadgets.ancillas": 8,
    }


def test_wrappers_reach_names_imported_by_callers():
    config = P.ProtocolConfig("sueki", 2, 1, seed=4, algorithm=(P.GateRequest.cz_pair(0, 1),))
    originals = (
        adbqc.protocols.driver.cz_on_runtime,
        adbqc.protocols.measure_client.h_cancel,
        adbqc.protocols.sueki.sueki_hrz_on_runtime,
        adbqc.runtime.QuantumRuntime.__dict__["apply"],
    )
    tracer = Tracer()
    with tracer:
        assert adbqc.protocols.driver.cz_on_runtime is not originals[0]
        assert adbqc.protocols.measure_client.h_cancel is not originals[1]
        P.run_sueki(config)
    got = tracer.summary()
    assert got["gadgets.cz.calls"] == 1
    assert got["gadgets.hrz.calls"] == 8
    assert got["gadgets.h_cancel.calls"] == 8 + 2  # one per sueki H R_Z, two per CZ
    assert (
        adbqc.protocols.driver.cz_on_runtime,
        adbqc.protocols.measure_client.h_cancel,
        adbqc.protocols.sueki.sueki_hrz_on_runtime,
        adbqc.runtime.QuantumRuntime.__dict__["apply"],
    ) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer:
        P.run_sueki(P.ProtocolConfig("sueki", 1, 1, seed=1))
    own = tracer.self_times()
    for rec, self_s in zip(tracer.spans, own):
        assert 0.0 <= self_s <= rec[2] - rec[1] + 1e-9
    root = tracer.spans[0]
    assert root[0] == "protocols.run" and root[3] == -1
    assert sum(own) == pytest.approx(root[2] - root[1], rel=1e-6)


def test_golden_check_catches_a_changed_digest(tmp_path, monkeypatch):
    workload = W.WORKLOADS["mc-narrow"]
    clean = W.Ledger()
    run.check_golden(W, workload, clean)
    assert clean.failures == [] and clean.attempted > 0

    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    report = golden["acceptance_9"][1]["report"]
    report["transcript_digest"] = "0" * 64
    broken = tmp_path / "golden.json"
    broken.write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setattr(run, "GOLDEN", broken)
    ledger = W.Ledger()
    run.check_golden(W, workload, ledger)
    assert len(ledger.failures) == 1 and "acceptance_9 record 1" in ledger.failures[0]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _fingerprint(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("fingerprint ")).split()[-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_and_traced_run_matches(workload):
    results = {}
    for trace in (0, 1):
        done = _bench("--workload", workload, "--seed", "5", "--smoke", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted
        }
        results[trace] = done.stdout
    assert _fingerprint(results[0]) == _fingerprint(results[1])


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "mc-narrow", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
