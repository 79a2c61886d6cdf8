"""Span tracer wrapped around the public entry points of each adbqc layer.

The wrappers live in the benchmark, not in the package. ``Tracer.install``
replaces every traced entry point at each name a caller looks it up by:
the attribute in every loaded ``adbqc.*`` module that holds the original
function (``driver`` imports ``cz_on_runtime`` by name, ``measure_client``
imports ``h_cancel``, ``sueki`` imports ``sueki_hrz_on_runtime``), and the
methods of ``QuantumRuntime`` and ``Transcript``. ``uninstall`` restores
the originals.

Each wrapped call records one span: name, start, end, parent span and the
benchmark operation it belongs to. Spans stay in memory until ``summary``
turns them into per-layer metrics; a span's self time is its duration minus
the durations of its child spans. The wrappers draw no random numbers and
record no transcript events, so a traced run produces the same outputs as an
untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter

import adbqc.blindness
import adbqc.gadgets
import adbqc.oracle
import adbqc.protocols
import adbqc.qsim
import adbqc.rng
import adbqc.runtime
import adbqc.transcript

# (home module, function name, span name)
FUNCTION_SPANS = (
    (adbqc.qsim, "apply_gate", "qsim.apply_gate"),
    (adbqc.rng, "stream", "rng.stream"),
    (adbqc.gadgets, "sueki_hrz_on_runtime", "gadgets.hrz"),
    (adbqc.protocols, "p1_hrz_on_runtime", "gadgets.hrz"),
    (adbqc.protocols, "p2_hrz_on_runtime", "gadgets.hrz"),
    (adbqc.gadgets, "cz_on_runtime", "gadgets.cz"),
    (adbqc.gadgets, "h_cancel", "gadgets.h_cancel"),
    (adbqc.protocols, "run_sueki", "protocols.run"),
    (adbqc.protocols, "run_protocol1", "protocols.run"),
    (adbqc.protocols, "run_protocol2", "protocols.run"),
    (adbqc.oracle, "soundness_sweep", "oracle.sweep"),
    (adbqc.blindness, "audit_no_signaling", "blindness.no_signaling"),
    (adbqc.blindness, "audit_gadget_view_tv", "blindness.gadget_view_tv"),
    (adbqc.blindness, "audit_theta_uniformity", "blindness.theta"),
    (adbqc.blindness, "audit_probe_gram", "blindness.probe_gram"),
)

RUNTIME_SPANS = (
    ("add_qubit", "runtime.alloc"),
    ("load", "runtime.alloc"),
    ("apply", "runtime.apply"),
    ("measure", "runtime.measure"),
    ("discard", "runtime.discard"),
)

TRANSCRIPT_SPANS = (
    ("msg", "transcript.record"),
    ("transfer", "transcript.record"),
    ("local", "transcript.record"),
    ("outcome", "transcript.record"),
    ("digest", "transcript.digest"),
)

GADGET_SPANS = frozenset({"gadgets.hrz", "gadgets.cz", "gadgets.h_cancel"})
AUDIT_SPANS = frozenset(
    {"oracle.sweep", "blindness.no_signaling", "blindness.gadget_view_tv",
     "blindness.theta", "blindness.probe_gram"}
)
WIDTH_BUCKETS = (("w1_8", 1, 8), ("w9_12", 9, 12), ("w13_16", 13, 16))

# span name -> metric prefix whose .calls and .self_s are reported
CALL_METRICS = (
    "runtime.alloc", "runtime.apply", "runtime.measure", "runtime.discard",
    "qsim.apply_gate", "gadgets.hrz", "gadgets.cz", "gadgets.h_cancel",
    "protocols.run", "rng.stream", "transcript.digest",
)
# span name -> metric reporting its total (inclusive) seconds
TOTAL_METRICS = (
    ("oracle.sweep", "oracle.sweep.s"),
    ("blindness.no_signaling", "blindness.no_signaling.s"),
    ("blindness.gadget_view_tv", "blindness.gadget_view_tv.s"),
    ("blindness.theta", "blindness.theta.s"),
    ("blindness.probe_gram", "blindness.probe_gram.s"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric ``summary`` reports, with its unit."""
    units: dict[str, str] = {}
    for prefix in CALL_METRICS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    units["runtime.amps_touched"] = "count"
    units["runtime.peak_width"] = "qubits"
    for bucket, _, _ in WIDTH_BUCKETS:
        units[f"runtime.op_us.{bucket}"] = "us"
    units["gadgets.ancillas"] = "count"
    units["transcript.events"] = "count"
    units["transcript.record.self_s"] = "s"
    for name in ("replays", "paths", "steps", "nodes"):
        units[f"enumerate.{name}"] = "count"
    units["enumerate.self_s"] = "s"
    units["enumerate.useful_ratio"] = "ratio"
    for _, metric in TOTAL_METRICS:
        units[metric] = "s"
    units["audit.branches"] = "count"
    return units


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, operation, width]
        self.operation = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._gadget_depth = 0
        self._audit_depth = 0
        self.counts = {
            "ancillas": 0, "events": 0, "replays": 0, "paths": 0,
            "steps": 0, "nodes": 0, "audit_branches": 0,
        }

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.operation, 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation_span(self, name: str, operation: int):
        """Root span of one benchmark operation; nested spans share its id."""
        self.operation = operation
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap_function(self, fn, name: str):
        tracer = self
        gadget = name in GADGET_SPANS
        audit = name in AUDIT_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            tracer._gadget_depth += gadget
            tracer._audit_depth += audit
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._gadget_depth -= gadget
                tracer._audit_depth -= audit
                tracer._close(rec)

        return wrapper

    def _wrap_runtime(self, fn, name: str):
        tracer = self
        alloc = name == "runtime.alloc"

        @functools.wraps(fn)
        def wrapper(rt, *args, **kwargs):
            before = rt.num_qubits
            rec = tracer._open(name)
            try:
                return fn(rt, *args, **kwargs)
            finally:
                tracer._close(rec)
                after = rt.num_qubits
                rec[5] = max(before, after)
                if alloc and tracer._gadget_depth:
                    tracer.counts["ancillas"] += after - before

        return wrapper

    def _wrap_transcript(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(tape, *args, **kwargs):
            before = len(tape.events)
            rec = tracer._open(name)
            try:
                return fn(tape, *args, **kwargs)
            finally:
                tracer._close(rec)
                tracer.counts["events"] += len(tape.events) - before

        return wrapper

    def _wrap_enumerate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(run_fn, *args, **kwargs):
            root: dict = {}

            def counted(source):
                value = run_fn(source)
                counts = tracer.counts
                counts["replays"] += 1
                counts["steps"] += len(source.trace)
                node = root
                for bit, _ in source.trace:
                    child = node.get(bit)
                    if child is None:
                        child = node[bit] = {}
                        counts["nodes"] += 1
                    node = child
                return value

            rec = tracer._open("enumerate")
            try:
                branches = fn(counted, *args, **kwargs)
            finally:
                tracer._close(rec)
            tracer.counts["paths"] += len(branches)
            if tracer._audit_depth:
                tracer.counts["audit_branches"] += len(branches)
            return branches

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        name = original.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "adbqc":
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)
                self._undo.append((mod, name, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for home, attr, span in FUNCTION_SPANS:
            original = getattr(home, attr)
            self._replace_everywhere(original, self._wrap_function(original, span))
        original = adbqc.runtime.enumerate_runs
        self._replace_everywhere(original, self._wrap_enumerate(original))
        for cls, table, wrap in (
            (adbqc.runtime.QuantumRuntime, RUNTIME_SPANS, self._wrap_runtime),
            (adbqc.transcript.Transcript, TRANSCRIPT_SPANS, self._wrap_transcript),
        ):
            for attr, span in table:
                original = cls.__dict__[attr]
                setattr(cls, attr, wrap(original, span))
                self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - child[i] for i, rec in enumerate(spans)]

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over everything recorded so far."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        amps = 0
        peak = 0
        bucket_time = {b: 0.0 for b, _, _ in WIDTH_BUCKETS}
        bucket_ops = {b: 0 for b, _, _ in WIDTH_BUCKETS}
        for rec, own in zip(self.spans, self.self_times()):
            name = rec[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + rec[2] - rec[1]
            width = rec[5]
            if width:
                amps += 1 << width
                peak = max(peak, width)
                for bucket, lo, hi in WIDTH_BUCKETS:
                    if lo <= width <= hi:
                        bucket_time[bucket] += own
                        bucket_ops[bucket] += 1
        out: dict[str, float] = {}
        for prefix in CALL_METRICS:
            out[f"{prefix}.calls"] = calls.get(prefix, 0)
            out[f"{prefix}.self_s"] = self_s.get(prefix, 0.0)
        out["runtime.amps_touched"] = amps
        out["runtime.peak_width"] = peak
        for bucket, _, _ in WIDTH_BUCKETS:
            ops = bucket_ops[bucket]
            out[f"runtime.op_us.{bucket}"] = bucket_time[bucket] / ops * 1e6 if ops else 0.0
        c = self.counts
        out["gadgets.ancillas"] = c["ancillas"]
        out["transcript.events"] = c["events"]
        out["transcript.record.self_s"] = self_s.get("transcript.record", 0.0)
        for name in ("replays", "paths", "steps", "nodes"):
            out[f"enumerate.{name}"] = c[name]
        out["enumerate.self_s"] = self_s.get("enumerate", 0.0)
        out["enumerate.useful_ratio"] = c["nodes"] / c["steps"] if c["steps"] else 0.0
        for span, metric in TOTAL_METRICS:
            out[metric] = total_s.get(span, 0.0)
        out["audit.branches"] = c["audit_branches"]
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                name, start, end, parent, operation, width = rec
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "operation": operation,
                    **({"width": width} if width else {}),
                }) + "\n")
