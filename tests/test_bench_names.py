"""The names the benchmark looks up in the package still resolve.

``bench/tracing.py`` wraps entry points it finds by module attribute, and
``bench/workloads.py`` runs each protocol through the runner it names in
``RUNNERS``. A refactor that drops or renames one of them fails here, in the
tier-1 suite, and not only when the benchmark runs traced.
"""

import importlib
from pathlib import Path

import pytest

import adbqc.protocols.driver
import adbqc.protocols.gate_client
import adbqc.protocols.measure_client
import adbqc.protocols.sueki
from adbqc import protocols

BENCH = Path(__file__).resolve().parent.parent / "bench"

# names that callers import by name and the tracer must reach there
CALLER_NAMES = (
    (adbqc.protocols.driver, "cz_on_runtime"),
    (adbqc.protocols.measure_client, "h_cancel"),
    (adbqc.protocols.sueki, "sueki_hrz_on_runtime"),
    (adbqc.protocols.measure_client, "p1_hrz_on_runtime"),
    (adbqc.protocols.gate_client, "p2_hrz_on_runtime"),
)


@pytest.fixture
def bench_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_every_runner_the_bench_names_resolves(bench_module):
    runners = bench_module("workloads").RUNNERS
    assert set(runners) == set(protocols.PROTOCOLS)
    for name in runners.values():
        assert callable(getattr(protocols, name))


def test_the_bench_tracer_enters_and_leaves(bench_module):
    tracer = bench_module("tracing").Tracer()
    originals = [getattr(module, name) for module, name in CALLER_NAMES]
    with tracer:
        assert all(
            getattr(module, name) is not original
            for (module, name), original in zip(CALLER_NAMES, originals)
        )
    assert [getattr(module, name) for module, name in CALLER_NAMES] == originals


def test_the_bench_tracer_counts_every_p1_hrz(bench_module):
    """Each H R_Z step of a p1 run is one traced ``gadgets.hrz`` call: the
    client adapter calls its gadget by the module-global name the tracer
    replaces."""
    config = protocols.ProtocolConfig("p1", 3, 1, seed=2)
    steps = adbqc.protocols.driver.draw_plan(config).steps
    tracer = bench_module("tracing").Tracer()
    with tracer:
        protocols.run_protocol1(config)
    assert tracer.summary()["gadgets.hrz.calls"] == sum(step.kind == "hrz" for step in steps)


def test_the_exact_walk_drives_no_hrz_step_once_the_rows_are_compiled(bench_module):
    """Once each step's gadget rows are compiled, ``enumerated_distribution``
    drives no H R_Z step: the walk applies each step's greedy row, and no
    runner is called. A slide back to driving each step in the walk, to
    replaying a whole run beside it, to forking each step into its outcome
    branches, or to one replay per path, shows in the traced calls."""
    config = protocols.ProtocolConfig(
        "p2", 2, 1, trap_count=1,
        algorithm=(protocols.GateRequest.single(0, octants=(1, 3, 5)),),
    )
    protocols.enumerated_distribution(protocols.run_protocol2, config)  # compiles the rows
    tracer = bench_module("tracing").Tracer()
    with tracer:
        protocols.enumerated_distribution(protocols.run_protocol2, config)
    summary = tracer.summary()
    assert summary["gadgets.hrz.calls"] == 0
    assert summary["protocols.run.calls"] == 0
