"""What perfbench/tracing.py and perfbench/workloads.py read from the package.

The tracer wraps functions by name and reads fields of their results, and
the workloads check every output against their own answer keys, but both
sit outside the tier-1 test paths, so a rename or a changed type would
otherwise fail only the benchmark's smoke test.  The modules are loaded by
path and left as they are: no bytecode is written next to them.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from prvass import check, explorer
from prvass.explorer import Bounds, reachable_set
from prvass.models import MinskyConfig

from conftest import load_machine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_function_of_its_layer(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    assert tracing.WRAPPED
    for name in tracing.WRAPPED:
        layer, func = name.split(".")
        assert layer in tracing.LAYERS, name
        assert inspect.isfunction(getattr(importlib.import_module(f"prvass.{layer}"), func, None)), name


def test_closure_result_has_the_fields_the_tracer_reads(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    assert tracing.WRAPPED["explorer.reachable_set"] == "closure"
    reach = reachable_set(load_machine("inc-dec"), MinskyConfig("s", (0, 0)), Bounds())
    assert reach.complete is True
    assert (reach.stats.visited, reach.stats.frontier_peak) == (3, 1)
    tracer = tracing.Tracer()
    tracer._observe("closure", (), reach, nested=False)
    assert tracer.searches == [("closure", "exhausted_no_cover", 3, 1)]


@pytest.mark.parametrize("name", ["deep-cover", "sweep", "oracles"])
def test_workload_outputs_match_their_answer_keys(monkeypatch, name):
    workloads = _load(monkeypatch, "workloads")
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(3, "smoke")
    out = workload.run_pass(inputs, workloads.Clock())
    ledger = workloads.Ledger()
    workload.check(inputs, out, ledger, {})
    assert ledger.failed == 0, ledger.messages
    assert ledger.attempted > 0


def test_tracer_wraps_the_replay_that_explorer_re_exports(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    machine = load_machine("inc-dec")
    witness = explorer.minsky_bounded_reach(machine, Bounds()).trace
    assert witness.steps
    originals = (check.replay_trace, check.replay_failure_index)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert explorer.replay_trace(machine, witness) is True
    finally:
        tracer.uninstall()
    outer, inner = tracer.spans
    assert (outer[1], outer[4]) == ("explorer.replay_trace", None)
    assert (inner[1], inner[4]) == ("explorer.replay_failure_index", outer[0])
    # the nested call is in the replay group too, so its steps count once
    assert tracer.metrics()["explorer.replay_steps"] == len(witness.steps)
    assert check.replay_trace is originals[0] and check.replay_failure_index is originals[1]
