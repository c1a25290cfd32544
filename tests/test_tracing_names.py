"""The names and result fields that perfbench/tracing.py reads from the package.

The tracer wraps functions by name and reads fields of their results, but
it sits outside the tier-1 test paths, so a rename would otherwise fail
only the benchmark's smoke test.  The module is loaded by path and left as
it is: no bytecode is written next to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from prvass.explorer import Bounds, reachable_set
from prvass.models import MinskyConfig

from conftest import load_machine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_function_of_its_layer(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.WRAPPED
    for name in tracing.WRAPPED:
        layer, func = name.split(".")
        assert layer in tracing.LAYERS, name
        assert inspect.isfunction(getattr(importlib.import_module(f"prvass.{layer}"), func, None)), name


def test_closure_result_has_the_fields_the_tracer_reads(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.WRAPPED["explorer.reachable_set"] == "closure"
    reach = reachable_set(load_machine("inc-dec"), MinskyConfig("s", (0, 0)), Bounds())
    assert reach.complete is True
    assert (reach.stats.visited, reach.stats.frontier_peak) == (3, 1)
    tracer = tracing.Tracer()
    tracer._observe("closure", (), reach, nested=False)
    assert tracer.searches == [("closure", "exhausted_no_cover", 3, 1)]
