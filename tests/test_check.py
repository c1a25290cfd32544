"""The trusted checker: replay of a search's witnesses, and the fence around its imports.

check.py is worth something only if it shares no code with the search or
the compiler, so a fence follows the prvass imports of check.py and of
formats.py with ast, those inside function bodies included, and fails if
either reaches explorer or reduction.  The normaliser whose effects the
search fires sits in models, so a second fence fails if check.py names it
or reads an action's effect.
"""

import ast
from pathlib import Path

import pytest

from prvass import check, explorer, models
from prvass.check import replay_failure_index, replay_trace
from prvass.explorer import Bounds, bounded_cover
from prvass.models import (
    Action,
    Configuration,
    DEC,
    INC,
    MinskyAction,
    MinskyConfig,
    MinskyMachine,
    Prvass,
    Trace,
)
from prvass.reduction import compile_machine

from conftest import load_machine

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prvass"


def test_replay_rejects_perturbed_counter():
    compiled = compile_machine(load_machine("inc-dec"))
    verdict = bounded_cover(
        compiled.system, Configuration(compiled.start, (), 0), compiled.cover_target, Bounds()
    )
    assert replay_trace(compiled.system, verdict.trace)
    steps = list(verdict.trace.steps)
    action, cfg = steps[5]
    steps[5] = (action, Configuration(cfg.state, cfg.stack, cfg.counter + 1))
    broken = Trace(verdict.trace.start, tuple(steps))
    assert not replay_trace(compiled.system, broken)
    assert replay_failure_index(compiled.system, broken) == 5


def test_replay_checks_the_named_action_as_well_as_the_configuration():
    first = Action("s", (INC,), "t")
    right = Action("t", (), "u")
    other = Action("t", (INC,), "u")
    sys = Prvass(("s", "t", "u"), ("x",), (first, right, other))
    start, mid, end = Configuration("s", (), 0), Configuration("t", (), 1), Configuration("u", (), 1)
    assert replay_failure_index(sys, Trace(start, ((first, mid), (right, end)))) is None
    assert replay_failure_index(sys, Trace(start, ((first, mid), (None, end)))) is None
    # other fires at mid but reaches (u, 2); the second is not in the system but has right's effect
    for wrong in (other, Action("t", (INC, DEC), "u")):
        assert replay_failure_index(sys, Trace(start, ((first, mid), (wrong, end)))) == 1
    # both zero tests reach (t, 0, 0), but the machine has only the one on counter 1
    m = MinskyMachine(("s", "t"), (MinskyAction("s", 1, "zero", "t"),), "s", "t")
    start, end = MinskyConfig("s", (0, 0)), MinskyConfig("t", (0, 0))
    assert replay_failure_index(m, Trace(start, ((m.actions[0], end),))) is None
    assert replay_failure_index(m, Trace(start, ((MinskyAction("s", 0, "zero", "t"), end),))) == 0


def test_empty_trace_replays():
    sys = Prvass(("s",), ("a",), ())
    assert replay_trace(sys, Trace(Configuration("s", (), 0), ()))


def test_explorer_re_exports_the_checker_objects_themselves():
    # the tracer wraps the replay functions by their explorer names; a copy would fork them
    assert explorer.replay_trace is check.replay_trace
    assert explorer.replay_failure_index is check.replay_failure_index
    assert explorer.Trace is models.Trace


def _prvass_imports(module: str) -> set:
    """The prvass modules that a module's source imports, at load or inside a function body."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the package is flat, so a relative import is from prvass itself
            base = f"prvass.{node.module or ''}".rstrip(".") if node.level else node.module
            dotted = [f"{base}.{alias.name}" for alias in node.names] if base == "prvass" else [base]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("prvass."))
    return found


def _import_closure(module: str) -> set:
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_prvass_imports(name))
    return seen


def test_fence_walker_sees_imports_inside_function_bodies():
    # gadget_contract_set imports explorer in its body, not at load
    assert "explorer" in _prvass_imports("reduction")
    assert _import_closure("explorer") >= {"check", "models", "reduction", "relations"}


@pytest.mark.parametrize("module", ["check", "formats"])
def test_checker_and_parsers_reach_neither_search_nor_compiler(module):
    closure = _import_closure(module)
    assert not closure & {"explorer", "reduction"}, sorted(closure)


def _names(module: str) -> set:
    """Every name, attribute, imported name and string constant in a module's source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)  # getattr(action, "effect") reads it too; a docstring is never the bare name
    return found


def test_fence_walker_sees_the_search_read_effects():
    assert "effect" in _names("explorer")
    assert "_effect" in _names("models")


def test_checker_never_uses_the_normaliser_the_search_fires():
    assert not _names("check") & {"_effect", "effect"}
