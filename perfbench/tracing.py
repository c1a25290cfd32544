"""Spans around calls into the prvass layers, and a cProfile split by module.

The tracer wraps public functions of ``prvass.formats``, ``models``,
``reduction``, ``explorer`` and ``relations`` while it is installed.  A
wrapper replaces every reference to the function inside the ``prvass``
package, so calls the library makes to itself between layers (for example
``differential_check`` calling ``bounded_cover``) are recorded too.  Nothing
inside a function is timed; hot inner functions such as
``models.successors`` are left alone and show up only in the cProfile pass.
Span times are CPU time of this process, like the benchmark's other times.
"""

from __future__ import annotations

import cProfile
import collections
import json
import pstats
import sys
import time
from pathlib import Path

# span name -> metric group it counts towards (None: a span with no metric of its own)
WRAPPED = {
    "formats.parse_minsky": "parse",
    "formats.render_trace": "trace_roundtrip",
    "formats.parse_trace": "trace_roundtrip",
    "formats.serialize_prvass": None,
    "models.validate": "validate",
    "reduction.compile_machine": "compile",
    "reduction.gadget_contract_set": "contract",
    "explorer.bounded_cover": "cover",
    "explorer.minsky_bounded_reach": "reach",
    "explorer.reachable_set": "closure",
    "explorer.differential_check": None,
    "explorer.replay_trace": "replay",
    "explorer.replay_failure_index": "replay",
    "relations.check_two_approximations": "prop1",
    "relations.check_monotone_pairs_lemma": "lemma",
    "relations.compose_member": "compose",
}

LAYERS = ("formats", "models", "reduction", "explorer", "relations")


class Tracer:
    """Records one span per wrapped call: name, start, end, parent and item id.

    Spans stay in memory until ``write``.  Search results are also read
    here, because ``SearchStats`` already carries the explorer's own counts.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.item = None
        self.searches: list = []  # (group, outcome, visited, frontier_peak)
        self.replay_steps = 0
        self.compiled_actions = 0
        self._open: list[tuple] = []  # (span id, metric group) of the calls in progress
        self._patched: list = []

    def _wrap(self, name: str, fn):
        group = WRAPPED[name]
        spans = self.spans
        open_spans = self._open

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent, parent_group = open_spans[-1] if open_spans else (None, None)
            open_spans.append((span_id, group))
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                open_spans.pop()
                spans[span_id] = (span_id, name, start, end, parent, self.item)
            self._observe(group, args, result, nested=parent_group == group)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, group, args, result, nested: bool) -> None:
        if group in ("cover", "reach"):
            st = result.stats
            self.searches.append((group, result.outcome, st.visited, st.frontier_peak))
        elif group == "closure":
            st = result.stats
            outcome = "exhausted_no_cover" if result.complete else "bounds_hit"
            self.searches.append((group, outcome, st.visited, st.frontier_peak))
        elif group == "compile":
            self.compiled_actions += len(result.system.actions)
        elif group == "replay" and not nested:
            self.replay_steps += len(args[1].steps)

    def install(self) -> None:
        """Replace every reference to a wrapped function inside the prvass package."""
        modules = [m for n, m in sys.modules.items() if n == "prvass" or n.startswith("prvass.")]
        for name in WRAPPED:
            layer, func = name.split(".")
            original = getattr(sys.modules[f"prvass.{layer}"], func)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")

    def metrics(self) -> dict:
        """Per-layer times, call counts and search counts derived from the spans."""
        spans = self.spans
        group_time = collections.Counter()
        group_calls = collections.Counter()
        layer_self = {layer: 0.0 for layer in LAYERS}
        child_time = collections.Counter()
        for _, name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for span_id, name, start, end, parent, _ in spans:
            layer_self[name.split(".")[0]] += (end - start) - child_time[span_id]
            group = WRAPPED[name]
            if group is None:
                continue
            # a span nested in a span of its own group is already counted there
            ancestor = parent
            while ancestor is not None and WRAPPED[spans[ancestor][1]] != group:
                ancestor = spans[ancestor][4]
            if ancestor is None:
                group_time[group] += end - start
                group_calls[group] += 1

        outcomes = collections.Counter(outcome for _, outcome, _, _ in self.searches)
        visited = collections.Counter()
        for group, _, v, _ in self.searches:
            visited[group] += v
        all_visited = sum(v for _, _, v, _ in self.searches)
        wasted = sum(v for _, outcome, v, _ in self.searches if outcome == "bounds_hit")
        m = {
            "formats.parse_s": group_time["parse"],
            "formats.parse_calls": group_calls["parse"],
            "formats.trace_roundtrip_s": group_time["trace_roundtrip"],
            "models.validate_s": group_time["validate"],
            "reduction.compile_s": group_time["compile"],
            "reduction.compile_calls": group_calls["compile"],
            "reduction.compiled_actions": self.compiled_actions,
            "reduction.contract_s": group_time["contract"],
            "reduction.contract_calls": group_calls["contract"],
            "explorer.cover_s": group_time["cover"],
            "explorer.cover_calls": group_calls["cover"],
            "explorer.cover_visited": visited["cover"],
            "explorer.cover_frontier_peak": max(
                (p for g, _, _, p in self.searches if g == "cover"), default=0),
            "explorer.reach_s": group_time["reach"],
            "explorer.reach_visited": visited["reach"],
            "explorer.closure_s": group_time["closure"],
            "explorer.closure_visited": visited["closure"],
            "explorer.search_s": group_time["cover"] + group_time["reach"] + group_time["closure"],
            "explorer.search_visited": all_visited,
            "explorer.replay_s": group_time["replay"],
            "explorer.replay_steps": self.replay_steps,
            "explorer.covered": outcomes["covered"],
            "explorer.exhausted": outcomes["exhausted_no_cover"],
            "explorer.bounds_hit": outcomes["bounds_hit"],
            "explorer.wasted_visited_share": wasted / all_visited if all_visited else 0.0,
            "relations.prop1_s": group_time["prop1"],
            "relations.prop1_checks": group_calls["prop1"],
            "relations.lemma_s": group_time["lemma"],
            "relations.compose_s": group_time["compose"],
            "relations.compose_calls": group_calls["compose"],
            "trace.spans": len(spans),
        }
        for layer in LAYERS:
            m[f"{layer}.span_self_s"] = layer_self[layer]
        return m


def profile_self_times(fn) -> dict:
    """Run fn under cProfile and sum self time (tottime) by where the code lives.

    Each prvass module gets a row.  Functions that dataclasses generate
    (``__init__``, ``__eq__``, ``__hash__``; their file is ``<string>``) get
    the ``dataclass`` row, C functions the ``builtins`` row, and everything
    else, the benchmark included, the ``other`` row.
    """
    import prvass

    package_dir = str(Path(prvass.__file__).resolve().parent)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    rows = collections.Counter(dict.fromkeys(LAYERS + ("dataclass", "builtins", "other"), 0.0))
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        if filename.startswith(package_dir):
            rows[Path(filename).stem] += tottime
        elif filename == "<string>":
            rows["dataclass"] += tottime
        elif filename == "~":
            rows["builtins"] += tottime
        else:
            rows["other"] += tottime
    return {f"{row}.self_s": seconds for row, seconds in rows.items()}
