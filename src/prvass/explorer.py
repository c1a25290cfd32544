"""Bounded exhaustive exploration, trace replay, and the differential harness.

Coverability of a target state and reachability of a target counter pair
are both undecidable in general, so every search here is bounded and the
verdicts are honest about it: exhausted_no_cover is only reported when the
frontier emptied and no successor was ever pruned by a bound, otherwise
the outcome is bounds_hit.  Searches are breadth-first with a visited set
keyed on the full configuration, which makes witnesses minimal in action
count and results deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .models import (
    Configuration,
    MinskyConfig,
    MinskyMachine,
    Prvass,
    minsky_successors,
    successors,
)

COVERED = "covered"
EXHAUSTED_NO_COVER = "exhausted_no_cover"
BOUNDS_HIT = "bounds_hit"


@dataclass(frozen=True)
class Bounds:
    """Pruning limits for a bounded search.

    max_steps bounds the search depth in action firings, max_stack and
    max_counter cap individual configurations, and max_visited is the
    global budget on distinct configurations.  Any successor dropped by a
    limit permanently downgrades a would-be exhaustion claim to bounds_hit.
    """

    max_steps: int = 1_000_000
    max_stack: int = 64
    max_counter: int = 10_000
    max_visited: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("max_steps", "max_stack", "max_counter", "max_visited"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    def doubled(self) -> "Bounds":
        return Bounds(
            self.max_steps * 2, self.max_stack * 2, self.max_counter * 2, self.max_visited * 2
        )


@dataclass(frozen=True)
class SearchStats:
    visited: int
    frontier_peak: int
    elapsed: float


@dataclass(frozen=True)
class Trace:
    """A replayable witness: a start configuration and the fired steps."""

    start: object
    steps: tuple


@dataclass(frozen=True)
class Verdict:
    outcome: str
    trace: Trace | None
    stats: SearchStats


def _prvass_expander(sys: Prvass):
    interned: dict = {}

    def expand(cfg):
        out = []
        for action, succ in successors(sys, cfg):
            stack = interned.setdefault(succ.stack, succ.stack)
            if stack is not succ.stack:
                succ = Configuration(succ.state, stack, succ.counter)
            out.append((action, succ))
        return out

    return expand


def _family(model: Prvass | MinskyMachine, start, b: Bounds, target: str | None = None):
    """The (expand, prune) pair of the model's family; the one place the search dispatches on it.

    expand(cfg) yields (action, successor) pairs in action declaration
    order.  It is also the one place that checks the search's inputs belong
    to the model: the start state and the target state, when one is named,
    must be declared, and every start stack symbol must be in the alphabet
    (one pass over the start stack, never one per expansion).
    """
    states = set(model.states)
    for what, state in (("target", target), ("start", start.state)):
        if state is not None and state not in states:
            raise ValueError(f"{what} state {state!r} not in the system")
    if isinstance(model, Prvass):
        alphabet = set(model.stack_alphabet)
        for symbol in start.stack:
            if symbol not in alphabet:
                raise ValueError(f"start stack symbol {symbol!r} not in the stack alphabet")

        def prune(cfg):
            return len(cfg.stack) > b.max_stack or cfg.counter > b.max_counter

        return _prvass_expander(model), prune

    def prune(cfg):
        return cfg.counters[0] > b.max_counter or cfg.counters[1] > b.max_counter

    return partial(minsky_successors, model), prune


def _bfs(start, b: Bounds, expand, prune, is_target, check=None) -> Verdict:
    """Layered breadth-first search core shared by all searches.

    expand and prune come from _family.  check, when given, is called on
    every dequeued configuration.  The layer at depth max_steps is expanded
    only to learn whether a successor would be dropped; none of its
    successors is visited.
    """
    t0 = time.perf_counter()
    parents: dict = {start: None}
    layer = [start]
    pruned = False
    frontier_peak = 1
    depth = 0
    while layer:
        for cfg in layer:
            if check is not None:
                check(cfg)
            if is_target(cfg):
                steps = []
                cur = cfg
                while parents[cur] is not None:
                    prev, action = parents[cur]
                    steps.append((action, cur))
                    cur = prev
                steps.reverse()
                stats = SearchStats(len(parents), frontier_peak, time.perf_counter() - t0)
                return Verdict(COVERED, Trace(start, tuple(steps)), stats)
        if depth == 0 and prune(start):
            # the start configuration itself violates a cap: nothing can
            # be expanded honestly
            pruned = True
            break
        if depth >= b.max_steps:
            # an earlier drop already forbids an exhaustion claim
            pruned = pruned or any(succ not in parents for cfg in layer for _, succ in expand(cfg))
            break
        next_layer = []
        for cfg in layer:
            for action, succ in expand(cfg):
                if succ in parents:
                    continue
                if prune(succ):
                    pruned = True
                    continue
                if len(parents) >= b.max_visited:
                    pruned = True
                    continue
                parents[succ] = (cfg, action)
                next_layer.append(succ)
        depth += 1
        frontier_peak = max(frontier_peak, len(next_layer))
        layer = next_layer
    stats = SearchStats(len(parents), frontier_peak, time.perf_counter() - t0)
    return Verdict(BOUNDS_HIT if pruned else EXHAUSTED_NO_COVER, None, stats)


def bounded_cover(
    sys: Prvass, start: Configuration, target: str, b: Bounds, check: Callable | None = None
) -> Verdict:
    """Breadth-first coverability: is any configuration with the target state reachable?

    Returns covered with a minimal action-count witness the moment a target
    configuration is dequeued, exhausted_no_cover only when the full
    reachable set within bounds was enumerated without pruning, and
    bounds_hit otherwise.  Identical inputs give identical verdicts and
    traces.  check, when given, sees every dequeued configuration.
    """
    expand, prune = _family(sys, start, b, target)
    return _bfs(start, b, expand, prune, lambda c: c.state == target, check)


def minsky_bounded_reach(m: MinskyMachine, b: Bounds) -> Verdict:
    """Bounded search for the exact configuration (target, 0, 0) from (source, 0, 0)."""
    start, goal = MinskyConfig(m.source, (0, 0)), MinskyConfig(m.target, (0, 0))
    expand, prune = _family(m, start, b, m.target)
    return _bfs(start, b, expand, prune, lambda c: c == goal)


@dataclass(frozen=True)
class ReachableSet:
    """The configurations discovered by a bounded closure, in discovery order."""

    configs: tuple
    complete: bool
    stats: SearchStats


def reachable_set(sys: Prvass | MinskyMachine, start, b: Bounds) -> ReachableSet:
    """Enumerate every configuration reachable within bounds.

    complete is True only when the closure finished without any pruning
    event, i.e. the returned tuple really is the whole reachable set.
    """
    seen: list = []
    expand, prune = _family(sys, start, b)
    verdict = _bfs(start, b, expand, prune, lambda c: False, seen.append)
    return ReachableSet(tuple(seen), verdict.outcome == EXHAUSTED_NO_COVER, verdict.stats)


def replay_trace(sys: Prvass | MinskyMachine, tr: Trace) -> bool:
    """Whether every step of the trace is reproduced by the successor relation."""
    return replay_failure_index(sys, tr) is None


def replay_failure_index(sys: Prvass | MinskyMachine, tr: Trace) -> int | None:
    """Index of the first step the successor relation cannot reproduce; None if all replay.

    Steps whose action reference is absent (e.g. traces loaded from a file)
    are accepted when any action produces the recorded configuration.
    """
    succ_fn = successors if isinstance(sys, Prvass) else minsky_successors
    cur = tr.start
    for i, (action, cfg) in enumerate(tr.steps):
        candidates = succ_fn(sys, cur)
        if action is None:
            ok = any(c == cfg for _, c in candidates)
        else:
            ok = (action, cfg) in candidates
        if not ok:
            return i
        cur = cfg
    return None


@dataclass(frozen=True)
class DifferentialReport:
    """Verdicts of the two-counter machine and its compiled system, side by side.

    status is agree when both sides are definitive and match, disagree when
    both are definitive and differ (which would be a bug in the
    construction), and inconclusive when either side hit its bounds.
    """

    minsky_verdict: Verdict
    prvass_verdict: Verdict
    status: str
    compiled: object


def differential_check(m: MinskyMachine, b_minsky: Bounds, b_prvass: Bounds) -> DifferentialReport:
    """Run both sides of the reduction and compare the verdicts."""
    from .reduction import compile_machine

    compiled = compile_machine(m)
    mv = minsky_bounded_reach(m, b_minsky)
    pv = bounded_cover(
        compiled.system, Configuration(compiled.start, (), 0), compiled.cover_target, b_prvass
    )
    if mv.outcome == BOUNDS_HIT or pv.outcome == BOUNDS_HIT:
        status = "inconclusive"
    elif (mv.outcome == COVERED) == (pv.outcome == COVERED):
        status = "agree"
    else:
        status = "disagree"
    return DifferentialReport(mv, pv, status, compiled)
