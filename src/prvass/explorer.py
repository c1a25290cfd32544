"""Bounded exhaustive exploration, trace replay, and the differential harness.

Coverability of a target state and reachability of a target counter pair
are both undecidable in general, so every search here is bounded and the
verdicts are honest about it: exhausted_no_cover is only reported when the
frontier emptied and no successor was ever pruned by a bound, otherwise
the outcome is bounds_hit.  A search with a target also drops, before it
starts, every action into a state with no control path to the target
state (cone-of-influence reduction).  That relevance prune removes only
configurations that can never reach the target, so it is not a bound:
exhausted_no_cover still means that every configuration that could reach
the target was enumerated.  Searches are breadth-first with a visited set
keyed on the full configuration, which makes witnesses minimal in action
count and results deterministic.  A stack-and-counter configuration is keyed
by a (state, stack node, counter) triple whose stack is hash-consed, and is
decoded back into a Configuration only where a caller sees it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

from .models import (
    DEC_KIND,
    INC_KIND,
    POP,
    PUSH,
    RESET_KIND,
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


def _effect(body):
    """The normalised effect of an action body, or None when no configuration can fire it.

    Stack and counter instructions act on independent parts of a
    configuration, so a body factorises into (pops, pushes, need, reset,
    delta): it fires when the stack top reads pops (top first) and the
    counter is at least need; it replaces the popped symbols by pushes
    (bottom first) and sets the counter to delta after a reset, or adds
    delta to it otherwise.  A push of x then a pop of y cancels when x == y
    and is dead otherwise; so is a decrement below zero after a reset.
    """
    pops, pushes = [], []
    need, reset, delta = 0, False, 0
    for instr in body:
        kind = instr.kind
        if kind == PUSH:
            pushes.append(instr.symbol)
        elif kind == POP:
            if not pushes:
                pops.append(instr.symbol)
            elif pushes.pop() != instr.symbol:
                return None
        elif kind == INC_KIND:
            delta += 1
        elif kind == DEC_KIND:
            if not reset:
                need = max(need, 1 - delta)
            elif delta < 1:
                return None
            delta -= 1
        elif kind == RESET_KIND:
            reset, delta = True, 0
        else:
            raise ValueError(f"unknown instruction kind: {kind!r}")
    return tuple(pops), tuple(pushes), need, reset, delta


def _prvass_family(sys: Prvass, start: Configuration, b: Bounds, live: set):
    """The flat search of a stack-and-counter system.

    A search key is the triple (state, stack node, counter).  Stacks are
    hash-consed in a trie of (parent, symbol) nodes with integer ids, node 0
    being the empty stack, so equal stacks share one node: a push is one
    dict lookup, a pop one list read, and a key hashes in constant time.
    Actions are grouped by source state in one pass; a state's bodies are
    normalised by _effect the first time the state is expanded, so a search
    that visits a few states pays for those alone.  Actions into a state
    outside live are never grouped, so no key ever reaches such a state.
    """
    by_source: dict = {}
    for action in sys.actions:
        if action.target in live:
            by_source.setdefault(action.source, []).append(action)
    effects: dict = {}
    parent = [0]
    top = [None]
    height = [0]
    children: dict = {}  # symbol -> {node: node with symbol pushed on it}

    def grow(node, symbol, kids):
        child = kids[node] = len(parent)
        parent.append(node)
        top.append(symbol)
        height.append(height[node] + 1)
        return child

    def compile_state(state):
        compiled = effects[state] = []
        for action in by_source.get(state, ()):
            effect = _effect(action.body)
            if effect is not None:
                pops, pushes, need, reset, delta = effect
                pushes = tuple((symbol, children.setdefault(symbol, {})) for symbol in pushes)
                compiled.append((action, action.target, pops, pushes, need, reset, delta))
        return compiled

    node = 0
    for symbol in start.stack:
        kids = children.setdefault(symbol, {})
        node = kids.get(node) or grow(node, symbol, kids)

    def expand(key):
        state, node, counter = key
        compiled = effects.get(state)
        if compiled is None:
            compiled = compile_state(state)
        out = []
        for action, target, pops, pushes, need, reset, delta in compiled:
            if counter < need:
                continue
            n = node
            for symbol in pops:
                if top[n] != symbol:
                    break
                n = parent[n]
            else:
                for symbol, kids in pushes:
                    n = kids.get(n) or grow(n, symbol, kids)
                out.append((action, (target, n, delta if reset else counter + delta)))
        return out

    max_stack, max_counter = b.max_stack, b.max_counter

    def prune(key):
        return height[key[1]] > max_stack or key[2] > max_counter

    words: dict = {0: ()}

    def decode(key):
        state, node, counter = key
        path = []
        while node not in words:
            path.append(node)
            node = parent[node]
        word = words[node]
        for n in reversed(path):
            word = words[n] = word + (top[n],)
        return Configuration(state, word, counter)

    return (start.state, node, start.counter), expand, prune, decode


def _family(model: Prvass | MinskyMachine, start, b: Bounds, target: str | None = None):
    """The model family's (start key, expand, prune, decode); the one place the search dispatches on it.

    expand(key) yields (action, successor key) pairs in action declaration
    order, prune(key) says whether a bound drops the key, and decode(key)
    is the configuration a key stands for.  Two-counter configurations are
    their own keys.  When a target is named, expand leaves out every action
    into a state with no control path to the target state: a configuration
    there can never reach the target, so dropping it is exact and is not a
    bound prune.  The actions are filtered once, here, so the prune costs
    nothing per key.  This is also the one place that checks the search's
    inputs belong to the model: the start state and the target state, when
    one is named, must be declared, and every start stack symbol must be in
    the alphabet (one pass over the start stack, never one per expansion).
    """
    states = set(model.states)
    for what, state in (("target", target), ("start", start.state)):
        if state is not None and state not in states:
            raise ValueError(f"{what} state {state!r} not in the system")
    live = states if target is None else _coreachable(model.actions, target)
    if isinstance(model, Prvass):
        alphabet = set(model.stack_alphabet)
        for symbol in start.stack:
            if symbol not in alphabet:
                raise ValueError(f"start stack symbol {symbol!r} not in the stack alphabet")
        return _prvass_family(model, start, b, live)

    def prune(cfg):
        return cfg.counters[0] > b.max_counter or cfg.counters[1] > b.max_counter

    relevant = replace(model, actions=tuple(a for a in model.actions if a.target in live))
    return start, partial(minsky_successors, relevant), prune, _identity


def _coreachable(actions, target: str) -> set:
    """The states with a control path to target, by one backward pass over the actions."""
    sources: dict = {}
    for action in actions:
        sources.setdefault(action.target, []).append(action.source)
    live = {target}
    todo = [target]
    while todo:
        for source in sources.get(todo.pop(), ()):
            if source not in live:
                live.add(source)
                todo.append(source)
    return live


def _identity(cfg):
    return cfg


def _bfs(start, b: Bounds, expand, prune, decode, is_target) -> Verdict:
    """Layered breadth-first search core shared by all searches.

    start, expand, prune and decode come from _family, and the search runs
    on its keys; is_target sees every dequeued key, in order, and only the
    witness is decoded.  The layer at depth max_steps is expanded only to
    learn whether a successor would be dropped; none of its successors is
    visited.
    """
    t0 = time.perf_counter()
    parents: dict = {start: None}
    layer = [start]
    pruned = False
    frontier_peak = 1
    depth = 0
    while layer:
        for key in layer:
            if is_target(key):
                steps = []
                cur = key
                while parents[cur] is not None:
                    prev, action = parents[cur]
                    steps.append((action, decode(cur)))
                    cur = prev
                steps.reverse()
                stats = SearchStats(len(parents), frontier_peak, time.perf_counter() - t0)
                return Verdict(COVERED, Trace(decode(start), tuple(steps)), stats)
        if depth == 0 and prune(start):
            # the start configuration itself violates a cap: nothing can
            # be expanded honestly
            pruned = True
            break
        if depth >= b.max_steps:
            # an earlier drop already forbids an exhaustion claim
            pruned = pruned or any(succ not in parents for key in layer for _, succ in expand(key))
            break
        next_layer = []
        for key in layer:
            for action, succ in expand(key):
                if succ in parents:
                    continue
                if prune(succ):
                    pruned = True
                    continue
                if len(parents) >= b.max_visited:
                    pruned = True
                    continue
                parents[succ] = (key, action)
                next_layer.append(succ)
        depth += 1
        frontier_peak = max(frontier_peak, len(next_layer))
        layer = next_layer
    stats = SearchStats(len(parents), frontier_peak, time.perf_counter() - t0)
    return Verdict(BOUNDS_HIT if pruned else EXHAUSTED_NO_COVER, None, stats)


def bounded_cover(sys: Prvass, start: Configuration, target: str, b: Bounds) -> Verdict:
    """Breadth-first coverability: is any configuration with the target state reachable?

    Returns covered with a minimal action-count witness the moment a target
    configuration is dequeued, exhausted_no_cover only when every reachable
    configuration whose state has a control path to the target was
    enumerated without a bound pruning any, and bounds_hit otherwise.
    Configurations in states with no such path are never visited: they
    cannot reach the target, so leaving them out never hides a cover.
    Identical inputs give identical verdicts and traces.
    """
    start_key, expand, prune, decode = _family(sys, start, b, target)
    return _bfs(start_key, b, expand, prune, decode, lambda key: key[0] == target)


def minsky_bounded_reach(m: MinskyMachine, b: Bounds) -> Verdict:
    """Bounded search for the exact configuration (target, 0, 0) from (source, 0, 0)."""
    start, goal = MinskyConfig(m.source, (0, 0)), MinskyConfig(m.target, (0, 0))
    start_key, expand, prune, decode = _family(m, start, b, m.target)
    return _bfs(start_key, b, expand, prune, decode, lambda c: c == goal)


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
    keys: list = []
    start_key, expand, prune, decode = _family(sys, start, b)
    # keys.append returns None, so no key is a target and every dequeued key is kept
    verdict = _bfs(start_key, b, expand, prune, decode, keys.append)
    return ReachableSet(tuple(map(decode, keys)), verdict.outcome == EXHAUSTED_NO_COVER, verdict.stats)


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
