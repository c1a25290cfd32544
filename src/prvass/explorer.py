"""Bounded exhaustive exploration and the differential harness.

Coverability of a target state and reachability of a target counter pair
are both undecidable in general, so every search here is bounded and the
verdicts are honest about it: exhausted_no_cover is only reported when the
frontier emptied and no successor was ever pruned by a bound, otherwise the
outcome is bounds_hit.  A search with a target also trims the control graph
before it starts (cone-of-influence reduction): it walks forward from the
start state over the actions, then back from the target state over the
actions it walked, and drops every action into a state off those paths.
That relevance prune removes only configurations that can never reach the
target, so it is not a bound: exhausted_no_cover still means that every
configuration that could reach the target was enumerated.  When the start
state has no control path to the target, the trim is empty and the search
is the start configuration alone: it builds neither stack trie nor tables,
only a start key, the start state alone, which expands to nothing.  The
walks and the expansions read the model's by_source, its actions grouped by
source state, which each model builds once and every search of it shares; a
compiled system gets it from compile_machine, merged from the groupings of
its cached pieces, so no search regroups the backward gadgets that every
compile shares.  A stack-and-counter search fires each action's effect,
its body normalised by models once per action, which every search of the
system and every compile that shares the action reads; each search
filters the actions by its own trim, binds their pushes to its own stack
trie, and writes nothing into the model.  Searches are breadth-first
with a visited set keyed on the full configuration, which makes witnesses
minimal in action count and results deterministic.  A stack-and-counter
configuration is keyed by a (state, stack node, counter) triple whose
stack is hash-consed, and a two-counter configuration by a plain (state,
counter 0, counter 1) triple; either is decoded back into a Configuration
or a MinskyConfig only where a caller sees it, and either has its state as
its first item, which is how a caller reads the state without decoding.
Each model family hands the search core one Family record, its start key
and its hooks by name; the core handles keys alone: it records each
visited key's parent key, and the actions of a witness are recovered only
once the witness is found.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .models import Configuration, MinskyConfig, MinskyMachine, Prvass, Trace
from .check import replay_failure_index, replay_trace  # re-exported: perfbench/tracing.py wraps them by these names
from .reduction import compile_machine

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
        if min(self.max_steps, self.max_stack, self.max_counter, self.max_visited) <= 0:
            for name in ("max_steps", "max_stack", "max_counter", "max_visited"):
                if getattr(self, name) <= 0:
                    raise ValueError(f"{name} must be strictly positive")

    def doubled(self) -> "Bounds":
        return Bounds(
            self.max_steps * 2, self.max_stack * 2, self.max_counter * 2, self.max_visited * 2
        )


class SearchStats(NamedTuple):
    visited: int
    frontier_peak: int
    elapsed: float


class Verdict(NamedTuple):
    outcome: str
    trace: Trace | None
    stats: SearchStats


def _trim(by_source: dict, start: str, target: str) -> set:
    """The states on a control path from start to target.

    One walk forward from start over the grouped actions records the
    predecessors of each state it reaches along the actions it walks; one
    walk back from target over those predecessors keeps the states that
    lead to it.  A start with no path to target walks nothing back.
    """
    sources: dict = {start: []}
    todo = [start]
    while todo:
        state = todo.pop()
        for action in by_source.get(state, ()):
            succ = action.target
            if succ in sources:
                sources[succ].append(state)
            else:
                sources[succ] = [state]
                todo.append(succ)
    if target not in sources:
        return set()
    live = {target}
    todo = [target]
    while todo:
        for source in sources[todo.pop()]:
            if source not in live:
                live.add(source)
                todo.append(source)
    return live


def _prvass_family(sys: Prvass, start: Configuration, b: Bounds, live: set, target: str | None):
    """The flat search of a stack-and-counter system.

    A search key is the triple (state, stack node, counter), a target when
    its state is target.  Stacks are hash-consed in a trie of (parent,
    symbol) nodes with integer ids, node 0 being the empty stack, so equal
    stacks share one node: a push is one dict lookup, a pop one list read,
    and a key hashes in constant time.  The start stack is the trie's first
    chain, laid in one pass: node i + 1 is the start's i-th symbol pushed
    on node i, and each of those links is registered like any push, so a
    later push onto a prefix of the start finds the start's own node.
    The first time a state is expanded, its actions, grouped by source in
    by_source, are compiled into (action, target, pops, pushes, need,
    reset, delta) entries from each action's effect: an action into a
    state outside live, or one that no configuration fires, is left out,
    and each pushed symbol is bound to this trie's child dict.  The entries
    go in this search's effects, so no key ever reaches a state outside
    live and no trie is shared between searches.
    expand computes each successor's stack height and counter anyway, so it
    applies the stack and counter caps itself and gives None for a dropped
    successor.  expand(key, compiled) fires the given compiled effects
    instead of the key state's own; each entry of effects starts with its
    action, which is what _family's label relies on.
    """
    by_source = sys.by_source
    effects: dict = {}
    stack = start.stack
    node = len(stack)
    parent = [0, *range(node)]
    top = [None, *stack]
    height = list(range(node + 1))
    children: dict = {}  # symbol -> {node: node with symbol pushed on it}
    for n, symbol in enumerate(stack):
        children.setdefault(symbol, {})[n] = n + 1

    def grow(node, symbol, kids):
        child = kids[node] = len(parent)
        parent.append(node)
        top.append(symbol)
        height.append(height[node] + 1)
        return child

    def compile_state(state):
        compiled = effects[state] = []
        for action in by_source.get(state, ()):
            if action.target in live and (effect := action.effect) is not None:
                pops, pushes, need, reset, delta = effect
                if pushes:
                    pushes = tuple((symbol, children.setdefault(symbol, {})) for symbol in pushes)
                compiled.append((action, action.target, pops, pushes, need, reset, delta))
        return compiled

    max_stack, max_counter = b.max_stack, b.max_counter

    def expand(key, compiled=None):
        state, node, counter = key
        if compiled is None:
            compiled = effects[state] if state in effects else compile_state(state)
        out = []
        for _, target, pops, pushes, need, reset, delta in compiled:
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
                c = delta if reset else counter + delta
                out.append((target, n, c) if height[n] <= max_stack and c <= max_counter else None)
        return out

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

    return (start.state, node, start.counter), expand, effects, decode, lambda key: key[0] == target


def _minsky_family(m: MinskyMachine, start: MinskyConfig, b: Bounds, live: set, target: str | None):
    """The flat search of a two-counter machine.

    A search key is the triple (state, counter 0, counter 1), a target when
    it is (target, 0, 0).  A state's actions, grouped by source in
    by_source, are compiled into moves the first time the state is
    expanded, and an action into a state outside live is left out.  A key
    is within the counter cap whenever it is expanded, so expand checks
    only the counter that moved and gives None for a successor past the
    cap.  expand(key, compiled) fires the given compiled moves instead of
    the key state's own; each entry of moves starts with its action, which
    is what _family's label relies on.
    """
    by_source = m.by_source
    moves: dict = {}

    def compile_state(state):
        compiled = moves[state] = [
            (action, action.target, action.counter_index, action.op)
            for action in by_source.get(state, ())
            if action.target in live
        ]
        return compiled

    cap = b.max_counter

    def expand(key, compiled=None):
        state, c0, c1 = key
        if compiled is None:
            compiled = moves[state] if state in moves else compile_state(state)
        out = []
        for _, target, index, op in compiled:
            value = c1 if index else c0
            if op == "inc":
                value += 1
            elif op == "dec":
                if not value:
                    continue
                value -= 1
            elif value:
                continue
            if value > cap:
                out.append(None)
            else:
                out.append((target, c0, value) if index else (target, value, c1))
        return out

    def decode(key):
        return MinskyConfig(key[0], key[1:])

    goal = (target, 0, 0)
    return (start.state, *start.counters), expand, moves, decode, lambda key: key == goal


class Family(NamedTuple):
    """The start key and the hooks of one search of one model, read by name."""

    start: tuple
    expand: Callable
    label: Callable
    decode: Callable
    is_target: Callable


def _family(model: Prvass | MinskyMachine, start, b: Bounds, target: str | None = None) -> Family:
    """The model family's search hooks; the one place the search dispatches on it.

    start is the start key; expand(key) lists the successor keys in action
    declaration order, with None for each successor that a stack or counter
    cap drops; label(key, succ) is the first action, in declaration order,
    that takes key to succ, found by firing the entries of the key state's
    effects or moves one at a time; decode(key) is the configuration a key
    stands for; is_target(key) is whether it is in the target state, or for
    a two-counter machine is (target, 0, 0), and is never true without a
    target.  Keys of both families are flat tuples whose first item is the
    state, so a caller reads a key's state as key[0] without decoding it.
    A start that itself violates a cap cannot be expanded honestly, so it
    expands to one dropped successor.
    The actions grouped by source state are the model's by_source, built
    once per model, so no search regroups them.  When a target is
    named, _trim keeps the states on a control path from the start state to
    the target state, and expand leaves out every action into any other
    state: a search only expands states that the start reaches, and from
    one of those a configuration off the trim can never reach the target,
    so dropping it is exact and is not a bound prune.  Without a target
    every state is kept.  An empty trim builds no family of the model at
    all, neither trie nor tables: the start key is the start state alone,
    it expands to nothing (or to the one dropped successor of a start over
    a cap), is no target, and decodes to start, so the search ends after
    its first layer with exhausted_no_cover (or bounds_hit) and visited 1.
    This is also the one place that checks the search's inputs belong to the
    model: the start state and the target state, when one is named, must be
    declared, and every start stack symbol must be in the alphabet.
    """
    for what, state in (("target", target), ("start", start.state)):
        if state is not None and state not in model.states:
            raise ValueError(f"{what} state {state!r} not in the system")
    if isinstance(model, Prvass):
        if not set(model.stack_alphabet).issuperset(start.stack):
            for symbol in start.stack:
                if symbol not in model.stack_alphabet:
                    raise ValueError(f"start stack symbol {symbol!r} not in the stack alphabet")
        build = _prvass_family
        over_cap = len(start.stack) > b.max_stack or start.counter > b.max_counter
    else:
        build = _minsky_family
        over_cap = max(start.counters) > b.max_counter
    live = set(model.states) if target is None else _trim(model.by_source, start.state, target)
    if live:
        start_key, expand, table, decode, is_target = build(model, start, b, live, target)

        def label(key, succ):
            return next(entry[0] for entry in table[key[0]] if expand(key, (entry,)) == [succ])

    else:  # the start key alone: it never gains a successor, so label is never asked
        start_key, expand, label = (start.state,), lambda key: [], lambda key, succ: None
        decode, is_target = lambda key: start, lambda key: False
    return Family(start_key, (lambda key: [None]) if over_cap else expand, label, decode, is_target)


def _bfs(family: Family, b: Bounds) -> tuple[Verdict, dict]:
    """Layered breadth-first search over a _family's keys; returns the verdict and the visited dict.

    The visited dict maps each visited key to its parent key (None for the
    start), in the order the keys were dequeued, the layer at the depth cap
    included.  Only the witness is decoded, and label names its actions.  A
    None from expand is a successor that a cap dropped.  The layer at depth
    max_steps leaves no room in the visited dict, so each of its new
    successors is dropped as one past the visited budget would be.
    """
    start, expand, is_target = family.start, family.expand, family.is_target
    max_visited, max_steps = b.max_visited, b.max_steps
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
                while (prev := parents[key]) is not None:
                    steps.append((family.label(prev, key), family.decode(key)))
                    key = prev
                steps.reverse()
                stats = SearchStats(len(parents), frontier_peak, time.perf_counter() - t0)
                return Verdict(COVERED, Trace(family.decode(start), tuple(steps)), stats), parents
        room = max_visited if depth < max_steps else 0
        next_layer = []
        for key in layer:
            for succ in expand(key):
                if succ in parents:
                    continue
                if succ is None or len(parents) >= room:
                    pruned = True
                    continue
                parents[succ] = key
                next_layer.append(succ)
        depth += 1
        if len(next_layer) > frontier_peak:
            frontier_peak = len(next_layer)
        layer = next_layer
    stats = SearchStats(len(parents), frontier_peak, time.perf_counter() - t0)
    return Verdict(BOUNDS_HIT if pruned else EXHAUSTED_NO_COVER, None, stats), parents


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
    return _bfs(_family(sys, start, b, target), b)[0]


def minsky_bounded_reach(m: MinskyMachine, b: Bounds) -> Verdict:
    """Bounded search for the exact configuration (target, 0, 0) from (source, 0, 0)."""
    return _bfs(_family(m, MinskyConfig(m.source, (0, 0)), b, m.target), b)[0]


@dataclass(frozen=True)
class ReachableSet:
    """The keys a bounded closure visited, in dequeue order, with the family's decode."""

    keys: object  # the search's visited dict's keys, not a copy
    decode: object
    complete: bool
    stats: SearchStats


def reachable_set(sys: Prvass | MinskyMachine, start, b: Bounds) -> ReachableSet:
    """Enumerate every configuration reachable within bounds, as keys in the search's dequeue order.

    A caller reads a key's state as key[0] and decodes only the keys it
    keeps.  complete is True only when the closure finished without any
    pruning event, i.e. the keys really are the whole reachable set.
    """
    family = _family(sys, start, b)
    verdict, parents = _bfs(family, b)
    return ReachableSet(parents.keys(), family.decode, verdict.outcome == EXHAUSTED_NO_COVER, verdict.stats)


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
