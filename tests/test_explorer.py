import itertools
import tracemalloc
from dataclasses import replace

import pytest

from prvass import explorer
from prvass.check import replay_trace
from prvass.explorer import (
    BOUNDS_HIT,
    Bounds,
    COVERED,
    EXHAUSTED_NO_COVER,
    _bfs,
    _family,
    bounded_cover,
    differential_check,
    minsky_bounded_reach,
    reachable_set,
)
from prvass.models import (
    Action,
    Configuration,
    DEC,
    INC,
    RESET,
    MinskyAction,
    MinskyConfig,
    MinskyMachine,
    Prvass,
    minsky_successors,
    pop,
    push,
    successors,
)
from prvass.reduction import BACKWARD, BOTTOM, FORWARD, MARKER, UNARY, build_gadget, compile_machine
from prvass.relations import ALPHABET

from conftest import CORPUS_EXPECTED, SWEEP_BOUNDS, closure_configs, load_machine, small_machines

GENEROUS = Bounds(1_000_000, 64, 10_000, 1_000_000)


def test_single_push_covers_in_one_step():
    sys = Prvass(("s", "t"), ("a",), (Action("s", (push("a"),), "t"),))
    verdict = bounded_cover(sys, Configuration("s", (), 0), "t", GENEROUS)
    assert verdict.outcome == COVERED
    assert len(verdict.trace.steps) == 1
    assert verdict.trace.steps[0][1] == Configuration("t", ("a",), 0)


def test_blocked_decrement_exhausts():
    sys = Prvass(("s", "t"), ("a",), (Action("s", (DEC,), "t"),))
    verdict = bounded_cover(sys, Configuration("s", (), 0), "t", GENEROUS)
    assert verdict.outcome == EXHAUSTED_NO_COVER
    assert verdict.trace is None


def test_start_equal_target_covers_immediately():
    sys = Prvass(("s",), ("a",), ())
    verdict = bounded_cover(sys, Configuration("s", (), 0), "s", GENEROUS)
    assert verdict.outcome == COVERED
    assert verdict.trace.steps == ()


def test_compiled_inc_dec_covers_target():
    compiled = compile_machine(load_machine("inc-dec"))
    verdict = bounded_cover(
        compiled.system, Configuration(compiled.start, (), 0), compiled.cover_target, GENEROUS
    )
    assert verdict.outcome == COVERED
    assert verdict.trace.steps[-1][1].state == compiled.cover_target
    assert replay_trace(compiled.system, verdict.trace)


def test_unknown_target_is_a_precondition_error():
    sys = Prvass(("s",), ("a",), ())
    with pytest.raises(ValueError):
        bounded_cover(sys, Configuration("s", (), 0), "missing", GENEROUS)


@pytest.mark.parametrize(
    "start",
    [Configuration("missing", (), 0), Configuration("s", ("a", "zz"), 0)],
)
def test_start_outside_the_model_is_a_precondition_error(start):
    sys = Prvass(("s",), ("a",), ())
    with pytest.raises(ValueError):
        reachable_set(sys, start, GENEROUS)
    with pytest.raises(ValueError):
        bounded_cover(sys, start, "s", GENEROUS)


def test_minsky_start_outside_the_model_is_a_precondition_error():
    with pytest.raises(ValueError):
        reachable_set(load_machine("inc-dec"), MinskyConfig("missing", (0, 0)), GENEROUS)


def test_minsky_reach_examples():
    inc_dec = load_machine("inc-dec")
    assert minsky_bounded_reach(inc_dec, GENEROUS).outcome == COVERED
    inc_only = load_machine("inc-only")
    assert minsky_bounded_reach(inc_only, GENEROUS).outcome == EXHAUSTED_NO_COVER
    one_zero = MinskyMachine(("s", "t"), (MinskyAction("s", 0, "zero", "t"),), "s", "t")
    verdict = minsky_bounded_reach(one_zero, GENEROUS)
    assert verdict.outcome == COVERED
    assert len(verdict.trace.steps) == 1


def test_minsky_target_is_the_exact_zero_config():
    # (t, 1, 0) is reachable but (t, 0, 0) is not
    m = load_machine("inc-only")
    verdict = minsky_bounded_reach(m, GENEROUS)
    assert verdict.outcome == EXHAUSTED_NO_COVER
    reach = reachable_set(m, MinskyConfig("s", (0, 0)), GENEROUS)
    assert MinskyConfig("t", (1, 0)) in closure_configs(reach)


# NEVER_FIRES pops a symbol that the systems below never push: its action
# gives the target an incoming control path, so the relevance prune keeps
# every state live, yet it never fires and the target stays unreachable
NEVER_FIRES = (pop("b"),)


def test_depth_bound_downgrades_to_bounds_hit():
    # t is unreachable, but with the frontier still alive at the depth cap
    # the search may not claim exhaustion
    sys = Prvass(
        ("s", "t"), ("a", "b"), (Action("s", (INC,), "s"), Action("s", NEVER_FIRES, "t"))
    )
    hit = bounded_cover(sys, Configuration("s", (), 0), "t", Bounds(2, 64, 100, 1000))
    assert hit.outcome == BOUNDS_HIT
    # the layer at the cap is visited, none of its successors is
    assert (hit.stats.visited, hit.stats.frontier_peak) == (3, 1)
    # s keeps counter 0 even, so (t, 0, 0) is never reached
    m = MinskyMachine(
        ("s", "p", "t"),
        (
            MinskyAction("s", 0, "inc", "p"),
            MinskyAction("p", 0, "inc", "s"),
            MinskyAction("s", 1, "inc", "s"),
            MinskyAction("s", 0, "dec", "t"),
        ),
        "s",
        "t",
    )
    for max_steps, visited, frontier_peak in ((1, 3, 2), (3, 11, 5)):
        hit = minsky_bounded_reach(m, Bounds(max_steps, 64, 100, 1000))
        assert hit.outcome == BOUNDS_HIT
        assert (hit.stats.visited, hit.stats.frontier_peak) == (visited, frontier_peak)


def test_depth_bound_needs_a_dropped_successor():
    # the layer at the depth cap is expanded: u has no successor, so nothing
    # was dropped and the search is exhaustive at any depth cap
    sys = Prvass(
        ("s", "u", "t"), ("a", "b"), (Action("s", (INC,), "u"), Action("u", NEVER_FIRES, "t"))
    )
    for max_steps in (1, 2):
        verdict = bounded_cover(sys, Configuration("s", (), 0), "t", Bounds(max_steps, 64, 100, 1000))
        assert verdict.outcome == EXHAUSTED_NO_COVER
        assert verdict.stats.visited == 2


def test_depth_bound_keeps_an_earlier_drop():
    # the counter cap drops t in layer 0; the last layer (u) is closed, but
    # the earlier drop still forbids an exhaustion claim
    sys = Prvass(
        ("s", "u", "t"),
        ("a",),
        (Action("s", (INC, INC), "t"), Action("s", (INC,), "u")),
    )
    start = Configuration("s", (), 0)
    b = Bounds(1, 64, 1, 1000)
    assert bounded_cover(sys, start, "t", b).outcome == BOUNDS_HIT
    closure = reachable_set(sys, start, b)
    assert closure_configs(closure) == (start, Configuration("u", (), 1))
    assert not closure.complete


def test_stack_cap_downgrades_to_bounds_hit():
    sys = Prvass(
        ("s", "t"), ("a", "b"), (Action("s", (push("a"),), "s"), Action("s", NEVER_FIRES, "t"))
    )
    verdict = bounded_cover(sys, Configuration("s", (), 0), "t", Bounds(10_000, 8, 100, 10_000))
    assert verdict.outcome == BOUNDS_HIT


def test_visited_budget_downgrades_to_bounds_hit():
    sys = Prvass(
        ("s", "t"), ("a", "b"), (Action("s", (INC,), "s"), Action("s", NEVER_FIRES, "t"))
    )
    verdict = bounded_cover(sys, Configuration("s", (), 0), "t", Bounds(10_000, 8, 10_000, 5))
    assert verdict.outcome == BOUNDS_HIT
    assert verdict.stats.visited == 5


# a pumping loop in p, which has no control path to t
PUMP_AWAY = Prvass(
    ("s", "p", "t"),
    ("a",),
    (Action("s", (INC,), "p"), Action("p", (INC, push("a")), "p"), Action("s", (DEC,), "t")),
)
PUMP_AWAY_MACHINE = MinskyMachine(
    ("s", "p", "t"),
    (
        MinskyAction("s", 0, "inc", "p"),
        MinskyAction("p", 1, "inc", "p"),
        MinskyAction("s", 0, "dec", "t"),
    ),
    "s",
    "t",
)
# from p no control path leads to t: a search with that target has an empty trim
PUMP_FROM_P = MinskyMachine(PUMP_AWAY_MACHINE.states, PUMP_AWAY_MACHINE.actions, "p", "t")
SMALL = Bounds(10_000, 8, 100, 1000)


def test_pumping_loop_that_cannot_reach_the_target_is_not_a_bound():
    # every configuration in p is dropped as irrelevant, so no bound fires
    # on either family and the search exhausts at the start
    for verdict in (
        bounded_cover(PUMP_AWAY, Configuration("s", (), 0), "t", SMALL),
        minsky_bounded_reach(PUMP_AWAY_MACHINE, SMALL),
    ):
        assert verdict.outcome == EXHAUSTED_NO_COVER
        assert verdict.stats.visited == 1
    # reachable_set has no target: on the same systems the loop still runs
    # into the bounds, also from p, where a search for t has an empty trim
    for closure in (
        reachable_set(PUMP_AWAY, Configuration("s", (), 0), SMALL),
        reachable_set(PUMP_AWAY_MACHINE, MinskyConfig("s", (0, 0)), SMALL),
        reachable_set(PUMP_AWAY, Configuration("p", (), 0), SMALL),
        reachable_set(PUMP_FROM_P, MinskyConfig("p", (0, 0)), SMALL),
    ):
        assert not closure.complete
        assert any(cfg.state == "p" for cfg in closure_configs(closure))


def test_start_over_a_cap_is_visited_but_never_expanded(no_family_builds, monkeypatch):
    # a start that violates a cap cannot be expanded honestly: the search
    # visits it alone, builds no family of the model and trims nothing, and
    # may claim neither exhaustion nor completeness
    monkeypatch.setattr(explorer, "_trim", lambda *args: pytest.fail("a start over a cap ran the trim"))
    sys = Prvass(("s", "t"), ("a",), (Action("s", (INC,), "s"), Action("s", (pop("a"),), "t")))
    for start, b in (
        (Configuration("s", ("a",) * 9, 0), Bounds(1000, 8, 100, 1000)),
        (Configuration("s", (), 101), Bounds(1000, 64, 100, 1000)),
    ):
        verdict = bounded_cover(sys, start, "t", b)
        assert verdict.outcome == BOUNDS_HIT
        assert verdict.stats.visited == 1
        closure = reachable_set(sys, start, b)
        assert closure_configs(closure) == (start,)
        assert not closure.complete
        assert closure.stats.visited == 1
        # a start already in the target state covers before any expansion
        covered = bounded_cover(sys, replace(start, state="t"), "t", b)
        assert covered.outcome == COVERED
        assert covered.trace.steps == ()
    machine = MinskyMachine(("s", "t"), (MinskyAction("s", 0, "inc", "t"),), "s", "t")
    start, b = MinskyConfig("s", (101, 0)), Bounds(1000, 64, 100, 1000)
    closure = reachable_set(machine, start, b)
    assert closure_configs(closure) == (start,)
    assert not closure.complete
    # a two-counter start over the cap has a counter above 0, so even in the
    # target state it is not the target (t, 0, 0)
    verdict, parents = _bfs(_family(machine, MinskyConfig("t", (0, 101)), b, "t"), b)
    assert verdict.outcome == BOUNDS_HIT and verdict.trace is None and len(parents) == 1


@pytest.fixture
def no_family_builds(monkeypatch):
    """Make building either model family fail: a search that is its start key alone must not build one."""

    def refuse(*args):
        raise AssertionError("a search that is its start key alone built a model family")

    monkeypatch.setattr(explorer, "_prvass_family", refuse)
    monkeypatch.setattr(explorer, "_minsky_family", refuse)


def test_start_that_cannot_reach_the_target_visits_only_the_start(no_family_builds):
    # s 0 dec p and t 0 inc t: neither side's start reaches its target
    actions = (MinskyAction("s", 0, "dec", "p"), MinskyAction("t", 0, "inc", "t"))
    machine = MinskyMachine(("s", "p", "t"), actions, "s", "t")
    compiled = compile_machine(machine)
    report = differential_check(machine, SMALL, SMALL)
    assert report.status == "agree"
    for verdict in (
        bounded_cover(PUMP_AWAY, Configuration("p", ("a", "a"), 3), "t", SMALL),
        bounded_cover(compiled.system, Configuration(compiled.start, (), 0), compiled.cover_target, SMALL),
        minsky_bounded_reach(PUMP_FROM_P, SMALL),
        report.minsky_verdict,
        report.prvass_verdict,
    ):
        assert verdict.outcome == EXHAUSTED_NO_COVER and verdict.trace is None
        assert (verdict.stats.visited, verdict.stats.frontier_peak) == (1, 1)


def test_an_empty_trim_from_a_start_over_a_cap_is_bounds_hit(no_family_builds):
    b = Bounds(1000, 8, 100, 1000)
    for model, start in (
        (PUMP_AWAY, Configuration("p", ("a",) * 9, 0)),
        (PUMP_AWAY, Configuration("p", (), 101)),
        (PUMP_FROM_P, MinskyConfig("p", (0, 101))),
    ):
        family = _family(model, start, b, "t")
        assert family.start[0] == "p" and family.decode(family.start) == start
        verdict, parents = _bfs(family, b)
        assert verdict.outcome == BOUNDS_HIT and verdict.trace is None
        assert (verdict.stats.visited, verdict.stats.frontier_peak) == (1, 1)
        assert list(parents) == [family.start]


@pytest.mark.parametrize(
    "search, message",
    [
        (
            lambda: bounded_cover(PUMP_AWAY, Configuration("missing", (), 0), "t", SMALL),
            "start state 'missing' not in the system",
        ),
        (
            lambda: bounded_cover(PUMP_AWAY, Configuration("p", (), 0), "missing", SMALL),
            "target state 'missing' not in the system",
        ),
        (
            lambda: bounded_cover(PUMP_AWAY, Configuration("p", ("zz",), 0), "t", SMALL),
            "start stack symbol 'zz' not in the stack alphabet",
        ),
        (
            lambda: minsky_bounded_reach(replace(PUMP_FROM_P, source="missing"), SMALL),
            "start state 'missing' not in the system",
        ),
        (
            lambda: minsky_bounded_reach(replace(PUMP_FROM_P, target="missing"), SMALL),
            "target state 'missing' not in the system",
        ),
    ],
)
def test_an_empty_trim_still_checks_the_search_inputs(no_family_builds, search, message):
    with pytest.raises(ValueError) as exc:
        search()
    assert str(exc.value) == message


def test_witness_names_the_first_declared_action_of_a_tie():
    # both actions take (s, ε, 0) to (t, ε, 0); the witness names the one
    # declared first, whichever that is
    loop, empty = Action("s", (INC, DEC), "t"), Action("s", (), "t")
    for first, second in ((loop, empty), (empty, loop)):
        sys = Prvass(("s", "t"), ("a",), (first, second))
        verdict = bounded_cover(sys, Configuration("s", (), 0), "t", GENEROUS)
        assert verdict.trace.steps == ((first, Configuration("t", (), 0)),)
    zero0, zero1 = MinskyAction("s", 0, "zero", "t"), MinskyAction("s", 1, "zero", "t")
    for first, second in ((zero0, zero1), (zero1, zero0)):
        verdict = minsky_bounded_reach(MinskyMachine(("s", "t"), (first, second), "s", "t"), GENEROUS)
        assert verdict.trace.steps == ((first, MinskyConfig("t", (0, 0))),)


def test_exhaustion_is_stable_under_doubled_bounds():
    m = load_machine("zero-gate-blocked")
    compiled = compile_machine(m)
    start = Configuration(compiled.start, (), 0)
    first = bounded_cover(compiled.system, start, compiled.cover_target, GENEROUS)
    second = bounded_cover(compiled.system, start, compiled.cover_target, GENEROUS.doubled())
    assert first.outcome == EXHAUSTED_NO_COVER
    assert second.outcome == EXHAUSTED_NO_COVER
    assert first.stats.visited == second.stats.visited


def _strip_elapsed(verdict):
    return (verdict.outcome, verdict.trace, verdict.stats.visited, verdict.stats.frontier_peak)


def test_search_is_deterministic():
    compiled = compile_machine(load_machine("swap"))
    start = Configuration(compiled.start, (), 0)
    runs = [bounded_cover(compiled.system, start, compiled.cover_target, GENEROUS) for _ in range(3)]
    assert _strip_elapsed(runs[0]) == _strip_elapsed(runs[1]) == _strip_elapsed(runs[2])


def _naive_fixpoint(sys, start):
    seen = {start}
    while True:
        fresh = {succ for cfg in seen for _, succ in successors(sys, cfg)} - seen
        if not fresh:
            return seen
        seen |= fresh


def test_visited_set_matches_naive_fixpoint():
    for name in ("inc-only", "zero-gate-blocked", "unbalanced"):
        compiled = compile_machine(load_machine(name))
        start = Configuration(compiled.start, (), 0)
        reach = reachable_set(compiled.system, start, GENEROUS)
        assert reach.complete
        fixpoint = _naive_fixpoint(compiled.system, start)
        configs = closure_configs(reach)
        assert set(configs) == fixpoint
        assert len(configs) == len(fixpoint)


def test_hash_consing_holds_from_a_non_empty_start_stack():
    # a contract start lays bot record hash a^m as the trie's first chain;
    # a push onto any prefix of it must find the start's own node, or one
    # configuration would get two keys
    starts = []
    tokens = [sym.token for sym in ALPHABET]
    for i, sym in enumerate(ALPHABET):
        other = tokens[(i + 1) % len(tokens)]
        for direction in (FORWARD, BACKWARD):
            g = build_gadget(sym, direction, ("g1", "g2", "g3"))
            for m in range(13):
                for record in ((), (sym.token,), (other,)):
                    stack = (BOTTOM, *record, MARKER) + (UNARY,) * m
                    starts.append((g.system, Configuration(g.entry, stack, 0)))
    # s pops the a that p pushes back onto the start's prefix (a): two configurations, two keys
    two = Prvass(("s", "p"), ("a",), (Action("s", (pop("a"),), "p"), Action("p", (push("a"),), "s")))
    starts.append((two, Configuration("s", ("a", "a"), 0)))
    for sys, start in starts:
        reach = reachable_set(sys, start, GENEROUS)
        assert reach.complete
        configs = closure_configs(reach)
        assert len(set(configs)) == len(configs), start
        assert set(configs) == _naive_fixpoint(sys, start), start
    assert len(reach.keys) == 2


def test_flat_effects_match_the_reference_semantics():
    # every body of up to 4 instructions, fired from every stack of height
    # <= 3 over {a, b} and every counter 0-3: the decoded successors of one
    # step from the start are models.successors, in the same order, each
    # repeat left out after its first occurrence (step dedups), nothing is
    # dropped, and label names the first action that yields each of them
    instructions = (push("a"), push("b"), pop("a"), pop("b"), INC, DEC, RESET)
    bodies = [body for n in range(5) for body in itertools.product(instructions, repeat=n)]
    sys = Prvass(("s", "t"), ("a", "b"), tuple(Action("s", body, "t") for body in bodies))
    for height in range(4):
        for stack in itertools.product("ab", repeat=height):
            for counter in range(4):
                start = Configuration("s", stack, counter)
                family = _family(sys, start, GENEROUS)
                start_key, step, label, decode = family.start, family.step, family.label, family.decode
                keys, dropped, hit = step([start_key], {}, GENEROUS.max_visited)
                reference = successors(sys, start)
                first: dict = {}
                for action, cfg in reference:
                    first.setdefault(cfg, action)
                assert [decode(key) for key in keys] == list(first), start
                assert [key[0] for key in keys] == [cfg.state for cfg in first], start
                assert (dropped, hit) == (False, None), start
                for key in keys:
                    assert label(start_key, key) == first[decode(key)], (start, decode(key))


def test_flat_two_counter_keys_match_the_reference_semantics():
    # every one-action and two-action machine over {s, t}, fired from every
    # counter pair 0-3 under a counter cap of 2: the decoded successors of
    # one step from the start are models.minsky_successors within the cap,
    # in the same order, each repeat left out after its first occurrence,
    # the step drops a successor exactly when the reference passes the cap,
    # and label names the first declared action that yields each of them
    capped = Bounds(GENEROUS.max_steps, GENEROUS.max_stack, 2, GENEROUS.max_visited)
    actions = [MinskyAction(*a) for a in itertools.product("st", (0, 1), ("inc", "dec", "zero"), "st")]
    bodies = [(a,) for a in actions] + list(itertools.product(actions, repeat=2))
    for body in bodies:
        m = MinskyMachine(("s", "t"), body, "s", "t")
        for counters in itertools.product(range(4), repeat=2):
            start = MinskyConfig("s", counters)
            family = _family(m, start, capped)
            start_key, step, label, decode = family.start, family.step, family.label, family.decode
            assert decode(start_key) == start and start_key[0] == "s"
            keys, dropped, hit = step([start_key], {}, capped.max_visited)
            assert hit is None, (body, start)
            if max(counters) > 2:
                assert (keys, dropped) == ([], True), (body, start)
                continue
            reference = minsky_successors(m, start)
            first: dict = {}
            for action, cfg in reference:
                if max(cfg.counters) <= 2:
                    first.setdefault(cfg, action)
            assert [decode(key) for key in keys] == list(first), (body, start)
            assert [key[0] for key in keys] == [cfg.state for cfg in first], (body, start)
            assert dropped == any(max(cfg.counters) > 2 for _, cfg in reference), (body, start)
            for key in keys:
                assert label(start_key, key) is first[decode(key)], (body, start, decode(key))


def _reference_search(successors_of, start, is_target, max_steps):
    """A layered BFS whose target test runs at dequeue: (witness steps or None, visited, frontier peak)."""
    parents, layer, depth, peak = {start: None}, [start], 0, 1
    while layer:
        for cfg in layer:
            if is_target(cfg):
                steps = []
                while parents[cfg] is not None:
                    action, prev = parents[cfg]
                    steps.append((action, cfg))
                    cfg = prev
                return tuple(reversed(steps)), len(parents), peak
        if depth == max_steps:
            break
        next_layer = []
        for cfg in layer:
            for action, succ in successors_of(cfg):
                if succ not in parents:
                    parents[succ] = (action, cfg)
                    next_layer.append(succ)
        depth += 1
        peak = max(peak, len(next_layer))
        layer = next_layer
    return None, len(parents), peak


def test_the_first_target_of_a_layer_wins():
    # two targets enter layer 2 from different parents, (t, x, 1) from a
    # before (t, y, 0) from b, between keys that are no target; the
    # witness runs through the first, the whole layer is visited, and at
    # max_steps 2 that layer is the one at the depth cap
    sys = Prvass(
        ("s", "a", "b", "t"),
        ("x", "y"),
        (
            Action("s", (push("x"),), "a"),
            Action("s", (push("y"),), "b"),
            Action("a", (push("x"),), "a"),
            Action("a", (INC,), "t"),
            Action("b", (), "t"),
            Action("b", (push("y"),), "b"),
        ),
    )
    start = Configuration("s", (), 0)
    # the two-counter target (t, 0, 0) is one key: it enters layer 2 from a
    # and again from b, between keys that are no target, and keeps a as parent
    m = MinskyMachine(
        ("s", "a", "b", "t"),
        (
            MinskyAction("s", 0, "inc", "a"),
            MinskyAction("s", 1, "inc", "b"),
            MinskyAction("a", 1, "inc", "a"),
            MinskyAction("a", 0, "dec", "t"),
            MinskyAction("b", 1, "dec", "t"),
            MinskyAction("b", 0, "inc", "b"),
        ),
        "s",
        "t",
    )
    for max_steps in (1, 2, 3):
        b = Bounds(max_steps, 64, 100, 1000)
        for verdict, want, initial in (
            (
                bounded_cover(sys, start, "t", b),
                _reference_search(lambda cfg: successors(sys, cfg), start, lambda cfg: cfg.state == "t", max_steps),
                start,
            ),
            (
                minsky_bounded_reach(m, b),
                _reference_search(
                    lambda cfg: minsky_successors(m, cfg),
                    MinskyConfig("s", (0, 0)),
                    lambda cfg: cfg == MinskyConfig("t", (0, 0)),
                    max_steps,
                ),
                MinskyConfig("s", (0, 0)),
            ),
        ):
            steps, visited, frontier_peak = want
            assert (verdict.stats.visited, verdict.stats.frontier_peak) == (visited, frontier_peak), max_steps
            if steps is None:
                assert (verdict.outcome, verdict.trace) == (BOUNDS_HIT, None), max_steps
            else:
                assert verdict.outcome == COVERED, max_steps
                assert verdict.trace.start == initial and verdict.trace.steps == steps, max_steps
    # the stack witness runs through a, the two-counter one through a too
    covered = bounded_cover(sys, start, "t", Bounds(2, 64, 100, 1000))
    assert [action.source for action, _ in covered.trace.steps] == ["s", "a"]
    assert (covered.stats.visited, covered.stats.frontier_peak) == (7, 4)
    reached = minsky_bounded_reach(m, Bounds(2, 64, 100, 1000))
    assert [action.source for action, _ in reached.trace.steps] == ["s", "a"]
    assert (reached.stats.visited, reached.stats.frontier_peak) == (6, 3)


def _reference_closure(sys, start, b):
    """Discovery order of a layered BFS over models.successors under the bounds b."""
    order, seen, layer = [start], {start}, [start]
    depth = 0
    while layer and depth < b.max_steps:
        next_layer = []
        for cfg in layer:
            for _, succ in successors(sys, cfg):
                if succ in seen or len(succ.stack) > b.max_stack or succ.counter > b.max_counter:
                    continue
                if len(seen) < b.max_visited:
                    seen.add(succ)
                    next_layer.append(succ)
        order += next_layer
        layer = next_layer
        depth += 1
    return order


@pytest.mark.parametrize(
    "name, b, complete",
    [
        ("swap", GENEROUS, False),
        ("inc-dec", GENEROUS, True),
        ("big-counter", Bounds(1_000_000, 24, 10_000, 1_000_000), False),
    ],
    ids=("swap", "inc-dec", "big-counter"),
)
def test_closure_order_matches_reference_bfs(name, b, complete):
    compiled = compile_machine(load_machine(name))
    start = Configuration(compiled.start, (), 0)
    reach = reachable_set(compiled.system, start, b)
    assert reach.complete is complete
    assert list(closure_configs(reach)) == _reference_closure(compiled.system, start, b)


def _searched_sides(m, b):
    """The family arguments of both sides of the differential check on m."""
    compiled = compile_machine(m)
    return (
        (m, MinskyConfig(m.source, (0, 0)), b, m.target),
        (compiled.system, Configuration(compiled.start, (), 0), b, compiled.cover_target),
    )


def _check_visited_dict(model, start, b, target=None):
    """Run _bfs and check its visited dict; returns the verdict, the dict and the family."""
    family = _family(model, start, b, target)
    verdict, parents = _bfs(family, b)
    order = {key: i for i, key in enumerate(parents)}
    assert order[family.start] == 0 and parents[family.start] is None
    assert all(order[parent] < i for i, parent in enumerate(parents.values()) if i)
    assert len(parents) == verdict.stats.visited
    if verdict.outcome == EXHAUSTED_NO_COVER:
        # one step over every visited key meets no new key and drops nothing
        assert family.step(list(parents), dict(parents), b.max_visited) == ([], False, None)
    return verdict, parents, family


def test_visited_dict_on_the_corpus_and_the_sweep():
    # both sides of every corpus machine, and of every sweep machine whose
    # two-counter side exhausts; exhaustion means the dict is closed under
    # step, which is what a no-cover certificate rests on
    for name in (*CORPUS_EXPECTED, "big-counter"):
        for side in _searched_sides(load_machine(name), GENEROUS):
            _check_visited_dict(*side)
    for m in small_machines():
        machine_side, compiled_side = _searched_sides(m, SWEEP_BOUNDS)
        if _check_visited_dict(*machine_side)[0].outcome == EXHAUSTED_NO_COVER:
            _check_visited_dict(*compiled_side)


def test_reachable_set_decodes_the_visited_dict_in_order():
    for name in (*CORPUS_EXPECTED, "big-counter"):
        for model, start, b, _ in _searched_sides(load_machine(name), GENEROUS):
            _, parents, family = _check_visited_dict(model, start, b)
            decode = family.decode
            reach = reachable_set(model, start, b)
            assert list(reach.keys) == list(parents), name
            assert closure_configs(reach) == tuple(map(decode, parents)), name


def _deep_cover_args():
    """The benchmark's deep-cover search: compiled big-counter at stack cap 96."""
    compiled = compile_machine(load_machine("big-counter"))
    start = Configuration(compiled.start, (), 0)
    return compiled.system, start, compiled.cover_target, Bounds(1_000_000, 96, 10_000, 1_000_000)


def test_big_counter_count_fence():
    # the counts of the benchmark's deep-cover search; any change to the
    # search order or the dedup moves them
    verdict = bounded_cover(*_deep_cover_args())
    assert verdict.outcome == BOUNDS_HIT
    assert (verdict.stats.visited, verdict.stats.frontier_peak) == (123_434, 548)


def test_big_counter_memory_fence():
    # the search keeps one parent key per visited key, about 13 MiB at its
    # peak here; a (key, action) tuple per visited key lifts it to about 19 MiB
    args = _deep_cover_args()
    tracemalloc.start()
    try:
        verdict = bounded_cover(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.stats.visited == 123_434
    assert peak < 15 * 2**20


def test_no_reachable_configuration_has_negative_counter():
    compiled = compile_machine(load_machine("inc-dec"))
    reach = reachable_set(compiled.system, Configuration(compiled.start, (), 0), GENEROUS)
    assert all(cfg.counter >= 0 for cfg in closure_configs(reach))


def test_differential_examples():
    agree_covered = differential_check(load_machine("inc-dec"), GENEROUS, GENEROUS)
    assert agree_covered.status == "agree"
    assert agree_covered.minsky_verdict.outcome == COVERED
    agree_negative = differential_check(load_machine("inc-only"), GENEROUS, GENEROUS)
    assert agree_negative.status == "agree"
    assert agree_negative.prvass_verdict.outcome == EXHAUSTED_NO_COVER


def test_differential_disagrees_when_the_compiled_side_differs(monkeypatch):
    # a disagreement would be a fault of the construction, so one is staged:
    # inc-dec's machine side (covered) against inc-only's compiled system
    inc_only = compile_machine(load_machine("inc-only"))
    monkeypatch.setattr("prvass.explorer.compile_machine", lambda m: inc_only)
    report = differential_check(load_machine("inc-dec"), GENEROUS, GENEROUS)
    assert report.status == "disagree"
    assert report.minsky_verdict.outcome == COVERED
    assert report.prvass_verdict.outcome == EXHAUSTED_NO_COVER


def test_differential_large_counters_is_inconclusive():
    # the unary encoding of counter value 20 is 2^20 symbols, far beyond the
    # stack cap: expected and documented, not a failure
    report = differential_check(load_machine("big-counter"), GENEROUS, GENEROUS)
    assert report.minsky_verdict.outcome == COVERED
    assert report.prvass_verdict.outcome == BOUNDS_HIT
    assert report.status == "inconclusive"


def test_bounds_must_be_positive():
    with pytest.raises(ValueError, match="^max_steps must be strictly positive$"):
        Bounds(0, 1, 1, 1)
    with pytest.raises(ValueError, match="^max_counter must be strictly positive$"):
        Bounds(1, 1, -3, 1)
    # the first bad field in declaration order is the one named
    with pytest.raises(ValueError, match="^max_steps must be strictly positive$"):
        Bounds(0, 0, 1, 1)
    with pytest.raises(ValueError, match="^max_counter must be strictly positive$"):
        Bounds(1, 1, -3, 0)


def test_a_start_stack_with_two_foreign_symbols_names_the_first():
    sys = Prvass(("s",), ("a",), ())
    for stack, first in ((("a", "zz", "a", "yy"), "zz"), (("yy", "zz"), "yy")):
        start = Configuration("s", stack, 0)
        for search in (lambda: reachable_set(sys, start, GENEROUS), lambda: bounded_cover(sys, start, "s", GENEROUS)):
            with pytest.raises(ValueError) as exc:
                search()
            assert str(exc.value) == f"start stack symbol {first!r} not in the stack alphabet"
