import itertools

import pytest

from prvass.explorer import (
    BOUNDS_HIT,
    Bounds,
    COVERED,
    EXHAUSTED_NO_COVER,
    Trace,
    _family,
    bounded_cover,
    differential_check,
    minsky_bounded_reach,
    reachable_set,
    replay_failure_index,
    replay_trace,
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
    pop,
    push,
    successors,
)
from prvass.reduction import compile_machine

from conftest import load_machine

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
    assert MinskyConfig("t", (1, 0)) in reach.configs


def test_replay_rejects_perturbed_counter():
    compiled = compile_machine(load_machine("inc-dec"))
    verdict = bounded_cover(
        compiled.system, Configuration(compiled.start, (), 0), compiled.cover_target, GENEROUS
    )
    assert replay_trace(compiled.system, verdict.trace)
    steps = list(verdict.trace.steps)
    action, cfg = steps[5]
    steps[5] = (action, Configuration(cfg.state, cfg.stack, cfg.counter + 1))
    broken = Trace(verdict.trace.start, tuple(steps))
    assert not replay_trace(compiled.system, broken)
    assert replay_failure_index(compiled.system, broken) == 5


def test_empty_trace_replays():
    sys = Prvass(("s",), ("a",), ())
    assert replay_trace(sys, Trace(Configuration("s", (), 0), ()))


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
    assert closure.configs == (start, Configuration("u", (), 1))
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
    # into the bounds
    for closure in (
        reachable_set(PUMP_AWAY, Configuration("s", (), 0), SMALL),
        reachable_set(PUMP_AWAY_MACHINE, MinskyConfig("s", (0, 0)), SMALL),
    ):
        assert not closure.complete
        assert any(cfg.state == "p" for cfg in closure.configs)


def test_start_that_cannot_reach_the_target_visits_only_the_start():
    verdict = bounded_cover(PUMP_AWAY, Configuration("p", (), 0), "t", SMALL)
    assert verdict.outcome == EXHAUSTED_NO_COVER
    assert verdict.stats.visited == 1
    machine = MinskyMachine(PUMP_AWAY_MACHINE.states, PUMP_AWAY_MACHINE.actions, "p", "t")
    verdict = minsky_bounded_reach(machine, SMALL)
    assert verdict.outcome == EXHAUSTED_NO_COVER
    assert verdict.stats.visited == 1


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
        assert set(reach.configs) == fixpoint
        assert len(reach.configs) == len(fixpoint)


def test_flat_effects_match_the_reference_semantics():
    # every body of up to 4 instructions, fired from every stack of height
    # <= 3 over {a, b} and every counter 0-3: the flat expander's decoded
    # successors are models.successors, in the same order
    instructions = (push("a"), push("b"), pop("a"), pop("b"), INC, DEC, RESET)
    bodies = [body for n in range(5) for body in itertools.product(instructions, repeat=n)]
    sys = Prvass(("s", "t"), ("a", "b"), tuple(Action("s", body, "t") for body in bodies))
    for height in range(4):
        for stack in itertools.product("ab", repeat=height):
            for counter in range(4):
                start = Configuration("s", stack, counter)
                start_key, expand, _, decode = _family(sys, start, GENEROUS)
                flat = [(action, decode(key)) for action, key in expand(start_key)]
                assert flat == successors(sys, start), start


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
    assert list(reach.configs) == _reference_closure(compiled.system, start, b)


def test_big_counter_count_fence():
    # the counts of the benchmark's deep-cover search; any change to the
    # search order or the dedup moves them
    compiled = compile_machine(load_machine("big-counter"))
    verdict = bounded_cover(
        compiled.system,
        Configuration(compiled.start, (), 0),
        compiled.cover_target,
        Bounds(1_000_000, 96, 10_000, 1_000_000),
    )
    assert verdict.outcome == BOUNDS_HIT
    assert (verdict.stats.visited, verdict.stats.frontier_peak) == (123_434, 548)


def test_no_reachable_configuration_has_negative_counter():
    compiled = compile_machine(load_machine("inc-dec"))
    reach = reachable_set(compiled.system, Configuration(compiled.start, (), 0), GENEROUS)
    assert all(cfg.counter >= 0 for cfg in reach.configs)


def test_differential_examples():
    agree_covered = differential_check(load_machine("inc-dec"), GENEROUS, GENEROUS)
    assert agree_covered.status == "agree"
    assert agree_covered.minsky_verdict.outcome == COVERED
    agree_negative = differential_check(load_machine("inc-only"), GENEROUS, GENEROUS)
    assert agree_negative.status == "agree"
    assert agree_negative.prvass_verdict.outcome == EXHAUSTED_NO_COVER


def test_differential_large_counters_is_inconclusive():
    # the unary encoding of counter value 20 is 2^20 symbols, far beyond the
    # stack cap: expected and documented, not a failure
    report = differential_check(load_machine("big-counter"), GENEROUS, GENEROUS)
    assert report.minsky_verdict.outcome == COVERED
    assert report.prvass_verdict.outcome == BOUNDS_HIT
    assert report.status == "inconclusive"


def test_bounds_must_be_positive():
    with pytest.raises(ValueError):
        Bounds(0, 1, 1, 1)
    with pytest.raises(ValueError):
        Bounds(1, 1, -3, 1)
