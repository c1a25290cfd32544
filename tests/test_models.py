import dataclasses
import itertools

from prvass import explorer, models
from prvass.models import (
    Action,
    Configuration,
    DEC,
    Diagnostic,
    INC,
    Instruction,
    MinskyAction,
    MinskyConfig,
    MinskyMachine,
    Prvass,
    RESET,
    _effect,
    group_by_source,
    minsky_successors,
    pop,
    push,
    step_instruction,
    step_sequence,
    successors,
    validate,
)
from prvass.formats import ParseError, parse_minsky, parse_model_file, serialize_minsky, serialize_prvass
from prvass.reduction import FORWARD, STACK_ALPHABET, Gadget, build_gadget, compile_machine, gadget_contract_set
from prvass.relations import parse_delta_token

import pytest

from conftest import CORPUS_EXPECTED, expected_exit_set, load_machine


def test_push_appends():
    assert step_instruction((("bot", "hash"), 3), push("a")) == (("bot", "hash", "a"), 3)


def test_decrement_at_zero_is_undefined():
    assert step_instruction((("bot", "hash", "a"), 0), DEC) is None


def test_reset_zeroes_counter_and_keeps_stack():
    assert step_instruction((("bot", "hash", "a"), 5), RESET) == (("bot", "hash", "a"), 0)


def test_pop_requires_matching_top():
    assert step_instruction((("bot", "a"), 0), pop("hash")) is None
    assert step_instruction(((), 0), pop("a")) is None
    assert step_instruction((("bot", "a"), 2), pop("a")) == (("bot",), 2)


def test_sequence_round_trip():
    body = (pop("a"), pop("hash"), push("hash"), push("a"))
    assert step_sequence((("bot", "hash", "a"), 0), body) == (("bot", "hash", "a"), 0)


def test_sequence_blocks_on_wrong_second_symbol():
    assert step_sequence((("bot", "hash", "a", "a"), 0), (pop("a"), pop("hash"))) is None


def test_sequence_pop_then_increment_twice():
    # hand trace: pop a -> (bot hash, 0); inc -> 1; inc -> 2
    body = (pop("a"), INC, INC)
    assert step_sequence((("bot", "hash", "a"), 0), body) == (("bot", "hash"), 2)


def test_sequence_is_deterministic_fold():
    body = (push("a"), DEC, pop("a"))
    first = step_sequence((("bot",), 2), body)
    assert first == step_sequence((("bot",), 2), body) == (("bot",), 1)


def _single_action_system():
    action = Action("q", (INC,), "q")
    return Prvass(("q",), ("bot",), (action,)), action


def test_successors_single_increment_loop():
    sys, action = _single_action_system()
    cfg = Configuration("q", ("bot",), 0)
    assert successors(sys, cfg) == [(action, Configuration("q", ("bot",), 1))]


def test_successors_dead_end_is_legal():
    sys = Prvass(("q", "r"), ("bot",), (Action("q", (INC,), "q"),))
    assert successors(sys, Configuration("r", (), 0)) == []


def test_successors_in_mult_gadget_blocks_middle_action():
    # from the gadget entry with two trailing a symbols, only the entry loop
    # fires; the middle action needs the marker on top
    g = build_gadget(parse_delta_token("m2"), FORWARD, ("q1", "q2", "q3"))
    sys = Prvass(("q1", "q2", "q3"), STACK_ALPHABET, g.actions)
    succs = successors(sys, Configuration("q1", ("bot", "hash", "a", "a"), 0))
    assert len(succs) == 1
    assert succs[0][1] == Configuration("q1", ("bot", "hash", "a"), 2)


def test_minsky_zero_test_fires_at_zero_only():
    m = MinskyMachine(("s", "t"), (MinskyAction("s", 0, "zero", "t"),), "s", "t")
    assert minsky_successors(m, MinskyConfig("s", (0, 0))) == [
        (m.actions[0], MinskyConfig("t", (0, 0)))
    ]
    assert minsky_successors(m, MinskyConfig("s", (1, 0))) == []


def test_minsky_decrement_touches_only_its_counter():
    m = MinskyMachine(("s", "t"), (MinskyAction("s", 1, "dec", "t"),), "s", "t")
    assert minsky_successors(m, MinskyConfig("s", (0, 2))) == [
        (m.actions[0], MinskyConfig("t", (0, 1)))
    ]
    assert minsky_successors(m, MinskyConfig("s", (3, 0))) == []


def test_negative_counter_is_rejected_at_construction():
    with pytest.raises(ValueError):
        Configuration("q", (), -1)
    with pytest.raises(ValueError):
        MinskyConfig("q", (0, -2))


def test_validate_well_formed_gadget():
    g = build_gadget(parse_delta_token("m2"), FORWARD, ("q1", "q2", "q3"))
    sys = Prvass(("q1", "q2", "q3"), STACK_ALPHABET, g.actions)
    assert validate(sys) == []


def test_validate_reports_unknown_state_and_symbol():
    sys = Prvass(("q",), ("a",), (Action("q", (push("z"),), "x"),))
    messages = [str(d) for d in validate(sys)]
    assert any("'x'" in m for m in messages)
    assert any("'z'" in m for m in messages)
    assert len(messages) == 2


@pytest.mark.parametrize(
    "init, expected",
    [("x", [Diagnostic("init", "unknown initial state 'x'")]), (None, []), ("q", [])],
    ids=["undeclared", "none", "declared"],
)
def test_validate_checks_the_declared_init_state(init, expected):
    sys = Prvass(("q",), ("a",), (Action("q", (push("a"),), "q"),), init)
    assert validate(sys) == expected


def test_validate_minsky_diagnostics():
    m = MinskyMachine(("s",), (MinskyAction("s", 1, "zero", "x"),), "s", "gone")
    messages = [str(d) for d in validate(m)]
    assert any("'gone'" in m_ for m_ in messages)
    assert any("'x'" in m_ for m_ in messages)
    assert len(messages) == 2


def _one_action(*body, source="q"):
    return Prvass(("q",), ("a",), (Action(source, body, "q"),))


@pytest.mark.parametrize(
    "model, expected",
    [
        (Prvass(("q", "q"), ("a",), ()), [Diagnostic("states", "duplicate state declaration")]),
        (Prvass(("q",), ("a", "a"), ()), [Diagnostic("stack", "duplicate stack symbol declaration")]),
        (_one_action(source="x"), [Diagnostic("action[0] x -> q", "unknown source state 'x'")]),
        (MinskyMachine(("s", "s", "t"), (), "s", "t"), [Diagnostic("states", "duplicate state declaration")]),
        (MinskyMachine(("s", "t"), (), "x", "t"), [Diagnostic("init", "unknown initial state 'x'")]),
        (
            MinskyMachine(("s", "t"), (MinskyAction("x", 0, "inc", "t"),), "s", "t"),
            [Diagnostic("action[0] x -> t", "unknown source state 'x'")],
        ),
        (lambda: _one_action(Instruction("inc", "a")), "stray symbol 'a' on inc"),
        (lambda: _one_action(Instruction("dec", "a")), "stray symbol 'a' on dec"),
        (lambda: _one_action(push("a"), Instruction("reset", "a")), "stray symbol 'a' on reset"),
    ],
    ids=[
        "prvass-duplicate-state",
        "prvass-duplicate-symbol",
        "prvass-unknown-source",
        "minsky-duplicate-state",
        "minsky-unknown-init",
        "minsky-unknown-source",
        "prvass-stray-symbol-on-inc",
        "prvass-stray-symbol-on-dec",
        "prvass-stray-symbol-on-reset",
    ],
)
def test_validate_reports_each_fault_where_it_is(model, expected):
    if callable(model):
        # a fault inside one instruction is reported by that instruction when it is built, so no system holds it
        with pytest.raises(ValueError) as exc:
            model()
        assert str(exc.value) == expected
    else:
        assert validate(model) == expected


def _not_a_name(where, what, name):
    return Diagnostic(where, f"{what} {name!r} is not a name: one or more characters, none of them white space or :,()#")


@pytest.mark.parametrize("name", ["s x", "", "a:b", "a,b", "(a)", "a#", "a\n", "\t", 1])
def test_validate_rejects_a_name_the_formats_cannot_write_back(name):
    machine = MinskyMachine((name, "t"), (MinskyAction(name, 0, "inc", "t"),), name, "t")
    assert validate(machine) == [_not_a_name("states", "state", name)]
    # an Instruction carries only a str symbol, so the int name is declared but never pushed
    body = (push(name),) if isinstance(name, str) else ()
    sys = Prvass((name, "t"), ("a", name), (Action(name, body, "t"),), name)
    assert validate(sys) == [_not_a_name("states", "state", name), _not_a_name("stack", "stack symbol", name)]


def test_names_that_validate_are_written_back():
    # the name that validate used to pass breaks the formats' round trip
    machine = MinskyMachine(("s x", "t"), (MinskyAction("s x", 0, "inc", "t"),), "s x", "t")
    with pytest.raises(ParseError, match="^line 3, column 1: expected exactly one initial state$"):
        parse_minsky(serialize_minsky(machine))
    # every corpus machine and its compiled system validate, and read back as written
    for name in (*CORPUS_EXPECTED, "big-counter"):
        machine = load_machine(name)
        compiled = compile_machine(machine).system
        assert validate(machine) == [] and validate(compiled) == [], name
        assert parse_model_file(serialize_prvass(compiled)) == compiled, name


def test_validate_rejects_what_is_not_a_model():
    with pytest.raises(TypeError, match="^cannot validate Configuration$"):
        validate(Configuration("q", (), 0))


@pytest.mark.parametrize(
    "step, message",
    [
        (lambda: step_instruction(((), 0), Instruction("warp")), "unknown instruction kind: 'warp'"),
        (lambda: _effect((INC, Instruction("warp"))), "unknown instruction kind: 'warp'"),
        (
            lambda: minsky_successors(
                MinskyMachine(("s",), (MinskyAction("s", 0, "warp", "s"),), "s", "s"), MinskyConfig("s", (0, 0))
            ),
            "unknown counter op: 'warp'",
        ),
    ],
    ids=["step_instruction", "models-effect", "minsky_successors"],
)
def test_an_unknown_kind_or_op_is_a_value_error(step, message):
    # the ill-formed argument raises when it is built, so the step never sees it
    with pytest.raises(ValueError) as exc:
        step()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, args, message",
    [
        (Instruction, ("warp",), "unknown instruction kind: 'warp'"),
        # a pop with no symbol would fire from the empty stack in the flat search, with a witness that does not replay
        (Instruction, ("pop",), "pop needs a str symbol, got None"),
        (Instruction, ("push",), "push needs a str symbol, got None"),
        (Instruction, ("push", 1), "push needs a str symbol, got 1"),
        (MinskyAction, ("s", 0, "warp", "t"), "unknown counter op: 'warp'"),
        # index 2 would act on counter 1 in the flat search, where minsky_successors raises IndexError
        (MinskyAction, ("s", 2, "inc", "t"), "counter index 2 not 0 or 1"),
        (MinskyAction, ("s", -1, "inc", "t"), "counter index -1 not 0 or 1"),
        # serialize_minsky would write index True as 'True', which parse_minsky rejects
        (MinskyAction, ("s", True, "inc", "t"), "counter index True not 0 or 1"),
        (MinskyAction, ("s", 1.0, "inc", "t"), "counter index 1.0 not 0 or 1"),
    ],
    ids=[
        "unknown-kind",
        "pop-without-symbol",
        "push-without-symbol",
        "push-with-int-symbol",
        "unknown-op",
        "counter-index-2",
        "counter-index-minus-1",
        "counter-index-true",
        "counter-index-float",
    ],
)
def test_an_ill_formed_instruction_or_counter_action_cannot_be_built(build, args, message):
    with pytest.raises(ValueError) as exc:
        build(*args)
    assert str(exc.value) == message


def _oracle_step(sc, instr):
    # independent single-instruction oracle, written case by case
    stack, counter = sc
    match instr.kind:
        case "push":
            return stack + (instr.symbol,), counter
        case "pop":
            if len(stack) == 0:
                return None
            if stack[-1] != instr.symbol:
                return None
            return tuple(stack[:-1]), counter
        case "inc":
            return stack, counter + 1
        case "dec":
            return (stack, counter - 1) if counter > 0 else None
        case "reset":
            return stack, 0
    raise AssertionError(instr)


def _small_universe():
    symbols = ("a", "hash", "bot")
    stacks = [
        tuple(word)
        for k in range(5)
        for word in itertools.product(symbols, repeat=k)
    ]
    instructions = [push(s) for s in symbols] + [pop(s) for s in symbols] + [INC, DEC, RESET]
    return stacks, instructions


def test_per_instruction_determinism_and_oracle_agreement():
    # exhaustive over stacks of length <= 4 on a 3-symbol alphabet, counters <= 3
    stacks, instructions = _small_universe()
    for stack in stacks:
        for counter in range(4):
            for instr in instructions:
                got = step_instruction((stack, counter), instr)
                again = step_instruction((stack, counter), instr)
                assert got == again
                assert got == _oracle_step((stack, counter), instr)
                if got is not None:
                    assert got[1] >= 0


def _micro_traversals(sc, body):
    # materialize every partial traversal and keep only complete ones
    traversals = [[sc]]
    for instr in body:
        extended = []
        for t in traversals:
            nxt = step_instruction(t[-1], instr)
            if nxt is not None:
                extended.append(t + [nxt])
        traversals = extended
    return [t[-1] for t in traversals]


def test_successors_agree_with_micro_step_expansion():
    symbols = ("a", "hash")
    instructions = [push(s) for s in symbols] + [pop(s) for s in symbols] + [INC, DEC, RESET]
    bodies = [
        body
        for k in range(3)
        for body in itertools.product(instructions, repeat=k)
    ]
    # longer realistic bodies: every contiguous slice of each gadget body
    for token in ("m2", "m3", "d3", "t3"):
        for direction in ("forward", "backward"):
            g = build_gadget(parse_delta_token(token), direction, ("g1", "g2", "g3"))
            for action in g.actions:
                for i in range(len(action.body)):
                    for j in range(i + 1, len(action.body) + 1):
                        bodies.append(action.body[i:j])
    stacks = [(), ("bot",), ("bot", "hash"), ("bot", "hash", "a"), ("bot", "hash", "a", "a"), ("a",)]
    for body in bodies:
        for stack in stacks:
            for counter in (0, 1, 2):
                micro = _micro_traversals((stack, counter), tuple(body))
                folded = step_sequence((stack, counter), tuple(body))
                assert len(micro) <= 1
                assert folded == (micro[0] if micro else None)


def test_instruction_tokens_render():
    assert str(push("a")) == "push(a)"
    assert str(pop("m2")) == "pop(m2)"
    assert str(INC) == "inc" and str(DEC) == "dec" and str(RESET) == "reset"
    assert Instruction("inc").symbol is None


def _counting_group_by_source(monkeypatch) -> list:
    """Count the calls of models.group_by_source, which by_source builds its index with."""
    calls = []
    group = models.group_by_source

    def counted(actions):
        calls.append(actions)
        return group(actions)

    monkeypatch.setattr(models, "group_by_source", counted)
    return calls


def test_by_source_is_built_once_per_instance(monkeypatch):
    calls = _counting_group_by_source(monkeypatch)
    machine = load_machine("swap")
    system = Prvass(("s", "t"), ("a",), (Action("s", (push("a"),), "t"), Action("t", (INC,), "s")))
    for model in (machine, system):
        first = model.by_source
        assert model.by_source is first
        assert calls == [model.actions]
        calls.clear()
    # a copy with other actions regroups its own, once
    copy = dataclasses.replace(system, actions=system.actions[1:])
    assert copy.by_source == {"t": system.actions[1:]} and copy.by_source is copy.by_source
    assert system.by_source == {"s": system.actions[:1], "t": system.actions[1:]}
    assert calls == [copy.actions]


def test_compiled_searches_read_the_index_compile_machine_assembled(monkeypatch):
    calls = _counting_group_by_source(monkeypatch)
    read = []
    trim = explorer._trim

    def recorded(by_source, start, target):
        read.append(by_source)
        return trim(by_source, start, target)

    monkeypatch.setattr(explorer, "_trim", recorded)
    compiled = compile_machine(load_machine("inc-dec"))
    assembled = vars(compiled.system)["by_source"]
    assert compiled.system.by_source is assembled
    start = Configuration(compiled.start, (), 0)
    assert explorer.bounded_cover(compiled.system, start, compiled.cover_target, explorer.Bounds()).outcome == "covered"
    assert len(read) == 1 and read[0] is assembled
    assert calls == []


def _counting_effect(monkeypatch) -> list:
    """Record the body of every models._effect call, which Action.effect builds its value with."""
    calls = []
    effect = models._effect

    def counted(body):
        calls.append(body)
        return effect(body)

    monkeypatch.setattr(models, "_effect", counted)
    return calls


def _with_effect(actions) -> list:
    """The actions whose effect has been built, in order."""
    return [action for action in actions if "effect" in vars(action)]


def test_effects_are_built_only_for_actions_out_of_expanded_states_into_the_trim(monkeypatch):
    calls = _counting_effect(monkeypatch)
    into_p, into_t = Action("s", (push("a"),), "p"), Action("p", (pop("a"),), "t")
    dead = Action("p", (push("a"), pop("b")), "s")  # a pushed a is never popped as b
    aside = Action("p", (INC,), "v")  # v is a dead end, off every path to t
    away = Action("u", (INC,), "s")  # u is never reached from s
    system = Prvass(("s", "p", "t", "u", "v"), ("a", "b"), (into_p, into_t, dead, aside, away))
    start = Configuration("s", (), 0)
    # the cover search expands s and p, and finds t in the layer after p
    assert explorer.bounded_cover(system, start, "t", explorer.Bounds()).outcome == "covered"
    assert _with_effect(system.actions) == [into_p, into_t, dead]
    assert (into_p.effect, into_t.effect, dead.effect) == (((), ("a",), 0, False, 0), (("a",), (), 0, False, 0), None)
    assert calls == [into_p.body, into_t.body, dead.body]
    calls.clear()
    # a later search of the same system reads the effects its actions already have
    assert explorer.bounded_cover(system, start, "t", explorer.Bounds()).outcome == "covered"
    assert calls == []
    # a closure has no trim, so it also builds the effect of the action into v, and only it
    reach = explorer.reachable_set(system, start, explorer.Bounds())
    assert [key[0] for key in reach.keys] == ["s", "p", "t", "v"]
    assert _with_effect(system.actions) == [into_p, into_t, dead, aside]
    assert calls == [aside.body]


def test_a_second_contract_call_on_a_gadget_normalises_nothing(monkeypatch):
    calls = _counting_effect(monkeypatch)
    g = build_gadget(parse_delta_token("m2"), FORWARD, ("g1", "g2", "g3"))
    first = gadget_contract_set(g, 3, ("d2",), 60)
    assert calls
    calls.clear()
    assert gadget_contract_set(g, 3, ("d2",), 60) == first
    assert gadget_contract_set(g, 5, (), 60) == expected_exit_set(g, 5, ())
    assert calls == []


def test_a_compile_that_reuses_cached_pieces_searches_without_normalising(monkeypatch, clear_compile_caches):
    calls = _counting_effect(monkeypatch)
    first = load_machine("inc-dec")
    # another machine: an extra state that no action names, so its compile finds every piece the first built
    second = dataclasses.replace(first, states=(*first.states, "x"))
    bounds = explorer.Bounds(10_000, 48, 1000, 20_000)
    assert explorer.differential_check(first, bounds, bounds).status == "agree"
    assert calls
    calls.clear()
    report = explorer.differential_check(second, bounds, bounds)
    assert report.status == "agree" and report.prvass_verdict.stats.visited > 1
    assert "x" in report.compiled.system.states
    assert calls == []


def test_searches_toward_other_targets_match_searches_of_fresh_copies():
    # the effects are shared by every search of a system, whatever its trim;
    # each search filters the actions by its own, so reusing them changes nothing
    compiled = compile_machine(load_machine("inc-dec"))
    system = compiled.system
    start = Configuration(compiled.start, (), 0)
    bounds = explorer.Bounds(10_000, 48, 1000, 20_000)
    gadget = next(iter(compiled.bookkeeping))
    targets = (compiled.cover_target, "t", gadget.internal_states[0], None, compiled.cover_target)
    built = []  # per copy, the positions of the actions whose effect its search built
    for target in targets:
        # a dataclasses.replace copy of an action is a new instance, so it has no effect yet
        fresh = dataclasses.replace(system, actions=tuple(dataclasses.replace(a) for a in system.actions))
        assert _with_effect(fresh.actions) == []
        got, want = (explorer._bfs(explorer._family(model, start, bounds, target), bounds) for model in (system, fresh))
        assert list(got[1]) == list(want[1])
        assert (got[0].outcome, got[0].trace, got[0].stats[:2]) == (want[0].outcome, want[0].trace, want[0].stats[:2])
        built.append({i for i, action in enumerate(fresh.actions) if "effect" in vars(action)})
    # the trims differ, so the copies built different effects, and the shared actions hold them all
    assert len(set(map(len, built))) > 1
    assert {i for i, action in enumerate(system.actions) if "effect" in vars(action)} >= set().union(*built)


# the caches each model type may hold beside its fields, each a pure function of the fields
_DERIVED = {
    Prvass: {"by_source": lambda sys: group_by_source(sys.actions)},
    MinskyMachine: {"by_source": lambda m: group_by_source(m.actions)},
    Action: {"effect": lambda action: _effect(action.body)},
    MinskyAction: {},
    Gadget: {"system": lambda g: Prvass((g.entry, *g.internal_states, g.exit), STACK_ALPHABET, g.actions)},
}


def _assert_holds_only_fields_and_derived_caches(obj):
    derived = _DERIVED[type(obj)]
    fields = {f.name for f in dataclasses.fields(obj)}
    extra = set(vars(obj)) - fields
    assert extra <= set(derived), (obj, extra)
    for name in extra:
        assert vars(obj)[name] == derived[name](obj), (obj, name)


def test_no_search_adds_state_to_a_model():
    bounds = explorer.Bounds(10_000, 48, 1000, 20_000)
    machine = load_machine("swap")
    report = explorer.differential_check(machine, bounds, bounds)
    gadget = build_gadget(parse_delta_token("t3"), FORWARD, ("g1", "g2", "g3"))
    assert gadget_contract_set(gadget, 6, ("m2",), 60) == expected_exit_set(gadget, 6, ("m2",))
    closed = Prvass(("s", "p"), ("a",), (Action("s", (push("a"),), "p"), Action("p", (pop("a"), RESET), "s")))
    assert explorer.reachable_set(closed, Configuration("s", (), 0), bounds).complete
    assert explorer.reachable_set(machine, MinskyConfig(machine.source, (0, 0)), bounds).stats.visited > 1
    gadgets = [*report.compiled.bookkeeping, gadget]
    models_seen = [machine, report.compiled.system, closed, *gadgets, *(vars(g).get("system") for g in gadgets)]
    objects = [*filter(None, models_seen)]
    objects += [action for model in objects for action in model.actions]
    assert {type(obj) for obj in objects} == set(_DERIVED)
    for obj in objects:
        _assert_holds_only_fields_and_derived_caches(obj)
    # the searches did build caches, so the check above is not vacuous
    assert {name for obj in objects for name in vars(obj)} >= {"by_source", "effect", "system"}
