import dataclasses
import itertools

import pytest

from prvass.formats import serialize_prvass
from prvass.models import (
    Action,
    Configuration,
    DEC,
    INC,
    MinskyAction,
    MinskyMachine,
    Prvass,
    RESET,
    pop,
    push,
    step_sequence,
    validate,
)
from prvass.reduction import (
    BACKWARD,
    FORWARD,
    Gadget,
    GadgetBoundError,
    InvalidModelError,
    STACK_ALPHABET,
    _tail,
    build_gadget,
    compile_machine,
    gadget_contract_set,
)
from prvass.relations import (
    ALPHABET,
    DIV,
    MULT,
    TEST,
    parse_delta_token,
)

from conftest import expected_exit_set


def _gadget(token, direction, prefix="g"):
    return build_gadget(parse_delta_token(token), direction, (f"{prefix}1", f"{prefix}2", f"{prefix}3"))


def test_forward_mult2_reference_wiring():
    g = _gadget("m2", FORWARD)
    assert g.actions == (
        Action("g1", (pop("a"), INC, INC), "g1"),
        Action("g1", (pop("hash"), push("m2"), push("hash")), "g2"),
        Action("g2", (DEC, push("a")), "g2"),
        Action("g2", (RESET,), "g3"),
    )


def test_backward_mult2_reference_wiring():
    g = _gadget("m2", BACKWARD)
    assert g.actions == (
        Action("g1", (pop("a"), pop("a"), INC), "g1"),
        Action("g1", (pop("hash"), pop("m2"), push("hash")), "g2"),
        Action("g2", (DEC, push("a")), "g2"),
        Action("g2", (RESET,), "g3"),
    )


def test_forward_test3_has_one_middle_action_per_remainder():
    g = _gadget("t3", FORWARD)
    middles = [a for a in g.actions if a.source == "g1" and a.target == "g2"]
    assert len(middles) == 2
    assert middles[0].body == (pop("a"), INC, pop("hash"), push("t3"), push("hash"))
    assert middles[1].body == (
        pop("a"),
        pop("a"),
        INC,
        INC,
        pop("hash"),
        push("t3"),
        push("hash"),
    )


def test_gadget_direction_validation():
    with pytest.raises(ValueError):
        build_gadget(parse_delta_token("m2"), "sideways", ("g1", "g2", "g3"))


def _reference_gadget(sym, direction, names):
    # the wiring as it was written before gadgets were instantiated from a
    # shared shape table: every instruction built afresh for every gadget
    f = sym.factor
    q1, q2, q3 = names
    consume_one = (pop("a"),) + (INC,) * f
    consume_group = (pop("a"),) * f + (INC,)
    if sym.kind == MULT:
        loop = consume_one if direction == FORWARD else consume_group
    elif sym.kind == DIV:
        loop = consume_group if direction == FORWARD else consume_one
    else:
        loop = (pop("a"),) * f + (INC,) * f
    if direction == FORWARD:
        record = (pop("hash"), push(sym.token), push("hash"))
    else:
        record = (pop("hash"), pop(sym.token), push("hash"))
    if sym.kind == TEST:
        middles = tuple(Action(q1, (pop("a"),) * g + (INC,) * g + record, q2) for g in range(1, f))
    else:
        middles = (Action(q1, record, q2),)
    actions = (
        (Action(q1, loop, q1),)
        + middles
        + (Action(q2, (DEC, push("a")), q2), Action(q2, (RESET,), q3))
    )
    return Gadget(q1, q3, (q2,), actions, sym, direction)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("sym", ALPHABET, ids=lambda sym: sym.token)
def test_gadget_matches_the_reference_wiring(sym, direction):
    names = ("x/q1", "x/q2", "x/q3")
    got = build_gadget(sym, direction, names)
    want = _reference_gadget(sym, direction, names)
    for field in dataclasses.fields(Gadget):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def test_contract_forward_mult2_from_three():
    got = gadget_contract_set(_gadget("m2", FORWARD), 3, (), 60)
    assert got == {(("m2",), n) for n in range(7)}  # 0 <= n <= 2*3


def test_contract_forward_div2_from_five_is_empty():
    assert gadget_contract_set(_gadget("d2", FORWARD), 5, (), 60) == set()


def test_contract_backward_mult2_from_six():
    got = gadget_contract_set(_gadget("m2", BACKWARD), 6, ("m2",), 60)
    assert got == {((), n) for n in range(4)}  # (n, 6) backward-weak iff n <= 3


def test_contract_backward_requires_matching_record_symbol():
    assert gadget_contract_set(_gadget("m2", BACKWARD), 6, ("d3",), 60) == set()
    assert gadget_contract_set(_gadget("m2", BACKWARD), 6, (), 60) == set()


def test_contract_equality_small_grid():
    # the full grid (m <= 12, records of length <= 2) runs in the acceptance
    # suite; this keeps a quick version on every gadget
    records = [(), ("m2",), ("t3",)]
    for sym in ALPHABET:
        for direction in (FORWARD, BACKWARD):
            g = _gadget(sym.token, direction)
            for m in range(7):
                for record in records:
                    got = gadget_contract_set(g, m, record, 80)
                    assert got == expected_exit_set(g, m, record), (sym.token, direction, m, record)


def test_contract_bound_exhaustion_raises():
    with pytest.raises(GadgetBoundError):
        gadget_contract_set(_gadget("m3", FORWARD), 10, (), 4)


def test_contract_rejects_a_negative_entry_count():
    with pytest.raises(ValueError) as exc:
        gadget_contract_set(_gadget("m2", FORWARD), -1, (), 20)
    assert str(exc.value) == "entry count must be non-negative, got -1"


@pytest.mark.parametrize("bound", [0, -3])
def test_contract_rejects_a_bound_below_one(bound):
    # Bounds would reject it too, but naming a field the caller never passed
    with pytest.raises(ValueError) as exc:
        gadget_contract_set(_gadget("m2", FORWARD), 0, (), bound)
    assert str(exc.value) == f"bound must be at least 1, got {bound}"


def _one_action_gadget(body):
    # a hand-built gadget whose single action goes straight from entry to exit
    return Gadget("e1", "e3", ("e2",), (Action("e1", body, "e3"),), parse_delta_token("m2"), FORWARD)


@pytest.mark.parametrize(
    "body, m, record, message",
    [
        ((pop("hash"), pop("bot")), 0, (), r"lost its bottom symbol: \(\)"),
        ((pop("hash"), pop("bot"), push("hash")), 0, (), "lost its bottom symbol"),
        ((pop("hash"),), 0, (), r"lost its marker: \('bot',\)"),
        ((pop("a"), pop("a"), pop("hash")), 2, ("m2",), "lost its marker"),
        # a record symbol above the marker, alone or under an a-run
        ((push("m2"),), 0, (), "lost its marker"),
        ((push("m2"), push("a")), 1, ("d2",), "lost its marker"),
    ],
)
def test_contract_exit_stack_out_of_shape_raises(body, m, record, message):
    with pytest.raises(GadgetBoundError, match=message):
        gadget_contract_set(_one_action_gadget(body), m, record, 20)


def test_contract_decomposes_at_the_last_marker():
    got = gadget_contract_set(_one_action_gadget(()), 3, ("m2", "hash", "d3"), 20)
    assert got == {(("m2", "hash", "d3"), 3)}
    assert gadget_contract_set(_one_action_gadget((pop("a"),)), 1, (), 20) == {((), 0)}


def test_contract_drops_exits_whose_counter_is_not_zero():
    # every real gadget resets before its exit, so only a hand-built one shows this
    assert gadget_contract_set(_one_action_gadget((INC,)), 2, (), 20) == set()
    assert gadget_contract_set(_one_action_gadget((pop("a"), INC)), 2, (), 20) == set()
    assert gadget_contract_set(_one_action_gadget(()), 2, (), 20) == {((), 2)}


def _inc_dec_machine():
    return MinskyMachine(
        ("s", "q", "t"),
        (MinskyAction("s", 0, "inc", "q"), MinskyAction("q", 0, "dec", "t")),
        "s",
        "t",
    )


def test_compile_structure():
    compiled = compile_machine(_inc_dec_machine())
    sys = compiled.system
    assert validate(sys) == []
    assert sys.stack_alphabet == STACK_ALPHABET
    # every machine state keeps its name in the compiled control
    assert set(_inc_dec_machine().states) <= set(sys.states)
    # the entry state is the system's init and has no incoming actions, the
    # cover target no outgoing
    assert sys.init == compiled.start
    assert all(a.target != compiled.start for a in sys.actions)
    assert all(a.source != compiled.cover_target for a in sys.actions)
    init = [a for a in sys.actions if a.source == compiled.start]
    assert len(init) == 1
    assert init[0].body == (push("bot"), push("hash"), push("a"))
    assert init[0].target == "s"
    final = [a for a in sys.actions if a.target == compiled.cover_target]
    assert len(final) == 1
    assert final[0].body == (pop("a"), pop("hash"), pop("bot"))
    check = [a for a in sys.actions if a.source == "t" and a.target == final[0].source]
    assert len(check) == 1
    assert check[0].body == (pop("a"), pop("hash"), push("hash"), push("a"))
    # one forward gadget per machine action, glued with empty bodies
    glue_in = [a for a in sys.actions if a.source == "s" and a.body == ()]
    assert len(glue_in) == 1 and glue_in[0].target.endswith("/q1")
    # one backward gadget per symbol, looping through the replay state
    replay = final[0].source
    entered = [a.target for a in sys.actions if a.source == replay and a.body == ()]
    assert len(entered) == len(ALPHABET)
    assert len(compiled.bookkeeping) == len(ALPHABET) + 2


def test_gadget_hash_agrees_with_equality():
    # two actions of one symbol give two forward gadgets of the same shape
    m = MinskyMachine(
        ("s", "p", "t"),
        (MinskyAction("s", 0, "inc", "p"), MinskyAction("p", 0, "inc", "t")),
        "s",
        "t",
    )
    first, second = compile_machine(m).bookkeeping, compile_machine(m).bookkeeping
    assert len(first) == len(ALPHABET) + len(m.actions)
    assert list(first.items()) == list(second.items())
    # compiles share their gadgets, so compare each with one built apart on the same names
    for g in first:
        h = build_gadget(g.symbol, g.direction, (g.entry, *g.internal_states, g.exit))
        assert h is not g and h == g and hash(h) == hash(g)
        assert hash(dataclasses.replace(g)) == hash(g)
    # each compile still owns its bookkeeping
    kept = list(second.items())
    first.clear()
    assert list(second.items()) == kept
    assert list(compile_machine(m).bookkeeping.items()) == kept
    # the same names wired for another symbol: equal hashes, unequal gadgets
    mult = _gadget("m2", FORWARD)
    div = _gadget("d2", FORWARD)
    assert hash(mult) == hash(div) and mult != div
    shared = {mult: "m2", div: "d2"}
    assert len(shared) == 2 and shared[mult] == "m2" and shared[div] == "d2"


def test_gadget_names_do_not_depend_on_compile_order(clear_compile_caches):
    # a0/m2/q1, a1/d2/q2 and the back-m2 pair collide with gadget names, the
    # a0/i0 and a1/d1 states only share a gadget's a<i>/ start, and b, t'
    # and s' collide with the replay, cover and start states
    odd = ("a0/i0/q1", "a1/d1/q2", "a0/m2/q1", "a1/d2/q2", "back-m2/m2/q1", "back-m2/m2/q1'", "b", "t'", "s'")
    inc_dec = (MinskyAction("s", 0, "inc", "b"), MinskyAction("b", 0, "dec", "t"))
    machines = [
        MinskyMachine(("s", "b", "t"), inc_dec, "s", "t"),
        MinskyMachine(("s", "t", *odd), inc_dec, "s", "t"),
        MinskyMachine(("s", "t", *odd), (MinskyAction("s", 0, "inc", "a0/i0/q1"),) + inc_dec[1:], "s", "t"),
        MinskyMachine(("s", "t", "a0/m2/q1"), (MinskyAction("s", 1, "zero", "t"),), "s", "t"),
    ]

    def compile_all(ms):
        return [
            (serialize_prvass(c.system), list(c.bookkeeping.items()))
            for c in map(compile_machine, ms)
        ]

    forward = compile_all(machines)
    clear_compile_caches()
    assert compile_all(machines[::-1])[::-1] == forward

    # two compiles of one machine splice in the very same pieces: every
    # action, every gadget and every group of the source index
    first, again = compile_machine(machines[1]), compile_machine(machines[1])
    assert list(map(id, again.system.actions)) == list(map(id, first.system.actions))
    assert list(map(id, again.bookkeeping)) == list(map(id, first.bookkeeping))
    index, other = first.system.by_source, again.system.by_source
    assert index is not other and all(other[state] is group for state, group in index.items())

    # machines 1 and 2 differ only in their first action's target, so they
    # share the second forward piece and the tail, backward gadgets included
    back_gadgets, tail = _tail("t", "b'", "t''", ("back-m2/m2/q1", "back-m2/m2/q1'"))
    back_actions = tail.actions[1:-1]  # between the equals-one check and the final action
    second = compile_machine(machines[2])
    shared = 1 + len(list(first.bookkeeping)[0].actions) + 2  # the head and the first forward piece
    assert list(map(id, second.system.actions[shared:])) == list(map(id, first.system.actions[shared:]))
    assert list(second.bookkeeping)[1] is list(first.bookkeeping)[1]
    assert second.system.by_source["b'"] is first.system.by_source["b'"]
    for compiled in (first, second):
        spliced = compiled.system.actions[-1 - len(back_actions) : -1]
        assert list(map(id, spliced)) == list(map(id, back_actions))
        assert list(map(id, compiled.bookkeeping))[2:] == list(map(id, back_gadgets))

    compiled = compile_machine(machines[1])
    states = compiled.system.states
    assert validate(compiled.system) == []
    assert (compiled.start, compiled.cover_target) == ("s''", "t''")
    assert "b'" in states and "back-m2/m2/q1''" in states
    entries = [g.entry for g in compiled.bookkeeping]
    assert entries[0] == "a0/m2/q1'" and entries[2] == "back-m2/m2/q1''"
    assert list(compiled.bookkeeping)[1].internal_states == ("a1/d2/q2'",)
    # the near misses prime nothing
    assert "a0/i0/q1'" not in states and "a1/d1/q2'" not in states
    # the zero test on counter 1 is a t3 gadget: a0/m2/q1 does not collide with it
    assert list(compile_machine(machines[3]).bookkeeping)[0].entry == "a0/t3/q1"


def test_compile_renames_extra_states_on_collision():
    m = MinskyMachine(
        ("s", "b", "t'"),
        (MinskyAction("s", 0, "inc", "b"), MinskyAction("b", 0, "dec", "t'")),
        "s",
        "t'",
    )
    compiled = compile_machine(m)
    assert compiled.cover_target not in m.states
    replay_candidates = [a.source for a in compiled.system.actions if a.target == compiled.cover_target]
    assert replay_candidates[0] not in m.states
    assert validate(compiled.system) == []


def test_compile_rejects_malformed_machine():
    bad = MinskyMachine(("s",), (MinskyAction("s", 0, "inc", "nowhere"),), "s", "s")
    with pytest.raises(InvalidModelError) as exc:
        compile_machine(bad)
    assert exc.value.diagnostics


def test_check_equals_one_action_fires_iff_count_is_one():
    compiled = compile_machine(_inc_dec_machine())
    check = [a for a in compiled.system.actions if a.source == "t" and len(a.body) == 4][0]
    for record in ((), ("m2",), ("m2", "d2")):
        for n in range(6):
            stack = ("bot",) + record + ("hash",) + ("a",) * n
            result = step_sequence((stack, 0), check.body)
            if n == 1:
                assert result == (stack, 0)
            else:
                assert result is None


def test_final_action_fires_iff_stack_is_exactly_bot_hash_a():
    # exhaustive over stacks of length <= 6 whose bottom marker, if present,
    # really is at the bottom; every reachable stack is of that shape because
    # the marker is pushed exactly once, by the initialization action
    compiled = compile_machine(_inc_dec_machine())
    final = [a for a in compiled.system.actions if a.target == compiled.cover_target][0]
    expected_stack = ("bot", "hash", "a")
    for k in range(7):
        for stack in itertools.product(STACK_ALPHABET, repeat=k):
            if "bot" in stack[1:]:
                continue
            result = step_sequence((stack, 0), final.body)
            if stack == expected_stack:
                assert result == ((), 0)
            else:
                assert result is None
