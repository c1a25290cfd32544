import pytest

from prvass.models import MinskyAction, MinskyConfig, MinskyMachine, minsky_successors
from prvass.relations import (
    ALPHABET,
    CompositionBoundError,
    DeltaSymbol,
    WeakMode,
    compose_image,
    compose_member,
    godel_decode,
    godel_encode,
    is_strictly_monotone,
    minsky_action_to_symbol,
    parse_delta_token,
    rel_spec,
    weak_member,
)

from conftest import FiniteRelation


def test_encode_examples():
    assert godel_encode(0, 0) == 1
    assert godel_encode(2, 1) == 12
    assert godel_encode(5, 0) == 32


def test_decode_examples():
    assert godel_decode(12) == (2, 1)
    assert godel_decode(1) == (0, 0)
    assert godel_decode(10) is None  # factor 5
    with pytest.raises(ValueError):
        godel_decode(0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: weak_member(rel_spec("m2"), "exact", 1, 2), "unknown mode: 'exact'"),
        (lambda: godel_encode(-1, 0), "counters must be non-negative, got (-1, 0)"),
        (lambda: godel_encode(2, -3), "counters must be non-negative, got (2, -3)"),
    ],
    ids=["weak-member-mode", "encode-negative-first", "encode-negative-second"],
)
def test_a_bad_argument_is_a_value_error_that_names_it(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_encode_decode_round_trip():
    for n0 in range(11):
        for n1 in range(11):
            assert godel_decode(godel_encode(n0, n1)) == (n0, n1)


def test_alphabet_has_exactly_six_symbols():
    assert len(ALPHABET) == 6
    assert len(set(ALPHABET)) == 6
    assert {s.token for s in ALPHABET} == {"m2", "m3", "d2", "d3", "t2", "t3"}
    with pytest.raises(ValueError):
        DeltaSymbol(("mult", 5))
    with pytest.raises(ValueError):
        parse_delta_token("x2")
    # parsing hands back the shared member
    for s in ALPHABET:
        assert parse_delta_token(s.token) is s


def test_spec_apply_examples():
    assert rel_spec("d3").apply(12) == 4
    assert rel_spec("d3").apply(10) is None
    assert rel_spec("t2").apply(4) is None
    assert rel_spec("t2").apply(3) == 3
    assert rel_spec("m3").apply(7) == 21


def test_weak_member_examples():
    m2 = rel_spec("m2")
    assert weak_member(m2, WeakMode.FORWARD_WEAK, 3, 5)  # 2*3 = 6 >= 5
    assert weak_member(m2, WeakMode.BACKWARD_WEAK, 2, 6)  # shrunk from 3
    assert not weak_member(m2, WeakMode.BACKWARD_WEAK, 4, 6)  # would need 3 >= 4


def _max_preimages(r, value_bound, search_bound):
    # direct search oracle: largest argument mapping exactly onto each value
    best = [-1] * (value_bound + 1)
    for arg in range(search_bound + 1):
        v = r.apply(arg)
        if v is not None and v <= value_bound:
            best[v] = max(best[v], arg)
    return best


def test_weak_closed_forms_match_direct_search():
    # all inputs <= 200, searching shrunk values up to 10x the inputs
    limit = 200
    for sym in ALPHABET:
        r = rel_spec(sym)
        back = _max_preimages(r, limit, 10 * limit)
        for m in range(limit + 1):
            v = r.apply(m)
            for n in range(limit + 1):
                fwd = v is not None and v >= n
                assert weak_member(r, WeakMode.FORWARD_WEAK, m, n) == fwd
                assert weak_member(r, WeakMode.BACKWARD_WEAK, m, n) == (m <= back[n])
                assert weak_member(r, WeakMode.EXACT, m, n) == (v == n)


def test_weak_relations_contain_the_exact_relation():
    for sym in ALPHABET:
        r = rel_spec(sym)
        for m in range(201):
            n = r.apply(m)
            if n is None or n > 200:
                continue
            assert weak_member(r, WeakMode.FORWARD_WEAK, m, n)
            assert weak_member(r, WeakMode.BACKWARD_WEAK, m, n)


def test_all_six_primitives_strictly_monotone():
    for sym in ALPHABET:
        assert is_strictly_monotone(rel_spec(sym), 100)


def test_broken_relation_is_not_monotone():
    assert not is_strictly_monotone(FiniteRelation([(0, 1), (1, 0)]), 10)
    # equal images
    assert not is_strictly_monotone(FiniteRelation([(0, 1), (1, 1)]), 10)
    # a gap in the domain between the crossing pairs
    assert not is_strictly_monotone(FiniteRelation([(0, 2), (5, 1)]), 10)
    # the first pair crosses the last one
    assert not is_strictly_monotone(FiniteRelation([(0, 5), (1, 6), (2, 7), (3, 1)]), 10)
    # a crossing beyond the domain bound is not looked at
    assert is_strictly_monotone(FiniteRelation([(0, 5), (1, 6), (2, 7), (3, 1)]), 2)


def test_minsky_action_to_symbol_table():
    cases = {
        (0, "inc"): "m2",
        (1, "inc"): "m3",
        (0, "dec"): "d2",
        (1, "dec"): "d3",
        (0, "zero"): "t2",
        (1, "zero"): "t3",
    }
    for (c, op), token in cases.items():
        sym = minsky_action_to_symbol(MinskyAction("q", c, op, "r"))
        assert sym.token == token
        # the shared alphabet member, not an equal copy
        assert any(sym is member for member in ALPHABET)


def test_encoding_coherence_with_machine_steps():
    # a machine step is firable exactly when the matching partial function
    # is defined on the encoding, and the values line up; exhaustive <= 8
    for c in (0, 1):
        for op in ("inc", "dec", "zero"):
            action = MinskyAction("s", c, op, "t")
            machine = MinskyMachine(("s", "t"), (action,), "s", "t")
            spec = rel_spec(minsky_action_to_symbol(action))
            for n0 in range(9):
                for n1 in range(9):
                    encoded = godel_encode(n0, n1)
                    succs = minsky_successors(machine, MinskyConfig("s", (n0, n1)))
                    image = spec.apply(encoded)
                    if succs:
                        assert image == godel_encode(*succs[0][1].counters)
                    else:
                        assert image is None


def test_compose_member_examples():
    assert compose_member([rel_spec("m2"), rel_spec("d3")], WeakMode.EXACT, 3, 2, 100)
    assert compose_member([], WeakMode.EXACT, 7, 7, 100)
    assert not compose_member([], WeakMode.EXACT, 7, 8, 100)
    # 1 -> 2 -> 3 is forward-weak reachable because 2*2 = 4 >= 3
    assert compose_member([rel_spec("m2"), rel_spec("m2")], WeakMode.FORWARD_WEAK, 1, 3, 100)
    assert not compose_member([rel_spec("m2")], WeakMode.EXACT, 3, 5, 100)


def test_compose_member_reports_bound_escape():
    with pytest.raises(CompositionBoundError):
        compose_member([rel_spec("m3"), rel_spec("m3")], WeakMode.EXACT, 4, 36, 10)


def test_weak_membership_argument_checks():
    with pytest.raises(ValueError):
        weak_member(rel_spec("m2"), WeakMode.EXACT, -1, 0)
    for rs, mode, m, n, bound in (
        ([rel_spec("m2")], WeakMode.EXACT, -3, -6, 100),
        ([], WeakMode.EXACT, -1, -1, 100),
        ([rel_spec("m2")], WeakMode.FORWARD_WEAK, 1, -1, 100),
        ([rel_spec("m2")], WeakMode.BACKWARD_WEAK, 1, 2, -1),
    ):
        with pytest.raises(ValueError):
            compose_member(rs, mode, m, n, bound)
    for m, bound in ((-1, 100), (1, -1)):
        with pytest.raises(ValueError):
            compose_image([rel_spec("m2")], WeakMode.FORWARD_WEAK, m, bound)
    with pytest.raises(ValueError):
        is_strictly_monotone(rel_spec("m2"), 1)
