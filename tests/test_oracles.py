"""Brute-force certification of the two-approximations identity and its lemma."""

import itertools

import pytest

from prvass.relations import (
    ALPHABET,
    TwoApproximationsReport,
    WeakMode,
    _backward_ceilings,
    _forward_ceilings,
    check_monotone_pairs_lemma,
    check_two_approximations,
    compose_image,
    compose_member,
    rel_spec,
)


def test_single_mult_holds():
    report = check_two_approximations([rel_spec("m2")], 50)
    assert report.holds and report.counterexample is None


def test_three_step_sequence_holds():
    report = check_two_approximations([rel_spec("m2"), rel_spec("d2"), rel_spec("t3")], 60)
    assert report.holds


class _FiniteRelation:
    def __init__(self, pairs):
        self._map = dict(pairs)

    def apply(self, m):
        return self._map.get(m)

    def left_ceiling(self, n):
        preimages = [p for p, v in self._map.items() if v == n]
        return max(preimages) if preimages else -1


def test_monotonicity_hypothesis_is_necessary():
    # the crossing relation {(0,1), (1,0)} is not strictly monotone and the
    # identity fails on it: (0,0) is in both weak compositions but not exact
    broken = _FiniteRelation([(0, 1), (1, 0)])
    report = check_two_approximations([broken], 10)
    assert not report.holds
    assert report.counterexample == (0, 0)


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        TwoApproximationsReport((), 5, True, (1, 2))


def test_sequence_preconditions():
    with pytest.raises(ValueError):
        check_two_approximations([], 10)
    with pytest.raises(ValueError):
        check_two_approximations([rel_spec("m2")] * 5, 10)
    with pytest.raises(ValueError):
        check_monotone_pairs_lemma([], 10)
    with pytest.raises(ValueError):
        check_two_approximations([rel_spec("m2")], -5)
    with pytest.raises(ValueError):
        check_monotone_pairs_lemma([rel_spec("m2")], -1)
    assert check_two_approximations([rel_spec("m2")], 0).holds
    assert check_monotone_pairs_lemma([rel_spec("m2")], 0).holds


def test_monotone_pairs_lemma_examples():
    assert check_monotone_pairs_lemma([rel_spec("m2"), rel_spec("m3")], 40).holds
    assert check_monotone_pairs_lemma([rel_spec("d2")], 40).holds
    assert check_monotone_pairs_lemma([rel_spec("t2"), rel_spec("t3")], 40).holds


def test_lemma_violated_by_broken_relation():
    report = check_monotone_pairs_lemma([_FiniteRelation([(0, 1), (1, 0)])], 10)
    assert not report.holds
    (m, n), (m_back, n_back) = report.violation
    assert n_back <= n and m_back > m


def _assert_ceilings_match_enumeration(seq, domain, bound):
    # compose_member(seq, mode, m, n, bound) is n in compose_image(seq, mode,
    # m, bound), so each image is built once per m and tested for every n
    fwd = _forward_ceilings(seq, domain)
    bwd = _backward_ceilings(seq, domain)
    for m in range(domain + 1):
        forward = compose_image(seq, WeakMode.FORWARD_WEAK, m, bound)
        backward = compose_image(seq, WeakMode.BACKWARD_WEAK, m, bound)
        for n in range(domain + 1):
            assert (n <= fwd[m]) == (n in forward)
            assert (m <= bwd[n]) == (n in backward)


def test_ceiling_tables_match_enumeration():
    # the section-ceiling fast path must agree with compose_member's dumb
    # enumeration; exhaustive for every sequence of length <= 2 on a small
    # rectangle
    domain = 8
    bound = 9 * (domain + 1)
    specs = [rel_spec(sym) for sym in ALPHABET]
    for length in (1, 2):
        for seq in itertools.product(specs, repeat=length):
            _assert_ceilings_match_enumeration(seq, domain, bound)


def test_ceiling_tables_match_enumeration_length_three_spot():
    domain = 6
    bound = 27 * (domain + 1)
    specs = [rel_spec(sym) for sym in ALPHABET]
    picked = list(itertools.product(specs, repeat=3))[::18]  # every 18th of 216
    for seq in picked:
        _assert_ceilings_match_enumeration(seq, domain, bound)


def test_identity_through_the_enumeration_route():
    # the same comparison check_two_approximations performs, but routed
    # entirely through the enumeration (compose_member, and compose_image
    # for the weak modes) on a tiny rectangle
    for tokens in (("m2",), ("d3",), ("m2", "d2"), ("t2", "m3")):
        seq = [rel_spec(t) for t in tokens]
        bound = 9 ** len(seq) * 9
        for m in range(9):
            both = compose_image(seq, WeakMode.FORWARD_WEAK, m, bound) & compose_image(
                seq, WeakMode.BACKWARD_WEAK, m, bound
            )
            for n in range(9):
                exact = compose_member(seq, WeakMode.EXACT, m, n, bound)
                assert exact == (n in both)
