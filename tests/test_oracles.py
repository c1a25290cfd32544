"""Brute-force certification of the two-approximations identity and its lemma."""

import itertools
import random
import time

import pytest

from prvass import relations
from prvass.cli import main
from prvass.relations import (
    ALPHABET,
    CompositionBoundError,
    WeakMode,
    _backward_ceilings,
    _checked_sequence,
    _forward_ceilings,
    check_monotone_pairs_lemma,
    check_two_approximations,
    compose_image,
    compose_member,
    rel_spec,
    weak_member,
)

from conftest import FiniteRelation


def test_single_mult_holds():
    report = check_two_approximations([rel_spec("m2")], 50)
    assert report.holds and report.counterexample is None


def test_three_step_sequence_holds():
    report = check_two_approximations([rel_spec("m2"), rel_spec("d2"), rel_spec("t3")], 60)
    assert report.holds


def test_monotonicity_hypothesis_is_necessary():
    # the crossing relation {(0,1), (1,0)} is not strictly monotone and the
    # identity fails on it: (0,0) is in both weak compositions but not exact
    broken = FiniteRelation([(0, 1), (1, 0)])
    report = check_two_approximations([broken], 10)
    assert not report.holds
    assert report.counterexample == (0, 0)


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
    report = check_monotone_pairs_lemma([FiniteRelation([(0, 1), (1, 0)])], 10)
    assert not report.holds
    (m, n), (m_back, n_back) = report.violation
    assert n_back <= n and m_back > m


def _weak_image_by_enumeration(rs, mode, m, bound):
    # the pairwise enumeration compose_image ran for both weak modes before
    # its forward-weak step became one pass: every candidate in [0, bound]
    # against every intermediate value, one weak_member call each
    values = {m}
    for r in rs:
        values = {v for v in range(bound + 1) if any(weak_member(r, mode, p, v) for p in values)}
        if not values:
            break
    return values


def _assert_ceilings_match_enumeration(seq, domain, bound):
    # the forward table is checked against the test's own enumeration, not
    # against compose_image's forward step, which is a max formula too;
    # compose_member(seq, mode, m, n, bound) is n in compose_image(seq, mode,
    # m, bound), so each image is built once per m and tested for every n
    fwd = _forward_ceilings(seq, domain)
    bwd = _backward_ceilings(seq, domain)
    for m in range(domain + 1):
        forward = _weak_image_by_enumeration(seq, WeakMode.FORWARD_WEAK, m, bound)
        backward = compose_image(seq, WeakMode.BACKWARD_WEAK, m, bound)
        for n in range(domain + 1):
            assert (n <= fwd[m]) == (n in forward)
            assert (m <= bwd[n]) == (n in backward)


# (sequences, domain, bound) of the ceiling cross-checks: every sequence of
# length <= 2 on a small rectangle, every 18th of the 216 of length 3, and
# arbitrary finite relations, whose values stay in [0, 12] so a bound of 13
# enumerates every intermediate


def _short_sequences():
    specs = [rel_spec(sym) for sym in ALPHABET]
    return [seq for length in (1, 2) for seq in itertools.product(specs, repeat=length)], 8, 9 * 9


def _length_three_spot():
    specs = [rel_spec(sym) for sym in ALPHABET]
    return list(itertools.product(specs, repeat=3))[::18], 6, 27 * 7


def _random_finite():
    return _random_finite_sequences(300, seed=20190), 13, 13


def test_ceiling_tables_match_enumeration():
    # the section-ceiling fast path must agree with the enumeration
    for seqs, domain, bound in (_short_sequences(), _random_finite()):
        for seq in seqs:
            _assert_ceilings_match_enumeration(seq, domain, bound)


def test_growth_guard_names_its_direction(monkeypatch, capsys):
    monkeypatch.setattr(relations, "_GROWTH_GUARD", 50)
    m2, d2 = rel_spec("m2"), rel_spec("d2")
    with pytest.raises(CompositionBoundError, match="^forward ceiling 80 escapes the growth guard$"):
        check_two_approximations([m2, m2], 40)
    with pytest.raises(CompositionBoundError, match="^backward ceiling 80 escapes the growth guard$"):
        check_two_approximations([d2, d2], 40)
    assert main(["prop1", "m2", "m2", "--domain", "40"]) == 3
    assert "forward ceiling 80 escapes the growth guard" in capsys.readouterr().err


def test_ceiling_tables_match_enumeration_length_three_spot():
    seqs, domain, bound = _length_three_spot()
    for seq in seqs:
        _assert_ceilings_match_enumeration(seq, domain, bound)


def test_forward_weak_image_is_the_enumeration_without_weak_member(monkeypatch):
    # the forward-weak step is one pass over the intermediate values, with no
    # weak_member call; the backward-weak step still enumerates. Cases: the
    # ceiling cross-checks' sets, entry values above the bound, and bound 0
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return weak_member(*args)

    monkeypatch.setattr(relations, "weak_member", counting)

    def cases(*groups):
        return [(seq, m, bound) for seqs, domain, bound in groups for seq in seqs for m in range(domain + 1)]

    primitives = _short_sequences()[0]
    edges = [(seq, m, 10) for seq in primitives for m in (11, 24, 36, 54)]
    edges += [(seq, m, 0) for seq in primitives for m in range(4)]
    edges += [(seq, m, 0) for seq in _random_finite()[0] for m in range(3)]
    empty = 0
    for seq, m, bound in cases(_short_sequences(), _length_three_spot(), _random_finite()) + edges:
        want = _weak_image_by_enumeration(seq, WeakMode.FORWARD_WEAK, m, bound)
        assert compose_image(seq, WeakMode.FORWARD_WEAK, m, bound) == want, (seq, m, bound)
        empty += not want
    assert calls == 0
    # undefined points and empty images are covered, not only intervals
    assert empty > 100
    # the length-3 spot set's backward images are checked against the
    # backward ceilings by their own test; here they would triple its time
    for seq, m, bound in cases(_short_sequences(), _random_finite()) + edges:
        want = _weak_image_by_enumeration(seq, WeakMode.BACKWARD_WEAK, m, bound)
        assert compose_image(seq, WeakMode.BACKWARD_WEAK, m, bound) == want, (seq, m, bound)
    assert calls > 0


def test_identity_through_the_enumeration_route():
    # the same comparison check_two_approximations performs, but routed
    # through compose_member, and compose_image for the weak modes, instead
    # of the ceiling tables, on a tiny rectangle
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


# the per-cell scan check_two_approximations replaced, in the order the
# report promises; it reads the tables through the module, so a test can
# swap in wrong ones


def _two_approximations_by_cell(rs, domain_bound):
    rs = _checked_sequence(rs, domain_bound)
    exact = relations._exact_values(rs, domain_bound)
    fwd = relations._forward_ceilings(rs, domain_bound)
    bwd = relations._backward_ceilings(rs, domain_bound)
    for m in range(domain_bound + 1):
        for n in range(domain_bound + 1):
            if (exact[m] == n) != (n <= fwd[m] and m <= bwd[n]):
                return (False, (m, n))
    return (True, None)


def _two_approximations_fields(rs, domain_bound):
    r = check_two_approximations(rs, domain_bound)
    return (r.holds, r.counterexample)


def _random_finite_sequences(count, seed):
    # sequences of 1-3 arbitrary partial functions on [0, 12]: no
    # monotonicity, no downward closure
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        seq = []
        for _ in range(rng.randint(1, 3)):
            domain = rng.sample(range(13), rng.randint(0, 13))
            seq.append(FiniteRelation((p, rng.randint(0, 12)) for p in domain))
        out.append(seq)
    return out


def test_identity_checker_matches_the_cell_scan():
    specs = [rel_spec(sym) for sym in ALPHABET]
    for domain in (0, 1, 7, 40):
        for seq in (seq for k in (1, 2, 3) for seq in itertools.product(specs, repeat=k)):
            assert _two_approximations_fields(seq, domain) == _two_approximations_by_cell(seq, domain)
    failed = 0
    for seq in _random_finite_sequences(1200, seed=20190):
        for domain in (0, 1, 5, 13):
            want = _two_approximations_by_cell(seq, domain)
            assert _two_approximations_fields(seq, domain) == want
            failed += not want[0]
    # the first counterexample is compared, not only holds
    assert failed > 100


def test_identity_checker_matches_the_cell_scan_on_wrong_tables(monkeypatch):
    # with right tables the exact pair always lies in both weak rows, so
    # part of each row decision only shows on tables that break that
    rng = random.Random(4242)
    specs = [rel_spec(sym) for sym in ALPHABET]
    domain = 7
    failed = 0
    for seq in (seq for k in (1, 2, 3) for seq in itertools.product(specs, repeat=k)):
        exact = relations._exact_values(seq, domain)
        fwd = _forward_ceilings(seq, domain)
        bwd = _backward_ceilings(seq, domain)
        for table, choices in (
            (exact, [None, *range(domain + 3)]),
            (fwd, range(-1, 2 * domain)),
            (bwd, range(-1, 2 * domain)),
        ):
            if rng.random() < 0.7:
                table[rng.randrange(domain + 1)] = rng.choice(choices)
        monkeypatch.setattr(relations, "_exact_values", lambda rs, d: list(exact))
        monkeypatch.setattr(relations, "_forward_ceilings", lambda rs, d: list(fwd))
        monkeypatch.setattr(relations, "_backward_ceilings", lambda rs, d: list(bwd))
        want = _two_approximations_by_cell(seq, domain)
        assert _two_approximations_fields(seq, domain) == want
        failed += not want[0]
    assert failed > 50


# the quadratic scan check_monotone_pairs_lemma replaced, in the order the
# report promises; like the cell scan above it reads the ceiling tables
# through the module


def _monotone_pairs_by_cell(rs, domain_bound):
    rs = _checked_sequence(rs, domain_bound)
    fwd = relations._forward_ceilings(rs, domain_bound)
    bwd = relations._backward_ceilings(rs, domain_bound)
    min_fwd = [None] * (domain_bound + 1)
    for m in range(domain_bound + 1):
        for n in range(min(fwd[m], domain_bound) + 1):
            if min_fwd[n] is None:
                min_fwd[n] = m
    for n in range(domain_bound + 1):
        if min_fwd[n] is None:
            continue
        for n_back in range(n + 1):
            m_back = min(bwd[n_back], domain_bound)
            if m_back < 0:
                continue
            m_fwd = min_fwd[n]
            if m_back > m_fwd or (n_back < n and m_back >= m_fwd):
                return (False, ((m_fwd, n), (m_back, n_back)))
    return (True, None)


def _monotone_pairs_fields(rs, domain_bound):
    r = check_monotone_pairs_lemma(rs, domain_bound)
    return (r.holds, r.violation)


def test_lemma_checker_matches_the_cell_scan():
    specs = [rel_spec(sym) for sym in ALPHABET]
    for domain in (0, 1, 7, 40, 200):
        for seq in (seq for k in (1, 2, 3) for seq in itertools.product(specs, repeat=k)):
            assert _monotone_pairs_fields(seq, domain) == _monotone_pairs_by_cell(seq, domain)
    failed = 0
    for seq in _random_finite_sequences(1200, seed=20191):
        for domain in (0, 1, 5, 13):
            want = _monotone_pairs_by_cell(seq, domain)
            assert _monotone_pairs_fields(seq, domain) == want
            failed += not want[0]
    # the violation pair is compared, not only holds
    assert failed > 100


def test_lemma_checker_matches_the_cell_scan_on_wrong_tables(monkeypatch):
    # row n fails when an earlier n' has back[n'] >= min_fwd[n] or when
    # back[n] > min_fwd[n]; wrong tables make each part decide rows alone,
    # at equality too, which right tables on the six primitives never do
    rng = random.Random(4243)
    specs = [rel_spec(sym) for sym in ALPHABET]
    domain = 7
    decided_by = {"earlier": 0, "earlier at equality": 0, "own": 0}
    for seq in (seq for k in (1, 2, 3) for seq in itertools.product(specs, repeat=k)):
        for _ in range(3):
            fwd = _forward_ceilings(seq, domain)
            bwd = _backward_ceilings(seq, domain)
            for table in (fwd, bwd):
                for _ in range(rng.randint(0, 2)):
                    table[rng.randrange(domain + 1)] = rng.randrange(-1, 2 * domain)
            monkeypatch.setattr(relations, "_forward_ceilings", lambda rs, d: list(fwd))
            monkeypatch.setattr(relations, "_backward_ceilings", lambda rs, d: list(bwd))
            want = _monotone_pairs_by_cell(seq, domain)
            assert _monotone_pairs_fields(seq, domain) == want
            if want[0]:
                continue
            (m_fwd, n), _ = want[1]
            back = [min(b, domain) for b in bwd]
            earlier = max(back[:n], default=-1)
            own = back[n] > m_fwd
            if earlier >= m_fwd and not own:
                decided_by["earlier"] += 1
                decided_by["earlier at equality"] += earlier == m_fwd
            if own and earlier < m_fwd:
                decided_by["own"] += 1
    assert min(decided_by.values()) > 20, decided_by


@pytest.mark.parametrize("tokens", [("t2",), ("m2", "d2"), ("d3", "t2"), ("m3", "d3", "t3")])
def test_lemma_checker_is_linear_at_a_large_domain(tokens):
    # a return of the quadratic scan would take minutes here
    assert check_monotone_pairs_lemma([rel_spec(t) for t in tokens], 20000).holds


@pytest.mark.parametrize("tokens", [("m2",), ("d3", "m2")])
def test_identity_checker_is_linear_at_a_large_domain(tokens):
    # prefix maxima of bwd decide each row; a scan of each row's slice of
    # bwd took over 6 s here for m2
    started = time.process_time()
    assert check_two_approximations([rel_spec(t) for t in tokens], 20000).holds
    assert time.process_time() - started < 1.0
