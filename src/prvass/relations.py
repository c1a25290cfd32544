"""Counter-pair encoding and the six primitive partial functions on naturals.

A counter pair (n0, n1) is packed into the single number 2**n0 * 3**n1.
Counter operations then become multiplication by a factor f in {2, 3},
division by f (defined only on multiples of f), and a divisibility test
(identity on numbers not divisible by f).  Each primitive also comes with
two weak approximations: the forward-weak relation lets the result shrink,
the backward-weak relation lets the argument shrink.  This module supplies
closed-form membership for all of these plus brute-force oracles that
certify, over a bounded rectangle, that composing the exact primitives
equals the intersection of the two weakly-composed approximations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

MULT = "mult"
DIV = "div"
TEST = "test"


class DeltaSymbol(Enum):
    """One of the six operation symbols: kind in {mult, div, test}, factor in {2, 3}."""

    M2 = (MULT, 2)
    M3 = (MULT, 3)
    D2 = (DIV, 2)
    D3 = (DIV, 3)
    T2 = (TEST, 2)
    T3 = (TEST, 3)

    def __init__(self, kind: str, factor: int) -> None:
        self.kind = kind
        self.factor = factor
        self.token = self.name.lower()


ALPHABET = tuple(DeltaSymbol)

_TOKEN_SYMBOL = {sym.token: sym for sym in ALPHABET}


def parse_delta_token(token: str) -> DeltaSymbol:
    """The ALPHABET member a token like m2, d3, t2 names."""
    try:
        return _TOKEN_SYMBOL[token]
    except KeyError:
        raise ValueError(f"not an operation token: {token!r} (expected one of m2 m3 d2 d3 t2 t3)") from None


class WeakMode(Enum):
    EXACT = "exact"
    FORWARD_WEAK = "forward_weak"
    BACKWARD_WEAK = "backward_weak"


@dataclass(frozen=True)
class RelationSpec:
    """A primitive partial function on naturals, named by its DeltaSymbol.

    mult f maps n to f*n; div f maps f*n to n and is undefined off multiples
    of f; test f maps n to n when n is not divisible by f and is undefined
    otherwise.
    """

    symbol: DeltaSymbol

    def apply(self, m: int) -> int | None:
        """The exact image of m, or None where the function is undefined."""
        f = self.symbol.factor
        kind = self.symbol.kind
        if kind == MULT:
            return f * m
        if kind == DIV:
            return m // f if m % f == 0 else None
        return m if m % f != 0 else None

    def left_ceiling(self, n: int) -> int:
        """Largest p with (p, n) in the backward-weak relation; -1 if there is none.

        The backward-weak section {p : exists p~ >= p with apply(p~) = n} is
        downward closed, so it is fully described by this ceiling: it equals
        the largest exact preimage of n.
        """
        f = self.symbol.factor
        kind = self.symbol.kind
        if kind == MULT:
            return n // f if n % f == 0 else -1
        if kind == DIV:
            return f * n
        return n if n % f != 0 else -1


def rel_spec(token_or_symbol: str | DeltaSymbol) -> RelationSpec:
    """Convenience constructor from a token like "m2" or a DeltaSymbol."""
    if isinstance(token_or_symbol, DeltaSymbol):
        return RelationSpec(token_or_symbol)
    return RelationSpec(parse_delta_token(token_or_symbol))


def weak_member(r, mode: WeakMode, m: int, n: int) -> bool:
    """Membership of (m, n) in the relation under the given mode.

    exact: apply(m) = n.  forward_weak: apply(m) defined and >= n (the
    result may shrink).  backward_weak: some argument >= m maps exactly to
    n (the argument may shrink); equivalently m <= left_ceiling(n).  Both
    weak memberships are closed forms; the test suite cross-checks them
    against direct search over the shrunk value.
    """
    if m < 0 or n < 0:
        raise ValueError(f"weak membership is over naturals, got ({m}, {n})")
    if mode is WeakMode.EXACT:
        return r.apply(m) == n
    if mode is WeakMode.FORWARD_WEAK:
        v = r.apply(m)
        return v is not None and v >= n
    if mode is WeakMode.BACKWARD_WEAK:
        return m <= r.left_ceiling(n)
    raise ValueError(f"unknown mode: {mode!r}")


class CompositionBoundError(ValueError):
    """The exact forward image escaped the intermediate-value bound."""


def compose_member(rs, mode: WeakMode, m: int, n: int, bound: int) -> bool:
    """Membership of (m, n) in the relational composition of rs, by enumeration.

    Intermediate values are enumerated over [0, bound].  In exact mode the
    composition is a partial function and the fold is checked against the
    bound, raising CompositionBoundError if an exact image escapes it.  For
    the weak modes the bounded search is complete as long as bound covers
    the exact ceiling reachable from the endpoints: forward-weak results
    only shrink below the exact images of smaller arguments, and
    backward-weak chains admit witnesses whose intermediates stay within
    the largest exact preimages of the endpoint, so taking bound at least
    prod(factor of r for r in rs) times max(m, n) loses nothing.  The empty
    composition is the identity.  A weak membership is a lookup in
    compose_image.
    """
    if min(m, n, bound) < 0:
        raise ValueError(f"composition membership is over naturals, got ({m}, {n}) with bound {bound}")
    if not rs:
        return m == n
    if mode is WeakMode.EXACT:
        value = m
        for r in rs:
            value = r.apply(value)
            if value is None:
                return False
            if value > bound:
                raise CompositionBoundError(
                    f"exact image {value} of {m} escapes intermediate bound {bound}"
                )
        return value == n
    return n in compose_image(rs, mode, m, bound)


def compose_image(rs, mode: WeakMode, m: int, bound: int) -> set:
    """The values n with (m, n) in the composition of rs under a weak mode, by enumeration.

    Each relation's image is enumerated over [0, bound], so the set is
    complete under the same condition on bound as in compose_member.  Build
    it once to test many n against one m.
    """
    if min(m, bound) < 0:
        raise ValueError(f"composition image is over naturals, got {m} with bound {bound}")
    values = {m}
    for r in rs:
        nxt = set()
        for v in range(bound + 1):
            for p in values:
                if weak_member(r, mode, p, v):
                    nxt.add(v)
                    break
        values = nxt
        if not values:
            break
    return values


def is_strictly_monotone(r, domain_bound: int) -> bool:
    """Whether all pairs with first component <= domain_bound order both ways.

    Strict monotonicity: for (m, n) and (m', n') in the relation, m < m'
    holds if and only if n < n'.  True for all six primitives.  The pairs
    are taken in increasing m, so this holds iff their images strictly
    increase from each pair to the next.
    """
    if domain_bound < 2:
        raise ValueError(f"domain bound must be at least 2, got {domain_bound}")
    images = [v for m in range(domain_bound + 1) if (v := r.apply(m)) is not None]
    return all(a < b for a, b in itertools.pairwise(images))


def _prefix_max(values: list[int]) -> list[int]:
    out = []
    best = -1
    for v in values:
        if v > best:
            best = v
        out.append(best)
    return out


_GROWTH_GUARD = 10**7


def _ceilings(rs, domain_bound: int, table, direction: str) -> list[int]:
    """ceil[x] = largest y reached from x through rs in order, each step read off table; -1 if none.

    table(r, ps) lists r's largest partner of each p in ps, -1 for none.
    The sections of both weak compositions are downward closed, so each
    later step maps the ceilings through the prefix maximum of its table.
    """
    ceilings = table(rs[0], range(domain_bound + 1))
    for r in rs[1:]:
        limit = max(ceilings, default=-1)
        if limit > _GROWTH_GUARD:
            raise CompositionBoundError(f"{direction} ceiling {limit} escapes the growth guard")
        pm = _prefix_max(table(r, range(limit + 1)))
        ceilings = [pm[c] if c >= 0 else -1 for c in ceilings]
    return ceilings


def _forward_ceilings(rs, domain_bound: int) -> list[int]:
    """ceil[m] = largest n with (m, n) in the forward-weak composition; -1 if none (see _ceilings)."""
    return _ceilings(rs, domain_bound, lambda r, ps: [-1 if (v := r.apply(p)) is None else v for p in ps], "forward")


def _backward_ceilings(rs, domain_bound: int) -> list[int]:
    """ceil[n] = largest m with (m, n) in the backward-weak composition; -1 if none (see _ceilings)."""
    return _ceilings(rs[::-1], domain_bound, lambda r, ps: [r.left_ceiling(p) for p in ps], "backward")


def _exact_values(rs, domain_bound: int) -> list[int | None]:
    out = []
    for m in range(domain_bound + 1):
        value = m
        for r in rs:
            value = r.apply(value)
            if value is None:
                break
        out.append(value)
    return out


_MAX_SEQUENCE_LENGTH = 4


def _checked_sequence(rs, domain_bound: int) -> tuple:
    """The sequence as a tuple, once it and the rectangle bound are checked.

    The checkers build tables of domain_bound + 1 entries, so the bound
    obeys the growth guard that the ceiling tables obey, and is checked
    before anything is built.
    """
    rs = tuple(rs)
    if not rs:
        raise ValueError("sequence must be non-empty")
    if len(rs) > _MAX_SEQUENCE_LENGTH:
        raise ValueError(f"sequence length {len(rs)} exceeds the cap {_MAX_SEQUENCE_LENGTH}")
    if domain_bound < 0:
        raise ValueError(f"domain bound must be non-negative, got {domain_bound}")
    if domain_bound > _GROWTH_GUARD:
        raise ValueError(f"domain bound {domain_bound} exceeds the growth guard {_GROWTH_GUARD}")
    return rs


@dataclass(frozen=True)
class TwoApproximationsReport:
    """Result of checking exact = forward-weak and backward-weak over a rectangle."""

    counterexample: tuple[int, int] | None

    @property
    def holds(self) -> bool:
        return self.counterexample is None


def _top_two(values: list[int]) -> list[tuple[int, int, int]]:
    """Per prefix of values: (its largest value, an index holding it, its largest value at any other index).

    A value missing (the second of a one-item prefix) reads -1.
    """
    out = []
    best, at, second = -1, -1, -1
    for i, v in enumerate(values):
        if v > best:
            best, at, second = v, i, best
        elif v > second:
            second = v
        out.append((best, at, second))
    return out


def check_two_approximations(rs, domain_bound: int) -> TwoApproximationsReport:
    """Exhaustively compare the exact composition with both weak compositions.

    For every (m, n) with m, n <= domain_bound, checks that (m, n) is in
    the composition of the exact relations iff it is in both the
    forward-weak and the backward-weak compositions.  The comparison is
    exhaustive over the rectangle, not sampled.  The weak sides are
    evaluated through section-ceiling tables (see _ceilings), which the
    test suite cross-validates against the enumeration in compose_image,
    also on non-monotone relations.  Row m is in both weak compositions
    exactly at the n <= fwd[m] with m <= bwd[n], so it holds iff that set
    is {exact[m]}: iff bwd[exact[m]] >= m when exact[m] is in the row, and
    every other bwd[n] with n <= min(fwd[m], domain_bound) is below m.  The
    top two maxima of each prefix of bwd give the largest of those others
    at once, so each row costs a few compares and the check is linear in
    domain_bound.  Only a failing row is rescanned cell by cell for its
    first counterexample.
    """
    rs = _checked_sequence(rs, domain_bound)
    exact = _exact_values(rs, domain_bound)
    fwd = _forward_ceilings(rs, domain_bound)
    bwd = _backward_ceilings(rs, domain_bound)
    top_two = _top_two(bwd)
    for m in range(domain_bound + 1):
        v = exact[m]
        top = min(fwd[m], domain_bound)
        best, at, second = top_two[top] if top >= 0 else (-1, -1, -1)
        if v is not None and v <= top:
            holds = bwd[v] >= m and (second if at == v else best) < m
        else:
            holds = best < m and (v is None or v > domain_bound)
        if holds:
            continue
        for n in range(domain_bound + 1):
            in_exact = v == n
            in_both = n <= fwd[m] and m <= bwd[n]
            if in_exact != in_both:
                return TwoApproximationsReport((m, n))
    return TwoApproximationsReport(None)


@dataclass(frozen=True)
class MonotonePairsReport:
    """Result of checking the ordering lemma between the two weak compositions.

    For (m, n) in the forward-weak composition and (m', n') in the
    backward-weak composition, n' <= n must force m' <= m, and n' < n must
    force m' < m.  A violation carries the two witnessing pairs.
    """

    violation: tuple[tuple[int, int], tuple[int, int]] | None

    @property
    def holds(self) -> bool:
        return self.violation is None


def check_monotone_pairs_lemma(rs, domain_bound: int) -> MonotonePairsReport:
    """Exhaustively check the ordering lemma over the bounded rectangle.

    Only the least forward m of each n matters: min_fwd[n] is the least m
    with n <= fwd[m].  Forward sections are downward closed, so walking m
    upward with a high-water mark fills each min_fwd[n] once, from the
    first m whose ceiling reaches n; the n past every ceiling have no
    forward pair.  With back[n] = min(bwd[n], domain_bound), the largest
    backward m of n, row n fails iff some n' < n has back[n'] >= min_fwd[n]
    or back[n] > min_fwd[n].  A running maximum of back over the rows
    already walked decides the first part, so each row costs two compares,
    and only a failing row is rescanned pair by pair.  Rows are walked in
    increasing n and the rescan takes n' upward, so the violation reported
    is the first one of a full scan in that order.
    """
    rs = _checked_sequence(rs, domain_bound)
    fwd = _forward_ceilings(rs, domain_bound)
    bwd = _backward_ceilings(rs, domain_bound)
    min_fwd: list[int] = []
    for m, ceiling in enumerate(fwd):
        top = min(ceiling, domain_bound)
        if top >= len(min_fwd):
            min_fwd += [m] * (top + 1 - len(min_fwd))
    back = [min(b, domain_bound) for b in bwd]
    below = -1  # max(back[:n])
    for n, m_fwd in enumerate(min_fwd):
        if below >= m_fwd or back[n] > m_fwd:
            for n_back in range(n + 1):
                m_back = back[n_back]
                if m_back > m_fwd or (n_back < n and m_back >= m_fwd):
                    return MonotonePairsReport(((m_fwd, n), (m_back, n_back)))
        below = max(below, back[n])
    return MonotonePairsReport(None)


def godel_encode(n0: int, n1: int) -> int:
    """Pack a counter pair into 2**n0 * 3**n1 (arbitrary precision)."""
    if n0 < 0 or n1 < 0:
        raise ValueError(f"counters must be non-negative, got ({n0}, {n1})")
    return 2**n0 * 3**n1


def godel_decode(v: int) -> tuple[int, int] | None:
    """Invert godel_encode; None if v has any prime factor other than 2 and 3."""
    if v < 1:
        raise ValueError(f"encodings are positive, got {v}")
    n0 = 0
    while v % 2 == 0:
        v //= 2
        n0 += 1
    n1 = 0
    while v % 3 == 0:
        v //= 3
        n1 += 1
    return (n0, n1) if v == 1 else None


# the shared ALPHABET member for each (machine op, factor)
_OP_SYMBOL = {
    (op, sym.factor): sym
    for op, kind in (("inc", MULT), ("dec", DIV), ("zero", TEST))
    for sym in ALPHABET
    if sym.kind == kind
}


def minsky_action_to_symbol(a) -> DeltaSymbol:
    """The operation symbol an action performs on the counter-pair encoding.

    Counter 0 lives in the exponent of 2 and counter 1 in the exponent of
    3, so increment is mult, decrement is div, and a zero-test is the
    divisibility test by the counter's prime.  The result is the ALPHABET
    member itself, not a copy.
    """
    return _OP_SYMBOL[a.op, 2 if a.counter_index == 0 else 3]
