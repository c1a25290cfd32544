import itertools
from pathlib import Path

import pytest

from prvass.explorer import Bounds
from prvass.formats import parse_minsky
from prvass.models import MinskyAction, MinskyMachine
from prvass import reduction
from prvass.reduction import FORWARD
from prvass.relations import WeakMode, rel_spec, weak_member

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

# expected coverability per corpus machine; big-counter is excluded because
# its compiled side deliberately blows the default bounds (inconclusive demo)
CORPUS_EXPECTED = {
    "trivial-loop": True,
    "inc-dec": True,
    "inc-only": False,
    "zero-gate-pass": True,
    "zero-gate-blocked": False,
    "dead": False,
    "swap": True,
    "inc-both": True,
    "unbalanced": False,
    "branch": True,
    "tall": True,
    "toggle": False,
}

# the bounds of the small-machine sweep, which are also the benchmark's
SWEEP_BOUNDS = Bounds(max_steps=10_000, max_stack=48, max_counter=1000, max_visited=20_000)


def small_machines() -> list[MinskyMachine]:
    """All 1 485 machines over the states {s, p, t} (source s, target t) with one or two distinct actions."""
    states = ("s", "p", "t")
    actions = [
        MinskyAction(*action)
        for action in itertools.product(states, (0, 1), ("inc", "dec", "zero"), states)
    ]
    bodies = [(a,) for a in actions] + list(itertools.combinations(actions, 2))
    return [MinskyMachine(states, body, "s", "t") for body in bodies]


class FiniteRelation:
    """Test-only relation given by an explicit finite partial function."""

    def __init__(self, pairs):
        self._map = dict(pairs)

    def apply(self, m):
        return self._map.get(m)

    def left_ceiling(self, n):
        preimages = [p for p, v in self._map.items() if v == n]
        return max(preimages) if preimages else -1


def expected_exit_set(g, m, record):
    """The exit set the gadget contract asks of g from entry count m on record.

    Every weak partner of m is at most 3m, the largest factor times m.
    """
    spec = rel_spec(g.symbol)
    if g.direction == FORWARD:
        return {
            (record + (g.symbol.token,), n)
            for n in range(3 * m + 1)
            if weak_member(spec, WeakMode.FORWARD_WEAK, m, n)
        }
    if not record or record[-1] != g.symbol.token:
        return set()
    return {
        (record[:-1], n)
        for n in range(3 * m + 1)
        if weak_member(spec, WeakMode.BACKWARD_WEAK, n, m)
    }


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / f"{name}.minsky"


def load_machine(name: str):
    return parse_minsky(corpus_path(name).read_text())


def closure_configs(reach) -> tuple:
    """The configurations of a reachable_set result: its keys decoded, in its dequeue order."""
    return tuple(map(reach.decode, reach.keys))


@pytest.fixture(scope="session")
def corpus_machines():
    return {name: load_machine(name) for name in CORPUS_EXPECTED}


@pytest.fixture
def clear_compile_caches():
    """Clear every lru_cache of prvass.reduction now, and again at each call of the returned function.

    The caches are found by their cache_clear, so a cache the compiler
    gains is cleared without naming it here.
    """
    caches = [f for f in vars(reduction).values() if callable(getattr(f, "cache_clear", None))]
    assert caches

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    return clear
