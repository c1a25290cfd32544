from pathlib import Path

import pytest

from prvass.formats import parse_minsky
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


@pytest.fixture(scope="session")
def corpus_machines():
    return {name: load_machine(name) for name in CORPUS_EXPECTED}
