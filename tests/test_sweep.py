"""The differential check on every small two-counter machine.

All 1 485 machines over the states {s, p, t} (source s, target t) with one
or two distinct actions run through differential_check at the bounds of the
benchmark's sweep.  No pair of sides may disagree, every witness must replay
on its own side, and the class counts are a fence: a change to the search,
the prunes or the compiler that moves a machine from one class to another
shows here.  The cross-check reruns the sweep with the relevance prune
switched off and compares every verdict and witness.
"""

import itertools
from collections import Counter

import pytest

from prvass import explorer
from prvass.explorer import BOUNDS_HIT, Bounds, differential_check, replay_trace
from prvass.models import MinskyAction, MinskyMachine

STATES = ("s", "p", "t")
SWEEP_BOUNDS = Bounds(max_steps=10_000, max_stack=48, max_counter=1000, max_visited=20_000)


def small_machines() -> list[MinskyMachine]:
    actions = [
        MinskyAction(*action)
        for action in itertools.product(STATES, (0, 1), ("inc", "dec", "zero"), STATES)
    ]
    bodies = [(a,) for a in actions] + list(itertools.combinations(actions, 2))
    return [MinskyMachine(STATES, body, "s", "t") for body in bodies]


def _sweep():
    """(machine, status, machine verdict, compiled verdict, whether the witnesses replay) per machine.

    The compiled systems are not kept: 1 485 of them held across the second
    sweep of the cross-check make the garbage collector's passes slow.
    """
    for m in small_machines():
        report = differential_check(m, SWEEP_BOUNDS, SWEEP_BOUNDS)
        mv, pv = report.minsky_verdict, report.prvass_verdict
        replays = (mv.trace is None or replay_trace(m, mv.trace)) and (
            pv.trace is None or replay_trace(report.compiled.system, pv.trace)
        )
        yield m, report.status, mv, pv, replays


@pytest.fixture(scope="module")
def sweep():
    return list(_sweep())


def test_sweep_classes_and_witnesses(sweep):
    assert len(sweep) == 1485
    classes = Counter()
    for machine, status, mv, pv, replays in sweep:
        assert replays, machine
        assert status != "disagree", machine
        if status == "inconclusive":
            classes["inconclusive-" + ("both" if mv.outcome == BOUNDS_HIT else "machine-definitive")] += 1
        else:
            classes[status + "-" + mv.outcome] += 1
    assert classes == {
        "agree-covered": 117,
        "agree-exhausted_no_cover": 1332,
        "inconclusive-machine-definitive": 20,
        "inconclusive-both": 16,
    }


def test_relevance_prune_keeps_every_definitive_verdict_and_witness(sweep, monkeypatch):
    # with every action target live, no action is ever dropped as irrelevant
    monkeypatch.setattr(
        explorer, "_coreachable", lambda actions, target: {target, *(a.target for a in actions)}
    )
    for (machine, _, mv, pv, _), (_, _, mv_all, pv_all, _) in zip(sweep, _sweep()):
        for with_prune, without in ((mv, mv_all), (pv, pv_all)):
            assert with_prune.trace == without.trace, machine
            if without.outcome != BOUNDS_HIT:
                assert with_prune.outcome == without.outcome, machine
