"""The differential check on every small two-counter machine.

All 1 485 machines over the states {s, p, t} (source s, target t) with one
or two distinct actions run through differential_check at the bounds of the
benchmark's sweep.  No pair of sides may disagree, every witness must replay
on its own side, and the class counts are a fence: a change to the search,
the prunes or the compiler that moves a machine from one class to another
shows here.  The cross-check reruns the sweep with the relevance prune
switched off and compares every verdict and witness, and the live-set check
holds the prune's trim to a reference built from the whole control graph.
A digest pins the text of every compiled system, which the goldens pin for
13 machines only.  The source index that a compile assembles from cached
pieces is held to the actions grouped from scratch, and a compile from
cleared caches to one from warm caches, and a second sweep pass to no
normalising of action bodies at all, since every action it fires comes
from a cached piece.
"""

import dataclasses
import hashlib
from collections import Counter

import pytest

from prvass import explorer, models
from prvass.check import replay_trace
from prvass.explorer import BOUNDS_HIT, differential_check
from prvass.formats import parse_minsky, serialize_prvass
from prvass.models import Configuration
from prvass.reduction import compile_machine
from prvass.relations import ALPHABET

from conftest import CORPUS_DIR, SWEEP_BOUNDS, small_machines


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


def test_sweep_visited_totals(sweep):
    # visited is the unit of work: a change to the keys or the prunes that
    # makes either side search more or less shows here
    assert sum(mv.stats.visited for _, _, mv, _, _ in sweep) == 25_742
    assert sum(pv.stats.visited for _, _, _, pv, _ in sweep) == 367_151


def test_relevance_prune_keeps_every_definitive_verdict_and_witness(sweep, monkeypatch):
    # with every action target live, no action is ever dropped as irrelevant
    monkeypatch.setattr(
        explorer,
        "_trim",
        lambda by_source, start, target: {target, *(a.target for group in by_source.values() for a in group)},
    )
    unpruned = list(_sweep())
    for (machine, _, mv, pv, _), (_, _, mv_all, pv_all, _) in zip(sweep, unpruned):
        for with_prune, without in ((mv, mv_all), (pv, pv_all)):
            assert with_prune.trace == without.trace, machine
            if without.outcome != BOUNDS_HIT:
                assert with_prune.outcome == without.outcome, machine
    # the patch really switches the prune off: both sides search more than
    # test_sweep_visited_totals pins
    assert sum(mv.stats.visited for _, _, mv, _, _ in unpruned) > 25_742
    assert sum(pv.stats.visited for _, _, _, pv, _ in unpruned) > 367_151


def _closure(edges: dict, seed: str) -> set:
    seen, todo = {seed}, [seed]
    while todo:
        for state in edges.get(todo.pop(), ()):
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return seen


def _live_sizes(model, start, target) -> tuple[int, int]:
    """The sizes of the trim and of the co-reachable set, once the trim is checked against its reference."""
    forward, backward = {}, {}
    for a in model.actions:
        forward.setdefault(a.source, []).append(a.target)
        backward.setdefault(a.target, []).append(a.source)
    coreachable = _closure(backward, target)
    trim = explorer._trim(model.by_source, start, target)
    assert trim == coreachable & _closure(forward, start)
    return len(trim), len(coreachable)


def _corpus():
    corpus = [parse_minsky(path.read_text()) for path in sorted(CORPUS_DIR.glob("*.minsky"))]
    assert len(corpus) == 13
    return corpus


def test_trim_is_the_coreachable_part_of_the_forward_cone():
    corpus = _corpus()
    totals = {}
    for label, machines in (("sweep", small_machines()), ("corpus", corpus)):
        sizes = []
        for m in machines:
            compiled = compile_machine(m)
            sizes.append(
                _live_sizes(m, m.source, m.target)
                + _live_sizes(compiled.system, compiled.start, compiled.cover_target)
            )
        # (trim, co-reachable) summed over the machine sides, then over the compiled sides
        totals[label] = tuple(map(sum, zip(*sizes)))
    assert totals == {"sweep": (726, 2175, 9483, 35784), "corpus": (83, 84, 554, 575)}


# SHA-256 of the compiled text of all 1 485 machines, in enumeration order
COMPILED_DIGEST = "642e7931ef61a65e8ddf41e3667ab020a7eff895be72c399c6905a178746fd4c"


def test_every_compiled_system_is_pinned():
    digest = hashlib.sha256()
    for m in small_machines():
        compiled = compile_machine(m)
        # perfbench's oracles workload reads its gadgets in this order: the
        # forward gadgets in machine-action order, then the backward ones in
        # ALPHABET order, each where its entry state stands
        assert list(compiled.bookkeeping.values()) == [*m.actions, *ALPHABET], m
        position = {state: i for i, state in enumerate(compiled.system.states)}
        entries = [position[g.entry] for g in compiled.bookkeeping]
        assert entries == sorted(entries), m
        digest.update(serialize_prvass(compiled.system).encode("utf-8"))
    assert digest.hexdigest() == COMPILED_DIGEST


def _regrouped(actions) -> list:
    """(source, its actions) in order of first appearance, grouped from scratch."""
    groups = {}
    for a in actions:
        groups.setdefault(a.source, []).append(a)
    return [(source, tuple(group)) for source, group in groups.items()]


def test_source_index_is_the_actions_grouped_from_scratch():
    for m in [*small_machines(), *_corpus()]:
        system = compile_machine(m).system
        # the index compile_machine assembles from its pieces
        assert list(system.by_source.items()) == _regrouped(system.actions), m
        assert all(type(group) is tuple for group in system.by_source.values()), m
        assert list(m.by_source.items()) == _regrouped(m.actions), m
    # a copy with other actions builds its own index instead of inheriting one
    copy = dataclasses.replace(system, actions=system.actions[1:])
    assert list(copy.by_source.items()) == _regrouped(copy.actions)
    assert system.by_source[system.init] and system.init not in copy.by_source


def test_a_cold_compile_equals_a_warm_one(clear_compile_caches):
    machines = small_machines()
    warm = [compile_machine(m) for m in machines]  # each compile finds the pieces the ones before it built
    for m, hot in zip(machines, warm):
        clear_compile_caches()
        cold = compile_machine(m)
        assert serialize_prvass(cold.system) == serialize_prvass(hot.system), m
        assert list(cold.bookkeeping.items()) == list(hot.bookkeeping.items()), m
        assert list(cold.system.by_source.items()) == list(hot.system.by_source.items()), m
        # the cold system's actions are new and carry no effect yet; the warm one's may carry effects built before
        (got, got_visited), (want, want_visited) = (
            explorer._bfs(
                explorer._family(c.system, Configuration(c.start, (), 0), SWEEP_BOUNDS, c.cover_target), SWEEP_BOUNDS
            )
            for c in (cold, hot)
        )
        assert (got.outcome, got.trace, got.stats[:2]) == (want.outcome, want.trace, want.stats[:2]), m
        assert list(got_visited.items()) == list(want_visited.items()), m


def test_a_second_sweep_pass_normalises_nothing(monkeypatch):
    # every action a sweep search fires comes from a cached compile piece, which carries its effect
    for m in small_machines():
        differential_check(m, SWEEP_BOUNDS, SWEEP_BOUNDS)
    calls = []
    effect = models._effect

    def counted(body):
        calls.append(body)
        return effect(body)

    monkeypatch.setattr(models, "_effect", counted)
    for m in small_machines():
        differential_check(m, SWEEP_BOUNDS, SWEEP_BOUNDS)
    assert calls == []
