"""Acceptance suite: one test per criterion, each pinned at its stated tolerance.

Run `pytest -s tests/test_acceptance.py -v` to see one PASS/FAIL line per
criterion; every bounded check is exhaustive over its stated grid, never
sampled.
"""

import itertools
import shutil
import time

import pytest

from prvass.check import replay_trace
from prvass.cli import main
from prvass.explorer import (
    BOUNDS_HIT,
    Bounds,
    COVERED,
    EXHAUSTED_NO_COVER,
    bounded_cover,
    minsky_bounded_reach,
    reachable_set,
)
from prvass.models import Configuration
from prvass.formats import parse_minsky, serialize_minsky
from prvass.reduction import (
    BACKWARD,
    FORWARD,
    build_gadget,
    compile_machine,
    gadget_contract_set,
)
from prvass.relations import (
    ALPHABET,
    check_monotone_pairs_lemma,
    check_two_approximations,
    godel_decode,
    godel_encode,
    is_strictly_monotone,
    minsky_action_to_symbol,
    rel_spec,
)
from prvass.models import MinskyAction, MinskyConfig, MinskyMachine, minsky_successors

from conftest import (
    CORPUS_DIR,
    CORPUS_EXPECTED,
    closure_configs,
    corpus_path,
    expected_exit_set,
    load_machine,
)

CORPUS_BOUNDS = Bounds(max_steps=1_000_000, max_stack=64, max_counter=10_000, max_visited=1_000_000)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def _fresh_gadget(sym, direction):
    return build_gadget(sym, direction, ("q1", "q2", "q3"))


def test_criterion_1_gadget_contracts():
    t0 = time.perf_counter()
    tokens = [sym.token for sym in ALPHABET]
    records = [()]
    records += [(a,) for a in tokens]
    records += [(a, b) for a in tokens for b in tokens]
    checked = 0
    for sym in ALPHABET:
        for direction in (FORWARD, BACKWARD):
            g = _fresh_gadget(sym, direction)
            for m in range(13):
                for record in records:
                    got = gadget_contract_set(g, m, record, 3 * 12 + 8)
                    assert got == expected_exit_set(g, m, record), (sym.token, direction, m, record)
                    checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "gadget exit sets equal weak-membership sets (12 gadgets, m <= 12, records <= 2)",
        elapsed < 10.0,
        f"{checked} enumerations in {elapsed:.1f}s",
    )


def test_criterion_2_multiplication_bound():
    g = _fresh_gadget(rel_spec("m2").symbol, FORWARD)
    got = gadget_contract_set(g, 3, (), 60)
    expected = {(("m2",), n) for n in range(7)}
    _report(2, "forward mult-2 from m=3 exits exactly a-counts {0..6}", got == expected)


def _all_sequences():
    specs = [rel_spec(sym) for sym in ALPHABET]
    for length in (1, 2, 3):
        yield from itertools.product(specs, repeat=length)


def test_criterion_3_two_approximations_identity():
    t0 = time.perf_counter()
    count = 0
    for seq in _all_sequences():
        report = check_two_approximations(seq, 100)
        assert report.holds, [r.symbol.token for r in seq]
        count += 1
    elapsed = time.perf_counter() - t0
    ok = count == 258 and elapsed < 60.0
    _report(3, "exact = forward-weak and backward-weak for all 258 sequences, domain 100", ok,
            f"{count} sequences in {elapsed:.1f}s")


def test_criterion_4_monotone_pairs_lemma():
    violations = 0
    count = 0
    for seq in _all_sequences():
        report = check_monotone_pairs_lemma(seq, 100)
        if not report.holds:
            violations += 1
        count += 1
    _report(4, "ordering lemma holds across the same 258-sequence enumeration",
            count == 258 and violations == 0, f"{violations} violations")


def test_criterion_5_strict_monotonicity():
    ok = all(is_strictly_monotone(rel_spec(sym), 500) for sym in ALPHABET)
    _report(5, "all six primitives strictly monotone up to domain 500", ok)


def test_criterion_6_encoding_coherence():
    mismatches = 0
    for n0 in range(11):
        for n1 in range(11):
            if godel_decode(godel_encode(n0, n1)) != (n0, n1):
                mismatches += 1
    for c in (0, 1):
        for op in ("inc", "dec", "zero"):
            action = MinskyAction("s", c, op, "t")
            machine = MinskyMachine(("s", "t"), (action,), "s", "t")
            spec = rel_spec(minsky_action_to_symbol(action))
            for n0 in range(9):
                for n1 in range(9):
                    succs = minsky_successors(machine, MinskyConfig("s", (n0, n1)))
                    image = spec.apply(godel_encode(n0, n1))
                    if succs:
                        if image != godel_encode(*succs[0][1].counters):
                            mismatches += 1
                    elif image is not None:
                        mismatches += 1
    _report(6, "encode/decode round trip and step/relation coherence", mismatches == 0,
            f"{mismatches} mismatches")


DELTA_TOKENS = {sym.token for sym in ALPHABET}


def _boundary_shape(stack) -> bool:
    if not stack or stack[0] != "bot":
        return False
    i = 1
    while i < len(stack) and stack[i] in DELTA_TOKENS:
        i += 1
    if i >= len(stack) or stack[i] != "hash":
        return False
    return all(s == "a" for s in stack[i + 1 :])


class BoundaryMonitor:
    """Counts boundary configurations and any shape violations."""

    def __init__(self, compiled, machine_states):
        final = [a for a in compiled.system.actions if a.target == compiled.cover_target]
        self.replay = final[0].source
        self.machine_states = set(machine_states)
        self.start = compiled.start
        self.cover = compiled.cover_target
        self.checked = 0
        self.violations = []

    def __call__(self, cfg):
        if cfg.state in (self.start, self.cover):
            # entry and exit hold the empty stack: the stack is built by the
            # first action and emptied by the last one
            self.checked += 1
            if cfg.stack != () or cfg.counter != 0:
                self.violations.append(cfg)
        elif cfg.state == self.replay or cfg.state in self.machine_states:
            self.checked += 1
            if cfg.counter != 0 or not _boundary_shape(cfg.stack):
                self.violations.append(cfg)


@pytest.fixture(scope="module")
def corpus_runs():
    runs = {}
    t0 = time.perf_counter()
    for name in CORPUS_EXPECTED:
        machine = load_machine(name)
        compiled = compile_machine(machine)
        mv = minsky_bounded_reach(machine, CORPUS_BOUNDS)
        pv = bounded_cover(
            compiled.system, Configuration(compiled.start, (), 0), compiled.cover_target, CORPUS_BOUNDS
        )
        runs[name] = (machine, compiled, mv, pv)
    return runs, time.perf_counter() - t0


def test_criterion_7_differential_corpus(corpus_runs):
    runs, elapsed = corpus_runs
    ok = len(runs) >= 10
    for name, (machine, compiled, mv, pv) in runs.items():
        expected = CORPUS_EXPECTED[name]
        definitive = mv.outcome != BOUNDS_HIT and pv.outcome != BOUNDS_HIT
        agrees = (mv.outcome == COVERED) == (pv.outcome == COVERED)
        matches = (pv.outcome == COVERED) == expected
        if not (definitive and agrees and matches):
            ok = False
    ok = ok and elapsed < 120.0
    _report(7, "differential corpus: definitive agreement on every machine", ok,
            f"{len(runs)} machines in {elapsed:.1f}s")


def test_criterion_8_boundary_invariant(corpus_runs):
    # every configuration of the bounded closure, a superset of what the cover search dequeues
    runs, _ = corpus_runs
    total_checked = total_violations = 0
    for machine, compiled, _, _ in runs.values():
        monitor = BoundaryMonitor(compiled, machine.states)
        start = Configuration(compiled.start, (), 0)
        for cfg in closure_configs(reachable_set(compiled.system, start, CORPUS_BOUNDS)):
            monitor(cfg)
        total_checked += monitor.checked
        total_violations += len(monitor.violations)
    _report(8, "100% of reachable boundary configurations have record shape and counter 0",
            total_checked > 0 and total_violations == 0,
            f"{total_checked} boundary configurations, {total_violations} violations")


def test_criterion_9_soundness(corpus_runs):
    runs, _ = corpus_runs
    ok = True
    for name, (machine, compiled, mv, pv) in runs.items():
        if pv.outcome == COVERED:
            if not replay_trace(compiled.system, pv.trace):
                ok = False
            if pv.trace.steps and pv.trace.steps[-1][1].state != compiled.cover_target:
                ok = False
        else:
            again = bounded_cover(
                compiled.system,
                Configuration(compiled.start, (), 0),
                compiled.cover_target,
                CORPUS_BOUNDS.doubled(),
            )
            if again.outcome != EXHAUSTED_NO_COVER:
                ok = False
        if mv.outcome == COVERED:
            if not replay_trace(machine, mv.trace):
                ok = False
        else:
            if minsky_bounded_reach(machine, CORPUS_BOUNDS.doubled()).outcome != EXHAUSTED_NO_COVER:
                ok = False
    _report(9, "covered traces replay; exhaustion verdicts stable under doubled bounds", ok)


def test_criterion_10_cli_round_trips_and_exit_codes(tmp_path, capsys):
    for path in sorted(CORPUS_DIR.glob("*.minsky")):
        text = path.read_text()
        assert serialize_minsky(parse_minsky(text)) == text, path.name

    for name in ("inc-dec", "inc-only", "big-counter"):
        shutil.copy(corpus_path(name), tmp_path / f"{name}.minsky")
    incdec = str(tmp_path / "inc-dec.minsky")
    inconly = str(tmp_path / "inc-only.minsky")
    big = str(tmp_path / "big-counter.minsky")
    incdec_sys = str(tmp_path / "inc-dec.prvass")
    inconly_sys = str(tmp_path / "inc-only.prvass")
    bad = tmp_path / "bad.minsky"
    bad.write_text("minsky\nstates: s\ninit: s\nfinal: s\ns 9 inc s\n")

    matrix = [
        (["compile", incdec, incdec_sys], 0),
        (["compile", inconly, inconly_sys], 0),
        (["compile", str(bad), str(tmp_path / "bad.prvass")], 3),
        (["cover", incdec_sys, "--target", "t'"], 0),
        (["cover", inconly_sys, "--target", "t'"], 1),
        (["cover", inconly_sys, "--target", "t'", "--expect", "no-cover"], 0),
        (["cover", incdec_sys, "--target", "t'", "--max-steps", "1"], 2),
        (["cover", incdec_sys, "--target", "nowhere"], 3),
        (["prop1", "m2", "d2", "t3", "--domain", "60"], 0),
        (["prop1", "bogus"], 3),
        (["diff", incdec], 0),
        (["diff", big], 2),
        (["simulate", incdec], 0),
        (["simulate", incdec_sys, "--max-visited", "4"], 2),
    ]
    failures = []
    for argv, expected in matrix:
        got = main(argv)
        if got != expected:
            failures.append((argv, expected, got))
    capsys.readouterr()
    _report(10, "corpus files round-trip and the exit-code table holds across the CLI matrix",
            not failures, f"{len(matrix)} invocations, {len(failures)} mismatches")
