"""Command-line surface: compile, cover, simulate, prop1, diff.

Exit codes follow one table across all commands: 0 definitive and
expected, 1 definitive but negative, 2 inconclusive because a bound was
hit, 3 usage or parse error.  Verdict lines are machine-parsable
(VERDICT=covered|no-cover|bounds-hit); --json switches every report to a
single JSON object with the same field names.  Wall-clock timings go to
stderr so stdout stays byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .explorer import (
    BOUNDS_HIT,
    Bounds,
    COVERED,
    EXHAUSTED_NO_COVER,
    bounded_cover,
    differential_check,
    reachable_set,
)
from .models import Configuration, MinskyConfig, Prvass, validate
from .formats import parse_model_file, render_trace, serialize_prvass
from .reduction import compile_machine
from .relations import check_two_approximations, rel_spec

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_VERDICT_TOKEN = {COVERED: "covered", EXHAUSTED_NO_COVER: "no-cover", BOUNDS_HIT: "bounds-hit"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 3 for usage errors, per the exit-code table
    def error(self, message):
        raise _UsageError(message)


def _add_bounds_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-steps", type=int, default=Bounds.max_steps, help="search depth budget in action firings")
    parser.add_argument("--max-stack", type=int, default=Bounds.max_stack, help="stack length cap per configuration")
    parser.add_argument("--max-counter", type=int, default=Bounds.max_counter, help="counter cap per configuration")
    parser.add_argument(
        "--max-visited", type=int, default=Bounds.max_visited, help="global budget on distinct configurations"
    )
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored: the search is serial")


def _counter_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2 or not all(part.strip().isdecimal() for part in parts):
        raise argparse.ArgumentTypeError(f"expects two naturals n0,n1, got {text!r}")
    return int(parts[0]), int(parts[1])


def _stack_word(text: str) -> tuple[str, ...]:
    symbols = tuple(text.split(",")) if text else ()
    if "" in symbols:
        raise argparse.ArgumentTypeError(f"expects comma-separated stack symbols, got {text!r}")
    return symbols


def _bounds_from(args) -> Bounds:
    return Bounds(args.max_steps, args.max_stack, args.max_counter, args.max_visited)


def _load_validated(path: str, kind: str | None = None):
    """Parse and validate a model file, of kind if one is given; returns it with its text, which trace digests hash."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    model = parse_model_file(text)
    diags = validate(model)
    found = "prvass" if isinstance(model, Prvass) else "minsky"
    if diags:
        for d in diags:
            print(f"error: {d}", file=sys.stderr)
        raise _UsageError(f"{path}: {len(diags)} validation diagnostic(s)")
    if kind is not None and found != kind:
        raise _UsageError(f"{path}: expected a {kind} file, got a {found} file")
    return model, text


def _refuse_input_as_output(source: str, output: str) -> None:
    """Refuse, before any work, an output path that names the input file, which writing it would replace."""
    if output is not None and os.path.exists(output) and os.path.samefile(source, output):
        raise _UsageError(f"{output}: output path names the input file, which it would overwrite")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_compile(args) -> int:
    machine, _ = _load_validated(args.machine, "minsky")
    _refuse_input_as_output(args.machine, args.output)
    compiled = compile_machine(machine)
    text = serialize_prvass(compiled.system)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    payload = {
        "command": "compile",
        "output": args.output,
        "start": compiled.start,
        "cover_target": compiled.cover_target,
        "states": len(compiled.system.states),
        "actions": len(compiled.system.actions),
    }
    _emit(
        args,
        payload,
        [
            f"START={compiled.start}",
            f"TARGET={compiled.cover_target}",
            f"states={len(compiled.system.states)} actions={len(compiled.system.actions)}",
        ],
    )
    return EXIT_OK


def _claim_trace_path(path: str) -> bool:
    """Check before the search that ``path`` can be written; return whether this made it.

    A file already there is opened for appending, so it is neither truncated nor
    removed unless a witness is written over it.
    """
    try:
        open(path, "x", encoding="utf-8").close()
        return True
    except FileExistsError:
        open(path, "a", encoding="utf-8").close()
        return False


def cmd_cover(args) -> int:
    system, text = _load_validated(args.system, "prvass")
    start_state = args.start if args.start is not None else system.init
    if start_state is None:
        raise _UsageError("no --start given and the file declares no init state")
    bounds = _bounds_from(args)
    _refuse_input_as_output(args.system, args.trace_out)
    trace_created = _claim_trace_path(args.trace_out) if args.trace_out else False
    witness = None
    try:
        verdict = bounded_cover(system, Configuration(start_state, (), 0), args.target, bounds)
        witness = verdict.trace
    finally:
        if witness is None and trace_created:
            os.remove(args.trace_out)  # no witness: drop the empty file made above
    if witness is not None and args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(render_trace(witness, text))
    token = _VERDICT_TOKEN[verdict.outcome]
    payload = {
        "command": "cover",
        "verdict": token,
        "visited": verdict.stats.visited,
        "frontier_peak": verdict.stats.frontier_peak,
        "trace_length": len(verdict.trace.steps) if verdict.trace else None,
    }
    _emit(
        args,
        payload,
        [
            f"VERDICT={token}",
            f"visited={verdict.stats.visited} frontier_peak={verdict.stats.frontier_peak}",
        ],
    )
    print(f"elapsed={verdict.stats.elapsed:.3f}s", file=sys.stderr)
    if verdict.outcome == BOUNDS_HIT:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if token == args.expect else EXIT_NEGATIVE


def cmd_simulate(args) -> int:
    model, _ = _load_validated(args.model)
    bounds = _bounds_from(args)
    kind = "prvass" if isinstance(model, Prvass) else "minsky"
    other_family = (
        {"--counters": args.counters} if kind == "prvass" else {"--stack": args.stack, "--counter": args.counter}
    )
    for flag, value in other_family.items():
        if value is not None:
            raise _UsageError(f"{flag} does not apply to a {kind} file: {args.model}")
    state = args.state if args.state is not None else (model.init if kind == "prvass" else model.source)
    if state is None:
        raise _UsageError("no --state given and the file declares no init state")
    if kind == "prvass":
        start = Configuration(state, args.stack or (), args.counter or 0)
    else:
        start = MinskyConfig(state, args.counters or (0, 0))
    reach = reachable_set(model, start, bounds)
    states_seen = len({key[0] for key in reach.keys})
    payload = {
        "command": "simulate",
        "reachable": len(reach.keys),
        "complete": reach.complete,
        "states_seen": states_seen,
    }
    _emit(
        args,
        payload,
        [
            f"REACHABLE={len(reach.keys)}",
            f"COMPLETE={'yes' if reach.complete else 'no'}",
            f"states_seen={states_seen}",
        ],
    )
    print(f"elapsed={reach.stats.elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if reach.complete else EXIT_INCONCLUSIVE


def cmd_prop1(args) -> int:
    sequence = [rel_spec(tok) for tok in args.symbols]
    report = check_two_approximations(sequence, args.domain)
    tokens = " ".join(r.symbol.token for r in sequence)
    payload = {
        "command": "prop1",
        "sequence": tokens,
        "domain": args.domain,
        "holds": report.holds,
        "counterexample": list(report.counterexample) if report.counterexample else None,
    }
    lines = [f"SEQUENCE={tokens}", f"RESULT={'holds' if report.holds else 'counterexample'}"]
    if report.counterexample:
        m, n = report.counterexample
        lines.append(f"counterexample m={m} n={n}")
    _emit(args, payload, lines)
    return EXIT_OK if report.holds else EXIT_NEGATIVE


def cmd_diff(args) -> int:
    machine, _ = _load_validated(args.machine, "minsky")
    bounds = _bounds_from(args)
    report = differential_check(machine, bounds, bounds)
    mv = _VERDICT_TOKEN[report.minsky_verdict.outcome]
    pv = _VERDICT_TOKEN[report.prvass_verdict.outcome]
    payload = {
        "command": "diff",
        "minsky": mv,
        "prvass": pv,
        "result": report.status,
        "minsky_visited": report.minsky_verdict.stats.visited,
        "prvass_visited": report.prvass_verdict.stats.visited,
    }
    _emit(
        args,
        payload,
        [
            f"MINSKY={mv}",
            f"PRVASS={pv}",
            f"RESULT={report.status}",
        ],
    )
    for side, verdict in (("minsky", report.minsky_verdict), ("prvass", report.prvass_verdict)):
        print(f"{side} elapsed={verdict.stats.elapsed:.3f}s", file=sys.stderr)
    if report.status == "agree":
        return EXIT_OK
    if report.status == "disagree":
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def build_parser() -> _Parser:
    parser = _Parser(prog="prvass", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a two-counter machine into a stack system")
    p.add_argument("machine", help="input minsky file")
    p.add_argument("output", help="output prvass file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("cover", help="bounded coverability search on a stack system")
    p.add_argument("system", help="prvass file")
    p.add_argument("--start", default=None, help="start state (default: file's init)")
    p.add_argument("--target", required=True, help="state to cover")
    p.add_argument("--expect", choices=("covered", "no-cover"), default="covered")
    p.add_argument("--trace-out", default=None, help="write the covering trace to this file")
    p.add_argument("--json", action="store_true")
    _add_bounds_args(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("simulate", help="enumerate the bounded reachable set of a model file")
    p.add_argument("model", help="minsky or prvass file")
    p.add_argument("--state", default=None, help="start state (default: the file's initial state)")
    p.add_argument("--stack", type=_stack_word, default=None, help="comma-separated start stack, bottom first (prvass; default empty)")
    p.add_argument("--counter", type=int, default=None, help="start counter (prvass; default 0)")
    p.add_argument("--counters", type=_counter_pair, default=None, help="start counters n0,n1 (minsky; default 0,0)")
    p.add_argument("--json", action="store_true")
    _add_bounds_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prop1", help="brute-force the two-approximations identity for a sequence")
    p.add_argument("symbols", nargs="+", help="operation tokens, e.g. m2 d2 t3")
    p.add_argument("--domain", type=int, default=100, help="rectangle bound for the exhaustive check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_prop1)

    p = sub.add_parser("diff", help="differential check: machine reachability vs compiled coverability")
    p.add_argument("machine", help="minsky file")
    p.add_argument("--json", action="store_true")
    _add_bounds_args(p)
    p.set_defaults(func=cmd_diff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
