"""Line-oriented file formats for machines, stack systems, and traces.

Both model formats are plain text with '#' comments.  Canonical files
round-trip byte-for-byte through parse and serialize; non-canonical input
(comments, extra blanks) canonicalizes on the first serialize and is
stable from then on.
"""

from __future__ import annotations

import hashlib
import re

from .models import (
    Action,
    Configuration,
    Instruction,
    MINSKY_OPS,
    MinskyAction,
    MinskyMachine,
    Prvass,
    _TOKEN,
    pop,
    push,
    DEC,
    INC,
    RESET,
    Trace,
)


class ParseError(ValueError):
    """A syntax error with its position; the message carries both."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


_DIGITS = re.compile(r"[0-9]+")  # a trace counter, as render_trace writes it
_DIGEST = re.compile(r"[0-9a-f]{64}")  # a trace header's digest, as system_digest gives it


def _significant_lines(text: str) -> list:
    """(number, text) of each line that holds more than a comment and blanks, the comment and end blanks cut."""
    lines = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.rstrip()
        if line:
            lines.append((lineno, line))
    return lines


def _names(tokens: list, lineno: int, line: str, what: str) -> tuple:
    """The tokens of a 'key: names' line as a tuple, once each is checked to be a name."""
    for token in tokens:
        if not _TOKEN.fullmatch(token):
            column = line.find(token, line.index(":") + 1) + 1
            raise ParseError(lineno, column, f"bad {what} token {token!r}")
    return tuple(tokens)


def _key_line(lines, key: str, last: int):
    """The next line, which must be `key: tokens`; returns its number, its text and its tokens.

    last is the number of the line read before it; a file that ends first
    is reported at the line after that one.
    """
    lineno, line = next(lines, (last + 1, ""))
    body = line.lstrip()
    if not body.startswith(key + ":"):
        raise ParseError(lineno, 1, f"expected a {key!r} line")
    return lineno, line, body[len(key) + 1 :].split()


def _kind_line(text: str):
    """A model file's kind, the number of its kind line, and an iterator over the significant lines after it."""
    lines = iter(_significant_lines(text))
    lineno, line = next(lines, (None, None))
    if line is None:
        raise ParseError(1, 1, "empty file: expected a kind line ('minsky' or 'prvass')")
    kind = line.strip()
    if kind not in ("minsky", "prvass"):
        raise ParseError(lineno, 1, f"unknown model kind {kind!r} (expected 'minsky' or 'prvass')")
    return kind, lineno, lines


def parse_model_file(text: str) -> MinskyMachine | Prvass:
    """Parse either model format by its kind line into a MinskyMachine, or a Prvass whose init is its 'init:' line."""
    kind, lineno, lines = _kind_line(text)
    if kind == "minsky":
        return _parse_machine_body(lines, lineno)
    return _parse_system_body(lines, lineno)


_COUNTER_INDEX = {"0": 0, "1": 1}


def _parse_machine_body(lines, lineno: int) -> MinskyMachine:
    lineno, line, states = _key_line(lines, "states", lineno)
    states = _names(states, lineno, line, "state")
    lineno, _, init = _key_line(lines, "init", lineno)
    if len(init) != 1:
        raise ParseError(lineno, 1, "expected exactly one initial state")
    lineno, _, final = _key_line(lines, "final", lineno)
    if len(final) != 1:
        raise ParseError(lineno, 1, "expected exactly one final state")
    actions = []
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 4:
            raise ParseError(lineno, 1, f"expected 'source counter op target', got {line.strip()!r}")
        src, idx, op, dst = tokens
        index = _COUNTER_INDEX.get(idx)
        if index is None:
            column = list(re.finditer(r"\S+", line))[1].start() + 1
            raise ParseError(lineno, column, f"counter index must be 0 or 1, got {idx!r}")
        if op not in MINSKY_OPS:
            column = list(re.finditer(r"\S+", line))[2].start() + 1
            raise ParseError(lineno, column, f"op must be inc, dec or zero, got {op!r}")
        actions.append(MinskyAction(src, index, op, dst))
    return MinskyMachine(states, tuple(actions), init[0], final[0])


_ACTION_LINE = re.compile(r"^\s*(\S+)\s+->\s+(\S+)\s+:\s*(.*?)\s*$")
_PUSHPOP = re.compile(r"^(push|pop)\(([^\s:,()#]+)\)$")
_PIECE = re.compile(r"(?:^|,)\s*([^,]*?)\s*(?=,|$)")  # one comma-separated instruction, blanks trimmed


def _parse_instruction(token: str, lineno: int, column: int) -> Instruction:
    if token == "inc":
        return INC
    if token == "dec":
        return DEC
    if token == "reset":
        return RESET
    m = _PUSHPOP.match(token)
    if m:
        return push(m.group(2)) if m.group(1) == "push" else pop(m.group(2))
    raise ParseError(lineno, column, f"unknown instruction {token!r}")


def _parse_system_body(lines, lineno: int) -> Prvass:
    lineno, line, states = _key_line(lines, "states", lineno)
    states = _names(states, lineno, line, "state")
    lineno, line, stack = _key_line(lines, "stack", lineno)
    stack = _names(stack, lineno, line, "stack symbol")
    init = None
    init_line = None
    actions = []
    for lineno, line in lines:
        if line.strip().startswith("init:"):
            if init_line is not None:
                raise ParseError(lineno, 1, f"repeated 'init:' line (first on line {init_line})")
            tokens = line.strip()[5:].split()
            if len(tokens) != 1:
                raise ParseError(lineno, 1, "expected exactly one initial state")
            init, init_line = tokens[0], lineno
            continue
        m = _ACTION_LINE.match(line)
        if not m:
            raise ParseError(lineno, 1, f"expected 'source -> target : instructions', got {line.strip()!r}")
        src, dst, rest = m.groups()
        body = []
        if rest:
            for piece in _PIECE.finditer(rest):
                column = m.start(3) + piece.start(1) + 1
                if not piece.group(1):
                    raise ParseError(lineno, column, "empty instruction in list")
                body.append(_parse_instruction(piece.group(1), lineno, column))
        actions.append(Action(src, tuple(body), dst))
    return Prvass(states, stack, tuple(actions), init)


def parse_minsky(text: str) -> MinskyMachine:
    """Parse a two-counter machine file; a stack system's file is refused at its kind line once its body parses."""
    kind, lineno, lines = _kind_line(text)
    if kind == "minsky":
        return _parse_machine_body(lines, lineno)
    _parse_system_body(lines, lineno)  # an ill-formed body reports its own error first, as parse_model_file would
    raise ParseError(lineno, 1, "expected a minsky file, got kind 'prvass'")


def serialize_minsky(m: MinskyMachine) -> str:
    lines = [
        "minsky",
        "states: " + " ".join(m.states),
        f"init: {m.source}",
        f"final: {m.target}",
    ]
    for a in m.actions:
        lines.append(f"{a.source} {a.counter_index} {a.op} {a.target}")
    return "\n".join(lines) + "\n"


def serialize_prvass(sys: Prvass) -> str:
    """The canonical text of a stack system; an 'init:' line follows the stack line when sys.init is set."""
    lines = [
        "prvass",
        "states: " + " ".join(sys.states),
        "stack: " + " ".join(sys.stack_alphabet),
    ]
    if sys.init is not None:
        lines.append(f"init: {sys.init}")
    for a in sys.actions:
        rendered = ", ".join(str(i) for i in a.body)
        lines.append(f"{a.source} -> {a.target} :" + (f" {rendered}" if rendered else ""))
    return "\n".join(lines) + "\n"


def system_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_trace(trace: Trace, system_text: str) -> str:
    """Render a stack-system trace: a content-hash header, then one config per line.

    Columns are tab-separated; the stack word is space-joined so multi-
    character symbol names stay unambiguous.
    """
    lines = [f"# sha256: {system_digest(system_text)}"]
    for cfg in (trace.start, *(cfg for _, cfg in trace.steps)):
        lines.append(f"{cfg.state}\t{' '.join(cfg.stack)}\t{cfg.counter}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[str, Trace]:
    """Parse a trace file into its system digest and an action-less Trace."""
    lines = text.split("\n")
    if not lines[0].startswith("# sha256: "):
        raise ParseError(1, 1, "expected a '# sha256: <hex>' header line")
    digest = lines[0][len("# sha256: ") :].removesuffix("\r")  # a CRLF file's line end
    if not _DIGEST.fullmatch(digest):
        raise ParseError(1, 11, f"digest is not 64 lowercase hex digits: {digest!r}")
    configs = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ParseError(lineno, 1, "expected 'state<TAB>stack<TAB>counter'")
        state, stack_word, counter = cols
        if not _TOKEN.fullmatch(state):
            raise ParseError(lineno, 1, f"bad state token {state!r}")
        stack = []
        for symbol in re.finditer(r"\S+", stack_word):
            if not _TOKEN.fullmatch(symbol[0]):
                raise ParseError(lineno, len(state) + 2 + symbol.start(), f"bad stack symbol token {symbol[0]!r}")
            stack.append(symbol[0])
        counter = counter.removesuffix("\r")  # a CRLF file's line end
        if not _DIGITS.fullmatch(counter):
            raise ParseError(lineno, len(state) + len(stack_word) + 3, f"counter is not a natural number: {counter!r}")
        configs.append(Configuration(state, tuple(stack), int(counter)))
    if not configs:
        raise ParseError(2, 1, "trace has no configurations")
    return digest, Trace(configs[0], tuple((None, c) for c in configs[1:]))
