"""Syntax and small-step semantics for the two machine models.

A stack-and-counter system has a finite control, one non-negative counter
with increment/decrement/reset, and a pushdown stack; transitions carry a
whole sequence of instructions that fires atomically.  A two-counter
machine has two non-negative counters with increment, decrement, and
zero-test.  Both step relations are partial: an instruction that would
drive a counter negative or pop the wrong symbol simply does not fire.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

PUSH = "push"
POP = "pop"
INC_KIND = "inc"
DEC_KIND = "dec"
RESET_KIND = "reset"

INSTRUCTION_KINDS = (PUSH, POP, INC_KIND, DEC_KIND, RESET_KIND)

MINSKY_OPS = ("inc", "dec", "zero")

# a state or stack symbol name, as the file formats read and write it
_TOKEN = re.compile(r"[^\s:,()#]+")


@dataclass(frozen=True)
class Instruction:
    """One stack or counter instruction, checked when built: ``symbol`` is a str for push/pop, else None."""

    kind: str
    symbol: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in INSTRUCTION_KINDS:
            raise ValueError(f"unknown instruction kind: {self.kind!r}")
        if self.kind in (PUSH, POP):
            if not isinstance(self.symbol, str):
                raise ValueError(f"{self.kind} needs a str symbol, got {self.symbol!r}")
        elif self.symbol is not None:
            raise ValueError(f"stray symbol {self.symbol!r} on {self.kind}")

    def __str__(self) -> str:
        if self.kind in (PUSH, POP):
            return f"{self.kind}({self.symbol})"
        return self.kind


def push(symbol: str) -> Instruction:
    return Instruction(PUSH, symbol)


def pop(symbol: str) -> Instruction:
    return Instruction(POP, symbol)


INC = Instruction(INC_KIND)
DEC = Instruction(DEC_KIND)
RESET = Instruction(RESET_KIND)


class _per_instance:
    """A method's value, computed on the first read and stored in the instance dict.

    Later reads find the stored value before the descriptor, as with
    functools.cached_property, and storing a value there first (as
    compile_machine does) makes it the one read.  It has three users, each
    a pure function of its frozen instance's fields: by_source on a system
    or a machine, Action.effect and Gadget.system; so a cached value is
    never stale, and no search writes into a model.  The package's caches do
    not use cached_property because in Python 3.10 and 3.11 that takes a
    lock on every first read, which costs more than grouping a small
    machine's actions, and every freshly parsed machine reads by_source
    once per check; 3.12's cached_property has no lock and works as this does.
    """

    def __init__(self, method) -> None:
        self.method = method
        self.__doc__ = method.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


@dataclass(frozen=True)
class Action:
    """A control transition whose instruction body fires atomically."""

    source: str
    body: tuple[Instruction, ...]
    target: str

    @_per_instance
    def effect(self) -> tuple | None:
        """The body's normalised effect, _effect(body), which the flat search fires; built once per action.

        Every compile that shares an action through a cached piece shares its effect too.
        """
        return _effect(self.body)


def group_by_source(actions) -> dict:
    """The actions grouped by source state, in declaration order, as tuples."""
    groups: dict = {}
    for action in actions:
        groups.setdefault(action.source, []).append(action)
    for source, group in groups.items():
        groups[source] = tuple(group)
    return groups


@dataclass(frozen=True)
class Prvass:
    """A stack-and-counter system: states, stack alphabet, actions, and an optional initial state.

    Declaration order of states and actions is preserved; it fixes the
    successor order and hence every trace and verdict downstream.
    """

    states: tuple[str, ...]
    stack_alphabet: tuple[str, ...]
    actions: tuple[Action, ...]
    init: str | None = None

    @_per_instance
    def by_source(self) -> dict:
        """The actions grouped by source state, in declaration order, as tuples; built once per system."""
        return group_by_source(self.actions)


@dataclass(frozen=True)
class Configuration:
    """A control state, a stack word (leftmost = bottom), and the counter."""

    state: str
    stack: tuple[str, ...]
    counter: int

    def __post_init__(self) -> None:
        if self.counter < 0:
            raise ValueError(f"negative counter in configuration: {self.counter}")


@dataclass(frozen=True)
class MinskyAction:
    """A two-counter step, checked when built: ``op`` is one of MINSKY_OPS on the int counter 0 or 1."""

    source: str
    counter_index: int
    op: str
    target: str

    def __post_init__(self) -> None:
        if type(self.counter_index) is not int or self.counter_index not in (0, 1):
            raise ValueError(f"counter index {self.counter_index!r} not 0 or 1")
        if self.op not in MINSKY_OPS:
            raise ValueError(f"unknown counter op: {self.op!r}")


@dataclass(frozen=True)
class MinskyMachine:
    """A two-counter machine with designated source and target states."""

    states: tuple[str, ...]
    actions: tuple[MinskyAction, ...]
    source: str
    target: str

    @_per_instance
    def by_source(self) -> dict:
        """The actions grouped by source state, in declaration order, as tuples; built once per machine."""
        return group_by_source(self.actions)


@dataclass(frozen=True)
class MinskyConfig:
    state: str
    counters: tuple[int, int]

    def __post_init__(self) -> None:
        if self.counters[0] < 0 or self.counters[1] < 0:
            raise ValueError(f"negative counter in configuration: {self.counters}")


@dataclass(frozen=True)
class Trace:
    """A replayable witness: a start configuration and the fired steps, each (action or None, configuration)."""

    start: Configuration | MinskyConfig
    steps: tuple[tuple[Action | MinskyAction | None, Configuration | MinskyConfig], ...]


StackCounter = tuple[tuple[str, ...], int]


def step_instruction(sc: StackCounter, instr: Instruction) -> StackCounter | None:
    """Apply one instruction to a (stack, counter) pair.

    Returns None when the instruction does not fire: pop with the wrong (or
    no) top symbol, or decrement at counter zero.  The counter is never
    clamped; an undefined step is simply absent.
    """
    stack, counter = sc
    kind = instr.kind
    if kind == PUSH:
        return stack + (instr.symbol,), counter
    if kind == POP:
        if stack and stack[-1] == instr.symbol:
            return stack[:-1], counter
        return None
    if kind == INC_KIND:
        return stack, counter + 1
    if kind == DEC_KIND:
        if counter >= 1:
            return stack, counter - 1
        return None
    return stack, 0  # reset, the one kind left


def step_sequence(sc: StackCounter, body: tuple[Instruction, ...]) -> StackCounter | None:
    """Fold step_instruction over a body, left to right; None if any step is undefined."""
    cur = sc
    for instr in body:
        cur = step_instruction(cur, instr)
        if cur is None:
            return None
    return cur


def _effect(body):
    """The normalised effect of an action body, or None when no configuration can fire it.

    Stack and counter instructions act on independent parts of a
    configuration, so a body factorises into (pops, pushes, need, reset,
    delta): it fires when the stack top reads pops (top first) and the
    counter is at least need; it replaces the popped symbols by pushes
    (bottom first) and sets the counter to delta after a reset, or adds
    delta to it otherwise.  A push of x then a pop of y cancels when x == y
    and is dead otherwise; so is a decrement below zero after a reset.
    Instruction checks its kind when built, so the last branch is a reset.
    """
    pops, pushes = [], []
    need, reset, delta = 0, False, 0
    for instr in body:
        kind = instr.kind
        if kind == PUSH:
            pushes.append(instr.symbol)
        elif kind == POP:
            if not pushes:
                pops.append(instr.symbol)
            elif pushes.pop() != instr.symbol:
                return None
        elif kind == INC_KIND:
            delta += 1
        elif kind == DEC_KIND:
            if not reset:
                need = max(need, 1 - delta)
            elif delta < 1:
                return None
            delta -= 1
        else:  # reset
            reset, delta = True, 0
    return tuple(pops), tuple(pushes), need, reset, delta


def successors(sys: Prvass, cfg: Configuration) -> list[tuple[Action, Configuration]]:
    """All one-action successors of cfg, in action declaration order.

    Intermediate stack/counter values inside an action body are not
    observable; an action either fires completely or not at all.  An empty
    list marks a dead end, which is legal.
    """
    out = []
    for action in sys.actions:
        if action.source != cfg.state:
            continue
        res = step_sequence((cfg.stack, cfg.counter), action.body)
        if res is not None:
            stack, counter = res
            out.append((action, Configuration(action.target, stack, counter)))
    return out


def minsky_successors(m: MinskyMachine, cfg: MinskyConfig) -> list[tuple[MinskyAction, MinskyConfig]]:
    """All firable two-counter steps from cfg, in action declaration order.

    A zero-test fires only when the tested counter is 0; a decrement only
    when it is at least 1.  The untested counter is unchanged.
    """
    out = []
    n0, n1 = cfg.counters
    for action in m.actions:
        if action.source != cfg.state:
            continue
        value = cfg.counters[action.counter_index]
        if action.op == "inc":
            new_value = value + 1
        elif action.op == "dec":
            if value == 0:
                continue
            new_value = value - 1
        else:  # zero
            if value != 0:
                continue
            new_value = 0
        counters = (new_value, n1) if action.counter_index == 0 else (n0, new_value)
        out.append((action, MinskyConfig(action.target, counters)))
    return out


@dataclass(frozen=True)
class Diagnostic:
    """A bad name, a duplicate or an undeclared reference, as data; an ill-formed element cannot be built."""

    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


def _bad_names(where: str, what: str, names) -> list[Diagnostic]:
    """A diagnostic for each name that the file formats could not write back."""
    return [
        Diagnostic(where, f"{what} {name!r} is not a name: one or more characters, none of them white space or :,()#")
        for name in names
        if not (isinstance(name, str) and _TOKEN.fullmatch(name))
    ]


def _where(i: int, action) -> str:
    """Where a diagnostic on the i-th action points; formatted only for a faulty action."""
    return f"action[{i}] {action.source} -> {action.target}"


def _validate_prvass(sys: Prvass) -> list[Diagnostic]:
    diags = _bad_names("states", "state", sys.states) + _bad_names("stack", "stack symbol", sys.stack_alphabet)
    states = set(sys.states)
    alphabet = set(sys.stack_alphabet)
    if len(states) != len(sys.states):
        diags.append(Diagnostic("states", "duplicate state declaration"))
    if len(alphabet) != len(sys.stack_alphabet):
        diags.append(Diagnostic("stack", "duplicate stack symbol declaration"))
    for i, action in enumerate(sys.actions):
        if action.source not in states:
            diags.append(Diagnostic(_where(i, action), f"unknown source state {action.source!r}"))
        if action.target not in states:
            diags.append(Diagnostic(_where(i, action), f"unknown target state {action.target!r}"))
        for j, instr in enumerate(action.body):
            if instr.symbol is not None and instr.symbol not in alphabet:
                diags.append(
                    Diagnostic(_where(i, action), f"instruction {j}: symbol {instr.symbol!r} not in stack alphabet")
                )
    if sys.init is not None and sys.init not in states:
        diags.append(Diagnostic("init", f"unknown initial state {sys.init!r}"))
    return diags


def _validate_minsky(m: MinskyMachine) -> list[Diagnostic]:
    diags = _bad_names("states", "state", m.states)
    states = set(m.states)
    if len(states) != len(m.states):
        diags.append(Diagnostic("states", "duplicate state declaration"))
    if m.source not in states:
        diags.append(Diagnostic("init", f"unknown initial state {m.source!r}"))
    if m.target not in states:
        diags.append(Diagnostic("final", f"unknown final state {m.target!r}"))
    for i, action in enumerate(m.actions):
        if action.source not in states:
            diags.append(Diagnostic(_where(i, action), f"unknown source state {action.source!r}"))
        if action.target not in states:
            diags.append(Diagnostic(_where(i, action), f"unknown target state {action.target!r}"))
    return diags


def validate(sys: Prvass | MinskyMachine) -> list[Diagnostic]:
    """All bad names, duplicates and undeclared states and symbols of a system; empty list iff well-formed."""
    if isinstance(sys, Prvass):
        return _validate_prvass(sys)
    if isinstance(sys, MinskyMachine):
        return _validate_minsky(sys)
    raise TypeError(f"cannot validate {type(sys).__name__}")
