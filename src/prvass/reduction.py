"""Gadget construction and the two-counter-machine-to-stack-system compiler.

The compiled system stores the counter-pair encoding in unary as a block
of a symbols on top of the stack, shaped bot record hash a^n with the
record a word over the six operation symbols.  Each machine action becomes
a forward gadget that weakly applies its operation (the result may fall
short) while appending the operation symbol to the record; once the
machine's final state is reached with encoding 1, a backward phase replays
the record in reverse through backward gadgets that weakly apply the
inverted operations while consuming the record.  Reaching the cover target
then requires both weak phases to connect 1 to 1, which pins the run to
the exact operation semantics.

A gadget's internal wiring is a design choice; only its end-to-end
contract is normative, namely that the set of exit configurations from a
given entry equals the weak-membership predicate of its operation symbol.
gadget_contract_set computes that set exhaustively and is the oracle the
test suite compares against weak_member.  The wiring depends only on the
symbol and the direction, so it is kept as a name-free shape table built
once at import, and each gadget applies its own state names to a shape.
A gadget's states are prefix/q1, /q2 and /q3, primed until fresh, with
prefix a<i>/<token> for action i's forward gadget and back-<token>/<token>
for a backward one.  Start, replay and cover (s', b, t', primed) and other
gadgets never start with it, so only machine states that do can collide,
and a gadget named from its prefix and those states is named as priming
against the whole system would name it.  A compile concatenates three kinds
of cached, immutable pieces, each shared by every compile that names it:
the initialization action per (start, source) name pair; one forward piece
per (symbol, prefix, colliding states, source, target), the gadget with both
glue actions; and the tail per (target, replay, cover, back- states), the
equals-one check, the six backward gadgets with their glue and the final
action.  Each piece carries its actions grouped by source, so the compiled
system's by_source index is merged from them rather than regrouped, and
every compile that shares a piece shares its actions, so the normalised
effect that each action caches is built once in the process, not once per
compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .models import (
    Action,
    Configuration,
    DEC,
    INC,
    Instruction,
    MinskyAction,
    MinskyMachine,
    Prvass,
    RESET,
    _per_instance,
    group_by_source,
    pop,
    push,
    validate,
)
from .relations import ALPHABET, DeltaSymbol, DIV, MULT, TEST, minsky_action_to_symbol

BOTTOM = "bot"
MARKER = "hash"
UNARY = "a"

STACK_ALPHABET = (BOTTOM, MARKER, UNARY) + tuple(sym.token for sym in ALPHABET)

FORWARD = "forward"
BACKWARD = "backward"


class InvalidModelError(ValueError):
    """Raised when a machine handed to the compiler fails validation."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass(frozen=True)
class Gadget:
    """A three-state fragment implementing one weak operation on the a-block."""

    entry: str
    exit: str
    internal_states: tuple[str, ...]
    actions: tuple[Action, ...]
    symbol: DeltaSymbol
    direction: str

    def __hash__(self) -> int:
        # the names alone tell the gadgets of one compiled system apart, so
        # hashing them spares hashing every action body; __eq__ stays field-wise
        return hash((self.entry, self.exit, self.direction))

    @_per_instance
    def system(self) -> Prvass:
        """The gadget alone as a stack system, which gadget_contract_set searches; built once per gadget."""
        return Prvass((self.entry, *self.internal_states, self.exit), STACK_ALPHABET, self.actions)


def _shape(sym: DeltaSymbol, direction: str) -> tuple[tuple[int, tuple[Instruction, ...], int], ...]:
    """The name-free wiring of one gadget: (source role, body, target role) per action.

    Roles 0, 1 and 2 stand for the entry, the internal state and the exit.
    """
    f = sym.factor
    consume_one = (pop(UNARY),) + (INC,) * f
    consume_group = (pop(UNARY),) * f + (INC,)
    if sym.kind == MULT:
        loop = consume_one if direction == FORWARD else consume_group
    elif sym.kind == DIV:
        loop = consume_group if direction == FORWARD else consume_one
    else:
        loop = (pop(UNARY),) * f + (INC,) * f

    if direction == FORWARD:
        record = (pop(MARKER), push(sym.token), push(MARKER))
    else:
        record = (pop(MARKER), pop(sym.token), push(MARKER))

    if sym.kind == TEST:
        # one middle action per non-zero remainder g, clearing g leftover
        # a symbols while preserving the count in the counter
        middles = tuple((0, (pop(UNARY),) * g + (INC,) * g + record, 1) for g in range(1, f))
    else:
        middles = ((0, record, 1),)

    return ((0, loop, 0),) + middles + ((1, (DEC, push(UNARY)), 1), (1, (RESET,), 2))


# every gadget of one (symbol, direction) has the same wiring; only the names differ
_SHAPES = {(sym, d): _shape(sym, d) for sym in ALPHABET for d in (FORWARD, BACKWARD)}


def build_gadget(sym: DeltaSymbol, direction: str, names: tuple[str, str, str]) -> Gadget:
    """Construct the gadget for one operation symbol.

    The entry loop transfers the a-block into the counter while applying
    the operation's arithmetic, the middle action requires the block to be
    fully consumed (which enforces divisibility side conditions) and pushes
    or pops the record symbol, and the exit loop pays the counter back out
    as a symbols in any amount up to its value before resetting.  That last
    loop is the single source of weakness: the result may undershoot.

    Forward gadgets append the record symbol; backward gadgets consume it
    and run the transposed arithmetic, so a backward multiplication
    consumes a symbols in groups of the factor and a backward division
    produces up to factor-many per consumed symbol.

    The wiring depends only on the symbol and the direction, so it is built
    once per pair at import as a name-free shape; this function puts in
    names, the names of the entry, the internal state and the exit.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction: {direction!r}")
    actions = tuple(Action(names[i], body, names[j]) for i, body, j in _SHAPES[sym, direction])
    return Gadget(names[0], names[2], (names[1],), actions, sym, direction)


@dataclass(frozen=True)
class CompiledSystem:
    """The compiled stack system plus the bookkeeping to read it back.

    start (also system.init) has no incoming actions and cover_target no
    outgoing ones; every machine state keeps its name in the compiled
    control, and bookkeeping maps each glued gadget to the machine action it
    simulates or, for the backward copies, to its symbol, in splice order.
    """

    system: Prvass
    start: str
    cover_target: str
    bookkeeping: dict


_INIT = (push(BOTTOM), push(MARKER), push(UNARY))
_EQUALS_ONE = (pop(UNARY), pop(MARKER), push(MARKER), push(UNARY))
_FINAL = (pop(UNARY), pop(MARKER), pop(BOTTOM))
_BACK_PREFIXES = tuple((sym, f"back-{sym.token}/{sym.token}") for sym in ALPHABET)


def _fresh(name: str, used: set) -> str:
    """name with primes appended until it is not in used, which then takes it."""
    while name in used:
        name += "'"
    used.add(name)
    return name


def _block(sym: DeltaSymbol, direction: str, prefix: str, taken: tuple[str, ...]) -> Gadget:
    """The gadget named prefix/q1, /q2, /q3, primed past taken (the states that start with prefix)."""
    used = set(taken)
    return build_gadget(sym, direction, tuple(_fresh(f"{prefix}/{role}", used) for role in ("q1", "q2", "q3")))


def _splice(states: list, actions: list, gadget: Gadget, into: str, back_to: str) -> None:
    """Append gadget's states, and its actions between empty-bodied glue from into and back to back_to."""
    states.extend((gadget.entry, *gadget.internal_states, gadget.exit))
    actions.append(Action(into, (), gadget.entry))
    actions.extend(gadget.actions)
    actions.append(Action(gadget.exit, (), back_to))


@dataclass(frozen=True)
class _Piece:
    """A run of compiled states and actions, built once and spliced into every compile that names it.

    The piece's actions grouped by source are join, the group that leaves a
    machine state, whose actions other pieces can add to, and own, the
    (state, actions) groups of states that only this piece's actions leave.
    """

    states: tuple[str, ...]
    actions: tuple[Action, ...]
    join: tuple[str, tuple[Action, ...]]
    own: tuple[tuple[str, tuple[Action, ...]], ...]

    @classmethod
    def of(cls, states, actions) -> "_Piece":
        """The piece of states and actions whose first action, and only it, leaves a machine state."""
        join, *own = group_by_source(actions).items()
        return cls(tuple(states), tuple(actions), join, tuple(own))

    def splice(self, states: list, actions: list, by_source: dict) -> None:
        """Append the piece's states and actions, and merge its groups into by_source."""
        states += self.states
        actions += self.actions
        state, group = self.join
        by_source[state] = by_source[state] + group if state in by_source else group
        by_source.update(self.own)


@lru_cache(maxsize=256)
def _head(start: str, source: str) -> tuple[Action]:
    """The initialization action, which establishes encoding 1 and enters the machine's source state."""
    return (Action(start, _INIT, source),)


@lru_cache(maxsize=4096)
def _forward(sym: DeltaSymbol, prefix: str, taken: tuple[str, ...], source: str, target: str) -> tuple[Gadget, _Piece]:
    """The forward gadget _block names, and the piece that glues it in from source and back to target."""
    gadget = _block(sym, FORWARD, prefix, taken)
    states: list = []
    actions: list = []
    _splice(states, actions, gadget, source, target)
    return gadget, _Piece.of(states, actions)


@lru_cache(maxsize=256)
def _tail(target: str, replay: str, cover: str, taken: tuple[str, ...]) -> tuple[dict, _Piece]:
    """Everything after the forward gadgets: (the backward gadgets' bookkeeping, the piece).

    The piece is the equals-one check from target into replay, one
    backward gadget per operation symbol glued in from replay and back to
    it, and the final action into cover.  taken is the machine states that
    start with back-, the only ones a backward gadget's names can collide
    with.  compile_machine only copies the bookkeeping dict into its own.
    """
    states = [replay]
    actions = [Action(target, _EQUALS_ONE, replay)]
    bookkeeping = {}
    for sym, prefix in _BACK_PREFIXES:
        gadget = _block(sym, BACKWARD, prefix, tuple(s for s in taken if s.startswith(prefix)))
        _splice(states, actions, gadget, replay, replay)
        bookkeeping[gadget] = sym
    states.append(cover)
    actions.append(Action(replay, _FINAL, cover))
    return bookkeeping, _Piece.of(states, actions)


@lru_cache(maxsize=256)
def _contract_bounds(bound: int, height: int):
    """The explorer.Bounds of a contract search at bound from a start stack of height symbols."""
    from . import explorer  # see gadget_contract_set

    return explorer.Bounds(
        max_steps=max(bound * 4, 16),
        max_stack=height + bound,
        max_counter=bound,
        max_visited=max(bound * bound, 1024),
    )


def compile_machine(m: MinskyMachine) -> CompiledSystem:
    """Compile a two-counter machine into a stack system with a cover target.

    The compiled system reaches its cover target from (start, empty, 0) iff
    the machine reaches (target, 0, 0) from (source, 0, 0) -- subject, of
    course, to bounded search on both sides.  Structure: an initialization
    action establishes encoding 1; each machine action is replaced by a
    fresh forward gadget for its operation symbol, spliced in with
    empty-bodied glue actions; an equals-one check guards entry to the
    replay state; one backward gadget per operation symbol loops through the
    replay state; a final action fires only on the exact stack bot hash a
    and empties it.
    A compile validates, picks the fresh start, replay and cover names, and
    concatenates cached pieces: the head, one forward piece per machine
    action and the tail, which holds the backward gadgets.  Each piece
    carries its actions grouped by source, so the system's by_source comes
    from merging them, and no search of it regroups the backward gadgets.  The
    index and the bookkeeping, in splice order, are the only dicts built
    per compile.
    """
    diags = validate(m)
    if diags:
        raise InvalidModelError(diags)

    used = set(m.states)
    start, replay, cover = _fresh("s'", used), _fresh("b", used), _fresh("t'", used)
    slashed = [s for s in m.states if "/" in s]  # every prefix has a /; keeps compiles linear

    head = _head(start, m.source)
    states = [start, *m.states]
    actions = [*head]
    by_source = {start: head}
    bookkeeping: dict[Gadget, MinskyAction | DeltaSymbol] = {}
    for i, origin in enumerate(m.actions):
        sym = minsky_action_to_symbol(origin)
        prefix = f"a{i}/{sym.token}"
        taken = tuple(s for s in slashed if s.startswith(prefix)) if slashed else ()
        gadget, piece = _forward(sym, prefix, taken, origin.source, origin.target)
        bookkeeping[gadget] = origin
        piece.splice(states, actions, by_source)
    back_taken = tuple(s for s in slashed if s.startswith("back-")) if slashed else ()
    back_gadgets, tail = _tail(m.target, replay, cover, back_taken)
    bookkeeping.update(back_gadgets)
    tail.splice(states, actions, by_source)

    system = Prvass(tuple(states), STACK_ALPHABET, tuple(actions), start)
    system.__dict__["by_source"] = by_source  # what reads of by_source return: no regrouping
    return CompiledSystem(system, start, cover, bookkeeping)


class GadgetBoundError(RuntimeError):
    """The contract enumeration hit its cap before reaching closure."""


def gadget_contract_set(
    g: Gadget, m: int, record: tuple[str, ...], bound: int
) -> set[tuple[tuple[str, ...], int]]:
    """All (record', n) observable at the gadget exit with counter 0.

    Exhaustively enumerates the configurations reachable from the entry
    with stack bot record hash a^m and counter 0, decodes the exit-state
    keys alone, and splits each stack with counter 0 into a record word and
    an a-count.  This is the executable left-hand side of the gadget contract;
    equality with the weak-membership predicate of the gadget's symbol is
    what makes a wiring correct.
    """
    # imported here, not at load, since the explorer imports this module
    # for compile_machine when it loads; importing the module alone skips
    # the per-call name handling that importing its names would pay
    from . import explorer

    if m < 0:
        raise ValueError(f"entry count must be non-negative, got {m}")
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    start_stack = (BOTTOM,) + tuple(record) + (MARKER,) + (UNARY,) * m
    start = Configuration(g.entry, start_stack, 0)
    reach = explorer.reachable_set(g.system, start, _contract_bounds(bound, len(start_stack)))
    if not reach.complete:
        raise GadgetBoundError(
            f"enumeration from {start} exhausted bound {bound} before closure"
        )
    out = set()
    records = {}  # one tuple per record word, shared by all of its exits
    for cfg in (reach.decode(key) for key in reach.keys if key[0] == g.exit):
        if cfg.counter != 0:
            continue
        stack = cfg.stack
        if not stack or stack[0] != BOTTOM:
            raise GadgetBoundError(f"exit stack lost its bottom symbol: {stack}")
        # the a-block is everything above the last marker, and nothing but a
        top_down = stack[::-1]
        try:
            count = top_down.index(MARKER)
        except ValueError:
            raise GadgetBoundError(f"exit stack lost its marker: {stack}") from None
        if top_down[:count].count(UNARY) != count:
            raise GadgetBoundError(f"exit stack lost its marker: {stack}")
        rec = stack[1 : len(stack) - 1 - count]
        out.add((records.setdefault(rec, rec), count))
    return out
