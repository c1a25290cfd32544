"""Interpreters, a reduction compiler, and a bounded coverability explorer.

The package models two machine families -- one-counter pushdown systems
with resets and two-counter machines -- and compiles the latter into the
former through weak unary arithmetic gadgets, with brute-force oracles and
a bounded exhaustive explorer to certify the construction at desk scale.
"""

from .models import (
    Action,
    Configuration,
    Diagnostic,
    Instruction,
    MinskyAction,
    MinskyConfig,
    MinskyMachine,
    Prvass,
    DEC,
    INC,
    RESET,
    minsky_successors,
    pop,
    push,
    step_instruction,
    step_sequence,
    successors,
    validate,
)
from .relations import (
    ALPHABET,
    DeltaSymbol,
    MonotonePairsReport,
    TwoApproximationsReport,
    RelationSpec,
    WeakMode,
    check_monotone_pairs_lemma,
    check_two_approximations,
    compose_image,
    compose_member,
    godel_decode,
    godel_encode,
    is_strictly_monotone,
    minsky_action_to_symbol,
    parse_delta_token,
    rel_spec,
    weak_member,
)
from .reduction import (
    BACKWARD,
    CompiledSystem,
    FORWARD,
    Gadget,
    STACK_ALPHABET,
    build_gadget,
    compile_machine,
    gadget_contract_set,
)
from .explorer import (
    BOUNDS_HIT,
    Bounds,
    COVERED,
    DifferentialReport,
    EXHAUSTED_NO_COVER,
    Trace,
    Verdict,
    bounded_cover,
    differential_check,
    minsky_bounded_reach,
    reachable_set,
    replay_trace,
)
from .formats import (
    ParseError,
    parse_minsky,
    parse_model_file,
    parse_trace,
    render_trace,
    serialize_minsky,
    serialize_prvass,
)

__all__ = [name for name in dir() if not name.startswith("_")]
