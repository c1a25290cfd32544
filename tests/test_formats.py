import pytest

from prvass.check import replay_trace
from prvass.explorer import Bounds, bounded_cover
from prvass.models import (
    Action,
    Configuration,
    INC,
    MinskyAction,
    MinskyMachine,
    Prvass,
    pop,
    push,
    validate,
)
from prvass.formats import (
    ParseError,
    parse_minsky,
    parse_model_file,
    parse_trace,
    render_trace,
    serialize_minsky,
    serialize_prvass,
    system_digest,
)
from prvass.reduction import compile_machine

from conftest import CORPUS_EXPECTED, corpus_path, load_machine

INC_DEC_TEXT = """minsky
states: s q t
init: s
final: t
s 0 inc q
q 0 dec t
"""

# a well-formed header for the trace tests that do not check the digest
HEADER = f"# sha256: {system_digest('')}"


def test_parse_minsky_inc_dec():
    m = parse_minsky(INC_DEC_TEXT)
    assert m == MinskyMachine(
        ("s", "q", "t"),
        (MinskyAction("s", 0, "inc", "q"), MinskyAction("q", 0, "dec", "t")),
        "s",
        "t",
    )


def test_parse_minsky_bad_op_names_line():
    text = INC_DEC_TEXT.replace("q 0 dec t", "q 0 foo t")
    with pytest.raises(ParseError) as exc:
        parse_minsky(text)
    assert str(exc.value) == "line 6, column 5: op must be inc, dec or zero, got 'foo'"


def test_parse_minsky_bad_counter_index():
    with pytest.raises(ParseError) as exc:
        parse_minsky(INC_DEC_TEXT.replace("s 0 inc q", "s 7 inc q"))
    assert "0 or 1" in str(exc.value)


def test_parse_minsky_reports_a_stack_system_at_its_kind_line():
    with pytest.raises(ParseError) as exc:
        parse_minsky("# c\n\nprvass\nstates: s\nstack: a\n")
    assert str(exc.value) == "line 3, column 1: expected a minsky file, got kind 'prvass'"


def test_bad_name_token_reports_its_column_in_the_line():
    with pytest.raises(ParseError) as exc:
        parse_minsky(INC_DEC_TEXT.replace("states: s q t", "states: s q:x t"))
    assert (exc.value.line, exc.value.column) == (2, 11)
    with pytest.raises(ParseError) as exc:
        parse_model_file(PRVASS_TEXT.replace("stack: a b", "stack:  a  b,c"))
    assert (exc.value.line, exc.value.column) == (3, 12)


def test_minsky_round_trip_is_identity_on_canonical_text():
    assert serialize_minsky(parse_minsky(INC_DEC_TEXT)) == INC_DEC_TEXT


def test_minsky_serialize_parse_canonicalizes_and_is_idempotent():
    messy = "# a comment\nminsky\n\nstates:   s q t\ninit: s\nfinal: t   # trailing\ns 0 inc q\nq 0 dec t\n"
    once = serialize_minsky(parse_minsky(messy))
    assert once == INC_DEC_TEXT
    assert serialize_minsky(parse_minsky(once)) == once


def test_corpus_files_are_canonical():
    for name in CORPUS_EXPECTED:
        text = corpus_path(name).read_text()
        assert serialize_minsky(parse_minsky(text)) == text, name


PRVASS_TEXT = """prvass
states: q1 q2
stack: a b
init: q1
q1 -> q2 : pop(a), inc, inc
q2 -> q2 :
"""


def test_prvass_action_bodies():
    sys = parse_model_file(PRVASS_TEXT)
    assert sys == Prvass(
        ("q1", "q2"),
        ("a", "b"),
        (Action("q1", (pop("a"), INC, INC), "q2"), Action("q2", (), "q2")),
        "q1",
    )


def test_prvass_model_file_round_trip_keeps_init():
    sys = parse_model_file(PRVASS_TEXT)
    assert isinstance(sys, Prvass) and sys.init == "q1"
    assert serialize_prvass(sys) == PRVASS_TEXT


def test_prvass_rejects_repeated_init_with_its_line():
    with pytest.raises(ParseError) as exc:
        parse_model_file(PRVASS_TEXT + "init: q2\n")
    assert exc.value.line == 7
    assert "line 4" in str(exc.value)


def test_prvass_rejects_unknown_instruction():
    with pytest.raises(ParseError) as exc:
        parse_model_file(PRVASS_TEXT.replace("inc, inc", "inc, warp"))
    assert "warp" in str(exc.value)


def test_action_line_errors_point_at_the_named_token():
    cases = [
        (parse_minsky, INC_DEC_TEXT, "s 0 inc q", "s7 7 inc q", 4),
        (parse_minsky, INC_DEC_TEXT, "s 0 inc q", "sinc 0 in q", 8),
        (parse_model_file, PRVASS_TEXT, "q1 -> q2 : pop(a), inc, inc", "s -> t : inc, in", 15),
        (parse_model_file, PRVASS_TEXT, "q1 -> q2 : pop(a), inc, inc", "s -> t : push(a), inc,, dec", 23),
    ]
    for parse, text, old, new, column in cases:
        with pytest.raises(ParseError) as exc:
            parse(text.replace(old, new))
        assert exc.value.column == column, new


def test_unknown_pop_symbol_is_a_validation_diagnostic_not_a_parse_error():
    sys = parse_model_file(PRVASS_TEXT.replace("pop(a)", "pop(zz)"))
    messages = [str(d) for d in validate(sys)]
    assert any("zz" in m for m in messages)


def test_parse_rejects_unknown_kind_and_empty_file():
    with pytest.raises(ParseError):
        parse_model_file("petri\n")
    with pytest.raises(ParseError):
        parse_model_file("   \n# only a comment\n")
    with pytest.raises(ParseError):
        parse_minsky(PRVASS_TEXT)


@pytest.mark.parametrize(
    "text, line, key",
    [
        ("minsky\n", 2, "states"),
        ("minsky\nstates: s t\n", 3, "init"),
        ("minsky\nstates: s t\ninit: s\n", 4, "final"),
        ("prvass\n", 2, "states"),
        ("prvass\nstates: s t\n", 3, "stack"),
    ],
    ids=["minsky-states", "minsky-init", "minsky-final", "prvass-states", "prvass-stack"],
)
def test_truncated_file_reports_the_line_after_its_last(text, line, key):
    with pytest.raises(ParseError) as err:
        parse_model_file(text)
    assert (err.value.line, err.value.column) == (line, 1)
    assert f"expected a {key!r} line" in str(err.value)


MINSKY_HEAD = "minsky\nstates: s t\n"
PRVASS_HEAD = "prvass\nstates: q1 q2\nstack: a\n"


@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        (parse_minsky, MINSKY_HEAD + "init: s t\nfinal: t\n", 3, "expected exactly one initial state"),
        (parse_minsky, MINSKY_HEAD + "init:\nfinal: t\n", 3, "expected exactly one initial state"),
        (parse_minsky, MINSKY_HEAD + "init: s\nfinal:\n", 4, "expected exactly one final state"),
        (parse_minsky, MINSKY_HEAD + "init: s\nfinal: s t\n", 4, "expected exactly one final state"),
        (
            parse_minsky,
            MINSKY_HEAD + "init: s\nfinal: t\ns 0 inc\n",
            5,
            "expected 'source counter op target', got 's 0 inc'",
        ),
        (
            parse_minsky,
            MINSKY_HEAD + "init: s\nfinal: t\ns 0 inc t t\n",
            5,
            "expected 'source counter op target', got 's 0 inc t t'",
        ),
        (parse_model_file, PRVASS_HEAD + "init: q1 q2\n", 4, "expected exactly one initial state"),
        (parse_model_file, PRVASS_HEAD + "init:\n", 4, "expected exactly one initial state"),
        (
            parse_model_file,
            PRVASS_HEAD + "q1 -> q2 :\nq1 q2\n",
            5,
            "expected 'source -> target : instructions', got 'q1 q2'",
        ),
        (
            parse_model_file,
            PRVASS_HEAD + "q1 -> q2 inc\n",
            4,
            "expected 'source -> target : instructions', got 'q1 -> q2 inc'",
        ),
        (parse_trace, f"{HEADER}\ns\ta 0\n", 2, "expected 'state<TAB>stack<TAB>counter'"),
        (parse_trace, f"{HEADER}\ns\ta\t0\ns\ta\t0\t\n", 3, "expected 'state<TAB>stack<TAB>counter'"),
        (parse_trace, f"{HEADER}\n", 2, "trace has no configurations"),
        (parse_trace, f"{HEADER}\n\n  \n", 2, "trace has no configurations"),
    ],
    ids=[
        "minsky-two-inits",
        "minsky-no-init",
        "minsky-no-final",
        "minsky-two-finals",
        "minsky-three-fields",
        "minsky-five-fields",
        "prvass-two-inits",
        "prvass-no-init",
        "prvass-no-arrow",
        "prvass-no-colon",
        "trace-two-columns",
        "trace-four-columns",
        "trace-header-only",
        "trace-blank-lines-only",
    ],
)
def test_a_malformed_line_is_reported_at_its_first_column(parse, text, line, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, 1)
    assert str(exc.value) == f"line {line}, column 1: {message}"


def test_compiled_system_round_trips():
    compiled = compile_machine(load_machine("inc-dec"))
    text = serialize_prvass(compiled.system)
    sys = parse_model_file(text)
    assert sys == compiled.system
    assert sys.init == compiled.start
    assert serialize_prvass(sys) == text


def test_trace_render_and_parse_round_trip():
    compiled = compile_machine(load_machine("inc-dec"))
    text = serialize_prvass(compiled.system)
    verdict = bounded_cover(
        compiled.system,
        Configuration(compiled.start, (), 0),
        compiled.cover_target,
        Bounds(1_000_000, 64, 10_000, 1_000_000),
    )
    rendered = render_trace(verdict.trace, text)
    digest, loaded = parse_trace(rendered)
    assert digest == system_digest(text)
    assert loaded.start == verdict.trace.start
    assert [c for _, c in loaded.steps] == [c for _, c in verdict.trace.steps]
    # loaded traces carry no action references; replay still validates them
    assert replay_trace(compiled.system, loaded)


def test_trace_parse_rejects_missing_header():
    with pytest.raises(ParseError):
        parse_trace("s\t\t0\n")
    with pytest.raises(ParseError):
        parse_trace(f"{HEADER}\ns\t\tnot-a-number\n")
    with pytest.raises(ParseError) as exc:
        parse_trace(f"{HEADER}\ns\ta\t0\ns\t\t-1\n")
    assert (exc.value.line, exc.value.column) == (3, 4)


@pytest.mark.parametrize(
    "counter",
    ["+3", " 3", "3 ", "1_0", "٣", "3\r\r", "0x3", ""],
    ids=["plus", "leading-blank", "trailing-blank", "underscore", "arabic-indic", "two-cr", "hex", "empty"],
)
def test_trace_counter_is_ascii_digits_only(counter):
    with pytest.raises(ParseError) as exc:
        parse_trace(f"{HEADER}\ns\ta b\t{counter}\n")
    assert (exc.value.line, exc.value.column) == (2, 7)
    assert "counter is not a natural number" in str(exc.value)


@pytest.mark.parametrize(
    "text, position",
    [
        ("# sha256: abc\ns\ta\t0\n", (1, 11)),
        ("# sha256: not-hex at all\ns\ta\t0\n", (1, 11)),
        ("# sha256: \ns\ta\t0\n", (1, 11)),
        (f"# sha256: {system_digest('').upper()}\ns\ta\t0\n", (1, 11)),
        (f"{HEADER}0\ns\ta\t0\n", (1, 11)),
        (f"{HEADER} \ns\ta\t0\n", (1, 11)),
        (f"{HEADER}\n\ta\t0\n", (2, 1)),
        (f"{HEADER}\ns\ta\t0\n\t\t1\r\n", (3, 1)),
    ],
    ids=["short", "not-hex", "empty", "upper-case", "65-digits", "trailing-blank", "empty-state", "later-empty-state"],
)
def test_trace_rejects_a_malformed_digest_or_an_empty_state(text, position):
    with pytest.raises(ParseError) as exc:
        parse_trace(text)
    assert (exc.value.line, exc.value.column) == position


def test_trace_with_crlf_line_ends_loads_as_with_lf():
    text = f"{HEADER}\ns\ta\t0\nt\t\t12\n"
    assert parse_trace(text.replace("\n", "\r\n")) == parse_trace(text)


@pytest.mark.parametrize(
    "state",
    [" s x:", "s x", " s", "s ", "s:", "s,t", "f(s)", "s#1", "s\r"],
    ids=["blanks-and-colon", "inner-blank", "leading-blank", "trailing-blank", "colon", "comma", "parens", "hash", "cr"],
)
def test_trace_state_is_a_name_token(state):
    with pytest.raises(ParseError) as exc:
        parse_trace(f"{HEADER}\ns\ta\t0\n{state}\ta\t1\n")
    assert str(exc.value) == f"line 3, column 1: bad state token {state!r}"


@pytest.mark.parametrize(
    "stack, symbol, column",
    [("a:b (x)", "a:b", 3), ("a (x)", "(x)", 5), ("#", "#", 3), ("bot a,b", "a,b", 7)],
    ids=["colon", "parens", "hash", "comma"],
)
def test_trace_stack_symbols_are_name_tokens(stack, symbol, column):
    with pytest.raises(ParseError) as exc:
        parse_trace(f"{HEADER}\ns\t{stack}\t0\n")
    assert str(exc.value) == f"line 2, column {column}: bad stack symbol token {symbol!r}"
