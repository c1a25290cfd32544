import ast
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from prvass import cli, explorer
from prvass.check import replay_trace
from prvass.cli import main
from prvass.explorer import Bounds, differential_check
from prvass.formats import parse_model_file, parse_trace, system_digest
from prvass.reduction import FORWARD, build_gadget, gadget_contract_set
from prvass.relations import TwoApproximationsReport, parse_delta_token

from conftest import corpus_path, load_machine


@pytest.fixture()
def workdir(tmp_path):
    for name in ("inc-dec", "inc-only", "big-counter", "swap"):
        shutil.copy(corpus_path(name), tmp_path / f"{name}.minsky")
    return tmp_path


def _compile(workdir, name):
    out = workdir / f"{name}.prvass"
    assert main(["compile", str(workdir / f"{name}.minsky"), str(out)]) == 0
    return out


def test_compile_reports_start_and_target(workdir, capsys):
    _compile(workdir, "inc-dec")
    out = capsys.readouterr().out
    assert "START=s'" in out
    assert "TARGET=t'" in out


def test_cover_covered_exits_zero(workdir, capsys):
    system = _compile(workdir, "inc-dec")
    assert main(["cover", str(system), "--target", "t'"]) == 0
    assert "VERDICT=covered" in capsys.readouterr().out


def test_cover_definitive_negative_exits_one(workdir, capsys):
    system = _compile(workdir, "inc-only")
    assert main(["cover", str(system), "--target", "t'"]) == 1
    assert "VERDICT=no-cover" in capsys.readouterr().out


def test_cover_expect_no_cover_flips_exit(workdir):
    system = _compile(workdir, "inc-only")
    assert main(["cover", str(system), "--target", "t'", "--expect", "no-cover"]) == 0
    covered = _compile(workdir, "inc-dec")
    assert main(["cover", str(covered), "--target", "t'", "--expect", "no-cover"]) == 1


def test_cover_bounds_hit_exits_two(workdir, capsys):
    system = _compile(workdir, "inc-dec")
    assert main(["cover", str(system), "--target", "t'", "--max-steps", "1"]) == 2
    assert "VERDICT=bounds-hit" in capsys.readouterr().out


def test_cover_unknown_target_is_usage_error(workdir):
    system = _compile(workdir, "inc-dec")
    assert main(["cover", str(system), "--target", "nowhere"]) == 3


def test_cover_visited_budget_exits_two(workdir):
    system = _compile(workdir, "inc-dec")
    assert main(["cover", str(system), "--target", "t'", "--max-visited", "3"]) == 2


def test_cover_writes_replayable_trace(workdir, capsys):
    system = _compile(workdir, "inc-dec")
    trace_path = workdir / "witness.trace"
    assert main(["cover", str(system), "--target", "t'", "--trace-out", str(trace_path)]) == 0
    text = system.read_text()
    digest, trace = parse_trace(trace_path.read_text())
    assert digest == system_digest(text)
    assert replay_trace(parse_model_file(text), trace)


def test_cover_unwritable_trace_out_fails_before_the_search(workdir, monkeypatch, capsys):
    system = _compile(workdir, "inc-dec")
    calls = []
    monkeypatch.setattr("prvass.cli.bounded_cover", lambda *args: calls.append(args))
    trace_path = workdir / "nodir" / "x.trace"
    assert main(["cover", str(system), "--target", "t'", "--trace-out", str(trace_path)]) == 3
    assert calls == []
    assert "VERDICT" not in capsys.readouterr().out


def test_cover_without_a_witness_leaves_no_trace_file(workdir):
    system = _compile(workdir, "inc-only")
    trace_path = workdir / "witness.trace"
    assert main(["cover", str(system), "--target", "t'", "--trace-out", str(trace_path)]) == 1
    assert not trace_path.exists()
    assert main(["cover", str(system), "--target", "nowhere", "--trace-out", str(trace_path)]) == 3
    assert not trace_path.exists()


def test_cover_without_a_witness_keeps_a_file_already_at_the_trace_path(workdir):
    system = _compile(workdir, "inc-only")
    kept = workdir / "kept.txt"
    kept.write_text("keep me\n")
    for target, code in (("t'", 1), ("nowhere", 3)):
        assert main(["cover", str(system), "--target", target, "--trace-out", str(kept)]) == code
        assert kept.read_text() == "keep me\n"
    model = system.read_text()
    assert main(["cover", str(system), "--target", "t'", "--trace-out", str(system)]) == 3
    assert system.read_text() == model


@pytest.mark.parametrize("command", ["compile", "cover"])
def test_an_output_path_that_names_the_input_exits_three_and_writes_nothing(workdir, command, capsys):
    # writing the output would replace the input: compile's with the compiled system, cover's with its own witness
    if command == "compile":
        source = workdir / "inc-dec.minsky"
        argv = ["compile", str(source)]
    else:
        source = _compile(workdir, "inc-dec")
        argv = ["cover", str(source), "--target", "t'", "--trace-out"]
    before = source.read_bytes()
    capsys.readouterr()
    for output in (source, workdir / "." / source.name):
        assert main(argv + [str(output)]) == 3
        assert source.read_bytes() == before
        assert capsys.readouterr().err.endswith(": output path names the input file, which it would overwrite\n")


def test_cover_json_payload(workdir, capsys):
    system = _compile(workdir, "inc-dec")
    capsys.readouterr()
    assert main(["cover", str(system), "--target", "t'", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "covered"
    assert payload["visited"] > 0
    assert payload["trace_length"] > 0


def test_cover_threads_do_not_change_stdout(workdir, capsys):
    system = _compile(workdir, "swap")
    capsys.readouterr()
    assert main(["cover", str(system), "--target", "t'"]) == 0
    single = capsys.readouterr().out
    assert main(["cover", str(system), "--target", "t'", "--threads", "3"]) == 0
    assert capsys.readouterr().out == single


def test_prop1_holds_exits_zero(capsys):
    assert main(["prop1", "m2", "d2", "t3", "--domain", "60"]) == 0
    assert "RESULT=holds" in capsys.readouterr().out


def test_prop1_json(capsys):
    assert main(["prop1", "m2", "--domain", "30", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "command": "prop1",
        "sequence": "m2",
        "domain": 30,
        "holds": True,
        "counterexample": None,
    }


def _counterexample(sequence, domain):
    # a counterexample would disprove the identity, so one is staged
    return TwoApproximationsReport((3, 4))


def test_prop1_counterexample_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("prvass.cli.check_two_approximations", _counterexample)
    assert main(["prop1", "m2", "d2", "--domain", "10"]) == 1
    assert capsys.readouterr().out == "SEQUENCE=m2 d2\nRESULT=counterexample\ncounterexample m=3 n=4\n"
    assert main(["prop1", "m2", "d2", "--domain", "10", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["counterexample"] == [3, 4]


def test_prop1_bad_token_is_usage_error(capsys):
    assert main(["prop1", "m5", "--domain", "10"]) == 3


def test_prop1_negative_domain_exits_three(capsys):
    assert main(["prop1", "m2", "d2", "--domain", "-5"]) == 3
    assert "RESULT" not in capsys.readouterr().out
    assert main(["prop1", "m2", "d2", "--domain", "0"]) == 0


def test_diff_agree_exits_zero(workdir, capsys):
    assert main(["diff", str(workdir / "inc-dec.minsky")]) == 0
    out = capsys.readouterr().out
    assert "MINSKY=covered" in out and "PRVASS=covered" in out and "RESULT=agree" in out


def test_diff_times_each_side_on_stderr(workdir, capsys):
    assert main(["diff", str(workdir / "inc-dec.minsky")]) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(r"minsky elapsed=\d+\.\d{3}s\nprvass elapsed=\d+\.\d{3}s\n", captured.err)
    assert "elapsed" not in captured.out


def test_diff_inconclusive_exits_two(workdir, capsys):
    assert main(["diff", str(workdir / "big-counter.minsky")]) == 2
    assert "RESULT=inconclusive" in capsys.readouterr().out


def test_diff_disagree_exits_one(workdir, capsys, monkeypatch):
    # a disagreement would be a fault of the construction, so one is staged:
    # inc-dec's machine side (covered) against inc-only's compiled side (no cover)
    no_cover = differential_check(load_machine("inc-only"), Bounds(), Bounds()).prvass_verdict
    monkeypatch.setattr(
        "prvass.cli.differential_check",
        lambda m, b_minsky, b_prvass: dataclasses.replace(
            differential_check(m, b_minsky, b_prvass), prvass_verdict=no_cover, status="disagree"
        ),
    )
    assert main(["diff", str(workdir / "inc-dec.minsky")]) == 1
    assert capsys.readouterr().out == "MINSKY=covered\nPRVASS=no-cover\nRESULT=disagree\n"


def test_simulate_minsky_complete(workdir, capsys):
    assert main(["simulate", str(workdir / "inc-dec.minsky")]) == 0
    out = capsys.readouterr().out
    assert "REACHABLE=3" in out and "COMPLETE=yes" in out


def test_simulate_prvass_budget_hit(workdir, capsys):
    system = _compile(workdir, "inc-dec")
    assert main(["simulate", str(system), "--max-visited", "4"]) == 2
    assert "COMPLETE=no" in capsys.readouterr().out


def _count_decodes(monkeypatch, module):
    """Wrap module.reachable_set so that its results count their decode calls; returns the count and the results."""
    decodes, closures = [0], []
    search = module.reachable_set

    def counted(*args):
        reach = search(*args)
        closures.append(reach)

        def decode(key):
            decodes[0] += 1
            return reach.decode(key)

        return dataclasses.replace(reach, decode=decode)

    monkeypatch.setattr(module, "reachable_set", counted)
    return decodes, closures


def test_no_configuration_is_decoded_only_to_be_counted_or_dropped(workdir, monkeypatch, capsys):
    # simulate counts keys and their states; the contract decodes the exit keys alone
    decodes, closures = _count_decodes(monkeypatch, cli)
    assert main(["simulate", str(_compile(workdir, "big-counter"))]) == 2
    assert "REACHABLE=49972" in capsys.readouterr().out
    assert len(closures) == 1 and decodes == [0]
    decodes, closures = _count_decodes(monkeypatch, explorer)  # gadget_contract_set reads reachable_set off it
    g = build_gadget(parse_delta_token("m2"), FORWARD, ("g1", "g2", "g3"))
    assert gadget_contract_set(g, 3, (), 60) == {(("m2",), n) for n in range(7)}
    (closure,) = closures
    exits = sum(key[0] == g.exit for key in closure.keys)
    assert 0 < exits < len(closure.keys) and decodes == [exits]


def test_parse_error_exits_three(workdir, capsys):
    bad = workdir / "bad.minsky"
    bad.write_text("minsky\nstates: s\ninit: s\nfinal: s\ns 0 foo s\n")
    assert main(["compile", str(bad), str(workdir / "out.prvass")]) == 3
    assert "foo" in capsys.readouterr().err


def test_missing_file_exits_three(workdir):
    assert main(["compile", str(workdir / "absent.minsky"), str(workdir / "out.prvass")]) == 3


def test_usage_error_exits_three():
    assert main(["cover"]) == 3
    assert main(["frobnicate"]) == 3


def test_simulate_start_state_outside_the_model_exits_three(workdir, capsys):
    assert main(["simulate", str(workdir / "inc-dec.minsky"), "--state", "nosuch"]) == 3
    system = _compile(workdir, "inc-dec")
    assert main(["simulate", str(system), "--state", "nosuch"]) == 3
    assert "COMPLETE" not in capsys.readouterr().out


@pytest.mark.parametrize("counters", ["1,2,3", "a,b", "-1,0", "5", ""])
def test_simulate_bad_counters_names_the_flag(workdir, capsys, counters):
    assert main(["simulate", str(workdir / "swap.minsky"), f"--counters={counters}"]) == 3
    err = capsys.readouterr().err
    assert "--counters" in err and "two naturals n0,n1" in err


def test_simulate_counters_start_the_closure(workdir, capsys):
    assert main(["simulate", str(workdir / "inc-dec.minsky"), "--counters", "2, 1"]) == 0
    assert "COMPLETE=yes" in capsys.readouterr().out


def test_simulate_start_stack_outside_the_alphabet_exits_three(workdir, capsys):
    system = _compile(workdir, "inc-dec")
    capsys.readouterr()
    assert main(["simulate", str(system), "--stack", "zzz,qq"]) == 3
    captured = capsys.readouterr()
    assert "REACHABLE" not in captured.out
    assert "zzz" in captured.err


@pytest.mark.parametrize(
    "kind, flag",
    [("prvass", ["--counters", "3,4"]), ("minsky", ["--counter", "5"]), ("minsky", ["--stack", "bot,hash"])],
    ids=["counters-on-prvass", "counter-on-minsky", "stack-on-minsky"],
)
def test_simulate_rejects_the_other_familys_start_flag(workdir, capsys, kind, flag):
    model = _compile(workdir, "inc-dec") if kind == "prvass" else workdir / "inc-dec.minsky"
    capsys.readouterr()
    assert main(["simulate", str(model), *flag]) == 3
    captured = capsys.readouterr()
    assert "REACHABLE" not in captured.out
    assert flag[0] in captured.err


@pytest.mark.parametrize(
    "init_lines",
    ["init: nosuch\n", "init: s'\ninit: s'\n"],
    ids=["undeclared", "repeated"],
)
def test_bad_init_line_exits_three_from_every_command(workdir, capsys, init_lines):
    system = _compile(workdir, "inc-dec")
    text = system.read_text().replace("init: s'\n", init_lines)
    assert init_lines in text
    bad = workdir / "bad-init.prvass"
    bad.write_text(text)
    assert main(["simulate", str(bad)]) == 3
    assert main(["cover", str(bad), "--target", "t'"]) == 3
    assert main(["cover", str(bad), "--start", "s'", "--target", "t'"]) == 3
    assert main(["compile", str(bad), str(workdir / "out.prvass")]) == 3
    assert main(["diff", str(bad)]) == 3
    assert "VERDICT" not in capsys.readouterr().out


def test_a_file_with_no_init_line_needs_a_start_from_the_command_line(workdir, capsys):
    system = _compile(workdir, "inc-dec")
    text = system.read_text()
    assert "init: s'\n" in text
    bare = workdir / "no-init.prvass"
    bare.write_text(text.replace("init: s'\n", ""))
    capsys.readouterr()
    assert main(["cover", str(bare), "--target", "t'"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no --start given and the file declares no init state" in captured.err
    assert main(["simulate", str(bare)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no --state given and the file declares no init state" in captured.err
    assert main(["simulate", str(bare), "--state", "s'"]) == 0
    assert "COMPLETE=yes" in capsys.readouterr().out


def test_simulate_stack_with_an_empty_segment_names_the_flag(workdir, capsys):
    system = _compile(workdir, "inc-dec")
    for stack in ("bot,,hash", ",bot", "bot,"):
        capsys.readouterr()
        assert main(["simulate", str(system), f"--stack={stack}"]) == 3, stack
        captured = capsys.readouterr()
        assert "REACHABLE" not in captured.out
        assert "argument --stack:" in captured.err
    # an empty flag is still the empty stack, and still foreign to a minsky file
    assert main(["simulate", str(system), "--json"]) == 0
    default = capsys.readouterr().out
    assert main(["simulate", str(system), "--stack", "", "--json"]) == 0
    assert capsys.readouterr().out == default
    assert main(["simulate", str(workdir / "inc-dec.minsky"), "--stack", ""]) == 3
    assert "--stack" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, kind, expected",
    [("compile", "prvass", "minsky"), ("cover", "minsky", "prvass"), ("diff", "prvass", "minsky")],
    ids=["compile-on-prvass", "cover-on-minsky", "diff-on-prvass"],
)
def test_command_on_the_other_kind_of_file_names_the_expected_kind(workdir, capsys, command, kind, expected):
    model = _compile(workdir, "inc-dec") if kind == "prvass" else workdir / "inc-dec.minsky"
    capsys.readouterr()
    extra = {"compile": [str(workdir / "out.prvass")], "cover": ["--target", "t"], "diff": []}[command]
    assert main([command, str(model), *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected a {expected} file" in captured.err


def test_the_package_root_exports_nothing_and_loads_no_module():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import prvass; "
        "print(sorted(n for n in vars(prvass) if not n.startswith('_'))); "
        "print(sorted(n for n in sys.modules if n.startswith('prvass.')))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n[]\n"


def test_every_module_parses_as_the_oldest_python_the_package_declares():
    root = Path(__file__).resolve().parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text()
    modules = sorted((root / "src" / "prvass").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):  # syntax that 3.10 lacks is rejected
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
