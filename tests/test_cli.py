import json
import re
import shutil

import pytest

from prvass.cli import main
from prvass.explorer import replay_trace
from prvass.formats import parse_model_file, parse_trace, system_digest

from conftest import corpus_path


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
    assert replay_trace(parse_model_file(text).system, trace)


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
    assert main(["cover", str(system), "--target", "t'", "--trace-out", str(system)]) == 1
    assert system.read_text() == model


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


def test_simulate_minsky_complete(workdir, capsys):
    assert main(["simulate", str(workdir / "inc-dec.minsky")]) == 0
    out = capsys.readouterr().out
    assert "REACHABLE=3" in out and "COMPLETE=yes" in out


def test_simulate_prvass_budget_hit(workdir, capsys):
    system = _compile(workdir, "inc-dec")
    assert main(["simulate", str(system), "--max-visited", "4"]) == 2
    assert "COMPLETE=no" in capsys.readouterr().out


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
