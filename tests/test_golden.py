"""The corpus outputs of the CLI, pinned byte for byte.

golden_corpus.json holds `compile --json` and the compiled file,
`diff --json`, and `simulate --json` on the machine and on the compiled
file, for every corpus machine and, for each machine whose compiled side
covers, `cover --json` and the bytes of the `--trace-out` file.  A
refactor of the compiler or the search must reproduce them exactly.  To
record them again from the code on the path, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from prvass.cli import main

from conftest import CORPUS_DIR

GOLDEN = Path(__file__).resolve().parent / "golden_corpus.json"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def corpus_outputs(workdir: Path) -> dict:
    """Run the corpus inside workdir, so compile's stdout names its output file relatively."""
    outputs = {"compile": {}, "diff": {}, "cover": {}, "simulate": {}}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for path in sorted(CORPUS_DIR.glob("*.minsky")):
            name = path.stem
            system = f"{name}.prvass"
            compiled = outputs["compile"][name] = _run(["compile", str(path), system, "--json"])
            compiled["system"] = Path(system).read_bytes().decode("utf-8")
            for model in (str(path), system):
                outputs["simulate"][Path(model).name] = _run(["simulate", model, "--json"])
            diff = outputs["diff"][name] = _run(["diff", str(path), "--json"])
            if json.loads(diff["stdout"])["prvass"] != "covered":
                continue
            target = json.loads(compiled["stdout"])["cover_target"]
            trace = f"{name}.trace"
            cover = _run(["cover", system, "--target", target, "--json", "--trace-out", trace])
            cover["trace"] = Path(trace).read_bytes().decode("utf-8")
            outputs["cover"][name] = cover
    finally:
        os.chdir(cwd)
    return outputs


def _assert_golden(outputs: dict) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for command, expected in golden.items():
        assert sorted(outputs[command]) == sorted(expected), command
        for name, output in expected.items():
            assert outputs[command][name] == output, f"{command} {name}"


def test_corpus_outputs_match_golden(tmp_path):
    _assert_golden(corpus_outputs(tmp_path))


def test_corpus_outputs_match_golden_under_a_fixed_hash_seed(tmp_path):
    # the search keeps sets of states, so the outputs must not depend on the
    # string hash seed: a fresh interpreter with another seed reproduces them
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED="4242")
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    out = tmp_path / "outputs.json"
    script = (
        "import json, sys; from pathlib import Path; from test_golden import corpus_outputs; "
        "Path(sys.argv[2]).write_text(json.dumps(corpus_outputs(Path(sys.argv[1]))), encoding='utf-8')"
    )
    subprocess.run([sys.executable, "-c", script, str(tmp_path), str(out)], env=env, check=True)
    _assert_golden(json.loads(out.read_text(encoding="utf-8")))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(corpus_outputs(Path(tmp)), indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
