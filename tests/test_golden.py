"""The corpus outputs of the CLI, pinned byte for byte.

golden_corpus.json holds `diff --json` for every corpus machine and, for
each machine whose compiled side covers, `cover --json` and the bytes of
the `--trace-out` file.  A refactor of the search must reproduce them
exactly.  To record them again from the code on the path, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
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
    outputs = {"diff": {}, "cover": {}}
    for path in sorted(CORPUS_DIR.glob("*.minsky")):
        name = path.stem
        diff = outputs["diff"][name] = _run(["diff", str(path), "--json"])
        if json.loads(diff["stdout"])["prvass"] != "covered":
            continue
        system = workdir / f"{name}.prvass"
        target = json.loads(_run(["compile", str(path), str(system), "--json"])["stdout"])["cover_target"]
        trace = workdir / f"{name}.trace"
        cover = _run(["cover", str(system), "--target", target, "--json", "--trace-out", str(trace)])
        cover["trace"] = trace.read_bytes().decode("utf-8")
        outputs["cover"][name] = cover
    return outputs


def test_corpus_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    outputs = corpus_outputs(tmp_path)
    for command, expected in golden.items():
        assert sorted(outputs[command]) == sorted(expected), command
        for name, output in expected.items():
            assert outputs[command][name] == output, f"{command} {name}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(corpus_outputs(Path(tmp)), indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
