"""Smoke test for the benchmark: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric the benchmark defines is printed, that no
correctness check fails, and that the benchmark refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

END_TO_END = [
    "setup_s", "cpu_s", "wall_s", "peak_rss_mb", "checks_per_s", "verdict_p50_ms", "failed_share",
    "raw_setup_s", "raw_cpu_s", "raw_verdict_p50_ms", "host_slowdown",
]
END_TO_END_OF = {
    "deep-cover": ["configs_per_s"],
    "sweep": ["configs_per_s", "machines_per_s", "decided_share", "verdict_tail_ms"],
    "oracles": [],
}
PER_LAYER = [
    "formats.parse_s", "formats.parse_calls", "models.validate_s", "formats.trace_roundtrip_s",
    "explorer.replay_s", "explorer.replay_steps", "reduction.compile_s", "reduction.compile_calls",
    "reduction.compiled_actions", "explorer.cover_s", "explorer.cover_calls",
    "explorer.cover_visited", "explorer.cover_frontier_peak", "explorer.reach_s",
    "explorer.reach_visited", "explorer.covered", "explorer.exhausted", "explorer.bounds_hit",
    "explorer.wasted_visited_share", "reduction.contract_s", "reduction.contract_calls",
    "relations.prop1_s", "relations.prop1_checks", "relations.lemma_s", "relations.compose_s",
    "relations.compose_calls", "models.self_s", "explorer.self_s", "reduction.self_s",
    "relations.self_s", "formats.self_s", "dataclass.self_s", "trace.overhead_s", "failed_share",
]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed(stdout: str) -> dict:
    values = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            values[parts[0]] = float(parts[1])
    return values


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_fails_nothing(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = printed(proc.stdout)
    names = PER_LAYER if trace else END_TO_END + END_TO_END_OF[workload]
    missing = [n for n in names if n not in values]
    assert not missing, missing
    assert values["failed_share"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
