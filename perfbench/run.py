"""Run one prvass benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload deep-cover --seed 1 --seconds 20 --trace 0

Every metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the JSON holds the ``end_to_end`` metrics of BENCHMARK.json,
with ``--trace 1`` its ``per_layer`` metrics.  The workloads and the
reasons for them are in BENCHMARK.json and perfbench/README.md.

A traced run makes three passes over the same inputs: one untraced, one
with spans around every call into a prvass layer, one under cProfile (on
``sweep``, over every fourth machine).  The spans are written to
perfbench/out/.  End-to-end numbers come only from
untraced runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import REF_NOMINAL_S, SCALES, WORKLOADS, Clock, Ledger, reference_load  # noqa: E402

# set-up is timed in this many fresh interpreters; the median is reported
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=SCALES, default="bench",
                   help="smoke: tiny inputs; full: the whole small-machine enumeration")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_share", "share"), ("_slowdown", "x")):
        if name.endswith(suffix):
            return unit
    return "count"


def probe_setup(args) -> tuple[float, float]:
    """CPU seconds a fresh interpreter takes to start, import prvass and build the inputs.

    The interpreter then times a reference search, whose CPU seconds come
    second: set-up is scaled by the speed of the process that ran it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    out = subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, capture_output=True, text=True)
    cpu, ref = out.stdout.split()
    return float(cpu), float(ref)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as (value, percentile)."""
    n = len(samples)
    if n <= 10:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def timed_run(args, workload, ledger: Ledger) -> tuple[dict, list[str]]:
    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    inputs = workload.build(args.seed, args.scale)
    cache: dict = {}
    clock = Clock()
    passes = []
    notes = []
    started = time.perf_counter()
    while True:
        out = workload.run_pass(inputs, clock)
        workload.check(inputs, out, ledger, cache)
        if not passes:
            m = workload.summary(out)
        out.outputs = None  # checked; keeping them would grow peak RSS with the pass count
        passes.append(out)
        spent = time.perf_counter() - started
        if spent * (len(passes) + 1) / len(passes) > args.seconds:
            break
    scaled = clock.scaled()
    cpu = statistics.median(sum(scaled[p.items]) for p in passes)
    items = [s * 1000.0 for s in scaled]
    per_pass = len(scaled[passes[0].items])
    m.update({
        "setup_s": statistics.median(cpu * REF_NOMINAL_S / ref for cpu, ref in setup),
        "raw_setup_s": statistics.median(cpu for cpu, _ in setup),
        "cpu_s": cpu,
        "raw_cpu_s": statistics.median(sum(clock.cpu[p.items]) for p in passes),
        "wall_s": statistics.median(sum(clock.wall[p.items]) for p in passes),
        "host_slowdown": statistics.median(clock.refs) / REF_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks_per_s": ledger.attempted / len(passes) / cpu,
        "verdict_p50_ms": statistics.median(items),
        "raw_verdict_p50_ms": statistics.median(clock.cpu) * 1000.0,
        "passes": len(passes),
        "items_per_pass": per_pass,
        f"{workload.item}_per_s": per_pass / cpu,
    })
    if passes[0].visited:
        m["visited_per_pass"] = passes[0].visited
        m["configs_per_s"] = statistics.median(p.visited for p in passes) / cpu
    if tail(items) is not None:
        m["verdict_tail_ms"], pct = tail(items)
        notes.append(f"verdict_tail_ms is p{pct:.2f} of n={len(items)} item times")
    return m, notes


def traced_run(args, workload, ledger: Ledger) -> tuple[dict, list[str]]:
    from tracing import LAYERS, Tracer, profile_self_times

    cache: dict = {}
    inputs = workload.build(args.seed, args.scale)
    untraced = Clock()
    workload.check(inputs, workload.run_pass(inputs, untraced), ledger, cache)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = "setup"
        inputs = workload.build(args.seed, args.scale)

        def mark(item):
            tracer.item = item

        traced = Clock()
        traced_out = workload.run_pass(inputs, traced, mark)
    finally:
        tracer.uninstall()
    workload.check(inputs, traced_out, ledger, cache)

    profiled = []

    def profiled_pass():
        profiled_inputs = workload.profile_inputs(workload.build(args.seed, args.scale))
        profiled.append((profiled_inputs, workload.run_pass(profiled_inputs, Clock())))

    self_times = profile_self_times(profiled_pass)
    workload.check(*profiled[0], ledger, cache)

    spans_path = HERE / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    m = tracer.metrics()
    m.update(self_times)
    # scaled like cpu_s, so a change of host speed between the two passes cancels
    m["trace.untraced_cpu_s"] = sum(untraced.scaled())
    m["trace.traced_cpu_s"] = sum(traced.scaled())
    m["trace.overhead_s"] = m["trace.traced_cpu_s"] - m["trace.untraced_cpu_s"]
    largest = max((f"{layer}.self_s" for layer in LAYERS), key=self_times.get)
    notes = [f"spans written to {spans_path.relative_to(ROOT)}",
             f"largest prvass module self time: {largest}"]
    return m, notes


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    missing = [p for p in (ROOT / "src" / "prvass" / "__init__.py", ROOT / "corpus" / "big-counter.minsky",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"error: run from a prvass checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if args.probe:
        workload.build(args.seed, args.scale)
        print(time.process_time(), reference_load())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ledger = Ledger()
    run = traced_run if args.trace else timed_run
    values, notes = run(args, workload, ledger)
    values["failed_share"] = ledger.failed / max(ledger.attempted, 1)

    for name in sorted(values):
        print(f"{name} {values[name]!r} {unit_of(name)}")
    for note in notes:
        print(f"# {note}")
    for message in ledger.messages:
        print(f"FAILED: {message}", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
