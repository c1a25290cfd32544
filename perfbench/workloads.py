"""Inputs, timed passes and answer keys for the three benchmark workloads.

Each workload has three parts:

* ``build(seed, scale)`` makes the inputs (set-up, timed as ``setup_s``);
* ``run_pass(inputs, clock, mark)`` is one timed pass of program calls;
  it calls ``mark(item)`` before each item, times each item on the run's
  ``Clock`` and returns the raw outputs, the explorer ``visited`` total and
  which of the clock's items are its own;
* ``check(inputs, out, ledger, cache)`` compares the outputs with an answer
  key built by the benchmark itself, cached across passes.  It runs
  outside the timed pass.

Times are CPU time of this process (``time.process_time``), not wall time:
on a shared virtual machine the wall clock also counts time the host gives
to other guests, which moved identical passes by up to three times.  CPU
time itself still swings by up to two times, within seconds to minutes,
when other guests load the host, so the reported times are scaled to a
fixed host speed with a reference search timed between the items (see
``Clock``).

Program functions are always looked up through their module
(``explorer.bounded_cover``), so the tracer in ``tracing.py`` can wrap them.
Only public functions are called, with arguments that stay stable when the
explorer core is rewritten.
"""

from __future__ import annotations

import bisect
import collections
import hashlib
import itertools
import random
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCALES = ("smoke", "bench", "full")


class Ledger:
    """Counts correctness checks and keeps the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


@dataclass
class PassOutput:
    visited: int
    outputs: list
    items: slice  # this pass's items in the Clock


# The reference search: breadth-first over the configurations of a two-counter
# machine that pumps both counters, REF_STATES states, REF_REPEATS times.  It is
# the same kind of work as the explorer's (tuples hashed into a set, a list
# frontier) but shares no code with prvass, so no change to the program moves
# it.  REF_NOMINAL_S is about its CPU time on a quiet core of a shared 2-core
# x86-64 VM under CPython 3; times are reported as if the host ran at that speed.
REF_MOVES = {"s": ((0, 1, "p"), (1, 1, "s")), "p": ((0, -1, "s"), (1, 1, "p"), (0, 1, "s"))}
REF_STATES = 5_000
REF_REPEATS = 15
REF_NOMINAL_S = 0.045
# CPU seconds of program work per reference search (10-15 % overhead)
REF_SEGMENT_S = 0.5
# an item is scaled by the median of the reference searches this many wall-clock
# seconds around its start: the host's speed moves within seconds, and over ten
# runs a 2 s window cut the spread more than 5 s, 10 s or the whole run did
REF_WINDOW_S = 2.0


def reference_load() -> float:
    """CPU seconds of one reference search."""
    started = time.process_time()
    for _ in range(REF_REPEATS):
        start = ("s", 0, 0)
        seen = {start}
        layer = [start]
        while layer and len(seen) < REF_STATES:
            nxt = []
            for state, c0, c1 in layer:
                for idx, step, dst in REF_MOVES[state]:
                    value = (c1 if idx else c0) + step
                    if value < 0:
                        continue
                    succ = (dst, c0, value) if idx else (dst, value, c1)
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
            layer = nxt
    return time.process_time() - started


class Clock:
    """Times items in CPU seconds, and in CPU seconds at the reference speed.

    Reference searches are timed before the first item, after the last, and
    between items: one for each ``REF_SEGMENT_S`` CPU seconds the items used
    since the last ones, so a long item is followed by several.  An item's
    scaled time is its CPU time times ``REF_NOMINAL_S`` over the median
    reference time within ``REF_WINDOW_S`` of its start (at least the
    searches just before and after it).  A slow spell of the host slows
    both, so it mostly cancels; the reference slows somewhat more than
    prvass does.  One clock times a whole run, so windows span passes.
    """

    def __init__(self) -> None:
        self.cpu: list[float] = []  # CPU seconds of each item
        self.wall: list[float] = []  # wall-clock seconds of each item
        self.started: list[float] = []  # perf_counter at the start of each item
        self.ref_at: list[float] = []  # perf_counter at the end of each reference search
        self.refs: list[float] = []  # CPU seconds of each reference search
        self._since = REF_SEGMENT_S

    def _references(self) -> None:
        for _ in range(max(1, int(self._since / REF_SEGMENT_S))):
            self.refs.append(reference_load())
            self.ref_at.append(time.perf_counter())
        self._since = 0.0

    def time(self, fn, *args):
        if self._since >= REF_SEGMENT_S:
            self._references()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        out = fn(*args)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        self.cpu.append(cpu)
        self.wall.append(wall)
        self.started.append(wall0)
        self._since += cpu
        return out

    def scaled(self) -> list[float]:
        """Each item's CPU seconds at the reference speed."""
        if self.started and self.started[-1] > self.ref_at[-1]:
            self._references()
        out = []
        for cpu, at in zip(self.cpu, self.started):
            after = bisect.bisect_right(self.ref_at, at)
            lo = min(bisect.bisect_left(self.ref_at, at - REF_WINDOW_S), after - 1)
            hi = max(bisect.bisect_right(self.ref_at, at + REF_WINDOW_S), after + 1)
            out.append(cpu * REF_NOMINAL_S / statistics.median(self.refs[lo:hi]))
        return out

    def pass_items(self, visited: int, outputs: list, first: int) -> PassOutput:
        return PassOutput(visited, outputs, slice(first, len(self.cpu)))


def _no_mark(item) -> None:
    pass


def _guarded(item, fn, *args):
    """Run one workload item; an exception becomes a recorded output, not an abort."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the benchmark must finish and report the failure
        return ("error", item, traceback.format_exc(limit=4))


def _is_error(out) -> bool:
    return isinstance(out, tuple) and len(out) == 3 and out[0] == "error"


def reference_reach(machine, max_counter: int, max_visited: int, max_steps: int) -> str | None:
    """Independent two-counter BFS: 'covered', 'no-cover' or None when a limit cut it short.

    It shares no code with the explorer; it reads only the parsed machine's
    states and actions.
    """
    moves = collections.defaultdict(list)
    for a in machine.actions:
        moves[a.source].append((a.counter_index, a.op, a.target))
    start = (machine.source, 0, 0)
    goal = (machine.target, 0, 0)
    seen = {start}
    layer = [start]
    cut = False
    for _ in range(max_steps + 1):
        if goal in layer:
            return "covered"
        if not layer:
            return None if cut else "no-cover"
        nxt = []
        for state, c0, c1 in layer:
            for idx, op, dst in moves[state]:
                value = c1 if idx else c0
                if op == "inc":
                    value += 1
                elif op == "dec":
                    if value == 0:
                        continue
                    value -= 1
                elif value != 0:
                    continue
                succ = (dst, c0, value) if idx else (dst, value, c1)
                if succ in seen:
                    continue
                if value > max_counter or len(seen) >= max_visited:
                    cut = True
                    continue
                seen.add(succ)
                nxt.append(succ)
        layer = nxt
    return None


def _import_prvass():
    from prvass import explorer, formats, models, reduction, relations

    return explorer, formats, models, reduction, relations


class Workload:
    name: str
    item: str  # what one item of a pass is, for the ``<item>_per_s`` metric

    def profile_inputs(self, inputs):
        """The inputs of the cProfile pass in a traced run."""
        return inputs

    def summary(self, out: PassOutput) -> dict:
        """Extra metrics read from the outputs of a checked pass."""
        return {}


# --------------------------------------------------------------------------
# deep-cover: one exhaustive search on stacks hundreds of symbols deep


class DeepCover(Workload):
    name = "deep-cover"
    item = "searches"
    # max_stack by scale; the 2**20 encoding never fits, so the verdict is bounds_hit
    CAPS = {"smoke": 24, "bench": 96, "full": 96}

    def build(self, seed: int, scale: str):
        explorer, formats, models, reduction, _ = _import_prvass()
        text = (ROOT / "corpus" / "big-counter.minsky").read_text(encoding="utf-8")
        machine = formats.parse_minsky(text)
        diags = models.validate(machine)
        compiled = reduction.compile_machine(machine)
        cap = self.CAPS[scale]
        bounds = explorer.Bounds(
            max_steps=1_000_000, max_stack=cap, max_counter=10_000, max_visited=1_000_000
        )
        start = models.Configuration(compiled.start, (), 0)
        return {"machine": machine, "diags": diags, "compiled": compiled, "bounds": bounds, "start": start}

    def run_pass(self, inputs, clock: Clock, mark=_no_mark) -> PassOutput:
        explorer = _import_prvass()[0]
        compiled = inputs["compiled"]

        def one():
            verdict = explorer.bounded_cover(
                compiled.system, inputs["start"], compiled.cover_target, inputs["bounds"]
            )
            replayed = None
            if verdict.trace is not None:
                replayed = explorer.replay_trace(compiled.system, verdict.trace)
            return verdict, replayed

        first = len(clock.cpu)
        mark(0)
        out = clock.time(_guarded, 0, one)
        visited = 0 if _is_error(out) else out[0].stats.visited
        return clock.pass_items(visited, [out], first)

    def check(self, inputs, out: PassOutput, ledger: Ledger, cache: dict) -> None:
        explorer = _import_prvass()[0]
        ledger.check(not inputs["diags"], f"big-counter has diagnostics: {inputs['diags']}")
        if "reference" not in cache:
            cache["reference"] = reference_reach(inputs["machine"], 10_000, 1_000_000, 1_000_000)
        ledger.check(cache["reference"] == "covered", "reference search does not cover big-counter")
        for output in out.outputs:
            if _is_error(output):
                ledger.fail(f"search raised:\n{output[2]}")
                continue
            verdict, replayed = output
            if verdict.outcome == explorer.COVERED:
                ledger.check(replayed is True, "covered witness does not replay")
            else:
                ledger.check(verdict.outcome == explorer.BOUNDS_HIT,
                             f"compiled big-counter says {verdict.outcome}, the machine covers")
            first = cache.setdefault("visited", verdict.stats.visited)
            ledger.check(first == verdict.stats.visited,
                         f"visited changed between passes: {first} then {verdict.stats.visited}")


# --------------------------------------------------------------------------
# sweep: a seeded half of all small two-counter machines


SWEEP_STATES = ("s", "p", "t")
SWEEP_LIMITS = {"max_steps": 10_000, "max_stack": 48, "max_counter": 1000, "max_visited": 20_000}


def small_machines() -> list[tuple]:
    """All 1 485 machines over states {s, p, t} with one or two distinct actions."""
    actions = list(itertools.product(SWEEP_STATES, (0, 1), ("inc", "dec", "zero"), SWEEP_STATES))
    return [(a,) for a in actions] + list(itertools.combinations(actions, 2))


def minsky_text(actions) -> str:
    lines = ["minsky", "states: " + " ".join(SWEEP_STATES), "init: s", "final: t"]
    lines += [f"{src} {idx} {op} {dst}" for src, idx, op, dst in actions]
    return "\n".join(lines) + "\n"


@dataclass
class SweepItem:
    """What one differential check produced; the search results are not kept."""

    machine: object
    diags: list
    status: str
    minsky: str
    prvass: str
    minsky_visited: int
    prvass_visited: int
    minsky_replay: bool | None = None
    prvass_replay: bool | None = None
    digest_ok: bool | None = None
    roundtrip: int | None = None


class Sweep(Workload):
    name = "sweep"
    item = "machines"

    def sample(self, seed: int, scale: str) -> list[int]:
        """One machine of each mirror pair, picked and ordered by the seed.

        A machine's mirror swaps counters 0 and 1.  The two run the same
        searches (same verdicts and ``visited`` on both sides), so the seed
        changes the machines but not the work.  A plain random half moved the
        run time by about 5 % from seed to seed, because under a tenth of the
        machines take nearly all of it.  Self-mirrored machines are all kept.
        """
        machines = small_machines()
        if scale == "full":
            return list(range(len(machines)))
        rng = random.Random(seed)
        index = {frozenset(actions): i for i, actions in enumerate(machines)}
        chosen = []
        for i, actions in enumerate(machines):
            j = index[frozenset((src, 1 - idx, op, dst) for src, idx, op, dst in actions)]
            if i == j:
                chosen.append(i)
            elif i < j:
                chosen.append(rng.choice((i, j)))
        rng.shuffle(chosen)
        return chosen[:12] if scale == "smoke" else chosen

    def build(self, seed: int, scale: str):
        explorer = _import_prvass()[0]
        machines = small_machines()
        chosen = self.sample(seed, scale)
        return {
            "ids": chosen,
            "texts": [minsky_text(machines[i]) for i in chosen],
            "bounds": explorer.Bounds(**SWEEP_LIMITS),
        }

    def profile_inputs(self, inputs):
        """Every fourth machine: cProfile slows searches about 2.5 times."""
        return {**inputs, "ids": inputs["ids"][::4], "texts": inputs["texts"][::4]}

    def run_pass(self, inputs, clock: Clock, mark=_no_mark) -> PassOutput:
        explorer, formats, models, _, _ = _import_prvass()
        bounds = inputs["bounds"]

        def one(text):
            machine = formats.parse_minsky(text)
            diags = models.validate(machine)
            report = explorer.differential_check(machine, bounds, bounds)
            mv, pv = report.minsky_verdict, report.prvass_verdict
            item = SweepItem(machine, diags, report.status, mv.outcome, pv.outcome,
                             mv.stats.visited, pv.stats.visited)
            if mv.trace is not None:
                item.minsky_replay = explorer.replay_trace(machine, mv.trace)
            if pv.trace is not None:
                system = report.compiled.system
                item.prvass_replay = explorer.replay_trace(system, pv.trace)
                system_text = formats.serialize_prvass(system)
                digest, parsed = formats.parse_trace(formats.render_trace(pv.trace, system_text))
                item.digest_ok = digest == hashlib.sha256(system_text.encode("utf-8")).hexdigest()
                item.roundtrip = explorer.replay_failure_index(system, parsed)
            return item

        first = len(clock.cpu)
        outputs = []
        visited = 0
        for n, text in enumerate(inputs["texts"]):
            mark(inputs["ids"][n])
            out = clock.time(_guarded, inputs["ids"][n], one, text)
            outputs.append(out)
            if not _is_error(out):
                visited += out.minsky_visited + out.prvass_visited
        return clock.pass_items(visited, outputs, first)

    def check(self, inputs, out: PassOutput, ledger: Ledger, cache: dict) -> None:
        explorer = _import_prvass()[0]
        refs = cache.setdefault("reference", {})
        verdicts = cache.setdefault("verdicts", {})
        for mid, output in zip(inputs["ids"], out.outputs):
            if _is_error(output):
                ledger.fail(f"machine {mid} raised:\n{output[2]}")
                continue
            where = f"machine {mid}"
            ledger.check(not output.diags, f"{where}: diagnostics {output.diags}")
            ledger.check(output.status != "disagree", f"{where}: sides disagree")
            ledger.check(
                not (output.minsky == explorer.COVERED and output.prvass == explorer.EXHAUSTED_NO_COVER),
                f"{where}: compiled side exhausted where the machine covers",
            )
            if output.minsky == explorer.COVERED:
                ledger.check(output.minsky_replay is True, f"{where}: machine witness does not replay")
            if output.prvass == explorer.COVERED:
                ledger.check(output.prvass_replay is True, f"{where}: compiled witness does not replay")
                ledger.check(output.digest_ok is True, f"{where}: trace digest mismatch")
                ledger.check(output.roundtrip is None,
                             f"{where}: trace text fails at step {output.roundtrip}")
            if mid not in refs:
                refs[mid] = reference_reach(
                    output.machine, SWEEP_LIMITS["max_counter"], SWEEP_LIMITS["max_visited"],
                    SWEEP_LIMITS["max_steps"],
                )
            ref = refs[mid]
            ledger.check(
                not (ref == "covered" and output.minsky == explorer.EXHAUSTED_NO_COVER)
                and not (ref == "no-cover" and output.minsky == explorer.COVERED),
                f"{where}: machine side says {output.minsky}, reference says {ref}",
            )
            seen = (output.minsky, output.prvass, output.minsky_visited, output.prvass_visited)
            first = verdicts.setdefault(mid, seen)
            ledger.check(first == seen, f"{where}: verdict changed between passes: {first} then {seen}")

    def summary(self, out: PassOutput) -> dict:
        """The share of agree verdicts, and machines per class of the full-sweep table."""
        counts = collections.Counter()
        for o in out.outputs:
            if _is_error(o):
                counts["error"] += 1
            elif o.status == "agree":
                counts["agree-" + o.minsky] += 1
            elif o.status == "inconclusive":
                side = "both" if o.minsky == "bounds_hit" else "machine-definitive"
                counts["inconclusive-" + side] += 1
            else:
                counts[o.status] += 1
        agree = counts["agree-covered"] + counts["agree-exhausted_no_cover"]
        metrics = {f"sweep.{k}": v for k, v in sorted(counts.items())}
        metrics["decided_share"] = agree / max(len(out.outputs), 1)
        return metrics


# --------------------------------------------------------------------------
# oracles: exhaustive identity checks and gadget contracts


# one action per operation symbol, so compiling it yields all twelve gadgets
GADGET_SOURCE = minsky_text(
    [("s", 0, "inc", "t"), ("s", 1, "inc", "t"), ("s", 0, "dec", "t"),
     ("s", 1, "dec", "t"), ("s", 0, "zero", "t"), ("s", 1, "zero", "t")]
).replace("states: s p t", "states: s t")


def exact_image(rs, m: int) -> int | None:
    """m under the exact composition of rs; None where it is undefined."""
    for r in rs:
        if m is None:
            return None
        m = r.apply(m)
    return m


def forward_ceilings(rs, domain: int) -> list[int]:
    """Largest n with (m, n) in the forward-weak composition, for each m; -1 if none."""
    ceil = []
    for m in range(domain + 1):
        v = rs[0].apply(m)
        c = -1 if v is None else v
        for r in rs[1:]:
            images = [w for p in range(c + 1) if (w := r.apply(p)) is not None]
            c = max(images, default=-1)
        ceil.append(c)
    return ceil


def backward_ceilings(rs, domain: int) -> list[int]:
    """Largest m with (m, n) in the backward-weak composition, for each n; -1 if none."""
    ceil = []
    for n in range(domain + 1):
        c = rs[-1].left_ceiling(n)
        for r in reversed(rs[:-1]):
            c = max((r.left_ceiling(q) for q in range(c + 1)), default=-1)
        ceil.append(c)
    return ceil


class Oracles(Workload):
    name = "oracles"
    item = "oracle_calls"
    # (prop1/lemma domain, largest gadget entry count, compose grid side)
    SIZES = {"smoke": (12, 2, 2), "bench": (200, 40, 6), "full": (200, 40, 6)}

    def build(self, seed: int, scale: str):
        _, formats, models, reduction, relations = _import_prvass()
        domain, max_m, grid = self.SIZES[scale]
        specs = [relations.rel_spec(sym) for sym in relations.ALPHABET]
        sequences = [seq for k in (1, 2, 3) for seq in itertools.product(specs, repeat=k)]
        machine = formats.parse_minsky(GADGET_SOURCE)
        diags = models.validate(machine)
        gadgets = list(reduction.compile_machine(machine).bookkeeping)
        records = [()] + [(sym.token,) for sym in relations.ALPHABET]
        modes = (relations.WeakMode.EXACT, relations.WeakMode.FORWARD_WEAK,
                 relations.WeakMode.BACKWARD_WEAK)
        items = [("prop1", seq) for seq in sequences] + [("lemma", seq) for seq in sequences]
        items += [("contract", g, m, rec) for g in gadgets for m in range(max_m + 1) for rec in records]
        items += [
            ("compose", seq, mode, m, n)
            for k in (1, 2) for seq in itertools.product(specs, repeat=k)
            for mode in modes for m in range(grid + 1) for n in range(grid + 1)
        ]
        random.Random(seed).shuffle(items)
        return {"items": items, "domain": domain, "grid": grid, "diags": diags,
                "gadgets": gadgets, "sequences": sequences}

    def run_pass(self, inputs, clock: Clock, mark=_no_mark) -> PassOutput:
        _, _, _, reduction, relations = _import_prvass()
        domain = inputs["domain"]
        compose_bound = 9 * (inputs["grid"] + 1)

        def one(item):
            kind = item[0]
            if kind == "prop1":
                return relations.check_two_approximations(item[1], domain).holds
            if kind == "lemma":
                return relations.check_monotone_pairs_lemma(item[1], domain).holds
            if kind == "contract":
                _, g, m, rec = item
                return reduction.gadget_contract_set(g, m, rec, 3 * m + 8)
            _, seq, mode, m, n = item
            return relations.compose_member(seq, mode, m, n, compose_bound)

        first = len(clock.cpu)
        outputs = []
        for n, item in enumerate(inputs["items"]):
            mark(n)
            outputs.append(clock.time(_guarded, n, one, item))
        return clock.pass_items(0, outputs, first)

    def check(self, inputs, out: PassOutput, ledger: Ledger, cache: dict) -> None:
        _, _, _, reduction, relations = _import_prvass()
        ledger.check(not inputs["diags"], f"gadget source machine has diagnostics: {inputs['diags']}")
        ledger.check(len(inputs["gadgets"]) == 12, f"expected 12 gadgets, got {len(inputs['gadgets'])}")
        ledger.check(len(inputs["sequences"]) == 258, f"expected 258 sequences, got {len(inputs['sequences'])}")
        grid = inputs["grid"]
        for n, (item, got) in enumerate(zip(inputs["items"], out.outputs)):
            if _is_error(got):
                ledger.fail(f"{item[0]} item {n} raised:\n{got[2]}")
                continue
            kind = item[0]
            if kind in ("prop1", "lemma"):
                tokens = " ".join(r.symbol.token for r in item[1])
                ledger.check(got is True, f"{kind} fails for {tokens}")
            elif kind == "contract":
                _, g, m, rec = item
                key = (g.symbol.token, g.direction, m, rec)
                if key not in cache:
                    cache[key] = self.expected_exits(relations, reduction, g, m, rec)
                ledger.check(got == cache[key], f"contract of {g.symbol.token} {g.direction} m={m} record={rec}")
            else:
                _, seq, mode, m, n2 = item
                key = tuple(r.symbol.token for r in seq)
                if key not in cache:
                    exact = [exact_image(seq, v) for v in range(grid + 1)]
                    cache[key] = (exact, forward_ceilings(seq, grid), backward_ceilings(seq, grid))
                exact, fwd, bwd = cache[key]
                if mode is relations.WeakMode.EXACT:
                    want = exact[m] == n2
                elif mode is relations.WeakMode.FORWARD_WEAK:
                    want = n2 <= fwd[m]
                else:
                    want = m <= bwd[n2]
                ledger.check(got == want, f"compose_member {key} {mode.value} ({m}, {n2}) gave {got}")

    @staticmethod
    def expected_exits(relations, reduction, g, m: int, record: tuple) -> set:
        """The exit set the weak-membership closed form predicts for one gadget entry."""
        spec = relations.rel_spec(g.symbol)
        counts = range(3 * m + 2)
        token = g.symbol.token
        if g.direction == reduction.FORWARD:
            return {(record + (token,), n) for n in counts
                    if relations.weak_member(spec, relations.WeakMode.FORWARD_WEAK, m, n)}
        if not record or record[-1] != token:
            return set()
        return {(record[:-1], n) for n in counts
                if relations.weak_member(spec, relations.WeakMode.BACKWARD_WEAK, n, m)}


WORKLOADS = {w.name: w for w in (DeepCover(), Sweep(), Oracles())}
