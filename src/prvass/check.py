"""Checks of a search's evidence against the reference semantics in models.

This module imports models alone, so it shares no code with the flat
search in explorer or the compiler in reduction: a witness it accepts is
checked by code that cannot share their bugs.  Of models it replays only
on successors and minsky_successors, and never uses the normaliser whose
effects the search fires (_effect, read as Action.effect).
tests/test_check.py holds it, and formats, to that fence.
"""

from __future__ import annotations

from .models import MinskyMachine, Prvass, Trace, minsky_successors, successors


def replay_trace(sys: Prvass | MinskyMachine, tr: Trace) -> bool:
    """Whether every step of the trace is reproduced by the successor relation."""
    return replay_failure_index(sys, tr) is None


def replay_failure_index(sys: Prvass | MinskyMachine, tr: Trace) -> int | None:
    """Index of the first step the successor relation cannot reproduce; None if all replay.

    Steps whose action reference is absent (e.g. traces loaded from a file)
    are accepted when any action produces the recorded configuration.
    """
    succ_fn = successors if isinstance(sys, Prvass) else minsky_successors
    cur = tr.start
    for i, (action, cfg) in enumerate(tr.steps):
        candidates = succ_fn(sys, cur)
        if not (any(c == cfg for _, c in candidates) if action is None else (action, cfg) in candidates):
            return i
        cur = cfg
    return None
