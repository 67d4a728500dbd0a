"""The one result type of every check in the package.

An Outcome is a verdict (ok), the first witness of a failure (None on a
pass), and whatever else the check found (detail): a residual, a defect,
the relation to a reference operator, or the named rows of a sweep.  A
vacuous outcome passed because there was nothing to check; an incomplete
one (complete false) passed a sweep that stopped below the arity its
theorem needs.  seconds is the time the check took, set by timed.
"""

from __future__ import annotations

import time


class Outcome:
    __slots__ = ("ok", "witness", "detail", "vacuous", "complete", "seconds")

    def __init__(self, ok, witness=None, detail=None, vacuous=False, complete=True):
        self.ok = bool(ok)
        self.witness = None if ok else witness
        self.detail = detail
        self.vacuous = vacuous
        self.complete = complete
        self.seconds = 0.0

    def __bool__(self):
        return self.ok

    def __repr__(self):
        body = "ok" if self.ok else "fail at %r" % (self.witness,)
        if self.vacuous:
            body += ", vacuous"
        if not self.complete:
            body += ", incomplete"
        if self.detail is not None:
            body += ": %r" % (self.detail,)
        return "Outcome(%s)" % body


def timed(fn, *args):
    """fn(*args), an Outcome, with the time the call took as its seconds."""
    start = time.perf_counter()
    outcome = fn(*args)
    outcome.seconds = time.perf_counter() - start
    return outcome


def all_of(rows):
    """Conjunction of named outcomes [(name, Outcome)]: ok when every row
    is, witnessed by the name of the first failing row, complete when every
    row is; the rows are the detail."""
    failed = [name for name, outcome in rows if not outcome.ok]
    return Outcome(
        not failed,
        witness=failed[0] if failed else None,
        detail=rows,
        complete=all(outcome.complete for _, outcome in rows),
    )
