"""Every layer the benchmark tracer names exists in the package.

perfbench/spans.py patches its TIMED and COUNTED targets from outside and
silently skips a target that is gone, so a move (say of
_BracketFamily.evaluate into a base class, where the class __dict__ no
longer holds it) would zero a metric without any error.  This test reads
the target lists and resolves each one; it changes nothing in perfbench.
"""

import importlib
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import spans  # noqa: E402


def test_every_timed_and_counted_target_resolves():
    targets = spans.TIMED + spans.COUNTED
    for module in sorted({m for _, m, _ in targets}):
        importlib.import_module(module)
    assert ("linfty.evaluate_calls", "nqforge.linfty",
            "_BracketFamily.evaluate") in targets
    missing = [(m, a) for _, m, a in targets if spans._resolve(m, a) is None]
    assert not missing
