"""Outside-in tracing of nqforge's layers.

Nothing under src/ is touched.  While a Tracer is installed it replaces the
layers' public functions and methods with wrappers: module-level functions
in every nqforge namespace that binds them (the package uses from-imports,
so cli, algebroid, morphism and friends each hold their own reference), and
methods on their classes.  Uninstalling puts the originals back.

Timed wrappers record a span: name, start, end, parent span and the id of
the call (one CLI invocation or one library call) it belongs to.  Spans stay
in memory until the run ends.  Hot arithmetic methods are only counted,
because a timer per call would cost more than the call.

A target the package no longer has is skipped and its metrics read 0, so a
change that removes a layer still runs under the same benchmark.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from families import multisets

# (span name, module, attribute); "Cls.meth" patches a method on its class.
TIMED = [
    ("io.load", "nqforge.io", "load_path"),
    ("io.load", "nqforge.io", "load_structure"),
    ("io.load", "nqforge.io", "load_morphism"),
    ("io.load", "nqforge.io", "load_any"),
    ("io.load", "nqforge.io", "structure_from_dict"),
    ("io.load", "nqforge.io", "morphism_from_dict"),
    ("superalg.check_homological", "nqforge.superalg", "check_homological"),
    ("superalg.apply", "nqforge.superalg", "Derivation.apply"),
    ("superalg.commutator", "nqforge.superalg", "Derivation.commutator"),
    ("derived.bracket", "nqforge.derived", "DerivedSetup.bracket"),
    ("algebroid.consequence_checks", "nqforge.algebroid", "consequence_checks"),
    ("linfty.identity_sweep", "nqforge.linfty", "verify_antialgebra"),
    ("algebroid.residual_linearity", "nqforge.algebroid", "residual_linearity"),
    ("algebroid.ce_differential", "nqforge.algebroid", "ce_differential"),
    ("algebroid.extract_algebroid", "nqforge.algebroid", "extract_algebroid"),
    ("morphism.check_anchor_condition", "nqforge.morphism", "check_anchor_condition"),
    ("morphism.check_bracket_conditions", "nqforge.morphism", "check_bracket_conditions"),
    ("morphism.check_equivariance", "nqforge.morphism", "check_equivariance"),
    ("morphism.check_over_point_reduction", "nqforge.morphism", "check_over_point_reduction"),
    ("morphism.build_phi", "nqforge.morphism", "build_phi"),
]

# (counter name, module, attribute)
COUNTED = [
    ("superalg.std_parts_calls", "nqforge.superalg", "Derivation.std_parts"),
    ("superalg.mul_calls", "nqforge.superalg", "SuperFunction.__mul__"),
    ("linfty.residual_calls", "nqforge.linfty", "homotopy_residual_symmetric"),
    ("linfty.evaluate_calls", "nqforge.linfty", "_BracketFamily.evaluate"),
    ("polyring.mul_calls", "nqforge.polyring", "Polynomial.__mul__"),
    ("polyring.add_calls", "nqforge.polyring", "Polynomial.__add__"),
    ("polyring.partial_calls", "nqforge.polyring", "Polynomial.partial"),
    ("graded.shuffles_calls", "nqforge.graded", "shuffles"),
    ("graded.normalize_tuple_calls", "nqforge.graded", "normalize_tuple"),
    ("morphism.over_point_tuples", "nqforge.morphism", "over_point_defect"),
    ("morphism.to_algebroid_calls", "nqforge.algebroid", "to_algebroid"),
]

# timed spans that also report their number of calls
CALLS_REPORTED = ("superalg.apply", "superalg.commutator", "derived.bracket")

# the spans whose input feeds algebroid.table_fill
_TABLE_WALKERS = ("algebroid.ce_differential", "algebroid.extract_algebroid")


def _table_fill(structure):
    """(nonzero bracket entries, (tuple, target) pairs walked) for one
    structure: the conversions visit every target label against every
    canonical tuple of arity 1..n+1."""
    bundle = structure.bundle
    labels = len(bundle.labels())
    walked = labels * sum(multisets(labels, r) for r in range(1, bundle.n + 2))
    entries = sum(
        len(targets)
        for r, table in structure.brackets.tables.items()
        if r <= bundle.n + 1
        for targets in table.values()
    )
    return entries, walked


def _resolve(module, attr):
    """(owner, attribute name, original) or None when the target is gone."""
    mod = sys.modules.get(module)
    if mod is None:
        return None
    owner = mod
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(name)
    else:
        original = getattr(owner, name, None)
    if original is None:
        return None
    return owner, name, original


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, call id]
        self.counts = Counter()
        self.fill = [0, 0]
        self.call_id = 0
        self._stack = []
        self._undo = []

    # ----- recording -----

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.call_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn):
        span = self.span
        if name not in _TABLE_WALKERS:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
            return wrapper
        fill = self.fill

        def walker(*args, **kwargs):
            result = span(name, fn, *args, **kwargs)
            structure = result if name == "algebroid.extract_algebroid" else args[0]
            try:
                entries, walked = _table_fill(structure)
            except AttributeError:  # a structure of another shape: not counted
                return result
            fill[0] += entries
            fill[1] += walked
            return result
        return walker

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ----- patching -----

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nqforge" or n.startswith("nqforge."))]
        for kind, table in ((self._timed, TIMED), (self._counted, COUNTED)):
            for name, module, attr in table:
                found = _resolve(module, attr)
                if found is None:
                    continue
                owner, attr_name, original = found
                wrapper = kind(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr_name, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # ----- summaries -----

    def totals(self):
        """{span name: (inclusive seconds, self seconds, calls)}.  Inclusive
        time counts only the outermost span of a name, so a layer that
        calls itself is not counted twice."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            incl, self_s, calls = out.get(name, (0.0, 0.0, 0))
            dur = end - start
            outer = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outer = False
                    break
                p = spans[p][3]
            out[name] = (incl + (dur if outer else 0.0), self_s + dur - child[i], calls + 1)
        return out

    def metrics(self):
        """The per-layer metrics of this pass: {name: {"value", "unit"}}.
        A layer that did not run reads 0."""
        totals = self.totals()
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for name in dict.fromkeys(name for name, _, _ in TIMED):
            incl, self_s, calls = totals.get(name, (0.0, 0.0, 0))
            put(name + "_s", incl, "s")
            put(name + "_self_s", self_s, "s")
            if name in CALLS_REPORTED:
                put(name + "_calls", calls, "count")
        for name, _, _ in COUNTED:
            put(name, self.counts.get(name, 0), "count")
        put("cli.self_s", totals.get("cli.main", (0.0, 0.0, 0))[1], "s")
        actions = out["superalg.apply_calls"]["value"] + out["superalg.commutator_calls"]["value"]
        splits = self.counts.get("superalg.std_parts_calls", 0)
        put("superalg.std_parts_per_apply", splits / actions if actions else 0.0, "ratio")
        entries, walked = self.fill
        put("algebroid.table_fill", entries / walked if walked else 0.0, "ratio")
        return out
