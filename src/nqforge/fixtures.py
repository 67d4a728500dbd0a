"""Desk-scale instances used across the test suite and the bundled demos.

Structure fixtures are written as shifted-side data (antisymmetric brackets
on the shifted bundle plus an anchor) and built by
LieNAntialgebroid.from_shifted, as a shifted-side file is read; morphism
fixtures return (data, source, target, expected).
Expected verdicts are part of the fixture: the broken variants are broken
on purpose and stay that way.
"""

from __future__ import annotations

from .polyring import Polynomial, BaseMap
from .graded import GradedBundle
from .algebroid import LieNAntialgebroid
from .morphism import MorphismData


def _p(value, coords):
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value, coords)


def _tab(coords, raw):
    return {
        r: {
            key: {lab: _p(v, coords) for lab, v in targets.items()}
            for key, targets in table.items()
        }
        for r, table in raw.items()
    }


def _row(coords, raw):
    return {
        lab: {c: _p(v, coords) for c, v in entries.items()}
        for lab, entries in raw.items()
    }


# ----- structures -----


def tangent_plane():
    """Tangent algebroid of the plane in coordinate frames."""
    coords = ("x", "y")
    bundle = GradedBundle(coords, {1: ["e1", "e2"]}, side="sE")
    anchor = _row(coords, {"e1": {"x": 1}, "e2": {"y": 1}})
    return LieNAntialgebroid.from_shifted(bundle, {}, anchor)


def action_line():
    """Action algebroid of the nonabelian two-dimensional Lie algebra on
    the line: e1 acts as d/dx, e2 as x d/dx, and [e1, e2] = e1."""
    coords = ("x",)
    bundle = GradedBundle(coords, {1: ["e1", "e2"]}, side="sE")
    x = Polynomial.variable("x", coords)
    anchor = _row(coords, {"e1": {"x": 1}, "e2": {"x": x}})
    tables = _tab(coords, {2: {("e1", "e2"): {"e1": 1}}})
    return LieNAntialgebroid.from_shifted(bundle, tables, anchor)


def two_term():
    """Two-term complex over a line, unary bracket only."""
    coords = ("t",)
    bundle = GradedBundle(coords, {1: ["a"], 2: ["b"]}, side="sE")
    tables = _tab(coords, {1: {("b",): {"a": 1}}})
    return LieNAntialgebroid.from_shifted(bundle, tables, {})


def jacobiator_point():
    """Degree-2 structure over a point whose only bracket is ternary."""
    bundle = GradedBundle((), {1: ["e1", "e2", "e3"], 2: ["m"]}, side="sE")
    tables = _tab((), {3: {("e1", "e2", "e3"): {"m": 1}}})
    return LieNAntialgebroid.from_shifted(bundle, tables, {})


def module_point():
    """The nonabelian two-dimensional Lie algebra with a one-dimensional
    module placed in the next degree, over a point: e1 acts by zero and e2
    by the identity."""
    bundle = GradedBundle((), {1: ["e1", "e2"], 2: ["d"]}, side="sE")
    tables = _tab((), {2: {("e1", "e2"): {"e1": 1}, ("e2", "d"): {"d": 1}}})
    return LieNAntialgebroid.from_shifted(bundle, tables, {})


def all_structures():
    return {
        "tangent_plane": tangent_plane(),
        "action_line": action_line(),
        "two_term": two_term(),
        "jacobiator_point": jacobiator_point(),
        "module_point": module_point(),
    }


# Each perturbation breaks one identity by hand: a bracket the anchor
# cannot see, an anchor the unary bracket feeds into, a unary bracket the
# ternary one does not close against, and a module action that is not a
# representation.


def tangent_plane_perturbed():
    coords = ("x", "y")
    bundle = GradedBundle(coords, {1: ["e1", "e2"]}, side="sE")
    anchor = _row(coords, {"e1": {"x": 1}, "e2": {"y": 1}})
    tables = _tab(coords, {2: {("e1", "e2"): {"e1": 1}}})
    return LieNAntialgebroid.from_shifted(bundle, tables, anchor)


def action_line_perturbed():
    coords = ("x",)
    bundle = GradedBundle(coords, {1: ["e1", "e2"]}, side="sE")
    x = Polynomial.variable("x", coords)
    anchor = _row(coords, {"e1": {"x": 1}, "e2": {"x": x}})
    tables = _tab(coords, {2: {("e1", "e2"): {"e1": 1, "e2": 1}}})
    return LieNAntialgebroid.from_shifted(bundle, tables, anchor)


def two_term_perturbed():
    coords = ("t",)
    bundle = GradedBundle(coords, {1: ["a"], 2: ["b"]}, side="sE")
    tables = _tab(coords, {1: {("b",): {"a": 1}}})
    anchor = _row(coords, {"a": {"t": 1}})
    return LieNAntialgebroid.from_shifted(bundle, tables, anchor)


def jacobiator_point_perturbed():
    bundle = GradedBundle((), {1: ["e1", "e2", "e3"], 2: ["m"]}, side="sE")
    tables = _tab((), {
        3: {("e1", "e2", "e3"): {"m": 1}},
        1: {("m",): {"e1": 1}},
    })
    return LieNAntialgebroid.from_shifted(bundle, tables, {})


def module_point_perturbed():
    bundle = GradedBundle((), {1: ["e1", "e2"], 2: ["d"]}, side="sE")
    tables = _tab((), {
        2: {("e1", "e2"): {"e1": 1}, ("e1", "d"): {"d": 1}, ("e2", "d"): {"d": 1}},
    })
    return LieNAntialgebroid.from_shifted(bundle, tables, {})


def perturbed_structures():
    return {
        "tangent_plane": tangent_plane_perturbed(),
        "action_line": action_line_perturbed(),
        "two_term": two_term_perturbed(),
        "jacobiator_point": jacobiator_point_perturbed(),
        "module_point": module_point_perturbed(),
    }


# ----- morphisms -----
#
# Builders return (data, source, target, expected_valid).


def identity_tangent_plane():
    src = tangent_plane()
    b = src.bundle
    comps = _tab(b.base_coordinates, {
        1: {("e1",): {"e1": 1}, ("e2",): {"e2": 1}},
    })
    m = MorphismData(b, b, BaseMap.identity(b.base_coordinates), comps)
    return m, src, src, True


def identity_action_line():
    src = action_line()
    b = src.bundle
    comps = _tab(b.base_coordinates, {
        1: {("e1",): {"e1": 1}, ("e2",): {"e2": 1}},
    })
    m = MorphismData(b, b, BaseMap.identity(b.base_coordinates), comps)
    return m, src, src, True


def doubled_action_line():
    """Doubling the frame component without touching the base map breaks
    both formulations at once."""
    src = action_line()
    b = src.bundle
    comps = _tab(b.base_coordinates, {
        1: {("e1",): {"e1": 2}, ("e2",): {"e2": 2}},
    })
    m = MorphismData(b, b, BaseMap.identity(b.base_coordinates), comps)
    return m, src, src, False


def _tangent_line(coord, frame):
    coords = (coord,)
    bundle = GradedBundle(coords, {1: [frame]})
    anchor = _row(coords, {frame: {coord: 1}})
    return LieNAntialgebroid(bundle, {}, anchor)


def tangent_squaring():
    """Tangent map of the squaring map of the line."""
    src = _tangent_line("x", "e")
    tgt = _tangent_line("y", "f")
    coords = src.bundle.base_coordinates
    x = Polynomial.variable("x", coords)
    base = BaseMap(coords, tgt.bundle.base_coordinates, {"y": x * x})
    comps = _tab(coords, {1: {("e",): {"f": x * 2}}})
    m = MorphismData(src.bundle, tgt.bundle, base, comps)
    return m, src, tgt, True


def tangent_squaring_broken():
    src = _tangent_line("x", "e")
    tgt = _tangent_line("y", "f")
    coords = src.bundle.base_coordinates
    x = Polynomial.variable("x", coords)
    base = BaseMap(coords, tgt.bundle.base_coordinates, {"y": x * x})
    comps = _tab(coords, {1: {("e",): {"f": x * 3}}})
    m = MorphismData(src.bundle, tgt.bundle, base, comps)
    return m, src, tgt, False


def rescale_two_term():
    src = two_term()
    b = src.bundle
    comps = _tab(b.base_coordinates, {1: {("a",): {"a": 3}, ("b",): {"b": 3}}})
    m = MorphismData(b, b, BaseMap.identity(b.base_coordinates), comps)
    return m, src, src, True


def plane_to_line():
    """Plane tangent algebroid onto the action algebroid over the
    multiplication map (x, y) -> x y.  Neither base-preserving nor
    component-diagonal, so the anchor row of the general condition is
    exercised for real."""
    src = tangent_plane()
    tgt = action_line()
    coords = src.bundle.base_coordinates
    x = Polynomial.variable("x", coords)
    y = Polynomial.variable("y", coords)
    base = BaseMap(coords, tgt.bundle.base_coordinates, {"x": x * y})
    comps = _tab(coords, {1: {
        ("e1",): {"e1": y},
        ("e2",): {"e1": x - x * y, "e2": 1},
    }})
    m = MorphismData(src.bundle, tgt.bundle, base, comps)
    return m, src, tgt, True


def plane_to_line_broken():
    src = tangent_plane()
    tgt = action_line()
    coords = src.bundle.base_coordinates
    x = Polynomial.variable("x", coords)
    y = Polynomial.variable("y", coords)
    base = BaseMap(coords, tgt.bundle.base_coordinates, {"x": x * y})
    comps = _tab(coords, {1: {
        ("e1",): {"e1": y},
        ("e2",): {"e1": x, "e2": 1},
    }})
    m = MorphismData(src.bundle, tgt.bundle, base, comps)
    return m, src, tgt, False


def point_module_spectator(weight=1):
    """Over a point, a relabeling with a spectator two-slot component.  The
    component drops out of every condition, so any weight passes."""
    src_b = GradedBundle((), {1: ["p", "q"], 2: ["c"]})
    tgt_b = GradedBundle((), {1: ["P", "Q"], 2: ["C"]})
    src = LieNAntialgebroid(src_b, _tab((), {2: {("p", "q"): {"p": 1}}}), {})
    tgt = LieNAntialgebroid(tgt_b, _tab((), {2: {("P", "Q"): {"P": 1}}}), {})
    comps = _tab((), {
        1: {("p",): {"P": 1}, ("q",): {"Q": 1}, ("c",): {"C": 1}},
        2: {("p", "q"): {"C": weight}},
    })
    m = MorphismData(src_b, tgt_b, BaseMap((), (), {}), comps)
    return m, src, tgt, True


def point_two_term(weight=1):
    """Two-term morphism over a point whose two-slot component cancels
    against the target differential; expected to pass only at weight 1."""
    src_b = GradedBundle((), {1: ["p", "q"], 2: ["c"]})
    tgt_b = GradedBundle((), {1: ["P", "Q"], 2: ["C"]})
    src = LieNAntialgebroid(src_b, _tab((), {2: {("p", "q"): {"p": 1}}}), {})
    tgt = LieNAntialgebroid(tgt_b, _tab((), {1: {("C",): {"P": 1}}}), {})
    comps = _tab((), {
        1: {("p",): {"P": 1}, ("q",): {"Q": 1}},
        2: {("p", "q"): {"C": weight}},
    })
    m = MorphismData(src_b, tgt_b, BaseMap((), (), {}), comps)
    return m, src, tgt, weight == 1


def point_uncancelled():
    """A bare two-slot component with nothing to cancel it; fails exactly
    at the two-argument condition."""
    src_b = GradedBundle((), {1: ["p", "q"], 2: ["c"]})
    tgt_b = GradedBundle((), {1: ["A"], 2: ["B"]})
    src = LieNAntialgebroid(src_b, {}, {})
    tgt = LieNAntialgebroid(tgt_b, _tab((), {1: {("B",): {"A": 1}}}), {})
    comps = _tab((), {2: {("p", "q"): {"B": 1}}})
    m = MorphismData(src_b, tgt_b, BaseMap((), (), {}), comps)
    return m, src, tgt, False


def all_morphisms():
    return {
        "identity_tangent_plane": identity_tangent_plane(),
        "identity_action_line": identity_action_line(),
        "doubled_action_line": doubled_action_line(),
        "tangent_squaring": tangent_squaring(),
        "tangent_squaring_broken": tangent_squaring_broken(),
        "rescale_two_term": rescale_two_term(),
        "plane_to_line": plane_to_line(),
        "plane_to_line_broken": plane_to_line_broken(),
        "point_module_spectator": point_module_spectator(),
        "point_two_term": point_two_term(),
        "point_two_term_doubled": point_two_term(2),
        "point_uncancelled": point_uncancelled(),
    }
