"""The nested-commutator route to the brackets and anchor.

Everything in here is formal: none of the checks rely on the field
squaring to zero, so the perturbed fixtures must satisfy the same
correspondences as the valid ones.
"""

from fractions import Fraction

from nqforge.polyring import Polynomial
from nqforge.algebroid import ce_differential, to_antialgebroid
from nqforge.derived import DerivedSetup
from nqforge.graded import GradedBundle, canonical_tuples
from nqforge.linfty import apply_anchor
from nqforge.signs import derived_to_symmetric_sign
from nqforge.superalg import (
    Derivation,
    SuperFunction,
    extract_section,
    interior_product,
)
from nqforge import fixtures


def _setup(algd):
    anti = to_antialgebroid(algd)
    return anti, DerivedSetup(anti.bundle, ce_differential(algd))


def _leibniz_defect(ds, sections, slot, poly):
    scaled = list(sections)
    scaled[slot] = scaled[slot].scale(poly)
    return ds.bracket(scaled) - ds.bracket(sections).scale(poly)


def _all_pairs():
    for name, algd in fixtures.all_structures().items():
        yield name, algd
    for name, algd in fixtures.perturbed_structures().items():
        yield name + "_perturbed", algd


def test_derived_brackets_recover_tables_up_to_sign():
    for name, algd in _all_pairs():
        anti, ds = _setup(algd)
        for r in anti.brackets.arities():
            sign = derived_to_symmetric_sign(r)
            for key in anti.brackets.tables[r]:
                secs = [anti.bundle.frame_section(l) for l in key]
                got = ds.bracket(secs)
                want = anti.brackets.value(key).scale(sign)
                assert got == want, (name, key)


def test_derived_bracket_r1_sign_frozen():
    # hand value: on the two-term fixture the unary table sends b to a,
    # the contraction route returns minus that
    anti, ds = _setup(fixtures.two_term())
    b = anti.bundle.frame_section("b")
    got = ds.bracket([b])
    assert got == anti.bundle.frame_section("a").scale(-1)


def test_brackets_above_top_arity_vanish():
    for name, algd in _all_pairs():
        anti, ds = _setup(algd)
        n = anti.bundle.n
        labels = anti.bundle.labels()
        if not labels:
            continue
        secs = [anti.bundle.frame_section(labels[0])] * (n + 2)
        assert ds.bracket(secs).is_zero(), name


def _whole_field_bracket(q, sections):
    """Reference: nested commutators of all of q, then the weight -1 part."""
    current = q
    for sec in sections:
        current = current.commutator(interior_product(sec))
    return extract_section(current.homological_part(-1))


def _mixed_weight_field():
    # components of homological weights -1, 0, 1 and 2 and of standard
    # degrees -1, +1 and +2; nothing here is a differential
    B = GradedBundle(("x",), {1: ["u", "v"], 2: ["h"]}, side="E")
    x = Polynomial.variable("x", B.base_coordinates)
    g = lambda lab: SuperFunction.generator(lab, B)
    fx = lambda p: SuperFunction.from_polynomial(p, B)
    return DerivedSetup(B, Derivation(B, {
        "x": g("u") * x + g("h") + g("u") * g("v"),
        "u": fx(x * x) + g("u") * g("v") + g("h") * 3,
        "v": g("h") * x + g("u") * g("h"),
        "h": g("u") * g("h") + g("u") * g("v") * g("h") + g("v") * 2,
    }))


def test_bracket_equals_whole_field_reference():
    setups = [(name, _setup(algd)[1]) for name, algd in _all_pairs()]
    setups.append(("mixed", _mixed_weight_field()))
    for name, ds in setups:
        bundle = ds.bundle
        for r in range(bundle.n + 3):
            for key in canonical_tuples(bundle.labels(), r):
                secs = [bundle.frame_section(lab) for lab in key]
                want = _whole_field_bracket(ds.q, secs)
                assert ds.bracket(secs) == want, (name, key)
                if r == bundle.n + 2:
                    assert want.is_zero(), (name, key)


def test_derived_anchor_matches_declared():
    for name, algd in _all_pairs():
        anti, ds = _setup(algd)
        coords = anti.bundle.base_coordinates
        if not coords:
            continue
        polys = [Polynomial.variable(c, coords) for c in coords]
        polys.append(polys[0] * polys[0] + Polynomial.constant(Fraction(1, 2), coords))
        for label in anti.bundle.labels_by_magnitude.get(1, []):
            sec = anti.bundle.frame_section(label)
            for p in polys:
                got = ds.anchor_action(sec, p)
                want = apply_anchor(anti.anchor, label, p)
                assert got == want, (name, label, p)


def test_derived_anchor_kills_deeper_frames():
    anti, ds = _setup(fixtures.two_term())
    t = Polynomial.variable("t", ("t",))
    b = anti.bundle.frame_section("b")
    assert ds.anchor_action(b, t) == Polynomial.zero(("t",))


def test_leibniz_probe_binary_reproduces_anchor_term():
    anti, ds = _setup(fixtures.action_line())
    coords = anti.bundle.base_coordinates
    f = Polynomial.variable("x", coords) ** 2
    e1 = anti.bundle.frame_section("e1")
    e2 = anti.bundle.frame_section("e2")
    defect = _leibniz_defect(ds, [e1, e2], 1, f)
    # scaling the second slot bends the bracket by (anchor of first slot)(f)
    # times the second section, with the sign the contraction route carries
    sign = derived_to_symmetric_sign(2)
    want = e2.scale(apply_anchor(anti.anchor, "e1", f)).scale(sign)
    assert defect == want


def test_leibniz_probe_zero_for_other_arities():
    anti, ds = _setup(fixtures.jacobiator_point())
    # over a point there is nothing to scale by except constants
    e1 = anti.bundle.frame_section("e1")
    e2 = anti.bundle.frame_section("e2")
    e3 = anti.bundle.frame_section("e3")
    c = Polynomial.constant(3, ())
    defect = _leibniz_defect(ds, [e1, e2, e3], 2, c)
    assert defect.is_zero()

    anti2, ds2 = _setup(fixtures.two_term())
    f = Polynomial.variable("t", ("t",)) ** 2
    bsec = anti2.bundle.frame_section("b")
    defect1 = _leibniz_defect(ds2, [bsec], 0, f)
    assert defect1.is_zero()
