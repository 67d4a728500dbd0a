import pytest

from nqforge.polyring import Polynomial
from nqforge.graded import GradedBundle
from nqforge.linfty import (
    AlgebraStructure,
    AntialgebraStructure,
    apply_anchor,
    homotopy_residual_antisymmetric,
    homotopy_residual_symmetric,
    transfer_to_antialgebra,
    verify_algebra,
    verify_antialgebra,
)
from nqforge.algebroid import to_algebroid, to_antialgebroid
from nqforge import fixtures
from nqforge.signs import bracket_transfer_sign


def test_apply_anchor_is_a_derivation():
    coords = ("x",)
    x = Polynomial.variable("x", coords)
    anchor = {"e": {"x": x}}
    p, q = x * x, x + Polynomial.constant(1, coords)
    lhs = apply_anchor(anchor, "e", p * q)
    rhs = apply_anchor(anchor, "e", p) * q + p * apply_anchor(anchor, "e", q)
    assert lhs == rhs


def test_bracket_family_requires_canonical_keys():
    bundle = GradedBundle(("x",), {1: ["e1", "e2"]}, side="E")
    one = Polynomial.constant(1, ("x",))
    with pytest.raises(ValueError):
        AntialgebraStructure(bundle, {2: {("e2", "e1"): {"e1": one}}})
    # a repeated odd frame vanishes on the symmetric side, a repeated
    # degree-0 frame on the antisymmetric side
    with pytest.raises(ValueError):
        AntialgebraStructure(bundle, {2: {("e1", "e1"): {"e2": one}}})
    with pytest.raises(ValueError):
        AlgebraStructure(bundle.shifted(), {2: {("e1", "e1"): {"e2": one}}})
    with pytest.raises(ValueError):
        AlgebraStructure(bundle.shifted(), {2: {("e2", "e1"): {"e1": one}}})


def test_bracket_family_rejects_wrong_output_degree():
    bundle = GradedBundle(("x",), {1: ["a"], 2: ["b"]}, side="E")
    one = Polynomial.constant(1, ("x",))
    # a binary bracket of two degree -1 frames must land in degree -1
    with pytest.raises(ValueError):
        AntialgebraStructure(bundle, {2: {("a", "a"): {"b": one}}})
    bad = [
        {2: {("a", "b"): {"a": one}}},  # lands in -1, not in -2
        {1: {("b",): {"b": one}}},  # lands in -2, not in -1
        {1: {("b",): {"z": one}}},  # unknown target
        {0: {(): {"a": one}}},  # arity 0
        {4: {("b", "b", "b", "b"): {"a": one}}},  # arity n+2
    ]
    for tables in bad:
        with pytest.raises((ValueError, KeyError)):
            AntialgebraStructure(bundle, tables)
    with pytest.raises(ValueError):
        AlgebraStructure(bundle.shifted(), {2: {("a", "b"): {"a": one}}})


def test_value_applies_symmetry_sign():
    anti = to_antialgebroid(fixtures.action_line())
    v = anti.brackets.value(("e2", "e1"))
    w = anti.brackets.value(("e1", "e2"))
    assert v == -w  # both frames odd on the unshifted side
    assert anti.brackets.value(("e1", "e1")).is_zero()


def test_evaluate_anchored_leibniz():
    # [X, f Y] = f [X, Y] + (rho(X) f) Y on degree -1 sections
    anti = to_antialgebroid(fixtures.action_line())
    bundle = anti.bundle
    coords = bundle.base_coordinates
    f = Polynomial.variable("x", coords) ** 2
    e1 = bundle.frame_section("e1")
    e2 = bundle.frame_section("e2")
    lhs = anti.brackets.evaluate([e1, e2.scale(f)], anti.anchor)
    plain = anti.brackets.evaluate([e1, e2], anti.anchor)
    rhs = plain.scale(f) + e2.scale(apply_anchor(anti.anchor, "e1", f))
    assert lhs == rhs


def test_evaluate_without_anchor_is_tensorial():
    anti = to_antialgebroid(fixtures.action_line())
    bundle = anti.bundle
    f = Polynomial.variable("x", bundle.base_coordinates)
    e1 = bundle.frame_section("e1")
    e2 = bundle.frame_section("e2")
    lhs = anti.brackets.evaluate([e1, e2.scale(f)], None)
    rhs = anti.brackets.evaluate([e1, e2], None).scale(f)
    assert lhs == rhs


def test_verify_antialgebra_on_fixtures():
    for name, algd in fixtures.all_structures().items():
        anti = to_antialgebroid(algd)
        rep = verify_antialgebra(anti.brackets, anchor=anti.anchor)
        assert rep.ok, (name, repr(rep))


def test_verify_antialgebra_flags_broken_jacobi_with_witness():
    # these two perturbations break the bracket identities themselves
    for name in ["jacobiator_point", "module_point"]:
        algd = fixtures.perturbed_structures()[name]
        anti = to_antialgebroid(algd)
        rep = verify_antialgebra(anti.brackets, anchor=anti.anchor)
        assert not rep.ok, name
        assert rep.witness is not None
        assert rep.detail is not None and not rep.detail.is_zero()


def test_anchor_defects_are_invisible_to_the_identity_sweep():
    # the other perturbations only break anchor compatibility; the frame
    # identities still hold, and the squared differential is the detector
    from nqforge.algebroid import verify_algebroid

    for name in ["tangent_plane", "action_line", "two_term"]:
        algd = fixtures.perturbed_structures()[name]
        anti = to_antialgebroid(algd)
        rep = verify_antialgebra(anti.brackets, anchor=anti.anchor)
        assert rep.ok, name
        full = dict(verify_algebroid(algd).detail)
        assert not full["differential squares to zero"].ok, name


def test_verify_algebra_matches_across_transfer():
    pairs = list(fixtures.all_structures().items()) + list(
        fixtures.perturbed_structures().items()
    )
    for name, algd in pairs:
        anti = to_antialgebroid(algd)
        sym = verify_antialgebra(anti.brackets, anchor=anti.anchor)
        antisym = verify_algebra(algd.brackets, anchor=algd.anchor)
        assert sym.ok == antisym.ok, name


def test_transfer_roundtrip_exact():
    for name, algd in fixtures.all_structures().items():
        anti = to_antialgebroid(algd)
        back = to_algebroid(anti)
        assert back.brackets.tables == algd.brackets.tables, name
        assert back.anchor == algd.anchor, name


def test_transfer_scales_by_pinned_sign():
    algd = fixtures.jacobiator_point()
    anti_brackets = transfer_to_antialgebra(algd.brackets)
    key = ("e1", "e2", "e3")
    sign = bracket_transfer_sign([1, 1, 1])
    want = algd.brackets.tables[3][key]["m"] * sign
    assert anti_brackets.tables[3][key]["m"] == want


def test_residuals_vanish_exactly_on_valid_data():
    anti = to_antialgebroid(fixtures.module_point())
    labels = anti.bundle.labels()
    for key in [("e1", "e2"), ("e1", "e2", "d"), ("e2", "d")]:
        res = homotopy_residual_symmetric(anti.brackets, key, anti.anchor)
        assert res.is_zero(), key


def test_antisymmetric_residual_flags_bad_jacobi():
    algd = fixtures.module_point_perturbed()
    bad = homotopy_residual_antisymmetric(
        algd.brackets, ("e1", "e2", "d"), algd.anchor
    )
    assert not bad.is_zero()
