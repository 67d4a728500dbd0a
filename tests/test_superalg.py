import pytest
from hypothesis import given, settings, strategies as st

from nqforge.polyring import Polynomial
from nqforge.graded import GradedBundle, canonical_tuples, normalize_tuple
from nqforge.superalg import (
    _diagonal,
    Derivation,
    SuperFunction,
    check_homological,
    element_from_values,
    evaluate_element,
    extract_section,
    interior_product,
)

B = GradedBundle(("x",), {1: ["u", "v"], 2: ["h"]}, side="E")
ONE = Polynomial.constant(1, B.base_coordinates)
X = Polynomial.variable("x", B.base_coordinates)


def gen(lab):
    return SuperFunction.generator(lab, B)


def test_shifted_bundle_is_refused():
    # on the shifted side frame degrees 1-a and generator degrees a have
    # different parities, so normal ordering by frame degree would be wrong
    with pytest.raises(ValueError):
        SuperFunction(B.shifted(), {("u",): ONE})
    with pytest.raises(ValueError):
        SuperFunction.zero(B.shifted())


def test_odd_generators_anticommute():
    gu, gv = gen("u"), gen("v")
    assert gu * gv == -(gv * gu)
    assert (gu * gu).is_zero()


def test_even_generator_commutes():
    gh = gen("h")
    gu = gen("u")
    assert gh * gu == gu * gh
    assert not (gh * gh).is_zero()


def test_polynomial_coefficients_pass_through():
    s = SuperFunction.from_polynomial(X, B) * gen("u")
    assert s.coefficient(("u",)) == X
    assert s.std_degree() == 1


def test_std_degrees():
    assert gen("u").std_degree() == 1
    assert gen("h").std_degree() == 2
    assert (gen("u") * gen("h")).std_degree() == 3
    mixed = gen("u") + gen("h")
    with pytest.raises(ValueError):
        mixed.std_degree()


def test_interior_product_on_duals():
    # contraction of a degree-a frame with its own dual costs (-1)^a
    i_u = interior_product(B.frame_section("u"))
    assert i_u.apply(gen("u")) == SuperFunction.constant(-1, B)
    assert i_u.apply(gen("v")).is_zero()
    i_h = interior_product(B.frame_section("h"))
    assert i_h.apply(gen("h")) == SuperFunction.constant(1, B)


def test_frozen_pair_evaluations():
    # the two pinned dictionary values
    w = gen("u") * gen("v")
    pair = [B.frame_section("u"), B.frame_section("v")]
    assert evaluate_element(w, pair) == Polynomial.constant(-1, B.base_coordinates)
    ww = gen("h") * gen("h")
    hh = [B.frame_section("h"), B.frame_section("h")]
    assert evaluate_element(ww, hh) == Polynomial.constant(2, B.base_coordinates)


def test_element_from_values_inverts_evaluation():
    values = {
        ("u", "v"): X,
        ("u", "h"): X * X + ONE,
        ("h", "h"): Polynomial.constant(5, B.base_coordinates),
    }
    elem = element_from_values(B, values)
    for key, want in values.items():
        frames = [B.frame_section(lab) for lab in key]
        assert evaluate_element(elem, frames) == want
    # tuples outside the table evaluate to zero
    assert evaluate_element(
        elem, [B.frame_section("v"), B.frame_section("v")]
    ).is_zero()


def test_closed_form_diagonal_matches_evaluation():
    # every normal-order key of arity 0..5 over magnitudes 1..4, odd and
    # even frames alike, paired with its own frames by interior products
    bundle = GradedBundle(("x",), {1: ["a", "b"], 2: ["c", "d"], 3: ["e"], 4: ["f"]})
    one = Polynomial.constant(1, bundle.base_coordinates)
    keys = [
        key
        for r in range(6)
        for key in canonical_tuples(bundle.labels(), r)
        if normalize_tuple(key, bundle)[1] != 0
    ]
    assert len(keys) == 231
    for key in keys:
        frames = [bundle.frame_section(lab) for lab in key]
        want = evaluate_element(SuperFunction(bundle, {key: one}), frames)
        assert _diagonal(bundle, key) == want.constant_value(), key


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
@settings(max_examples=20, deadline=None)
def test_element_roundtrip_random_pair_values(a, b):
    values = {}
    if a:
        values[("u", "v")] = Polynomial.constant(a, B.base_coordinates)
    if b:
        values[("v", "h")] = Polynomial.constant(b, B.base_coordinates)
    elem = element_from_values(B, values)
    for key in [("u", "v"), ("v", "h")]:
        frames = [B.frame_section(lab) for lab in key]
        got = evaluate_element(elem, frames)
        want = values.get(key, Polynomial.zero(B.base_coordinates))
        assert got == want


def test_extract_section_inverts_interior():
    sec = B.frame_section("u").scale(X) + B.frame_section("h")
    assert extract_section(interior_product(sec)) == sec


def test_derivation_product_rule():
    d = Derivation(B, {
        "x": gen("u"),
        "u": gen("u") * gen("v"),
        "h": SuperFunction.from_polynomial(X, B) * gen("u") * gen("h"),
    })
    a = SuperFunction.from_polynomial(X, B) * gen("u")
    b = gen("v") * gen("h")
    lhs = d.apply(a * b)
    # graded Leibniz: d has standard degree +1, a has standard degree 1
    rhs = d.apply(a) * b + (a * d.apply(b)) * (-1)
    assert lhs == rhs


def test_check_homological():
    # q(u-dual) = u v is not homological on its own unless paired right:
    # build the simplest homological field q(x) = -u with everything else 0
    q = Derivation(B, {"x": -gen("u")})
    rep = check_homological(q)
    assert rep.ok
    # and one that visibly fails
    q2 = Derivation(B, {"x": -gen("u"), "u": gen("h"), "h": gen("u") * gen("h")})
    rep2 = check_homological(q2)
    assert not rep2.ok
    assert rep2.witness is not None


def test_check_homological_passes_on_a_one_generator_field():
    q = Derivation(B, {"x": -gen("u")})
    assert check_homological(q).ok


def _split(d):
    return {l: part.images for l, part in d.std_parts().items()}


def _degree(d):
    try:
        return d.std_degree()
    except ValueError:
        return "inhomogeneous"


def test_cached_split_matches_fresh_derivation():
    d = Derivation(B, {
        "x": gen("u") + gen("h"),
        "u": gen("u") * gen("v") + SuperFunction.from_polynomial(X, B),
        "h": gen("u") * gen("h"),
    })
    e = Derivation(B, {"v": gen("h"), "x": gen("v") * gen("u")})
    f = SuperFunction.from_polynomial(X * X, B) * gen("u") + gen("v") * gen("h")
    made = [d + e, d - e, d.scale(X), d.commutator(e)]
    made += list(d.homological_parts().values()) + list(d.std_parts().values())
    for got in made:
        got.std_parts()
        fresh = Derivation(got.bundle, dict(got.images))
        assert _split(got) == _split(fresh)
        assert _degree(got) == _degree(fresh)
        assert got.apply(f) == fresh.apply(f)
    for l, part in d.std_parts().items():
        assert part.std_parts() == {l: part}
