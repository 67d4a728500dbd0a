import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nqforge import linfty
from nqforge.polyring import Polynomial
from nqforge.graded import GradedBundle, canonical_tuples, normalize_tuple
from nqforge.linfty import (
    AlgebraStructure,
    AntialgebraStructure,
    _candidates,
    apply_anchor,
    homotopy_residual_antisymmetric,
    homotopy_residual_symmetric,
    transfer_to_algebra,
    transfer_to_antialgebra,
    verify_algebra,
    verify_antialgebra,
)
from nqforge.algebroid import _as_antialgebroid, to_algebroid, to_antialgebroid
from nqforge import fixtures
from nqforge.outcome import Outcome
from nqforge.signs import bracket_transfer_sign

# the structure fixtures, their perturbed twins, and small members of each
# benchmark family with theirs (the conjugation family's structures are
# inn(gl(m)) itself)
from test_residual_loop import STRUCTURES


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


# ----- the pruned identity sweep against the full sweep -----


def _full_sweep(struct, residual_fn, r_max, anchor):
    """The sweep over every canonical frame tuple of arity 1..r_max, the
    oracle for the candidate sweep of linfty._sweep."""
    labels = struct.bundle.labels()
    for t in range(1, r_max + 1):
        for key in canonical_tuples(labels, t):
            res = residual_fn(struct, key, anchor)
            if not res.is_zero():
                return Outcome(False, witness=(t, key), detail=res)
    return Outcome(True, complete=r_max >= struct.bundle.n + 2)


def _outcome(o):
    return (o.ok, o.witness, repr(o.detail), o.complete)


def _assert_sweeps_match_oracle(anti, anchor):
    """Both symmetries (the antisymmetric one on the transfer), at every
    r_max in 1..n+2 and at the default."""
    alg = transfer_to_algebra(anti)
    top = anti.bundle.n + 2
    for r_max in list(range(1, top + 1)) + [None]:
        r = top if r_max is None else r_max
        got = verify_antialgebra(anti, r_max=r_max, anchor=anchor)
        want = _full_sweep(anti, homotopy_residual_symmetric, r, anchor)
        assert _outcome(got) == _outcome(want), ("symmetric", r_max)
        got = verify_algebra(alg, r_max=r_max, anchor=anchor)
        want = _full_sweep(alg, homotopy_residual_antisymmetric, r, anchor)
        assert _outcome(got) == _outcome(want), ("antisymmetric", r_max)


def _polynomials(coords):
    """Small integer polynomials of degree at most 2 in coords."""
    exponents = [
        exps
        for exps in itertools.product(range(3), repeat=len(coords))
        if sum(exps) <= 2
    ]
    return st.dictionaries(
        st.sampled_from(exponents),
        st.integers(min_value=-2, max_value=2),
        min_size=1,
        max_size=3,
    ).map(lambda terms: Polynomial(coords, terms))


@st.composite
def _sparse_brackets(draw):
    """A random symmetric bracket family with n = 1 or 2 over R^0..R^2, its
    tables sparse and its arities up to n+1, and a random anchor on some
    magnitude-1 frames.  Most draws fail the identities."""
    n = draw(st.integers(min_value=1, max_value=2))
    coords = ("x", "y")[: draw(st.integers(min_value=0, max_value=2))]
    sizes = [draw(st.integers(min_value=2, max_value=3))]
    if n == 2:
        sizes.append(draw(st.integers(min_value=1, max_value=2)))
    frames = {
        a: ["f%d%d" % (a, k) for k in range(size)]
        for a, size in enumerate(sizes, start=1)
    }
    bundle = GradedBundle(coords, frames, side="E")
    polys = _polynomials(coords)
    tables = {}
    for r in range(1, n + 2):
        for key in canonical_tuples(bundle.labels(), r):
            mag = sum(bundle.magnitude(lab) for lab in key) - 1
            targets = frames.get(mag)
            if not targets or normalize_tuple(key, bundle)[1] == 0:
                continue
            if not draw(st.booleans()):
                continue
            chosen = draw(st.lists(st.sampled_from(targets), min_size=1,
                                   max_size=2, unique=True))
            tables.setdefault(r, {})[key] = {
                lab: draw(polys) for lab in chosen
            }
    anchor = {}
    if coords:
        for lab in frames[1]:
            if draw(st.booleans()):
                anchor[lab] = draw(st.dictionaries(
                    st.sampled_from(coords), polys, min_size=1
                ))
    return AntialgebraStructure(bundle, tables), anchor


@given(_sparse_brackets())
@settings(max_examples=100, deadline=None)
def test_candidate_sweep_matches_the_full_sweep_on_random_tables(draw):
    anti, anchor = draw
    _assert_sweeps_match_oracle(anti, anchor)


@pytest.mark.parametrize(
    "struct", [s for _, s in STRUCTURES], ids=[n for n, _ in STRUCTURES]
)
def test_candidate_sweep_matches_the_full_sweep_on_inputs(struct):
    anti = _as_antialgebroid(struct)
    _assert_sweeps_match_oracle(anti.brackets, anti.anchor)


def test_anchor_rule_catches_a_failure_the_bracket_rule_misses():
    # over R^1, frames a, b, c of degree -1, l2(b, c) = x a - b and
    # rho(a) = (x + 2) d/dx: rho(a) differentiates the x of l2(b, c) at
    # (a, b, c), where no composite of two table entries lives
    coords = ("x",)
    x = Polynomial.variable("x", coords)
    one = Polynomial.constant(1, coords)
    bundle = GradedBundle(coords, {1: ["a", "b", "c"]}, side="E")
    anti = AntialgebraStructure(bundle, {2: {("b", "c"): {"a": x, "b": -one}}})
    anchor = {"a": {"x": x + one + one}}
    want = _full_sweep(anti, homotopy_residual_symmetric, 3, anchor)
    assert want.witness == (3, ("a", "b", "c"))
    got = verify_antialgebra(anti, anchor=anchor)
    assert _outcome(got) == _outcome(want)
    assert ("a", "b", "c") in _candidates(anti, anchor, 3)
    assert ("a", "b", "c") not in _candidates(anti, {}, 3)
    # the bracket rule's candidates alone would pass
    for key in _candidates(anti, {}, 3):
        assert homotopy_residual_symmetric(anti, key, anchor).is_zero(), key


def test_sweep_runs_the_residual_on_candidates_only(monkeypatch):
    anti = _as_antialgebroid(dict(STRUCTURES)["inn_gl2"])
    labels = anti.bundle.labels()
    tuples = sum(len(canonical_tuples(labels, t)) for t in range(1, 5))
    assert tuples == 494
    calls = []

    def counting(struct, labels, anchor=None):
        calls.append(labels)
        return homotopy_residual_symmetric(struct, labels, anchor)

    monkeypatch.setattr(linfty, "homotopy_residual_symmetric", counting)
    out = verify_antialgebra(anti.brackets, anchor=anti.anchor)
    assert out.ok and out.complete
    assert 0 < len(calls) < tuples / 5
