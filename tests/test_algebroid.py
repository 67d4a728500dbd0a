import itertools
import random

import pytest

from nqforge.polyring import Polynomial
from nqforge.graded import GradedBundle
from nqforge.superalg import Derivation, SuperFunction, evaluate_element
from nqforge.linfty import apply_anchor
from nqforge.algebroid import (
    LieNAntialgebroid,
    ce_differential,
    check_identities,
    consequence_checks,
    de_rham_compare,
    extract_algebroid,
    residual_linearity,
    verify_algebroid,
)
from nqforge import fixtures
from nqforge.cli import _status


# ----- the differential itself, frozen on two small fixtures -----


def test_action_line_differential_images_frozen():
    q = ce_differential(fixtures.action_line())
    B = q.bundle
    g1 = SuperFunction.generator("e1", B)
    g2 = SuperFunction.generator("e2", B)
    x = Polynomial.variable("x", ("x",))
    assert q.image("x") == g1 * (-1) + g2 * x * (-1)
    assert q.image("e1") == g1 * g2
    assert q.image("e2").is_zero()


def test_two_term_differential_images_frozen():
    q = ce_differential(fixtures.two_term())
    B = q.bundle
    assert q.image("t").is_zero()
    assert q.image("a") == SuperFunction.generator("b", B) * (-1)
    assert q.image("b").is_zero()


# ----- correspondence: structure <-> field, both directions -----


def _all_named():
    yield from fixtures.all_structures().items()
    for name, algd in fixtures.perturbed_structures().items():
        yield name + "_perturbed", algd


def test_extract_after_differential_is_identity():
    for name, algd in _all_named():
        q = ce_differential(algd)
        back = extract_algebroid(q.bundle, q)
        assert back.brackets.tables == algd.brackets.tables, name
        assert back.anchor == algd.anchor, name


def test_differential_after_extract_is_identity():
    for name, algd in _all_named():
        q = ce_differential(algd)
        again = ce_differential(extract_algebroid(q.bundle, q))
        assert again.images == q.images, name


def test_extract_rejects_shifted_bundle():
    algd = fixtures.action_line()
    q = ce_differential(algd)
    with pytest.raises(ValueError):
        extract_algebroid(q.bundle.shifted(), q)


def test_extract_rejects_wrong_degree_field():
    anti = fixtures.two_term()
    B = anti.bundle
    bad = ce_differential(fixtures.two_term())
    images = dict(bad.images)
    # degree 2 image on a coordinate makes the field inhomogeneous
    images["t"] = SuperFunction.generator("a", B) * SuperFunction.generator("b", B)
    from nqforge.superalg import Derivation

    with pytest.raises(ValueError):
        extract_algebroid(B, Derivation(B, images))


# ----- the full verifier -----


def test_verify_algebroid_passes_fixtures_with_agreement():
    for name, algd in fixtures.all_structures().items():
        rep = verify_algebroid(algd)
        assert rep.ok, name
        assert [o.ok for _, o in rep.detail] == [True] * 4, name


def test_verify_algebroid_fails_perturbed_with_agreement():
    for name, algd in fixtures.perturbed_structures().items():
        rep = verify_algebroid(algd)
        assert not rep.ok, name
        assert dict(rep.detail)["routes agree"].ok, name


def test_verify_algebroid_r_max_truncates():
    algd = fixtures.jacobiator_point_perturbed()
    # the defect needs the arity-3 identity; stopping at arity 2 hides it
    # from the identity sweep but never from the squared field
    rows = dict(verify_algebroid(algd, r_max=2).detail)
    assert not rows["differential squares to zero"].ok
    assert rows["frame identities with anchor corrections"].ok


def test_routes_stopped_below_n_plus_2_are_incomplete():
    anti = fixtures.action_line()
    # the identity sweep passes at arity 1, so check_identities returns the
    # anchor-compatibility outcome, which carries the sweep's completeness
    for route in (check_identities, residual_linearity):
        truncated = route(anti, r_max=1)
        assert truncated.ok and not truncated.complete, route.__name__
        assert route(anti).complete, route.__name__


def test_every_check_row_is_timed():
    for algd in (fixtures.action_line(), fixtures.two_term_perturbed()):
        rows = verify_algebroid(algd).detail + consequence_checks(algd).detail
        for name, outcome in rows:
            assert (outcome.seconds > 0) == (name != "routes agree"), name


def test_truncated_routes_are_left_out_of_agreement():
    structures = list(fixtures.all_structures().items()) + list(
        fixtures.perturbed_structures().items()
    )
    for name, algd in structures:
        rows = dict(verify_algebroid(algd, r_max=1).detail)
        assert rows["routes agree"].ok, name


def test_linearity_passing_beside_a_failing_square_agrees():
    # a residual that is a nonzero tensor is still function-linear: these
    # brackets over a line, without an anchor, break the Jacobi identity
    # at (a, b, c) and pass linearity
    coords = ("x",)
    bundle = GradedBundle(coords, {1: ["a", "b", "c"]}, side="sE")
    one = Polynomial.constant(1, coords)
    tables = {2: {("a", "b"): {"a": one}, ("a", "c"): {"a": one},
                  ("b", "c"): {"b": one}}}
    anti = LieNAntialgebroid.from_shifted(bundle, tables, {})
    rows = dict(verify_algebroid(anti).detail)
    assert rows["differential squares to zero"].witness == ("a", "-a*b*c")
    assert rows["frame identities with anchor corrections"].witness == (3, ("a", "b", "c"))
    assert rows["identity residuals are function-linear"].ok
    assert rows["routes agree"].ok


def test_consequence_rows_pass_on_fixtures():
    for name, algd in fixtures.all_structures().items():
        rep = consequence_checks(algd)
        assert rep.ok, name
        names = [row[0] for row in rep.detail]
        assert "anchor-compatibility" in names
        assert "derived-brackets-match" in names
        assert "derived-anchor-matches" in names
        assert "lower-degree-anchor-vanishes" in names


def test_consequence_rows_catch_anchor_defects():
    rep = consequence_checks(fixtures.tangent_plane_perturbed())
    rows = dict((name, o.ok) for name, o in rep.detail)
    assert not rep.ok
    assert not rows["anchor-compatibility"]

    rep2 = consequence_checks(fixtures.two_term_perturbed())
    rows2 = dict((name, o.ok) for name, o in rep2.detail)
    assert not rows2["anchor-compatibility"]


def test_consequence_witness_is_the_first_failing_row():
    rep = consequence_checks(fixtures.tangent_plane_perturbed())
    assert rep.witness == "anchor-compatibility"


def test_residual_linearity_vacuous_over_point():
    for name in ["jacobiator_point", "module_point"]:
        anti = fixtures.all_structures()[name]
        out = residual_linearity(anti)
        assert out.ok and out.vacuous, name
        # nothing was left unchecked, so a truncated sweep still passes
        truncated = residual_linearity(anti, r_max=1)
        assert truncated.vacuous and not truncated.complete, name
        assert _status(truncated) == "pass", name


# ----- the arity-two part of the applied field is a Cartan expansion -----


def test_one_form_differential_expands_by_anchor_and_bracket():
    # W = f * (dual of e1); the two-generator part of Q(W), paired with
    # (X1, X2), is rho(X1) W(X2) - rho(X2) W(X1) - W([X1, X2])
    for fixture in [fixtures.action_line, fixtures.tangent_plane]:
        anti = fixture()
        q = ce_differential(anti)
        B = q.bundle
        coords = B.base_coordinates
        f = Polynomial.variable("x", coords) ** 2 + Polynomial.constant(2, coords)
        w = SuperFunction.generator("e1", B) * f
        two = q.apply(w).homological_part(2)
        for l1, l2 in itertools.permutations(["e1", "e2"], 2):
            X1 = anti.bundle.frame_section(l1)
            X2 = anti.bundle.frame_section(l2)
            lhs = evaluate_element(two, [X1, X2])
            br = anti.brackets.evaluate([X1, X2], anti.anchor)
            rhs = apply_anchor(
                anti.anchor, l1, evaluate_element(w, [X2])
            ) - apply_anchor(anti.anchor, l2, evaluate_element(w, [X1]))
            if not br.is_zero():
                rhs = rhs - evaluate_element(w, [br])
            assert lhs == rhs, (fixture.__name__, l1, l2)


# ----- de Rham comparison, both transport routes, exact -----


def _tangent_r3_reversed_frames():
    # frames declared against alphabetical order: the form lookup must sort
    # by bundle order, not by label string
    coords = ("x", "y", "z")
    bundle = GradedBundle(coords, {1: ["c", "b", "a"]}, side="sE")
    one = Polynomial.constant(1, coords)
    anchor = {"c": {"x": one}, "b": {"y": one}, "a": {"z": one}}
    return LieNAntialgebroid.from_shifted(bundle, {}, anchor)


def test_de_rham_routes_agree_exactly():
    cases = {name: fixtures.all_structures()[name]
             for name in ["tangent_plane", "action_line"]}
    cases["tangent_r3_reversed_frames"] = _tangent_r3_reversed_frames()
    for name, algd in cases.items():
        rep = de_rham_compare(algd)
        assert rep.ok, (name, rep.witness)
        assert rep.detail == "opposite", name
        assert rep.witness is None


def _random_line_bundle_algebroid(rng):
    """A random n = 1 structure over the line or the plane, valid or not:
    random binary brackets and anchors with small integer polynomial
    entries, the first frame always anchored, so some value is nonzero."""
    coords = rng.choice([("x",), ("x", "y")])
    labels = ["a", "b", "c"][: rng.randint(1, 3)]
    bundle = GradedBundle(coords, {1: labels}, side="sE")

    def poly():
        out = Polynomial.constant(rng.randint(-2, 2), coords)
        for c in coords:
            out = out + Polynomial.variable(c, coords) * rng.randint(-2, 2)
        return out

    table = {}
    for pair in itertools.combinations(labels, 2):
        targets = {lab: poly() for lab in labels if rng.random() < 0.6}
        targets = {lab: p for lab, p in targets.items() if not p.is_zero()}
        if targets:
            table[pair] = targets
    anchor = {lab: {c: poly() for c in coords} for lab in labels}
    anchor["a"]["x"] = Polynomial.variable("x", coords) + Polynomial.constant(1, coords)
    anchor = {lab: {c: p for c, p in row.items() if not p.is_zero()}
              for lab, row in anchor.items()}
    return LieNAntialgebroid.from_shifted(bundle, {2: table} if table else {}, anchor)


def test_de_rham_routes_agree_on_random_structures():
    # the transported differential is the formula for any brackets and
    # anchor, whether or not they satisfy the algebroid identities
    rng = random.Random(5)
    for trial in range(30):
        algd = _random_line_bundle_algebroid(rng)
        rep = de_rham_compare(algd)
        assert rep.ok, (trial, rep.witness)
        assert rep.detail == "opposite", trial


def test_de_rham_compare_catches_a_wrong_differential(monkeypatch):
    # negating Q on the base coordinates breaks the transported route on
    # functions: the first failing tuple is a single frame at form degree 0
    import nqforge.algebroid as algebroid

    honest = algebroid.ce_differential

    def wrong(struct):
        q = honest(struct)
        coords = set(q.bundle.base_coordinates)
        return Derivation(q.bundle, {name: -img if name in coords else img
                                     for name, img in q.images.items()})

    monkeypatch.setattr(algebroid, "ce_differential", wrong)
    rep = de_rham_compare(fixtures.action_line())
    assert not rep.ok
    # the form x on (e1,): the formula gives -1 (minus the textbook
    # rho(e1) x = 1), the transported route now reads 1
    assert rep.witness == ("transport-vs-formula", 0, ("e1",), "1", "-1")
