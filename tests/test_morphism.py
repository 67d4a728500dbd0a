import itertools
import json
import math
import os
import random
import sys

from fractions import Fraction

import pytest

from nqforge.polyring import Polynomial, BaseMap
from nqforge.graded import (
    GradedBundle,
    canonical_tuples,
    normalize_tuple,
    shuffles,
)
from nqforge.algebroid import (
    LieNAntialgebroid,
    ce_differential,
)
from nqforge.linfty import apply_anchor, transfer_to_algebra
from nqforge.superalg import SuperFunction, element_values
from nqforge.signs import (
    bracket_transfer_sign,
    chi_sign,
    koszul_sign,
    over_point_block_sign,
    sign_pow,
)
from nqforge.morphism import (
    MorphismData,
    _general_defect,
    build_phi,
    check_anchor_condition,
    check_bracket_conditions,
    check_over_point_reduction,
    extract_morphism,
    over_point_defect,
    verify_morphism,
)
from nqforge import fixtures
from nqforge.cli import main
from nqforge.io import StructureFileError, morphism_from_dict, morphism_to_dict


def test_fixture_verdicts_and_formulation_agreement():
    for name, entry in fixtures.all_morphisms().items():
        m, src, tgt, expected = entry
        rep = verify_morphism(m, src, tgt)
        assert rep.ok == expected, (name, repr(rep))
        assert dict(rep.detail)["formulations agree"].ok, name


def _defect_sweep(defect_fn, morph, source, target):
    """{key: defect} of one bracket-condition shape on every frame tuple
    that check_bracket_conditions sweeps, arity 1..n+1."""
    bundle = morph.source_bundle
    out = {}
    for t in range(1, morph.n + 2):
        for key in canonical_tuples(bundle.labels(), t):
            if normalize_tuple(key, bundle, True)[1] != 0:
                out[key] = defect_fn(morph, source, target, key)
    return out


def _equivariance_defects(morph, source, target):
    """E(g) = Q_src(phi(g)) - phi(Q_tgt(g)) on every target coordinate and
    dual generator g, as {g: element_values table}."""
    phi = build_phi(morph)
    q_src = ce_differential(source)
    q_tgt = ce_differential(target)
    out = {}
    for coord in phi.target_bundle.base_coordinates:
        image = SuperFunction.from_polynomial(
            phi.coordinate_images[coord], phi.source_bundle)
        out[coord] = element_values(
            q_src.apply(image) - phi.apply(q_tgt.image(coord)))
    for lab in phi.target_bundle.labels():
        out[lab] = element_values(
            q_src.apply(phi.generator_images[lab]) - phi.apply(q_tgt.image(lab)))
    return out


def _anchor_defects(morph, source, target):
    """{(X, g): lhs - rhs} of check_anchor_condition on every degree -1
    source frame X and target coordinate g, in its sweep order."""
    pull = morph.base_map.pullback
    coords = target.bundle.base_coordinates
    out = {}
    for x in morph.source_bundle.labels_by_magnitude.get(1, ()):
        for g in coords:
            gvar = Polynomial.variable(g, coords)
            rhs = Polynomial.zero(morph.source_bundle.base_coordinates)
            for zeta, f in morph.value((x,)).items():
                rhs = rhs + f * pull(apply_anchor(target.anchor, zeta, gvar))
            out[x, g] = apply_anchor(source.anchor, x, pull(gvar)) - rhs
    return out


def test_formulations_agree_term_by_term():
    # E(zeta) at a source tuple K is (-1)^|zeta| times the general defect's
    # zeta entry at K, and E(g) at a degree -1 frame X is minus the anchor
    # defect at (X, g): the two formulations compute the same tensors
    cases = {name: entry[:3] for name, entry in fixtures.all_morphisms().items()}
    cases.update(_inn_conjugation_twins())
    cases.update(_inn_conjugation_twins(3))
    live = 0
    for name, (m, src, tgt) in cases.items():
        tgt_bundle = m.target_bundle
        equiv = _equivariance_defects(m, src, tgt)
        general = _defect_sweep(_general_defect, m, src, tgt)
        for zeta in tgt_bundle.labels():
            sign = sign_pow(tgt_bundle.magnitude(zeta))
            want = {key: d[zeta] * sign for key, d in general.items() if zeta in d}
            assert equiv[zeta] == want, (name, zeta)
            live += len(want)
        anchor = _anchor_defects(m, src, tgt)
        for g in tgt_bundle.base_coordinates:
            want = {(x,): -d for (x, h), d in anchor.items() if h == g and d}
            assert equiv[g] == want, (name, g)
            live += len(want)
        first = next(((x, g, str(d)) for (x, g), d in anchor.items() if d), None)
        assert check_anchor_condition(m, src, tgt).witness == first, name
    assert live == 35, live


def test_general_shape_sees_the_anchor_row_on_an_identity_base_map():
    # action_line to itself along the identity base map, e1 -> 2 e1 and
    # e2 -> x e2: the anchor condition fails, and the bracket condition's
    # witness keeps the e2 entry of the anchor row
    src = fixtures.action_line()
    b = src.bundle
    x = Polynomial.variable("x", b.base_coordinates)
    two = Polynomial.constant(2, b.base_coordinates)
    comps = {1: {("e1",): {"e1": two}, ("e2",): {"e2": x}}}
    m = MorphismData(b, b, BaseMap.identity(b.base_coordinates), comps)
    rep = verify_morphism(m, src, src)
    rows = dict(rep.detail)
    assert not rows["anchor condition"].ok
    assert rows["bracket condition, arity 1"].ok
    assert rows["bracket condition, arity 2"].witness == (
        ("e1", "e2"), {"e1": "-2*x + 2", "e2": "-1"})
    assert rows["formulations agree"].ok


def test_uncancelled_component_fails_exactly_at_arity_two():
    m, src, tgt, _ = fixtures.point_uncancelled()
    got = {}
    for key, defect in _defect_sweep(_general_defect, m, src, tgt).items():
        got[len(key)] = got.get(len(key), True) and not defect
    assert got == {1: True, 2: False, 3: True}, got


def test_bracket_witness_is_the_first_failing_arity():
    m, src, tgt, _ = fixtures.point_uncancelled()
    rep = check_bracket_conditions(m, src, tgt)
    assert not rep.ok and rep.witness == 2


def test_bracket_rows_below_n_plus_1_are_incomplete():
    m, src, tgt, _ = fixtures.point_two_term()
    rows = check_bracket_conditions(m, src, tgt, t_max=1).detail
    assert rows and all(o.ok and not o.complete for _, o in rows)
    rows = check_bracket_conditions(m, src, tgt).detail
    assert all(o.complete for _, o in rows)
    # no rows at all would read as a complete sweep
    with pytest.raises(ValueError):
        verify_morphism(m, src, tgt, t_max=0)


def test_every_morphism_row_is_timed():
    for name, (m, src, tgt, _) in fixtures.all_morphisms().items():
        for row, outcome in verify_morphism(m, src, tgt).detail:
            assert (outcome.seconds > 0) == (row != "formulations agree"), (name, row)


def test_cancelling_component_needs_weight_one():
    m, src, tgt, _ = fixtures.point_two_term(weight=1)
    assert verify_morphism(m, src, tgt).ok
    m2, src, tgt, _ = fixtures.point_two_term(weight=2)
    assert not verify_morphism(m2, src, tgt).ok


def test_spectator_component_passes_at_any_weight():
    for weight in [1, 4, -2]:
        m, src, tgt, _ = fixtures.point_module_spectator(weight=weight)
        rep = verify_morphism(m, src, tgt)
        assert rep.ok and dict(rep.detail)["formulations agree"].ok, weight


def test_roundtrip_through_the_algebra_morphism():
    for name, entry in fixtures.all_morphisms().items():
        m, src, tgt, _ = entry
        back = extract_morphism(build_phi(m))
        assert back.components == m.components, name
        assert back.base_map.images == m.base_map.images, name


def test_over_point_reduction_matches_bracket_rows():
    cases = {name: fixtures.all_morphisms()[name][:3] for name in
             ["point_module_spectator", "point_two_term", "point_uncancelled"]}
    cases.update(_inn_conjugation_twins())
    for name, (m, src, tgt) in cases.items():
        red = check_over_point_reduction(m, src, tgt)
        rows = check_bracket_conditions(m, src, tgt)
        assert [t for t, _ in red.detail] == [t for t, _ in rows.detail], name
        for (t, got), (_, want) in zip(red.detail, rows.detail):
            assert got.ok == want.ok and got.complete, (name, t)
        assert red.ok == rows.ok and red.witness == rows.witness, name


def test_anchor_condition_isolates_the_dropped_term():
    m, src, tgt, _ = fixtures.plane_to_line()
    assert check_anchor_condition(m, src, tgt).ok
    mb, src, tgt, _ = fixtures.plane_to_line_broken()
    assert not check_anchor_condition(mb, src, tgt).ok


def test_pullback_of_a_scaled_dual_generator_frozen():
    # along the tangent map of x -> x^2: y pulls back to x^2 and the dual
    # of f to 2x times the dual of e, so y * dual(f) goes to 2x^3 * dual(e)
    m, src, tgt, _ = fixtures.tangent_squaring()
    phi = build_phi(m)
    tgt_bundle = phi.target_bundle
    src_bundle = phi.source_bundle
    y = Polynomial.variable("y", ("y",))
    x = Polynomial.variable("x", ("x",))
    arg = SuperFunction.generator("f", tgt_bundle) * y
    want = SuperFunction.generator("e", src_bundle) * (x ** 3 * 2)
    assert phi.apply(arg) == want


def _random_superfunction(rng, bundle):
    """Sum of three terms: a random polynomial coefficient times up to two
    random generators."""
    total = SuperFunction.zero(bundle)
    labels = bundle.labels()
    coords = bundle.base_coordinates
    for _ in range(3):
        coeff = Polynomial.constant(rng.randint(-3, 3), coords)
        for c in coords:
            if rng.random() < 0.5:
                coeff = coeff * Polynomial.variable(c, coords)
        piece = SuperFunction.from_polynomial(coeff, bundle)
        for _ in range(rng.randint(0, min(2, len(labels)))):
            piece = piece * SuperFunction.generator(rng.choice(labels), bundle)
        total = total + piece
    return total


def test_algebra_morphism_is_multiplicative():
    m, src, tgt, _ = fixtures.plane_to_line()
    phi = build_phi(m)
    B = phi.target_bundle
    x = Polynomial.variable("x", ("x",))
    a = SuperFunction.generator("e1", B) * x + SuperFunction.generator("e2", B)
    b = SuperFunction.generator("e2", B) * (x + Polynomial.constant(2, ("x",)))
    assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)
    assert phi.apply(a + b) == phi.apply(a) + phi.apply(b)

    # seeded random pairs on every morphism fixture and both inn(gl(2))
    # conjugations, the perturbed one included
    cases = {name: entry[0] for name, entry in fixtures.all_morphisms().items()}
    cases.update({name: entry[0] for name, entry in _inn_conjugation_twins().items()})
    rng = random.Random(3)
    for name, morph in cases.items():
        phi = build_phi(morph)
        for _ in range(20):
            a = _random_superfunction(rng, phi.target_bundle)
            b = _random_superfunction(rng, phi.target_bundle)
            assert phi.apply(a * b) == phi.apply(a) * phi.apply(b), (name, str(a), str(b))


def test_component_word_length_tracks_the_filtration():
    # a second-order component shows up as a length-two word in the image
    m, src, tgt, _ = fixtures.point_two_term()
    phi = build_phi(m)
    img = phi.generator_images["C"]
    assert any(len(key) == 2 for key in img.terms)

    m1, src1, tgt1, _ = fixtures.identity_action_line()
    phi1 = build_phi(m1)
    for lab in ["e1", "e2"]:
        img1 = phi1.generator_images[lab]
        assert all(len(key) == 1 for key in img1.terms)


# ----- formal certificate for the printed over-point condition -----


def _rand_tables(rng, bundle, arity_range, component=False):
    labels = bundle.labels()
    by_mag = bundle.labels_by_magnitude
    max_mag = max(by_mag)
    out = {}
    for r in arity_range:
        table = {}
        for key in canonical_tuples(labels, r):
            canon, sign = normalize_tuple(key, bundle, symmetric=True)
            if sign == 0 or canon != key:
                continue
            total = sum(bundle.magnitude(l) for l in key)
            out_mag = total if component else total - 1
            if out_mag < 1 or out_mag > max_mag:
                continue
            targets = {}
            for lab in by_mag.get(out_mag, ()):
                v = rng.randint(-3, 3)
                if v:
                    targets[lab] = Polynomial.constant(v, ())
            if targets:
                table[key] = targets
        if table:
            out[r] = table
    return out


def _relabel(table, mapping, keys=False):
    out = {}
    for r, t in table.items():
        out[r] = {}
        for key, targets in t.items():
            nk = tuple(mapping[l] for l in key) if keys else key
            out[r][nk] = {mapping[lab]: v for lab, v in targets.items()}
    return out


def test_over_point_defect_is_a_signed_transport_of_the_general_one():
    # random brackets and components on depth-3 bundles over a point; no
    # validity is assumed, the relation between the two defect formulas is
    # formal and the sign depends only on the argument magnitudes
    rng = random.Random(7)
    src_b = GradedBundle((), {1: ["p", "q", "u"], 2: ["c"], 3: ["d"]})
    tgt_b = GradedBundle((), {1: ["P", "Q", "U"], 2: ["C"], 3: ["D"]})
    lab_map = {"p": "P", "q": "Q", "u": "U", "c": "C", "d": "D"}
    live = 0
    for trial in range(2):
        src = LieNAntialgebroid(src_b, _rand_tables(rng, src_b, range(1, 5)), {})
        tgt = LieNAntialgebroid(
            tgt_b, _relabel(_rand_tables(rng, src_b, range(1, 5)), lab_map, keys=True), {}
        )
        comps = _relabel(_rand_tables(rng, src_b, range(1, 4), component=True), lab_map)
        mor = MorphismData(src_b, tgt_b, BaseMap((), (), {}), comps)
        src_alg = transfer_to_algebra(src.brackets)
        tgt_alg = transfer_to_algebra(tgt.brackets)
        for t in range(1, 5):
            for key in canonical_tuples(src_b.labels(), t):
                canon, sign = normalize_tuple(key, src_b, symmetric=True)
                if sign == 0 or canon != key:
                    continue
                gd = _general_defect(mor, src, tgt, key)
                od = over_point_defect(mor, src_alg, tgt_alg, key)
                if not gd and not od:
                    continue
                assert set(gd) == set(od), key
                mags = [src_b.magnitude(l) for l in key]
                factor = bracket_transfer_sign(mags)
                for lab in gd:
                    assert od[lab] == gd[lab] * factor, (key, lab)
                live += 1
    assert live > 20, live


def test_live_binary_tuples_carry_transport_sign_one():
    # the magnitude profiles a canonical binary over-point condition can
    # hit (keys are kept in magnitude order) all have transport factor +1,
    # so the printed condition matches the unshifted one literally there
    for mags in [[1, 1], [1, 2]]:
        assert bracket_transfer_sign(mags) == 1, mags


def test_transport_sign_minus_one_on_a_live_depth_four_component():
    # n = 4 over a point: the arity-2 component on (c, c), c of magnitude 2,
    # has transport factor -1, so the printed condition must conjugate it.
    # The source bracket [c, c] = e is matched by d(phi_2(c, c)) = k E in the
    # target exactly when k = 1
    one = lambda v: Polynomial.constant(v, ())
    src_b = GradedBundle((), {1: ["p"], 2: ["c"], 3: ["e"], 4: ["f"]})
    tgt_b = GradedBundle((), {1: ["P"], 2: ["C"], 3: ["E"], 4: ["F"]})
    assert bracket_transfer_sign([2, 2]) == -1
    src = LieNAntialgebroid(src_b, {2: {("c", "c"): {"e": one(1)}}}, {})
    tgt = LieNAntialgebroid(tgt_b, {1: {("F",): {"E": one(1)}}}, {})
    verdicts = {}
    for k in (1, -1, 2):
        comps = {
            1: {("p",): {"P": one(1)}, ("c",): {"C": one(1)}, ("e",): {"E": one(1)}},
            2: {("c", "c"): {"F": one(k)}},
        }
        mor = MorphismData(src_b, tgt_b, BaseMap((), (), {}), comps)
        general = _defect_sweep(_general_defect, mor, src, tgt)
        red = check_over_point_reduction(mor, src, tgt)
        assert red.ok == (not any(general.values())), (k, red.witness, general)
        verdicts[k] = red.ok
    assert verdicts == {1: True, -1: False, 2: False}


# ----- the partition kernel against the printed ordered sum -----


def _compositions(total, parts):
    """Ordered tuples of positive integers with the given length and sum."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def _reference_composition_side(shape, morph, tgt_brackets, labels):
    """Composition side of one defect shape as printed: ordered
    compositions of the arguments, their shuffles and the 1/r! weight,
    already negated as it enters the defect.  tgt_brackets is the target
    bracket family on the side of the shape."""
    bundle = morph.source_bundle
    pull = morph.base_map.pullback
    if shape == "over_point":
        bundle = bundle.shifted()
    degs = [bundle.degree(lab) for lab in labels]

    def value(r, key):
        if shape != "over_point":
            return morph.value(key)
        canon, sign = normalize_tuple(key, bundle, symmetric=False)
        entry = morph.components.get(r, {}).get(canon, {})
        sign *= bracket_transfer_sign([bundle.magnitude(l) for l in canon])
        return {lab: poly * sign for lab, poly in entry.items()} if sign else {}

    out = {}

    def add(lab, poly):
        out[lab] = out[lab] + poly if lab in out else poly

    t = len(labels)
    for rnum in range(1, t + 1):
        w = Fraction(1, math.factorial(rnum))
        for parts in _compositions(t, rnum):
            if max(parts) > morph.n:
                continue
            for perm in shuffles(*parts):
                cuts = list(itertools.accumulate((0,) + parts))
                blocks = [tuple(labels[q] for q in perm[a:b])
                          for a, b in zip(cuts, cuts[1:])]
                if shape == "over_point":
                    sums = [sum(bundle.degree(l) for l in b) for b in blocks]
                    sign = chi_sign(perm, degs) * over_point_block_sign(
                        list(parts), sums)
                else:
                    sign = koszul_sign(perm, degs)
                values = [value(len(b), b) for b in blocks]
                for choice in itertools.product(*(v.items() for v in values)):
                    coeff = Polynomial.constant(sign * w, bundle.base_coordinates)
                    for _, f in choice:
                        coeff = coeff * f
                    val = tgt_brackets.value(tuple(z for z, _ in choice))
                    for lab, c in val.components.items():
                        add(lab, -(coeff * pull(c)))
    return out


def _check_against_reference(morph, source, target):
    """Every defect shape that applies equals its bracket and anchor rows
    (the defect against a bracketless, anchorless target) plus the printed
    composition side, on every canonical tuple of arity 1..n+1.  Returns
    the number of nonzero defects seen."""
    bare = LieNAntialgebroid(target.bundle, {}, {})
    shapes = {"general": (_general_defect, source, target, bare)}
    if not morph.source_bundle.base_coordinates:
        shapes["over_point"] = (over_point_defect,) + tuple(
            transfer_to_algebra(a.brackets) for a in (source, target, bare))
    live = 0
    for t in range(1, morph.n + 2):
        for key in canonical_tuples(morph.source_bundle.labels(), t):
            if normalize_tuple(key, morph.source_bundle, True)[1] == 0:
                continue
            for shape, (defect, src, tgt, bare) in shapes.items():
                got = defect(morph, src, tgt, key)
                rows = defect(morph, src, bare, key)
                brackets = tgt if shape == "over_point" else tgt.brackets
                ref = _reference_composition_side(shape, morph, brackets, key)
                for lab, poly in ref.items():
                    rows[lab] = rows[lab] + poly if lab in rows else poly
                want = {lab: p for lab, p in rows.items() if not p.is_zero()}
                assert got == want, (shape, key)
                live += bool(got)
    return live


def _inn_conjugation_twins(m=2):
    """The inn(gl(m)) conjugation of perfbench's families and its
    perturbed twin, as {name: (morph, source, target)}."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "perfbench"))
    import families
    from nqforge.io import morphism_from_dict

    return {case.name: morphism_from_dict(case.data)
            for case in families.with_twin(families.inn_conjugation, m, seed=1)}


def test_partition_sum_matches_printed_sum_on_fixtures_and_inn_twins():
    cases = {name: entry[:3] for name, entry in fixtures.all_morphisms().items()}
    cases.update(_inn_conjugation_twins())
    live = sum(_check_against_reference(*case) for case in cases.values())
    assert live == 20, live


def _random_poly(rng, coords):
    out = Polynomial.constant(rng.choice([-2, -1, 1, 2]), coords)
    for c in coords:
        out = out + Polynomial.variable(c, coords) * rng.randint(-2, 2)
    return out


def _random_entries(rng, bundle, arities, coords, component):
    """Random entries on canonical tuples: dense degree-preserving
    components, or sparse degree +1 brackets."""
    by_mag = bundle.labels_by_magnitude
    out = {}
    for r in arities:
        table = {}
        for key in canonical_tuples(bundle.labels(), r):
            if normalize_tuple(key, bundle, True)[1] == 0:
                continue
            mag = sum(bundle.magnitude(l) for l in key) - (not component)
            targets = {lab: _random_poly(rng, coords)
                       for lab in by_mag.get(mag, ())
                       if component or rng.random() < 0.6}
            if targets:
                table[key] = targets
        out[r] = table
    return out


def test_partition_sum_matches_printed_sum_on_random_data():
    # no validity is assumed: the two sums agree term by term on any
    # graded-symmetric brackets and degree-0 components, over a point, over
    # an anchored line, and along x -> x^2 + 1 of the line
    rng = random.Random(11)
    live = 0
    for n, coords, squaring in itertools.product(
        (2, 3), [(), ("x",)], (False, True)
    ):
        if squaring and not coords:
            continue
        frames = {1: ["p", "q", "u"][:n], 2: ["c"], 3: ["d"]}
        frames = {a: frames[a] for a in range(1, n + 1)}
        src_b = GradedBundle(coords, frames)
        tgt_b = GradedBundle(coords, {a: [l.upper() for l in v]
                                      for a, v in frames.items()})

        def structure(bundle):
            anchor = {lab: {c: _random_poly(rng, coords) for c in coords}
                      for lab in bundle.labels_by_magnitude[1]}
            tables = _random_entries(rng, bundle, range(1, n + 2), coords, False)
            return LieNAntialgebroid(bundle, tables, anchor)

        src, tgt = structure(src_b), structure(tgt_b)
        comps = _random_entries(rng, src_b, range(1, n + 1), coords, True)
        comps = {r: {k: {l.upper(): p for l, p in v.items()} for k, v in t.items()}
                 for r, t in comps.items()}
        images = {c: Polynomial.variable(c, coords) for c in coords}
        if squaring:
            images = {"x": images["x"] * images["x"] + Polynomial.constant(1, coords)}
        mor = MorphismData(src_b, tgt_b, BaseMap(coords, coords, images), comps)
        assert 3 in mor.components or n == 2
        live += _check_against_reference(mor, src, tgt)
        if coords and not squaring:
            # the anchored evaluation acts on two blocks even without a
            # binary bracket
            tables = {r: t for r, t in tgt.brackets.tables.items() if r != 2}
            anchored = LieNAntialgebroid(tgt_b, tables, tgt.anchor)
            live += _check_against_reference(mor, src, anchored)
    assert live > 50, live


# ----- table validation -----


_SRC_B = GradedBundle((), {1: ["p", "q"], 2: ["c"]})
_TGT_B = GradedBundle((), {1: ["A"], 2: ["B"]})

# each one bad component table on n = 2 bundles over a point
BAD_COMPONENTS = {
    "non-canonical key": {2: {("q", "p"): {"B": 1}}},
    "key vanishing by symmetry": {2: {("p", "p"): {"B": 1}}},
    "unknown target": {1: {("p",): {"Z": 1}}},
    "degree not preserved": {1: {("p",): {"B": 1}}},
    "arity 0": {0: {("p",): {"A": 1}}},
    "arity n+1": {3: {("p", "q", "c"): {"B": 1}}},
}


@pytest.mark.parametrize("case", sorted(BAD_COMPONENTS))
def test_morphism_data_rejects_bad_tables(case):
    comps = {
        r: {k: {lab: Polynomial.constant(v, ()) for lab, v in t.items()}
            for k, t in table.items()}
        for r, table in BAD_COMPONENTS[case].items()
    }
    with pytest.raises((ValueError, KeyError)):
        MorphismData(_SRC_B, _TGT_B, BaseMap((), (), {}), comps)


@pytest.mark.parametrize("case", sorted(BAD_COMPONENTS))
def test_bad_component_tables_exit_2(tmp_path, capsys, case):
    src = LieNAntialgebroid(_SRC_B, {}, {})
    tgt = LieNAntialgebroid(_TGT_B, {}, {})
    good = MorphismData(_SRC_B, _TGT_B, BaseMap((), (), {}), {})
    data = morphism_to_dict(good, src, tgt)
    data["components"] = {
        str(r): {",".join(k): {lab: str(v) for lab, v in t.items()}
                 for k, t in table.items()}
        for r, table in BAD_COMPONENTS[case].items()
    }
    with pytest.raises(StructureFileError):
        morphism_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check-morphism", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
