"""One test per acceptance criterion, every comparison exact.

Each function prints a single CRITERION line; pytest -v adds its own
pass/fail marker per criterion as well.  Time budgets are asserted, not
just hoped for.
"""

import itertools
import random
import time

from nqforge.polyring import Polynomial, BaseMap
from nqforge.graded import GradedBundle, canonical_tuples, normalize_tuple
from nqforge.superalg import check_homological
from nqforge.linfty import (
    apply_anchor,
    verify_algebra,
    verify_antialgebra,
)
from nqforge.algebroid import (
    LieNAntialgebroid,
    _as_antialgebroid,
    ce_differential,
    de_rham_compare,
    extract_algebroid,
    to_algebroid,
    to_antialgebroid,
)
from nqforge.coalgebra import (
    Coderivation,
    Cohomomorphism,
    basis_words,
    check_coassociativity,
    check_coderivation_law,
    check_cohomomorphism_law,
    coproduct,
)
from nqforge.derived import DerivedSetup
from nqforge.morphism import (
    MorphismData,
    _general_defect,
    check_over_point_reduction,
    over_point_defect,
    verify_morphism,
)
from nqforge.signs import bracket_transfer_sign, derived_to_symmetric_sign, sign_pow
from nqforge import fixtures


class _Stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _line(number, title, ok, seconds):
    verdict = "PASS" if ok else "FAIL"
    print("CRITERION %d: %s  %s (%.2fs)" % (number, verdict, title, seconds))
    assert ok, "criterion %d failed: %s" % (number, title)


def _all_named():
    out = list(fixtures.all_structures().items())
    out += [(k + "_perturbed", v) for k, v in fixtures.perturbed_structures().items()]
    return out


def test_criterion_01_differential_squares_to_zero():
    ok = True
    with _Stopwatch(30) as sw:
        for name, algd in fixtures.all_structures().items():
            t0 = time.perf_counter()
            rep = check_homological(ce_differential(algd))
            ok = ok and rep.ok and rep.witness is None
            assert time.perf_counter() - t0 < 10, name
    _line(1, "squared field vanishes on every valid fixture", ok, sw.elapsed)


def test_criterion_02_structure_field_bijection():
    ok = True
    with _Stopwatch(60) as sw:
        for name, algd in _all_named():
            q = ce_differential(algd)
            back = extract_algebroid(q.bundle, q)
            ok = ok and back.brackets.tables == algd.brackets.tables
            ok = ok and back.anchor == algd.anchor
            again = ce_differential(back)
            ok = ok and again.images == q.images
    _line(2, "brackets to field and back, both directions exact", ok, sw.elapsed)


def test_criterion_03_derived_brackets_match_tables():
    ok = True
    with _Stopwatch(30) as sw:
        for r in range(1, 5):
            ok = ok and derived_to_symmetric_sign(r) == sign_pow(r)
        for name, algd in _all_named():
            anti = to_antialgebroid(algd)
            ds = DerivedSetup(anti.bundle, ce_differential(algd))
            n = anti.bundle.n
            labels = anti.bundle.labels()
            for r in range(1, n + 2):
                sign = derived_to_symmetric_sign(r)
                for key in canonical_tuples(labels, r):
                    canon, s = normalize_tuple(key, anti.bundle, symmetric=True)
                    if s == 0 or canon != key:
                        continue
                    secs = [anti.bundle.frame_section(l) for l in key]
                    got = ds.bracket(secs)
                    want = anti.brackets.value(key).scale(sign)
                    ok = ok and got == want
            if labels:
                deep = [anti.bundle.frame_section(labels[0])] * (n + 2)
                ok = ok and ds.bracket(deep).is_zero()
    assert sw.elapsed < 30
    _line(3, "nested-commutator brackets equal the tables up to the arity sign",
          ok, sw.elapsed)


def test_criterion_04_identities_equal_coderivation_square():
    ok = True
    genuine_failures = 0
    with _Stopwatch(30) as sw:
        for name, algd in _all_named():
            anti = to_antialgebroid(algd)
            rep = verify_antialgebra(anti.brackets, anchor=anti.anchor)
            delta = Coderivation(anti.brackets)
            words = basis_words(anti.bundle, anti.bundle.n + 2)
            square_zero = all(
                delta.apply(delta.apply(w)).is_zero() for w in words
            )
            ok = ok and rep.ok == square_zero
            if not rep.ok:
                genuine_failures += 1
    ok = ok and genuine_failures >= 2
    assert sw.elapsed < 30
    _line(4, "identity sweep agrees with the squared coderivation on words",
          ok, sw.elapsed)


def test_criterion_05_transfer_equivalence():
    ok = True
    with _Stopwatch(10) as sw:
        names = [n for n, _ in _all_named()]
        ok = ok and "module_point" in names  # the two-term algebra-module pair
        for name, algd in _all_named():
            anti = to_antialgebroid(algd)
            back = to_algebroid(anti)
            ok = ok and back.brackets.tables == algd.brackets.tables
            ok = ok and back.anchor == algd.anchor
            sym = verify_antialgebra(anti.brackets, anchor=anti.anchor)
            antisym = verify_algebra(algd.brackets, anchor=algd.anchor)
            ok = ok and sym.ok == antisym.ok
    assert sw.elapsed < 10
    _line(5, "degree shift transfers structures faithfully in both directions",
          ok, sw.elapsed)


def test_criterion_06_anchor_consequences_as_operators():
    ok = True
    with _Stopwatch(30) as sw:
        # depth >= 2: the anchor annihilates every unary bracket image,
        # checked as the operator f -> sum coeff * rho(image)(f)
        for name in ["two_term", "jacobiator_point", "module_point"]:
            algd = fixtures.all_structures()[name]
            anti = to_antialgebroid(algd)
            coords = anti.bundle.base_coordinates
            for key, targets in anti.brackets.tables.get(1, {}).items():
                for c in coords:
                    mono = Polynomial.variable(c, coords)
                    acc = Polynomial.zero(coords)
                    for lab, coeff in targets.items():
                        acc = acc + coeff * apply_anchor(anti.anchor, lab, mono)
                    ok = ok and acc.is_zero()
        # the perturbed two-term pair violates exactly this
        bad = to_antialgebroid(fixtures.two_term_perturbed())
        t = Polynomial.variable("t", ("t",))
        viol = Polynomial.zero(("t",))
        for lab, coeff in bad.brackets.tables[1][("b",)].items():
            viol = viol + coeff * apply_anchor(bad.anchor, lab, t)
        ok = ok and not viol.is_zero()

        # depth 1: anchor of the binary bracket equals the commutator of
        # anchors, as operators on the monomial basis of degree <= 2
        for name in ["tangent_plane", "action_line"]:
            algd = fixtures.all_structures()[name]
            anti = to_antialgebroid(algd)
            coords = anti.bundle.base_coordinates
            monos = [Polynomial.constant(1, coords)]
            singles = [Polynomial.variable(c, coords) for c in coords]
            monos += singles
            monos += [a * b for a, b in
                      itertools.combinations_with_replacement(singles, 2)]
            labels = anti.bundle.labels()
            for l1, l2 in itertools.combinations(labels, 2):
                X1 = anti.bundle.frame_section(l1)
                X2 = anti.bundle.frame_section(l2)
                br = anti.brackets.evaluate([X1, X2], anti.anchor)
                for f in monos:
                    lhs = Polynomial.zero(coords)
                    for lab, coeff in br.components.items():
                        lhs = lhs + coeff * apply_anchor(anti.anchor, lab, f)
                    rhs = apply_anchor(
                        anti.anchor, l1, apply_anchor(anti.anchor, l2, f)
                    ) - apply_anchor(
                        anti.anchor, l2, apply_anchor(anti.anchor, l1, f)
                    )
                    ok = ok and lhs == rhs
    assert sw.elapsed < 30
    _line(6, "anchor kills unary images and intertwines binary brackets",
          ok, sw.elapsed)


def test_criterion_07_de_rham_routes_exact():
    ok = True
    with _Stopwatch(30) as sw:
        for name in ["tangent_plane", "action_line"]:
            rep = de_rham_compare(fixtures.all_structures()[name])
            ok = ok and rep.ok and rep.witness is None
            # the transported route equals the shifted formula exactly and
            # runs opposite to the textbook normalization, which is recorded
            ok = ok and rep.detail == "opposite"
    assert sw.elapsed < 30
    _line(7, "transported differential matches the shifted formula exactly",
          ok, sw.elapsed)


def test_criterion_08_morphism_theorem():
    named = [
        "identity_tangent_plane",
        "tangent_squaring",
        "rescale_two_term",
        "point_two_term",
        "tangent_squaring_broken",
    ]
    ok = True
    with _Stopwatch(60) as sw:
        table = fixtures.all_morphisms()
        for name in named:
            ok = ok and name in table
        for name, entry in table.items():
            m, src, tgt, expected = entry
            rep = verify_morphism(m, src, tgt)
            ok = ok and rep.ok == expected
            ok = ok and dict(rep.detail)["formulations agree"].ok
    assert sw.elapsed < 60
    _line(8, "geometric and differential morphism conditions coincide",
          ok, sw.elapsed)


def _rand_tables(rng, bundle, arity_range, component=False):
    by_mag = bundle.labels_by_magnitude
    max_mag = max(by_mag)
    out = {}
    for r in arity_range:
        table = {}
        for key in canonical_tuples(bundle.labels(), r):
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


def _general_shape_passes(morph, source, target):
    """Verdict of the general-shape bracket condition over arity 1..n+1."""
    src = _as_antialgebroid(source)
    tgt = _as_antialgebroid(target)
    bundle = morph.source_bundle
    return not any(
        _general_defect(morph, src, tgt, key)
        for t in range(1, morph.n + 2)
        for key in canonical_tuples(bundle.labels(), t)
        if normalize_tuple(key, bundle, symmetric=True)[1] != 0
    )


def test_criterion_09_over_point_reduction():
    ok = True
    with _Stopwatch(30) as sw:
        # verdict equality on the concrete over-point morphisms
        for name in ["point_module_spectator", "point_two_term", "point_uncancelled"]:
            m, src, tgt, _ = fixtures.all_morphisms()[name]
            red = check_over_point_reduction(m, src, tgt)
            ok = ok and red.ok == _general_shape_passes(m, src, tgt)

        # formal residual coincidence with random data: the printed
        # reduction equals the general defect times a magnitude sign,
        # literally equal on the magnitude profiles a binary check hits
        rng = random.Random(7)
        src_b = GradedBundle((), {1: ["p", "q", "u"], 2: ["c"], 3: ["d"]})
        tgt_b = GradedBundle((), {1: ["P", "Q", "U"], 2: ["C"], 3: ["D"]})
        lab_map = {"p": "P", "q": "Q", "u": "U", "c": "C", "d": "D"}
        src = LieNAntialgebroid(src_b, _rand_tables(rng, src_b, range(1, 5)), {})
        tgt = LieNAntialgebroid(
            tgt_b,
            _relabel(_rand_tables(rng, src_b, range(1, 5)), lab_map, keys=True),
            {},
        )
        comps = _relabel(
            _rand_tables(rng, src_b, range(1, 4), component=True), lab_map
        )
        mor = MorphismData(src_b, tgt_b, BaseMap((), (), {}), comps)
        src_anti = _as_antialgebroid(src)
        tgt_anti = _as_antialgebroid(tgt)
        live = 0
        for t in range(1, 5):
            for key in canonical_tuples(src_b.labels(), t):
                canon, s = normalize_tuple(key, src_b, symmetric=True)
                if s == 0 or canon != key:
                    continue
                gd = _general_defect(mor, src_anti, tgt_anti, key)
                od = over_point_defect(mor, src, tgt, key)
                if not gd and not od:
                    continue
                live += 1
                ok = ok and set(gd) == set(od)
                mags = [src_b.magnitude(l) for l in key]
                factor = bracket_transfer_sign(mags)
                for lab in gd:
                    ok = ok and od[lab] == gd[lab] * factor
                if tuple(mags) in ((1, 1), (1, 2)):
                    for lab in gd:
                        ok = ok and od[lab] == gd[lab]
        ok = ok and live > 10
    assert sw.elapsed < 30
    _line(9, "over-point reduction is the general condition up to one sign",
          ok, sw.elapsed)


def test_criterion_10_coalgebra_laws():
    ok = True
    with _Stopwatch(10) as sw:
        B = GradedBundle((), {1: ["u", "v"], 2: ["w"]}, side="E")
        words = basis_words(B, 4)
        ok = ok and check_coassociativity(B, words).ok

        # counit: the no-generator components of the coproduct reproduce
        # the word on the other side
        for w in words:
            pair = coproduct(w)
            left_unit = {rk: c for (lk, rk), c in pair.terms.items() if lk == ()}
            right_unit = {lk: c for (lk, rk), c in pair.terms.items() if rk == ()}
            ok = ok and left_unit == w.terms
            ok = ok and right_unit == w.terms

        anti = to_antialgebroid(fixtures.module_point())
        delta = Coderivation(anti.brackets)
        ok = ok and check_coderivation_law(
            delta, basis_words(anti.bundle, 4)
        ).ok

        morph, src, tgt, _ = fixtures.point_two_term()
        sb = morph.source_bundle

        phi = Cohomomorphism(morph)
        ok = ok and check_cohomomorphism_law(phi, basis_words(sb, 4)).ok
    assert sw.elapsed < 10
    _line(10, "word coalgebra laws hold on length-four words", ok, sw.elapsed)
