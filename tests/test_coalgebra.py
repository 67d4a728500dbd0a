"""Word coalgebra laws on a three-generator bigraded space."""

from nqforge.polyring import Polynomial
from nqforge.graded import GradedBundle
from nqforge.coalgebra import (
    Cohomomorphism,
    MultilinearMap,
    TensorPair,
    check_coassociativity,
    check_coderivation_law,
    check_cohomomorphism_law,
    coproduct,
)
from nqforge.linfty import antialgebra_coderivation, basis_words
from nqforge.superalg import SuperFunction
from nqforge.algebroid import to_antialgebroid
from nqforge import fixtures
from nqforge.signs import sign_pow

B = GradedBundle((), {1: ["u", "v"], 2: ["w"]}, side="E")
ONE = Polynomial.constant(1, ())


def word(*labels):
    return SuperFunction(B, {tuple(labels): ONE})


def test_word_normal_order():
    assert word("v", "u") == -word("u", "v")
    assert word("u", "u").is_zero()
    assert not word("w", "w").is_zero()
    assert word("w", "u") == word("u", "w")


def test_word_product_matches_concatenation():
    assert word("u") * word("v") == word("u", "v")
    assert word("v") * word("u") == -word("u", "v")
    assert (word("u", "v") * word("u")).is_zero()


def test_coproduct_counts_and_counit():
    w = word("u", "v", "w")
    split = coproduct(w)
    # 2^3 shuffle splittings of a square-free word
    assert sum(1 for _ in split.terms) == 8
    # counit: the empty-left and empty-right components reproduce the word
    left_unit = {rk: c for (lk, rk), c in split.terms.items() if lk == ()}
    right_unit = {lk: c for (lk, rk), c in split.terms.items() if rk == ()}
    assert left_unit == w.terms
    assert right_unit == w.terms


def test_coproduct_cocommutative():
    for w in basis_words(B, 4):
        split = coproduct(w)
        twisted = TensorPair(B, B)
        for (lk, rk), c in split.terms.items():
            ldeg = sum(B.degree(lab) for lab in lk)
            rdeg = sum(B.degree(lab) for lab in rk)
            twisted.add_term(rk, lk, c * sign_pow(ldeg * rdeg))
        assert twisted == split


def test_coassociativity_words_up_to_4():
    rep = check_coassociativity(B, basis_words(B, 4))
    assert rep.ok, repr(rep)


def test_coderivation_law_words_up_to_4():
    anti = to_antialgebroid(fixtures.module_point())
    delta = antialgebra_coderivation(anti.brackets)
    words = basis_words(anti.bundle, 4)
    rep = check_coderivation_law(delta, words)
    assert rep.ok, repr(rep)


def test_coderivation_law_holds_even_for_broken_brackets():
    # being a coderivation is about the coalgebra, not about Jacobi
    anti = to_antialgebroid(fixtures.module_point_perturbed())
    delta = antialgebra_coderivation(anti.brackets)
    rep = check_coderivation_law(delta, basis_words(anti.bundle, 4))
    assert rep.ok, repr(rep)


def test_cohomomorphism_law_with_two_slot_component():
    morph, src, tgt, _ = fixtures.point_two_term()
    sb = morph.source_bundle
    tb = morph.target_bundle

    def level(r):
        def fn(labels):
            table = morph.value(r, labels)
            return SuperFunction(tb, {(lab,): p for lab, p in table.items()})

        return MultilinearMap(sb, tb, r, 0, fn)

    phi = Cohomomorphism(sb, tb, {1: level(1), 2: level(2)})
    rep = check_cohomomorphism_law(phi, basis_words(sb, 4))
    assert rep.ok, repr(rep)


def test_coderivation_square_detects_validity():
    good = to_antialgebroid(fixtures.module_point())
    bad = to_antialgebroid(fixtures.module_point_perturbed())
    for anti, expect_ok in [(good, True), (bad, False)]:
        delta = antialgebra_coderivation(anti.brackets)
        ok = True
        for w in basis_words(anti.bundle, anti.bundle.n + 2):
            if not delta.apply(delta.apply(w)).is_zero():
                ok = False
                break
        assert ok == expect_ok
