"""Word coalgebra laws on a three-generator bigraded space."""

import pytest

from nqforge.polyring import BaseMap, Polynomial
from nqforge.graded import GradedBundle
from nqforge.coalgebra import (
    Coderivation,
    Cohomomorphism,
    TensorPair,
    basis_words,
    check_coassociativity,
    check_coderivation_law,
    check_cohomomorphism_law,
    coproduct,
)
from nqforge.superalg import SuperFunction
from nqforge.linfty import verify_antialgebra
from nqforge.morphism import MorphismData
from nqforge import fixtures
from nqforge.signs import sign_pow

# the structure fixtures, small members of each benchmark family, and the
# perturbed twins of all of them
from test_residual_loop import STRUCTURES

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
    anti = fixtures.module_point()
    delta = Coderivation(anti.brackets)
    words = basis_words(anti.bundle, 4)
    rep = check_coderivation_law(delta, words)
    assert rep.ok, repr(rep)


def test_coderivation_law_holds_even_for_broken_brackets():
    # being a coderivation is about the coalgebra, not about Jacobi
    anti = fixtures.module_point_perturbed()
    delta = Coderivation(anti.brackets)
    rep = check_coderivation_law(delta, basis_words(anti.bundle, 4))
    assert rep.ok, repr(rep)


def test_cohomomorphism_law_with_two_slot_component():
    morph, src, tgt, _ = fixtures.point_two_term()
    sb = morph.source_bundle

    phi = Cohomomorphism(morph)
    rep = check_cohomomorphism_law(phi, basis_words(sb, 4))
    assert rep.ok, repr(rep)


def test_coderivation_square_detects_validity():
    good = fixtures.module_point()
    bad = fixtures.module_point_perturbed()
    for anti, expect_ok in [(good, True), (bad, False)]:
        delta = Coderivation(anti.brackets)
        ok = True
        for w in basis_words(anti.bundle, anti.bundle.n + 2):
            if not delta.apply(delta.apply(w)).is_zero():
                ok = False
                break
        assert ok == expect_ok


def test_coderivation_square_agrees_with_the_identity_sweep_on_families():
    # small members of each benchmark family with their perturbed twins,
    # two of which break the identities
    failing = []
    for name, anti in STRUCTURES:
        if name.split("_perturbed")[0] not in (
            "tangent_r3", "gl2_point", "gl2_action", "inn_gl2"
        ):
            continue
        rep = verify_antialgebra(anti.brackets, anchor=anti.anchor)
        delta = Coderivation(anti.brackets)
        square_zero = all(
            delta.apply(delta.apply(w)).is_zero()
            for w in basis_words(anti.bundle, anti.bundle.n + 2)
        )
        assert square_zero == rep.ok, name
        if not rep.ok:
            failing.append(name)
    assert failing == ["gl2_point_perturbed", "inn_gl2_perturbed"]


MORPHISMS = fixtures.all_morphisms()
SHARED_BASE = [
    name
    for name, (m, _, _, _) in MORPHISMS.items()
    if m.source_bundle.base_coordinates == m.target_bundle.base_coordinates
]


@pytest.mark.parametrize("name", SHARED_BASE)
def test_cohomomorphism_law_on_every_shared_base_morphism(name):
    # like the coderivation law, this is about the coalgebra, not about
    # the brackets: it holds for the broken morphisms too
    morph = MORPHISMS[name][0]
    rep = check_cohomomorphism_law(
        Cohomomorphism(morph), basis_words(morph.source_bundle, 4)
    )
    assert rep.ok, repr(rep)


def test_cohomomorphism_needs_a_shared_base_chart():
    different = [name for name in MORPHISMS if name not in SHARED_BASE]
    assert len(SHARED_BASE) == 8 and len(different) == 4
    for name in different:
        with pytest.raises(ValueError, match="shared base chart"):
            Cohomomorphism(MORPHISMS[name][0])


def test_cohomomorphism_law_needs_the_regrouping_sign():
    # three odd letters and a binary component: the partition {p, r}, {q}
    # regroups r past q, the only place the regrouping sign is -1 on
    # these words, which no morphism fixture reaches
    sb = GradedBundle((), {1: ["p", "q", "r"], 2: ["c"]}, side="E")
    tb = GradedBundle((), {1: ["A"], 2: ["B"]}, side="E")
    comps = {
        1: {(x,): {"A": ONE} for x in "pqr"},
        2: {pair: {"B": ONE} for pair in [("p", "q"), ("p", "r"), ("q", "r")]},
    }
    morph = MorphismData(sb, tb, BaseMap((), (), {}), comps)
    rep = check_cohomomorphism_law(Cohomomorphism(morph), basis_words(sb, 4))
    assert rep.ok, repr(rep)
