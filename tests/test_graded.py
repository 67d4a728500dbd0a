import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from nqforge.polyring import Polynomial
from nqforge.graded import (
    GradedBundle,
    Section,
    canonical_tuples,
    normalize_tuple,
    set_partitions,
    shuffles,
)
from nqforge import signs


def bundle2(side="E"):
    return GradedBundle(("x",), {1: ["u", "v"], 2: ["h"]}, side=side)


# ----- bundles -----


def test_bundle_basic():
    b = bundle2()
    assert b.n == 2
    assert b.labels() == ["u", "v", "h"]
    assert b.magnitude("h") == 2


def test_bundle_degrees_by_side():
    b = bundle2("E")
    assert b.degree("u") == -1
    assert b.degree("h") == -2
    s = bundle2("sE")
    assert s.degree("u") == 0
    assert s.degree("h") == -1


def test_bundle_empty_frames():
    b = GradedBundle((), {}, side="E")
    assert b.n == 0
    assert b.labels() == []


def test_bundle_rejects_gaps():
    with pytest.raises(ValueError):
        GradedBundle(("x",), {2: ["h"]})
    with pytest.raises(ValueError):
        GradedBundle(("x",), {1: ["u"], 3: ["w"]})


def test_bundle_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        GradedBundle(("x",), {1: ["u", "u"]})
    with pytest.raises(ValueError):
        GradedBundle(("x",), {1: ["u"], 2: ["u"]})


def test_shifted_is_involutive():
    b = bundle2("E")
    assert b.shifted().side == "sE"
    assert b.shifted().shifted().side == "E"
    assert b.same_frames(b.shifted())


# ----- sections -----


def test_section_algebra():
    b = bundle2()
    x = Polynomial.variable("x", b.base_coordinates)
    u = b.frame_section("u")
    v = b.frame_section("v")
    s = u.scale(x) + v
    assert s.coefficient("u") == x
    assert (s - s).is_zero()
    assert s.degree() == -1


def test_section_mixed_degree():
    b = bundle2()
    s = b.frame_section("u") + b.frame_section("h")
    assert s.degrees() == [-2, -1]
    with pytest.raises(ValueError):
        s.degree()


def test_section_rejects_unknown_frame():
    b = bundle2()
    with pytest.raises(KeyError):
        Section(b, {"zz": Polynomial.constant(1, b.base_coordinates)})


# ----- shuffles and tuples -----


def test_shuffles_frozen_small():
    assert shuffles(1, 1) == [(0, 1), (1, 0)]
    assert shuffles(2, 0) == [(0, 1)]
    assert shuffles(0, 2) == [(0, 1)]
    assert shuffles(2, 1) == [(0, 1, 2), (0, 2, 1), (1, 2, 0)]


def test_shuffles_variadic():
    got = shuffles(1, 1, 1)
    assert len(got) == 6
    assert got[0] == (0, 1, 2)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_shuffles_are_block_increasing(sizes):
    total = sum(sizes)
    if total > 6:
        return
    seen = set()
    for perm in shuffles(*sizes):
        assert sorted(perm) == list(range(total))
        pos = 0
        for size in sizes:
            block = perm[pos:pos + size]
            assert list(block) == sorted(block)
            pos += size
        seen.add(perm)
    expected = math.factorial(total)
    for size in sizes:
        expected //= math.factorial(size)
    assert len(seen) == expected


def test_set_partitions_each_once_in_canonical_form():
    for k, bell in enumerate([1, 1, 2, 5, 15, 52]):
        items = "abcdef"[:k]
        parts = list(set_partitions(items))
        assert len(parts) == bell, k
        # each unordered partition exactly once
        assert len({frozenset(map(tuple, p)) for p in parts}) == bell
        for p in parts:
            assert sorted(x for b in p for x in b) == list(items)
            # blocks keep input order and are listed by their first element
            assert all(list(b) == sorted(b) for b in p)
            assert [b[0] for b in p] == sorted(b[0] for b in p)


def test_canonical_tuples():
    labs = ["u", "v"]
    assert canonical_tuples(labs, 1) == [("u",), ("v",)]
    assert canonical_tuples(labs, 2) == [("u", "u"), ("u", "v"), ("v", "v")]


def test_normalize_tuple_symmetric():
    b = bundle2("E")
    canon, sign = normalize_tuple(("v", "u"), b, symmetric=True)
    assert canon == ("u", "v")
    assert sign == -1  # both odd on the unshifted side
    canon, sign = normalize_tuple(("u", "u"), b, symmetric=True)
    assert sign == 0  # odd square dies symmetrically
    canon, sign = normalize_tuple(("h", "h"), b, symmetric=True)
    assert sign == 1  # even square survives


def test_normalize_tuple_antisymmetric():
    s = bundle2("sE")
    canon, sign = normalize_tuple(("v", "u"), s, symmetric=False)
    assert canon == ("u", "v")
    assert sign == -1  # signature only, entries have degree 0
    canon, sign = normalize_tuple(("u", "u"), s, symmetric=False)
    assert sign == 0
    canon, sign = normalize_tuple(("h", "h"), s, symmetric=False)
    assert sign == 1  # odd on the shifted side, antisymmetric repeat survives


# ----- one check per sign convention -----


def test_sign_pow():
    assert signs.sign_pow(0) == 1
    assert signs.sign_pow(3) == -1
    assert signs.sign_pow(-1) == -1
    assert isinstance(signs.sign_pow(-2), int)


def _inversion_sign(keys, degrees, symmetric):
    # product over inverted pairs of (-1)^(ab), negated when antisymmetric
    sign = 1
    for i, j in itertools.combinations(range(len(keys)), 2):
        if keys[i] > keys[j]:
            sign *= signs.sign_pow(degrees[i] * degrees[j] + (not symmetric))
    return sign


def test_sort_sign_matches_inversion_product():
    for r in range(6):
        for perm in itertools.permutations(range(r)):
            for parities in itertools.product((0, 1), repeat=r):
                # odd entries get degree -1, even ones degree 2
                degrees = [-1 if odd else 2 for odd in parities]
                items = list(zip(perm, degrees))
                for symmetric in (True, False):
                    got, sign = signs.sort_sign(
                        items, lambda it: it[0], lambda it: it[1], symmetric
                    )
                    assert got == sorted(items), (perm, parities)
                    assert sign == _inversion_sign(perm, degrees, symmetric), (
                        perm, parities, symmetric
                    )
                # the wrappers index degrees by source entry
                by_source = [0] * r
                for slot, source in enumerate(perm):
                    by_source[source] = degrees[slot]
                assert signs.koszul_sign(perm, by_source) == _inversion_sign(
                    perm, degrees, True
                )
                assert signs.chi_sign(perm, by_source) == _inversion_sign(
                    perm, degrees, False
                )
            assert signs.perm_sign(perm) == _inversion_sign(perm, [0] * r, False)


def test_sort_sign_is_stable_and_never_swaps_equal_keys():
    items = [(1, "a"), (0, "b"), (1, "c"), (0, "d")]
    got, sign = signs.sort_sign(items, lambda it: it[0], lambda it: 1)
    assert got == [(0, "b"), (0, "d"), (1, "a"), (1, "c")]
    # three inverted pairs of odd entries; the equal-key pairs cost nothing
    assert sign == -1


def test_perm_sign():
    assert signs.perm_sign((0, 1, 2)) == 1
    assert signs.perm_sign((1, 0, 2)) == -1
    assert signs.perm_sign((2, 0, 1)) == 1


def test_koszul_sign():
    # swapping two odd entries costs a sign, odd past even costs none
    assert signs.koszul_sign((1, 0), [1, 1]) == -1
    assert signs.koszul_sign((1, 0), [1, 2]) == 1
    assert signs.koszul_sign((1, 0), [2, 2]) == 1


def test_koszul_sign_composes():
    degs = [1, 2, 1]
    for p in itertools.permutations(range(3)):
        back = tuple(list(p).index(i) for i in range(3))
        assert (
            signs.koszul_sign(p, degs)
            * signs.koszul_sign(back, [degs[i] for i in p])
            == 1
        )


def test_chi_sign():
    assert signs.chi_sign((1, 0), [1, 1]) == 1
    assert signs.chi_sign((1, 0), [0, 0]) == -1


def test_suspension_power_sign():
    assert [signs.suspension_power_sign(i) for i in range(5)] == [1, 1, -1, -1, 1]


def test_suspend_tuple_sign():
    # exponent sum_j (i - j) * degree_j, 1-based
    assert signs.suspend_tuple_sign([1, 1]) == -1  # (2-1)*1
    assert signs.suspend_tuple_sign([0, 1]) == 1
    assert signs.suspend_tuple_sign([1, 1, 1]) == -1  # 2+1
    assert signs.suspend_tuple_sign([]) == 1


def test_bracket_transfer_sign():
    assert signs.bracket_transfer_sign([1]) == 1
    assert signs.bracket_transfer_sign([1, 1]) == 1  # 1 + 1
    assert signs.bracket_transfer_sign([1, 2]) == 1
    assert signs.bracket_transfer_sign([2, 2]) == -1  # 1 + 2
    assert signs.bracket_transfer_sign([1, 1, 1]) == 1  # 3 + 3
    assert signs.bracket_transfer_sign([1, 1, 2]) == 1


def test_evaluation_sign():
    # exponent sum a_j + sum_{m<j} a_m a_j
    assert signs.evaluation_sign([1]) == -1
    assert signs.evaluation_sign([2]) == 1
    assert signs.evaluation_sign([1, 1]) == -1  # 2 + 1
    assert signs.evaluation_sign([1, 2]) == -1  # 3 + 2
    assert signs.evaluation_sign([2, 2]) == 1  # 4 + 4


def test_interior_pairing_sign():
    assert signs.interior_pairing_sign(1) == -1
    assert signs.interior_pairing_sign(2) == 1


def test_ce_prefactor():
    assert signs.ce_prefactor(1) == -1
    assert signs.ce_prefactor(2) == 1


def test_rho_wedge_term_sign():
    assert signs.rho_wedge_term_sign(1, 1) == -1
    assert signs.rho_wedge_term_sign(2, 1) == 1
    assert signs.rho_wedge_term_sign(1, 2) == 1


def test_shifted_ce_sign():
    # exponent (r - s + 1)(s - 1)
    assert signs.shifted_ce_sign(2, 1) == 1
    assert signs.shifted_ce_sign(3, 2) == 1
    assert signs.shifted_ce_sign(2, 2) == -1


def test_algebra_identity_sign():
    # exponent i(j - 1)
    assert signs.algebra_identity_sign(1, 2) == -1
    assert signs.algebra_identity_sign(2, 2) == 1
    assert signs.algebra_identity_sign(2, 1) == 1


def test_derived_to_symmetric_sign():
    assert signs.derived_to_symmetric_sign(1) == -1
    assert signs.derived_to_symmetric_sign(2) == 1


def test_morphism_second_row_sign():
    # exponent a_i * (a_1 + ... + a_{i-1}) + 1
    assert signs.morphism_second_row_sign([1, 1], 0) == -1
    assert signs.morphism_second_row_sign([1, 1], 1) == 1
    assert signs.morphism_second_row_sign([2, 1], 1) == -1


def test_over_point_block_sign():
    # exponent r(r-1)/2 + sum t_j (r - j) + sum |Y_j| (r - j + tail_j)
    assert signs.over_point_block_sign([1], [0]) == 1
    assert signs.over_point_block_sign([1], [1]) == 1  # every piece weighted 0
    assert signs.over_point_block_sign([1, 1], [0, 0]) == 1  # 1 + 1
    assert signs.over_point_block_sign([2, 1], [0, 0]) == -1  # 1 + 2
    assert signs.over_point_block_sign([1, 2], [1, 0]) == -1  # 1 + 1 + 1*(1 + 2)
