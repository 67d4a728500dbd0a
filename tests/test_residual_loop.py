"""The one homotopy residual loop against a test-local oracle.

The oracle functions below are the earlier two loops, one per symmetry:
the symmetric one read each section's degree off the section, the
antisymmetric one signed every shuffle before evaluating it.  The merged
loop must give the same residual, down to its repr and the order of its
components, at every canonical tuple of arity 1..n+2, with anchors, on
both sides of the degree shift; and the linearity route must give the same
outcome whichever loop it calls.  Inputs: the structure fixtures, small
members of the benchmark families, and the perturbed twins of all of them.
"""

import os
import pathlib
import sys

import pytest

from nqforge import algebroid, fixtures
from nqforge import io as structio
from nqforge.algebroid import residual_linearity
from nqforge.graded import canonical_tuples, shuffles
from nqforge.linfty import (
    homotopy_residual_antisymmetric,
    homotopy_residual_symmetric,
    transfer_to_algebra,
)
from nqforge.signs import algebra_identity_sign, chi_sign, koszul_sign

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import families  # noqa: E402


# ----- the oracle: one loop per symmetry -----


def oracle_on_sections(struct, sections, anchor=None):
    bundle = struct.bundle
    t = len(sections)
    degs = [sec.degree() for sec in sections]
    total = bundle.zero_section()
    for i in range(1, t + 1):
        for perm in shuffles(i, t - i):
            inner = struct.evaluate([sections[p] for p in perm[:i]], anchor)
            if inner.is_zero():
                continue
            outer = struct.evaluate(
                [inner] + [sections[p] for p in perm[i:]], anchor
            )
            if not outer.is_zero():
                total = total + outer.scale(koszul_sign(perm, degs))
    return total


def oracle_antisymmetric(struct, labels, anchor=None):
    bundle = struct.bundle
    t = len(labels)
    degs = [bundle.degree(lab) for lab in labels]
    frames = [bundle.frame_section(lab) for lab in labels]
    total = bundle.zero_section()
    for i in range(1, t + 1):
        j = t + 1 - i
        w = algebra_identity_sign(i, j)
        for perm in shuffles(i, t - i):
            chi = chi_sign(perm, degs)
            inner = struct.evaluate([frames[p] for p in perm[:i]], anchor)
            if inner.is_zero():
                continue
            outer = struct.evaluate(
                [inner] + [frames[p] for p in perm[i:]], anchor
            )
            if not outer.is_zero():
                total = total + outer.scale(w * chi)
    return total


def oracle_symmetric(struct, labels, anchor=None):
    frames = [struct.bundle.frame_section(lab) for lab in labels]
    return oracle_on_sections(struct, frames, anchor)


# ----- inputs -----


def _structures():
    for name, struct in fixtures.all_structures().items():
        yield name, struct
    for name, struct in fixtures.perturbed_structures().items():
        yield name + "_perturbed", struct
    for builder, size in [
        (families.tangent, 3),
        (families.gl_point, 2),
        (families.gl_action, 2),
        (families.inn, 2),
    ]:
        for case in families.with_twin(builder, size):
            yield case.name, structio.structure_from_dict(case.data)[0]


STRUCTURES = list(_structures())


def _same(got, want):
    return repr(got) == repr(want) and list(got.components) == list(
        want.components
    )


@pytest.mark.parametrize(
    "anti", [s for _, s in STRUCTURES], ids=[n for n, _ in STRUCTURES]
)
def test_merged_loop_matches_both_oracles(anti):
    alg = transfer_to_algebra(anti.brackets)
    labels = anti.bundle.labels()
    for t in range(1, anti.n + 3):
        for key in canonical_tuples(labels, t):
            got = homotopy_residual_symmetric(anti.brackets, key, anti.anchor)
            want = oracle_symmetric(anti.brackets, key, anti.anchor)
            assert _same(got, want), ("symmetric", key)
            got = homotopy_residual_antisymmetric(alg, key, anti.anchor)
            want = oracle_antisymmetric(alg, key, anti.anchor)
            assert _same(got, want), ("antisymmetric", key)


@pytest.mark.parametrize(
    "anti", [s for _, s in STRUCTURES], ids=[n for n, _ in STRUCTURES]
)
def test_linearity_outcome_matches_the_oracle(anti, monkeypatch):
    got = residual_linearity(anti)

    def oracle(struct, labels, sections, anchor):
        return oracle_on_sections(struct, sections, anchor)

    monkeypatch.setattr(algebroid, "homotopy_residual_on_sections", oracle)
    want = residual_linearity(anti)
    assert repr(got) == repr(want)
    assert (got.ok, got.witness) == (want.ok, want.witness)


def test_inputs_reach_nonzero_residuals():
    assert len(STRUCTURES) == 18
    total = nonzero = 0
    for _, anti in STRUCTURES:
        alg = transfer_to_algebra(anti.brackets)
        for t in range(1, anti.n + 3):
            for key in canonical_tuples(anti.bundle.labels(), t):
                for res in (
                    oracle_symmetric(anti.brackets, key, anti.anchor),
                    oracle_antisymmetric(alg, key, anti.anchor),
                ):
                    total += 1
                    nonzero += not res.is_zero()
    assert (total, nonzero) == (2864, 56)
