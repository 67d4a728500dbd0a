"""The four conversions against a test-local oracle.

ce_differential, extract_algebroid, build_phi and extract_morphism read
and write sparse tables entry by entry.  The oracle functions below are
the earlier implementations, which instead walked every canonical frame
tuple of every arity for every target label; both must give exactly the
same images and tables on every fixture file, on the small members of the
benchmark families and their perturbed twins, and on an n = 4 structure
where a repeated even frame pairs with its monomial to 2, not 1.
"""

import os
import pathlib
import sys

import pytest

from nqforge.polyring import BaseMap, Polynomial
from nqforge.graded import GradedBundle, canonical_tuples, normalize_tuple
from nqforge.signs import ce_prefactor
from nqforge.superalg import (
    Derivation,
    SuperFunction,
    element_from_values,
    evaluate_element,
)
from nqforge.linfty import AntialgebraStructure
from nqforge.algebroid import (
    LieNAntialgebroid,
    _as_antialgebroid,
    ce_differential,
    extract_algebroid,
)
from nqforge.morphism import (
    AlgebraMorphism,
    MorphismData,
    build_phi,
    extract_morphism,
)
from nqforge import io as structio

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import families  # noqa: E402


# ----- the oracle: canonical-tuple walks -----


def oracle_ce_differential(a):
    anti = _as_antialgebroid(a)
    bundle = anti.bundle
    images = {}
    for coord in bundle.base_coordinates:
        img = SuperFunction.zero(bundle)
        for label, row in anti.anchor.items():
            comp = row.get(coord)
            if comp is not None and not comp.is_zero():
                img = img - comp * SuperFunction.generator(label, bundle)
        if not img.is_zero():
            images[coord] = img
    labels = bundle.labels()
    for target in labels:
        k = bundle.magnitude(target)
        values = {}
        for r in range(1, bundle.n + 2):
            for key in canonical_tuples(labels, r):
                if sum(bundle.magnitude(lab) for lab in key) != k + 1:
                    continue
                canon, sign = normalize_tuple(key, bundle, symmetric=True)
                if sign == 0:
                    continue
                comp = anti.brackets.value(key).coefficient(target)
                if comp.is_zero():
                    continue
                values[key] = comp * ce_prefactor(k)
        if values:
            images[target] = element_from_values(bundle, values)
    return Derivation(bundle, images)


def oracle_extract_algebroid(bundle, q):
    anchor = {}
    for label in bundle.labels_by_magnitude.get(1, ()):
        row = {}
        for coord in bundle.base_coordinates:
            comp = -q.image(coord).coefficient((label,))
            if not comp.is_zero():
                row[coord] = comp
        if row:
            anchor[label] = row
    tables = {}
    labels = bundle.labels()
    for target in labels:
        k = bundle.magnitude(target)
        img = q.image(target)
        for r, part in img.homological_parts().items():
            if r < 1:
                continue
            for key in canonical_tuples(labels, r):
                if sum(bundle.magnitude(lab) for lab in key) != k + 1:
                    continue
                canon, sign = normalize_tuple(key, bundle, symmetric=True)
                if sign == 0:
                    continue
                frames = [bundle.frame_section(lab) for lab in key]
                v = evaluate_element(part, frames)
                if v.is_zero():
                    continue
                comp = v * ce_prefactor(k)
                tables.setdefault(r, {}).setdefault(key, {})[target] = comp
    return LieNAntialgebroid(bundle, AntialgebraStructure(bundle, tables), anchor)


def oracle_build_phi(morph):
    src = morph.source_bundle
    tgt = morph.target_bundle
    gen_images = {}
    for lab in tgt.labels():
        k = tgt.magnitude(lab)
        values = {}
        for r in range(1, morph.n + 1):
            for key in canonical_tuples(src.labels(), r):
                if sum(src.magnitude(x) for x in key) != k:
                    continue
                canon, sign = normalize_tuple(key, src, symmetric=True)
                if sign == 0:
                    continue
                comp = morph.value(key).get(lab)
                if comp is not None and not comp.is_zero():
                    values[key] = comp
        if values:
            gen_images[lab] = element_from_values(src, values)
    return AlgebraMorphism(src, tgt, dict(morph.base_map.images), gen_images)


def oracle_extract_morphism(phi):
    src = phi.source_bundle
    tgt = phi.target_bundle
    components = {}
    for lab in tgt.labels():
        k = tgt.magnitude(lab)
        img = phi.generator_images[lab]
        for r, part in img.homological_parts().items():
            for key in canonical_tuples(src.labels(), r):
                if sum(src.magnitude(x) for x in key) != k:
                    continue
                canon, sign = normalize_tuple(key, src, symmetric=True)
                if sign == 0:
                    continue
                frames = [src.frame_section(x) for x in key]
                v = evaluate_element(part, frames)
                if v.is_zero():
                    continue
                components.setdefault(r, {}).setdefault(key, {})[lab] = v
    return MorphismData(src, tgt, phi.base_map(), components)


# ----- the inputs -----


def _depth_four():
    """n = 4 over a point: [c, c] = e with c of magnitude 2, and arity-2
    components on (c, c) of weight 1, -1 and 2."""
    one = lambda v: Polynomial.constant(v, ())
    src_b = GradedBundle((), {1: ["p"], 2: ["c"], 3: ["e"], 4: ["f"]})
    tgt_b = GradedBundle((), {1: ["P"], 2: ["C"], 3: ["E"], 4: ["F"]})
    src = LieNAntialgebroid(src_b, {2: {("c", "c"): {"e": one(1)}}}, {})
    tgt = LieNAntialgebroid(tgt_b, {1: {("F",): {"E": one(1)}}}, {})
    morphs = []
    for k in (1, -1, 2):
        comps = {
            1: {("p",): {"P": one(1)}, ("c",): {"C": one(1)}, ("e",): {"E": one(1)}},
            2: {("c", "c"): {"F": one(k)}},
        }
        morphs.append(MorphismData(src_b, tgt_b, BaseMap((), (), {}), comps))
    return src, tgt, morphs


SMALL = [
    (families.tangent, 3),
    (families.gl_point, 2),
    (families.gl_action, 2),
    (families.inn, 2),
    (families.inn_conjugation, 2),
]


def _inputs():
    """(name, structures with their declared fields, morphisms)."""
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        kind, payload = structio.load_any(str(path))
        if kind == "structure":
            yield path.name, [payload], []
        else:
            morph, source, target = payload
            yield path.name, [(source, None), (target, None)], [morph]
    for builder, size in SMALL:
        for case in families.with_twin(builder, size):
            if case.kind == "structure":
                yield case.name, [structio.structure_from_dict(case.data)], []
            else:
                morph, source, target = structio.morphism_from_dict(case.data)
                yield case.name, [(source, None), (target, None)], [morph]
    src, tgt, morphs = _depth_four()
    yield "depth_four", [(src, None), (tgt, None)], morphs


INPUTS = list(_inputs())


def test_inputs_cover_fixtures_families_and_depth_four():
    names = [name for name, _, _ in INPUTS]
    assert len(names) == 20 + 2 * len(SMALL) + 1
    assert sum(len(morphs) for _, _, morphs in INPUTS) == 8 + 2 + 3


@pytest.mark.parametrize("name,structures,morphs", INPUTS, ids=[i[0] for i in INPUTS])
def test_conversions_match_the_tuple_walk(name, structures, morphs):
    for struct, declared in structures:
        anti = _as_antialgebroid(struct)
        q = ce_differential(struct)
        assert q.images == oracle_ce_differential(struct).images
        fields = [q] if declared is None else [q, declared]
        for field in fields:
            got = extract_algebroid(anti.bundle, field)
            want = oracle_extract_algebroid(anti.bundle, field)
            assert got.brackets.tables == want.brackets.tables
            assert got.anchor == want.anchor
    for morph in morphs:
        phi = build_phi(morph)
        want = oracle_build_phi(morph)
        assert phi.generator_images == want.generator_images
        assert phi.coordinate_images == want.coordinate_images
        assert (extract_morphism(phi).components
                == oracle_extract_morphism(phi).components)
