"""Morphisms of split Lie n-algebroids over possibly different bases.

Two presentations again: geometric data (a polynomial base map together
with graded-symmetric degree-0 bundle-map components on frame tuples) and
the graded-algebra morphism of function algebras it induces, pulling the
target algebra back to the source.  The components are a sparse table in
the format brackets use (graded.validate_table checks it, table_value looks
entries up).  build_phi and extract_morphism move between the presentations
entry by entry; check_anchor_condition and check_bracket_conditions test the
geometric compatibility with anchors and brackets, check_equivariance tests
that the algebra morphism intertwines the two differentials, and the two
verdicts agreeing on every fixture, morphism or not, is the second
correspondence this package certifies.

The bracket compatibility check has two shapes: the general different-base
condition (decomposition coefficients against global target frames, anchor
derivative row, composition side), which every morphism goes through, and
the rank-zero-base form on the shifted side with printed per-block signs,
which over a point is the componentwise morphism condition of homotopy Lie
algebras; it is kept as an independent check of the printed signs.

The composition side applies the target brackets to blocks of arguments,
each block pushed forward by a component.  Both shapes sum it over
unordered set partitions of the arguments, one term per partition with the
blocks listed by first argument and the Koszul (or, on the shifted side,
chi) sign of regrouping.  This is the printed sum over ordered compositions
and shuffles with its 1/r! weight: the components have degree 0 and the
target brackets are graded symmetric, so the r! orderings of one partition
give the same summand.
"""

from __future__ import annotations

import itertools

from .polyring import Polynomial, BaseMap
from .graded import (
    canonical_tuples,
    normalize_tuple,
    set_partitions,
    shuffles,
    table_value,
    validate_table,
)
from .signs import (
    bracket_transfer_sign,
    chi_sign,
    koszul_sign,
    morphism_second_row_sign,
    over_point_block_sign,
    sign_pow,
)
from .superalg import SuperFunction, element_from_values, element_values
from .linfty import apply_anchor
from .algebroid import ce_differential, to_algebroid
from .outcome import Outcome, all_of, timed


def _acc(target, label, poly):
    if label in target:
        target[label] = target[label] + poly
    else:
        target[label] = poly


def _clean(table):
    return {lab: p for lab, p in table.items() if not p.is_zero()}


class MorphismData:
    """Geometric morphism data: a base map plus components on frame tuples.

    components: {arity r: {canonical source frame tuple: {target frame
    label: Polynomial over the source coordinates}}}, the table format of
    graded.validate_table.  Arity runs 1..n; an arity-(n+1) component would
    land below the lowest degree, so such keys are rejected.  Component
    entries are degree-0: the target label's magnitude must equal the
    tuple's magnitude sum.
    """

    def __init__(self, source_bundle, target_bundle, base_map, components):
        if source_bundle.side != "E" or target_bundle.side != "E":
            raise ValueError("morphism data lives on the unshifted bundles")
        if source_bundle.n != target_bundle.n:
            raise ValueError(
                "source and target must share the number of graded pieces"
            )
        if tuple(base_map.source_coordinates) != tuple(
            source_bundle.base_coordinates
        ) or tuple(base_map.target_coordinates) != tuple(
            target_bundle.base_coordinates
        ):
            raise ValueError("base map does not connect the two bases")
        self.source_bundle = source_bundle
        self.target_bundle = target_bundle
        self.base_map = base_map
        self.n = source_bundle.n
        self.components = validate_table(
            components, source_bundle, target_bundle, True, self.n,
            lambda key: sum(source_bundle.degree(lab) for lab in key),
            "component",
        )

    def value(self, labels):
        """Component on one frame tuple, any order, as a read-only
        {target label: Polynomial}, with the symmetry sign applied; the
        tuple's length is the arity."""
        return table_value(self.components, labels, self.source_bundle, True)


class AlgebraMorphism:
    """Degree-preserving morphism of function algebras, target to source,
    given by generator images and extended multiplicatively."""

    def __init__(self, source_bundle, target_bundle, coordinate_images,
                 generator_images):
        if source_bundle.side != "E" or target_bundle.side != "E":
            raise ValueError("algebra morphisms live on the unshifted side")
        self.source_bundle = source_bundle
        self.target_bundle = target_bundle
        self.coordinate_images = {}
        for coord in target_bundle.base_coordinates:
            img = coordinate_images.get(coord)
            if img is None:
                raise KeyError("missing image for target coordinate %r" % coord)
            self.coordinate_images[coord] = img
        # validates charts once and for all
        self._base_map = BaseMap(
            source_bundle.base_coordinates,
            target_bundle.base_coordinates,
            self.coordinate_images,
        )
        self.generator_images = {}
        for lab in target_bundle.labels():
            img = generator_images.get(lab)
            if img is None:
                img = SuperFunction.zero(source_bundle)
            deg = img.std_degree()
            if deg is not None and deg != target_bundle.magnitude(lab):
                raise ValueError(
                    "image of %r has degree %r, morphism is not "
                    "degree-preserving" % (lab, deg)
                )
            self.generator_images[lab] = img

    def base_map(self):
        return self._base_map

    def apply_polynomial(self, poly):
        return self._base_map.pullback(poly)

    def apply(self, element):
        """Image of a target-algebra element, term by term: coefficient
        pulled back through the base images, generators replaced by their
        images in written order."""
        out = SuperFunction.zero(self.source_bundle)
        for key, coeff in element.terms.items():
            term = SuperFunction.from_polynomial(
                self.apply_polynomial(coeff), self.source_bundle
            )
            for lab in key:
                term = term * self.generator_images[lab]
            out = out + term
        return out


def build_phi(morph):
    """Algebra morphism induced by geometric morphism data.

    A target coordinate goes to its base-map image.  A target dual
    generator goes to the source element whose frame-tuple values are the
    generator's coefficients in the components; products are then forced
    by multiplicativity.
    """
    values = {}
    for table in morph.components.values():
        for key, targets in table.items():
            for lab, comp in targets.items():
                values.setdefault(lab, {})[key] = comp
    src = morph.source_bundle
    gen_images = {lab: element_from_values(src, v) for lab, v in values.items()}
    return AlgebraMorphism(
        src, morph.target_bundle, dict(morph.base_map.images), gen_images
    )


def extract_morphism(phi):
    """Geometric data of an algebra morphism; exact inverse of build_phi.
    Each monomial of a generator image is one component entry."""
    components = {}
    for lab, img in phi.generator_images.items():
        for key, v in element_values(img).items():
            components.setdefault(len(key), {}).setdefault(key, {})[lab] = v
    return MorphismData(
        phi.source_bundle, phi.target_bundle, phi.base_map(), components
    )


# ----- the geometric conditions -----


def check_anchor_condition(morph, source, target):
    """Anchor compatibility through the base map: for every top-degree
    source frame X and target coordinate g, the source anchor applied to
    the pulled-back g equals the pulled-back target-anchor derivatives of g
    paired with the decomposition of the arity-1 component of X."""
    pull = morph.base_map.pullback
    tgt_coords = morph.target_bundle.base_coordinates
    for x in morph.source_bundle.labels_by_magnitude.get(1, ()):
        for g in tgt_coords:
            gvar = Polynomial.variable(g, tgt_coords)
            lhs = apply_anchor(source.anchor, x, pull(gvar))
            rhs = Polynomial.zero(morph.source_bundle.base_coordinates)
            for zeta, f in morph.value((x,)).items():
                rhs = rhs + f * pull(apply_anchor(target.anchor, zeta, gvar))
            if lhs != rhs:
                return Outcome(False, witness=(x, g, str(lhs - rhs)))
    return Outcome(True)


def _partitions(t, n, counts):
    """Set partitions of the positions 0..t-1 on the composition side: at
    most n positions per block (components stop at arity n) and a block
    count in counts (a count without a target bracket contributes nothing).
    Yields (blocks, order), order being the blocks concatenated, the
    shuffle that regroups the arguments."""
    for blocks in set_partitions(range(t)):
        if len(blocks) in counts and all(len(b) <= n for b in blocks):
            yield blocks, [q for b in blocks for q in b]


def _general_defect(morph, src, tgt, labels):
    """Left side minus right side of the different-base compatibility
    condition at one frame tuple, as {target label: Polynomial over the
    source base}."""
    bundle = morph.source_bundle
    t = len(labels)
    degs = [bundle.degree(lab) for lab in labels]
    mags = [bundle.magnitude(lab) for lab in labels]
    pull = morph.base_map.pullback
    acc = {}

    # bracket row: components composed with source brackets over two-block
    # shuffles
    for s in range(1, t + 1):
        r = t + 1 - s
        if r < 1 or r > morph.n:
            continue
        for perm in shuffles(s, t - s):
            eps = koszul_sign(perm, degs)
            inner = src.brackets.value(tuple(labels[p] for p in perm[:s]))
            rest = tuple(labels[p] for p in perm[s:])
            for lab_i, comp in inner.components.items():
                for zeta, poly in morph.value((lab_i,) + rest).items():
                    _acc(acc, zeta, poly * comp * eps)

    # anchor row: source anchor derivatives of the decomposition
    # coefficients of the component with one argument removed
    if t >= 2 and t - 1 <= morph.n:
        for i in range(t):
            if mags[i] != 1:
                continue
            rest = labels[:i] + labels[i + 1 :]
            entry = morph.value(rest)
            if not entry:
                continue
            sign = morphism_second_row_sign(mags, i)
            for zeta, f in entry.items():
                der = apply_anchor(src.anchor, labels[i], f)
                if not der.is_zero():
                    _acc(acc, zeta, der * sign)

    # right side: target brackets of pushed-forward blocks, skipping a
    # choice of block values whose target bracket is zero before
    # multiplying them out
    for blocks, order in _partitions(t, morph.n, tgt.brackets.tables):
        per_block = [
            list(morph.value(tuple(labels[q] for q in b)).items())
            for b in blocks
        ]
        if not all(per_block):
            continue
        minus_eps = -koszul_sign(order, degs)
        for choice in itertools.product(*per_block):
            val = tgt.brackets.value(tuple(z for z, _ in choice)).components
            if not val:
                continue
            coeff = choice[0][1]
            for _, f in choice[1:]:
                coeff = coeff * f
            if coeff.is_zero():
                continue
            coeff = coeff * minus_eps
            for lab, c in val.items():
                _acc(acc, lab, coeff * pull(c))

    return _clean(acc)


def _sweep_rows(morph, defect, t_max):
    """One timed row per arity 1..t_max (outcome.all_of): the canonical
    frame tuples of that arity, less those that vanish by symmetry, up to
    the first with a nonzero defect(tuple), which with its defect is the
    row's witness.  A pass is complete when the sweep reached arity n+1."""
    bundle = morph.source_bundle
    labels = bundle.labels()
    complete = t_max >= morph.n + 1

    def row(t):
        for key in canonical_tuples(labels, t):
            if normalize_tuple(key, bundle, True)[1] == 0:
                continue
            found = defect(key)
            if found:
                witness = (key, {lab: str(p) for lab, p in found.items()})
                return Outcome(False, witness=witness)
        return Outcome(True, complete=complete)

    return all_of([(t, timed(row, t)) for t in range(1, t_max + 1)])


def check_bracket_conditions(morph, source, target, t_max=None):
    """Sweep the general bracket compatibility condition over all frame
    tuples of arity 1..n+1 (or 1..t_max, t_max >= 1).

    Every morphism, base-preserving or not, goes through the one
    different-base shape: its defect at a tuple K is, up to the sign
    (-1)^|zeta|, the value at K of the equivariance defect of the induced
    algebra morphism on the dual generator zeta, term by term and whether or
    not the anchor condition holds; the test suite checks this.

    Returns the conjunction of one timed row per arity (see _sweep_rows).
    """
    if t_max is None:
        t_max = morph.n + 1
    elif t_max < 1:
        raise ValueError("t_max must be at least 1, got %r" % (t_max,))
    return _sweep_rows(
        morph, lambda key: _general_defect(morph, source, target, key), t_max
    )


# ----- the algebraic condition -----


def check_equivariance(morph, source, target):
    """The induced algebra morphism intertwines the differentials: the
    source differential applied to the image equals the image of the target
    differential, on every target coordinate and dual generator (which
    suffices, both sides being derivations along the morphism)."""
    phi = build_phi(morph)
    q_src = ce_differential(source)
    q_tgt = ce_differential(target)
    tgt_bundle = phi.target_bundle
    for coord in tgt_bundle.base_coordinates:
        image = SuperFunction.from_polynomial(
            phi.coordinate_images[coord], phi.source_bundle
        )
        lhs = q_src.apply(image)
        rhs = phi.apply(q_tgt.image(coord))
        if lhs != rhs:
            return Outcome(False, witness=("coordinate", coord))
    for lab in tgt_bundle.labels():
        lhs = q_src.apply(phi.generator_images[lab])
        rhs = phi.apply(q_tgt.image(lab))
        if lhs != rhs:
            return Outcome(False, witness=("generator", lab))
    return Outcome(True)


def verify_morphism(morph, source, target, t_max=None):
    """Both formulations as the conjunction (outcome.all_of) of timed rows:
    the anchor condition and one bracket row per arity 1..t_max (default
    n+1) are geometric, equivariance is algebraic, and "formulations agree"
    passes when the verdicts coincide, as the correspondence theorem
    demands; an incomplete geometric pass agrees with either."""
    anchor = timed(check_anchor_condition, morph, source, target)
    brackets = check_bracket_conditions(morph, source, target, t_max=t_max)
    equivariance = timed(check_equivariance, morph, source, target)
    geometric = anchor.ok and brackets.ok
    algebraic = equivariance.ok
    agree = Outcome(geometric == algebraic or (geometric and not brackets.complete),
                    {"geometric": geometric, "algebraic": algebraic})
    return all_of(
        [("anchor condition", anchor)]
        + [("bracket condition, arity %d" % t, row) for t, row in brackets.detail]
        + [("differential equivariance", equivariance), ("formulations agree", agree)]
    )


# ----- the rank-zero-base reduction on the shifted side -----


def over_point_defect(morph, src_brackets, tgt_brackets, labels):
    """Left side minus right side of the printed shifted-side morphism
    condition at one frame tuple of a rank-zero base, as {target label:
    coefficient}.  src_brackets and tgt_brackets are the shifted-side
    bracket families of source and target (algebroid.to_algebroid).

    Both sides carry the printed per-term weights: the bracket side
    (-1)^(s(r-1)) times the signed Koszul sign of the shuffle, the
    composition side the per-block sign times the chi sign of regrouping,
    one term per unordered partition (see the module docstring).
    The printed per-block exponent is split by a stray line break; this
    implementation reads it as one exponent, and the tests certify that
    reading against the unshifted condition.
    """
    if morph.source_bundle.base_coordinates or (
        morph.target_bundle.base_coordinates
    ):
        raise ValueError("the printed reduction applies over a rank-zero base")
    s_src = src_brackets.bundle

    def transfer(canon):
        # components conjugated to the shifted side; the conjugation has the
        # shape of bracket transfer, so the sign is the same function of the
        # slot magnitudes
        return bracket_transfer_sign([s_src.magnitude(lab) for lab in canon])

    def phi_value(key):
        return table_value(morph.components, key, s_src, False, transfer)

    t = len(labels)
    degs = [s_src.degree(lab) for lab in labels]
    acc = {}

    for s in range(1, t + 1):
        r = t + 1 - s
        if r < 1 or r > morph.n:
            continue
        w = sign_pow(s * (r - 1))
        for perm in shuffles(s, t - s):
            chi = chi_sign(perm, degs)
            inner = src_brackets.value(tuple(labels[p] for p in perm[:s]))
            rest = tuple(labels[p] for p in perm[s:])
            for lab_i, comp in inner.components.items():
                for zeta, poly in phi_value((lab_i,) + rest).items():
                    _acc(acc, zeta, poly * comp * (w * chi))

    for blocks, order in _partitions(t, morph.n, tgt_brackets.tables):
        per_block = [
            list(phi_value(tuple(labels[q] for q in b)).items())
            for b in blocks
        ]
        if not all(per_block):
            continue
        weight = over_point_block_sign(
            [len(b) for b in blocks], [sum(degs[q] for q in b) for b in blocks]
        ) * chi_sign(order, degs)
        for choice in itertools.product(*per_block):
            coeff = Polynomial.constant(weight, ())
            for _, f in choice:
                coeff = coeff * f
            if coeff.is_zero():
                continue
            val = tgt_brackets.value(tuple(z for z, _ in choice))
            for lab, c in val.components.items():
                _acc(acc, lab, -(coeff * c))

    return _clean(acc)


def check_over_point_reduction(morph, source, target):
    """Sweep the printed shifted-side condition over all frame tuples of
    arity 1..n+1, one timed row per arity as check_bracket_conditions
    reports them, for comparison with the unshifted condition's verdict.
    The shifted-side brackets are transferred once per call."""
    src_brackets = to_algebroid(source)
    tgt_brackets = to_algebroid(target)
    return _sweep_rows(
        morph,
        lambda key: over_point_defect(morph, src_brackets, tgt_brackets, key),
        morph.n + 1,
    )
