"""Split Lie n-algebroids: bracket data, the differential it generates, and
the checks tying the two presentations together.

A LieNAlgebroid carries antisymmetric brackets on the shifted bundle plus an
anchor on the degree-0 frames; a LieNAntialgebroid is the same structure
moved to the unshifted side, where brackets are symmetric of degree +1 and
the differential lives.  ce_differential builds the degree-+1 vector field
on the function algebra from bracket and anchor data, extract_algebroid
inverts it, and verify_algebroid cross-examines a candidate structure three
ways: the field squares to zero on algebra generators (check_square), the
frame-level homotopy identities with anchor corrections (plus anchor
compatibility) hold (check_identities), and the identity residuals are
function-linear in every slot (residual_linearity).  Each route returns an
outcome.Outcome.  The correspondence this package exists to certify is the
identities verdict equal to the square verdict on every input, with a
passing square implying passing linearity (linearity is necessary for
validity, not sufficient).

Sign conventions come from signs.py; the dictionary between elements and
multilinear maps from superalg.evaluate_element, element_from_values and
element_values.  The two conversions read and write the bracket table
entry by entry, one monomial per entry.
"""

from __future__ import annotations

import itertools

from .polyring import Polynomial
from .graded import canonical_tuples
from .signs import (
    ce_prefactor,
    derived_to_symmetric_sign,
    perm_sign,
    sign_pow,
    suspension_power_sign,
)
from .superalg import (
    Derivation,
    SuperFunction,
    check_homological,
    element_from_values,
    element_values,
    evaluate_element,
)
from .linfty import (
    AlgebraStructure,
    AntialgebraStructure,
    apply_anchor,
    homotopy_residual_on_sections,
    transfer_to_algebra,
    transfer_to_antialgebra,
    verify_antialgebra,
)
from .derived import DerivedSetup
from .outcome import Outcome, all_of, timed


def _validate_anchor(bundle, anchor):
    clean = {}
    for label, row in anchor.items():
        if label not in bundle.label_index:
            raise KeyError("anchor on unknown frame %r" % label)
        if bundle.magnitude(label) != 1:
            raise ValueError(
                "anchor may only act through the top-degree frames, got %r"
                % label
            )
        out = {}
        for coord, poly in row.items():
            if coord not in bundle.base_coordinates:
                raise KeyError("anchor row mentions unknown coordinate %r" % coord)
            if not poly.is_zero():
                out[coord] = poly
        if out:
            clean[label] = out
    return clean


class LieNAlgebroid:
    """Bracket presentation on the shifted side: n, antisymmetric brackets
    of degree 2-i, and an anchor on the degree-0 frames."""

    def __init__(self, bundle, brackets, anchor):
        if bundle.side != "sE":
            raise ValueError("algebroid data lives on the shifted bundle")
        if bundle.n < 1:
            raise ValueError("need at least one graded piece")
        if not isinstance(brackets, AlgebraStructure):
            brackets = AlgebraStructure(bundle, brackets)
        if brackets.bundle is not bundle and not brackets.bundle.same_frames(bundle):
            raise ValueError("brackets live on a different bundle")
        self.bundle = bundle
        self.n = bundle.n
        self.brackets = brackets
        self.anchor = _validate_anchor(bundle, anchor)

    def __repr__(self):
        return "LieNAlgebroid(n=%d, arities=%r)" % (self.n, self.brackets.arities())


class LieNAntialgebroid:
    """The same structure on the unshifted side: symmetric brackets of
    degree +1 and the anchor acting through the degree -1 frames."""

    def __init__(self, bundle, brackets, anchor):
        if bundle.side != "E":
            raise ValueError("antialgebroid data lives on the unshifted bundle")
        if bundle.n < 1:
            raise ValueError("need at least one graded piece")
        if not isinstance(brackets, AntialgebraStructure):
            brackets = AntialgebraStructure(bundle, brackets)
        self.bundle = bundle
        self.n = bundle.n
        self.brackets = brackets
        self.anchor = _validate_anchor(bundle, anchor)

    def __repr__(self):
        return "LieNAntialgebroid(n=%d, arities=%r)" % (
            self.n,
            self.brackets.arities(),
        )


def to_antialgebroid(algebroid):
    """Move bracket data across the degree shift (anchor rows carry over
    verbatim; the frames are shared)."""
    anti_bundle = algebroid.bundle.shifted()
    anti_brackets = transfer_to_antialgebra(algebroid.brackets)
    return LieNAntialgebroid(anti_bundle, anti_brackets, algebroid.anchor)


def to_algebroid(anti):
    """Inverse of to_antialgebroid, exact on the nose."""
    s_bundle = anti.bundle.shifted()
    s_brackets = transfer_to_algebra(anti.brackets)
    return LieNAlgebroid(s_bundle, s_brackets, anti.anchor)


def _as_antialgebroid(a):
    if isinstance(a, LieNAntialgebroid):
        return a
    if isinstance(a, LieNAlgebroid):
        return to_antialgebroid(a)
    raise TypeError("expected an algebroid or antialgebroid, got %r" % type(a))


def _as_algebroid(a):
    if isinstance(a, LieNAlgebroid):
        return a
    if isinstance(a, LieNAntialgebroid):
        return to_algebroid(a)
    raise TypeError("expected an algebroid or antialgebroid, got %r" % type(a))


# ----- the differential -----


def ce_differential(a):
    """The degree-+1 vector field encoding the bracket data.

    On a base coordinate: minus the sum over degree -1 frames of the anchor
    action times the dual generator.  On a generator of standard degree k:
    the element whose arity-r values on frame tuples are (-1)^k times the
    generator's coefficient in the arity-r bracket of the tuple.  (The
    anchor-derivation term of the defining formula differentiates the
    pairing with the generator, which is constant on frame tuples, so it
    contributes only through the base-coordinate images here; the section-
    level defining formula is exercised against this field in the tests.)
    """
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
    values = {}
    for table in anti.brackets.tables.values():
        for key, targets in table.items():
            for target, comp in targets.items():
                sign = ce_prefactor(bundle.magnitude(target))
                values.setdefault(target, {})[key] = comp * sign
    for target in bundle.labels():
        if target in values:
            images[target] = element_from_values(bundle, values[target])
    return Derivation(bundle, images)


def extract_algebroid(bundle, q):
    """Read bracket and anchor data off a degree-+1 vector field; exact
    inverse of ce_differential.  Each monomial of a generator image is one
    bracket entry.

    The field need not square to zero (that is what verify_algebroid is
    for), but it must be homogeneous of standard degree +1.
    """
    if bundle.side != "E":
        raise ValueError("extraction works on the unshifted bundle")
    deg = q.std_degree()
    if deg not in (None, 1):
        raise ValueError("field has standard degree %r, expected 1" % deg)
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
    for target in bundle.labels():
        sign = ce_prefactor(bundle.magnitude(target))
        for key, v in element_values(q.image(target)).items():
            tables.setdefault(len(key), {}).setdefault(key, {})[target] = v * sign
    brackets = AntialgebraStructure(bundle, tables)
    return LieNAntialgebroid(bundle, brackets, anchor)


# ----- verification -----


def anchor_compatibility(anti):
    """The anchor conditions forced by a vanishing square: the anchor
    annihilates unary-bracket images of degree -2 frames, and the anchor of
    a binary bracket of degree -1 frames is the commutator of the anchors.

    Witnesses name the offending frames and coordinate.
    """
    bundle = anti.bundle
    anchor = anti.anchor
    zero = Polynomial.zero(bundle.base_coordinates)
    # unary images have anchor zero
    for label in bundle.labels_by_magnitude.get(2, ()):
        sec = anti.brackets.value((label,))
        for coord in bundle.base_coordinates:
            total = zero
            for lab, comp in sec.components.items():
                row = anchor.get(lab, {})
                total = total + comp * row.get(coord, zero)
            if not total.is_zero():
                return Outcome(False, witness=("unary", label, coord, total))
    # binary brackets anchor to commutators
    ones = bundle.labels_by_magnitude.get(1, ())
    for la, lb in itertools.combinations_with_replacement(ones, 2):
        sec = anti.brackets.value((la, lb))
        rowa = anchor.get(la, {})
        rowb = anchor.get(lb, {})
        for coord in bundle.base_coordinates:
            lhs = zero
            for lab, comp in sec.components.items():
                if bundle.magnitude(lab) == 1:
                    lhs = lhs + comp * anchor.get(lab, {}).get(coord, zero)
            rhs = apply_anchor(anchor, la, rowb.get(coord, zero)) - apply_anchor(
                anchor, lb, rowa.get(coord, zero)
            )
            if lhs != rhs:
                return Outcome(
                    False, witness=("representation", la, lb, coord, lhs - rhs)
                )
    return Outcome(True)


def _linearity_probes(bundle):
    coords = bundle.base_coordinates
    probes = [Polynomial.variable(c, coords) for c in coords]
    probes += [
        Polynomial.variable(c, coords) * Polynomial.variable(d, coords)
        for c, d in itertools.combinations_with_replacement(coords, 2)
    ]
    return probes


def check_square(anti):
    """First route: the field of ce_differential squares to zero.  The
    witness is the first failing name with its printed residual."""
    sq = check_homological(ce_differential(anti))
    if sq.ok:
        return sq
    return Outcome(False, witness=(sq.witness, str(sq.detail)), detail=sq.detail)


def check_identities(anti, r_max=None):
    """Second route: the frame identities with anchor corrections hold on
    every tuple of arity 1..r_max (default n+2), and the anchor is
    compatible with the brackets."""
    ids = verify_antialgebra(anti.brackets, r_max=r_max, anchor=anti.anchor)
    out = anchor_compatibility(anti) if ids.ok else ids
    out.complete = ids.complete
    return out


def residual_linearity(anti, r_max=None):
    """Third route: slotwise function-linearity of the homotopy-identity
    residuals.

    For each arity, frame tuple, slot, and probe polynomial, the residual
    with one frame scaled by the probe must equal the probe times the plain
    residual.  Over a rank-zero base there is nothing to scale by and the
    outcome is vacuous.  A pass is complete when the sweep reached arity
    n+2.
    """
    bundle = anti.bundle
    if r_max is None:
        r_max = bundle.n + 2
    complete = r_max >= bundle.n + 2
    if not bundle.base_coordinates:
        return Outcome(True, vacuous=True, detail="rank-zero base", complete=complete)
    probes = _linearity_probes(bundle)
    labels = bundle.labels()
    struct = anti.brackets
    anchor = anti.anchor
    for t in range(1, r_max + 1):
        for key in canonical_tuples(labels, t):
            frames = [bundle.frame_section(lab) for lab in key]
            plain = homotopy_residual_on_sections(struct, key, frames, anchor)
            for slot in range(t):
                for probe in probes:
                    scaled = list(frames)
                    scaled[slot] = scaled[slot].scale(probe)
                    bent = homotopy_residual_on_sections(
                        struct, key, scaled, anchor
                    )
                    defect = bent - plain.scale(probe)
                    if not defect.is_zero():
                        return Outcome(
                            False,
                            witness=(t, key, slot, str(probe)),
                            detail=repr(defect),
                        )
    return Outcome(True, complete=complete)


def verify_algebroid(a, r_max=None):
    """Cross-examine an algebroid three ways, sweeping arities 1..r_max
    (default n+2): the conjunction (outcome.all_of) of one timed row per
    route and "routes agree".  That row passes when the identities verdict
    equals the square verdict, as the correspondence theorem demands, and a
    passing square comes with passing linearity; linearity is necessary for
    validity, not sufficient (a residual that is a nonzero tensor is still
    function-linear), so a failing square with passing linearity agrees.  A
    vacuous or incomplete identities pass proves nothing and is left out of
    the comparison."""
    anti = _as_antialgebroid(a)
    square = timed(check_square, anti)
    identities = timed(check_identities, anti, r_max)
    linearity = timed(residual_linearity, anti, r_max)
    inconclusive = identities.ok and (identities.vacuous or not identities.complete)
    agree = Outcome((identities.ok == square.ok or inconclusive)
                    and (linearity.ok or not square.ok), {
        "square": square.ok, "identities": identities.ok, "linearity": linearity.ok,
    })
    return all_of([
        ("differential squares to zero", square),
        ("frame identities with anchor corrections", identities),
        ("identity residuals are function-linear", linearity),
        ("routes agree", agree),
    ])


# ----- consequences -----


def consequence_checks(a):
    """Identities that follow from validity, each checked directly:
    the anchor kills unary-bracket images, the anchor represents the binary
    bracket by vector-field commutators, the nested-commutator brackets of
    the differential reproduce the symmetric brackets up to (-1)^r, and the
    contraction-of-the-differential anchor matches the declared one.

    Returns the conjunction of the named rows, each timed (see
    outcome.all_of)."""
    anti = _as_antialgebroid(a)
    setup = DerivedSetup(anti.bundle, ce_differential(anti))
    return all_of([
        ("anchor-compatibility", timed(anchor_compatibility, anti)),
        ("derived-brackets-match", timed(_derived_brackets_match, anti, setup)),
        ("derived-anchor-matches", timed(_derived_anchor_matches, anti, setup)),
        ("lower-degree-anchor-vanishes", timed(_lower_anchor_vanishes, anti, setup)),
    ])


def _derived_brackets_match(anti, setup):
    bundle = anti.bundle
    for r in range(1, bundle.n + 2):
        for key in canonical_tuples(bundle.labels(), r):
            frames = [bundle.frame_section(lab) for lab in key]
            derived = setup.bracket(frames)
            declared = anti.brackets.value(key).scale(derived_to_symmetric_sign(r))
            if derived != declared:
                return Outcome(False, witness=(r, key, repr(derived - declared)))
    return Outcome(True)


def _derived_anchor_matches(anti, setup):
    bundle = anti.bundle
    coords = bundle.base_coordinates
    for label in bundle.labels_by_magnitude.get(1, ()):
        u = bundle.frame_section(label)
        row = anti.anchor.get(label, {})
        for coord in coords:
            got = setup.anchor_action(u, Polynomial.variable(coord, coords))
            want = row.get(coord, Polynomial.zero(coords))
            if got != want:
                return Outcome(False, witness=(label, coord, str(got), str(want)))
    return Outcome(True)


def _lower_anchor_vanishes(anti, setup):
    bundle = anti.bundle
    coords = bundle.base_coordinates
    for label in bundle.labels():
        if bundle.magnitude(label) < 2:
            continue
        u = bundle.frame_section(label)
        for coord in coords:
            got = setup.anchor_action(u, Polynomial.variable(coord, coords))
            if not got.is_zero():
                return Outcome(False, witness=(label, coord, str(got)))
    return Outcome(True)


# ----- the n = 1 comparison with the classical operator -----


def _form_tuples(labels, s):
    return list(itertools.combinations(labels, s))


def _standard_test_forms(bundle, s):
    """Deterministic polynomial-valued antisymmetric s-forms on the shifted
    frames: every delta form plus one with shifting polynomial values."""
    labels = list(bundle.labels_by_magnitude.get(1, ()))
    coords = bundle.base_coordinates
    tuples = _form_tuples(labels, s)
    forms = []
    for t in tuples:
        forms.append({t: Polynomial.constant(1, coords)})
    if coords and tuples:
        rich = {}
        for idx, t in enumerate(tuples):
            c = coords[idx % len(coords)]
            rich[t] = Polynomial.variable(c, coords) + Polynomial.constant(
                idx + 1, coords
            )
        forms.append(rich)
    return forms


def _form_value(form, labels_tuple, bundle):
    """Antisymmetric lookup of a form table keyed by label tuples in
    increasing bundle order."""
    index = bundle.label_index
    order = sorted(range(len(labels_tuple)), key=lambda i: index[labels_tuple[i]])
    key = tuple(labels_tuple[i] for i in order)
    zero = Polynomial.zero(bundle.base_coordinates)
    if len(set(key)) < len(key):
        return zero
    got = form.get(key, zero)
    return got if perm_sign(order) == 1 else -got


def de_rham_compare(algd):
    """The differential on antisymmetric forms of a classical algebroid,
    two ways, compared tuple by tuple on forms of degree 0..2 (= n+1).

    Route one transports the form through the suspension dictionary,
    applies the vector field of ce_differential, and transports back.
    Route three is the textbook operator with 0-based alternating signs.
    Route two, the shifted-side formula (bracket insertions over 2-subsets
    {i, j} signed perm_sign((i, j) + rest), minus the anchor sum over
    1-subsets {i} signed (-1)^i), is route three negated term by term:
    perm_sign((i, j) + rest) = (-1)^(i+j-1), and the anchor terms carry
    opposite signs.  So route two is not expanded on its own: route one
    must equal minus route three exactly, and the first tuple where it does
    not is the witness.  The outcome's detail is "opposite" (this
    package's conventions against the textbook normalization) when some
    value is nonzero, "textbook" when all vanish.
    """
    if algd.n != 1:
        raise ValueError("the classical comparison needs n = 1")
    anti = to_antialgebroid(algd)
    bundle = anti.bundle
    q = ce_differential(anti)
    coords = bundle.base_coordinates
    zero = Polynomial.zero(coords)
    labels = list(bundle.labels_by_magnitude.get(1, ()))
    anchor = algd.anchor
    brackets = algd.brackets

    nonzero = False
    for s in range(algd.n + 2):
        for form in _standard_test_forms(bundle, s) if s > 0 else [
            {(): Polynomial.variable(c, coords)} for c in coords
        ] + [{(): Polynomial.constant(3, coords)}]:
            # route one: transport through the suspension dictionary
            values = {
                t: val * suspension_power_sign(s) for t, val in form.items()
            }
            element = element_from_values(bundle, values)
            image = q.apply(element).homological_part(s + 1)
            route_one = {}
            for t in _form_tuples(labels, s + 1):
                frames = [bundle.frame_section(lab) for lab in t]
                v = evaluate_element(image, frames) * suspension_power_sign(s + 1)
                route_one[t] = v

            # route three: textbook 0-based alternating formula
            route_three = {}
            for t in _form_tuples(labels, s + 1):
                total = zero
                for one in range(s + 1):
                    rest = [i for i in range(s + 1) if i != one]
                    val = _form_value(form, tuple(t[i] for i in rest), bundle)
                    d = apply_anchor(anchor, t[one], val)
                    total = total + d * sign_pow(one)
                for i, j in itertools.combinations(range(s + 1), 2):
                    rest = [x for x in range(s + 1) if x not in (i, j)]
                    br = brackets.value((t[i], t[j]))
                    contrib = zero
                    for lab, comp in br.components.items():
                        contrib = contrib + comp * _form_value(
                            form, (lab,) + tuple(t[x] for x in rest), bundle
                        )
                    total = total + contrib * sign_pow(i + j)
                route_three[t] = total

            for t in _form_tuples(labels, s + 1):
                formula = -route_three[t]
                if route_one[t] != formula:
                    return Outcome(
                        False,
                        witness=("transport-vs-formula", s, t,
                                 str(route_one[t]), str(formula)),
                    )
                nonzero = nonzero or not formula.is_zero()
    return Outcome(True, detail="opposite" if nonzero else "textbook")
