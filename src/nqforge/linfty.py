"""Homotopy bracket families on both sides of the degree shift.

AntialgebraStructure holds graded symmetric brackets of degree +1 on the
unshifted bundle (degrees -1..-n), the family every structure carries;
AlgebraStructure holds graded antisymmetric brackets of degree 2-i on the
shifted bundle (degrees 0..-(n-1)), the family of shifted-side files and
of the printed over-point condition.  Both store structure functions in
the sparse table format of graded.py (validate_table checks it, table_value
looks entries up), evaluate on arbitrary sections by multilinear expansion,
and verify their homotopy Jacobi identities on the frame tuples where a
residual term can be nonzero, read off the tables (_candidates).  Both
identities are the same sum over shuffles of nested brackets, computed by
one loop (homotopy_residual_on_sections); only the per-term sign differs,
and each structure class supplies its own (_identity_sign).

Evaluation is C-infinity-multilinear unless an anchor is passed, in which
case the binary bracket gains the usual directional-derivative corrections;
the bare structures here stay anchor-free, the algebroid layer passes its
anchor in.

The transfer functions convert between the two sides with the suspension
sign bookkeeping done once in signs.bracket_transfer_sign; converting back
and forth is the identity on the nose.  A transfer negates the entries of
the keys whose sign is -1, shares every other entry, and does not validate
the result again.
"""

from __future__ import annotations

import itertools

from .polyring import Polynomial
from .graded import (
    Section,
    shuffles,
    table_value,
    validate_table,
)
from .signs import (
    algebra_identity_sign,
    bracket_transfer_sign,
    chi_sign,
    koszul_sign,
    sign_pow,
)
from .outcome import Outcome


def apply_anchor(anchor, label, poly):
    """Directional derivative of a base polynomial along the anchor image
    of the named frame; labels without an anchor row act by zero."""
    row = anchor.get(label)
    if not row:
        return Polynomial.zero(poly.coordinates)
    out = Polynomial.zero(poly.coordinates)
    for coord, comp in row.items():
        out = out + comp * poly.partial(coord)
    return out


class _BracketFamily:
    """Shared storage/evaluation for both symmetry types.

    tables: {arity: {canonical label tuple: {target label: Polynomial}}},
    the table format of graded.validate_table, arities 1..n+1.  Subclasses
    fix the symmetry used for normalization, the output degree of a key and
    the anchored correction signs of the binary bracket.
    """

    symmetric = True

    def __init__(self, bundle, tables):
        self.bundle = bundle
        self.tables = validate_table(
            tables, bundle, bundle, self.symmetric, bundle.n + 1,
            self._output_degree, "bracket",
        )

    @classmethod
    def _trusted(cls, bundle, tables):
        """A family on tables already in the validated format, taken as
        they are."""
        out = cls.__new__(cls)
        out.bundle = bundle
        out.tables = tables
        return out

    def max_arity(self):
        return max(self.tables, default=0)

    def arities(self):
        return sorted(self.tables)

    def value(self, labels):
        """Bracket value on a frame-label tuple, any order, as a Section."""
        return Section(
            self.bundle,
            table_value(self.tables, labels, self.bundle, self.symmetric),
        )

    def evaluate(self, sections, anchor=None):
        """Multilinear extension to sections; with an anchor, the binary
        bracket differentiates coefficients the way a bracket with that
        anchor must."""
        bundle = self.bundle
        out = bundle.zero_section()
        choices = [list(sec.components.items()) for sec in sections]
        for combo in itertools.product(*choices):
            labels = tuple(lab for lab, _ in combo)
            coeff = None
            for _, c in combo:
                coeff = c if coeff is None else coeff * c
            val = self.value(labels)
            if not val.is_zero():
                out = out + val.scale(coeff)
        if anchor is not None and len(sections) == 2:
            first, second = sections
            for la, fa in first.components.items():
                if bundle.magnitude(la) != 1:
                    continue
                for lb, gb in second.components.items():
                    d = apply_anchor(anchor, la, gb)
                    if not d.is_zero():
                        out = out + bundle.frame_section(lb).scale(fa * d)
            for lb, gb in second.components.items():
                if bundle.magnitude(lb) != 1:
                    continue
                for la, fa in first.components.items():
                    d = apply_anchor(anchor, lb, fa)
                    if not d.is_zero():
                        sign = self._second_slot_sign(la)
                        out = out + bundle.frame_section(la).scale(gb * d * sign)
        return out

    def is_zero(self):
        return not self.tables


class AntialgebraStructure(_BracketFamily):
    """Graded symmetric brackets of degree +1 on the unshifted bundle."""

    symmetric = True

    def __init__(self, bundle, tables):
        if bundle.side != "E":
            raise ValueError("symmetric brackets live on the unshifted side")
        super().__init__(bundle, tables)

    def _output_degree(self, labels):
        return sum(self.bundle.degree(lab) for lab in labels) + 1

    def _second_slot_sign(self, first_label):
        # from graded symmetry: the correction in which the second entry
        # acts carries (-1)^(degree of the first entry)
        return sign_pow(self.bundle.magnitude(first_label))

    def _identity_sign(self, i, perm, degs):
        # the symmetric identity signs each nesting by Koszul's rule alone
        return koszul_sign(perm, degs)


class AlgebraStructure(_BracketFamily):
    """Graded antisymmetric brackets of degree 2-i on the shifted bundle."""

    symmetric = False

    def __init__(self, bundle, tables):
        if bundle.side != "sE":
            raise ValueError("antisymmetric brackets live on the shifted side")
        super().__init__(bundle, tables)

    def _output_degree(self, labels):
        return sum(self.bundle.degree(lab) for lab in labels) + 2 - len(labels)

    def _second_slot_sign(self, first_label):
        # antisymmetry against a degree-0 acting entry always gives -1
        return -1

    def _identity_sign(self, i, perm, degs):
        # (-1)^(i(j-1)) with j = t+1-i, times the signed Koszul sign
        return algebra_identity_sign(i, len(perm) + 1 - i) * chi_sign(perm, degs)


def homotopy_residual_on_sections(struct, labels, sections, anchor=None):
    """Left side of the homotopy identity of struct at a frame tuple: sum
    over i+j = t+1 and (i, t-i)-shuffles of nested brackets, each nonzero
    term signed by struct._identity_sign.  sections are the frames named
    by labels, or those frames scaled by base polynomials; scaling keeps a
    frame's degree, so the signs are read off the labels."""
    bundle = struct.bundle
    t = len(labels)
    degs = [bundle.degree(lab) for lab in labels]
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
                sign = struct._identity_sign(i, perm, degs)
                total = total + outer.scale(sign)
    return total


def homotopy_residual_symmetric(struct, labels, anchor=None):
    """Residual of the symmetric identity of an AntialgebraStructure at one
    frame tuple."""
    frames = [struct.bundle.frame_section(lab) for lab in labels]
    return homotopy_residual_on_sections(struct, labels, frames, anchor)


def homotopy_residual_antisymmetric(struct, labels, anchor=None):
    """Residual of the antisymmetric identity of an AlgebraStructure at one
    frame tuple."""
    frames = [struct.bundle.frame_section(lab) for lab in labels]
    return homotopy_residual_on_sections(struct, labels, frames, anchor)


def _candidates(struct, anchor, r_max):
    """The frame tuples of arity 1..r_max at which the homotopy residual of
    struct can be nonzero, in the order the full sweep visits them.

    Frames have constant coefficients, so the inner bracket l_i(K) of a
    residual term at a sub-multiset K is the table entry at K; its anchor
    correction differentiates a constant and vanishes.  The outer bracket
    l_j(inner, rest) can then be nonzero in two ways only:

    * bracket rule: K is a key and (L,) + rest is a key for some target L
      of K, so every entry (K, L) paired with every key M containing L
      gives the tuple K + (M - {L});
    * anchor rule: j = 2, rest = (Y,) with Y anchored, and K's entry has a
      non-constant coefficient for rho(Y) to differentiate, giving K + (Y,).

    Every tuple outside this set has residual exactly zero.  anchor=None
    means no anchor.  Tuples are canonical multisets, sorted by arity and
    then lexicographically in bundle label order, which is the order of
    canonical_tuples arity by arity.
    """
    index = struct.bundle.label_index
    entries = [
        entry for table in struct.tables.values() for entry in table.items()
    ]
    # rests[L]: M - {L} for every key M containing L
    rests = {}
    for key, _ in entries:
        for pos, lab in enumerate(key):
            if pos == 0 or key[pos - 1] != lab:
                rests.setdefault(lab, []).append(key[:pos] + key[pos + 1 :])
    anchored = [(lab,) for lab, row in (anchor or {}).items() if row]
    found = set()
    for key, targets in entries:
        tails = [rest for lab in targets for rest in rests.get(lab, ())]
        if any(not poly.is_constant() for poly in targets.values()):
            tails += anchored
        for rest in tails:
            if len(key) + len(rest) <= r_max:
                found.add(tuple(sorted(key + rest, key=index.__getitem__)))
    return sorted(
        found, key=lambda tup: (len(tup), [index[lab] for lab in tup])
    )


def _sweep(struct, residual_fn, r_max, anchor):
    """Check the homotopy identities of struct at arities 1..r_max (default
    n+2); a pass is complete when the sweep reached arity n+2, the arity
    the correspondence theorem needs.

    The residual runs on the candidates of _candidates only: at every other
    frame multiset each of its terms is zero, so the residual is.  The
    candidates come in the order of a sweep over all canonical tuples, and
    the tuples between two candidates all pass, so the first failing
    candidate is that sweep's first failing tuple, with the same witness
    and residual.
    """
    if r_max is None:
        r_max = struct.bundle.n + 2
    for key in _candidates(struct, anchor, r_max):
        res = residual_fn(struct, key, anchor)
        if not res.is_zero():
            return Outcome(False, witness=(len(key), key), detail=res)
    return Outcome(True, complete=r_max >= struct.bundle.n + 2)


def verify_antialgebra(struct, r_max=None, anchor=None):
    """Check the symmetric homotopy identities at arities 1..r_max (default
    n+2), on the frame tuples where a residual can be nonzero."""
    return _sweep(struct, homotopy_residual_symmetric, r_max, anchor)


def verify_algebra(struct, r_max=None, anchor=None):
    """Check the antisymmetric homotopy identities at arities 1..r_max
    (default n+2), on the frame tuples where a residual can be nonzero."""
    return _sweep(struct, homotopy_residual_antisymmetric, r_max, anchor)


def _transferred_tables(family):
    """The tables with each entry times the bracket transfer sign of its
    key's magnitudes; magnitudes do not depend on the side, so one table
    serves both directions.  Entries whose sign is +1 are shared, and the
    sign is computed once per magnitude profile."""
    index = family.bundle.label_index
    signs = {}
    tables = {}
    for arity, table in family.tables.items():
        out = {}
        for key, targets in table.items():
            mags = tuple([index[lab][0] for lab in key])
            sign = signs.get(mags)
            if sign is None:
                sign = signs[mags] = bracket_transfer_sign(mags)
            if sign < 0:
                targets = {lab: -poly for lab, poly in targets.items()}
            out[key] = targets
        tables[arity] = out
    return tables


def transfer_to_algebra(anti):
    """Antisymmetric brackets on the shifted side equivalent to the given
    symmetric family; exact inverse of transfer_to_antialgebra."""
    return AlgebraStructure._trusted(anti.bundle.shifted(), _transferred_tables(anti))


def transfer_to_antialgebra(alg):
    """Symmetric brackets on the unshifted side equivalent to the given
    antisymmetric family; exact inverse of transfer_to_algebra."""
    return AntialgebraStructure._trusted(alg.bundle.shifted(), _transferred_tables(alg))
