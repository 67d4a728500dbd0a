"""Graded bundles, sections, and the combinatorics they need.

A GradedBundle records a negatively graded vector bundle over a polynomial
base chart by naming a frame for each piece.  Labels are shared between a
bundle and its degree shift: the same label names a frame of the unshifted
piece of degree -a and, on the shifted side, a frame of degree -(a-1).
Sections store frame coefficients as exact polynomials.

Sign helpers live in signs.py and are imported from there.  This module
adds shuffle and set-partition enumeration and tuple normalization, and the
sparse multilinear table format that bracket families and morphism
components share: validate_table checks one, table_value looks an entry
up at a frame tuple in any order.
"""

from __future__ import annotations

import itertools

from .polyring import Polynomial
from .signs import sort_sign

__all__ = [
    "GradedBundle",
    "Section",
    "shuffles",
    "set_partitions",
    "canonical_tuples",
    "normalize_tuple",
    "validate_table",
    "table_value",
]


class GradedBundle:
    """Frame data of a split graded bundle over a polynomial base chart.

    labels_by_magnitude maps a = 1..n to the frame labels of the piece whose
    unshifted degree is -a.  side is "E" (unshifted, degrees -1..-n) or "sE"
    (shifted, degrees 0..-(n-1)).  Labels must be globally unique and
    distinct from base coordinates.
    """

    def __init__(self, base_coordinates, labels_by_magnitude, side="E"):
        if side not in ("E", "sE"):
            raise ValueError("side must be 'E' or 'sE'")
        self.base_coordinates = tuple(base_coordinates)
        self.side = side
        self.labels_by_magnitude = {}
        seen = set(self.base_coordinates)
        mags = sorted(int(a) for a in labels_by_magnitude)
        if mags and (mags[0] < 1 or mags != list(range(1, mags[-1] + 1))):
            raise ValueError("degree magnitudes must be 1..n without gaps")
        for a in mags:
            labels = tuple(labels_by_magnitude[a])
            for lab in labels:
                if lab in seen:
                    raise ValueError("duplicate label %r" % lab)
                seen.add(lab)
            self.labels_by_magnitude[a] = labels
        self.n = mags[-1] if mags else 0
        self.label_index = {}
        order = 0
        for a in mags:
            for pos, lab in enumerate(self.labels_by_magnitude[a]):
                self.label_index[lab] = (a, pos, order)
                order += 1

    # ----- label bookkeeping -----

    def labels(self):
        """All labels in canonical order (by magnitude, then position)."""
        out = []
        for a in sorted(self.labels_by_magnitude):
            out.extend(self.labels_by_magnitude[a])
        return out

    def magnitude(self, label):
        """Positive degree magnitude a of the unshifted piece the label
        frames."""
        return self.label_index[label][0]

    def degree(self, label):
        """Effective degree of the frame section named by label on this
        side: -a unshifted, 1-a shifted."""
        a = self.magnitude(label)
        return -a if self.side == "E" else 1 - a

    def generator_degree(self, label):
        """Standard degree of the dual generator named by label: always the
        magnitude a, regardless of side."""
        return self.magnitude(label)

    def shifted(self):
        """The same frames viewed on the other side of the degree shift."""
        other = "sE" if self.side == "E" else "E"
        return GradedBundle(self.base_coordinates, self.labels_by_magnitude, other)

    def same_frames(self, other):
        return (
            self.base_coordinates == other.base_coordinates
            and self.labels_by_magnitude == other.labels_by_magnitude
        )

    # ----- section constructors -----

    def zero_section(self):
        return Section(self, {})

    def frame_section(self, label):
        if label not in self.label_index:
            raise KeyError("unknown label %r" % label)
        one = Polynomial.constant(1, self.base_coordinates)
        return Section(self, {label: one})

    def __repr__(self):
        body = ", ".join(
            "-%d: %r" % (a, list(v)) for a, v in sorted(self.labels_by_magnitude.items())
        )
        return "GradedBundle(side=%s, %s)" % (self.side, body)


class Section:
    """A section of a graded bundle: polynomial coefficient per frame label."""

    def __init__(self, bundle, components):
        self.bundle = bundle
        self.components = {}
        for label, poly in components.items():
            if label not in bundle.label_index:
                raise KeyError("unknown label %r" % label)
            if poly.coordinates != bundle.base_coordinates:
                raise ValueError(
                    "coefficient of %r lives on the wrong chart" % label
                )
            if not poly.is_zero():
                self.components[label] = poly

    def coefficient(self, label):
        zero = Polynomial.zero(self.bundle.base_coordinates)
        return self.components.get(label, zero)

    def is_zero(self):
        return not self.components

    def degrees(self):
        return sorted({self.bundle.degree(lab) for lab in self.components})

    def degree(self):
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("section is not homogeneous: degrees %r" % degs)
        return degs[0]

    def __add__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        if self.bundle is not other.bundle and not (
            self.bundle.same_frames(other.bundle)
            and self.bundle.side == other.bundle.side
        ):
            raise ValueError("sections live on different bundles")
        comps = dict(self.components)
        for lab, poly in other.components.items():
            comps[lab] = comps.get(lab, Polynomial.zero(poly.coordinates)) + poly
        return Section(self.bundle, comps)

    def __neg__(self):
        return Section(self.bundle, {lab: -p for lab, p in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        """Multiply by a Polynomial or a rational constant."""
        if isinstance(factor, Polynomial):
            return Section(
                self.bundle,
                {lab: factor * p for lab, p in self.components.items()},
            )
        return Section(
            self.bundle,
            {lab: p * factor for lab, p in self.components.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return (
            self.bundle.same_frames(other.bundle)
            and self.bundle.side == other.bundle.side
            and self.components == other.components
        )

    def __repr__(self):
        if not self.components:
            return "Section(0)"
        body = " + ".join(
            "(%s)*%s" % (poly, lab)
            for lab, poly in sorted(
                self.components.items(),
                key=lambda kv: self.bundle.label_index[kv[0]],
            )
        )
        return "Section(%s)" % body


def shuffles(*block_sizes):
    """Shuffle permutations splitting positions 0..r-1 into ordered groups
    of the given sizes, each group strictly increasing, as 0-based
    permutation tuples in lexicographic order.

    The tuple lists group 1's positions in increasing order, then group 2's,
    and so on: the convention in which a sum over (p, q)-shuffles picks the
    p arguments fed to the first map.  shuffles(p, q) has binomial(p+q, p)
    entries; shuffles(1, 1) is [(0, 1), (1, 0)].
    """
    total = sum(block_sizes)
    results = []

    def choose(available, sizes, prefix):
        if not sizes:
            results.append(tuple(prefix))
            return
        for combo in itertools.combinations(available, sizes[0]):
            taken = set(combo)
            rest = [i for i in available if i not in taken]
            choose(rest, sizes[1:], prefix + list(combo))

    choose(list(range(total)), list(block_sizes), [])
    results.sort()
    return results


def set_partitions(items):
    """All partitions of a sequence into unordered nonempty blocks, each
    partition once, as lists of lists.

    Blocks keep the input order inside and are listed by their first
    element, so concatenating the blocks gives a shuffle permutation of the
    block sizes when items is range(r).  There are Bell-number many.
    """
    items = list(items)
    if not items:
        yield []
        return
    last = items[-1]
    for part in set_partitions(items[:-1]):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [last]] + part[i + 1 :]
        yield part + [[last]]


def canonical_tuples(labels, r):
    """Nondecreasing r-tuples over an ordered label list, with repetition."""
    return list(itertools.combinations_with_replacement(labels, r))


def normalize_tuple(labels, bundle, symmetric=True):
    """Sort a frame-label tuple into canonical bundle order, returning
    (sorted tuple, sign).

    symmetric=True uses Koszul signs of the bundle-side degrees; False uses
    signature times Koszul.  The sign is 0 when the canonical form repeats a
    label whose symmetry forces the value to vanish (odd degree on the
    symmetric side, even degree on the antisymmetric side).
    """
    arr, sign = sort_sign(
        labels, bundle.label_index.__getitem__, bundle.degree, symmetric
    )
    vanishing = 1 if symmetric else 0
    for a, b in zip(arr, arr[1:]):
        if a == b and bundle.degree(a) % 2 == vanishing:
            return tuple(arr), 0
    return tuple(arr), sign


def validate_table(tables, source, target, symmetric, max_arity, out_degree,
                   what):
    """A sparse multilinear table checked entry by entry, zero entries
    dropped.

    Bracket families and morphism components share the format
    {arity: {canonical source frame tuple: {target frame label:
    Polynomial}}}.  Arities run 1..max_arity; a key must be a tuple of
    that many source frames in canonical order (see normalize_tuple) that
    does not vanish by symmetry; every target label must name a target
    frame, and a nonzero target must have degree out_degree(key).  what
    names the map in error messages.
    """
    clean = {}
    for r, table in tables.items():
        r = int(r)
        if not 1 <= r <= max_arity:
            raise ValueError(
                "%s arity %d is outside 1..%d" % (what, r, max_arity)
            )
        out = {}
        for key, targets in table.items():
            key = tuple(key)
            canon, sign = normalize_tuple(key, source, symmetric)
            if canon != key or len(key) != r:
                raise ValueError(
                    "%s key %r is not a canonical %d-tuple" % (what, key, r)
                )
            if sign == 0:
                raise ValueError("%s key %r vanishes by symmetry" % (what, key))
            degree = out_degree(key)
            entry = {}
            for lab, poly in targets.items():
                if lab not in target.label_index:
                    raise KeyError("unknown target frame %r" % lab)
                if poly.is_zero():
                    continue
                if target.degree(lab) != degree:
                    raise ValueError(
                        "%s on %r targets %r of degree %d, expected %d"
                        % (what, key, lab, target.degree(lab), degree)
                    )
                entry[lab] = poly
            if entry:
                out[key] = entry
        if out:
            clean[r] = out
    return clean


def table_value(tables, labels, bundle, symmetric, weight=None):
    """Entry of a validated table at a frame tuple in any order, as
    {target label: Polynomial}: the canonical entry times the sign of
    reordering (empty where the tuple vanishes by symmetry), and times
    weight(canonical tuple) when a weight is given.  Where the total sign
    is +1 this is the stored entry itself, so callers must not mutate it.
    """
    canon, sign = normalize_tuple(tuple(labels), bundle, symmetric)
    table = tables.get(len(canon)) if sign else None
    entry = table.get(canon) if table else None
    if not entry:
        return {}
    if weight is not None:
        sign *= weight(canon)
    if sign == 1:
        return entry
    return {lab: poly * sign for lab, poly in entry.items()}

