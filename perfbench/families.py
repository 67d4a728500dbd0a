"""Scaled input families for the benchmark, each valid by construction and
each with a perturbed twin that must fail.

Families (all on the shifted side, brackets antisymmetric):

* tangent algebroid of R^d: frames e_i anchored to d/dx_i, no brackets;
* gl(m) over a point: frames E_ij with the matrix commutator;
* gl(m) acting on R^m: the same brackets, anchor E_ij -> -x_j d/dx_i;
* inn(gl(m)): frames X_ij in degree 0 and Y_ij in degree -1, with
  l1(Y) = X, l2(X, X') = [X, X'] and l2(X, Y) = Y_[X, Y];
* the automorphism of inn(gl(m)) given by conjugation with g = I + N,
  N the superdiagonal ones.

A builder returns a Case: the JSON document nqforge reads, and the verdict
it must produce.  The data is generated here from plain integers, so the
generators share no code with the program they feed.

The workload seed picks a signed permutation of each family's frames (the
order in which they are declared and the sign of each basis vector), of
their label names, and of the base coordinates.  A signed change of basis
keeps validity, rank and the number of nonzero bracket entries, so the work
per check does not depend on the seed.  Seed 0 is the plain basis.

A check that fails stops at the first failing tuple, and where that tuple
falls depends on the declaration order.  Builders therefore take
reorder=False for inputs that are timed while they fail: the seed then
flips signs and permutes names only, and the work stays fixed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass


@dataclass
class Case:
    """One input file: its name, kind ("structure" or "morphism"), JSON
    document, and whether every check on it must pass."""

    name: str
    kind: str
    data: dict
    valid: bool


class _Basis:
    """A signed, reordered and renamed basis.

    groups lists, by degree magnitude, (abstract element ids, label names).
    Position order is the declaration order; the new frame at a position is
    sign * (abstract element).  A coefficient of a multilinear map between
    such frames picks up the product of the signs of every element it
    involves.
    """

    def __init__(self, draw, groups):
        self.name = {}
        self.sign = {}
        self.frames = {}
        self.order = []
        for mag, (ids, names) in enumerate(groups, start=1):
            ids = draw.order(ids)
            names = draw.names(names)
            signs = draw.signs(len(ids))
            for elem, nm, s in zip(ids, names, signs):
                self.name[elem] = nm
                self.sign[elem] = s
            self.frames[str(mag)] = names
            self.order.extend(ids)

    def signs(self, elems):
        out = 1
        for e in elems:
            out *= self.sign[e]
        return out

    def table(self, arity, fn):
        """{"a,b": {"c": "coeff"}} over canonically ordered tuples, from
        fn(tuple of abstract ids) -> {abstract id: int}."""
        out = {}
        for key in itertools.combinations_with_replacement(self.order, arity):
            value = fn(key)
            entry = {}
            for elem, c in value.items():
                c *= self.signs(key) * self.sign[elem]
                if c:
                    entry[self.name[elem]] = str(c)
            if entry:
                out[",".join(self.name[e] for e in key)] = entry
        return out


class _Coords:
    """Signed permutation of base coordinates: the new coordinate at
    position k is t_k * x_{tau(k)}, and its name is shuffled too."""

    def __init__(self, draw, d):
        src = draw.order(range(d))
        names = draw.names("x%d" % i for i in range(d))
        signs = draw.signs(d)
        self.names = names
        self.pos = {x: k for k, x in enumerate(src)}
        self.sign = {x: signs[k] for k, x in enumerate(src)}

    def field(self, components, scale=1):
        """Anchor row of the vector field sum_i P_i(x) d/dx_i, with P_i
        given as {monomial (tuple of old coordinate indices): int}."""
        row = {}
        for i, poly in components.items():
            terms = []
            for mono, c in poly.items():
                c *= scale * self.sign[i]
                for x in mono:
                    c *= self.sign[x]
                if c:
                    terms.append((c, mono))
            if terms:
                row[self.names[self.pos[i]]] = _poly_str(terms, self)
        return row


def _poly_str(terms, coords):
    parts = []
    for c, mono in terms:
        factors = [coords.names[coords.pos[x]] for x in mono]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append("%d*%s" % (c, "*".join(factors)))
    return " + ".join(parts)


def multisets(n, r):
    """Canonical (nondecreasing) r-tuples over n labels."""
    return math.comb(n + r - 1, r)


class _Draw:
    """What the seed picks.  Seed 0 picks nothing.  With reorder=False the
    declaration order stays and only names and signs change."""

    def __init__(self, seed, reorder=True):
        self.rng = random.Random(seed) if seed else None
        self.reorder = reorder

    def order(self, items):
        items = list(items)
        if self.rng and self.reorder:
            self.rng.shuffle(items)
        return items

    def names(self, names):
        names = list(names)
        if self.rng:
            self.rng.shuffle(names)
        return names

    def signs(self, n):
        if not self.rng:
            return [1] * n
        return [self.rng.choice((1, -1)) for _ in range(n)]


def _structure(coords, basis, brackets, anchor):
    return {
        "kind": "structure",
        "side": "sE",
        "base_coordinates": list(coords.names) if coords else [],
        "frames": basis.frames,
        "anchor": anchor,
        "brackets": {str(r): t for r, t in brackets.items() if t},
    }


# ----- gl(m) -----


def _gl_ids(m):
    return [(i, j) for i in range(m) for j in range(m)]


def _gl_names(prefix, m):
    return ["%s%d%d" % (prefix, i, j) for i, j in _gl_ids(m)]


def _commutator(a, b):
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj, as {(p, q): int}."""
    (i, j), (k, l) = a, b
    out = {}
    if j == k:
        out[(i, l)] = out.get((i, l), 0) + 1
    if l == i:
        out[(k, j)] = out.get((k, j), 0) - 1
    return {e: c for e, c in out.items() if c}


# ----- structures -----


def tangent(d, seed=0, perturbed=False, reorder=True):
    """Tangent algebroid of R^d.  The twin adds [e0, e1] = e0, a bracket
    the anchor cannot represent."""
    draw = _Draw(seed, reorder)
    coords = _Coords(draw, d)
    basis = _Basis(draw, [(range(d), ["e%d" % i for i in range(d)])])
    anchor = {basis.name[i]: coords.field({i: {(): basis.sign[i]}}) for i in range(d)}

    def bracket(key):
        if perturbed and key in ((0, 1), (1, 0)):
            return {0: 1 if key == (0, 1) else -1}
        return {}

    tables = {2: basis.table(2, bracket)}
    name = "tangent_r%d%s" % (d, "_perturbed" if perturbed else "")
    return Case(name, "structure", _structure(coords, basis, tables, anchor), not perturbed)


def gl_point(m, seed=0, perturbed=False, reorder=True):
    """gl(m) over a point.  The twin flips the sign of [E_00, E_01]."""
    draw = _Draw(seed, reorder)
    basis = _Basis(draw, [(_gl_ids(m), _gl_names("E", m))])

    def bracket(key):
        value = _commutator(*key)
        if perturbed and set(key) == {(0, 0), (0, 1)}:
            value = {e: -c for e, c in value.items()}
        return value

    tables = {2: basis.table(2, bracket)}
    name = "gl%d_point%s" % (m, "_perturbed" if perturbed else "")
    return Case(name, "structure", _structure(None, basis, tables, {}), not perturbed)


def gl_action(m, seed=0, perturbed=False, reorder=True):
    """gl(m) acting on R^m by E_ij -> -x_j d/dx_i.  The twin flips the
    anchor sign, which turns the action into an anti-representation."""
    draw = _Draw(seed, reorder)
    coords = _Coords(draw, m)
    basis = _Basis(draw, [(_gl_ids(m), _gl_names("E", m))])
    sign = 1 if perturbed else -1
    anchor = {
        basis.name[(i, j)]: coords.field({i: {(j,): 1}}, scale=sign * basis.sign[(i, j)])
        for i, j in _gl_ids(m)
    }
    tables = {2: basis.table(2, lambda key: _commutator(*key))}
    name = "gl%d_action%s" % (m, "_perturbed" if perturbed else "")
    return Case(name, "structure", _structure(coords, basis, tables, anchor), not perturbed)


def _inn_basis(draw, m):
    ids = _gl_ids(m)
    return _Basis(draw, [
        ([("X", e) for e in ids], _gl_names("X", m)),
        ([("Y", e) for e in ids], _gl_names("Y", m)),
    ])


def _inn_tables(basis, perturbed=False):
    """l1(Y_a) = X_a, l2(X_a, X_b) = X_[a,b], l2(X_a, Y_b) = Y_[a,b]; the
    twin flips the sign of the [X, Y] block."""
    xy_sign = -1 if perturbed else 1

    def unary(key):
        (kind, e), = key
        return {("X", e): 1} if kind == "Y" else {}

    def binary(key):
        (ka, a), (kb, b) = key
        if ka == "X" and kb == "X":
            return {("X", e): c for e, c in _commutator(a, b).items()}
        if ka == "X" and kb == "Y":
            return {("Y", e): xy_sign * c for e, c in _commutator(a, b).items()}
        return {}

    return {1: basis.table(1, unary), 2: basis.table(2, binary)}


def inn(m, seed=0, perturbed=False, reorder=True):
    """The inner-derivation Lie 2-algebra inn(gl(m)) over a point."""
    basis = _inn_basis(_Draw(seed, reorder), m)
    data = _structure(None, basis, _inn_tables(basis, perturbed), {})
    name = "inn_gl%d%s" % (m, "_perturbed" if perturbed else "")
    return Case(name, "structure", data, not perturbed)


# ----- morphisms -----


def _conjugator(m):
    """g = I + N and its inverse, as integer matrices."""
    g = [[1 if j in (i, i + 1) else 0 for j in range(m)] for i in range(m)]
    # (I + N)^-1 = sum_k (-N)^k: entries (-1)^(j-i) on and above the diagonal
    ginv = [[(-1) ** (j - i) if j >= i else 0 for j in range(m)] for i in range(m)]
    return g, ginv


def _conjugate(m, e):
    """g E_ij g^-1 = (column i of g)(row j of g^-1), as {(p, q): int}."""
    g, ginv = _conjugator(m)
    i, j = e
    out = {}
    for p in range(m):
        for q in range(m):
            c = g[p][i] * ginv[j][q]
            if c:
                out[(p, q)] = c
    return out


def inn_conjugation(m, seed=0, perturbed=False, reorder=True):
    """Automorphism of inn(gl(m)) by conjugation with I + N, on X and Y
    alike.  The twin adds Y00 -> Y11, which breaks l1 compatibility."""
    basis = _inn_basis(_Draw(seed, reorder), m)
    block = _structure(None, basis, _inn_tables(basis), {})

    def component(key):
        (kind, e), = key
        value = {(kind, f): c for f, c in _conjugate(m, e).items()}
        if perturbed and key == (("Y", (0, 0)),):
            value[("Y", (1, 1))] = value.get(("Y", (1, 1)), 0) + 1
        return {k: c for k, c in value.items() if c}

    data = {
        "kind": "morphism",
        "source": block,
        "target": block,
        "base_map": {},
        "components": {"1": basis.table(1, component)},
    }
    name = "inn_gl%d_conjugation%s" % (m, "_perturbed" if perturbed else "")
    return Case(name, "morphism", data, not perturbed)


def with_twin(builder, *args, seed=0, reorder=True):
    """The valid member and its perturbed twin."""
    return [builder(*args, seed=seed, reorder=reorder),
            builder(*args, seed=seed, perturbed=True, reorder=reorder)]
