"""Symmetric words on a graded bundle, their coproduct, and the operators
that make the bracket-to-coderivation and morphism-to-cohomomorphism
translations precise.

A word is a superalg.SuperFunction on the unshifted bundle: a term is a
word, a generator is a letter, and polynomial coefficients come along.
The free graded symmetric algebra on the frame sections reorders letters
with Koszul signs in the frame degrees -a, while the function algebra uses
the generator degrees a; the two have the same parity, so the two algebras
are one and the same, a repeated odd letter killing the word in both.  The
deconcatenation-style coproduct splits words through shuffles into a
TensorPair, the tensor square.  Coderivations are determined by
corestrictions (one map per arity), cohomomorphisms by corestrictions of a
degree-zero family, with the 1/s! normalization realized as a sum over
unordered set partitions.
"""

from __future__ import annotations

from .polyring import Polynomial
from .graded import normalize_tuple, set_partitions, shuffles
from .outcome import Outcome
from .signs import koszul_sign, sign_pow
from .superalg import SuperFunction


class TensorPair:
    """Element of (words) tensor (words), for stating the coalgebra laws."""

    __slots__ = ("left_bundle", "right_bundle", "terms")

    def __init__(self, left_bundle, right_bundle, terms=None):
        self.left_bundle = left_bundle
        self.right_bundle = right_bundle
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[key] = (
                        self.terms.get(
                            key, Polynomial.zero(coeff.coordinates)
                        )
                        + coeff
                    )
            self.terms = {k: c for k, c in self.terms.items() if not c.is_zero()}

    def add_term(self, lkey, rkey, coeff):
        if coeff.is_zero():
            return
        key = (lkey, rkey)
        cur = self.terms.get(key)
        total = coeff if cur is None else cur + coeff
        if total.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = total

    def __add__(self, other):
        out = TensorPair(self.left_bundle, self.right_bundle, dict(self.terms))
        for (lk, rk), c in other.terms.items():
            out.add_term(lk, rk, c)
        return out

    def __sub__(self, other):
        out = TensorPair(self.left_bundle, self.right_bundle, dict(self.terms))
        for (lk, rk), c in other.terms.items():
            out.add_term(lk, rk, -c)
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorPair):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "TensorPair(0)"
        body = " + ".join(
            "(%s)*(%s | %s)" % (c, "&".join(lk) if lk else "1", "&".join(rk) if rk else "1")
            for (lk, rk), c in sorted(self.terms.items())
        )
        return "TensorPair(%s)" % body


def coproduct(word):
    """Shuffle coproduct including the two trivial splittings.

    On a word x_1 ... x_r returns the sum over k and (k, r-k)-shuffles of
    Koszul-signed splittings (first block) tensor (second block).
    """
    bundle = word.bundle
    out = TensorPair(bundle, bundle)
    for key, coeff in word.terms.items():
        degs = [bundle.degree(lab) for lab in key]
        r = len(key)
        for k in range(r + 1):
            for perm in shuffles(k, r - k):
                sign = koszul_sign(perm, degs)
                left = tuple(key[i] for i in perm[:k])
                right = tuple(key[i] for i in perm[k:])
                out.add_term(left, right, coeff * sign)
    return out


class MultilinearMap:
    """Graded symmetric multilinear map on frame tuples, valued in words on
    a target bundle (the same bundle for brackets, a different one for
    morphism components).

    fn is only consulted on canonically ordered tuples; evaluation on any
    other order goes through Koszul normalization, and tuples whose
    symmetrization vanishes return zero without consulting fn.
    """

    def __init__(self, source_bundle, target_bundle, arity, degree, fn):
        self.source_bundle = source_bundle
        self.target_bundle = target_bundle
        self.arity = int(arity)
        self.degree = int(degree)
        self.fn = fn

    def value(self, labels):
        if len(labels) != self.arity:
            raise ValueError(
                "map of arity %d applied to %d entries" % (self.arity, len(labels))
            )
        canon, sign = normalize_tuple(labels, self.source_bundle, symmetric=True)
        if sign == 0:
            return SuperFunction.zero(self.target_bundle)
        out = self.fn(canon)
        if sign == -1:
            out = -out
        return out


class Coderivation:
    """Coderivation of the word coalgebra, given by corestrictions.

    corestrictions maps arity k to a MultilinearMap with source and target
    on the same bundle; all must share one degree.  Acting on a word sums,
    over k and (k, r-k)-shuffles, the Koszul-signed replacement of the first
    block by its corestriction value.
    """

    def __init__(self, bundle, corestrictions):
        self.bundle = bundle
        self.corestrictions = dict(corestrictions)
        degrees = {m.degree for m in self.corestrictions.values()}
        if len(degrees) > 1:
            raise ValueError("corestrictions of mixed degree: %r" % degrees)
        self.degree = degrees.pop() if degrees else 0

    def apply_key(self, key, coeff):
        bundle = self.bundle
        out = SuperFunction.zero(bundle)
        degs = [bundle.degree(lab) for lab in key]
        r = len(key)
        for k, cor in self.corestrictions.items():
            if k > r:
                continue
            for perm in shuffles(k, r - k):
                head = cor.value([key[i] for i in perm[:k]])
                if head.is_zero():
                    continue
                rest = tuple(key[i] for i in perm[k:])
                eps = koszul_sign(perm, degs)
                out = out + head * SuperFunction(bundle, {rest: coeff * eps})
        return out

    def apply(self, word):
        out = SuperFunction.zero(self.bundle)
        for key, coeff in word.terms.items():
            out = out + self.apply_key(key, coeff)
        return out


class Cohomomorphism:
    """Coalgebra morphism between word coalgebras, given by a degree-zero
    family of corestrictions (arity r maps source tuples to target words).

    Acting on a word sums over unordered set partitions of the letters
    (graded.set_partitions, the kernel the morphism bracket conditions
    share), one corestriction per block; the 1/s! of the ordered-composition
    picture is exactly the passage to unordered partitions, which is well
    defined because degree-zero maps make every summand independent of
    block order.
    """

    def __init__(self, source_bundle, target_bundle, corestrictions):
        self.source_bundle = source_bundle
        self.target_bundle = target_bundle
        if source_bundle.base_coordinates != target_bundle.base_coordinates:
            raise ValueError(
                "word-level cohomomorphisms assume a shared base chart"
            )
        self.corestrictions = dict(corestrictions)
        for m in self.corestrictions.values():
            if m.degree != 0:
                raise ValueError("cohomomorphism corestrictions must have degree 0")

    def apply_key(self, key, coeff):
        if not key:
            # the empty word is grouplike and maps to the empty word
            return SuperFunction(self.target_bundle, {(): coeff})
        degs = [self.source_bundle.degree(lab) for lab in key]
        out = SuperFunction.zero(self.target_bundle)
        for blocks in set_partitions(range(len(key))):
            piece = None
            for block in blocks:
                cor = self.corestrictions.get(len(block))
                val = None if cor is None else cor.value([key[i] for i in block])
                if val is None or val.is_zero():
                    break
                piece = val if piece is None else piece * val
            else:
                # Koszul sign of regrouping the word into the ordered blocks
                eps = koszul_sign([i for block in blocks for i in block], degs)
                out = out + piece * (coeff * eps)
        return out

    def apply(self, word):
        out = SuperFunction.zero(self.target_bundle)
        for key, coeff in word.terms.items():
            out = out + self.apply_key(key, coeff)
        return out


# ----- law checks -----


def _pair_apply_left(pair, op):
    """Apply a word operator to the left leg of a pair, no crossing sign."""
    out = TensorPair(pair.left_bundle, pair.right_bundle)
    for (lk, rk), c in pair.terms.items():
        word = SuperFunction(
            pair.left_bundle,
            {lk: Polynomial.constant(1, pair.left_bundle.base_coordinates)},
        )
        img = op.apply(word)
        for key, cc in img.terms.items():
            out.add_term(key, rk, c * cc)
    return out


def _pair_apply_right(pair, op, op_degree):
    """Apply a word operator to the right leg, crossing the left leg with
    the operator's degree."""
    out = TensorPair(pair.left_bundle, pair.right_bundle)
    for (lk, rk), c in pair.terms.items():
        ldeg = sum(pair.left_bundle.degree(lab) for lab in lk)
        sign = sign_pow(op_degree * ldeg)
        word = SuperFunction(
            pair.right_bundle,
            {rk: Polynomial.constant(1, pair.right_bundle.base_coordinates)},
        )
        img = op.apply(word)
        for key, cc in img.terms.items():
            out.add_term(lk, key, c * cc * sign)
    return out


def _pair_coproduct_left(pair):
    """(coproduct tensor id) of a pair viewed as already-split words."""
    out = {}
    for (lk, rk), c in pair.terms.items():
        word = SuperFunction(
            pair.left_bundle,
            {lk: Polynomial.constant(1, pair.left_bundle.base_coordinates)},
        )
        split = coproduct(word)
        for (k1, k2), cc in split.terms.items():
            key = (k1, k2, rk)
            out[key] = out.get(key, Polynomial.zero(c.coordinates)) + c * cc
    return {k: v for k, v in out.items() if not v.is_zero()}


def _pair_coproduct_right(pair):
    out = {}
    for (lk, rk), c in pair.terms.items():
        word = SuperFunction(
            pair.right_bundle,
            {rk: Polynomial.constant(1, pair.right_bundle.base_coordinates)},
        )
        split = coproduct(word)
        for (k1, k2), cc in split.terms.items():
            key = (lk, k1, k2)
            out[key] = out.get(key, Polynomial.zero(c.coordinates)) + c * cc
    return {k: v for k, v in out.items() if not v.is_zero()}


def check_coassociativity(bundle, words):
    """(coproduct tensor id) after coproduct equals (id tensor coproduct)
    after coproduct on each given word."""
    for word in words:
        left = _pair_coproduct_left(coproduct(word))
        right = _pair_coproduct_right(coproduct(word))
        keys = set(left) | set(right)
        for key in sorted(keys):
            zero = Polynomial.zero(bundle.base_coordinates)
            if left.get(key, zero) != right.get(key, zero):
                return Outcome(False, witness=(word, key))
    return Outcome(True)


def check_coderivation_law(delta, words):
    """coproduct after delta equals (delta tensor id + id tensor delta)
    after coproduct on each given word."""
    for word in words:
        lhs = coproduct(delta.apply(word))
        split = coproduct(word)
        rhs = _pair_apply_left(split, delta) + _pair_apply_right(
            split, delta, delta.degree
        )
        if not (lhs - rhs).is_zero():
            return Outcome(False, witness=word, detail=lhs - rhs)
    return Outcome(True)


def check_cohomomorphism_law(phi, words):
    """Target coproduct after phi equals (phi tensor phi) after the source
    coproduct on each given word."""
    for word in words:
        lhs = coproduct(phi.apply(word))
        split = coproduct(word)
        rhs = TensorPair(phi.target_bundle, phi.target_bundle)
        for (lk, rk), c in split.terms.items():
            lw = SuperFunction(
                phi.source_bundle,
                {lk: Polynomial.constant(1, phi.source_bundle.base_coordinates)},
            )
            rw = SuperFunction(
                phi.source_bundle,
                {rk: Polynomial.constant(1, phi.source_bundle.base_coordinates)},
            )
            li = phi.apply(lw)
            ri = phi.apply(rw)
            for k1, c1 in li.terms.items():
                for k2, c2 in ri.terms.items():
                    rhs.add_term(k1, k2, c * c1 * c2)
        if not (lhs - rhs).is_zero():
            return Outcome(False, witness=word, detail=lhs - rhs)
    return Outcome(True)
