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
TensorPair, the tensor square.

Coderivations and cohomomorphisms are determined by their corestrictions,
one multilinear map per arity from frame tuples to one-letter words.  The
corestrictions are the sparse tables of graded.py themselves: a symmetric
bracket family gives a coderivation of degree +1, the components of a
MorphismData give a cohomomorphism of degree 0, and graded.table_value
does the Koszul normalization of each lookup.  The 1/s! normalization of
a cohomomorphism is realized as a sum over unordered set partitions.
"""

from __future__ import annotations

from .polyring import Polynomial
from .graded import (
    canonical_tuples,
    normalize_tuple,
    set_partitions,
    shuffles,
)
from .outcome import Outcome
from .signs import koszul_sign, sign_pow
from .superalg import SuperFunction


def _word(bundle, key):
    """The frame word key with coefficient 1."""
    return SuperFunction(
        bundle, {key: Polynomial.constant(1, bundle.base_coordinates)}
    )


def _letters(bundle, entry):
    """A table entry {target label: Polynomial} as a sum of one-letter
    words."""
    return SuperFunction(bundle, {(lab,): c for lab, c in entry.items()})


class TensorPair:
    """Element of (words) tensor (words), for stating the coalgebra laws."""

    __slots__ = ("left_bundle", "right_bundle", "terms")

    def __init__(self, left_bundle, right_bundle):
        self.left_bundle = left_bundle
        self.right_bundle = right_bundle
        self.terms = {}

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

    def __sub__(self, other):
        out = TensorPair(self.left_bundle, self.right_bundle)
        out.terms = dict(self.terms)
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


class _WordMap:
    """A linear map of words, fixed by its value on each frame word."""

    def apply(self, word):
        out = SuperFunction.zero(self.target_bundle)
        for key, coeff in word.terms.items():
            out = out + self.apply_key(key, coeff)
        return out


class Coderivation(_WordMap):
    """Coderivation of degree +1 of the word coalgebra whose corestrictions
    are the brackets of a symmetric family (linfty.AntialgebraStructure).

    Acting on a word sums, over k and (k, r-k)-shuffles, the Koszul-signed
    replacement of the first block by its bracket, a one-letter word.
    """

    degree = 1

    def __init__(self, family):
        self.family = family
        self.target_bundle = family.bundle

    def apply_key(self, key, coeff):
        bundle = self.target_bundle
        out = SuperFunction.zero(bundle)
        degs = [bundle.degree(lab) for lab in key]
        r = len(key)
        for k in self.family.arities():
            if k > r:
                continue
            for perm in shuffles(k, r - k):
                head = self.family.value([key[i] for i in perm[:k]])
                if head.is_zero():
                    continue
                rest = tuple(key[i] for i in perm[k:])
                eps = koszul_sign(perm, degs)
                out = out + _letters(bundle, head.components) * SuperFunction(
                    bundle, {rest: coeff * eps}
                )
        return out


class Cohomomorphism(_WordMap):
    """Coalgebra morphism between word coalgebras whose corestrictions are
    the components of a MorphismData (arity r maps source tuples to target
    letters, degree 0).

    Acting on a word sums over unordered set partitions of the letters
    (graded.set_partitions, the kernel the morphism bracket conditions
    share), one component per block; the 1/s! of the ordered-composition
    picture is exactly the passage to unordered partitions, which is well
    defined because degree-zero maps make every summand independent of
    block order.
    """

    def __init__(self, morph):
        self.source_bundle = source = morph.source_bundle
        self.target_bundle = target = morph.target_bundle
        if source.base_coordinates != target.base_coordinates:
            raise ValueError(
                "word-level cohomomorphisms assume a shared base chart"
            )
        self.morph = morph

    def apply_key(self, key, coeff):
        # the empty word has one partition, with no blocks: it is grouplike
        # and maps to the empty word
        degs = [self.source_bundle.degree(lab) for lab in key]
        out = SuperFunction.zero(self.target_bundle)
        for blocks in set_partitions(range(len(key))):
            # Koszul sign of regrouping the word into the ordered blocks
            eps = koszul_sign([i for block in blocks for i in block], degs)
            piece = SuperFunction(self.target_bundle, {(): coeff * eps})
            for block in blocks:
                entry = self.morph.value([key[i] for i in block])
                if not entry:
                    break
                piece = piece * _letters(self.target_bundle, entry)
            else:
                out = out + piece
        return out


def basis_words(bundle, max_length):
    """All nonvanishing canonical frame words of length 1..max_length."""
    words = []
    for ln in range(1, max_length + 1):
        for key in canonical_tuples(bundle.labels(), ln):
            canon, sign = normalize_tuple(key, bundle, symmetric=True)
            if sign == 0:
                continue
            words.append(_word(bundle, key))
    return words


# ----- law checks -----


def _on_leg(pair, leg, op, degree):
    """op applied to one leg of a pair (leg 0 left, leg 1 right); on the
    right leg op crosses the left one, which signs by its degree."""
    bundles = [pair.left_bundle, pair.right_bundle]
    source = bundles[leg]
    bundles[leg] = op.target_bundle
    out = TensorPair(*bundles)
    for keys, c in pair.terms.items():
        if leg:
            ldeg = sum(pair.left_bundle.degree(lab) for lab in keys[0])
            c = c * sign_pow(degree * ldeg)
        for key, cc in op.apply(_word(source, keys[leg])).terms.items():
            out.add_term(*(keys[:leg] + (key,) + keys[leg + 1 :]), c * cc)
    return out


def _coproduct_on_leg(pair, leg):
    """(coproduct tensor id) for leg 0, (id tensor coproduct) for leg 1, of
    a pair viewed as already-split words, keyed by word triples."""
    bundle = (pair.left_bundle, pair.right_bundle)[leg]
    out = {}
    for keys, c in pair.terms.items():
        for split, cc in coproduct(_word(bundle, keys[leg])).terms.items():
            key = keys[:leg] + split + keys[leg + 1 :]
            out[key] = out.get(key, Polynomial.zero(c.coordinates)) + c * cc
    return {k: v for k, v in out.items() if not v.is_zero()}


def check_coassociativity(bundle, words):
    """(coproduct tensor id) after coproduct equals (id tensor coproduct)
    after coproduct on each given word."""
    for word in words:
        left = _coproduct_on_leg(coproduct(word), 0)
        right = _coproduct_on_leg(coproduct(word), 1)
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
        split = coproduct(word)
        diff = (
            coproduct(delta.apply(word))
            - _on_leg(split, 0, delta, delta.degree)
            - _on_leg(split, 1, delta, delta.degree)
        )
        if not diff.is_zero():
            return Outcome(False, witness=word, detail=diff)
    return Outcome(True)


def check_cohomomorphism_law(phi, words):
    """Target coproduct after phi equals (phi tensor phi) after the source
    coproduct on each given word."""
    for word in words:
        split = coproduct(word)
        rhs = _on_leg(_on_leg(split, 0, phi, 0), 1, phi, 0)
        diff = coproduct(phi.apply(word)) - rhs
        if not diff.is_zero():
            return Outcome(False, witness=word, detail=diff)
    return Outcome(True)
