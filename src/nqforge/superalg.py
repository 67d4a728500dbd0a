"""Function algebra of a split graded manifold and its graded derivations.

Functions are polynomials in the base coordinates and in anticommuting or
commuting generators, one generator per frame label of a graded bundle, with
the generator dual to a frame of degree -a carrying standard degree a.  Odd
generators square to zero, even ones behave like ordinary variables, and all
reorderings follow Koszul's rule in the standard degree.

Derivations are stored by their images on the algebra generators (base
coordinates and generators); no degree is stored.  Whenever a sign needs a
degree, the derivation is split into standard-homogeneous parts, once per
derivation, so inhomogeneous derivations (sums of parts of different degree)
work throughout.  The homological weight counts generators; splitting by it
gives the arity components of a vector field.

The evaluation dictionary at the bottom identifies elements with polynomial
coefficients with multilinear maps on frame sections; its sign convention
lives in signs.evaluation_sign.
"""

from __future__ import annotations

from .polyring import Polynomial
from .graded import GradedBundle, Section
from .signs import evaluation_sign, interior_pairing_sign, sign_pow


def _normal_order(labels, bundle):
    """Sort a generator word into canonical order: (key, sign), sign 0 when
    an odd generator repeats."""
    arr = list(labels)
    key = lambda lab: bundle.label_index[lab]
    sign = 1
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if key(arr[j]) > key(arr[j + 1]):
                sign *= sign_pow(
                    bundle.generator_degree(arr[j])
                    * bundle.generator_degree(arr[j + 1])
                )
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    for j in range(len(arr) - 1):
        if arr[j] == arr[j + 1] and bundle.generator_degree(arr[j]) % 2 != 0:
            return tuple(arr), 0
    return tuple(arr), sign


class SuperFunction:
    """Sparse polynomial in base coordinates and graded generators."""

    __slots__ = ("bundle", "terms")

    def __init__(self, bundle, terms=None):
        self.bundle = bundle
        clean = {}
        if terms:
            for labels, coeff in terms.items():
                if not isinstance(coeff, Polynomial):
                    coeff = Polynomial.constant(coeff, bundle.base_coordinates)
                if coeff.is_zero():
                    continue
                key, sign = _normal_order(tuple(labels), bundle)
                if sign == 0:
                    continue
                if sign == -1:
                    coeff = -coeff
                if key in clean:
                    clean[key] = clean[key] + coeff
                    if clean[key].is_zero():
                        del clean[key]
                else:
                    clean[key] = coeff
        self.terms = clean

    # ----- constructors -----

    @classmethod
    def zero(cls, bundle):
        return cls(bundle, {})

    @classmethod
    def from_polynomial(cls, poly, bundle):
        return cls(bundle, {(): poly})

    @classmethod
    def constant(cls, value, bundle):
        return cls(bundle, {(): Polynomial.constant(value, bundle.base_coordinates)})

    @classmethod
    def generator(cls, label, bundle):
        if label not in bundle.label_index:
            raise KeyError("unknown generator %r" % label)
        one = Polynomial.constant(1, bundle.base_coordinates)
        return cls(bundle, {(label,): one})

    # ----- structure -----

    def is_zero(self):
        return not self.terms

    def coefficient(self, labels):
        key, sign = _normal_order(tuple(labels), self.bundle)
        zero = Polynomial.zero(self.bundle.base_coordinates)
        if sign == 0:
            return zero
        got = self.terms.get(key, zero)
        return got if sign == 1 else -got

    def body(self):
        """The generator-free part, as a Polynomial."""
        return self.terms.get((), Polynomial.zero(self.bundle.base_coordinates))

    def _key_std(self, key):
        return sum(self.bundle.generator_degree(lab) for lab in key)

    def std_parts(self):
        """Split by standard degree: {k: homogeneous part}."""
        parts = {}
        for key, coeff in self.terms.items():
            k = self._key_std(key)
            parts.setdefault(k, {})[key] = coeff
        return {k: SuperFunction(self.bundle, t) for k, t in sorted(parts.items())}

    def std_part(self, k):
        return SuperFunction(
            self.bundle,
            {key: c for key, c in self.terms.items() if self._key_std(key) == k},
        )

    def std_degree(self):
        degs = sorted({self._key_std(key) for key in self.terms})
        if not degs:
            return None
        if len(degs) != 1:
            raise ValueError("element is not homogeneous: degrees %r" % degs)
        return degs[0]

    def homological_parts(self):
        """Split by generator count: {s: part with s generators per term}."""
        parts = {}
        for key, coeff in self.terms.items():
            parts.setdefault(len(key), {})[key] = coeff
        return {s: SuperFunction(self.bundle, t) for s, t in sorted(parts.items())}

    def homological_part(self, s):
        return SuperFunction(
            self.bundle,
            {key: c for key, c in self.terms.items() if len(key) == s},
        )

    # ----- arithmetic -----

    def _check(self, other):
        if not self.bundle.same_frames(other.bundle):
            raise ValueError("elements live on different graded manifolds")

    def __add__(self, other):
        if isinstance(other, (int, Polynomial)):
            other = SuperFunction(self.bundle, {(): other})
        if not isinstance(other, SuperFunction):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            if key in terms:
                s = terms[key] + coeff
                if s.is_zero():
                    del terms[key]
                else:
                    terms[key] = s
            else:
                terms[key] = coeff
        out = SuperFunction.__new__(SuperFunction)
        out.bundle = self.bundle
        out.terms = terms
        return out

    def __neg__(self):
        out = SuperFunction.__new__(SuperFunction)
        out.bundle = self.bundle
        out.terms = {key: -c for key, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Polynomial)):
            other = SuperFunction(self.bundle, {(): other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SuperFunction):
            self._check(other)
            out = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key, sign = _normal_order(k1 + k2, self.bundle)
                    if sign == 0:
                        continue
                    c = c1 * c2
                    if sign == -1:
                        c = -c
                    if key in out:
                        out[key] = out[key] + c
                        if out[key].is_zero():
                            del out[key]
                    elif not c.is_zero():
                        out[key] = c
            result = SuperFunction.__new__(SuperFunction)
            result.bundle = self.bundle
            result.terms = out
            return result
        # scalars and polynomial coefficients commute with everything
        return SuperFunction(
            self.bundle, {key: c * other for key, c in self.terms.items()}
        )

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if isinstance(other, (int, Polynomial)):
            other = SuperFunction(self.bundle, {(): other})
        if not isinstance(other, SuperFunction):
            return NotImplemented
        return self.bundle.same_frames(other.bundle) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        ordered = sorted(
            self.terms.items(),
            key=lambda kv: (
                self._key_std(kv[0]),
                tuple(self.bundle.label_index[lab] for lab in kv[0]),
            ),
        )
        for key, coeff in ordered:
            word = "*".join(key)
            cs = str(coeff)
            negated = False
            if not key:
                body = cs
                if cs.startswith("-") and "+" not in cs and " - " not in cs:
                    negated = True
                    body = cs[1:]
            elif coeff.is_constant():
                v = coeff.constant_value()
                mag = abs(v)
                negated = v < 0
                if mag == 1:
                    body = word
                else:
                    num = str(mag) if mag.denominator == 1 else "%s" % mag
                    body = "%s*%s" % (num, word)
            elif len(coeff.terms) == 1:
                if cs.startswith("-"):
                    negated = True
                    cs = cs[1:]
                body = "%s*%s" % (cs, word)
            else:
                body = "(%s)*%s" % (cs, word)
            if not pieces:
                pieces.append("-" + body if negated else body)
            else:
                pieces.append(("- " if negated else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return "SuperFunction(%s)" % str(self)


class Derivation:
    """Graded derivation of the function algebra, stored by generator images.

    images maps base coordinates and generator labels to SuperFunctions;
    missing entries mean zero.  Nothing homogeneous is assumed: apply and
    commutator split into standard-degree parts internally, so sums of
    parts of different degrees are fine.  That split is computed once per
    derivation and cached, so images must not be mutated after
    construction; build a new Derivation instead.
    """

    def __init__(self, bundle, images=None):
        self.bundle = bundle
        self.images = {}
        self._std_parts = None
        valid = set(bundle.base_coordinates) | set(bundle.label_index)
        if images:
            for name, img in images.items():
                if name not in valid:
                    raise KeyError("unknown algebra generator %r" % name)
                if isinstance(img, Polynomial):
                    img = SuperFunction.from_polynomial(img, bundle)
                if not img.is_zero():
                    self.images[name] = img

    def image(self, name):
        return self.images.get(name, SuperFunction.zero(self.bundle))

    def is_zero(self):
        return not self.images

    def _key_std(self, name):
        if name in self.bundle.label_index:
            return self.bundle.generator_degree(name)
        return 0

    def std_parts(self):
        """Split into standard-homogeneous derivations: {l: part of degree l}.

        Computed on the first call and cached; each part is its own split.
        Callers must not mutate the returned dict."""
        if self._std_parts is None:
            parts = {}
            for name, img in self.images.items():
                d = self._key_std(name)
                for k, piece in img.std_parts().items():
                    parts.setdefault(k - d, {})[name] = piece
            self._std_parts = {}
            for l, imgs in sorted(parts.items()):
                part = Derivation(self.bundle, imgs)
                part._std_parts = {l: part}
                self._std_parts[l] = part
        return self._std_parts

    def std_degree(self):
        degs = sorted(self.std_parts())
        if not degs:
            return None
        if len(degs) != 1:
            raise ValueError("derivation is not homogeneous: degrees %r" % degs)
        return degs[0]

    def homological_parts(self):
        """Split by generator-count weight: {s: part raising the count by s}.

        Interior products sit at weight -1, vector fields built from arity-r
        structure functions at weight r - 1.
        """
        parts = {}
        for name, img in self.images.items():
            base = 1 if name in self.bundle.label_index else 0
            for s_img, piece in img.homological_parts().items():
                parts.setdefault(s_img - base, {})[name] = piece
        return {
            s: Derivation(self.bundle, imgs) for s, imgs in sorted(parts.items())
        }

    def homological_part(self, s):
        return self.homological_parts().get(s, Derivation(self.bundle))

    # ----- algebra of derivations -----

    def __add__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        images = dict(self.images)
        for name, img in other.images.items():
            total = images.get(name, SuperFunction.zero(self.bundle)) + img
            if total.is_zero():
                images.pop(name, None)
            else:
                images[name] = total
        return Derivation(self.bundle, images)

    def __neg__(self):
        return Derivation(self.bundle, {n: -img for n, img in self.images.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return Derivation(
            self.bundle, {n: img * factor for n, img in self.images.items()}
        )

    # ----- action -----

    def apply(self, f):
        result = SuperFunction.zero(self.bundle)
        for l, part in self.std_parts().items():
            result = result + part._apply_part(l, f)
        return result

    def _apply_part(self, l, f):
        bundle = self.bundle
        out = SuperFunction.zero(bundle)
        one = Polynomial.constant(1, bundle.base_coordinates)
        for key, coeff in f.terms.items():
            mono = SuperFunction(bundle, {key: one})
            for x in bundle.base_coordinates:
                img = self.images.get(x)
                if img is None:
                    continue
                d = coeff.partial(x)
                if d.is_zero():
                    continue
                out = out + (img * d) * mono
            prefix = 0
            for p, lab in enumerate(key):
                img = self.images.get(lab)
                if img is not None:
                    sign = sign_pow(l * prefix)
                    left = SuperFunction(bundle, {key[:p]: coeff})
                    right = SuperFunction(bundle, {key[p + 1:]: one})
                    term = left * img * right
                    if sign == -1:
                        term = -term
                    out = out + term
                prefix += bundle.generator_degree(lab)
        return out

    def commutator(self, other):
        """Graded commutator [self, other], computed part by part."""
        bundle = self.bundle
        names = list(bundle.base_coordinates) + list(bundle.label_index)
        total = Derivation(bundle)
        for a, da in self.std_parts().items():
            for b, db in other.std_parts().items():
                sign = sign_pow(a * b)
                images = {}
                for name in names:
                    img = da.apply(db.image(name)) - db.apply(da.image(name)) * sign
                    if not img.is_zero():
                        images[name] = img
                total = total + Derivation(bundle, images)
        return total

    def __repr__(self):
        if not self.images:
            return "Derivation(0)"
        body = "; ".join(
            "%s -> %s" % (n, img)
            for n, img in sorted(self.images.items())
        )
        return "Derivation(%s)" % body


# ----- distinguished derivations -----


def euler_standard(bundle):
    """Weight field of the standard grading: eats a function of standard
    degree k and returns k times it."""
    images = {}
    for lab in bundle.label_index:
        images[lab] = SuperFunction.generator(lab, bundle) * bundle.generator_degree(lab)
    return Derivation(bundle, images)


def euler_homological(bundle):
    """Weight field of the generator count: multiplies an s-generator term
    by s."""
    images = {lab: SuperFunction.generator(lab, bundle) for lab in bundle.label_index}
    return Derivation(bundle, images)


def interior_product(section):
    """Contraction against a section of the unshifted bundle.

    Sends the generator dual to a degree-(-a) frame to (-1)^a times the
    section's coefficient on that frame, and everything else to zero; a
    derivation of standard degree -a on homogeneous sections, of homological
    weight -1 always.
    """
    bundle = section.bundle
    if bundle.side != "E":
        raise ValueError("interior products contract unshifted sections")
    images = {}
    for lab, coeff in section.components.items():
        a = bundle.magnitude(lab)
        img = coeff * interior_pairing_sign(a)
        images[lab] = SuperFunction.from_polynomial(img, bundle)
    return Derivation(bundle, images)


def extract_section(deriv):
    """Inverse of interior_product on derivations of homological weight -1.

    Raises ValueError when the derivation is not a contraction (nonzero
    image on a base coordinate, or a generator image that still contains
    generators).
    """
    bundle = deriv.bundle
    for x in bundle.base_coordinates:
        if not deriv.image(x).is_zero():
            raise ValueError("derivation moves base coordinate %r" % x)
    comps = {}
    for lab in bundle.label_index:
        img = deriv.image(lab)
        if img.is_zero():
            continue
        for key in img.terms:
            if key:
                raise ValueError(
                    "image of %r contains generators; not a contraction" % lab
                )
        a = bundle.magnitude(lab)
        comps[lab] = img.body() * interior_pairing_sign(a)
    return Section(bundle, comps)


# ----- homological check -----


class SquareReport:
    """Outcome of squaring an odd vector field on all algebra generators."""

    def __init__(self, ok, witness=None, residual=None):
        self.ok = ok
        self.witness = witness
        self.residual = residual

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "SquareReport(ok)"
        return "SquareReport(fail at %r: %s)" % (self.witness, self.residual)


def check_homological(q):
    """Verify q(q(v)) = 0 for every base coordinate and generator v.

    Returns a SquareReport whose witness is the first failing name in
    canonical order together with the residual element.
    """
    bundle = q.bundle
    for name in list(bundle.base_coordinates) + bundle.labels():
        res = q.apply(q.image(name))
        if not res.is_zero():
            return SquareReport(False, witness=name, residual=res)
    return SquareReport(True)


# ----- the evaluation dictionary -----


def evaluate_element(element, sections):
    """Pair an element of the function algebra with a tuple of homogeneous
    sections, producing a polynomial on the base.

    Applies the interior products of the sections in tuple order and fixes
    the overall sign with evaluation_sign of the degree magnitudes; the
    result is the multilinear-map value the element represents.  The element
    must have exactly len(sections) generators in every term (restrict to a
    homological part first if needed).
    """
    mags = []
    current = element
    for sec in sections:
        mags.append(-sec.degree())
        current = interior_product(sec).apply(current)
    for key in current.terms:
        if key:
            raise ValueError(
                "element arity does not match the number of sections"
            )
    return current.body() * evaluation_sign(mags)


def element_from_values(bundle, values):
    """Inverse of evaluate_element on frame tuples.

    values maps canonically ordered frame-label tuples to the polynomial the
    represented map takes there; returns the unique element with those
    values.  Tuples whose symmetry forces zero must not appear.
    """
    result = SuperFunction.zero(bundle)
    one = Polynomial.constant(1, bundle.base_coordinates)
    for labels, value in values.items():
        if value.is_zero():
            continue
        key, sign = _normal_order(tuple(labels), bundle)
        if sign == 0:
            raise ValueError(
                "tuple %r pairs to zero with every element" % (labels,)
            )
        mono = SuperFunction(bundle, {key: one})
        frames = [bundle.frame_section(lab) for lab in key]
        diag = evaluate_element(mono, frames)
        scale = value * (sign / diag.constant_value())
        result = result + SuperFunction(bundle, {key: scale})
    return result
