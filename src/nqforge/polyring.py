"""Exact multivariate polynomial arithmetic over named base coordinates.

Coefficients are fractions.Fraction throughout; nothing in the package ever
touches floats.  A polynomial knows its coordinate tuple, terms are stored
sparsely as {exponent tuple: coefficient}, and printing uses graded
lexicographic order so equal polynomials always print identically.

Polynomials over an empty coordinate tuple (rank-zero base, "over a point")
are ordinary rationals and every operation below supports them.
"""

from __future__ import annotations

from fractions import Fraction


class Polynomial:
    __slots__ = ("coordinates", "terms")

    def __init__(self, coordinates, terms=None):
        self.coordinates = tuple(coordinates)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(self.coordinates):
                    raise ValueError(
                        "exponent tuple %r does not match coordinates %r"
                        % (exps, self.coordinates)
                    )
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in %r" % (exps,))
                c = Fraction(coeff)
                if c != 0:
                    clean[exps] = clean.get(exps, Fraction(0)) + c
                    if clean[exps] == 0:
                        del clean[exps]
        self.terms = clean

    # ----- constructors -----

    @classmethod
    def zero(cls, coordinates):
        return cls(coordinates, {})

    @classmethod
    def constant(cls, value, coordinates):
        value = Fraction(value)
        if value == 0:
            return cls.zero(coordinates)
        key = (0,) * len(tuple(coordinates))
        return cls(coordinates, {key: value})

    @classmethod
    def variable(cls, name, coordinates):
        coordinates = tuple(coordinates)
        idx = coordinates.index(name)
        key = tuple(1 if i == idx else 0 for i in range(len(coordinates)))
        return cls(coordinates, {key: Fraction(1)})

    # ----- predicates and helpers -----

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial %s is not constant" % self)
        if not self.terms:
            return Fraction(0)
        return next(iter(self.terms.values()))

    def _check_same_ring(self, other):
        if self.coordinates != other.coordinates:
            raise ValueError(
                "coordinate mismatch: %r vs %r"
                % (self.coordinates, other.coordinates)
            )

    # ----- arithmetic -----

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.coordinates)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
            if terms[exps] == 0:
                del terms[exps]
        out = Polynomial.__new__(Polynomial)
        out.coordinates = self.coordinates
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.coordinates = self.coordinates
        out.terms = {exps: -c for exps, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.coordinates)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.coordinates)
            out = Polynomial.__new__(Polynomial)
            out.coordinates = self.coordinates
            out.terms = {exps: coeff * c for exps, coeff in self.terms.items()}
            return out
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        terms = {k: v for k, v in terms.items() if v != 0}
        out = Polynomial.__new__(Polynomial)
        out.coordinates = self.coordinates
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = Fraction(other)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return self * (Fraction(1) / c)

    def __pow__(self, exponent):
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1, self.coordinates)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.coordinates)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coordinates == other.coordinates and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # ----- calculus -----

    def partial(self, name):
        """Partial derivative with respect to the named coordinate."""
        idx = self.coordinates.index(name)
        terms = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            key = tuple(v - 1 if i == idx else v for i, v in enumerate(exps))
            terms[key] = terms.get(key, Fraction(0)) + c * e
        return Polynomial(self.coordinates, terms)

    def substitute(self, images, coordinates):
        """Evaluate with each coordinate replaced by images[name].

        images maps every coordinate name of self to a Polynomial over the
        given target coordinate tuple.  Returns a Polynomial over that tuple.
        """
        coordinates = tuple(coordinates)
        result = Polynomial.zero(coordinates)
        for exps, c in self.terms.items():
            term = Polynomial.constant(c, coordinates)
            for name, e in zip(self.coordinates, exps):
                if e:
                    term = term * (images[name] ** e)
            result = result + term
        return result

    # ----- ordering and printing -----

    def sorted_terms(self):
        """Terms in descending graded lexicographic order."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return "Polynomial(%r, %s)" % (self.coordinates, str(self))


def _format_coefficient(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def _format_monomial(exps, coordinates):
    parts = []
    for name, e in zip(coordinates, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def format_polynomial(poly):
    if not poly.terms:
        return "0"
    pieces = []
    for exps, c in poly.sorted_terms():
        mono = _format_monomial(exps, poly.coordinates)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = "%s*%s" % (_format_coefficient(mag), mono)
        else:
            body = _format_coefficient(mag)
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial input; carries position info."""

    def __init__(self, message, line=1, column=1):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


def _tokenize(text):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if text.startswith("**", i):
            tokens.append(("op", "^", line, start_col))
            i += 2
            col += 2
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise PolynomialSyntaxError("unexpected character %r" % ch, line, col)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, coordinates):
        self.tokens = tokens
        self.pos = 0
        self.coordinates = tuple(coordinates)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message):
        kind, value, line, col = self.peek()
        raise PolynomialSyntaxError(message, line, col)

    def parse(self):
        poly = self.expr()
        if self.peek()[0] != "end":
            self.error("trailing input after polynomial")
        return poly

    def expr(self):
        kind, value, _, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.advance()
            negate = value == "-"
        result = self.term()
        if negate:
            result = -result
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result - rhs if value == "-" else result + rhs
            else:
                return result

    def term(self):
        result = self.factor()
        while True:
            kind, value, _, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.factor()
            elif kind == "op" and value == "/":
                self.advance()
                divisor = self.factor()
                if not divisor.is_constant() or divisor.constant_value() == 0:
                    self.error("division is only defined by nonzero constants")
                result = result * (Fraction(1) / divisor.constant_value())
            else:
                return result

    def factor(self):
        kind, value, _, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.factor()
            return -inner if value == "-" else inner
        base = self.atom()
        kind, value, _, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, _, _ = self.peek()
            if kind != "num":
                self.error("exponent must be a nonnegative integer")
            self.advance()
            return base ** int(value)
        return base

    def atom(self):
        kind, value, _, _ = self.peek()
        if kind == "num":
            self.advance()
            return Polynomial.constant(int(value), self.coordinates)
        if kind == "name":
            if value not in self.coordinates:
                self.error("unknown coordinate %r" % value)
            self.advance()
            return Polynomial.variable(value, self.coordinates)
        if kind == "op" and value == "(":
            self.advance()
            inner = self.expr()
            kind, value, _, _ = self.peek()
            if not (kind == "op" and value == ")"):
                self.error("expected closing parenthesis")
            self.advance()
            return inner
        self.error("expected a number, coordinate, or parenthesized expression")


def parse_polynomial(text, coordinates):
    """Parse an infix polynomial string over the given coordinates.

    Supports + - * / ^ (and ** as a synonym for ^), parentheses, integer
    and a/b rational literals.  Division is restricted to nonzero constant
    divisors so the result stays polynomial.
    """
    return _Parser(_tokenize(text), coordinates).parse()


class BaseMap:
    """Polynomial map between coordinate patches, stored by coordinate images.

    source_coordinates name the domain chart, target_coordinates the codomain
    chart, and images[y] is the pullback of the target coordinate y as a
    Polynomial over the source chart.
    """

    def __init__(self, source_coordinates, target_coordinates, images):
        self.source_coordinates = tuple(source_coordinates)
        self.target_coordinates = tuple(target_coordinates)
        self.images = {}
        for name in self.target_coordinates:
            if name not in images:
                raise ValueError("missing image for target coordinate %r" % name)
            img = images[name]
            if img.coordinates != self.source_coordinates:
                raise ValueError(
                    "image of %r lives on %r, expected %r"
                    % (name, img.coordinates, self.source_coordinates)
                )
            self.images[name] = img

    @classmethod
    def identity(cls, coordinates):
        coordinates = tuple(coordinates)
        return cls(
            coordinates,
            coordinates,
            {name: Polynomial.variable(name, coordinates) for name in coordinates},
        )

    def pullback(self, poly):
        """Pull a Polynomial on the target chart back to the source chart."""
        if poly.coordinates != self.target_coordinates:
            raise ValueError(
                "polynomial lives on %r, expected %r"
                % (poly.coordinates, self.target_coordinates)
            )
        return poly.substitute(self.images, self.source_coordinates)

    def compose(self, other):
        """The composite map self after other (other's target feeds self)."""
        if other.target_coordinates != self.source_coordinates:
            raise ValueError("charts do not line up for composition")
        images = {
            name: other.pullback(img) for name, img in self.images.items()
        }
        return BaseMap(other.source_coordinates, self.target_coordinates, images)

    def __repr__(self):
        body = ", ".join(
            "%s -> %s" % (name, self.images[name]) for name in self.target_coordinates
        )
        return "BaseMap(%s)" % body
