import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nqforge.polyring import (
    BaseMap,
    Polynomial,
    PolynomialSyntaxError,
    parse_polynomial,
)

XY = ("x", "y")


def P(text, coords=XY):
    return parse_polynomial(text, coords)


def test_constant_and_variable():
    three = Polynomial.constant(3, XY)
    assert three.is_constant()
    assert three.constant_value() == 3
    x = Polynomial.variable("x", XY)
    assert not x.is_constant()


def test_arithmetic():
    x = Polynomial.variable("x", XY)
    y = Polynomial.variable("y", XY)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert -p == p * (-1)
    assert p * 0 == Polynomial.zero(XY)


def test_int_and_fraction_scalars():
    x = Polynomial.variable("x", XY)
    assert x * 2 == x + x
    half = x * Fraction(1, 2)
    assert half + half == x
    assert (x / 2) * 2 == x


def test_pow():
    x = Polynomial.variable("x", XY)
    assert x ** 3 == x * x * x
    assert x ** 0 == Polynomial.constant(1, XY)


def test_division_by_nonconstant_rejected():
    x = Polynomial.variable("x", XY)
    with pytest.raises((ValueError, ZeroDivisionError, TypeError)):
        x / x


def test_partial():
    p = P("x^2*y + 3*y")
    assert p.partial("x") == P("2*x*y")
    assert p.partial("y") == P("x^2 + 3")
    assert p.partial("x").partial("y") == P("2*x")


def test_substitute_composes():
    p = P("x^2 + y")
    q = p.substitute({"x": P("u + v", ("u", "v")), "y": P("u*v", ("u", "v"))}, ("u", "v"))
    u = Polynomial.variable("u", ("u", "v"))
    v = Polynomial.variable("v", ("u", "v"))
    assert q == (u + v) * (u + v) + u * v


def test_parse_basics():
    assert P("x + 2*y") == Polynomial.variable("x", XY) + Polynomial.variable("y", XY) * 2
    assert P("x^2") == P("x*x")
    assert P("x**2") == P("x^2")
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("3/2") == Polynomial.constant(Fraction(3, 2), XY)
    assert P("-x") == -Polynomial.variable("x", XY)
    assert P("x - -y") == P("x + y")


def test_parse_unknown_name():
    with pytest.raises(PolynomialSyntaxError):
        P("x + z")


def test_parse_error_locations():
    with pytest.raises(PolynomialSyntaxError) as err:
        P("x +")
    assert err.value.line == 1
    assert err.value.column >= 3
    with pytest.raises(PolynomialSyntaxError) as err:
        P("x +\n* y")
    assert err.value.line == 2


@st.composite
def polynomials(draw):
    coords = XY
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-5, max_value=5),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=5,
        )
    )
    x = Polynomial.variable("x", coords)
    y = Polynomial.variable("y", coords)
    total = Polynomial.zero(coords)
    for c, i, j in terms:
        total = total + x ** i * y ** j * c
    return total


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_printer_parser_roundtrip(p):
    assert parse_polynomial(str(p), XY) == p


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=30, deadline=None)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a


def test_base_map_identity_and_pullback():
    ident = BaseMap.identity(XY)
    assert ident.is_identity()
    p = P("x^2 + y")
    assert ident.pullback(p) == p


def test_base_map_compose():
    # u -> (u^2, u) -> x*y should pull a function of (x, y) back to u^3 form
    inner = BaseMap(("u",), XY, {
        "x": parse_polynomial("u^2", ("u",)),
        "y": parse_polynomial("u", ("u",)),
    })
    outer = BaseMap(XY, ("w",), {"w": parse_polynomial("x*y", XY)})
    comp = outer.compose(inner)
    w = parse_polynomial("w", ("w",))
    assert comp.pullback(w) == parse_polynomial("u^3", ("u",))
    # pullback respects products
    assert inner.pullback(P("x*y")) == inner.pullback(P("x")) * inner.pullback(P("y"))

