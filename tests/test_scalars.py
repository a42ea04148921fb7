"""Ring protocol and sparse polynomial arithmetic against a Fraction oracle."""
import re
from fractions import Fraction

import numpy as np
import pytest

from ddt7 import g2, scalars
from ddt7.errors import InputError, NumericalError
from ddt7.exalg import KForm, hodge
from ddt7.scalars import (BATCH, EXPONENT_BOUND, FLOAT, RATIONAL, MultiPoly, PolyRing,
                          frac, rational)


def test_float_ring_protocol():
    assert FLOAT.coerce(Fraction(1, 4)) == 0.25
    assert FLOAT.is_zero(0.0)
    assert not FLOAT.is_zero(1e-300)
    assert FLOAT.div(1.0, 4.0) == 0.25


def test_rational_ring_protocol():
    third = RATIONAL.coerce(Fraction(1, 3))
    assert third * 3 == 1
    assert RATIONAL.coerce(2) == 2
    assert RATIONAL.is_zero(third - third)
    assert RATIONAL.div(RATIONAL.one, RATIONAL.coerce(7)) * 7 == 1
    with pytest.raises(InputError):
        RATIONAL.coerce(0.5)
    with pytest.raises(ZeroDivisionError):
        RATIONAL.div(RATIONAL.one, RATIONAL.zero)


def _random_terms(rng, nvars, nterms=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(int(x) for x in rng.integers(0, 3, size=nvars))
        c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        terms[e] = terms.get(e, Fraction(0)) + c
    return {e: c for e, c in terms.items() if c != 0}


def _poly_from_terms(ring, terms):
    p = ring.zero
    for e, c in terms.items():
        mono = ring.coerce(c)
        for v, power in zip(ring.vars(), e):
            for _ in range(power):
                mono = mono * v
        p = p + mono
    return p


def _oracle_mul(t1, t2):
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _decoded(p):
    return {p.ring.exponents(k): c for k, c in p.terms.items()}


def test_poly_mul_matches_oracle():
    ring = PolyRing(("x", "y", "z"), bound=12)   # products reach total degree 12
    rng = np.random.default_rng(11)
    for _ in range(20):
        t1 = _random_terms(rng, 3)
        t2 = _random_terms(rng, 3)
        prod = _poly_from_terms(ring, t1) * _poly_from_terms(ring, t2)
        expect = _oracle_mul(t1, t2)
        assert set(_decoded(prod)) == set(expect)
        for e, c in expect.items():
            assert _decoded(prod)[e] == c
        assert all(type(c) is int or c.denominator > 1 for c in prod.terms.values())


def test_poly_add_sub_roundtrip():
    ring = PolyRing(("x", "y"))
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = _poly_from_terms(ring, _random_terms(rng, 2))
        q = _poly_from_terms(ring, _random_terms(rng, 2))
        assert ((p + q) - q) == p
        assert (p - p).is_zero()


def test_poly_evaluate_is_a_homomorphism():
    ring = PolyRing(("x", "y"), bound=8)   # products reach total degree 8
    rng = np.random.default_rng(7)
    point = [Fraction(2, 3), Fraction(-5, 4)]
    for _ in range(10):
        p = _poly_from_terms(ring, _random_terms(rng, 2))
        q = _poly_from_terms(ring, _random_terms(rng, 2))
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_poly_division_rules():
    ring = PolyRing(("x",))
    x = ring.var("x")
    assert (x * 6) / 2 == x * 3
    assert x / ring.coerce(2) == x * Fraction(1, 2)
    with pytest.raises(InputError):
        _ = x / x
    with pytest.raises(ZeroDivisionError):
        _ = x / 0


def test_leading_and_monomial_str():
    ring = PolyRing(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    p = x * x * y * 4 + y * y * 9
    e, c = p.leading()
    # lexicographic order on exponent tuples puts (0, 2) before (2, 1)
    assert e == (0, 2) and c == 9
    assert p.monomial_str((2, 1)) == "x^2*y"
    assert p.monomial_str((0, 0)) == "1"
    assert p.total_degree() == 3
    assert p.nterms() == 2


@pytest.mark.parametrize("bound", [4, EXPONENT_BOUND], ids=["radix5", "shared"])
def test_carry_guard_at_the_ring_bound(bound):
    ring = PolyRing(("x", "y"), bound=bound)
    x = ring.var("x")
    p = x
    for _ in range(bound - 1):
        p = p * x
    key = ring.key((bound, 0))
    assert p.terms == {key: 1} and p.deg == bound
    assert key == bound * ring.radix and ring.exponents(key) == (bound, 0)
    assert p.leading() == ((bound, 0), 1) and p.monomial_str((bound, 0)) == f"x^{bound}"
    # one more factor of x would carry into the next digit: refused before
    # any key forms
    with pytest.raises(NumericalError):
        _ = p * x
    with pytest.raises(NumericalError):
        _ = p * (x + ring.var("y"))
    with pytest.raises(NumericalError):
        ring.key((bound + 1, 0))
    # a factor in y alone leaves every exponent within the bound
    q = p * (ring.var("y") + 1)
    assert q.terms == {ring.key((bound, 1)): 1, key: 1}


@pytest.mark.parametrize("bound", [4, EXPONENT_BOUND], ids=["radix5", "shared"])
def test_product_guard_checks_each_exponent(bound):
    """A product past the total-degree bound is refused only when one
    variable's exponent would pass the ring's bound: x^4 * y^4 fits at the
    shared bound 7, x^4 * x^4 does not."""
    ring = PolyRing(("x", "y"), bound=bound)
    x, y = ring.var("x"), ring.var("y")
    half = bound // 2 + 1
    xh, yh = x, y
    for _ in range(half - 1):
        xh, yh = xh * x, yh * y
    assert xh.deg + yh.deg > bound
    assert (xh * yh).terms == {ring.key((half, half)): 1}
    with pytest.raises(NumericalError):
        _ = xh * xh


@pytest.mark.parametrize("bound", [4, EXPONENT_BOUND], ids=["radix5", "shared"])
def test_key_order_is_lexicographic_order(bound):
    ring = PolyRing(("x", "y", "z", "w"), bound=bound)
    rng = np.random.default_rng(bound)
    for _ in range(50):
        terms = {tuple(int(x) for x in rng.integers(0, bound + 1, 4)): int(rng.integers(1, 9))
                 for _ in range(int(rng.integers(1, 8)))}
        p = MultiPoly(ring, {ring.key(e): c for e, c in terms.items()})
        assert _decoded(p) == terms
        e = min(terms)
        assert p.leading() == (e, terms[e])
        assert p.total_degree() == max(map(sum, terms))


@pytest.mark.parametrize("op", [
    lambda x: x * 0.5, lambda x: 0.5 * x, lambda x: x + 0.25, lambda x: 0.25 + x,
    lambda x: x - 0.25, lambda x: 0.25 - x, lambda x: x / 0.5,
    lambda x: x * np.float64(2), lambda x: np.float64(2) * x, lambda x: x + np.int64(1),
    lambda x: MultiPoly.const(x.ring, 0.5), lambda x: x.ring.coerce(np.float64(1.0))],
    ids=["mul", "rmul", "add", "radd", "sub", "rsub", "div", "mul-np", "rmul-np",
         "add-npint", "const", "coerce"])
def test_float_coefficients_are_refused(op):
    ring = PolyRing(("x",))
    with pytest.raises(InputError):
        op(ring.var("x"))


def test_coefficients_are_int_when_integral():
    ring = PolyRing(("x",))
    x = ring.var("x")
    for p in (x * Fraction(4, 2), (x * 3) / 3, x / Fraction(1, 2),
              x * Fraction(1, 2) + x * Fraction(1, 2), ring.coerce(Fraction(6, 3))):
        assert all(type(c) is int for c in p.terms.values()), p
    assert type((x / 3).terms[ring.key((1,))]) is Fraction


def test_ring_helpers():
    ring = PolyRing(("t",))
    assert frac(FLOAT, 1, 2) == 0.5
    assert frac(RATIONAL, 1, 3) * 3 == 1
    assert frac(ring, 1, 3) * 3 == ring.one
    with pytest.raises(InputError):
        ring.var("missing")
    with pytest.raises(InputError):
        ring.coerce(0.5)


def _as_fraction(ring, x):
    """A constant of any ring as a Fraction (BATCH constants are floats)."""
    if isinstance(x, MultiPoly):
        assert x.ring is ring
        x = x.constant_value() if x.terms else 0
    return Fraction(x)


@pytest.mark.parametrize("ring", [FLOAT, RATIONAL, PolyRing(("x", "y")), BATCH],
                         ids=["float", "rational", "poly", "batch"])
def test_ring_protocol_constants_and_g2_forms(ring):
    def want(c):  # the float rings round a rational constant once
        return Fraction(float(c)) if ring is FLOAT or ring is BATCH else Fraction(c)

    for c in (0, 3, -7, Fraction(1, 2), Fraction(-5, 4), rational(2, 3)):
        assert _as_fraction(ring, ring.coerce(c)) == want(c)
    assert _as_fraction(ring, frac(ring, 1, 6)) == want(Fraction(1, 6))
    phi, star_phi = g2.phi_for(ring), g2.star_phi_for(ring)
    assert phi.ring is ring and star_phi.ring is ring
    assert g2.phi_for(ring) is phi and g2.star_phi_for(ring) is star_phi
    exact = g2.standard()
    assert [_as_fraction(ring, c) for c in phi.coeffs] == list(exact.phi.coeffs)
    assert [_as_fraction(ring, c) for c in star_phi.coeffs] == list(exact.star_phi.coeffs)
    for B, B_exact in zip(g2.basis14_for(ring), exact.basis14, strict=True):
        assert B.ring is ring
        assert [_as_fraction(ring, c) for c in B.coeffs] == [want(c) for c in B_exact.coeffs]


def test_g2_forms_are_per_ring_object():
    # KForm compares rings by identity, so equal rings must not share forms
    a, b = PolyRing(("x",)), PolyRing(("x",))
    assert a == b and a is not b
    for form_for in (g2.phi_for, g2.star_phi_for):
        assert form_for(a).ring is a and form_for(b).ring is b
    assert g2.basis14_for(b)[0].ring is b
    assert g2.phi_for(RATIONAL) is g2.standard().phi


def test_batch_ring_arithmetic_is_the_float_ring_per_sample():
    x = np.array([0.25, -1.5, 3.0])
    assert BATCH.name != FLOAT.name
    assert BATCH.coerce(x) is x and BATCH.coerce(Fraction(1, 4)) == 0.25
    assert BATCH.is_zero(0.0) and BATCH.is_zero(np.zeros(3))
    assert not BATCH.is_zero(np.array([0.0, 1e-300, 0.0]))
    assert np.array_equal(BATCH.div(x, 2.0), x / 2.0)
    # a batch form holds one float form per sample; a constant broadcasts
    F = KForm(7, 1, (x,) + (0.0,) * 6, BATCH)
    assert all(np.array_equal(a, b) for a, b in zip((x * F).coeffs, (F * x).coeffs))
    got = hodge(F * frac(BATCH, 1, 3))
    for s in range(3):
        want = hodge(KForm(7, 1, (float(x[s]),) + (0.0,) * 6, FLOAT) * frac(FLOAT, 1, 3))
        assert [np.broadcast_to(c, 3)[s] for c in got.coeffs] == list(want.coeffs)


def test_every_ring_has_the_documented_protocol_and_one_conversion():
    """Each ring exposes the attributes the ``scalars`` docstring lists, and
    none keeps a second conversion, ``const``, beside ``coerce``."""
    listed = scalars.__doc__.split("protocol (", 1)[1].split(")", 1)[0]
    protocol = re.findall(r"``(\w+)``", listed)
    assert protocol == ["zero", "one", "coerce", "is_zero", "div", "name", "memo"]
    for ring in (FLOAT, BATCH, RATIONAL, PolyRing(("x",))):
        assert all(hasattr(ring, attr) for attr in protocol), ring
        assert not hasattr(ring, "const"), ring
