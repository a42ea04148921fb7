"""Scalar ring backends for the exterior algebra.

Four interchangeable coefficient rings:

* ``FLOAT``      -- double precision reals,
* ``BATCH``      -- double precision reals over a batch of sample points at
  once: float64 arrays with one entry per sample,
* ``RATIONAL``   -- exact rationals (``fractions.Fraction``),
* ``PolyRing``   -- sparse multivariate polynomials with exact rational
  coefficients over named indeterminates.

Every ring exposes the same small protocol (``zero``, ``one``, ``coerce``,
``is_zero``, ``div``, ``name``, and a ``memo`` dict for constants built once
per ring object) so the form operations never branch on the backend.
``coerce`` is the one conversion into a ring.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError, NumericalError

rational = Fraction


class FloatRing:
    name = "float"
    zero = 0.0
    one = 1.0

    def __init__(self):
        self.memo = {}

    @staticmethod
    def coerce(x):
        return float(x)

    @staticmethod
    def is_zero(x):
        return x == 0.0

    @staticmethod
    def div(a, b):
        return a / b


class BatchRing(FloatRing):
    """Float64 arrays with one entry per sample: the float ring evaluated at
    every point of a batch at once.  Constants stay Python floats and
    broadcast, so each sample sees exactly the float ring's arithmetic."""

    name = "batch"

    @staticmethod
    def coerce(x):
        return x if isinstance(x, np.ndarray) else float(x)

    @staticmethod
    def is_zero(x):
        """True when x is zero in every sample."""
        return not np.count_nonzero(x) if isinstance(x, np.ndarray) else x == 0.0


class RationalRing:
    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self):
        self.memo = {}

    @staticmethod
    def coerce(x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise InputError(f"cannot coerce {type(x).__name__} into the rational ring")

    @staticmethod
    def is_zero(x):
        return x == 0

    @staticmethod
    def div(a, b):
        if b == 0:
            raise ZeroDivisionError("rational division by zero")
        return a / b


FLOAT = FloatRing()
BATCH = BatchRing()
RATIONAL = RationalRing()


def _exact(c):
    """c as a polynomial coefficient: an int when integral, else a Fraction.
    Anything but an int or a Fraction (a float above all) is refused."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise InputError(f"polynomial coefficients are exact: got {type(c).__name__}")


def _tidy(terms: dict) -> dict:
    """Drop zero coefficients and make integral ones ints."""
    return {k: c if type(c) is int else _exact(c) for k, c in terms.items() if c}


class MultiPoly:
    """Sparse multivariate polynomial: {monomial key -> nonzero coefficient}.

    Keys are the ring's packed encoding (``PolyRing.key``); coefficients are
    ints when integral, else Fractions.  ``deg`` bounds the total degree from
    above, so ``__mul__`` can accept most products without looking at the
    keys; only when that bound passes the ring's exponent bound does it
    compare each variable's exponents, and it refuses a product whose keys
    would carry.
    Immutable by convention; all arithmetic allocates.
    """

    __slots__ = ("ring", "terms", "deg")

    # a numpy scalar times a polynomial defers to __rmul__, which refuses it
    __array_ufunc__ = None

    def __init__(self, ring: "PolyRing", terms: dict, deg: int | None = None):
        self.ring = ring
        self.terms = terms
        self.deg = self.total_degree() if deg is None else deg

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(ring: "PolyRing", c) -> "MultiPoly":
        c = _exact(c)
        return MultiPoly(ring, {0: c} if c else {}, 0)

    # -- ring arithmetic ---------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.ring is not other.ring:
            raise InputError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.ring, other)
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s if type(s) is int else _exact(s)
                else:
                    del out[k]
        return MultiPoly(self.ring, out, max(self.deg, other.deg))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {k: -c for k, c in self.terms.items()}, self.deg)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(self.ring, other) + (-self)

    def _scaled(self, c) -> "MultiPoly":
        c = _exact(c)
        return MultiPoly(self.ring, _tidy({k: v * c for k, v in self.terms.items()}), self.deg)

    def constant_value(self):
        """The coefficient of a one-term constant (only the key 0), else None."""
        if len(self.terms) != 1:
            return None
        return self.terms.get(0)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scaled(other)
        self._check(other)
        if not self.terms or not other.terms:
            return MultiPoly(self.ring, {}, 0)
        c = other.constant_value()
        if c is not None:
            return self._scaled(c)
        c = self.constant_value()
        if c is not None:
            return other._scaled(c)
        deg = self.deg + other.deg
        if deg > self.ring.bound and any(
                a + b > self.ring.bound
                for a, b in zip(self._max_exponents(), other._max_exponents())):
            raise NumericalError(f"a product exponent exceeds the ring's exponent "
                                 f"bound {self.ring.bound}: monomial keys would carry")
        out: dict = {}
        get = out.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return MultiPoly(self.ring, _tidy(out), deg)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            other = other.constant_value()
            if other is None:
                raise InputError("polynomial division only by nonzero constants")
        other = _exact(other)
        if other == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return self._scaled(1 / Fraction(other))

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring is other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return (self - other).is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def nterms(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        return max((sum(self.ring.exponents(k)) for k in self.terms), default=0)

    def _max_exponents(self) -> tuple:
        """Each variable's largest exponent over the (nonempty) terms."""
        return tuple(map(max, zip(*map(self.ring.exponents, self.terms))))

    def leading(self):
        """(exponent tuple, coefficient) of the lexicographically first
        monomial: the smallest key."""
        if not self.terms:
            return None
        k = min(self.terms)
        return self.ring.exponents(k), self.terms[k]

    def evaluate(self, point):
        """Evaluate at a point given as a sequence of ring elements (rationals or floats)."""
        if len(point) != self.ring.nvars:
            raise InputError("point length does not match variable count")
        total = 0
        for k, c in self.terms.items():
            for x, p in zip(point, self.ring.exponents(k)):
                if p:
                    c = c * x ** p
            total = total + c
        return total

    def monomial_str(self, e) -> str:
        return self.ring.monomial_str(e)

    def __repr__(self):
        body = " + ".join(f"{self.terms[k]}*{self.monomial_str(self.ring.exponents(k))}"
                          for k in sorted(self.terms)[:4])
        more = "" if len(self.terms) <= 4 else f" + ... ({len(self.terms)} terms)"
        return f"MultiPoly({body or 0}{more})"


# per-variable exponent bound of a ring unless it names its own; the exact
# catalog's largest total degree is 5
EXPONENT_BOUND = 7


@dataclass(frozen=True)
class PolyRing:
    """Polynomial ring over named indeterminates with exact rational coefficients.

    A monomial is one int, ``key = sum e_v R^(n-1-v)`` with radix
    ``R = bound + 1``: variable 0 is the most significant digit, so key order
    is lexicographic exponent order and multiplying monomials adds keys.
    ``key`` and ``exponents`` are the one encoder and decoder.
    """

    names: tuple
    bound: int = EXPONENT_BOUND
    # per ring object, so equal rings never share the forms built from one
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if type(self.bound) is not int or self.bound < 1:
            raise InputError(f"exponent bound must be a positive int, got {self.bound!r}")
        n, radix = len(self.names), self.radix
        object.__setattr__(self, "_places", tuple(radix ** (n - 1 - v) for v in range(n)))

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def radix(self) -> int:
        return self.bound + 1

    @property
    def name(self) -> str:
        return "poly"

    @property
    def zero(self) -> MultiPoly:
        return MultiPoly(self, {}, 0)

    @property
    def one(self) -> MultiPoly:
        return MultiPoly.const(self, 1)

    def key(self, exponents) -> int:
        """The packed key of an exponent sequence, each exponent in [0, bound]."""
        if len(exponents) != self.nvars:
            raise InputError("exponent count does not match variable count")
        if not all(0 <= e <= self.bound for e in exponents):
            raise NumericalError(f"exponents {tuple(exponents)} leave [0, {self.bound}]")
        return sum(int(e) * p for e, p in zip(exponents, self._places))

    def exponents(self, key) -> tuple:
        """The exponent tuple of a packed key."""
        key, out = int(key), []
        for p in self._places:
            e, key = divmod(key, p)
            out.append(e)
        return tuple(out)

    def var(self, name: str) -> MultiPoly:
        try:
            i = self.names.index(name)
        except ValueError:
            raise InputError(f"unknown indeterminate {name!r}") from None
        return MultiPoly(self, {self._places[i]: 1}, 1)

    def vars(self, prefix: str | None = None) -> list:
        names = self.names if prefix is None else [n for n in self.names if n.startswith(prefix)]
        return [self.var(n) for n in names]

    def monomial_str(self, e) -> str:
        """Print an exponent tuple as a product of named powers."""
        parts = [f"{self.names[i]}^{p}" if p > 1 else self.names[i]
                 for i, p in enumerate(e) if p]
        return "*".join(parts) if parts else "1"

    def coerce(self, x) -> MultiPoly:
        if isinstance(x, MultiPoly):
            if x.ring is not self:
                raise InputError("polynomial from a different ring")
            return x
        return MultiPoly.const(self, x)

    @staticmethod
    def is_zero(x) -> bool:
        return x.is_zero() if isinstance(x, MultiPoly) else x == 0

    @staticmethod
    def div(a, b):
        return a / b


def frac(ring, p: int, q: int):
    """The fraction p/q as an element of the given ring (one correctly
    rounded division in the float rings)."""
    return ring.div(ring.coerce(p), ring.coerce(q))
