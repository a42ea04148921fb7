"""Scalar ring backends for the exterior algebra.

Four interchangeable coefficient rings:

* ``FLOAT``      -- double precision reals,
* ``BATCH``      -- double precision reals over a batch of sample points at
  once: float64 arrays with one entry per sample,
* ``RATIONAL``   -- exact rationals (gmpy2.mpq when available, Fraction otherwise),
* ``PolyRing``   -- sparse multivariate polynomials with exact rational
  coefficients over named indeterminates.

Every ring exposes the same small protocol (``zero``, ``one``, ``const``,
``coerce``, ``is_zero``, ``div``, and a ``memo`` dict for constants built
once per ring object) so the form operations never branch on the backend.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

try:
    from gmpy2 import mpq as _mpq

    def rational(p, q=1):
        return _mpq(p, q)

    _RAT_TYPES = (int, Fraction, type(_mpq(0)))
except ImportError:  # gmpy2 is optional (the ``fast`` extra)
    def rational(p, q=1):
        return Fraction(p, q)

    _RAT_TYPES = (int, Fraction)

from .errors import InputError


class FloatRing:
    name = "float"
    zero = 0.0
    one = 1.0

    def __init__(self):
        self.memo = {}

    @staticmethod
    def const(c):
        """The rational number c (an int or a fraction) as a ring element."""
        return float(c)

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
    zero = rational(0)
    one = rational(1)

    def __init__(self):
        self.memo = {}

    @staticmethod
    def coerce(x):
        if isinstance(x, (int, Fraction)):
            return rational(x.numerator, x.denominator) if isinstance(x, Fraction) \
                else rational(x)
        if isinstance(x, _RAT_TYPES):
            return x
        raise InputError(f"cannot coerce {type(x).__name__} into the rational ring")

    const = coerce

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


class MultiPoly:
    """Sparse multivariate polynomial: {exponent tuple -> nonzero rational}.

    Immutable by convention; all arithmetic allocates.  Monomial order used
    for witnesses and printing is lexicographic on exponent tuples.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "PolyRing", terms: dict):
        self.ring = ring
        self.terms = terms

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(ring: "PolyRing", c) -> "MultiPoly":
        c = rational(c) if isinstance(c, int) else (
            rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c)
        if c == 0:
            return MultiPoly(ring, {})
        return MultiPoly(ring, {(0,) * ring.nvars: c})

    # -- ring arithmetic ---------------------------------------------------
    def _check(self, other: "MultiPoly"):
        if self.ring is not other.ring:
            raise InputError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.ring, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s == 0:
                    del out[e]
                else:
                    out[e] = s
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly.const(self.ring, other) + (-self)

    def _scaled(self, c) -> "MultiPoly":
        if isinstance(c, int):
            c = rational(c)
        elif isinstance(c, Fraction):
            c = rational(c.numerator, c.denominator)
        if c == 0:
            return MultiPoly(self.ring, {})
        return MultiPoly(self.ring, {e: v * c for e, v in self.terms.items()})

    def constant_value(self):
        """The coefficient of a one-term constant (only the all-zero
        exponent), else None."""
        if len(self.terms) != 1:
            return None
        (e, c), = self.terms.items()
        return None if any(e) else c

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scaled(other)
        self._check(other)
        if not self.terms or not other.terms:
            return MultiPoly(self.ring, {})
        c = other.constant_value()
        if c is not None:
            return self._scaled(c)
        c = self.constant_value()
        if c is not None:
            return other._scaled(c)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e)
                if s is None:
                    out[e] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s == 0:
                        del out[e]
                    else:
                        out[e] = s
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            other = other.constant_value()
            if other is None:
                raise InputError("polynomial division only by nonzero constants")
        if isinstance(other, int):
            other = rational(other)
        elif isinstance(other, Fraction):
            other = rational(other.numerator, other.denominator)
        if other == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return MultiPoly(self.ring, {e: c / other for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring is other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)) or type(other) in _RAT_TYPES:
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
        return max((sum(e) for e in self.terms), default=0)

    def leading(self):
        """(exponent tuple, coefficient) of the lexicographically first monomial."""
        if not self.terms:
            return None
        e = min(self.terms)
        return e, self.terms[e]

    def evaluate(self, point):
        """Evaluate at a point given as a sequence of ring elements (rationals or floats)."""
        if len(point) != self.ring.nvars:
            raise InputError("point length does not match variable count")
        total = None
        for e, c in self.terms.items():
            term = c
            for x, p in zip(point, e):
                if p:
                    term = term * x ** p
            total = term if total is None else total + term
        if total is None:
            return 0
        return total

    def monomial_str(self, e) -> str:
        return self.ring.monomial_str(e)

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        items = sorted(self.terms)[:4]
        body = " + ".join(f"{self.terms[e]}*{self.monomial_str(e)}" for e in items)
        more = "" if len(self.terms) <= 4 else f" + ... ({len(self.terms)} terms)"
        return f"MultiPoly({body}{more})"


@dataclass(frozen=True)
class PolyRing:
    """Polynomial ring over named indeterminates with exact rational coefficients."""

    names: tuple
    # per ring object, so equal rings never share the forms built from one
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def name(self) -> str:
        return "poly"

    @property
    def zero(self) -> MultiPoly:
        return MultiPoly(self, {})

    @property
    def one(self) -> MultiPoly:
        return MultiPoly.const(self, 1)

    def var(self, name: str) -> MultiPoly:
        try:
            i = self.names.index(name)
        except ValueError:
            raise InputError(f"unknown indeterminate {name!r}") from None
        e = [0] * self.nvars
        e[i] = 1
        return MultiPoly(self, {tuple(e): rational(1)})

    def vars(self, prefix: str | None = None) -> list:
        names = self.names if prefix is None else [n for n in self.names if n.startswith(prefix)]
        return [self.var(n) for n in names]

    def const(self, c) -> MultiPoly:
        return MultiPoly.const(self, c)

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
        if isinstance(x, (int, Fraction)) or type(x) in _RAT_TYPES:
            return MultiPoly.const(self, x)
        raise InputError(f"cannot coerce {type(x).__name__} into the polynomial ring")

    @staticmethod
    def is_zero(x) -> bool:
        return x.is_zero() if isinstance(x, MultiPoly) else x == 0

    @staticmethod
    def div(a, b):
        return a / b


def ring_of(x: Any):
    """Infer the backend ring of a raw scalar value."""
    if isinstance(x, MultiPoly):
        return x.ring
    if isinstance(x, float):
        return FLOAT
    return RATIONAL


def frac(ring, p: int, q: int):
    """The fraction p/q as an element of the given ring (one correctly
    rounded division in the float rings)."""
    return ring.div(ring.const(p), ring.const(q))


def intval(ring, v: int):
    """The integer v as an element of the given ring."""
    return ring.const(v)
