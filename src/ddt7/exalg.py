"""Graded exterior algebra over R^7 and R^8 with the Euclidean metric.

Forms are dense coefficient vectors over basis blades e^I, I a strictly
increasing multi-index, ordered lexicographically.  All operations are
generic over the scalar ring (float / exact rational / polynomial): they
only use +, -, *, and integer signs, except where division is explicit.

Conventions fixed here and shared by every other module:

* blade order: ``itertools.combinations(range(1, n+1), k)`` (lexicographic);
* orientation: vol = e^{1..n}; on R^8 the cylinder coordinate t is axis 1;
* ``hodge``: *(e^I) = sign(I, I^c) e^{I^c} with sign the permutation parity
  of (I, I^c) against (1..n);
* vectors are 1-forms: in the orthonormal frame the Euclidean metric gives
  a vector v and its 1-form g(v, .) the same coefficients, so there is no
  vector type, and ``interior(b, a)`` = i(b#) a takes the 1-form b;
* ``sharp2``: g(F#(u), v) = F(u, v), so the matrix of F# is antisymmetric;
* ``wedge``, ``interior`` and ``hodge`` hand a ``torus.FormField`` operand
  to its kernels; a 2-form wedged with itself (the same object) and
  ``cube`` take the power table, which forms each product once;
* the wedge, power and contraction tables share the entry layout (i, j,
  out, sign), out[o] += sign * a_i * b_j, walked by ``_accumulate``;
* ``_gauss_jordan`` is the one elimination: ``solve_endo`` and the
  Lambda^2_14 basis of ``g2``;
* ``_check_pair`` is the one dimension and ring check of two operands,
  forms or endomorphisms; each operation checks its own degrees.
"""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericalError
from .scalars import FLOAT, RATIONAL

__all__ = [
    "KForm", "Endo", "blades", "blade_index",
    "wedge", "cube", "interior", "hodge", "inner", "sharp2", "pullback",
    "solve_endo", "det_endo",
]


@lru_cache(maxsize=None)
def blades(n: int, k: int) -> tuple:
    """All degree-k basis multi-indices on R^n, lexicographic."""
    return tuple(itertools.combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def blade_index(n: int, k: int) -> dict:
    return {b: i for i, b in enumerate(blades(n, k))}


def _perm_parity(seq) -> int:
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        m = i
        for j in range(i + 1, len(seq)):
            if seq[j] < seq[m]:
                m = j
        if m != i:
            seq[i], seq[m] = seq[m], seq[i]
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def wedge_table(n: int, p: int, q: int) -> tuple:
    """Entries (i, j, out, sign) with e^{I_i} ^ e^{J_j} = sign * e^{K_out}."""
    out_pos = blade_index(n, p + q)
    entries = []
    for i, I in enumerate(blades(n, p)):
        set_i = set(I)
        for j, J in enumerate(blades(n, q)):
            if set_i & set(J):
                continue
            entries.append((i, j, out_pos[tuple(sorted(I + J))], _perm_parity(I + J)))
    return tuple(entries)


@lru_cache(maxsize=None)
def power_table(n: int, k: int) -> tuple:
    """Entries (i, j, out, sign) with E^k = k * sum sign * E_i * P_j over each
    output's entries, for a 2-form E and P = E^(k-1).

    They are the entries of ``wedge_table(n, 2, 2k - 2)`` whose 2-blade holds
    the output blade's least axis a, stably sorted by output.  The interior
    product is a derivation and E is even, so i(e_a) E^k = k i(e_a)E ^ E^(k-1),
    and a coefficient at a blade whose least axis is a is the coefficient of
    its i(e_a) image.  Each output has 2k - 1 entries, one per partner of a,
    where the full table has C(2k, 2): each product formed once, not k times.
    """
    if not 2 <= k <= n // 2:
        raise InputError(f"no power table for E^{k} on R^{n}")
    lead, outs = blades(n, 2), blades(n, 2 * k)
    entries = [e for e in wedge_table(n, 2, 2 * k - 2) if lead[e[0]][0] == outs[e[2]][0]]
    return tuple(sorted(entries, key=lambda e: e[2]))


@lru_cache(maxsize=None)
def hodge_table(n: int, k: int) -> tuple:
    """Entries (target index, sign) per source blade: *(e^I) = sign e^{I^c}."""
    out_pos = blade_index(n, n - k)
    rows = []
    for I in blades(n, k):
        Ic = tuple(x for x in range(1, n + 1) if x not in I)
        rows.append((out_pos[Ic], _perm_parity(I + Ic)))
    return tuple(rows)


@lru_cache(maxsize=None)
def contract_table(n: int, k: int) -> tuple:
    """Entries (axis - 1, blade, target, sign): i(e_axis) e^I = sign e^{I minus axis}."""
    out_pos = blade_index(n, k - 1)
    entries = []
    for i, I in enumerate(blades(n, k)):
        for t, axis in enumerate(I):
            entries.append((axis - 1, i, out_pos[I[:t] + I[t + 1:]], -1 if t % 2 else 1))
    return tuple(entries)


def _zeros(ring, count):
    return [ring.zero] * count


def _zero_flags(coeffs, ring) -> list:
    """ring.is_zero of each coefficient, tested once per operation."""
    return [ring.is_zero(c) for c in coeffs]


@dataclass(frozen=True)
class KForm:
    """Degree-k alternating form on R^n; dense blade coefficients."""

    n: int
    k: int
    coeffs: tuple
    ring: object

    # a BATCH scalar (an ndarray) times a form defers to __rmul__
    __array_ufunc__ = None

    def __post_init__(self):
        if self.n not in (7, 8):
            raise InputError(f"dimension must be 7 or 8, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise InputError(f"degree {self.k} out of range for dimension {self.n}")
        expect = len(blades(self.n, self.k))
        if len(self.coeffs) != expect:
            raise InputError(f"need {expect} coefficients for degree {self.k} on R^{self.n}, "
                             f"got {len(self.coeffs)}")

    @staticmethod
    def zero(n: int, k: int, ring=FLOAT) -> "KForm":
        return KForm(n, k, tuple(_zeros(ring, len(blades(n, k)))), ring)

    @staticmethod
    def from_blades(n: int, k: int, data: dict, ring=FLOAT) -> "KForm":
        """Build from {multi-index tuple: coefficient}."""
        pos = blade_index(n, k)
        out = _zeros(ring, len(pos))
        for b, c in data.items():
            b = tuple(b)
            if b not in pos:
                raise InputError(f"{b} is not a degree-{k} blade on R^{n}")
            out[pos[b]] = ring.coerce(c)
        return KForm(n, k, tuple(out), ring)

    @staticmethod
    def from_coeffs(n: int, k: int, coeffs, ring=FLOAT) -> "KForm":
        return KForm(n, k, tuple(ring.coerce(c) for c in coeffs), ring)

    def as_blades(self) -> dict:
        """{multi-index: coefficient} for the nonzero entries."""
        return {b: c for b, c in zip(blades(self.n, self.k), self.coeffs)
                if not self.ring.is_zero(c)}

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs)

    # arithmetic within a fixed degree
    def _compat(self, other: "KForm"):
        if other.__class__ is not KForm:  # else a field would leave arrays in a KForm
            raise InputError("add a constant form to a field as field + form")
        _check_pair(self, other)
        if self.k != other.k:
            raise InputError(f"degree mismatch: {self.k} vs {other.k}")

    def __add__(self, other):
        self._compat(other)
        return KForm(self.n, self.k, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                     self.ring)

    def __sub__(self, other):
        self._compat(other)
        return KForm(self.n, self.k, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
                     self.ring)

    def __neg__(self):
        return KForm(self.n, self.k, tuple(-c for c in self.coeffs), self.ring)

    def __mul__(self, s):
        return KForm(self.n, self.k, tuple(c * s for c in self.coeffs), self.ring)

    __rmul__ = __mul__

    def __truediv__(self, s):
        return KForm(self.n, self.k, tuple(self.ring.div(c, s) for c in self.coeffs), self.ring)


@dataclass(frozen=True)
class Endo:
    """Endomorphism of R^n as a row-major matrix: (Av)_i = sum_j mat[i][j] v_j."""

    n: int
    mat: tuple
    ring: object

    @staticmethod
    def identity(n: int, ring=FLOAT) -> "Endo":
        return Endo(n, tuple(tuple(ring.one if i == j else ring.zero for j in range(n))
                             for i in range(n)), ring)

    @staticmethod
    def from_rows(n: int, rows, ring=FLOAT) -> "Endo":
        return Endo(n, tuple(tuple(ring.coerce(c) for c in row) for row in rows), ring)

    def __matmul__(self, other: "Endo") -> "Endo":
        _check_pair(self, other)
        n = self.n
        return Endo(n, tuple(
            tuple(sum((self.mat[i][k] * other.mat[k][j] for k in range(n)),
                      start=self.ring.zero) for j in range(n))
            for i in range(n)), self.ring)

    def __add__(self, other: "Endo") -> "Endo":
        _check_pair(self, other)
        return Endo(self.n, tuple(tuple(a + b for a, b in zip(ra, rb))
                                  for ra, rb in zip(self.mat, other.mat)), self.ring)

    def __sub__(self, other: "Endo") -> "Endo":
        _check_pair(self, other)
        return Endo(self.n, tuple(tuple(a - b for a, b in zip(ra, rb))
                                  for ra, rb in zip(self.mat, other.mat)), self.ring)

    def __neg__(self) -> "Endo":
        return Endo(self.n, tuple(tuple(-a for a in row) for row in self.mat), self.ring)


# ---------------------------------------------------------------------------
# operations


# A field operand means ``torus`` is imported; it imports this module, so it
# is looked up per call (a traced run also rebinds its functions).
_TORUS = __name__.rpartition(".")[0] + ".torus"


def _wedge_fields(a, b):
    """a ^ b for two fields, or a field and a constant KForm on either side."""
    torus = sys.modules[_TORUS]
    if isinstance(b, KForm):
        return torus.wedge_const(a, b)
    if isinstance(a, KForm):
        return torus.wedge_const(b, a, left=True)
    return torus.wedge_field(a, b)


def _check_pair(a, b) -> None:
    """Refuse two forms or endomorphisms on different spaces or over
    different rings."""
    if a.n != b.n:
        raise InputError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.ring is not b.ring:
        raise InputError(f"scalar backend mismatch: {a.ring.name} vs {b.ring.name}")


def _accumulate(a: KForm, b: KForm, table, dim: int) -> list:
    """out[o] = sum sign * a_i * b_j over the table's entries (i, j, o, sign)."""
    ring = a.ring
    out = _zeros(ring, dim)
    ca, cb = a.coeffs, b.coeffs
    za, zb = _zero_flags(ca, ring), _zero_flags(cb, ring)
    for i, j, o, s in table:
        if za[i] or zb[j]:
            continue
        x, y = ca[i], cb[j]
        out[o] = out[o] + x * y if s > 0 else out[o] - x * y
    return out


def _power(E: KForm, P: KForm, k: int) -> KForm:
    """E^k from E and P = E^(k-1), through ``power_table``."""
    out = _accumulate(E, P, power_table(E.n, k), len(blades(E.n, 2 * k)))
    return KForm(E.n, 2 * k, tuple(c * k for c in out), E.ring)


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product.  A 2-form wedged with itself (the same object)
    takes the power table: 3 products per output instead of 6."""
    if a.__class__ is not KForm or b.__class__ is not KForm:
        return _wedge_fields(a, b)
    _check_pair(a, b)
    k = a.k + b.k
    if k > a.n:
        raise InputError(f"wedge degree {k} exceeds dimension {a.n}")
    if a is b and a.k == 2:
        return _power(a, a, 2)
    return KForm(a.n, k, tuple(_accumulate(a, b, wedge_table(a.n, a.k, b.k),
                                           len(blades(a.n, k)))), a.ring)


def cube(E: KForm, E2: KForm) -> KForm:
    """E^3 from a 2-form E and its square E2 = E ^ E, through the power
    table: 5 products per output instead of the 15 of E ^ E2.  Two fields
    go to ``torus.cube_field``; a field and a constant form to the wedge."""
    if E.k != 2 or E2.k != 4:
        raise InputError(f"cube takes a 2-form and its square, got degrees {E.k} and {E2.k}")
    if E.__class__ is not KForm or E2.__class__ is not KForm:
        if E.__class__ is KForm or E2.__class__ is KForm:
            return _wedge_fields(E, E2)
        return sys.modules[_TORUS].cube_field(E, E2)
    _check_pair(E, E2)
    return _power(E, E2, 3)


def interior(b: KForm, a: KForm) -> KForm:
    """i(b#) a: the interior product of a form a of degree 1 to 7 by the
    vector that the Euclidean metric makes of the 1-form b (the same
    coefficients).  Two fields go to ``torus.interior_field``, which takes
    2-forms only."""
    if b.__class__ is not KForm or a.__class__ is not KForm:
        if b.__class__ is KForm or a.__class__ is KForm:
            raise InputError("interior product of a field and a constant form")
        return sys.modules[_TORUS].interior_field(b, a)
    if b.k != 1 or a.k == 0:
        raise InputError(f"interior product takes a 1-form and a form of degree 1 or more, "
                         f"got degrees {b.k} and {a.k}")
    _check_pair(b, a)
    out = _accumulate(b, a, contract_table(a.n, a.k), len(blades(a.n, a.k - 1)))
    return KForm(a.n, a.k - 1, tuple(out), a.ring)


def hodge(a: KForm) -> KForm:
    """Hodge star for the Euclidean metric, orientation e^{1..n}."""
    if a.__class__ is not KForm:
        return sys.modules[_TORUS].hodge_field(a)
    out = _zeros(a.ring, len(blades(a.n, a.n - a.k)))
    for c, (o, s) in zip(a.coeffs, hodge_table(a.n, a.k)):
        out[o] = c if s > 0 else -c
    return KForm(a.n, a.n - a.k, tuple(out), a.ring)


def inner(a: KForm, b: KForm) -> object:
    """Metric pairing <a, b>, normalized so orthonormal blades have norm 1."""
    _check_pair(a, b)
    if a.k != b.k:
        raise InputError(f"inner product needs matching degrees: {a.k} vs {b.k}")
    return sum((x * y for x, y in zip(a.coeffs, b.coeffs)), start=a.ring.zero)


def sharp2(F: KForm) -> Endo:
    """The endomorphism F# with g(F#(u), v) = F(u, v); antisymmetric matrix."""
    if F.k != 2:
        raise InputError("sharp2 requires a 2-form")
    n, ring = F.n, F.ring
    mat = [[ring.zero] * n for _ in range(n)]
    for (i, j), c in zip(blades(n, 2), F.coeffs):
        # g(F#(e_i), e_j) = F(e_i, e_j) = c  => row j, column i picks up +c
        mat[j - 1][i - 1] = mat[j - 1][i - 1] + c
        mat[i - 1][j - 1] = mat[i - 1][j - 1] - c
    return Endo(n, tuple(tuple(row) for row in mat), ring)


def pullback(A: Endo, a: KForm) -> KForm:
    """(A* a)(v_1..v_k) = a(A v_1, .., A v_k).

    Coefficientwise: (A* a)_J = sum_I a_I det(A[I rows, J cols]).
    """
    _check_pair(A, a)
    k, n, ring = a.k, a.n, a.ring
    if k == 0:
        return a
    zero = ring.is_zero
    bl = blades(n, k)
    out = _zeros(ring, len(bl))
    nonzero = [(I, c) for I, c in zip(bl, a.coeffs) if not zero(c)]
    for jidx, J in enumerate(bl):
        cols = [j - 1 for j in J]
        acc = ring.zero
        for I, c in nonzero:
            sub = [[A.mat[i - 1][j] for j in cols] for i in I]
            acc = acc + c * _det_rows(sub, ring)
        out[jidx] = acc
    return KForm(n, k, tuple(out), ring)


def _det_rows(rows, ring):
    """Exact determinant of a square matrix given as rows (any ring).

    Row-by-row DP over used-column masks: n 2^(n-1) ring multiplications,
    against n! for cofactor expansion.  Placing row i into free column j
    flips the permutation parity once per already-used column above j,
    hence the descending scan.
    """
    n = len(rows)
    states = {1 << j: c for j, c in enumerate(rows[0]) if not ring.is_zero(c)}
    for row in rows[1:]:
        nxt: dict = {}
        zrow = _zero_flags(row, ring)
        for mask, acc in states.items():
            odd = False
            for j in range(n - 1, -1, -1):
                bit = 1 << j
                if mask & bit:
                    odd = not odd
                    continue
                if zrow[j]:
                    continue
                term = acc * row[j]
                if odd:
                    term = -term
                key = mask | bit
                nxt[key] = nxt[key] + term if key in nxt else term
        states = nxt
    return states.get((1 << n) - 1, ring.zero)


def det_endo(A: Endo):
    """Exact determinant of the matrix of A (any backend)."""
    return _det_rows(A.mat, A.ring)


def _gauss_jordan(rows, ring) -> list:
    """Reduce a FLOAT or RATIONAL matrix, a list of row lists, in place to
    reduced row echelon form, and return its pivot columns.  Each column
    pivots on its largest-magnitude entry at or below the next pivot row;
    an exact matrix has one reduced form, whichever rows pivot."""
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        if r == len(rows):
            break
        p = max(range(r, len(rows)), key=lambda i: abs(rows[i][c]))
        if ring.is_zero(rows[p][c]):
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        rows[r] = [ring.div(x, pivot) for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and not ring.is_zero(f):
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots


def solve_endo(A: Endo, b: KForm) -> KForm:
    """Return ((A)^{-1})* b, i.e. the 1-form x with pullback(A, x) = b.

    Since (A* x)_j = sum_i x_i A_ij, this solves A^T-style equations:
    componentwise  sum_i x_i A[i][j] = b_j, by ``_gauss_jordan`` on the
    augmented system; a FLOAT matrix of condition number over 1e14 is refused.
    """
    if b.k != 1:
        raise InputError("solve_endo requires a 1-form right-hand side")
    _check_pair(A, b)
    n, ring = A.n, A.ring
    if ring is not FLOAT and ring is not RATIONAL:
        raise InputError("solve_endo supports float and rational backends only")
    M = [[A.mat[i][j] for i in range(n)] + [b.coeffs[j]] for j in range(n)]
    if ring is FLOAT:
        cond = np.linalg.cond(np.array(M, dtype=float)[:, :n])
        if not np.isfinite(cond) or cond > 1e14:
            raise NumericalError(f"singular endomorphism in solve_endo (cond ~ {cond:.3e})")
    if _gauss_jordan(M, ring)[:n] != list(range(n)):
        raise NumericalError("singular endomorphism in solve_endo (exact rank deficiency)")
    return KForm(n, 1, tuple(row[n] for row in M), ring)
