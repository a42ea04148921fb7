"""Exact symbolic verification of the algebraic identity catalog.

Each catalog entry expands both sides of one identity over a polynomial ring
in the relevant form coefficients (using the generic exterior-algebra
operations) and decides equality with zero exactly.  No Groebner machinery:
every identity here is an unconditional polynomial identity, so plain
expansion and cancellation suffices.

The catalog ids are stable keys used by the CLI and the acceptance suite:

========  ====================================================================
A1        endomorphism transport of the dual residual: the pullback of
          *R(F) by I - (F#)^2 equals eta(F)
A2a       the 1-form *(F^3) annihilates *F under wedge
A2b       contraction formula *(phi ^ *F^2) = -6 i(u#)F on a decomposed F
A4        pairing of the corrected residual with F ^ phi reproduces half the
          calibration weight times phi ^ *F^2
A5        cube of a vector-type 2-form: (i(u#)phi)^3 = 6|u|^2 *u
A3F       theta-cleared elimination identity reducing the coupled evolution
          system to the single combined equation
DET       determinant factorization det(I - (F#)^2) = det(I + F#)^2
EIG7      *(phi ^ .) doubles vector-type 2-forms
EIG14     *(phi ^ .) negates annihilator-type 2-forms
W3        F ^ *phi = 3 *u for a decomposed F
SF        Hodge star of a 2-form by type: *F7 = (1/2) F7 ^ phi,
          *F14 = -F14 ^ phi
CYL       product-space star expansion of the curvature cube on R x R^7
========  ====================================================================

Mutation testing: ``mutate(id, site, value)`` registers a variant with one
named rational constant replaced.  Verifying the variant must fail with a
witness monomial; this guards against a prover that silently accepts
everything.  A2a has no mutable sites (both of its sides expand to the zero
polynomial, so no constant in its tree can break it) and rejects mutation.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, NumericalError, check_count
from .scalars import BATCH, EXPONENT_BOUND, RATIONAL, PolyRing, frac
from . import ddt, g2
from .exalg import (Endo, KForm, blades, cube, det_endo, hodge, inner, interior,
                    pullback, sharp2, wedge)

__all__ = ["IdentityReport", "verify", "verify_all", "mutate",
           "catalog_ids", "canonical_mutations", "identity_sites",
           "evaluate_at_point", "evaluate_float", "float_suite", "decomposition_checks"]

_F_NAMES = tuple(f"F_{i}{j}" for i, j in blades(7, 2))
_U_NAMES = tuple(f"u_{i}" for i in range(1, 8))
_A_NAMES = tuple(f"a_{i}" for i in range(1, 8))
_C_NAMES = tuple(f"c_{m:02d}" for m in range(1, 15))


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity verification."""

    identity: str
    reduced_to_zero: bool
    witness: dict | None
    monomial_count_before_cancellation: int
    components: int = 1


@dataclass(frozen=True)
class _IdentitySpec:
    id: str
    variables: tuple
    consts: dict          # site name -> default Fraction
    build: object         # callable(ring, val, consts) -> [(label, lhs, rhs)]
    bound: int            # per-variable exponent bound of its PolyRing


def _form(ring, val, names, n=7, k=2) -> KForm:
    return KForm(n, k, tuple(val(nm) for nm in names), ring)


def _decomposed_F(ring, val):
    """F = i(u#)phi + sum c_m B_m with an indeterminate 1-form u and c."""
    u = _form(ring, val, _U_NAMES, k=1)
    F7 = interior(u, g2.phi_for(ring))
    F = F7
    for cm, B in zip(_C_NAMES, g2.basis14_for(ring)):
        F = F + B * val(cm)
    return u, F7, F


def _c(ring, consts, site):
    q = consts[site]
    return frac(ring, q.numerator, q.denominator)


# --- builders --------------------------------------------------------------


def _build_a1(ring, val, consts):
    F = _form(ring, val, _F_NAMES)
    F2 = wedge(F, F)
    xi = ddt._residual(F, F2, _c(ring, consts, "cube-scale"))
    Fs = sharp2(F)
    lhs = pullback(Endo.identity(7, ring) - (Fs @ Fs), hodge(xi))
    rhs = hodge(xi + ddt._correction(F, F2) * _c(ring, consts, "corr-scale"))
    return [("transport", lhs, rhs)]


def _build_a2a(ring, val, consts):
    F = _form(ring, val, _F_NAMES)
    lhs = wedge(hodge(cube(F, wedge(F, F))), hodge(F))
    return [("annihilation", lhs, KForm.zero(7, 6, ring))]


def _build_a2b(ring, val, consts):
    u, F7, F = _decomposed_F(ring, val)
    lhs = hodge(ddt._phi_star_sq(wedge(F, F)))
    rhs = interior(u, F) * _c(ring, consts, "rhs-scale")
    return [("contraction", lhs, rhs)]


def _theta_poly(ring, F2, inner_scale):
    return ring.one - ddt._calibration(F2) * inner_scale


def _corrected_residual(ring, F, F2, consts):
    """R(F) and G = R(F) + corr-scale * (phi ^ *F^2) ^ *F, for A4 and A3F."""
    R = ddt._residual(F, F2, frac(ring, 1, 6))
    return R, R + ddt._correction(F, F2) * _c(ring, consts, "corr-scale")


def _build_a4(ring, val, consts):
    F = _form(ring, val, _F_NAMES)
    F2 = wedge(F, F)
    _, G = _corrected_residual(ring, F, F2, consts)
    lhs = wedge(hodge(G), wedge(F, g2.phi_for(ring)))
    theta = _theta_poly(ring, F2, _c(ring, consts, "theta-inner"))
    rhs = ddt._phi_star_sq(F2) * (theta * _c(ring, consts, "rhs-scale"))
    return [("pairing", lhs, rhs)]


def _build_a5(ring, val, consts):
    u = _form(ring, val, _U_NAMES, k=1)
    F7 = interior(u, g2.phi_for(ring))
    lhs = cube(F7, wedge(F7, F7))
    rhs = hodge(u) * (inner(u, u) * _c(ring, consts, "rhs-scale"))
    return [("cube", lhs, rhs)]


def _build_a3f(ring, val, consts):
    F = _form(ring, val, _F_NAMES)
    F2 = wedge(F, F)
    R, G = _corrected_residual(ring, F, F2, consts)
    theta = _theta_poly(ring, F2, frac(ring, 1, 2))
    back = wedge(hodge(wedge(hodge(G), wedge(F, g2.phi_for(ring)))), hodge(F))
    lhs = R * theta + back
    rhs = G * theta
    return [("elimination", lhs, rhs)]


# DET expands to ~4*10^5 monomials per side, far too many for the generic
# sparse-dict polynomials to stay inside the runtime budget.  Both sides have
# integer coefficients, so the column-mask DP of ``exalg`` runs on sorted
# numpy (uint64 key, int64 coefficient) arrays of the entries' terms (after
# Monagan & Pearce).  The keys are DET's ring's, radix 5 (exponent bound 4).
# Each product of two terms is one uint64 word, key << 15 | (coeff + 2^14).
# A bucket's products are written one row per entry term: one add of the
# state's words for that term's coefficient (built once per distinct
# coefficient; DET's entries have only +-1) and the term's own word.  One
# plain in-place sort of the bucket's words orders them by key.  The sorted
# words are then walked in chunks of _DET_CHUNK: the unbiased fields' int64
# prefix sum, carried across chunks, read at each key's last word, minus its
# value at the previous key's last word, is that key's coefficient.  Keys
# and key ends go to two reused chunk-sized buffers, so no array the size of
# the bucket is allocated besides its words.
# * Every key fits its 49-bit field: radix^nvars is checked (5^21 < 2^49).
# * No key addition carries between digits: before the DP runs, the
#   per-variable degree of every (partial) product is bounded over all
#   permutations and checked against the ring's bound (both sides reach 4).
# * Every product's coefficient fits the 15-bit field: before each product
#   of a state with an entry, max|a| * max|b| is checked to stay below
#   2^14 (the largest is 48).
# * Per-key sums are exact: the prefix sum adds fields of size at most 2^14,
#   so it cannot wrap int64 while a bucket holds at most 2^48 words, which
#   is checked (the largest bucket holds 6.85M).
# * The sides are compared as arrays, q*lhs against p*rhs for the scale
#   p/q, and only the witness key is ever decoded.
# A failed check raises NumericalError.

_DET_COEFF_BITS = 15
_DET_COEFF_BIAS = 1 << (_DET_COEFF_BITS - 1)   # 2^14, also the |coeff| bound
_DET_COEFF_MASK = (1 << _DET_COEFF_BITS) - 1
_DET_SUM_LIMIT = 2 ** 62
_DET_WORDS_MAX = 2 ** 48                        # words one prefix sum may add
_DET_CHUNK = 1 << 17                            # words the combine walks at once


@dataclass(frozen=True)
class _Packed:
    """Packed polynomial times a rational scale: sorted unique uint64 keys
    with nonzero int64 coefficients.  Only a right-hand side is scaled."""

    keys: np.ndarray
    coeffs: np.ndarray
    scale: Fraction = Fraction(1)


def _det_np_degree_bound(ring, entries) -> np.ndarray:
    """Per-variable bound on the exponent of any product of entries along a
    (partial) permutation: the max over permutations of the summed per-entry
    degrees.  Every partial product extends to a full permutation."""
    n = len(entries)
    deg = np.zeros((n, n, ring.nvars), dtype=np.int64)
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            if e:
                deg[i, j] = np.max([ring.exponents(k) for k in e], axis=0)
    perms = np.array(list(itertools.permutations(range(n))))
    return deg[np.arange(n), perms].sum(axis=1).max(axis=0)


def _det_np_check_bound(ring, bound) -> None:
    if int(np.max(bound)) > ring.bound:
        raise NumericalError(f"packed exponent bound {int(np.max(bound))} exceeds "
                             f"{ring.bound}: monomials would carry between digits")


def _det_np_products(parts):
    """Words key << 15 | (coeff + 2^14) of every pairwise term product of
    each part (ak, ac, ek, ec), two packed polynomials, in one array, one
    row of ak.size words per entry term.  Raises before a product
    coefficient could leave the 15-bit field."""
    words = np.empty(sum(ak.size * ek.size for ak, _, ek, _ in parts), dtype=np.uint64)
    lo = 0
    for ak, ac, ek, ec in parts:
        if int(np.max(np.abs(ac))) * int(np.max(np.abs(ec))) >= _DET_COEFF_BIAS:
            raise NumericalError("determinant coefficient exceeds the packed field")
        block = words[lo:lo + ek.size * ak.size].reshape(ek.size, ak.size)
        eword = (ek << _DET_COEFF_BITS) | _DET_COEFF_BIAS
        for c in np.unique(ec):
            # modulo 2^64 a negative coefficient borrows from the bias only
            row = (ak << _DET_COEFF_BITS) + (ac * c).view(np.uint64)
            for r in np.flatnonzero(ec == c):
                np.add(row, eword[r], out=block[r])
        lo += block.size
    return words


def _det_np_combine(words):
    """Sort the words in place and sum the coefficients of equal keys
    exactly; returns sorted unique keys with their nonzero int64 totals.

    After the sort the words are walked in chunks of ``_DET_CHUNK``: each
    chunk's keys and key ends go to two reused buffers, and its fields are
    unbiased and prefix-summed in place, the sum carried from chunk to
    chunk.  No other array the size of the words is allocated."""
    if words.size > _DET_WORDS_MAX:
        raise NumericalError(f"{words.size} packed words exceed the exact "
                             f"prefix sum's {_DET_WORDS_MAX}")
    words.sort()
    n = words.size
    cs = words.view(np.int64)
    key_buf = np.empty(min(n, _DET_CHUNK), dtype=np.uint64)
    last_buf = np.empty(key_buf.size, dtype=bool)   # the last word of its key
    out_keys, out_tots = [np.zeros(0, dtype=np.uint64)], [np.zeros(0, dtype=np.int64)]
    prefix = prev = 0   # the sum before the chunk; the sum at the last key end
    for lo in range(0, n, _DET_CHUNK):
        hi = min(lo + _DET_CHUNK, n)
        keys, last, c = key_buf[:hi - lo], last_buf[:hi - lo], cs[lo:hi]
        np.right_shift(words[lo:hi], _DET_COEFF_BITS, out=keys)
        np.not_equal(keys[1:], keys[:-1], out=last[:-1])
        # the next chunk's words are not unbiased yet
        last[-1] = hi == n or words[hi] >> _DET_COEFF_BITS != keys[-1]
        c &= _DET_COEFF_MASK
        c -= _DET_COEFF_BIAS
        c[0] += prefix
        np.cumsum(c, out=c)
        prefix = int(c[-1])
        ends = np.flatnonzero(last)
        if ends.size:   # else one key's run covers the whole chunk
            tot = c[ends]
            end = int(tot[-1])
            tot[1:] = np.diff(tot)
            tot[0] -= prev
            prev = end
            nz = tot != 0
            out_keys.append(keys[ends[nz]])
            out_tots.append(tot[nz])
    return np.concatenate(out_keys), np.concatenate(out_tots)


def _det_np_dp(ring, entries, bound=None):
    """The column-mask DP of ``exalg._det_rows`` on packed polynomials.

    entries[i][j]: the {key: int coeff} terms of a polynomial of ``ring``,
    empty if zero; bound, their ``_det_np_degree_bound`` when the caller
    has it.  Returns the determinant as (sorted keys, int64 coefficients).
    """
    if ring.radix ** ring.nvars > 1 << (64 - _DET_COEFF_BITS):
        raise NumericalError(f"radix-{ring.radix} keys of {ring.nvars} variables "
                             f"exceed the {64 - _DET_COEFF_BITS}-bit key field")
    if any(type(c) is not int for row in entries for e in row for c in e.values()):
        raise NumericalError("the packed determinant needs integer coefficients")
    if bound is None:
        bound = _det_np_degree_bound(ring, entries)
    _det_np_check_bound(ring, bound)
    n = len(entries)
    packed = [[(np.fromiter(e.keys(), dtype=np.uint64, count=len(e)),
                np.fromiter(e.values(), dtype=np.int64, count=len(e))) if e else None
               for e in row] for row in entries]
    states = {0: (np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.int64))}
    for row in packed:
        buckets: dict = {}
        for mask, (ak, ac) in states.items():
            odd = False
            for j in range(n - 1, -1, -1):
                bit = 1 << j
                if mask & bit:
                    odd = not odd
                    continue
                if row[j] is None:
                    continue
                ek, ec = row[j]
                buckets.setdefault(mask | bit, []).append((ak, ac, ek, -ec if odd else ec))
        states = {}
        for mask, parts in buckets.items():
            keys, coeffs = _det_np_combine(_det_np_products(parts))
            if keys.size:   # a state that cancels to 0 drops out
                states[mask] = (keys, coeffs)
    empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
    return states.get((1 << n) - 1, empty)


def _det_np_square(poly):
    return _det_np_combine(_det_np_products([(*poly, *poly)]))


def _packed_witness(label: str, lhs: _Packed, rhs: _Packed, ring) -> dict | None:
    """Witness of lhs - rhs, decided without unpacking: with rhs = (p/q) R
    the sides agree iff q*L == p*R, and the first differing key is the
    lexicographically first monomial of the difference."""
    p, q = rhs.scale.numerator, rhs.scale.denominator
    # bounds |q*L - p*R| and |p|, |q| themselves; beyond int64, exact objects
    big = abs(q) * (1 + int(np.max(np.abs(lhs.coeffs), initial=0))) \
        + abs(p) * (1 + int(np.max(np.abs(rhs.coeffs), initial=0)))
    dtype = np.int64 if big < _DET_SUM_LIMIT else object
    lc, rc = lhs.coeffs.astype(dtype), rhs.coeffs.astype(dtype)
    if np.array_equal(lhs.keys, rhs.keys):
        keys, diff = lhs.keys, lc * q - rc * p
    else:
        keys = np.concatenate([lhs.keys, rhs.keys])
        diff = np.concatenate([lc * q, rc * -p])
        order = np.argsort(keys)
        keys, diff = keys[order], diff[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys, diff = keys[starts], np.add.reduceat(diff, starts)
    nz = np.flatnonzero(diff)
    if nz.size == 0:
        return None
    first = nz[0]
    return {"component": label, "blade": "scalar",
            "monomial": ring.monomial_str(ring.exponents(keys[first])),
            "coefficient": str(Fraction(int(diff[first]), q))}


def _build_det(ring, val, consts):
    Fs = sharp2(_form(ring, val, _F_NAMES))
    eye = Endo.identity(7, ring)
    lin, quad = eye + Fs, eye - (Fs @ Fs)
    if not isinstance(ring, PolyRing):
        d = det_endo(lin)
        rhs = d * d * _c(ring, consts, "rhs-scale")
        return [("factorization", KForm(7, 0, (det_endo(quad),), ring),
                 KForm(7, 0, (rhs,), ring))]
    lin, quad = ([[e.terms for e in row] for row in A.mat] for A in (lin, quad))
    lin_bound = _det_np_degree_bound(ring, lin)
    _det_np_check_bound(ring, 2 * lin_bound)  # rhs squares det(lin)
    lhs = _Packed(*_det_np_dp(ring, quad))
    rhs = _Packed(*_det_np_square(_det_np_dp(ring, lin, lin_bound)),
                  scale=consts["rhs-scale"])
    return [("factorization", lhs, rhs)]


def _build_eig7(ring, val, consts):
    u = _form(ring, val, _U_NAMES, k=1)
    F7 = interior(u, g2.phi_for(ring))
    lhs = hodge(wedge(g2.phi_for(ring), F7))
    return [("vector-type", lhs, F7 * _c(ring, consts, "eig-scale"))]


def _build_eig14(ring, val, consts):
    B = KForm.zero(7, 2, ring)
    for cm, Bm in zip(_C_NAMES, g2.basis14_for(ring)):
        B = B + Bm * val(cm)
    lhs = hodge(wedge(g2.phi_for(ring), B))
    return [("annihilator-type", lhs, B * _c(ring, consts, "eig-scale"))]


def _build_w3(ring, val, consts):
    u, F7, F = _decomposed_F(ring, val)
    lhs = wedge(F, g2.star_phi_for(ring))
    rhs = hodge(u) * _c(ring, consts, "rhs-scale")
    return [("coassociative", lhs, rhs)]


def _build_sf(ring, val, consts):
    u, F7, F = _decomposed_F(ring, val)
    F14 = F - F7
    phi = g2.phi_for(ring)
    return [
        ("star-f7", hodge(F7), wedge(F7, phi) * _c(ring, consts, "f7-scale")),
        ("star-f14", hodge(F14), wedge(F14, phi) * _c(ring, consts, "f14-scale")),
    ]


def _build_cyl(ring, val, consts):
    adot = KForm(7, 1, tuple(val(nm) for nm in _A_NAMES), ring)
    E = _form(ring, val, _F_NAMES)
    E2 = wedge(E, E)
    E8 = g2.embed_cylinder(E)
    E82 = wedge(E8, E8)
    a8 = g2.embed_cylinder(adot)
    six8 = cube(E8, E82) + g2.dt_wedge(wedge(a8, E82)) * ring.coerce(3)
    lhs = hodge(six8) * frac(ring, 1, 6)
    rhs = g2.embed_cylinder(hodge(wedge(adot, E2))) * _c(ring, consts, "cross-scale") \
        + g2.dt_wedge(g2.embed_cylinder(hodge(cube(E, E2)))) * _c(ring, consts, "time-scale")
    return [("cylinder-star", lhs, rhs)]


_CATALOG: dict = {}


def _register(id_, variables, consts, build, bound=EXPONENT_BOUND):
    _CATALOG[id_] = _IdentitySpec(id=id_, variables=tuple(variables),
                                  consts=dict(consts), build=build, bound=bound)


_register("A1", _F_NAMES, {"cube-scale": Fraction(1, 6), "corr-scale": Fraction(1, 2)},
          _build_a1)
_register("A2a", _F_NAMES, {}, _build_a2a)
_register("A2b", _U_NAMES + _C_NAMES, {"rhs-scale": Fraction(-6)}, _build_a2b)
_register("A4", _F_NAMES, {"corr-scale": Fraction(1, 2), "rhs-scale": Fraction(1, 2),
                           "theta-inner": Fraction(1, 2)}, _build_a4)
_register("A5", _U_NAMES, {"rhs-scale": Fraction(6)}, _build_a5)
_register("A3F", _F_NAMES, {"corr-scale": Fraction(1, 2)}, _build_a3f)
_register("DET", _F_NAMES, {"rhs-scale": Fraction(1)}, _build_det, bound=4)
_register("EIG7", _U_NAMES, {"eig-scale": Fraction(2)}, _build_eig7)
_register("EIG14", _C_NAMES, {"eig-scale": Fraction(-1)}, _build_eig14)
_register("W3", _U_NAMES + _C_NAMES, {"rhs-scale": Fraction(3)}, _build_w3)
_register("SF", _U_NAMES + _C_NAMES, {"f7-scale": Fraction(1, 2), "f14-scale": Fraction(-1)},
          _build_sf)
_register("CYL", _A_NAMES + _F_NAMES, {"cross-scale": Fraction(1, 2),
                                       "time-scale": Fraction(1, 6)}, _build_cyl)

CATALOG_ORDER = ("A1", "A2a", "A2b", "A4", "A5", "A3F", "DET", "EIG7", "EIG14",
                 "W3", "SF", "CYL")

# the canonical single-site mutations exercised by the acceptance suite;
# twelve in total, drawn from the eleven identities with mutable sites
# (A4 contributes two, A2a none)
CANONICAL_MUTATIONS = (
    ("A1", "corr-scale", Fraction(1)),
    ("A2b", "rhs-scale", Fraction(-5)),
    ("A4", "rhs-scale", Fraction(1)),
    ("A4", "corr-scale", Fraction(1)),
    ("A5", "rhs-scale", Fraction(5)),
    ("A3F", "corr-scale", Fraction(1)),
    ("DET", "rhs-scale", Fraction(2)),
    ("EIG7", "eig-scale", Fraction(3)),
    ("EIG14", "eig-scale", Fraction(1)),
    ("W3", "rhs-scale", Fraction(2)),
    ("SF", "f7-scale", Fraction(1)),
    ("CYL", "cross-scale", Fraction(1)),
)

_derived: dict = {}


def catalog_ids() -> tuple:
    return CATALOG_ORDER


def identity_sites(identity_id: str) -> tuple:
    return tuple(sorted(_lookup(identity_id).consts))


def canonical_mutations() -> tuple:
    return CANONICAL_MUTATIONS


def _lookup(identity_id: str) -> _IdentitySpec:
    spec = _CATALOG.get(identity_id) or _derived.get(identity_id)
    if spec is None:
        raise InputError(f"unknown identity {identity_id!r}; catalog: {', '.join(CATALOG_ORDER)}")
    return spec


def mutate(identity_id: str, site: str, new_coefficient) -> str:
    """Register a single-site mutated variant; returns its id.

    The variant is expected to FAIL verification (that failure is the test).
    """
    base = _CATALOG.get(identity_id)
    if base is None:
        raise InputError(f"unknown identity {identity_id!r}")
    if not base.consts:
        raise InputError(f"identity {identity_id} has no mutable sites")
    if site not in base.consts:
        raise InputError(f"identity {identity_id} has no site {site!r}; "
                         f"sites: {', '.join(sorted(base.consts))}")
    if isinstance(new_coefficient, float):
        new_coefficient = Fraction(new_coefficient).limit_denominator(10 ** 9)
    value = Fraction(new_coefficient)
    if value == base.consts[site]:
        raise InputError(f"mutation must change the constant at {site} "
                         f"(it is already {base.consts[site]})")
    consts = dict(base.consts)
    consts[site] = value
    mid = f"{identity_id}[{site}={value}]"
    _derived[mid] = dataclasses.replace(base, id=mid, consts=consts)
    return mid


def _count_monomials(x) -> int:
    """Terms on one side of a component: a ``KForm`` over the polynomial
    ring or a packed DET side."""
    if isinstance(x, _Packed):
        return len(x.keys) if x.scale else 0
    return sum(c.nterms() for c in x.coeffs)


def _first_witness(label: str, diff: KForm) -> dict | None:
    """Deterministic witness of a polynomial form: first nonzero
    coefficient in blade order, lexicographically first monomial within it."""
    named = zip(("e^" + "".join(map(str, b)) for b in blades(diff.n, diff.k)), diff.coeffs)
    for blade, c in named:
        if not c.is_zero():
            e, coef = c.leading()
            return {"component": label, "blade": blade,
                    "monomial": c.monomial_str(e), "coefficient": str(coef)}
    return None


def verify(identity_id: str) -> IdentityReport:
    """Expand the identity over its polynomial ring and decide zero."""
    spec = _lookup(identity_id)
    ring = PolyRing(spec.variables, spec.bound)
    components = spec.build(ring, ring.var, spec.consts)
    count = 0
    witness = None
    for label, lhs, rhs in components:
        count += _count_monomials(lhs) + _count_monomials(rhs)
        if witness is None:
            witness = (_packed_witness(label, lhs, rhs, ring) if isinstance(lhs, _Packed)
                       else _first_witness(label, lhs - rhs))
    return IdentityReport(identity=identity_id, reduced_to_zero=witness is None,
                          witness=witness,
                          monomial_count_before_cancellation=count,
                          components=len(components))


def verify_all() -> list:
    """Run the full catalog in its canonical order."""
    return [verify(i) for i in CATALOG_ORDER]


def evaluate_at_point(identity_id: str, rng) -> bool:
    """Evaluate the identity at one random rational point (consistency probe);
    True iff every component difference evaluates to zero there."""
    spec = _lookup(identity_id)
    point = {name: Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 40)))
             for name in spec.variables}
    components = spec.build(RATIONAL, lambda nm: point[nm], spec.consts)
    return all((lhs - rhs).is_zero() for _, lhs, rhs in components)


# float samples evaluated per batch: bounds the suite's memory for any count
FLOAT_BATCH = 512


def _float_gaps(spec: _IdentitySpec, columns) -> np.ndarray:
    """Worst relative residual of one identity at each point of a batch.

    ``columns`` holds one row per variable of ``spec`` and one column per
    point.  Each residual is relative to the larger participating side,
    floored at 1 so identities whose sides are themselves zero stay
    meaningful."""
    point = dict(zip(spec.variables, columns))
    worst = np.zeros(columns.shape[1])
    for _, lhs, rhs in spec.build(BATCH, point.__getitem__, spec.consts):
        worst = np.maximum(worst, _rel_gap(lhs, rhs))
    return worst


def evaluate_float(identity_id: str, rng, tol: float = 1e-10) -> dict:
    """Evaluate the identity at one random float point, coefficients uniform
    in [-1, 1] (a batch of one)."""
    spec = _lookup(identity_id)
    point = rng.uniform(-1.0, 1.0, (1, len(spec.variables)))
    worst = float(_float_gaps(spec, point.T)[0])
    return {"identity": identity_id, "max_rel_residual": worst,
            "pass": bool(worst <= tol)}


def _absmax(form: KForm):
    """max |coefficient|: a float at one point, an array over a batch."""
    return functools.reduce(np.maximum, map(abs, form.coeffs))


def _rel_gap(a: KForm, b: KForm):
    num = functools.reduce(np.maximum, (abs(x - y) for x, y in zip(a.coeffs, b.coeffs)))
    return num / np.maximum(np.maximum(_absmax(a), _absmax(b)), 1.0)


def decomposition_checks(F: KForm):
    """Split a 2-form F and check the split seven ways, in F's ring: FLOAT
    at one point, BATCH at every point of a batch.

    Returns (decompose2(F), {u_sq, f7_sq, f14_sq}, theta(F), residuals,
    det(I + F#)); the eighth check is that the determinant is positive.  Form
    gaps are relative to the larger side, the annihilator and orthogonality
    checks to max(|F|, 1), and the theta and calibration splits to
    max(|direct value|, 1).
    """
    dec = g2.decompose2(F)
    scale = np.maximum(_absmax(F), 1.0)
    u2 = inner(dec.u, dec.u)
    f7sq = inner(dec.f7, dec.f7)
    f14sq = inner(dec.f14, dec.f14)
    th = ddt.theta_weight(F)
    calib = ddt._calibration(wedge(F, F))
    residuals = {
        "recompose": _rel_gap(dec.f7 + dec.f14, F),
        "f14_annihilates": _absmax(wedge(dec.f14, g2.star_phi_for(F.ring))) / scale,
        "f7_f14_orthogonal": abs(inner(dec.f7, dec.f14)) / scale,
        "eig7": _rel_gap(g2.star_wedge_phi(dec.f7), 2.0 * dec.f7),
        "eig14": _rel_gap(g2.star_wedge_phi(dec.f14), -1.0 * dec.f14),
        "theta_split": abs(th - (1.0 - 3.0 * u2 + 0.5 * f14sq)) / np.maximum(abs(th), 1.0),
        "calibration_split": abs(calib - (2.0 * f7sq - f14sq)) / np.maximum(abs(calib), 1.0),
    }
    norms = {"u_sq": u2, "f7_sq": f7sq, "f14_sq": f14sq}
    return dec, norms, th, residuals, det_endo(Endo.identity(7, F.ring) + sharp2(F))


def float_suite(samples: int, seed: int = 0, tol: float = 1e-10) -> dict:
    """Random float sweep: every catalog identity, the seven 2-form
    decomposition checks of ``decomposition_checks``, and positivity of
    det(I + F#).  Deterministic for fixed (samples, seed).

    Each sample draws, in order, every identity's variables and then the
    21 coefficients of F, all uniform in [-1, 1]; the samples run through
    the BATCH ring, ``FLOAT_BATCH`` at a time, and each maximum is taken
    over them."""
    check_count("samples", samples, 1)
    rng = np.random.default_rng(seed)
    specs = [_lookup(i) for i in catalog_ids()]
    ends = np.cumsum([len(spec.variables) for spec in specs]).tolist()
    worst = {spec.id: 0.0 for spec in specs}
    deco = {}
    det_min = np.inf
    for start in range(0, samples, FLOAT_BATCH):
        n = min(FLOAT_BATCH, samples - start)
        columns = rng.uniform(-1.0, 1.0, (n, ends[-1] + 21)).T.copy()
        for spec, lo, hi in zip(specs, [0] + ends, ends):
            worst[spec.id] = max(worst[spec.id], float(_float_gaps(spec, columns[lo:hi]).max()))
        *_, residuals, det = decomposition_checks(KForm(7, 2, tuple(columns[ends[-1]:]), BATCH))
        for name, v in residuals.items():
            deco[name] = max(deco.get(name, 0.0), float(np.max(v)))
        det_min = min(det_min, float(np.min(det)))
    n_fail = sum(1 for v in worst.values() if v > tol) \
        + sum(1 for v in deco.values() if v > tol) \
        + (0 if det_min > 0.0 else 1)
    return {
        "samples": int(samples),
        "seed": int(seed),
        "tol": float(tol),
        "identity_max_rel": worst,
        "decomposition_max_rel": deco,
        "det_metric_min": det_min,
        "det_metric_positive": bool(det_min > 0.0),
        "failures": int(n_fail),
        "pass": bool(n_fail == 0),
    }
