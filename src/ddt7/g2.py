"""The standard G2 structure on R^7 and its 2-form decomposition.

phi = e^123 + e^145 + e^167 + e^246 - e^257 - e^347 - e^356, with the
Euclidean metric and vol = e^{1..7}.  Under the induced action on 2-forms,
Lambda^2 = Lambda^2_7 + Lambda^2_14 with Lambda^2_7 = {i(u#)phi}, u a
1-form (the metric makes it the vector u#, with the same coefficients), and
Lambda^2_14 = ker(. ^ *phi); the operator F -> *(phi ^ F) has eigenvalues
2 and -1 on the two summands.

The exact Lambda^2_14 basis (the catalog's c_m variables) is read off the
free columns of F -> F ^ *phi, reduced by ``exalg._gauss_jordan``.

``phi_for``/``star_phi_for`` serve the formulas of ``ddt`` (the calibration
scalar among them) on every call; each ring object builds them once, phi
from its integer coefficients through the ring's ``coerce`` and *phi as
phi's Hodge star, and keeps them in its ``memo``.

Also hosts the two scalar pairings that characterize the evolution equations
on a product R x T^7 (t the first coordinate, vol_8 = dt ^ vol_7), and the
embedding helpers for building 8-dimensional forms from 7-dimensional ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .scalars import RATIONAL, frac
from .exalg import (KForm, _gauss_jordan, blade_index, blades, cube, hodge, inner,
                    interior, wedge)

__all__ = [
    "G2Data", "standard", "phi_for", "star_phi_for", "basis14_for", "TwoFormDecomp",
    "decompose2", "star_wedge_phi", "spin7_pair1", "spin7_pair2",
    "embed_cylinder", "dt_wedge",
]

PHI_BLADES = {
    (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
    (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1,
}


@dataclass(frozen=True)
class G2Data:
    """phi, *phi, vol and an exact-rational basis of Lambda^2_14."""

    phi: KForm
    star_phi: KForm
    vol: KForm
    basis14: tuple


def _kernel_basis14(phi4: KForm) -> tuple:
    """Exact kernel of F -> F ^ *phi on 2-forms: one element per free column
    of the reduced row echelon form (``exalg._gauss_jordan``), in order,
    with that column's variable 1 and each pivot variable solved from its row."""
    ring, bl = RATIONAL, blades(7, 2)
    # rows: 6-form components, columns: 2-form blade coefficients
    images = [wedge(KForm.from_blades(7, 2, {b: 1}, ring), phi4).coeffs for b in bl]
    rows = [list(row) for row in zip(*images)]
    pivots = _gauss_jordan(rows, ring)
    basis = []
    for fc in (c for c in range(len(bl)) if c not in pivots):
        solved = {bl[pc]: -row[fc] for row, pc in zip(rows, pivots)}
        basis.append(KForm.from_blades(7, 2, {bl[fc]: 1, **solved}, ring))
    return tuple(basis)


@lru_cache(maxsize=None)
def standard() -> G2Data:
    """The shared immutable G2 data, exact-rational backend."""
    ring = RATIONAL
    phi = phi_for(ring)
    star_phi = star_phi_for(ring)
    vol = hodge(KForm.from_blades(7, 0, {(): 1}, ring))
    # orientation self-check: (i(e1)phi) ^ *phi must equal +3*(e^1)
    probe = wedge(interior(KForm.from_blades(7, 1, {(1,): 1}, ring), phi), star_phi)
    expect = hodge(KForm.from_blades(7, 1, {(1,): 3}, ring))
    if probe.coeffs != expect.coeffs:
        raise AssertionError("orientation self-check failed: F ^ *phi = 3 *u "
                             "does not hold with vol = e^{1..7}")
    basis14 = _kernel_basis14(star_phi)
    if len(basis14) != 14:
        raise AssertionError(f"Lambda^2_14 kernel has dimension {len(basis14)}, expected 14")
    for B in basis14:
        if not wedge(B, star_phi).is_zero():
            raise AssertionError("basis14 element fails B ^ *phi = 0")
    return G2Data(phi=phi, star_phi=star_phi, vol=vol, basis14=basis14)


def phi_for(ring) -> KForm:
    """phi with coefficients in the requested ring (one per ring object)."""
    phi = ring.memo.get("phi")
    if phi is None:
        phi = ring.memo["phi"] = KForm(7, 3, tuple(ring.coerce(PHI_BLADES.get(b, 0))
                                                   for b in blades(7, 3)), ring)
    return phi


def star_phi_for(ring) -> KForm:
    """*phi with coefficients in the requested ring (one per ring object)."""
    star_phi = ring.memo.get("star_phi")
    if star_phi is None:
        star_phi = ring.memo["star_phi"] = hodge(phi_for(ring))
    return star_phi


def basis14_for(ring) -> tuple:
    """The basis of Lambda^2_14 with coefficients in the requested ring (one
    per ring object)."""
    basis = ring.memo.get("basis14")
    if basis is None:
        basis = ring.memo["basis14"] = tuple(
            KForm(7, 2, tuple(map(ring.coerce, B.coeffs)), ring) for B in standard().basis14)
    return basis


@dataclass(frozen=True)
class TwoFormDecomp:
    """F = i(u#)phi + f14 with f14 ^ *phi = 0, for the 1-form u."""

    u: KForm
    f7: KForm
    f14: KForm


def decompose2(F: KForm) -> TwoFormDecomp:
    """Split a 2-form into its 7- and 14-dimensional components.

    The 1-form u is *(F ^ *phi) / 3, which pins both the component and the
    orientation convention.
    """
    if F.k != 2 or F.n != 7:
        raise InputError("decompose2 requires a 2-form on R^7")
    ring = F.ring
    u = hodge(wedge(F, star_phi_for(ring))) * frac(ring, 1, 3)
    f7 = interior(u, phi_for(ring))
    return TwoFormDecomp(u=u, f7=f7, f14=F - f7)


def star_wedge_phi(F: KForm) -> KForm:
    """The operator *(phi ^ F) on 2-forms (eigenvalues 2 on Lambda^2_7, -1 on Lambda^2_14)."""
    if F.k != 2:
        raise InputError("star_wedge_phi requires a 2-form")
    return hodge(wedge(phi_for(F.ring), F))


def spin7_pair1(E: KForm, adot: KForm, b: KForm):
    """First evolution pairing: <adot - (1/6)*E^3, b> + <E - (1/2)*(adot^E^2), i(b#)phi>."""
    _check_pair_args(E, adot, b)
    ring = E.ring
    sixth = frac(ring, 1, 6)
    half = frac(ring, 1, 2)
    E2 = wedge(E, E)
    star_E3 = hodge(cube(E, E2))
    t1 = inner(adot - star_E3 * sixth, b)
    t2 = inner(E - hodge(wedge(adot, E2)) * half, interior(b, phi_for(ring)))
    return t1 + t2


def spin7_pair2(E: KForm, adot: KForm, b: KForm):
    """Second evolution pairing: <2 adot ^ E, i(b#)*phi> - <E^2, b ^ phi>."""
    _check_pair_args(E, adot, b)
    ring = E.ring
    t1 = inner(wedge(adot, E) * ring.coerce(2), interior(b, star_phi_for(ring)))
    t2 = inner(wedge(E, E), wedge(b, phi_for(ring)))
    return t1 - t2


def _check_pair_args(E: KForm, adot: KForm, b: KForm):
    if E.n != 7 or adot.n != 7 or b.n != 7:
        raise InputError("pairings are defined on R^7")
    if E.k != 2 or adot.k != 1 or b.k != 1:
        raise InputError("pairings require (2-form, 1-form, 1-form)")


# --------------------------------------------------------------------------
# cylinder embedding: R x R^7, t is axis 1, vol_8 = dt ^ vol_7


def embed_cylinder(a: KForm) -> KForm:
    """Include a k-form on R^7 into R^8 by shifting every axis up by one."""
    if a.n != 7:
        raise InputError("embed_cylinder expects a form on R^7")
    pos8 = blade_index(8, a.k)
    out = [a.ring.zero] * len(blades(8, a.k))
    for b7, c in zip(blades(7, a.k), a.coeffs):
        out[pos8[tuple(x + 1 for x in b7)]] = c
    return KForm(8, a.k, tuple(out), a.ring)


def dt_wedge(a8: KForm) -> KForm:
    """dt ^ (.) on R^8 forms, dt = e^1."""
    if a8.n != 8:
        raise InputError("dt_wedge expects a form on R^8")
    dt = KForm.from_blades(8, 1, {(1,): 1}, a8.ring)
    return wedge(dt, a8)
