"""Pointwise deformed Donaldson-Thomas operators on R^7.

Sign ledger (the single place the real-valued convention is spelled out):
the curvature of a Hermitian line-bundle connection is purely imaginary,
F = sqrt(-1) E with E a real 2-form.  Every operator below takes E.  Under
this substitution

* dDT condition  (1/6)F^3 + F ^ *phi = 0   becomes   R(E) := E^3/6 - E^*phi = 0,
* scaled residual s^4 F^3/6 + F ^ *phi     becomes   s^4 E^3/6 - E ^ *phi,
* almost-calibrated weight 1 + (1/2)*(phi ^ F^2)  becomes
      theta(E) = 1 - (1/2)*(phi ^ E^2),
* the gradient direction of the curvature functional is eta(E)/theta(E) with
      eta(E) = *( R(E) + (1/2) * (phi ^ *E^2) ^ *E ),
  which the catalog's A1 proves equal to the transport
      eta(E) = (1 - E#E#)^* *R(E) = *R - i(i(*R)E)E,
  the form every caller evaluates (i is ``exalg.interior``).

Each formula has one home, a helper below taking E2 = E ^ E or R (each
caller squares E once and forms R once), and runs unchanged on a
``torus.FormField``: ``exalg.wedge``, ``cube``, ``interior`` and ``hodge``
hand fields to the field kernels.  Formula -> helper: callers

  E^2 = E ^ E               -> ``exalg.wedge(E, E)`` (``torus.wedge_field``
                               on fields), one object twice, so the power
                               table: every caller
  E^3                       -> ``exalg.cube(E, E2)``: ``_residual``, the
                               catalog (A2a, A5, CYL), g2, torus
  c E^3 - E ^ *phi          -> ``_residual(E, E2, c)``: torus, flow
  3c E^2 - *phi  (dR/dE)    -> ``_residual_weight(E2, c)``: torus, flow Newton
  *(phi ^ E^2), theta       -> ``_calibration(E2)``, ``_theta(E2)``: flow,
                               flow Newton (theta_s, of s^4 E2)
  eta = *R - i(i(*R)E)E     -> ``_eta(E, R)``, from the caller's R: flow,
                               ``eta``, ``point_residual``, ``grad_density``,
                               ``spin7_combined``
  phi ^ *E^2, (.) ^ *E      -> ``_phi_star_sq``, ``_correction``: the
                               catalog (A1, A2b, A4, A3F), ``_res2``
  the evolution residuals   -> ``_res1``, ``_res2`` (with ``_adot_E_phi``):
                               flow's cylinder check

``deformed_inner`` and ``grad_density`` take one point only.

The two evolution residuals are evaluated literally from their displayed
forms (not through the combined equation), so that the equivalence between
the combined form and the pair is a checkable fact rather than an assumption.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateMetricError, InputError
from .scalars import FLOAT, frac
from .exalg import Endo, KForm, cube, hodge, inner, interior, sharp2, solve_endo, wedge
from .g2 import phi_for, star_phi_for

__all__ = [
    "PointResidual", "ddt_residual", "scaled_residual", "eta", "theta_weight",
    "deformed_inner", "grad_density", "spin7_res1", "spin7_res2", "spin7_combined",
    "point_residual", "THETA_TOL",
]

THETA_TOL = 1e-9


@dataclass(frozen=True)
class PointResidual:
    """Residual bundle at a single point: the 6-form R(E), eta, and theta."""

    r6: KForm
    eta: KForm
    theta: object


def _check_E(E, point=False):
    if point and not isinstance(E, KForm):
        raise InputError("expected a 2-form at one point, not a field")
    if E.n != 7 or E.k != 2:
        raise InputError("expected a 2-form on R^7")


def _residual(E, E2, c):
    """c E^3 - E ^ *phi."""
    return cube(E, E2) * c - wedge(E, star_phi_for(E.ring))


def _residual_weight(E2, c):
    """W = 3c E^2 - *phi, the derivative of ``_residual``: dR(b) = b ^ W."""
    return E2 * (3 * c) - star_phi_for(E2.ring)


def _calibration(E2):
    """The scalar *(phi ^ E^2)."""
    return hodge(wedge(phi_for(E2.ring), E2)).coeffs[0]


def _theta(E2):
    """theta = 1 - (1/2) * (phi ^ E^2)."""
    return E2.ring.one - _calibration(E2) * frac(E2.ring, 1, 2)


def _phi_star_sq(E2):
    """The 6-form phi ^ *E^2."""
    return wedge(phi_for(E2.ring), hodge(E2))


def _correction(E, E2):
    """The 6-form (phi ^ *E^2) ^ *E, unscaled."""
    return wedge(hodge(_phi_star_sq(E2)), hodge(E))


def _eta(E, R):
    """The 1-form eta from E and R = R(E): A1's transport (1 - E#E#)^* *R,
    which is *R - i(i(*R)E)E, two interior products after one star."""
    w = hodge(R)
    return w - interior(interior(w, E), E)


def ddt_residual(E):
    """R(E) = E^3/6 - E ^ *phi; zero iff the connection is dDT."""
    _check_E(E)
    return _residual(E, wedge(E, E), frac(E.ring, 1, 6))


def scaled_residual(E, s):
    """s^4 E^3/6 - E ^ *phi; s=1 is the dDT residual, s=0 the instanton residual."""
    _check_E(E)
    s = E.ring.coerce(s)
    return _residual(E, wedge(E, E), s * s * s * s * frac(E.ring, 1, 6))


def eta(E):
    """The 1-form eta(E) = *( R(E) + (1/2)*(phi ^ *E^2) ^ *E ), evaluated
    as *R - i(i(*R)E)E (A1)."""
    _check_E(E)
    return _eta(E, ddt_residual(E))


def theta_weight(E):
    """theta(E) = 1 - (1/2)*(phi ^ E^2); positive on the almost-calibrated set."""
    _check_E(E)
    return _theta(wedge(E, E))


def point_residual(E) -> PointResidual:
    _check_E(E)
    E2 = wedge(E, E)
    r6 = _residual(E, E2, frac(E.ring, 1, 6))
    return PointResidual(r6=r6, eta=_eta(E, r6), theta=_theta(E2))


def deformed_inner(E: KForm, a: KForm, b: KForm):
    """<a, b> for the metric pulled back by (id + E#): both arguments are
    transported by ((id + E#)^{-1})* before the Euclidean pairing."""
    _check_E(E, point=True)
    if a.k != 1 or b.k != 1:
        raise InputError("deformed_inner pairs 1-forms")
    A = Endo.identity(7, E.ring) + sharp2(E)
    return inner(solve_endo(A, a), solve_endo(A, b))


def grad_density(E: KForm, theta_tol: float = THETA_TOL) -> KForm:
    """Pointwise gradient direction eta(E)/theta(E) of the curvature functional.

    Raises when |theta| falls below theta_tol in the float backend (the metric
    degenerates there); exact backends only reject exact zero.
    """
    _check_E(E, point=True)
    E2 = wedge(E, E)
    th = _theta(E2)
    if E.ring is FLOAT:
        if abs(th) < theta_tol:
            raise DegenerateMetricError(
                f"theta = {th:.3e} below tolerance {theta_tol:.1e}: "
                "left the almost-calibrated set", theta=th)
    elif E.ring.is_zero(th):
        raise DegenerateMetricError("theta = 0: gradient direction undefined", theta=th)
    return _eta(E, _residual(E, E2, frac(E.ring, 1, 6))) / th


def _adot_E_phi(E, adot):
    """The 6-form (adot ^ E) ^ phi shared by both evolution residuals."""
    return wedge(wedge(adot, E), phi_for(E.ring))


def _res1(E, E2, adot, aEphi):
    """First evolution residual from E2 = E ^ E and aEphi = (adot ^ E) ^ phi."""
    return _residual(E, E2, frac(E.ring, 1, 6)) - hodge(adot) * _theta(E2) \
        + wedge(hodge(aEphi), hodge(E))


def _res2(E2, aEphi):
    """Second evolution residual from E2 = E ^ E and aEphi = (adot ^ E) ^ phi."""
    return _phi_star_sq(E2) * frac(E2.ring, 1, 2) - aEphi


def spin7_res1(E, adot):
    """First evolution residual (6-form), literal:
    -*phi ^ E + E^3/6 - theta(E) * (*adot) + *(adot ^ E ^ phi) ^ *E."""
    _check_E(E)
    return _res1(E, wedge(E, E), adot, _adot_E_phi(E, adot))


def spin7_res2(E, adot):
    """Second evolution residual (6-form), literal: (1/2) phi ^ *E^2 - adot ^ E ^ phi."""
    _check_E(E)
    return _res2(wedge(E, E), _adot_E_phi(E, adot))


def spin7_combined(E, adot):
    """The eliminated form: -*phi ^ E + E^3/6 + (1/2)*(phi ^ *E^2) ^ *E - theta(E) * (*adot).

    Zero iff theta(E)*adot equals eta(E); for theta != 0 this is equivalent
    to both literal residuals vanishing.
    """
    _check_E(E)
    E2 = wedge(E, E)
    eta_ = _eta(E, _residual(E, E2, frac(E.ring, 1, 6)))
    return hodge(eta_) - hodge(adot) * _theta(E2)  # ** is 1 on 1-forms
