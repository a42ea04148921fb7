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
      eta(E) = *( R(E) + (1/2) * (phi ^ *E^2) ^ *E ).

Each formula has one home per layer.  Exact and pointwise: ``_residual(E, c)``
(c E^3 - E ^ *phi), ``g2.calibration_scalar`` (*(phi ^ E^2)), ``_phi_star_sq``
(phi ^ *E^2), ``_correction`` ((phi ^ *E^2) ^ *E) and
``prover.decomposition_checks``.  Fields, from E and E2 = E ^ E:
``torus._residual`` (behind ``curvature_residual``), ``_theta``,
``_phi_star_sq``, ``_correction`` and ``_residual_weight`` (s^4 E^2/2 - *phi,
dR/dE).

The two evolution residuals are evaluated literally from their displayed
forms (not through the combined equation), so that the equivalence between
the combined form and the pair is a checkable fact rather than an assumption.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateMetricError, InputError
from .scalars import FLOAT, frac, intval
from . import g2
from .exalg import Endo, KForm, hodge, inner, sharp2, solve_endo, wedge
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


def _check_E(E: KForm):
    if E.n != 7 or E.k != 2:
        raise InputError("expected a 2-form on R^7")


def _residual(E: KForm, cube) -> KForm:
    """cube * E^3 - E ^ *phi, the residual body of the exact and pointwise layers."""
    return wedge(E, wedge(E, E)) * cube - wedge(E, star_phi_for(E.ring))


def _phi_star_sq(E: KForm) -> KForm:
    """phi ^ *E^2 as a 6-form."""
    return wedge(phi_for(E.ring), hodge(wedge(E, E)))


def _correction(E: KForm) -> KForm:
    """(phi ^ *E^2) ^ *E as a 6-form, unscaled."""
    return wedge(hodge(_phi_star_sq(E)), hodge(E))


def ddt_residual(E: KForm) -> KForm:
    """R(E) = E^3/6 - E ^ *phi; zero iff the connection is dDT."""
    _check_E(E)
    return _residual(E, frac(E.ring, 1, 6))


def scaled_residual(E: KForm, s) -> KForm:
    """s^4 E^3/6 - E ^ *phi; s=1 is the dDT residual, s=0 the instanton residual."""
    _check_E(E)
    s = E.ring.coerce(s)
    return _residual(E, s * s * s * s * frac(E.ring, 1, 6))


def _eta_correction(E: KForm) -> KForm:
    """(1/2) * (phi ^ *E^2) ^ *E as a 6-form."""
    return _correction(E) * frac(E.ring, 1, 2)


def eta(E: KForm) -> KForm:
    """The 1-form eta(E) = *( R(E) + (1/2)*(phi ^ *E^2) ^ *E )."""
    _check_E(E)
    return hodge(ddt_residual(E) + _eta_correction(E))


def theta_weight(E: KForm):
    """theta(E) = 1 - (1/2)*(phi ^ E^2); positive on the almost-calibrated set."""
    _check_E(E)
    return intval(E.ring, 1) - g2.calibration_scalar(E) * frac(E.ring, 1, 2)


def point_residual(E: KForm) -> PointResidual:
    r6 = ddt_residual(E)
    return PointResidual(r6=r6, eta=hodge(r6 + _eta_correction(E)), theta=theta_weight(E))


def deformed_inner(E: KForm, a: KForm, b: KForm):
    """<a, b> for the metric pulled back by (id + E#): both arguments are
    transported by ((id + E#)^{-1})* before the Euclidean pairing."""
    _check_E(E)
    if a.k != 1 or b.k != 1:
        raise InputError("deformed_inner pairs 1-forms")
    A = Endo.identity(7, E.ring) + sharp2(E)
    return inner(solve_endo(A, a), solve_endo(A, b))


def grad_density(E: KForm, theta_tol: float = THETA_TOL) -> KForm:
    """Pointwise gradient direction eta(E)/theta(E) of the curvature functional.

    Raises when |theta| falls below theta_tol in the float backend (the metric
    degenerates there); exact backends only reject exact zero.
    """
    _check_E(E)
    th = theta_weight(E)
    if E.ring is FLOAT:
        if abs(th) < theta_tol:
            raise DegenerateMetricError(
                f"theta = {th:.3e} below tolerance {theta_tol:.1e}: "
                "left the almost-calibrated set", theta=th)
    elif E.ring.is_zero(th):
        raise DegenerateMetricError("theta = 0: gradient direction undefined", theta=th)
    return eta(E) / th


def spin7_res1(E: KForm, adot: KForm) -> KForm:
    """First evolution residual (6-form), literal:
    -*phi ^ E + E^3/6 - theta(E) * (*adot) + *(adot ^ E ^ phi) ^ *E."""
    return ddt_residual(E) - hodge(adot) * theta_weight(E) \
        + wedge(hodge(wedge(adot, wedge(E, phi_for(E.ring)))), hodge(E))


def spin7_res2(E: KForm, adot: KForm) -> KForm:
    """Second evolution residual (6-form), literal: (1/2) phi ^ *E^2 - adot ^ E ^ phi."""
    _check_E(E)
    return _phi_star_sq(E) * frac(E.ring, 1, 2) - wedge(adot, wedge(E, phi_for(E.ring)))


def spin7_combined(E: KForm, adot: KForm) -> KForm:
    """The eliminated form: -*phi ^ E + E^3/6 + (1/2)*(phi ^ *E^2) ^ *E - theta(E) * (*adot).

    Zero iff theta(E)*adot equals eta(E); for theta != 0 this is equivalent
    to both literal residuals vanishing.
    """
    return ddt_residual(E) + _eta_correction(E) - hodge(adot) * theta_weight(E)
