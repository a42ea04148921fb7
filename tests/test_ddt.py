"""Pointwise operators: residual, calibration weight, gradient direction,
and the two product-space residuals, checked on frozen exact cases."""
import math
from fractions import Fraction

import numpy as np
import pytest

from ddt7 import ddt, g2, prover
from ddt7.errors import DegenerateMetricError, InputError
from ddt7.exalg import KForm, hodge, inner, interior, wedge
from ddt7.scalars import FLOAT, RATIONAL, PolyRing, frac


def _iu_phi(u_comps, ring=RATIONAL):
    return interior(KForm.from_coeffs(7, 1, u_comps, ring), g2.phi_for(ring))


def test_residual_of_vector_type_curvature_is_exact():
    # E = i(u)phi gives R(E) = (|u|^2 - 3) * hodge(u_flat), checked for
    # u = (26/15) e1: |u|^2 - 3 = 1/225 and the residual is (26/3375) * e^1
    q = Fraction(26, 15)
    E = _iu_phi([q, 0, 0, 0, 0, 0, 0])
    R = ddt.ddt_residual(E)
    expect = hodge(KForm.from_blades(7, 1, {(1,): Fraction(26, 3375)}, RATIONAL))
    assert R.coeffs == expect.coeffs
    norm_sq = inner(R, R)
    assert norm_sq == Fraction(26, 3375) ** 2


def test_residual_scaling_law_along_vector_directions():
    rng = np.random.default_rng(30)
    for _ in range(5):
        u = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
             for _ in range(7)]
        E = _iu_phi(u)
        u2 = sum(c * c for c in u)
        uflat = KForm.from_coeffs(7, 1, u, RATIONAL)
        expect = hodge(uflat) * (u2 - 3)
        assert ddt.ddt_residual(E).coeffs == expect.coeffs


def test_sqrt3_direction_solves_the_equation_in_float():
    E = _iu_phi([math.sqrt(3.0), 0, 0, 0, 0, 0, 0], FLOAT)
    R = ddt.ddt_residual(E)
    assert max(abs(c) for c in R.coeffs) <= 1e-12


def test_scaled_residual_interpolates():
    rng = np.random.default_rng(31)
    coeffs = [float(x) for x in rng.uniform(-1, 1, 21)]
    E = KForm.from_coeffs(7, 2, coeffs, FLOAT)
    s0 = ddt.scaled_residual(E, 0.0)
    instanton_part = -wedge(E, g2.star_phi_for(FLOAT))
    assert np.allclose(s0.coeffs, instanton_part.coeffs, atol=1e-14)
    s1 = ddt.scaled_residual(E, 1.0)
    assert np.allclose(s1.coeffs, ddt.ddt_residual(E).coeffs, atol=1e-14)


def test_theta_weight_frozen_values():
    # i(e1)phi has |f7|^2 = 3: theta = 1 - 3|u|^2 = -2
    assert ddt.theta_weight(_iu_phi([1, 0, 0, 0, 0, 0, 0])) == -2
    # e^12 + e^47 lies in Lambda^2_14: theta = 1 + |F14|^2 / 2 = 2
    F = KForm.from_blades(7, 2, {(1, 2): 1, (4, 7): 1}, RATIONAL)
    assert ddt.theta_weight(F) == 2


def test_grad_density_frozen_value():
    # u = e1/2: eta = (|u|^2 - 3 + 3|u|^2 + ... ) collapses to a multiple of e^1;
    # the full gradient eta/theta equals -(11/2) e^1
    E = _iu_phi([Fraction(1, 2), 0, 0, 0, 0, 0, 0])
    grad = ddt.grad_density(E)
    assert grad.as_blades() == {(1,): Fraction(-11, 2)}


def test_grad_density_guards_degenerate_theta():
    # theta(i(u)phi) = 1 - 3|u|^2 = 0 at |u|^2 = 1/3
    third = Fraction(1, 3)
    E = _iu_phi([third, third, third, 0, 0, 0, 0])
    assert ddt.theta_weight(E) == 0
    with pytest.raises(DegenerateMetricError):
        ddt.grad_density(E)
    Ef = _iu_phi([math.sqrt(1.0 / 3.0), 0, 0, 0, 0, 0, 0], FLOAT)
    with pytest.raises(DegenerateMetricError):
        ddt.grad_density(Ef)


def test_eta_transport_is_the_corrected_form_exactly():
    """A1 as eta's formula: over the polynomial ring of the 21 coefficients
    F_ij (DET's ring), *R - i(i(*R)E)E is *(R + (1/2)(phi ^ *E^2) ^ *E)
    coefficient by coefficient, and ``eta`` is the transport."""
    ring = PolyRing(prover._F_NAMES, 4)
    E = KForm(7, 2, tuple(ring.var(name) for name in prover._F_NAMES), ring)
    E2 = wedge(E, E)
    R = ddt._residual(E, E2, frac(ring, 1, 6))
    want = hodge(R + ddt._correction(E, E2) * frac(ring, 1, 2))
    got = ddt._eta(E, R)
    assert not want.is_zero()
    assert (got - want).is_zero()
    assert ddt.eta(E).coeffs == got.coeffs


def test_point_residual_bundles_the_three_quantities():
    rng = np.random.default_rng(32)
    coeffs = [float(x) for x in rng.uniform(-1, 1, 21)]
    E = KForm.from_coeffs(7, 2, coeffs, FLOAT)
    pr = ddt.point_residual(E)
    assert np.allclose(pr.r6.coeffs, ddt.ddt_residual(E).coeffs, atol=1e-14)
    assert np.allclose(pr.eta.coeffs, ddt.eta(E).coeffs, atol=1e-14)
    assert pr.theta == ddt.theta_weight(E)


def test_deformed_inner_reduces_to_euclidean_at_zero_curvature():
    rng = np.random.default_rng(33)
    a = KForm.from_coeffs(7, 1, [float(x) for x in rng.uniform(-1, 1, 7)], FLOAT)
    b = KForm.from_coeffs(7, 1, [float(x) for x in rng.uniform(-1, 1, 7)], FLOAT)
    E0 = KForm.zero(7, 2, FLOAT)
    assert abs(ddt.deformed_inner(E0, a, b) - inner(a, b)) < 1e-14
    # symmetric in its arguments for any E
    E = KForm.from_coeffs(7, 2, [float(x) for x in rng.uniform(-0.5, 0.5, 21)], FLOAT)
    assert abs(ddt.deformed_inner(E, a, b) - ddt.deformed_inner(E, b, a)) < 1e-12


def test_spin7_residuals_vanish_along_the_gradient():
    rng = np.random.default_rng(34)
    hits = 0
    while hits < 20:
        coeffs = [float(x) for x in rng.uniform(-1, 1, 21)]
        E = KForm.from_coeffs(7, 2, coeffs, FLOAT)
        th = ddt.theta_weight(E)
        if abs(th) < 0.2:
            continue
        hits += 1
        adot = ddt.grad_density(E)
        scale = max(1.0, max(abs(c) for c in E.coeffs) ** 3)
        r1 = ddt.spin7_res1(E, adot)
        r2 = ddt.spin7_res2(E, adot)
        comb = ddt.spin7_combined(E, adot)
        assert max(abs(c) for c in r1.coeffs) <= 1e-10 * scale
        assert max(abs(c) for c in r2.coeffs) <= 1e-10 * scale
        assert max(abs(c) for c in comb.coeffs) <= 1e-10 * scale


def test_spin7_residuals_detect_wrong_velocity():
    rng = np.random.default_rng(35)
    coeffs = [float(x) for x in rng.uniform(-1, 1, 21)]
    E = KForm.from_coeffs(7, 2, coeffs, FLOAT)
    adot = KForm.from_coeffs(7, 1, [float(x) for x in rng.uniform(-1, 1, 7)], FLOAT)
    r1 = ddt.spin7_res1(E, adot)
    comb = ddt.spin7_combined(E, adot)
    assert max(abs(c) for c in r1.coeffs) > 1e-6
    assert max(abs(c) for c in comb.coeffs) > 1e-6


def test_argument_validation():
    with pytest.raises(InputError):
        ddt.ddt_residual(KForm.zero(7, 3, RATIONAL))
    with pytest.raises(InputError):
        ddt.deformed_inner(KForm.zero(7, 2, FLOAT), KForm.zero(7, 2, FLOAT),
                           KForm.zero(7, 1, FLOAT))
