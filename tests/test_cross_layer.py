"""Cross-layer oracle: each field formula of ``torus``/``flow`` against the
pointwise operator of ``ddt`` at every grid point of a seeded field."""

import numpy as np
import pytest

from ddt7 import ddt, torus
from ddt7.flow import eta_field, spin7_residual_fields, theta_field
from ddt7.torus import TorusGrid, curvature_residual, random_field, wedge_field

GRID = TorusGrid((1, 2), 4)  # 16 points
TOL = 1e-12


def _fields():
    rng = np.random.default_rng(77)
    return (random_field(GRID, 2, rng), random_field(GRID, 1, rng),
            random_field(GRID, 2, rng))


def _assert_close(got, want):
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    assert np.max(np.abs(got - want)) <= TOL * max(np.max(np.abs(want)), 1.0)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
def test_curvature_residual_is_the_pointwise_scaled_residual(s):
    E, _, _ = _fields()
    R = curvature_residual(E, s)
    for p in range(GRID.npts):
        _assert_close(R.values[p], ddt.scaled_residual(E.pointwise(p), s).coeffs)


def test_theta_and_eta_fields_are_the_pointwise_ones():
    E, _, _ = _fields()
    theta = theta_field(E)
    eta = eta_field(E)
    for p in range(GRID.npts):
        Ep = E.pointwise(p)
        _assert_close(theta[p], ddt.theta_weight(Ep))
        _assert_close(eta.values[p], ddt.eta(Ep).coeffs)


def test_spin7_residual_fields_are_the_pointwise_ones():
    E, adot, _ = _fields()
    res1, res2 = spin7_residual_fields(E, adot)
    for p in range(GRID.npts):
        Ep, ap = E.pointwise(p), adot.pointwise(p)
        _assert_close(res1.values[p], ddt.spin7_res1(Ep, ap).coeffs)
        _assert_close(res2.values[p], ddt.spin7_res2(Ep, ap).coeffs)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
def test_residual_weight_is_the_derivative_of_the_scaled_residual(s):
    # b ^ W against the five-point difference of scaled_residual along b,
    # which is exact (up to rounding) for a residual cubic in E
    E, _, b = _fields()
    dR = wedge_field(b, torus._residual_weight(wedge_field(E, E), s))
    h = 0.5
    for p in range(GRID.npts):
        Ep, bp = E.pointwise(p), b.pointwise(p)

        def R(t):
            return np.array(ddt.scaled_residual(Ep + bp * t, s).coeffs)
        diff = (8.0 * (R(h) - R(-h)) - (R(2 * h) - R(-2 * h))) / (12.0 * h)
        _assert_close(dR.values[p], diff)
