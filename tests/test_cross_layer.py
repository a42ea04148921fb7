"""Cross-layer oracle: the formulas of ``ddt`` run on ``torus.FormField``s
through the field dispatch of ``exalg.wedge``/``interior``/``hodge``.

Each public formula on a field must equal the same call at every grid point
(1e-12), and bit for bit the reference below, which evaluates each formula
directly with the field kernels of ``torus``.  The ascent 1-form eta is
evaluated as A1's transport *R - i(i(*R)E)E; the paper's corrected form
*(R + (1/2)(phi ^ *E^2) ^ *E) stays here as its oracle."""

import math

import numpy as np
import pytest

from ddt7 import ddt, g2
from ddt7.errors import InputError
from ddt7.exalg import KForm, hodge, wedge
from ddt7.scalars import FLOAT
from ddt7.flow import cylinder_check_samples
from ddt7.torus import (FormField, Flux, GaugePotential, TorusGrid, cube_field, curvature,
                        d, field_l2, hodge_field, interior_field, kl_segment_integral,
                        random_field, wedge_const, wedge_field)

GRID = TorusGrid((1, 2), 4)  # 16 points
GRID512 = TorusGrid((1, 2, 3), 8)
GRID4096 = TorusGrid((1, 2, 3, 4), 8)
TOL = 1e-12


# --- reference: each formula written against the field kernels -----------------

_PHI = g2.phi_for(FLOAT)
_STAR_PHI = g2.star_phi_for(FLOAT)


def _residual(E, E2, s=1.0):
    """s^4 E^3/6 - E ^ *phi from E and E2 = E ^ E."""
    return (float(s) ** 4 / 6.0) * cube_field(E, E2) - wedge_const(E, _STAR_PHI)


def _residual_weight(E2, s=1.0):
    """W = s^4 E^2/2 - *phi, the derivative of the residual: dR(b) = b ^ W."""
    return (float(s) ** 4 / 2.0) * E2 - FormField.constant(E2.grid, _STAR_PHI)


def _theta(E2):
    """theta = 1 - (1/2) * (phi ^ E2) per grid point."""
    return 1.0 - 0.5 * hodge_field(wedge_const(E2, _PHI, left=True)).values[:, 0]


def _phi_star_sq(E2):
    """The 6-form phi ^ *E2."""
    return wedge_const(hodge_field(E2), _PHI, left=True)


def _correction(E, E2):
    """The 6-form (phi ^ *E2) ^ *E, unscaled."""
    return wedge_field(hodge_field(_phi_star_sq(E2)), hodge_field(E))


def curvature_residual(E, s=1.0):
    """The 6-form s^4 E^3/6 - E^*phi, pointwise over the grid."""
    return _residual(E, wedge_field(E, E), s)


def scalar_times(w, f):
    """Pointwise scalar field times form field."""
    return FormField(f.grid, f.k, w[:, None] * f.values)


def theta_field(E):
    """Calibration weight 1 - (1/2)*(phi ^ E^2) per grid point."""
    return _theta(wedge_field(E, E))


def _eta(E, R):
    """*R - i(i(*R)E)E from E and R = R(E): A1's transport of *R."""
    w = hodge_field(R)
    return w - interior_field(interior_field(w, E), E)


def eta_field(E):
    """The ascent 1-form, as the transport of *(E^3/6 - E^*phi)."""
    return _eta(E, curvature_residual(E))


def corrected_eta_field(E):
    """The ascent 1-form as the paper writes it,
    *(E^3/6 - E^*phi + (1/2)*(phi^*E^2)^*E): the transport's oracle."""
    E2 = wedge_field(E, E)
    return hodge_field(_residual(E, E2) + 0.5 * _correction(E, E2))


def spin7_residual_fields(E, adot):
    """The two product-space residual 6-forms at (E, adot)."""
    E2 = wedge_field(E, E)
    aEphi = wedge_const(wedge_field(adot, E), _PHI)
    res1 = _residual(E, E2) - scalar_times(_theta(E2), hodge_field(adot)) \
        + wedge_field(hodge_field(aEphi), hodge_field(E))
    res2 = 0.5 * _phi_star_sq(E2) - aEphi
    return res1, res2


# --- helpers ---------------------------------------------------------------------


def _fields(grid=GRID):
    rng = np.random.default_rng(77)
    return (random_field(grid, 2, rng), random_field(grid, 1, rng),
            random_field(grid, 2, rng))


def _assert_close(got, want):
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    assert np.max(np.abs(got - want)) <= TOL * max(np.max(np.abs(want)), 1.0)


def _assert_pointwise(field_out, point_fn, *fields):
    """field_out (a FormField or an (npts,) array) equals point_fn at each point."""
    for p in range(fields[0].grid.npts):
        want = point_fn(*(f.pointwise(p) for f in fields))
        got = field_out.values[p] if isinstance(field_out, FormField) else field_out[p]
        _assert_close(got, want.coeffs if isinstance(want, KForm) else want)


# --- each public formula on a field is the pointwise one ---------------------------


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
def test_curvature_residual_is_the_pointwise_scaled_residual(s):
    E, _, _ = _fields()
    _assert_pointwise(ddt.scaled_residual(E, s),
                      lambda Ep: ddt.scaled_residual(Ep, s), E)


def test_theta_and_eta_fields_are_the_pointwise_ones():
    E, _, _ = _fields()
    _assert_pointwise(ddt.ddt_residual(E), ddt.ddt_residual, E)
    _assert_pointwise(ddt.theta_weight(E), ddt.theta_weight, E)
    _assert_pointwise(ddt.eta(E), ddt.eta, E)
    bundle = ddt.point_residual(E)
    _assert_pointwise(bundle.r6, lambda Ep: ddt.point_residual(Ep).r6, E)
    _assert_pointwise(bundle.eta, lambda Ep: ddt.point_residual(Ep).eta, E)
    _assert_pointwise(bundle.theta, lambda Ep: ddt.point_residual(Ep).theta, E)


def test_spin7_residual_fields_are_the_pointwise_ones():
    E, adot, _ = _fields()
    for fn in (ddt.spin7_res1, ddt.spin7_res2, ddt.spin7_combined):
        _assert_pointwise(fn(E, adot), fn, E, adot)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
def test_residual_weight_is_the_derivative_of_the_scaled_residual(s):
    # b ^ W against the five-point difference of scaled_residual along b,
    # which is exact (up to rounding) for a residual cubic in E
    E, _, b = _fields()
    dR = wedge(b, ddt._residual_weight(wedge(E, E), s ** 4 / 6.0))
    h = 0.5
    for p in range(GRID.npts):
        Ep, bp = E.pointwise(p), b.pointwise(p)

        def R(t):
            return np.array(ddt.scaled_residual(Ep + bp * t, s).coeffs)
        diff = (8.0 * (R(h) - R(-h)) - (R(2 * h) - R(-2 * h))) / (12.0 * h)
        _assert_close(dR.values[p], diff)


# --- bit for bit the field-kernel reference ------------------------------------------


@pytest.mark.parametrize("grid", [GRID, GRID512], ids=["16", "512"])
def test_ddt_on_fields_is_the_field_kernel_reference_bitwise(grid):
    E, adot, _ = _fields(grid)
    E2 = wedge_field(E, E)
    for s in (0.0, 1.0 / 64, 0.5, 1.0):
        assert np.array_equal(ddt.scaled_residual(E, s).values,
                              curvature_residual(E, s).values)
        assert np.array_equal(ddt._residual_weight(E2, s ** 4 / 6.0).values,
                              _residual_weight(E2, s).values)
    assert np.array_equal(ddt.ddt_residual(E).values, curvature_residual(E).values)
    assert np.array_equal(ddt.theta_weight(E), theta_field(E))
    assert np.array_equal(ddt.eta(E).values, eta_field(E).values)
    assert np.array_equal(ddt._phi_star_sq(E2).values, _phi_star_sq(E2).values)
    assert np.array_equal(ddt._correction(E, E2).values, _correction(E, E2).values)
    res1, res2 = spin7_residual_fields(E, adot)
    assert np.array_equal(ddt.spin7_res1(E, adot).values, res1.values)
    assert np.array_equal(ddt.spin7_res2(E, adot).values, res2.values)


@pytest.mark.parametrize("grid", [GRID, GRID512, GRID4096], ids=["16", "512", "4096"])
def test_eta_transport_is_the_corrected_form(grid):
    """A1 on fields: *R - i(i(*R)E)E against *(R + (1/2)(phi ^ *E^2) ^ *E),
    to 1e-13 relative, both through ``ddt`` and through the reference."""
    E, _, _ = _fields(grid)
    want = corrected_eta_field(E).coeffs
    for got in (ddt.eta(E).coeffs, eta_field(E).coeffs):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [GRID, GRID512], ids=["16", "512"])
def test_power_table_square_and_cube_are_the_full_table_wedges(grid):
    """E ^ E and E^3 from the power tables against the full-table wedges of
    two distinct operands, to rounding."""
    E, _, _ = _fields(grid)
    E2 = wedge_field(E, E)
    for got, want in ((E2, wedge_field(E, E * 1.0)), (cube_field(E, E2), wedge_field(E2, E))):
        scale = np.max(np.abs(want.coeffs))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * scale


def test_cylinder_check_rows_are_the_field_kernel_reference_bitwise():
    rng = np.random.default_rng(12)
    pots = [GaugePotential(random_field(GRID, 1, rng), Flux.zero()) for _ in range(4)]
    got = cylinder_check_samples([0.0, 0.5, 1.0, 1.5], pots)
    rows = []
    for i in (1, 2):
        adot = (1.0 / (2.0 * 0.5)) * (pots[i + 1].a - pots[i - 1].a)
        res1, res2 = spin7_residual_fields(curvature(pots[i]), adot)
        rows.append({"t": 0.5 * i, "res1_l2": field_l2(res1), "res2_l2": field_l2(res2)})
    assert got["samples"] == rows
    assert got["max_res1"] == max(r["res1_l2"] for r in rows)


# --- the dispatch itself ---------------------------------------------------------------


@pytest.mark.parametrize("k_field, const", [
    (1, g2.phi_for(FLOAT)),                                      # odd ^ odd
    (2, g2.phi_for(FLOAT)),
    (1, KForm.from_coeffs(7, 1, [1.0, -2.0, 0.5, 3.0, 0.0, 1.5, -1.0])),
    (3, g2.star_phi_for(FLOAT)),                                 # odd ^ even
])
def test_wedge_with_a_constant_form_on_either_side(k_field, const):
    rng = np.random.default_rng(5)
    f = random_field(GRID, k_field, rng)
    _assert_pointwise(wedge(f, const), lambda fp: wedge(fp, const), f)
    _assert_pointwise(wedge(const, f), lambda fp: wedge(const, fp), f)
    if (k_field * const.k) % 2:
        assert np.array_equal(wedge(const, f).values, -wedge(f, const).values)


def test_wedge_of_two_fields_and_hodge_of_a_field():
    E, b, _ = _fields()
    _assert_pointwise(wedge(b, E), wedge, b, E)
    _assert_pointwise(wedge(E, b), wedge, E, b)
    assert np.array_equal(wedge(b, E).values, wedge_field(b, E).values)
    for f in (E, b, wedge(E, E)):
        _assert_pointwise(hodge(f), hodge, f)
        assert np.array_equal(hodge(f).values, hodge_field(f).values)


def test_field_plus_constant_form():
    E, _, _ = _fields()
    c = KForm.from_coeffs(7, 2, np.linspace(-1.0, 1.0, 21).tolist())
    _assert_pointwise(E + c, lambda Ep: Ep + c, E)
    _assert_pointwise(E - c, lambda Ep: Ep - c, E)
    for bad in (g2.phi_for(FLOAT), KForm.zero(8, 2)):
        with pytest.raises(InputError):
            E + bad
        with pytest.raises(InputError):
            E - bad
    with pytest.raises(InputError):  # not a KForm holding grid arrays
        c + E


def test_field_times_per_point_array():
    E, _, _ = _fields()
    w = np.linspace(-2.0, 3.0, GRID.npts)
    out = E * w
    for p in range(GRID.npts):
        _assert_close(out.values[p], (E.pointwise(p) * float(w[p])).coeffs)
    assert np.array_equal(out.values, scalar_times(w, E).values)
    assert np.array_equal((E * np.array(2.5)).values, (E * 2.5).values)
    assert E.coeffs.shape == (21, GRID.npts)
    assert E.n == 7 and E.ring is FLOAT


def test_pointwise_only_operators_reject_a_field():
    E, b, _ = _fields()
    with pytest.raises(InputError):
        ddt.grad_density(E)
    with pytest.raises(InputError):
        ddt.deformed_inner(E, b, b)
    assert math.isfinite(float(ddt.grad_density(E.pointwise(0)).coeffs[0]))


@pytest.mark.parametrize("grid", [GRID, GRID512], ids=["16", "512"])
def test_kl_segment_integral_from_a_constant_form_or_a_constant_field(grid):
    """E0 as a constant KForm takes ``exalg.wedge``'s constant paths (the
    exact-table wedge and ``wedge_const``); the same E0 as a constant field
    takes the field wedges.  The two agree to rounding."""
    rng = np.random.default_rng(30)
    E0 = Flux.from_entries({(1, 2): 1, (4, 7): 2, (5, 6): -1}).background_form()
    delta = random_field(grid, 1, rng, scale=0.3)
    want = kl_segment_integral(FormField.constant(grid, E0), d(delta), delta)
    got = kl_segment_integral(E0, d(delta), delta)
    assert abs(got - want) <= 1e-14 * abs(want)
