"""Structure constants and representation-theoretic splits of the standard
G2 package: every identity here is exact over the rationals."""
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from ddt7 import g2
from ddt7.errors import InputError
from ddt7.exalg import KForm, blades, hodge, inner, interior, wedge
from ddt7.scalars import FLOAT, RATIONAL

PHI_ORACLE = {
    (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1, (2, 4, 6): 1,
    (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1,
}
STAR_PHI_ORACLE = {
    (1, 2, 4, 7): -1, (1, 2, 5, 6): -1, (1, 3, 4, 6): -1,
    (1, 3, 5, 7): 1, (2, 3, 4, 5): 1, (2, 3, 6, 7): 1, (4, 5, 6, 7): 1,
}


def test_phi_and_star_phi_coefficients():
    assert g2.phi_for(RATIONAL).as_blades() == PHI_ORACLE
    assert g2.star_phi_for(RATIONAL).as_blades() == STAR_PHI_ORACLE


def test_phi_wedge_star_phi_is_seven_volumes():
    d = g2.standard()
    assert wedge(d.phi, d.star_phi).coeffs == (d.vol * 7).coeffs


def test_contraction_of_phi():
    e3 = KForm.from_blades(7, 1, {(3,): 1}, RATIONAL)
    got = interior(e3, g2.phi_for(RATIONAL)).as_blades()
    assert got == {(1, 2): 1, (4, 7): -1, (5, 6): -1}


def test_orientation_normalization():
    # (i(e1)phi) ^ *phi = 3 * hodge(e^1) pins the orientation convention
    d = g2.standard()
    e1 = KForm.from_blades(7, 1, {(1,): 1}, RATIONAL)
    lhs = wedge(interior(e1, d.phi), d.star_phi)
    rhs = hodge(KForm.from_blades(7, 1, {(1,): 3}, RATIONAL))
    assert lhs.coeffs == rhs.coeffs


def test_decompose_single_blade():
    F = KForm.from_blades(7, 2, {(1, 2): 1}, RATIONAL)
    dec = g2.decompose2(F)
    third = Fraction(1, 3)
    assert dec.u.coeffs == (0, 0, third, 0, 0, 0, 0)
    assert dec.f7.as_blades() == {(1, 2): third, (4, 7): -third, (5, 6): -third}
    assert (dec.f7 + dec.f14).coeffs == F.coeffs
    assert wedge(dec.f14, g2.star_phi_for(RATIONAL)).is_zero()


def test_decompose_pure_fourteen_part():
    F = KForm.from_blades(7, 2, {(1, 2): 1, (4, 7): 1}, RATIONAL)
    dec = g2.decompose2(F)
    assert all(c == 0 for c in dec.u.coeffs)
    assert dec.f7.is_zero()
    assert dec.f14.coeffs == F.coeffs


def test_star_wedge_phi_eigenvalues_exact():
    rng = np.random.default_rng(20)
    for _ in range(10):
        data = {b: Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                for b in blades(7, 2)}
        F = KForm.from_blades(7, 2, data, RATIONAL)
        dec = g2.decompose2(F)
        assert g2.star_wedge_phi(dec.f7).coeffs == (dec.f7 * 2).coeffs
        assert g2.star_wedge_phi(dec.f14).coeffs == (-dec.f14).coeffs
        assert inner(dec.f7, dec.f14) == 0


def test_basis14_spans_the_annihilator():
    d = g2.standard()
    assert len(d.basis14) == 14
    for B in d.basis14:
        assert wedge(B, d.star_phi).is_zero()
    # linear independence: coefficient matrix has rank 14
    M = np.array([[float(c) for c in B.coeffs] for B in d.basis14])
    assert np.linalg.matrix_rank(M) == 14


def test_basis14_fingerprint():
    """The exact basis of Lambda^2_14, the catalog's c_m variables, pinned by
    its Fraction strings: one line of 21 comma-separated coefficients per
    element, in order."""
    text = "\n".join(",".join(map(str, B.coeffs)) for B in g2.standard().basis14)
    assert text.splitlines()[0] == "0,0,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4de09514a33108c791d038d5e40a4a83c62d053ea8007876858e6782ef5e3935"


def test_spin7_pair1_at_zero_curvature_is_the_plain_inner_product():
    rng = np.random.default_rng(21)
    E = KForm.zero(7, 2, RATIONAL)
    adot = KForm.from_coeffs(7, 1, [Fraction(int(rng.integers(-4, 5))) for _ in range(7)],
                             RATIONAL)
    for i in range(1, 8):
        b = KForm.from_blades(7, 1, {(i,): 1}, RATIONAL)
        assert g2.spin7_pair1(E, adot, b) == inner(adot, b)


def test_spin7_pair2_at_zero_curvature_vanishes():
    adot = KForm.from_coeffs(7, 1, list(range(1, 8)), RATIONAL)
    b = KForm.from_blades(7, 1, {(3,): 1}, RATIONAL)
    assert g2.spin7_pair2(KForm.zero(7, 2, RATIONAL), adot, b) == 0


def test_pair_argument_validation():
    E = KForm.zero(7, 2, RATIONAL)
    a1 = KForm.zero(7, 1, RATIONAL)
    with pytest.raises(InputError):
        g2.spin7_pair1(E, E, a1)
    with pytest.raises(InputError):
        g2.spin7_pair2(E, a1, E)
    with pytest.raises(InputError):
        g2.decompose2(a1)


def test_cylinder_embedding_shifts_axes():
    a = KForm.from_blades(7, 2, {(1, 2): 5, (6, 7): -2}, RATIONAL)
    a8 = g2.embed_cylinder(a)
    assert a8.n == 8
    assert a8.as_blades() == {(2, 3): 5, (7, 8): -2}
    lifted = g2.dt_wedge(a8)
    assert lifted.as_blades() == {(1, 2, 3): 5, (1, 7, 8): -2}
    # dt ^ dt ^ (.) kills everything
    assert g2.dt_wedge(g2.dt_wedge(a8)).is_zero()


def test_float_and_rational_backends_agree():
    rng = np.random.default_rng(22)
    ints = [int(x) for x in rng.integers(-5, 6, size=21)]
    Fq = KForm.from_coeffs(7, 2, ints, RATIONAL)
    Ff = KForm.from_coeffs(7, 2, [float(v) for v in ints], FLOAT)
    dq = g2.decompose2(Fq)
    df = g2.decompose2(Ff)
    for cq, cf in zip(dq.f14.coeffs, df.f14.coeffs):
        assert abs(float(cq) - cf) < 1e-12
    uq = [float(c) for c in dq.u.coeffs]
    assert np.allclose(uq, df.u.coeffs, atol=1e-12)
