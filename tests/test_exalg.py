"""Exterior algebra operations against small independent oracles.

The wedge oracle below multiplies blade dictionaries through explicit
permutation sorting, sharing no code with the table-driven implementation.
"""
from fractions import Fraction

import numpy as np
import pytest

from ddt7 import exalg
from ddt7.errors import InputError
from ddt7.exalg import (Endo, KForm, blades, cube, det_endo, hodge, inner, interior,
                        power_table, pullback, sharp2, solve_endo, wedge, wedge_table)
from ddt7.scalars import FLOAT, RATIONAL, PolyRing


def _sort_sign(seq):
    """Sign of the permutation sorting seq; 0 on repeats."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0, ()
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1, i, -1):
            if seq[j - 1] > seq[j]:
                seq[j - 1], seq[j] = seq[j], seq[j - 1]
                sign = -sign
    return sign, tuple(seq)


def _wedge_oracle(a: dict, b: dict) -> dict:
    out = {}
    for ba, ca in a.items():
        for bb, cb in b.items():
            sign, merged = _sort_sign(ba + bb)
            if sign == 0:
                continue
            out[merged] = out.get(merged, 0) + sign * ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _random_form(rng, n, k, ring=RATIONAL):
    data = {}
    for blade in blades(n, k):
        data[blade] = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
    return KForm.from_blades(n, k, data, ring)


def test_wedge_matches_oracle():
    rng = np.random.default_rng(0)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 5)]:
        a = _random_form(rng, 7, p)
        b = _random_form(rng, 7, q)
        got = wedge(a, b).as_blades()
        want = _wedge_oracle(a.as_blades(), b.as_blades())
        assert {k: v for k, v in got.items() if v != 0} == want


def _full_table_wedge(a: KForm, b: KForm) -> KForm:
    """a ^ b by a plain loop over every entry of the full wedge table."""
    out = [a.ring.zero] * len(blades(a.n, a.k + b.k))
    for i, j, o, s in wedge_table(a.n, a.k, b.k):
        out[o] = out[o] + a.coeffs[i] * b.coeffs[j] * s
    return KForm(a.n, a.k + b.k, tuple(out), a.ring)


def _poly_two_form(n):
    ring = PolyRing(tuple(f"x{i}" for i in range(len(blades(n, 2)))))
    rng = np.random.default_rng(n)
    # some coefficients zero, so the zero skips are exercised too
    coeffs = [v * int(rng.integers(-2, 3)) for v in ring.vars()]
    return KForm(n, 2, tuple(coeffs), ring)


@pytest.mark.parametrize("n", [7, 8])
def test_power_table_is_the_filtered_wedge_table(n):
    for k in (2, 3):
        table = power_table(n, k)
        outs = blades(n, 2 * k)
        assert [e[2] for e in table] == [o for o in range(len(outs)) for _ in range(2 * k - 1)]
        assert all(blades(n, 2)[i][0] == outs[o][0] for i, _, o, _ in table)
        want = [e for e in wedge_table(n, 2, 2 * k - 2)
                if blades(n, 2)[e[0]][0] == outs[e[2]][0]]
        assert list(table) == sorted(want, key=lambda e: e[2])
    with pytest.raises(InputError):
        power_table(7, 4)


@pytest.mark.parametrize("n", [7, 8])
def test_square_and_cube_equal_the_full_table_exactly(n):
    rng = np.random.default_rng(20 + n)
    for E in (_poly_two_form(n), _random_form(rng, n, 2)):
        E2 = wedge(E, E)
        assert E2.coeffs == _full_table_wedge(E, E).coeffs
        assert cube(E, E2).coeffs == _full_table_wedge(E2, E).coeffs
        assert cube(E, E2).coeffs == _full_table_wedge(E, E2).coeffs


def test_distinct_and_odd_operands_take_the_full_table(monkeypatch):
    rng = np.random.default_rng(24)
    E, F, b, c = (_random_form(rng, 7, k) for k in (2, 2, 1, 3))

    def refuse(*args):
        raise AssertionError("power table used")
    monkeypatch.setattr(exalg, "power_table", refuse)
    assert wedge(E, F).coeffs == _full_table_wedge(E, F).coeffs
    assert wedge(E, E * 1).coeffs == _full_table_wedge(E, E).coeffs
    assert wedge(b, b).is_zero() and wedge(c, c).is_zero()
    with pytest.raises(AssertionError):
        wedge(E, E)


def test_cube_takes_a_two_form_and_a_four_form():
    rng = np.random.default_rng(25)
    E, b = _random_form(rng, 7, 2), _random_form(rng, 7, 1)
    E2 = wedge(E, E)
    for args in ((E2, E), (b, E2), (E, E), (E, wedge(E, b))):
        with pytest.raises(InputError):
            cube(*args)
    with pytest.raises(InputError):
        cube(E, KForm(7, 4, tuple(map(float, E2.coeffs)), FLOAT))
    with pytest.raises(InputError):
        cube(E, _random_form(rng, 8, 4))


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(1)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)]:
        a = _random_form(rng, 7, p)
        b = _random_form(rng, 7, q)
        lhs = wedge(a, b)
        rhs = wedge(b, a) * ((-1) ** (p * q))
        assert lhs.coeffs == rhs.coeffs


def test_wedge_associativity():
    rng = np.random.default_rng(2)
    a = _random_form(rng, 7, 1)
    b = _random_form(rng, 7, 2)
    c = _random_form(rng, 7, 2)
    assert wedge(wedge(a, b), c).coeffs == wedge(a, wedge(b, c)).coeffs


def test_hodge_is_an_involution_in_dimension_seven():
    rng = np.random.default_rng(3)
    for k in range(8):
        a = _random_form(rng, 7, k)
        assert hodge(hodge(a)).coeffs == a.coeffs


def test_hodge_pairing_recovers_inner_product():
    rng = np.random.default_rng(4)
    vol = hodge(KForm.from_blades(7, 0, {(): 1}, RATIONAL))
    for k in (1, 2, 3):
        a = _random_form(rng, 7, k)
        b = _random_form(rng, 7, k)
        pairing = wedge(a, hodge(b))
        assert pairing.coeffs == (vol * inner(a, b)).coeffs


def test_contract_is_adjoint_to_flat_wedge():
    """<i(u#) a, b> = <a, u ^ b> for a 1-form u and a of every degree 1 to 7."""
    rng = np.random.default_rng(5)
    for k in range(7):
        u = KForm.from_coeffs(
            7, 1, [Fraction(int(rng.integers(-4, 5)), 3) for _ in range(7)], RATIONAL)
        a = _random_form(rng, 7, k + 1)
        b = _random_form(rng, 7, k)
        assert inner(interior(u, a), b) == inner(a, wedge(u, b))


def test_contract_leibniz_rule():
    rng = np.random.default_rng(6)
    u = KForm.from_coeffs(7, 1, [Fraction(int(rng.integers(-4, 5))) for _ in range(7)],
                          RATIONAL)
    a = _random_form(rng, 7, 2)
    b = _random_form(rng, 7, 3)
    lhs = interior(u, wedge(a, b))
    rhs = wedge(interior(u, a), b) + wedge(a, interior(u, b))
    assert lhs.coeffs == rhs.coeffs


def test_sharp2_matches_contraction():
    # (F#)(e_i) must be the vector whose 1-form is i(e_i)F
    rng = np.random.default_rng(8)
    F = _random_form(rng, 7, 2)
    A = sharp2(F)
    for i in range(1, 8):
        e = KForm.from_blades(7, 1, {(i,): 1}, RATIONAL)
        assert tuple(A.mat[m][i - 1] for m in range(7)) == interior(e, F).coeffs
    # antisymmetry of the matrix
    for r in range(7):
        for c in range(7):
            assert A.mat[r][c] == -A.mat[c][r]


def test_pullback_identity_and_scaling():
    rng = np.random.default_rng(9)
    a = _random_form(rng, 7, 3)
    I = Endo.identity(7, RATIONAL)
    assert pullback(I, a).coeffs == a.coeffs
    two = Endo.from_rows(7, [[2 if i == j else 0 for j in range(7)]
                             for i in range(7)], RATIONAL)
    assert pullback(two, a).coeffs == (a * 8).coeffs


def test_pullback_is_multiplicative():
    rng = np.random.default_rng(10)
    rows = [[Fraction(int(rng.integers(-2, 3))) for _ in range(7)] for _ in range(7)]
    A = Endo.from_rows(7, rows, RATIONAL)
    a = _random_form(rng, 7, 1)
    b = _random_form(rng, 7, 2)
    lhs = pullback(A, wedge(a, b))
    rhs = wedge(pullback(A, a), pullback(A, b))
    assert lhs.coeffs == rhs.coeffs


def _det_fraction(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def test_det_endo_matches_elimination():
    rng = np.random.default_rng(11)
    for _ in range(6):
        rows = [[Fraction(int(rng.integers(-4, 5))) for _ in range(7)]
                for _ in range(7)]
        A = Endo.from_rows(7, rows, RATIONAL)
        assert det_endo(A) == _det_fraction(rows)


def test_det_endo_singular_and_float():
    rng = np.random.default_rng(13)
    rows = [[Fraction(int(rng.integers(-4, 5))) for _ in range(7)] for _ in range(7)]
    rows[4] = [Fraction(0)] * 7
    assert det_endo(Endo.from_rows(7, rows, RATIONAL)) == 0
    M = rng.uniform(-1.0, 1.0, (7, 7))
    got = det_endo(Endo.from_rows(7, M.tolist(), FLOAT))
    assert abs(got - np.linalg.det(M)) <= 1e-12 * max(1.0, abs(got))


def test_solve_endo_inverts_pullback():
    from ddt7.errors import NumericalError

    rng = np.random.default_rng(12)
    rows = [[Fraction(int(rng.integers(-3, 4)) + (8 if i == j else 0))
             for j in range(7)] for i in range(7)]
    A = Endo.from_rows(7, rows, RATIONAL)
    b = _random_form(rng, 7, 1)
    x = solve_endo(A, b)
    assert pullback(A, x).coeffs == b.coeffs
    singular = Endo.from_rows(7, [[0] * 7 for _ in range(7)], RATIONAL)
    with pytest.raises(NumericalError):
        solve_endo(singular, b)


def test_solve_endo_float_agrees_with_numpy_and_refuses_ill_conditioning():
    from ddt7.errors import NumericalError

    rng = np.random.default_rng(13)
    M = rng.uniform(-1.0, 1.0, (7, 7)) + 3.0 * np.eye(7)
    b = KForm(7, 1, tuple(rng.uniform(-1.0, 1.0, 7)), FLOAT)
    x = solve_endo(Endo.from_rows(7, M.tolist(), FLOAT), b)
    want = np.linalg.solve(M.T, b.coeffs)
    assert np.allclose(x.coeffs, want, rtol=1e-13, atol=0.0)
    # rows 0 and 1 agree to 1e-15: condition number about 2e15, above 1e14
    M[1] = M[0] + 1e-15 * M[1]
    with pytest.raises(NumericalError, match="cond"):
        solve_endo(Endo.from_rows(7, M.tolist(), FLOAT), b)


def test_kform_validation():
    with pytest.raises(InputError):
        KForm(7, 2, (1,) * 20, RATIONAL)
    with pytest.raises(InputError):
        wedge(KForm.zero(7, 2, RATIONAL), KForm.zero(8, 2, RATIONAL))
    with pytest.raises(InputError):
        KForm.from_blades(7, 2, {(2, 1): 1}, RATIONAL)


_SPACES = [(7, RATIONAL), (8, RATIONAL), (7, FLOAT)]


def _one_form(n, ring):
    return KForm.from_blades(n, 1, {(1,): 1}, ring)


@pytest.mark.parametrize("op", [
    lambda x, y: Endo.identity(*x) + Endo.identity(*y),
    lambda x, y: Endo.identity(*x) - Endo.identity(*y),
    lambda x, y: Endo.identity(*x) @ Endo.identity(*y),
    lambda x, y: solve_endo(Endo.identity(*x), _one_form(*y)),
    lambda x, y: pullback(Endo.identity(*x), _one_form(*y)),
    lambda x, y: inner(_one_form(*x), _one_form(*y)),
    lambda x, y: _one_form(*x) + _one_form(*y),
], ids=["endo-add", "endo-sub", "endo-matmul", "solve_endo", "pullback", "inner", "form-add"])
def test_operands_on_other_spaces_or_rings_are_refused(op):
    """A dimension or ring mismatch raises in either order: zip would
    truncate a matrix, and a float entry would sit in a rational object."""
    for x in _SPACES:
        for y in _SPACES:
            if x != y:
                with pytest.raises(InputError):
                    op(x, y)
