"""Batched kernels against independent oracles: the blocked wedge, the
spectral d and codiff, the CG adjoint table, Hodge and exact ranks.
Kernel inputs and outputs are coefficient-major, (n_blades, npts)."""

import math
import platform
from fractions import Fraction

import numpy as np
import pytest

from ddt7 import exalg, flow, kernels, tables, torus
from ddt7.errors import InputError
from ddt7.exalg import KForm, blades, cube, wedge
from ddt7.scalars import RATIONAL
from ddt7.torus import (FormField, Flux, GaugePotential, TorusGrid, codiff, cube_field, d,
                        field_inner, hodge_field, random_field, theta3, wedge_field)


def _rank_fraction(mat) -> int:
    """Gaussian elimination over Fraction, the reference rank."""
    rows = [[Fraction(int(x)) for x in row] for row in mat]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rank = 0
    col = 0
    while rank < nr and col < nc:
        piv = next((i for i in range(rank, nr) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(nr):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_bareiss_matches_fraction_elimination():
    rng = np.random.default_rng(30)
    mats = rng.integers(-6, 7, size=(60, 7, 7)).astype(np.int64)
    # force interesting ranks: zero some matrices, make some rank-1
    mats[0] = 0
    mats[1] = np.outer(np.arange(1, 8), np.arange(-3, 4))
    mats[2, :, 3] = 0
    got = kernels.bareiss_ranks(mats)
    want = [_rank_fraction(m) for m in mats]
    assert got.tolist() == want


def test_bareiss_rectangular_batches():
    rng = np.random.default_rng(31)
    for shape in ((10, 7, 21), (10, 7, 28), (5, 3, 5)):
        mats = rng.integers(-4, 5, size=shape).astype(np.int64)
        mats[0, 1] = mats[0, 0]  # duplicate row
        got = kernels.bareiss_ranks(mats)
        want = [_rank_fraction(m) for m in mats]
        assert got.tolist() == want


def test_bareiss_leading_zero_columns_and_late_pivots():
    # each step updates only columns col: and rows below the lowest row
    # pointer of the batch; matrices whose pivots come late or skip columns
    # keep nonzero entries left of col only in rows already pivoted
    rng = np.random.default_rng(33)
    for nc in (21, 28):
        mats = rng.integers(-5, 6, size=(40, 7, nc)).astype(np.int64)
        for b, m in enumerate(mats):
            lead = b % 6  # leading zero columns, different per matrix
            m[:, :lead] = 0
            if b % 3 == 0:  # pivot rows found late: a swap at every step
                m[:4, :lead + 4] = 0
            if b % 4 == 1:  # a skipped pivot column mid-way
                m[2:, lead + 2] = 0
            if b % 5 == 2:  # rank deficiency from a repeated row
                m[6] = m[1]
        mats[7] = 0
        got = kernels.bareiss_ranks(mats)
        want = [_rank_fraction(m) for m in mats]
        assert got.tolist() == want
        assert len(set(want)) > 2


def _normal_rows(rng, npts, dim):
    """rng.normal(size=(npts, dim)) stored coefficient-major, (dim, npts):
    the numbers a point-major draw gives, in the kernels' layout."""
    return np.ascontiguousarray(rng.normal(size=(npts, dim)).T)


def test_wedge_hodge_kernels_match_tables():
    rng = np.random.default_rng(32)
    ii, jj, oo, ss = tables.wedge_arrays(7, 2, 2)
    A = _normal_rows(rng, 16, 21)
    B = _normal_rows(rng, 16, 21)
    out = kernels.wedge_fields(A, B, ii, jj, ss, len(blades(7, 4)))
    # independent accumulation of the same structure constants
    want = np.zeros_like(out)
    for e in range(len(ii)):
        want[oo[e]] += ss[e] * A[ii[e]] * B[jj[e]]
    assert np.allclose(out, want, rtol=0, atol=1e-15)

    C = _normal_rows(rng, 16, len(blades(7, 3)))
    H = kernels.hodge_fields(C, *tables.hodge_gather(7, 3))
    HH = kernels.hodge_fields(H, *tables.hodge_gather(7, 4))
    assert np.allclose(HH, C, rtol=0, atol=0)  # involution in dim 7


def test_hodge_gather_is_the_table_scatter_bitwise():
    """The signed row gather equals out[tgt] = sgn * A from the table, bit
    for bit (signed zeros too), for every degree."""
    rng = np.random.default_rng(39)
    for k in range(8):
        A = rng.normal(size=(len(blades(7, k)), 33))
        A[:, :3] = [0.0, -0.0, np.inf]
        tgt, sgn = tables.hodge_arrays(7, k)
        want = np.empty_like(A)
        want[tgt] = A * sgn[:, None]
        got = kernels.hodge_fields(A, *tables.hodge_gather(7, k))
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), k


def test_hodge_sign_flip_never_writes_to_its_input():
    """The sign is applied in place to the gathered copy only: the input
    field and a read-only input array are left as they were."""
    rng = np.random.default_rng(44)
    grid = TorusGrid((1, 2), 4)
    for k in range(8):
        f = random_field(grid, k, rng)
        before = f.coeffs.copy()
        h = hodge_field(f)
        assert f.coeffs.tobytes() == before.tobytes(), k
        assert not np.shares_memory(h.coeffs, f.coeffs)
        frozen = before.copy()
        frozen.flags.writeable = False
        assert np.array_equal(kernels.hodge_fields(frozen, *tables.hodge_gather(7, k)),
                              h.coeffs)


def _wedge_by_entries(A, B, ii, jj, oo, ss, dim_out):
    """Per-entry accumulation of the structure constants, the oracle."""
    out = np.zeros((dim_out, A.shape[1]), dtype=np.result_type(A, B))
    for e in range(len(ii)):
        out[oo[e]] += ss[e] * A[ii[e]] * B[jj[e]]
    return out


DEGREE_PAIRS = [(p, q) for p in range(8) for q in range(8 - p)]


def test_wedge_tables_are_grouped_by_output():
    for p, q in DEGREE_PAIRS:
        oo = tables.wedge_arrays(7, p, q)[2]
        dim_out = len(blades(7, p + q))
        assert np.array_equal(
            oo, np.repeat(np.arange(dim_out), math.comb(p + q, p)))


def test_wedge_tensor_scatters_the_wedge_table():
    """Slice [i] of ``wedge_tensor(7, p, q)`` holds exactly the table's
    entries for the p-blade i, at (out, j)."""
    for p, q in DEGREE_PAIRS:
        T = tables.wedge_tensor(7, p, q)
        assert T.dtype == np.int64
        assert T.shape == (len(blades(7, p)), len(blades(7, p + q)), len(blades(7, q)))
        entries = exalg.wedge_table(7, p, q)
        assert np.count_nonzero(T) == len(entries)
        assert all(T[i, o, j] == sign for i, j, o, sign in entries)


@pytest.mark.parametrize("npts", [1, 16, 513, 4096])
def test_wedge_kernel_matches_entry_accumulation(npts):
    rng = np.random.default_rng(34 + npts)
    for p, q in DEGREE_PAIRS:
        table = tables.wedge_arrays(7, p, q)
        dim_out = len(blades(7, p + q))
        A = _normal_rows(rng, npts, len(blades(7, p)))
        B = _normal_rows(rng, npts, len(blades(7, q)))
        ii, jj, _, ss = table
        got = kernels.wedge_fields(A, B, ii, jj, ss, dim_out)
        want = _wedge_by_entries(A, B, *table, dim_out)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.allclose(got, want, rtol=0, atol=1e-13), (p, q)


def test_wedge_kernel_takes_dtype_from_inputs():
    rng = np.random.default_rng(35)
    table = tables.wedge_arrays(7, 1, 3)
    A = _normal_rows(rng, 700, 7) + 1j * _normal_rows(rng, 700, 7)
    B = _normal_rows(rng, 700, 35)
    ii, jj, _, ss = table
    got = kernels.wedge_fields(A, B, ii, jj, ss, 35)
    assert got.dtype == np.complex128
    want = _wedge_by_entries(A, B, *table, 35)
    assert np.allclose(got, want, rtol=0, atol=1e-13)


KERNEL_TABLES = ([tables.wedge_arrays(7, p, q) for p, q in DEGREE_PAIRS]
                 + [tables.power_arrays(7, 2), tables.power_arrays(7, 3),
                    tables.interior_arrays()])


def _kernel_inputs(rng, table, npts, dtype):
    """Unit-normal A and B for ``table`` on ``npts`` points, in ``dtype``."""
    ii, jj, _, _ = table
    A, B = (_normal_rows(rng, npts, int(idx.max()) + 1).astype(dtype) for idx in (ii, jj))
    if dtype is np.complex128:
        A += 1j * _normal_rows(rng, npts, A.shape[0])
        B += 1j * _normal_rows(rng, npts, B.shape[0])
    return A, B


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_one_block_gather_is_the_blocked_kernel_bitwise(monkeypatch, dtype):
    """Every table the kernel serves gives the same bits on 512 and on 600
    points when one block holds them all (whole-row ``take``), when
    ``_BLOCK_BYTES`` cuts them into 64-point blocks of column slices, and
    when a 4 KiB budget does (64-point blocks, or 512 for a one-entry
    table), with the table's float ``signs`` or its int64 sign column.
    Widths are multiples of 64 points, so each block's SIMD lanes fall
    where the whole row's do; 600 points end in a short 24-point block."""
    rng = np.random.default_rng(36)
    itemsize = np.dtype(dtype).itemsize
    for npts in (512, 600):
        for table in KERNEL_TABLES:
            ii, jj, oo, ss = table
            dim_out = len(table.signs)
            assert table.signs.shape == (dim_out, 1, len(ii) // dim_out)
            assert np.array_equal(table.signs.ravel(), ss)
            A, B = _kernel_inputs(rng, table, npts, dtype)
            outs = []
            for block_bytes in (1 << 40, 64 * len(ii) * itemsize, 1 << 12):
                monkeypatch.setattr(kernels, "_BLOCK_BYTES", block_bytes)
                for signs in (table.signs, ss):
                    out = kernels.wedge_fields(A, B, ii, jj, signs, dim_out)
                    assert out.dtype == dtype and out.flags.c_contiguous
                    outs.append(out.tobytes())
            assert outs == outs[:1] * len(outs), (npts, len(ii))


class _ColumnSpy(np.ndarray):
    """A kernel input that records the point range of each gather from it:
    (lo, hi) per block of column slices, (0, npts) for a whole-row take."""

    def __getitem__(self, key):
        self.spans.append((key[1].start, key[1].stop))
        return self.view(np.ndarray)[key]

    def take(self, *args, **kwargs):
        self.spans.append((0, self.shape[1]))
        return self.view(np.ndarray).take(*args, **kwargs)


@pytest.mark.parametrize("budget", [None, 1 << 12], ids=["default", "4KiB"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_block_widths_are_multiples_of_64_points_within_the_budget(monkeypatch, dtype,
                                                                   budget):
    """For every table in either dtype, under the module's budget and a
    4 KiB one, the kernel cuts the points into blocks that start at
    multiples of 64, each as wide as the first but a shorter last one.
    The width is the widest multiple of 64 points whose products fit in
    ``_BLOCK_BYTES``, or 64 when none does; one block that holds every
    point fits the budget.  Under the module's budget (512 KiB), every
    float64 table of up to 128 entries is one block at 512 points."""
    if budget is None:
        budget = kernels._BLOCK_BYTES
        assert budget == 1 << 19
    monkeypatch.setattr(kernels, "_BLOCK_BYTES", budget)
    rng = np.random.default_rng(53)
    itemsize = np.dtype(dtype).itemsize
    for npts in (512, 4096):
        for table in KERNEL_TABLES:
            ii, jj, _, ss = table
            row = len(ii) * itemsize  # bytes of one point's entry products
            A, B = _kernel_inputs(rng, table, npts, dtype)
            A = A.view(_ColumnSpy)
            A.spans = []
            kernels.wedge_fields(A, B, ii, jj, table.signs, len(table.signs))
            los, his = zip(*A.spans)
            widths = [hi - lo for lo, hi in A.spans]
            assert los[0] == 0 and his[-1] == npts and list(los[1:]) == list(his[:-1])
            if npts == 512 and budget == 1 << 19 and dtype is np.float64 and len(ii) <= 128:
                assert len(widths) == 1, len(ii)
            if len(widths) == 1:
                assert npts * row <= budget, (npts, len(ii))
                continue
            width = widths[0]
            assert width % 64 == 0 and width >= 64
            assert all(lo % 64 == 0 for lo in los)
            assert widths[:-1] == [width] * (len(widths) - 1) and widths[-1] <= width
            assert width == 64 or width * row <= budget, (npts, len(ii))
            assert (width + 64) * row > budget, (npts, len(ii))


def test_power_arrays_are_the_power_table_times_k():
    for k in (2, 3):
        ii, jj, oo, ss = tables.power_arrays(7, k)
        table = np.array(exalg.power_table(7, k))
        assert np.array_equal(np.stack([ii, jj, oo, ss], axis=1),
                              table * np.array([1, 1, 1, k]))
        assert np.array_equal(oo, np.repeat(np.arange(len(blades(7, 2 * k))), 2 * k - 1))


POWER_GRIDS = [TorusGrid((1, 2), 4), TorusGrid((1, 2, 3), 8), TorusGrid((1, 2, 3, 4), 8)]


def test_interior_arrays_are_the_contract_table_grouped_by_output():
    """(axis - 1, blade, out, sign) of ``exalg.contract_table(7, 2)``, 6
    entries for each of the 7 outputs: one per axis other than the output's."""
    ii, jj, oo, ss = tables.interior_arrays()
    assert np.array_equal(oo, np.repeat(np.arange(7), 6))
    assert all(a.dtype == np.int64 for a in (ii, jj, oo, ss))
    rows = zip(ii.tolist(), jj.tolist(), oo.tolist(), ss.tolist())
    assert sorted(rows) == sorted(exalg.contract_table(7, 2))
    assert all(set(ii[oo == o]) == set(range(7)) - {o} for o in range(7))


@pytest.mark.parametrize("grid", POWER_GRIDS, ids=lambda g: str(g.npts))
def test_interior_field_is_the_pointwise_contraction(grid):
    """i(b#) a on fields against ``exalg.interior`` of the two forms at
    every point (every 37th point at 4096), to 1e-15 relative."""
    rng = np.random.default_rng(grid.npts + 1)
    b, a = random_field(grid, 1, rng), random_field(grid, 2, rng)
    got = torus.interior_field(b, a)
    assert got.k == 1 and np.array_equal(exalg.interior(b, a).coeffs, got.coeffs)
    scale = np.max(np.abs(got.coeffs))
    for p in range(0, grid.npts, 1 if grid.npts <= 512 else 37):
        want = exalg.interior(b.pointwise(p), a.pointwise(p))
        assert np.max(np.abs(got.values[p] - want.coeffs)) <= 1e-15 * scale


def test_interior_refuses_wrong_degrees_and_mixed_operands():
    grid = TorusGrid((1, 2), 4)
    rng = np.random.default_rng(52)
    b, a, c = (random_field(grid, k, rng) for k in (1, 2, 3))
    for args in ((a, b), (b, c), (b, b), (a, a)):
        with pytest.raises(InputError):
            torus.interior_field(*args)
        with pytest.raises(InputError):
            exalg.interior(*args)
    with pytest.raises(InputError):
        torus.interior_field(b, random_field(TorusGrid((1, 3), 4), 2, rng))
    for args in ((b.pointwise(0), a), (b, a.pointwise(0))):
        with pytest.raises(InputError):
            exalg.interior(*args)


def test_pointwise_interior_refuses_a_b_not_a_1_form_and_a_0_form_a():
    """On KForms b must be a 1-form and a of degree 1 to 7 (the adjoint
    test in test_exalg takes every such degree), both on one R^n over one
    ring."""
    b = KForm.zero(7, 1)
    refused = [(KForm.zero(7, k), KForm.zero(7, 2)) for k in (0, 2, 3)]
    refused += [(b, KForm.zero(7, 0)), (KForm.zero(8, 1), KForm.zero(7, 2)),
                (b, KForm.zero(7, 2, RATIONAL))]
    for args in refused:
        with pytest.raises(InputError):
            exalg.interior(*args)


@pytest.mark.parametrize("grid", POWER_GRIDS, ids=lambda g: str(g.npts))
def test_square_and_cube_fields_are_the_full_table_kernel(grid):
    """The power tables' E ^ E and E^3 against ``wedge_fields`` over the
    full tables, 1e-15 relative to the largest coefficient."""
    E = random_field(grid, 2, np.random.default_rng(grid.npts))
    E2 = wedge_field(E, E)
    ii, jj, _, ss = tables.wedge_arrays(7, 2, 2)
    full2 = kernels.wedge_fields(E.coeffs, E.coeffs, ii, jj, ss, 35)
    ii, jj, _, ss = tables.wedge_arrays(7, 2, 4)
    full3 = kernels.wedge_fields(E.coeffs, full2, ii, jj, ss, 7)
    for got, want in ((E2.coeffs, full2), (cube_field(E, E2).coeffs, full3),
                      (cube(E, E2).coeffs, full3)):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_distinct_and_odd_field_operands_take_the_full_table(monkeypatch):
    grid = TorusGrid((1, 2, 3), 8)
    rng = np.random.default_rng(50)
    E, F, b, c = (random_field(grid, k, rng) for k in (2, 2, 1, 3))

    def full(f, g):
        ii, jj, _, ss = tables.wedge_arrays(7, f.k, g.k)
        return kernels.wedge_fields(f.coeffs, g.coeffs, ii, jj, ss, len(blades(7, f.k + g.k)))

    def refuse(*args):
        raise AssertionError("power table used")
    monkeypatch.setattr(tables, "power_arrays", refuse)
    for f, g in ((E, F), (F, E), (E, E * 1.0), (b, b), (c, c), (b, E)):
        got = wedge_field(f, g).coeffs
        assert got.tobytes() == full(f, g).tobytes()
    assert not np.any(wedge_field(b, b).coeffs)
    with pytest.raises(AssertionError):
        wedge_field(E, E)
    # a repeated argument still gives exactly 0.0
    b1, b2 = random_field(grid, 1, rng), random_field(grid, 1, rng)
    monkeypatch.undo()
    pot = GaugePotential(random_field(grid, 1, rng, scale=0.05), Flux.zero())
    assert theta3(pot, b1, b1, b2) == 0.0


def test_cube_field_inputs_and_constant_operands():
    grid = TorusGrid((1, 2), 4)
    rng = np.random.default_rng(51)
    E, b = random_field(grid, 2, rng), random_field(grid, 1, rng)
    E2 = wedge_field(E, E)
    for args in ((E2, E), (E, E), (b, E2), (E, random_field(TorusGrid((1, 3), 4), 4, rng))):
        with pytest.raises(InputError):
            cube_field(*args)
    # a constant form on either side goes through the constant wedge
    C = E.pointwise(3)
    C2 = wedge(C, C)
    want = cube_field(FormField.constant(grid, C), FormField.constant(grid, C2)).coeffs
    for got in (cube(C, FormField.constant(grid, C2)), cube(FormField.constant(grid, C), C2)):
        assert np.max(np.abs(got.coeffs - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.max(np.abs(np.array(cube(C, C2).coeffs) - want[:, 0])) \
        <= 1e-15 * np.max(np.abs(want))


def _d_per_axis(f: FormField) -> np.ndarray:
    """The spectral d as one complex FFT, one inverse FFT per active axis
    and a loop over the 1^k table: the independent oracle."""
    grid = f.grid
    na = grid.n_active
    axes = tuple(range(na))
    spec = np.fft.fftn(f.values.reshape(grid.shape + (-1,)), axes=axes)
    kline = grid.wavenumbers()
    ii, jj, oo, ss = tables.wedge_arrays(7, 1, f.k)
    out = np.zeros((grid.npts, len(blades(7, f.k + 1))))
    for i, axis in enumerate(grid.active_axes):
        shape = [1] * (na + 1)
        shape[i] = grid.N
        sym = (2j * math.pi) * kline.reshape(shape)
        der = np.fft.ifftn(spec * sym, axes=axes).real
        der = der.reshape(f.values.shape)
        sel = ii == axis - 1
        for j, o, s in zip(jj[sel], oo[sel], ss[sel]):
            out[:, o] += s * der[:, j]
    return out


def _star(values: np.ndarray, k: int) -> np.ndarray:
    """The Hodge star of k-form values, straight from the table."""
    tgt, sgn = tables.hodge_arrays(7, k)
    out = np.empty_like(values)
    out[:, tgt] = values * sgn
    return out


# dense derivative matrices up to N = 128, per-axis real FFTs above
D_GRIDS = [((1, 2), 4), ((1, 2, 3), 8), ((2, 5, 7), 2), ((1, 2, 3, 4), 8),
           ((3,), 256), ((1, 2), 256), ((4,), 128)]


def _assert_close(got, want, k):
    scale = max(float(np.max(np.abs(want))), 1.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale, k


@pytest.mark.parametrize("axes,N", D_GRIDS)
def test_d_matches_per_axis_derivative(axes, N):
    grid = TorusGrid(axes, N)
    rng = np.random.default_rng(36)
    for k in range(7):
        f = FormField(grid, k, rng.normal(size=(grid.npts, len(blades(7, k)))))
        _assert_close(d(f).values, _d_per_axis(f), k)


@pytest.mark.parametrize("axes,N", D_GRIDS)
def test_codiff_matches_star_d_star(axes, N):
    """codiff f = (-1)^k * (oracle d)(* f) for k = 1..7."""
    grid = TorusGrid(axes, N)
    rng = np.random.default_rng(38)
    for k in range(1, 8):
        f = FormField(grid, k, rng.normal(size=(grid.npts, len(blades(7, k)))))
        dual = FormField(grid, 7 - k, _star(f.values, k))
        want = (-1) ** k * _star(_d_per_axis(dual), 8 - k)
        _assert_close(codiff(f).values, want, k)


def _star_matrix(k: int) -> np.ndarray:
    """The Hodge star on k-form coefficients as a signed permutation matrix."""
    tgt, sgn = tables.hodge_arrays(7, k)
    H = np.zeros((len(tgt), len(tgt)))
    H[np.arange(len(tgt)), tgt] = sgn
    return H


@pytest.mark.parametrize("axes", [(1,), (2, 5), (1, 2, 3), (3, 4, 6, 7), tuple(range(1, 8))])
def test_codiff_combine_is_star_d_combine_star(axes):
    """Minus the interior products equal (-1)^k * d * exactly: block i of
    the codiff combine is (-1)^k H_k S_i H_{8-k}, S_i block i of the d
    combine on (7-k)-forms."""
    for k in range(1, 8):
        S = torus._d_combine(axes, 7 - k).reshape(len(axes), len(blades(7, k)), -1)
        want = (-1) ** k * (_star_matrix(k) @ S @ _star_matrix(8 - k))
        assert np.array_equal(torus._codiff_combine(axes, k),
                              want.reshape(-1, len(blades(7, k - 1)))), k


@pytest.mark.parametrize("axes", [(1,), (2, 5), (1, 2, 3), (3, 4, 6, 7), tuple(range(1, 8))])
def test_d_combine_blocks_are_exact_wedges(axes):
    """Row j of block i of the d combine is dx^axes[i] ^ e^{J_j}."""
    for k in range(7):
        C = torus._d_combine(axes, k).reshape(len(axes), len(blades(7, k)), -1)
        for i, axis in enumerate(axes):
            e = KForm.from_blades(7, 1, {(axis,): 1}, RATIONAL)
            for j, J in enumerate(blades(7, k)):
                out = wedge(e, KForm.from_blades(7, k, {J: 1}, RATIONAL))
                assert np.array_equal(C[i, j], [int(c) for c in out.coeffs]), (axis, J)


CACHED_TABLES = {
    "tables.wedge_arrays": lambda: tables.wedge_arrays(7, 2, 3),
    "tables.wedge_tensor": lambda: tables.wedge_tensor(7, 1, 5),
    "tables.power_arrays": lambda: tables.power_arrays(7, 2),
    "tables.interior_arrays": tables.interior_arrays,
    "tables.hodge_arrays": lambda: tables.hodge_arrays(7, 3),
    "tables.hodge_gather": lambda: tables.hodge_gather(7, 3),
    "tables.wedge_const_matrix": lambda: tables.wedge_const_matrix(7, 2, 4, (1.0,) * 35),
    "tables.mode_weight_tensor": tables.mode_weight_tensor,
    "tables.mode_kernel_tensors": tables.mode_kernel_tensors,
    "tables.phi_symmetries": tables.phi_symmetries,
    "torus._spectral_k": lambda: torus._spectral_k(TorusGrid((1, 2), 4)),
    "torus._derivative_matrix": lambda: torus._derivative_matrix(8),
    "torus._d_combine": lambda: torus._d_combine((1, 2), 2),
    "torus._codiff_combine": lambda: torus._codiff_combine((1, 2), 2),
}


def test_every_cached_table_is_read_only():
    """The caches in ``tables`` and ``torus`` hand the same arrays to every
    caller (``mode_kernel_tensors()[1]`` is ``wedge_tensor(7, 1, 5)`` itself),
    so a write into any of them raises instead of corrupting the cache."""
    cached = {f"{m.__name__.split('.')[-1]}.{name}" for m in (tables, torus)
              for name, fn in vars(m).items()
              if hasattr(fn, "cache_info") and fn.__module__ == m.__name__}
    assert cached == set(CACHED_TABLES)
    assert tables.mode_kernel_tensors()[1] is tables.wedge_tensor(7, 1, 5)
    for name, call in CACHED_TABLES.items():
        out = call()
        for a in out if isinstance(out, tuple) else (out,):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a


def test_wedge_by_w_adjoint_is_the_adjoint():
    """<x ^ W, y> = <x, *(W ^ *y)> for the CG adjoint of x -> x ^ W."""
    rng = np.random.default_rng(37)
    grid = TorusGrid((1, 2, 3), 8)
    x = FormField(grid, 2, rng.normal(size=(grid.npts, 21)))
    W = FormField(grid, 4, rng.normal(size=(grid.npts, 35)))
    y = FormField(grid, 6, rng.normal(size=(grid.npts, 7)))
    lhs = field_inner(wedge_field(x, W), y)
    rhs = field_inner(x, flow._wedge_by_w_adjoint(y, W))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_backend_name_consistent():
    assert kernels.backend_name() == "numpy"


# Warm field work in a child: set-up, one warm-up run, then the measured
# run, whose minor page faults the child prints.
_FAULTS = """\
import resource
import numpy as np
from ddt7 import torus
from ddt7.flow import FlowConfig, flow_run
from ddt7.torus import Flux, TorusGrid
{setup}
{warm}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{work}
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

_FLOW = dict(
    setup="pot = torus.random_coclosed_potential(\n"
          "    TorusGrid((1, 2, 3, 4), 8), Flux.from_entries({(1, 2): 1, (4, 7): 1}),\n"
          "    np.random.default_rng(0), scale=0.02)\n"
          "cfg = FlowConfig(dt=1e-3, steps=15, scheme='rk4', record_every=15)",
    warm="flow_run(pot, cfg)",
    work="flow_run(pot, cfg)")

# criterion 4's moment draw on 512 points, as the desk benchmark makes it
_DRAWS = dict(
    setup="grid = TorusGrid((1, 2, 3), 8)\n"
          "rng = np.random.default_rng(1)\n"
          "def inputs():\n"
          "    pot = torus.random_potential(grid, Flux.zero(), rng, scale=0.05)\n"
          "    fields = [torus.random_field(grid, k, rng) for k in (0, 0, 1, 1, 1, 1, 1)]\n"
          "    return pot, fields, torus.random_field(grid, 0, rng, scale=0.5)\n"
          "def draw(pot, fields, chi):\n"
          "    g1, g2, b, b1, b2, b3, b4 = fields\n"
          "    torus.nu_derivative_check(pot, g1, g2, b)\n"
          "    for bs in ((b1, b2, b3), (b2, b1, b3), (b1, b3, b2), (b1, b1, b2)):\n"
          "        torus.theta3(pot, *bs)\n"
          "    torus.dtheta4(pot, b1, b2, b3, b4)\n"
          "    shifted = torus.gauge_shift(pot, chi, (1, 0, -2, 0, 0, 1, 0))\n"
          "    torus.theta3(shifted, b1, b2, b3)\n"
          "    torus.nu(shifted, g1, g2), torus.nu(pot, g1, g2)\n"
          "    torus.kl_functional(pot), torus.kl_functional(torus.gauge_shift(pot, chi))\n"
          "    torus.residual_field(pot), torus.residual_field(shifted)\n"
          "draws = [inputs() for _ in range(11)]",
    warm="draw(*draws[0])",
    work="for inp in draws[1:]:\n    draw(*inp)")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are set on glibc only")
@pytest.mark.parametrize("work", [_FLOW, _DRAWS], ids=["flow4096", "moment_draws512"])
def test_warm_field_work_takes_no_page_faults(run_child, work):
    """Importing the kernels sets glibc's mmap and trim thresholds to their
    ceiling, so a warm 15-step rk4 flow on 4096 points and 10 warm moment
    draws on 512 points reuse the heap their warm-up left.  With the
    thresholds glibc adapts by itself they took 26,592 and 12,215 minor
    faults, as freed temporaries were trimmed and faulted back in."""
    run = run_child(_FAULTS.format(**work))
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 64
