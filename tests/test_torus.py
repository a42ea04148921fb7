"""Field layer on the flat torus: spectral calculus, functionals, gauge
moves, and the two file formats."""

import itertools
import math
import struct
import warnings

import numpy as np
import pytest

from ddt7 import ddt, torus
from ddt7.errors import InputError, NonFiniteError, NumericalError
from ddt7.exalg import KForm, blades, hodge, inner, wedge
from ddt7.scalars import FLOAT
from ddt7.torus import (Flux, FormField, GaugePotential, TorusGrid,
                        coclosed_project, codiff, curvature, d, dtheta4,
                        field_inner,
                        field_l2, field_mean, gauge_shift, hodge_field,
                        integrate, kl_functional, kl_oneform, kl_segment,
                        load_field, load_flux, nu_derivative_check,
                        random_coclosed_potential, random_field,
                        random_potential, residual_field, save_field,
                        save_flux, theta3, wedge_field, zero_potential)

GRID3 = TorusGrid((1, 2, 3), 8)
GRID2 = TorusGrid((1, 2), 8)
GRID16 = TorusGrid((1, 2), 4)
# the doubly calibrated flux of the acceptance suite
CALIBRATED = Flux.from_entries({(1, 2): 1, (4, 7): 1})


def test_grid_validation():
    for bad in [(), (2, 1), (1, 1), (0, 2), (1, 8)]:
        with pytest.raises(InputError):
            TorusGrid(bad, 4)
    for bad_n in (0, 1, 3, 6):
        with pytest.raises(InputError):
            TorusGrid((1, 2), bad_n)
    with pytest.raises(InputError):
        FormField(GRID2, 1, np.zeros((3, 7)))
    with pytest.raises(InputError):
        FormField(GRID2, 1, np.full((GRID2.npts, 7), np.nan))


def test_d_squared_vanishes():
    rng = np.random.default_rng(0)
    for k in (0, 1, 2):
        f = random_field(GRID3, k, rng, kmax=2)
        assert field_l2(d(d(f))) <= 1e-11 * max(field_l2(f), 1.0)


def test_d_matches_analytic_derivative():
    """d of cos(2 pi x1) is -2 pi sin(2 pi x1) dx^1."""
    x = GRID2.coordinates()
    f = FormField(GRID2, 0, np.cos(2 * math.pi * x[1])[:, None])
    df = d(f)
    expected = np.zeros((GRID2.npts, 7))
    expected[:, 0] = -2 * math.pi * np.sin(2 * math.pi * x[1])
    assert np.max(np.abs(df.values - expected)) < 1e-12


def test_codiff_is_adjoint_of_d():
    rng = np.random.default_rng(1)
    for kf in (0, 1, 2):
        f = random_field(GRID3, kf, rng, kmax=2)
        g = random_field(GRID3, kf + 1, rng, kmax=2)
        lhs = field_inner(d(f), g)
        rhs = field_inner(f, codiff(g))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_integral_of_exact_form_vanishes():
    rng = np.random.default_rng(2)
    f = random_field(GRID3, 6, rng, kmax=2)
    assert abs(integrate(d(f))) < 1e-12 * max(field_l2(f), 1.0)
    with pytest.raises(InputError):
        integrate(f)


def test_field_ops_match_pointwise_algebra():
    rng = np.random.default_rng(3)
    f = random_field(GRID3, 2, rng)
    g = random_field(GRID3, 3, rng)
    w = wedge_field(f, g)
    h = hodge_field(f)
    for p in (0, 17, GRID3.npts - 1):
        fw = wedge(f.pointwise(p), g.pointwise(p))
        assert np.allclose(w.values[p], [float(c) for c in fw.coeffs],
                           rtol=0, atol=1e-13)
        fh = hodge(f.pointwise(p))
        assert np.allclose(h.values[p], [float(c) for c in fh.coeffs],
                           rtol=0, atol=1e-13)
        assert abs(inner(f.pointwise(p), f.pointwise(p))
                   - float(np.sum(f.values[p] ** 2))) < 1e-12


def test_random_fields_are_band_limited():
    rng = np.random.default_rng(4)
    f = random_field(GRID3, 1, rng, kmax=1)
    cube = f.values.reshape(GRID3.shape + (7,))
    spec = np.fft.fftn(cube, axes=(0, 1, 2))
    k = GRID3.wavenumbers()
    mask = (np.abs(k)[:, None, None] > 1) | (np.abs(k)[None, :, None] > 1) \
        | (np.abs(k)[None, None, :] > 1)
    assert np.max(np.abs(spec[mask])) < 1e-10 * np.max(np.abs(spec))


@pytest.mark.parametrize("scale, kmax", [(-0.5, 1), (0.1, -1),
                                         (float("nan"), 1)])
def test_random_fields_refuse_a_negative_scale_or_kmax(scale, kmax):
    """Bad input, not numpy's ValueError ("scale < 0", "negative
    dimensions are not allowed")."""
    rng = np.random.default_rng(0)
    for make in (random_potential, random_coclosed_potential):
        with pytest.raises(InputError):
            make(GRID2, CALIBRATED, rng, scale, kmax)
    with pytest.raises(InputError):
        random_field(GRID2, 1, rng, scale, kmax)
    assert not np.any(random_field(GRID2, 1, rng, 0.0, 0).values)


def _random_field_by_modes(grid, k, rng, scale, kmax):
    """The trigonometric sum mode by mode, one cos and one sin over the
    grid per mode, with the amplitudes drawn in the same order: the
    oracle for ``random_field``."""
    modes = torus._low_modes(grid.active_axes, kmax)
    coords = grid.coordinates()
    xs = np.stack([coords[a] for a in grid.active_axes])
    dim = len(blades(7, k))
    vals = np.zeros((grid.npts, dim))
    norm = scale / math.sqrt(max(len(modes), 1))
    for mode in modes:
        phase = 2.0 * math.pi * np.tensordot(np.array(mode, dtype=float), xs, axes=1)
        amp_c = rng.normal(0.0, norm, size=dim)
        amp_s = rng.normal(0.0, norm, size=dim)
        vals += np.cos(phase)[:, None] * amp_c + np.sin(phase)[:, None] * amp_s
    return vals


@pytest.mark.parametrize("grid", [TorusGrid((3,), 16), TorusGrid((2, 6), 8),
                                  TorusGrid((1, 4, 7), 4)])
def test_random_field_is_the_trigonometric_sum(grid):
    """Equal to the mode-by-mode sum within 1e-14 of its largest value, for
    kmax 0, 1, N/2 and beyond N/2 (aliased modes), and the generator ends
    in the same state."""
    for k, kmax in itertools.product((0, 1, 3), (0, 1, grid.N // 2, grid.N - 1)):
        rng, ref = np.random.default_rng(20 + k), np.random.default_rng(20 + k)
        got = random_field(grid, k, rng, 0.7, kmax).values
        want = _random_field_by_modes(grid, k, ref, 0.7, kmax)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(want)), 1e-300)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.normal() == ref.normal()


def _low_modes_by_loop(n_axes, kmax):
    """The box swept point by point in Python, keeping k > -k: the
    reference for ``torus._low_modes``."""
    out = []
    for mode in np.ndindex(*(2 * kmax + 1,) * n_axes):
        k = tuple(m - kmax for m in mode)
        if any(k) and k > tuple(-v for v in k):
            out.append(k)
    return np.array(out, dtype=np.int64).reshape(-1, n_axes)


def _random_field_point_major(grid, k, rng, scale, kmax):
    """``random_field`` as one point-major complex spectrum over the loop's
    mode list, inverse FFT axis by axis: the reference layout."""
    modes = _low_modes_by_loop(grid.n_active, kmax)
    dim = len(blades(7, k))
    amps = rng.normal(0.0, scale / math.sqrt(max(len(modes), 1)),
                      (len(modes), 2, dim))
    spec = np.zeros(grid.shape + (dim,), dtype=np.complex128)
    np.add.at(spec, tuple(modes.T % grid.N), amps[:, 0] - 1j * amps[:, 1])
    for axis in range(grid.n_active):
        spec = np.fft.ifft(spec, axis=axis)
    return spec.real.reshape(grid.npts, dim) * grid.npts


LOW_MODE_GRIDS = [TorusGrid((3,), 8), TorusGrid((2, 6), 8), TorusGrid((1, 4, 7), 4),
                  TorusGrid((1, 2, 3, 4), 4)]


@pytest.mark.parametrize("grid", LOW_MODE_GRIDS)
def test_low_modes_are_the_box_loop(grid):
    """The code sweep lists the loop's modes in the loop's order, for kmax
    0, 1, 2 and N - 1, and ``random_field`` built on it equals the
    point-major reference bitwise, leaving the generator in its state."""
    for kmax in (0, 1, 2, grid.N - 1):
        got = torus._low_modes(grid.active_axes, kmax)
        want = _low_modes_by_loop(grid.n_active, kmax)
        assert got.dtype == np.int64 and np.array_equal(got, want), kmax
        for k in (0, 1, 3):
            rng, ref = np.random.default_rng(50 + k), np.random.default_rng(50 + k)
            f = random_field(grid, k, rng, 0.7, kmax)
            want_vals = _random_field_point_major(grid, k, ref, 0.7, kmax)
            assert f.values.tobytes() == want_vals.tobytes(), (kmax, k)
            assert rng.bit_generator.state == ref.bit_generator.state


def _coclosed_by_full_fft(a):
    """The projection on the full complex spectrum, wave vectors from a
    meshgrid: the oracle for ``coclosed_project``."""
    grid = a.grid
    axes = tuple(range(grid.n_active))
    spec = np.fft.fftn(a.values.reshape(grid.shape + (7,)), axes=axes)
    kgrids = np.meshgrid(*([grid.wavenumbers()] * grid.n_active), indexing="ij")
    kvec = np.zeros(grid.shape + (7,))
    for i, axis in enumerate(grid.active_axes):
        kvec[..., axis - 1] = kgrids[i]
    k2 = np.sum(kvec * kvec, axis=-1)
    dot = np.sum(kvec * spec, axis=-1)
    spec = spec - (dot / np.where(k2 > 0, k2, 1.0))[..., None] * kvec
    spec[(0,) * grid.n_active] = 0.0
    return np.fft.ifftn(spec, axes=axes).real.reshape(a.values.shape)


@pytest.mark.parametrize("grid", [TorusGrid((3,), 16), TorusGrid((2, 6), 8),
                                  TorusGrid((1, 4, 7), 4), TorusGrid((1, 2), 2)])
def test_coclosed_project_matches_the_full_fft_formula(grid):
    """White noise fills every mode, Nyquist and dead modes included."""
    a = FormField(grid, 1, np.random.default_rng(21).normal(size=(grid.npts, 7)))
    p = coclosed_project(a)
    want = _coclosed_by_full_fft(a)
    assert np.max(np.abs(p.values - want)) <= 1e-14 * np.max(np.abs(want))
    assert field_l2(codiff(p)) <= 1e-12 * field_l2(a)
    assert np.max(np.abs(field_mean(p))) <= 1e-15
    assert np.max(np.abs(coclosed_project(p).values - p.values)) \
        <= 1e-14 * np.max(np.abs(p.values))


# A random field over modes x points arrays on the 6-axis N = 8 grid needs
# about 2.3 GB; the one-FFT build peaks near 240 MB of address space, the
# per-mode loop it replaced near 330 MB.
_ADDRESS_LIMIT = 512 * 2 ** 20


def test_largest_cli_grid_builds_a_coclosed_potential_in_bounded_memory(run_child):
    """random_coclosed_potential on the CLI's largest 6-axis grid (N = 8,
    262,144 points) in a child limited to 512 MiB of address space, one
    BLAS thread so the limit does not depend on the core count."""
    run = run_child("import numpy as np\n"
                    "from ddt7 import torus\n"
                    "grid = torus.TorusGrid((1, 2, 3, 4, 5, 6), 8)\n"
                    "pot = torus.random_coclosed_potential(\n"
                    "    grid, torus.Flux.zero(), np.random.default_rng(0))\n"
                    "print(pot.a.values.shape)\n",
                    address_limit=_ADDRESS_LIMIT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "(262144, 7)"


def test_flux_background_and_mean():
    flux = Flux.from_entries({(1, 2): 1, (4, 7): 2, (5, 6): -1})
    rng = np.random.default_rng(5)
    pot = random_potential(GRID3, flux, rng, scale=0.3)
    mean = field_mean(curvature(pot))
    assert np.allclose(mean, 2 * math.pi * np.array(flux.upper),
                       rtol=0, atol=1e-12)
    with pytest.raises(InputError):
        Flux.from_entries({(2, 1): 1})
    with pytest.raises(InputError):
        Flux((1, 2, 3))


def test_flux_entries_are_bounded_by_what_float64_holds():
    """Past 2^53 float64 no longer holds every integer, and 10**400 has no
    float64 at all: both are bad input, refused before any arithmetic."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (10 ** 400, 10 ** 308, -10 ** 308, 2 ** 53 + 1):
            with pytest.raises(InputError):
                Flux.from_entries({(1, 2): n})
        edge = Flux.from_entries({(1, 2): 2 ** 53, (4, 7): -2 ** 53})
    assert edge.background_form().coeffs[0] == 2.0 * math.pi * 2.0 ** 53
    assert all(math.isfinite(c) for c in edge.background_form().coeffs)


def test_residual_norm_of_pure_flux_background():
    # frozen: E = 2 pi (e12 + 2 e47 - e56) kills the cubic term and leaves
    # |E ^ *phi| = 2 (2 pi)^3 pointwise
    flux = Flux.from_entries({(1, 2): 1, (4, 7): 2, (5, 6): -1})
    _, norm = residual_field(zero_potential(GRID2, flux))
    assert abs(norm - 2 * (2 * math.pi) ** 3) < 1e-9
    assert abs(norm - 496.10042688479706) < 1e-9


def test_kl_segment_is_path_independent():
    rng = np.random.default_rng(6)
    flux = Flux.from_entries({(1, 2): 1, (4, 7): 1})
    d1 = random_field(GRID2, 1, rng, scale=0.2)
    d2 = random_field(GRID2, 1, rng, scale=0.2)
    base = zero_potential(GRID2, flux)
    direct = kl_segment(base, d1 + d2)
    two_leg = kl_segment(base, d1) + kl_segment(GaugePotential(d1, flux), d2)
    assert abs(direct - two_leg) <= 1e-10 * max(abs(direct), 1.0)
    assert abs(kl_functional(GaugePotential(d1 + d2, flux)) - direct) < 1e-14


def test_kl_oneform_vanishes_on_exact_directions():
    """The residual 6-form is closed, so pairing against d(chi) integrates
    to zero for any gauge function chi."""
    rng = np.random.default_rng(7)
    flux = Flux.from_entries({(1, 2): 1, (4, 7): 1})
    pot = random_potential(GRID3, flux, rng, scale=0.2)
    chi = random_field(GRID3, 0, rng)
    assert abs(kl_oneform(pot, d(chi))) < 1e-10


def test_gauge_invariance_of_functionals():
    rng = np.random.default_rng(8)
    flux = Flux.from_entries({(1, 2): 1})
    pot = random_potential(GRID3, flux, rng, scale=0.2)
    chi = random_field(GRID3, 0, rng, scale=0.5)
    shifted = gauge_shift(pot, chi, m=(1, 0, -2, 0, 0, 0, 1))
    # curvature is exactly gauge invariant up to spectral roundoff
    assert field_l2(curvature(shifted) - curvature(pot)) < 1e-10
    # the functional only sees small gauges; windings move it by
    # flux-dependent constants, so its invariance is chi-only
    kl0 = kl_functional(pot)
    assert abs(kl_functional(gauge_shift(pot, chi)) - kl0) \
        <= 1e-10 * max(abs(kl0), 1.0)
    assert abs(kl_functional(gauge_shift(pot, m=(0, 0, 1, 0, 0, 0, 0)))
               - kl0) > 1e-3
    b1, b2, b3 = (random_field(GRID3, 1, rng) for _ in range(3))
    assert abs(theta3(shifted, b1, b2, b3)
               - theta3(pot, b1, b2, b3)) < 1e-10
    with pytest.raises(InputError):
        gauge_shift(pot, m=(1, 0, 0))
    with pytest.raises(InputError):
        gauge_shift(pot, chi=b1)


def _parity(perm):
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def test_theta3_alternates_exactly():
    """Every permutation of the arguments multiplies theta3 by its sign and
    every repeat pattern gives 0.0, bit for bit, with and without flux."""
    rng = np.random.default_rng(9)
    for flux in (Flux.zero(), CALIBRATED):
        pot = random_potential(GRID3, flux, rng, scale=0.3)
        bs = [random_field(GRID3, 1, rng) for _ in range(3)]
        v = theta3(pot, *bs)
        assert v != 0.0
        for perm in itertools.permutations(range(3)):
            assert theta3(pot, *(bs[i] for i in perm)) == _parity(perm) * v
        for rep in ((0, 0, 1), (0, 1, 0), (0, 1, 1)):
            assert theta3(pot, *(bs[i] for i in rep)) == 0.0


def test_dtheta4_closedness():
    rng = np.random.default_rng(10)
    flux = Flux.from_entries({(1, 2): 1, (4, 7): -1})
    pot = random_potential(GRID3, flux, rng, scale=0.2)
    bs = [random_field(GRID3, 1, rng) for _ in range(4)]
    assert abs(dtheta4(pot, *bs)) < 1e-10


def test_nu_derivative_matches_theta3():
    rng = np.random.default_rng(11)
    flux = Flux.from_entries({(1, 2): 1})
    for _ in range(5):
        pot = random_potential(GRID3, flux, rng, scale=0.2)
        g1 = random_field(GRID3, 0, rng)
        g2 = random_field(GRID3, 0, rng)
        b = random_field(GRID3, 1, rng)
        lhs, rhs = nu_derivative_check(pot, g1, g2, b)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


# --- oracles: the functionals with every wedge formed on its own ----------------


def _theta3_oracle(pot, b1, b2, b3):
    """The six ordered triples, three wedges each: 18 wedges."""
    E = curvature(pot)
    W = ddt._residual_weight(wedge_field(E, E), 1.0 / 6.0)
    args = (b1, b2, b3)
    terms = []
    for (p, q, r), sgn in (((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
                           ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1)):
        val = integrate(wedge_field(
            wedge_field(wedge_field(args[p], args[q]), args[r]), W))
        terms.append(-sgn * val)
    return math.fsum(terms) / 6.0


def _dtheta4_oracle(pot, *bs):
    """Each of the four terms from its own triple b_j^b_k^b_l and db_i^E."""
    E = curvature(pot)
    terms = []
    for i in range(4):
        rest = [bs[j] for j in range(4) if j != i]
        triple = wedge_field(wedge_field(rest[0], rest[1]), rest[2])
        deriv = -integrate(wedge_field(triple, wedge_field(d(bs[i]), E)))
        terms.append(deriv if i % 2 == 0 else -deriv)
    return math.fsum(terms)


def _kl_segment_integral_oracle(E0, D, delta):
    """The segment integral with a field E0 and every product a field wedge."""
    E0sq = wedge_field(E0, E0)
    DD = wedge_field(D, D)
    r0 = ddt._residual(E0, E0sq, 1.0 / 6.0)
    r1 = wedge_field(D, ddt._residual_weight(E0sq, 1.0 / 6.0))
    r2 = 0.5 * wedge_field(E0, DD)
    r3 = (1.0 / 6.0) * wedge_field(DD, D)
    avg = r0 + 0.5 * r1 + (1.0 / 3.0) * r2 + 0.25 * r3
    return integrate(wedge_field(delta, avg))


@pytest.mark.parametrize("grid", [GRID16, GRID3], ids=["16", "512"])
@pytest.mark.parametrize("flux", [Flux.zero(), CALIBRATED],
                         ids=["zero-flux", "calibrated"])
def test_shared_wedge_functionals_match_their_oracles(grid, flux):
    rng = np.random.default_rng(15)
    pot = random_potential(grid, flux, rng, scale=0.3)
    bs = [random_field(grid, 1, rng) for _ in range(4)]
    g1, g2 = random_field(grid, 0, rng), random_field(grid, 0, rng)
    background = FormField.constant(grid, flux.background_form())
    pairs = [(theta3(pot, *bs[:3]), _theta3_oracle(pot, *bs[:3])),
             (dtheta4(pot, *bs), _dtheta4_oracle(pot, *bs)),
             (kl_functional(pot),
              _kl_segment_integral_oracle(background, d(pot.a), pot.a)),
             (kl_segment(pot, bs[3]),
              _kl_segment_integral_oracle(curvature(pot), d(bs[3]), bs[3]))]
    for got, want in pairs:
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)
    # nu_derivative_check shares W, d(g1) and d(g2) with theta3's body
    _, rhs = nu_derivative_check(pot, g1, g2, bs[0])
    assert rhs == theta3(pot, d(g1), d(g2), bs[0])


def test_coclosed_projection():
    rng = np.random.default_rng(12)
    a = random_field(GRID3, 1, rng, kmax=2)
    p = coclosed_project(a)
    scale = max(field_l2(a), 1.0)
    assert field_l2(codiff(p)) < 1e-10 * scale
    assert np.max(np.abs(field_mean(p))) < 1e-12
    q = coclosed_project(p)
    assert np.max(np.abs(q.values - p.values)) < 1e-12
    # only the curl-free part is removed, so d passes through
    assert field_l2(d(p) - d(a)) < 1e-10 * scale


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    f = random_field(GRID3, 2, rng, kmax=2)
    path = tmp_path / "f.t7f"
    save_field(path, f)
    g = load_field(path)
    assert g.grid == f.grid and g.k == f.k
    assert np.array_equal(g.values, f.values)

    short = tmp_path / "short.t7f"
    short.write_bytes(path.read_bytes()[:10])
    with pytest.raises(InputError):
        load_field(short)
    bad = tmp_path / "bad.t7f"
    bad.write_bytes(b"NOTAFORM" + path.read_bytes()[8:])
    with pytest.raises(InputError):
        load_field(bad)
    trunc = tmp_path / "trunc.t7f"
    trunc.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(InputError):
        load_field(trunc)


def test_snapshot_bytes_are_point_major_doubles(tmp_path):
    """A snapshot is the header and the point-major values as little-endian
    doubles, built here from the struct layout and numpy alone; loading
    those bytes gives the field back."""
    rng = np.random.default_rng(14)
    vals = rng.normal(size=(GRID3.npts, 21))
    f = FormField(GRID3, 2, vals)
    path = tmp_path / "f.t7f"
    save_field(path, f)
    want = struct.pack("<8sB7BIB", b"T7FIELD1", 3, 1, 2, 3, 0, 0, 0, 0, 8, 2) \
        + vals.astype("<f8").tobytes()
    assert path.read_bytes() == want
    raw = tmp_path / "raw.t7f"
    raw.write_bytes(want)
    g = load_field(raw)
    assert g.grid == GRID3 and g.k == 2
    assert g.values.tobytes() == vals.tobytes()
    assert g.coeffs.flags.c_contiguous and g.coeffs.shape == (21, GRID3.npts)


def test_form_degree_out_of_range_is_rejected(tmp_path):
    for k in (-1, 8, 9):
        with pytest.raises(InputError):
            FormField(GRID2, k, np.zeros((GRID2.npts, 0)))
    # header degree byte 9 with an empty payload, which the payload-size
    # check alone would accept as a (npts, 0) field
    path = tmp_path / "deg9.t7f"
    save_field(path, FormField.zero(GRID2, 1))
    path.write_bytes(path.read_bytes()[:20] + bytes([9]))
    with pytest.raises(InputError):
        load_field(path)


def test_flux_file_roundtrip(tmp_path):
    flux = Flux.from_entries({(1, 2): 1, (4, 7): 2, (5, 6): -1})
    path = tmp_path / "flux.txt"
    save_flux(path, flux)
    assert load_flux(path) == flux
    (tmp_path / "short.txt").write_text("1 2 3\n")
    with pytest.raises(InputError):
        load_flux(tmp_path / "short.txt")
    (tmp_path / "junk.txt").write_text(" ".join(["1"] * 20 + ["x"]) + "\n")
    with pytest.raises(InputError):
        load_flux(tmp_path / "junk.txt")


def test_potential_and_residual_validation():
    rng = np.random.default_rng(14)
    with pytest.raises(InputError):
        GaugePotential(random_field(GRID2, 2, rng), Flux.zero())
    pot = random_coclosed_potential(GRID2, Flux.zero(), rng, scale=0.1)
    assert field_l2(codiff(pot.a)) < 1e-10
    E = curvature(pot)
    R = ddt.ddt_residual(E)
    assert R.k == 6
    # closedness of the residual, the fact the kl tests lean on
    assert field_l2(d(R)) < 1e-9


def test_grid_sizes_are_cached_and_equality_ignores_them():
    grid = TorusGrid((1, 2, 3), 8)
    assert (grid.n_active, grid.shape, grid.npts) == (3, (8, 8, 8), 512)
    assert grid.npts is grid.npts
    fresh = TorusGrid((1, 2, 3), 8)
    assert fresh == grid and hash(fresh) == hash(grid)


def _is_op_result(f, grid, k):
    c, v = f.coeffs, f.values
    return (f.k == k and c.dtype == np.float64 and c.flags.c_contiguous
            and c.shape == (len(blades(7, k)), grid.npts)
            and v.shape == (grid.npts, len(blades(7, k)))
            and not v.flags.writeable and np.shares_memory(v, c))


def test_op_results_are_contiguous_float64_of_the_degree_shape():
    """Op results skip the constructor's checks, so each op must itself
    store C-contiguous float64 coefficients of shape (C(7, k), npts); the
    values are their read-only point-major view."""
    rng = np.random.default_rng(40)
    fs = {k: random_field(GRID2, k, rng) for k in range(8)}
    consts = {k: KForm.from_coeffs(7, k, list(rng.normal(size=len(blades(7, k)))),
                                   FLOAT) for k in range(8)}
    weight = rng.normal(size=GRID2.npts)
    for k, f in fs.items():
        results = [(f + f, k), (f - f, k), (f + consts[k], k), (f - consts[k], k),
                   (2.5 * f, k), (f * weight, k), (-f, k), (hodge_field(f), 7 - k)]
        if k < 7:
            results.append((d(f), k + 1))
        if k > 0:
            results.append((codiff(f), k - 1))
        for q in range(8 - k):
            results += [(wedge_field(f, fs[q]), k + q),
                        (torus.wedge_const(f, consts[q]), k + q),
                        (torus.wedge_const(f, consts[q], left=True), k + q)]
        for got, degree in results:
            assert _is_op_result(got, GRID2, degree)


def test_moment_functionals_refuse_overflow():
    """Each public functional checks the float it returns: at a potential
    of scale 1e200 it raises rather than return inf or NaN.  dtheta4 is
    linear in E, so its directions are scaled up as well."""
    rng = np.random.default_rng(41)
    flux = Flux.from_entries({(1, 2): 1, (4, 7): 1})
    pot = random_potential(GRID2, flux, rng, scale=1e200)
    g1, g2 = random_field(GRID2, 0, rng), random_field(GRID2, 0, rng)
    bs = [random_field(GRID2, 1, rng) for _ in range(3)]
    big = [random_field(GRID2, 1, rng, scale=1e50) for _ in range(4)]
    calls = [lambda: theta3(pot, *bs), lambda: dtheta4(pot, *big),
             lambda: torus.nu(pot, g1, g2),
             lambda: nu_derivative_check(pot, g1, g2, bs[0]),
             lambda: kl_functional(pot), lambda: kl_oneform(pot, bs[0]),
             lambda: kl_segment(pot, bs[0]), lambda: residual_field(pot)]
    with np.errstate(over="ignore", invalid="ignore"):
        for call in calls:
            with pytest.raises(NonFiniteError):
                call()


def test_save_field_refuses_a_non_finite_field(tmp_path):
    with np.errstate(invalid="ignore"):
        nan_field = FormField.zero(GRID2, 1) * math.inf  # an op result of NaNs
    path = tmp_path / "nan.t7f"
    with pytest.raises(NumericalError):
        save_field(path, nan_field)
    assert not path.exists()
