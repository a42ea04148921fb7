"""Discretized differential forms on the flat 7-torus.

Fields live on a uniform periodic grid over a chosen subset of the seven
coordinates (inactive coordinates mean the field is constant along them).
Exterior derivative and codifferential are spectral: exact for band-limited
fields, with the Nyquist mode zeroed in derivatives so d stays real and
antisymmetric.  Coordinates have period 1; quantized line-bundle flux
carries the 2*pi, so flux files hold literal integers.

Conventions (the global sign ledger lives in ``ddt``):

* Lie-algebra valued objects sqrt(-1)*g are stored as the real g.
* The L2 inner product of fields is the grid mean of the pointwise blade
  inner product, i.e. integration against the unit-volume torus.
* All reductions run in C order over the grid, so equal inputs give
  bit-equal outputs.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import g2, tables
from .errors import InputError, NonFiniteError
from .exalg import KForm, blades
from .kernels import hodge_fields, wedge_fields
from .scalars import FLOAT, RATIONAL

__all__ = [
    "TorusGrid", "FormField", "Flux", "GaugePotential",
    "d", "codiff", "integrate", "field_inner", "field_l2",
    "wedge_field", "wedge_const", "hodge_field", "scalar_times",
    "curvature", "curvature_residual", "residual_field",
    "kl_oneform", "kl_functional", "kl_segment", "kl_segment_integral",
    "theta3", "dtheta4", "nu", "nu_derivative_check", "gauge_shift",
    "random_field", "random_potential", "random_coclosed_potential",
    "save_field", "load_field", "save_flux", "load_flux",
]

_SNAPSHOT_MAGIC = b"T7FIELD1"

_PHI = g2.phi_for(FLOAT)
_STAR_PHI = g2.star_phi_for(FLOAT)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [0,1)^7 along the active axes."""

    active_axes: tuple
    N: int = 4

    def __post_init__(self):
        axes = tuple(self.active_axes)
        if not axes or sorted(set(axes)) != sorted(axes):
            raise InputError("active_axes must be a nonempty set of distinct axes")
        if any(a < 1 or a > 7 for a in axes):
            raise InputError("axes must lie in 1..7")
        if tuple(sorted(axes)) != axes:
            raise InputError("active_axes must be sorted")
        if self.N < 2 or (self.N & (self.N - 1)) != 0:
            raise InputError("N must be a power of two, at least 2")
        object.__setattr__(self, "active_axes", axes)

    @property
    def n_active(self) -> int:
        return len(self.active_axes)

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n_active

    @property
    def npts(self) -> int:
        return self.N ** self.n_active

    def coordinates(self) -> dict:
        """{axis: (npts,) array of coordinate values in [0,1)}."""
        idx = np.indices(self.shape).reshape(self.n_active, self.npts)
        return {a: idx[i] / self.N for i, a in enumerate(self.active_axes)}

    def wavenumbers(self) -> np.ndarray:
        """Integer frequencies along one grid dimension, Nyquist zeroed."""
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        k = k.astype(np.int64)
        if self.N % 2 == 0:
            k[self.N // 2] = 0
        return k


@dataclass(frozen=True, eq=False)
class FormField:
    """Degree-k form sampled on a grid: values (npts, n_blades), float64."""

    grid: TorusGrid
    k: int
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or not 0 <= self.k <= 7:
            raise InputError(f"form degree must be in 0..7, got {self.k!r}")
        dim = len(blades(7, self.k))
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.npts, dim):
            raise InputError(
                f"degree-{self.k} field on this grid needs shape "
                f"({self.grid.npts}, {dim}), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @staticmethod
    def zero(grid: TorusGrid, k: int) -> "FormField":
        return FormField(grid, k, np.zeros((grid.npts, len(blades(7, k)))))

    @staticmethod
    def constant(grid: TorusGrid, form: KForm) -> "FormField":
        coeffs = np.array([float(c) for c in form.coeffs])
        return FormField(grid, form.k, np.tile(coeffs, (grid.npts, 1)))

    def pointwise(self, p: int) -> KForm:
        """The KForm at flat grid index p (for cross-checks)."""
        return KForm.from_coeffs(7, self.k, self.values[p].tolist(), FLOAT)

    def __add__(self, other: "FormField") -> "FormField":
        self._compat(other)
        return FormField(self.grid, self.k, self.values + other.values)

    def __sub__(self, other: "FormField") -> "FormField":
        self._compat(other)
        return FormField(self.grid, self.k, self.values - other.values)

    def __mul__(self, s: float) -> "FormField":
        return FormField(self.grid, self.k, self.values * float(s))

    __rmul__ = __mul__

    def __neg__(self) -> "FormField":
        return FormField(self.grid, self.k, -self.values)

    def _compat(self, other: "FormField"):
        if self.grid != other.grid or self.k != other.k:
            raise InputError("fields live on different grids or degrees")


def _fft_grid(f: FormField) -> np.ndarray:
    na = f.grid.n_active
    cube = f.values.reshape(f.grid.shape + (f.values.shape[1],))
    return np.fft.fftn(cube, axes=tuple(range(na)))


@lru_cache(maxsize=None)
def _spectral_k(grid: TorusGrid) -> np.ndarray:
    """The integer frequency k of each real-FFT mode, (nspec, 7) int64.

    Zero on inactive axes and at the Nyquist frequency.  The real FFT
    halves the last active axis, whose frequencies are 0..N/2.
    """
    kline = grid.wavenumbers()
    lines = [kline] * (grid.n_active - 1) + [kline[:grid.N // 2 + 1]]
    ks = np.meshgrid(*lines, indexing="ij")
    out = np.zeros(ks[0].shape + (7,), dtype=np.int64)
    for k, axis in zip(ks, grid.active_axes):
        out[..., axis - 1] = k
    return out.reshape(-1, 7)


@lru_cache(maxsize=None)
def _d_symbol(grid: TorusGrid) -> np.ndarray:
    """The 1-form 2*pi*i*k over the real-FFT spectrum, (nspec, 7) complex."""
    return (2j * math.pi) * _spectral_k(grid)


def d(f: FormField) -> FormField:
    """Spectral exterior derivative: one real-FFT round trip, with the
    symbol 1-form wedged onto the spectrum by the wedge kernel."""
    if f.k >= 7:
        raise InputError("d of a top-degree form")
    grid = f.grid
    axes = tuple(range(grid.n_active))
    spec = np.fft.rfftn(f.values.reshape(grid.shape + (-1,)), axes=axes)
    sym = _d_symbol(grid)
    dim_out = len(blades(7, f.k + 1))
    dspec = wedge_fields(sym, spec.reshape(len(sym), -1),
                         *tables.wedge_arrays(7, 1, f.k), dim_out)
    vals = np.fft.irfftn(dspec.reshape(spec.shape[:-1] + (dim_out,)),
                         s=grid.shape, axes=axes)
    return FormField(grid, f.k + 1, vals.reshape(grid.npts, dim_out))


def hodge_field(f: FormField) -> FormField:
    tgt, sgn = tables.hodge_arrays(7, f.k)
    vals = hodge_fields(f.values, tgt, sgn, len(blades(7, 7 - f.k)))
    return FormField(f.grid, 7 - f.k, vals)


def codiff(f: FormField) -> FormField:
    """Codifferential, the (-1)^k * d * convention on R^7."""
    if f.k == 0:
        raise InputError("codiff of a scalar")
    out = hodge_field(d(hodge_field(f)))
    if f.k % 2:
        out = -out
    return out


def wedge_field(f: FormField, g: FormField) -> FormField:
    if f.grid != g.grid:
        raise InputError("fields live on different grids")
    if f.k + g.k > 7:
        raise InputError(f"wedge of degrees {f.k} and {g.k} exceeds 7")
    ii, jj, oo, ss = tables.wedge_arrays(7, f.k, g.k)
    dim_out = len(blades(7, f.k + g.k))
    vals = wedge_fields(f.values, g.values, ii, jj, oo, ss, dim_out)
    return FormField(f.grid, f.k + g.k, vals)


def wedge_const(f: FormField, form: KForm, left: bool = False) -> FormField:
    """f ^ c for a constant form c (or c ^ f when left=True), as one matmul."""
    coeffs = tuple(float(c) for c in form.coeffs)
    if f.k + form.k > 7:
        raise InputError(f"wedge of degrees {f.k} and {form.k} exceeds 7")
    M = tables.wedge_const_matrix(7, f.k, form.k, coeffs)
    vals = f.values @ M.T
    if left and (f.k * form.k) % 2:
        vals = -vals
    return FormField(f.grid, f.k + form.k, vals)


def scalar_times(w: np.ndarray, f: FormField) -> FormField:
    """Pointwise scalar field times form field."""
    return FormField(f.grid, f.k, w[:, None] * f.values)


def integrate(f: FormField) -> float:
    if f.k != 7:
        raise InputError("integrate expects a top-degree form")
    return float(np.mean(f.values[:, 0]))


def field_inner(f: FormField, g: FormField) -> float:
    """L2 pairing <f, g> = integral of the pointwise blade inner product."""
    f._compat(g)
    return float(np.mean(np.sum(f.values * g.values, axis=1)))


def field_l2(f: FormField) -> float:
    return math.sqrt(max(field_inner(f, f), 0.0))


def field_mean(f: FormField) -> np.ndarray:
    """Blade-wise mean over the grid."""
    return np.mean(f.values, axis=0)


# --- flux and potentials -----------------------------------------------------


@dataclass(frozen=True)
class Flux:
    """Quantized background flux: antisymmetric integer matrix n_ij.

    The background curvature contribution is 2*pi * sum_{i<j} n_ij dx^i^dx^j.
    """

    upper: tuple

    def __post_init__(self):
        u = tuple(int(x) for x in self.upper)
        if len(u) != 21:
            raise InputError("flux needs 21 integers (upper triangle, row-major)")
        object.__setattr__(self, "upper", u)

    @staticmethod
    def from_entries(entries: dict) -> "Flux":
        """{(i, j): n_ij} with 1 <= i < j <= 7."""
        pos = {b: i for i, b in enumerate(blades(7, 2))}
        u = [0] * 21
        for key, v in entries.items():
            key = tuple(key)
            if key not in pos:
                raise InputError(f"{key} is not an index pair with i < j")
            u[pos[key]] = int(v)
        return Flux(tuple(u))

    @staticmethod
    def zero() -> "Flux":
        return Flux((0,) * 21)

    def matrix(self) -> np.ndarray:
        m = np.zeros((7, 7), dtype=np.int64)
        for (i, j), v in zip(blades(7, 2), self.upper):
            m[i - 1, j - 1] = v
            m[j - 1, i - 1] = -v
        return m

    def form(self, ring=RATIONAL) -> KForm:
        """The integer 2-form (without the 2*pi)."""
        return KForm.from_coeffs(7, 2, list(self.upper), ring)

    def background(self, grid: TorusGrid) -> FormField:
        """Constant curvature field 2*pi*n."""
        coeffs = 2.0 * math.pi * np.array(self.upper, dtype=np.float64)
        return FormField(grid, 2, np.tile(coeffs, (grid.npts, 1)))


@dataclass(frozen=True)
class GaugePotential:
    """Real 1-form potential a over a quantized flux background."""

    a: FormField
    flux: Flux

    def __post_init__(self):
        if self.a.k != 1:
            raise InputError("potential must be a 1-form field")

    @property
    def grid(self) -> TorusGrid:
        return self.a.grid


def zero_potential(grid: TorusGrid, flux: Flux) -> GaugePotential:
    return GaugePotential(FormField.zero(grid, 1), flux)


def curvature(pot: GaugePotential) -> FormField:
    """E = 2*pi*flux + d a; closed, mean equal to the background."""
    return pot.flux.background(pot.grid) + d(pot.a)


# --- the field formulas, one home each (see ``ddt``); E2 is E ^ E ----------


def _residual(E: FormField, E2: FormField, s: float = 1.0) -> FormField:
    """s^4 E^3/6 - E ^ *phi from E and E2 = E ^ E."""
    return (float(s) ** 4 / 6.0) * wedge_field(E2, E) - wedge_const(E, _STAR_PHI)


def _residual_weight(E2: FormField, s: float = 1.0) -> FormField:
    """W = s^4 E^2/2 - *phi, the derivative of the residual: dR(b) = b ^ W."""
    return (float(s) ** 4 / 2.0) * E2 - FormField.constant(E2.grid, _STAR_PHI)


def _theta(E2: FormField) -> np.ndarray:
    """theta = 1 - (1/2) * (phi ^ E2) per grid point."""
    return 1.0 - 0.5 * hodge_field(wedge_const(E2, _PHI, left=True)).values[:, 0]


def _correction(E: FormField, E2: FormField) -> FormField:
    """The 6-form (phi ^ *E2) ^ *E, unscaled."""
    z = hodge_field(wedge_const(hodge_field(E2), _PHI, left=True))
    return wedge_field(z, hodge_field(E))


def curvature_residual(E: FormField, s: float = 1.0) -> FormField:
    """The 6-form s^4 E^3/6 - E^*phi, pointwise over the grid."""
    return _residual(E, wedge_field(E, E), s)


def residual_field(pot: GaugePotential, s: float = 1.0):
    """Scaled residual field s^4 E^3/6 - E^*phi and its L2 norm."""
    res = curvature_residual(curvature(pot), s)
    return res, field_l2(res)


# --- functionals -------------------------------------------------------------


def kl_oneform(pot: GaugePotential, b: FormField) -> float:
    """The first-variation pairing: integral of b ^ (E^3/6 - E^*phi)."""
    if b.k != 1:
        raise InputError("direction must be a 1-form field")
    E = curvature(pot)
    return integrate(wedge_field(b, curvature_residual(E)))


def kl_segment(base: GaugePotential, delta: FormField) -> float:
    """Integral of the one-form along the straight segment a -> a + delta."""
    if delta.k != 1:
        raise InputError("segment direction must be a 1-form field")
    return kl_segment_integral(curvature(base), d(delta), delta)


def kl_segment_integral(E0: FormField, D: FormField,
                        delta: FormField) -> float:
    """The segment integral from the start curvature E0 and D = d(delta).

    The integrand is cubic in the path parameter, so the t-integral is done
    in closed form from the four coefficient fields.
    """
    E0sq = wedge_field(E0, E0)
    DD = wedge_field(D, D)
    r0 = _residual(E0, E0sq)
    r1 = wedge_field(D, _residual_weight(E0sq))
    r2 = 0.5 * wedge_field(E0, DD)
    r3 = (1.0 / 6.0) * wedge_field(DD, D)
    avg = r0 + 0.5 * r1 + (1.0 / 3.0) * r2 + 0.25 * r3
    return integrate(wedge_field(delta, avg))


def kl_functional(pot: GaugePotential) -> float:
    """Potential of the one-form, normalized to 0 at a = 0."""
    return kl_segment_integral(pot.flux.background(pot.grid), d(pot.a), pot.a)


def theta3(pot: GaugePotential, b1: FormField, b2: FormField, b3: FormField) -> float:
    """Integral of b1^b2^b3^(*phi - E^2/2), antisymmetrized exactly.

    The six permutation integrals are combined with math.fsum, so swapping
    arguments negates the result bitwise and repeated arguments give 0.0.
    """
    E = curvature(pot)
    W = _residual_weight(wedge_field(E, E))  # minus the four-form: negate terms
    args = (b1, b2, b3)
    terms = []
    for (p, q, r), sgn in (((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
                           ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1)):
        val = integrate(wedge_field(
            wedge_field(wedge_field(args[p], args[q]), args[r]), W))
        terms.append(-sgn * val)
    return math.fsum(terms) / 6.0


def dtheta4(pot: GaugePotential, b1: FormField, b2: FormField,
            b3: FormField, b4: FormField) -> float:
    """Alternating four-term sum of directional derivatives of theta3.

    Each term is the analytic derivative -integral(b_j^b_k^b_l^db_i^E);
    the total must vanish (the 3-form is closed).
    """
    E = curvature(pot)
    bs = (b1, b2, b3, b4)
    terms = []
    for i in range(4):
        rest = [bs[j] for j in range(4) if j != i]
        triple = wedge_field(wedge_field(rest[0], rest[1]), rest[2])
        deriv = -integrate(wedge_field(triple, wedge_field(d(bs[i]), E)))
        terms.append(deriv if i % 2 == 0 else -deriv)
    return math.fsum(terms)


def _moment_pair_oneform(g1: FormField, g2: FormField) -> FormField:
    """(g1 dg2 - g2 dg1)/2 as a 1-form field."""
    dg2 = d(g2)
    dg1 = d(g1)
    vals = 0.5 * (g1.values[:, :1] * dg2.values - g2.values[:, :1] * dg1.values)
    return FormField(g1.grid, 1, vals)


def nu(pot: GaugePotential, g1: FormField, g2: FormField) -> float:
    """Multi-moment pairing: -integral of R(E) ^ (g1 dg2 - g2 dg1)/2."""
    if g1.k != 0 or g2.k != 0:
        raise InputError("moment arguments must be scalar fields")
    R = curvature_residual(curvature(pot))
    return -integrate(wedge_field(R, _moment_pair_oneform(g1, g2)))


def nu_derivative_check(pot: GaugePotential, g1: FormField, g2: FormField,
                        b: FormField):
    """(analytic derivative of nu along b, theta3(dg1, dg2, b)).

    The derivative uses the exact linearization of the residual,
    dR(b) = db ^ (E^2/2 - *phi).  The two numbers agree for any input; the
    equality is the defining property of the multi-moment map.
    """
    E = curvature(pot)
    dR = wedge_field(d(b), _residual_weight(wedge_field(E, E)))
    lhs = -integrate(wedge_field(dR, _moment_pair_oneform(g1, g2)))
    rhs = theta3(pot, d(g1), d(g2), b)
    return lhs, rhs


def gauge_shift(pot: GaugePotential, chi: FormField | None = None,
                m=(0, 0, 0, 0, 0, 0, 0)) -> GaugePotential:
    """a -> a + d(chi) + 2*pi*sum m_i dx^i (small plus winding gauges)."""
    a = pot.a
    if chi is not None:
        if chi.k != 0:
            raise InputError("gauge function must be a scalar field")
        a = a + d(chi)
    m = tuple(int(x) for x in m)
    if len(m) != 7:
        raise InputError("winding vector needs 7 integers")
    if any(m):
        const = KForm.from_coeffs(7, 1, [2.0 * math.pi * x for x in m], FLOAT)
        a = a + FormField.constant(pot.grid, const)
    return GaugePotential(a, pot.flux)


# --- randomized band-limited fields ------------------------------------------


@lru_cache(maxsize=None)
def _low_modes(axes: tuple, kmax: int) -> tuple:
    """Nonzero integer modes supported on the active axes, |k|_inf <= kmax,
    one representative per {k, -k} pair, lexicographic order."""
    out = []
    for mode in np.ndindex(*(2 * kmax + 1,) * len(axes)):
        k = tuple(m - kmax for m in mode)
        if all(v == 0 for v in k):
            continue
        if k < tuple(-v for v in k):
            continue
        out.append(k)
    return tuple(out)


def random_field(grid: TorusGrid, k: int, rng: np.random.Generator,
                 scale: float = 1.0, kmax: int = 1) -> FormField:
    """Random band-limited real field: every coefficient is a trigonometric
    polynomial over the nonzero modes with |k|_inf <= kmax.

    Band-limiting keeps products of a few such fields alias-free on the
    grid, which the moment-map and closedness checks rely on.
    """
    modes = _low_modes(grid.active_axes, kmax)
    coords = grid.coordinates()
    xs = np.stack([coords[a] for a in grid.active_axes], axis=0)
    dim = len(blades(7, k))
    vals = np.zeros((grid.npts, dim))
    norm = scale / math.sqrt(max(len(modes), 1))
    for mode in modes:
        phase = 2.0 * math.pi * np.tensordot(np.array(mode, dtype=float), xs, axes=1)
        c = np.cos(phase)
        s = np.sin(phase)
        amp_c = rng.normal(0.0, norm, size=dim)
        amp_s = rng.normal(0.0, norm, size=dim)
        vals += c[:, None] * amp_c[None, :] + s[:, None] * amp_s[None, :]
    return FormField(grid, k, vals)


def random_potential(grid: TorusGrid, flux: Flux, rng: np.random.Generator,
                     scale: float = 1.0, kmax: int = 1) -> GaugePotential:
    return GaugePotential(random_field(grid, 1, rng, scale, kmax), flux)


def coclosed_project(a: FormField) -> FormField:
    """Project a 1-form field onto mean-zero coclosed fields (mode-wise
    removal of the span{k} component; the zero mode is dropped entirely)."""
    if a.k != 1:
        raise InputError("projection expects a 1-form field")
    grid = a.grid
    na = grid.n_active
    spec = _fft_grid(a)
    kline = grid.wavenumbers()
    kgrids = np.meshgrid(*([kline] * na), indexing="ij")
    kvec = np.zeros(grid.shape + (7,))
    for i, axis in enumerate(grid.active_axes):
        kvec[..., axis - 1] = kgrids[i]
    k2 = np.sum(kvec * kvec, axis=-1)
    dot = np.sum(kvec * spec, axis=-1)
    safe = np.where(k2 > 0, k2, 1.0)
    spec = spec - (dot / safe)[..., None] * kvec
    spec[(0,) * na] = 0.0
    vals = np.fft.ifftn(spec, axes=tuple(range(na))).real
    return FormField(grid, 1, vals.reshape(a.values.shape))


def random_coclosed_potential(grid: TorusGrid, flux: Flux,
                              rng: np.random.Generator, scale: float = 1.0,
                              kmax: int = 1) -> GaugePotential:
    a = coclosed_project(random_field(grid, 1, rng, scale, kmax))
    return GaugePotential(a, flux)


# --- file formats ------------------------------------------------------------


def save_field(path, f: FormField) -> None:
    """Binary snapshot: magic, active axes, N, degree, little-endian doubles."""
    axes = list(f.grid.active_axes) + [0] * (7 - f.grid.n_active)
    header = struct.pack("<8sB7BIB", _SNAPSHOT_MAGIC, f.grid.n_active,
                         *axes, f.grid.N, f.k)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def load_field(path) -> FormField:
    with open(path, "rb") as fh:
        raw = fh.read()
    head = struct.calcsize("<8sB7BIB")
    if len(raw) < head:
        raise InputError(f"{path}: truncated snapshot")
    magic, n_active, *rest = struct.unpack("<8sB7BIB", raw[:head])
    if magic != _SNAPSHOT_MAGIC:
        raise InputError(f"{path}: not a field snapshot")
    axes = tuple(x for x in rest[:7] if x != 0)
    N, degree = rest[7], rest[8]
    if len(axes) != n_active:
        raise InputError(f"{path}: corrupt axis header")
    grid = TorusGrid(axes, N)
    dim = len(blades(7, degree))
    if len(raw) - head != 8 * grid.npts * dim:
        raise InputError(f"{path}: payload size mismatch")
    data = np.frombuffer(raw[head:], dtype="<f8")
    return FormField(grid, degree, data.reshape(grid.npts, dim).copy())


def save_flux(path, flux: Flux) -> None:
    with open(path, "w") as fh:
        fh.write(" ".join(str(x) for x in flux.upper) + "\n")


def load_flux(path) -> Flux:
    try:
        with open(path) as fh:
            parts = fh.read().split()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: flux file is not text: {e}") from None
    if len(parts) != 21:
        raise InputError(f"{path}: flux file needs exactly 21 integers")
    try:
        vals = [int(p) for p in parts]
    except ValueError as e:
        raise InputError(f"{path}: {e}") from None
    return Flux(tuple(vals))
