"""Discretized differential forms on the flat 7-torus.

Fields live on a uniform periodic grid over a chosen subset of the seven
coordinates (inactive coordinates mean the field is constant along them).
Exterior derivative and codifferential are spectral: exact for band-limited
fields, with the Nyquist mode zeroed in derivatives so d stays real and
antisymmetric.  Each partial derivative is a dense spectral differentiation
matrix along one axis (a real FFT along it on long axes).  Coordinates have
period 1; quantized line-bundle flux carries the 2*pi, so flux files hold
literal integers.

Fields are stored coefficient-major: ``FormField.coeffs`` is a
C-contiguous float64 (n_blades, npts) array, one row per blade, the flat
grid index in C order over the active axes.  In that layout the wedge
kernel gathers whole rows, the Hodge star is a signed row gather, a wedge
with a constant form and the d and codiff combines are left matmuls, and
each partial derivative works on a (dim * N^i, N, N^j) view of the rows.
``FormField.values`` is the read-only point-major (npts, n_blades) view of
the same numbers: the constructor takes that shape, and snapshots store it.

Fourier work on whole fields has one mode table, ``_spectral_k`` (the wave
vector of each real-FFT mode, Nyquist zeroed), and one round trip,
``_apply_modes`` (real FFT over the trailing grid axes, a per-mode map,
inverse), which ``coclosed_project`` and ``flow``'s preconditioner use;
``random_field`` is one complex spectrum and one inverse FFT.

Conventions (the global sign ledger lives in ``ddt``):

* Lie-algebra valued objects sqrt(-1)*g are stored as the real g.
* The L2 inner product of fields is the grid mean of the pointwise blade
  inner product, i.e. integration against the unit-volume torus.
* All reductions run in C order over the grid, so equal inputs give
  bit-equal outputs.

Finiteness is checked where values enter and where they leave, not on
every temporary.  The public ``FormField`` constructor validates degree,
shape, dtype and finiteness, and every entry point builds through it
(``load_field``, ``random_field``, ``coclosed_project``, ``FormField.zero``
and ``constant``).  Op results (``d``, ``codiff``, wedges, ``hodge_field``,
``+ - *``) take the unchecked ``FormField._of``: the tables fix their shape
and dtype.  Each public functional checks the float it returns and raises
``NonFiniteError``; the solvers in ``flow`` check each step, iterate and
diagnostic, and ``save_field`` refuses a non-finite field.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import ddt, tables
from .errors import InputError, NonFiniteError, NumericalError, check_count
from .exalg import KForm, blades, cube, wedge
from .kernels import hodge_fields, wedge_fields
from .scalars import FLOAT, RATIONAL

__all__ = [
    "TorusGrid", "FormField", "Flux", "GaugePotential",
    "d", "codiff", "integrate", "field_inner", "field_l2",
    "wedge_field", "cube_field", "interior_field", "wedge_const", "hodge_field",
    "curvature", "residual_field",
    "kl_oneform", "kl_functional", "kl_segment", "kl_segment_integral",
    "theta3", "dtheta4", "nu", "nu_derivative_check", "gauge_shift",
    "random_field", "random_potential", "random_coclosed_potential",
    "save_field", "load_field", "save_flux", "load_flux",
]

_SNAPSHOT_MAGIC = b"T7FIELD1"


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
        check_count("N", self.N, 2)
        if self.N & (self.N - 1):
            raise InputError(f"N must be a power of two, got {self.N}")
        object.__setattr__(self, "active_axes", axes)

    # cached per instance; not fields, so equality and hashing ignore them
    @cached_property
    def n_active(self) -> int:
        return len(self.active_axes)

    @cached_property
    def shape(self) -> tuple:
        return (self.N,) * self.n_active

    @cached_property
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


@dataclass(frozen=True, eq=False, init=False)
class FormField:
    """Degree-k form sampled on a grid, stored coefficient-major.

    ``coeffs`` is a C-contiguous float64 (n_blades, npts) array, one row
    per blade: the layout every op and kernel works in.  ``values`` is the
    point-major (npts, n_blades) view of the same numbers, read-only; the
    constructor takes that shape, snapshots are written in it, and
    ``values[p]`` is the form at grid point p.

    Reads as a float KForm on R^7 (``n``, ``ring``, ``coeffs``), so the
    formulas of ``ddt`` run on it.

    ``FormField(grid, k, values)`` is the input path: it checks the degree
    and shape of the point-major values, refuses inf and NaN
    (``NonFiniteError``) and stores a coefficient-major float64 copy.  Op
    results come from ``_of``, which checks nothing; a non-finite value
    among them is caught where it leaves a functional or a solver step (see
    the module docstring)."""

    n = 7
    ring = FLOAT

    grid: TorusGrid
    k: int
    coeffs: np.ndarray

    def __init__(self, grid: TorusGrid, k: int, values):
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", values)
        self.__post_init__()

    def __post_init__(self):
        """The input checks.  ``coeffs`` holds the caller's point-major
        values until they pass, and their coefficient-major copy after."""
        if not isinstance(self.k, (int, np.integer)) or not 0 <= self.k <= 7:
            raise InputError(f"form degree must be in 0..7, got {self.k!r}")
        dim = len(blades(7, self.k))
        v = np.asarray(self.coeffs, dtype=np.float64)
        if v.shape != (self.grid.npts, dim):
            raise InputError(
                f"degree-{self.k} field on this grid needs shape "
                f"({self.grid.npts}, {dim}), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field contains non-finite values")
        object.__setattr__(self, "coeffs", np.ascontiguousarray(v.T))

    @staticmethod
    def _of(grid: TorusGrid, k: int, coeffs: np.ndarray) -> "FormField":
        """An op result, unchecked: coeffs is already a C-contiguous float64
        (C(7, k), npts) array, fixed by the op's tables."""
        f = object.__new__(FormField)
        f.__dict__.update(grid=grid, k=k, coeffs=coeffs)
        return f

    @staticmethod
    def zero(grid: TorusGrid, k: int) -> "FormField":
        return FormField(grid, k, np.zeros((grid.npts, len(blades(7, k)))))

    @staticmethod
    def constant(grid: TorusGrid, form: KForm) -> "FormField":
        coeffs = np.array([float(c) for c in form.coeffs])
        return FormField(grid, form.k, np.tile(coeffs, (grid.npts, 1)))

    @property
    def values(self) -> np.ndarray:
        """Point-major read-only view of the coefficients, (npts, n_blades)."""
        v = self.coeffs.T
        v.flags.writeable = False
        return v

    def pointwise(self, p: int) -> KForm:
        """The KForm at flat grid index p (for cross-checks)."""
        return KForm.from_coeffs(7, self.k, self.coeffs[:, p].tolist(), FLOAT)

    def _term(self, other) -> np.ndarray:
        """Coefficients of a field, or the coefficient column of a constant
        KForm (it broadcasts over the grid), of this degree."""
        if isinstance(other, KForm):
            if other.n != 7 or other.k != self.k:
                raise InputError("constant form has a different degree")
            return _column(other)
        self._compat(other)
        return other.coeffs

    def __add__(self, other) -> "FormField":
        return FormField._of(self.grid, self.k, self.coeffs + self._term(other))

    def __sub__(self, other) -> "FormField":
        return FormField._of(self.grid, self.k, self.coeffs - self._term(other))

    def __mul__(self, s) -> "FormField":
        """Times a number, or pointwise times an (npts,) array."""
        if getattr(s, "ndim", 0):
            return FormField._of(self.grid, self.k, self.coeffs * s)
        return FormField._of(self.grid, self.k, self.coeffs * float(s))

    __rmul__ = __mul__

    def __neg__(self) -> "FormField":
        return FormField._of(self.grid, self.k, -self.coeffs)

    def _compat(self, other: "FormField"):
        if not _same_grid(self, other) or self.k != other.k:
            raise InputError("fields live on different grids or degrees")


def _column(form: KForm) -> np.ndarray:
    """The float64 coefficient column (dim, 1) of a constant form, which
    broadcasts over a field's (dim, npts) coefficients."""
    return np.array([float(c) for c in form.coeffs])[:, None]


def _same_grid(f: FormField, g: FormField) -> bool:
    """Whether two fields live on one grid; an op's operands usually share
    the grid object, which is tested before the field-wise equality."""
    return f.grid is g.grid or f.grid == g.grid


@lru_cache(maxsize=8)
def _spectral_k(grid: TorusGrid) -> np.ndarray:
    """The integer frequency k of each real-FFT mode, (nspec, 7) int64.

    Zero on inactive axes and at the Nyquist frequency.  The real FFT
    halves the last active axis, whose frequencies are 0..N/2.  A table
    takes 9 MiB at 262,144 points, so the cache keeps only recent grids.
    """
    kline = grid.wavenumbers()
    lines = [kline] * (grid.n_active - 1) + [kline[:grid.N // 2 + 1]]
    ks = np.meshgrid(*lines, indexing="ij")
    out = np.zeros(ks[0].shape + (7,), dtype=np.int64)
    for k, axis in zip(ks, grid.active_axes):
        out[..., axis - 1] = k
    return tables.read_only(out.reshape(-1, 7))


def _apply_modes(f: FormField, per_mode) -> FormField:
    """The field whose real-FFT mode table is ``per_mode(spec)``, spec being
    f's (dim, nspec) complex table, modes in ``_spectral_k`` order, which
    per_mode may overwrite: the package's one real-FFT round trip, over the
    trailing grid axes of the (dim,) + grid.shape view of the coefficients."""
    grid = f.grid
    axes = tuple(range(1, grid.n_active + 1))
    spec = np.fft.rfftn(f.coeffs.reshape((-1,) + grid.shape), axes=axes)
    out = per_mode(spec.reshape(spec.shape[0], -1)).reshape(spec.shape)
    vals = np.fft.irfftn(out, s=grid.shape, axes=axes)
    return FormField._of(grid, f.k, np.ascontiguousarray(vals.reshape(f.coeffs.shape)))


# Above this many points per axis, d and codiff take each partial derivative
# by a real FFT along the axis instead of the dense matrix.  Measured on a
# 2-CPU Xeon with single-threaded OpenBLAS, the dense d wins on every grid up
# to N = 128, but at N = 256 on two axes a 1-form's d takes 35 ms against
# 20 ms and at N = 512 on one axis the FFT is 3x faster; and a 1-axis grid of
# N = 2^18, which the CLI admits, would need a 512 GiB matrix.
_DENSE_MAX_N = 128


@lru_cache(maxsize=None)
def _derivative_matrix(N: int) -> np.ndarray:
    """The spectral derivative on N periodic points of period 1, Nyquist
    zeroed: the circulant D[j, l] = pi (-1)^(j-l) cot(pi (j-l) / N), zero on
    the diagonal (Trefethen, Spectral Methods in MATLAB, ch. 3).  Built
    exactly antisymmetric, so D @ constant is 0."""
    m = np.arange(1, N // 2)
    half = math.pi * (-1.0) ** m / np.tan(math.pi * m / N)
    col = np.concatenate(([0.0], half, [0.0], -half[::-1]))
    return tables.read_only(col[np.subtract.outer(np.arange(N), np.arange(N)) % N])


def _axis_partial(cube: np.ndarray, grid: TorusGrid, out: np.ndarray) -> None:
    """d/dx along the middle axis of an (A, N, B) view of grid values, into
    the same-shaped view out.  Up to ``_DENSE_MAX_N`` it is the cached
    derivative matrix D: a batch of D @ (N, B) products, or, when the axis
    is the contiguous last one (B = 1), one (A, N) @ D.T product, since a
    batch of matrix-vector products is several times slower there.  Above
    it, one real FFT along the axis."""
    N = grid.N
    if N <= _DENSE_MAX_N:
        D = _derivative_matrix(N)
        if cube.shape[2] == 1:
            np.matmul(cube.reshape(-1, N), D.T, out=out.reshape(-1, N))
        else:
            np.matmul(D, cube, out=out)
        return
    spec = np.fft.rfft(cube, axis=1)
    spec *= (2j * math.pi) * grid.wavenumbers()[:N // 2 + 1, None]
    out[...] = np.fft.irfft(spec, n=N, axis=1)


def _partials(f: FormField) -> np.ndarray:
    """d/dx of f along each active axis i, from the (dim * N**i, N, -1) view
    of the coefficients, stacked as (n_active * dim, npts).  Each partial is
    written into its block of the stack."""
    grid = f.grid
    N, na = grid.N, grid.n_active
    dim = f.coeffs.shape[0]
    out = np.empty((na, dim, grid.npts))
    for i in range(na):
        shape = (dim * N ** i, N, -1)
        _axis_partial(f.coeffs.reshape(shape), grid, out[i].reshape(shape))
    return out.reshape(na * dim, grid.npts)


@lru_cache(maxsize=None)
def _d_combine(axes: tuple, k: int) -> np.ndarray:
    """The signed (n_active * dim_k, dim_{k+1}) matrix taking the stacked
    partials of a k-form to its d: block i is the transpose of
    dx^axes[i] ^ (.), a slice of the 1^k wedge tensor."""
    C = tables.wedge_tensor(7, 1, k)[np.subtract(axes, 1)].transpose(0, 2, 1)
    C = np.ascontiguousarray(C, dtype=np.float64)
    return tables.read_only(C.reshape(-1, C.shape[2]))


@lru_cache(maxsize=None)
def _codiff_combine(axes: tuple, k: int) -> np.ndarray:
    """``_d_combine`` for the codifferential -sum_i i(e_i) d/dx_i, which is
    (-1)^k * d * on R^7: the interior product i(e_i) on k-forms is the
    transpose of e_i ^ (.) on (k-1)-forms, so block i is minus a slice of
    the 1^(k-1) wedge tensor."""
    C = -tables.wedge_tensor(7, 1, k - 1)[np.subtract(axes, 1)]
    return tables.read_only(C.reshape(-1, C.shape[2]).astype(np.float64))


def d(f: FormField) -> FormField:
    """Spectral exterior derivative: the stacked per-axis partials times the
    signed combine matrix of the 1^k wedge table, one real matmul.  The
    partials use dense derivative matrices up to ``_DENSE_MAX_N`` points per
    axis and real FFTs above it, where the matrix is slower or too big."""
    if f.k >= 7:
        raise InputError("d of a top-degree form")
    vals = _d_combine(f.grid.active_axes, f.k).T @ _partials(f)
    return FormField._of(f.grid, f.k + 1, vals)


def hodge_field(f: FormField) -> FormField:
    vals = hodge_fields(f.coeffs, *tables.hodge_gather(7, f.k))
    return FormField._of(f.grid, 7 - f.k, vals)


def codiff(f: FormField) -> FormField:
    """Codifferential, the (-1)^k * d * convention on R^7: the same partials
    as ``d``, combined by minus the interior products."""
    if f.k == 0:
        raise InputError("codiff of a scalar")
    vals = _codiff_combine(f.grid.active_axes, f.k).T @ _partials(f)
    return FormField._of(f.grid, f.k - 1, vals)


def wedge_field(f: FormField, g: FormField) -> FormField:
    """f ^ g.  A 2-form field wedged with itself (the same object) takes
    the power table, 3 products per output instead of 6."""
    if not _same_grid(f, g):
        raise InputError("fields live on different grids")
    if f.k + g.k > 7:
        raise InputError(f"wedge of degrees {f.k} and {g.k} exceeds 7")
    if f is g and f.k == 2:
        table = tables.power_arrays(7, 2)
    else:
        table = tables.wedge_arrays(7, f.k, g.k)
    return _wedge_by(f, g, table, f.k + g.k)


def cube_field(E: FormField, E2: FormField) -> FormField:
    """E^3 from a 2-form field E and its square E2 = E ^ E, through the
    power table: 5 products per output instead of 15."""
    if not _same_grid(E, E2):
        raise InputError("fields live on different grids")
    if E.k != 2 or E2.k != 4:
        raise InputError(f"cube takes a 2-form and its square, got degrees {E.k} and {E2.k}")
    return _wedge_by(E, E2, tables.power_arrays(7, 3), 6)


def interior_field(b: FormField, a: FormField) -> FormField:
    """i(b#) a for a 1-form field b and a 2-form field a: the blocked wedge
    kernel over ``tables.interior_arrays``, 6 products per output."""
    if not _same_grid(b, a):
        raise InputError("fields live on different grids")
    if b.k != 1 or a.k != 2:
        raise InputError(f"interior product takes a 1-form and a 2-form, "
                         f"got degrees {b.k} and {a.k}")
    return _wedge_by(b, a, tables.interior_arrays(), 1)


def _wedge_by(f: FormField, g: FormField, table, k: int) -> FormField:
    """The degree-k field of ``wedge_fields`` over a grouped table."""
    return FormField._of(f.grid, k, wedge_fields(f.coeffs, g.coeffs, table[0], table[1],
                                                 table.signs, len(table.signs)))


def wedge_const(f: FormField, form: KForm, left: bool = False) -> FormField:
    """f ^ c for a constant form c (or c ^ f when left=True), as one left
    matmul M @ coeffs.

    A FLOAT form's coefficient tuple, already floats, is the matrix cache
    key as it stands; other rings are converted to floats first."""
    coeffs = form.coeffs if form.ring is FLOAT else tuple(float(c) for c in form.coeffs)
    if f.k + form.k > 7:
        raise InputError(f"wedge of degrees {f.k} and {form.k} exceeds 7")
    M = tables.wedge_const_matrix(7, f.k, form.k, coeffs)
    vals = M @ f.coeffs
    if left and (f.k * form.k) % 2:
        vals = -vals
    return FormField._of(f.grid, f.k + form.k, vals)


def integrate(f: FormField) -> float:
    if f.k != 7:
        raise InputError("integrate expects a top-degree form")
    return float(np.mean(f.coeffs[0]))


def field_inner(f: FormField, g: FormField) -> float:
    """L2 pairing <f, g> = integral of the pointwise blade inner product."""
    f._compat(g)
    return float(np.mean(np.sum(f.coeffs * g.coeffs, axis=0)))


def field_l2(f: FormField) -> float:
    return math.sqrt(max(field_inner(f, f), 0.0))


def field_mean(f: FormField) -> np.ndarray:
    """Blade-wise mean over the grid."""
    return np.mean(f.coeffs, axis=1)


# --- flux and potentials -----------------------------------------------------


# The largest |n_ij| a flux may hold: float64 holds every integer up to 2^53
# exactly, and 2*pi*n stays finite.
_FLUX_MAX = 2 ** 53


@dataclass(frozen=True)
class Flux:
    """Quantized background flux: antisymmetric integer matrix n_ij.

    The background curvature contribution is 2*pi * sum_{i<j} n_ij dx^i^dx^j.
    Entries are bounded by 2^53 in absolute value, so float64 holds each.

    The background's constants, which every flow step and functional
    reads, are derived once per Flux object, as cached properties (like
    ``TorusGrid.npts``; equality and hashing ignore them): its coefficient
    row, its float form B, 2B, the column of B ^ B, and the KL segment's
    ``_kl_constants`` at B.  Each is at most 35 numbers, never field data,
    and each array is read-only.
    """

    upper: tuple

    def __post_init__(self):
        u = tuple(int(x) for x in self.upper)
        if len(u) != 21:
            raise InputError("flux needs 21 integers (upper triangle, row-major)")
        if any(abs(x) > _FLUX_MAX for x in u):
            raise InputError("flux entries must lie in [-2**53, 2**53]")
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

    def form(self) -> KForm:
        """The integer 2-form (without the 2*pi), exact over RATIONAL."""
        return KForm.from_coeffs(7, 2, list(self.upper), RATIONAL)

    @cached_property
    def _background_row(self) -> np.ndarray:
        """The 21 coefficients 2*pi*n of the background curvature, read-only."""
        return tables.read_only(2.0 * math.pi * np.array(self.upper, dtype=np.float64))

    @cached_property
    def _background(self) -> KForm:
        return KForm(7, 2, tuple(self._background_row.tolist()), FLOAT)

    def background_form(self) -> KForm:
        """The background curvature 2*pi*n as a constant float KForm; a
        field operand takes it through ``exalg.wedge`` or ``+``."""
        return self._background

    @cached_property
    def _twice_background(self) -> KForm:
        return self._background * 2.0

    @cached_property
    def _background_sq(self) -> np.ndarray:
        """The (35, 1) coefficient column of B ^ B."""
        return tables.read_only(_column(wedge(self._background, self._background)))

    @cached_property
    def _kl_constants(self) -> tuple:
        """``_kl_constants`` at the constant start curvature B."""
        B = self._background
        r0, w0 = _kl_constants(B, wedge(B, B))
        return tables.read_only(r0), w0


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
    return FormField._of(pot.grid, 2,
                         pot.flux._background_row[:, None] + d(pot.a).coeffs)


def _finite_value(x: float, what: str) -> float:
    """x, or NonFiniteError when it is inf or NaN: the check on a float
    leaving a functional or a solver."""
    if not math.isfinite(x):
        raise NonFiniteError(f"{what} is not finite")
    return x


def _finite_field(f: FormField, what: str) -> FormField:
    """f, or NonFiniteError when it holds inf or NaN: the check on a field
    leaving a solver."""
    if not np.isfinite(f.coeffs).all():
        raise NonFiniteError(f"{what} contains non-finite values")
    return f


def residual_field(pot: GaugePotential, s: float = 1.0):
    """Scaled residual field s^4 E^3/6 - E^*phi and its L2 norm.  A finite
    norm means every value of the field is finite."""
    res = ddt.scaled_residual(curvature(pot), s)
    return res, _finite_value(field_l2(res), "residual norm")


# --- functionals -------------------------------------------------------------

_SIXTH = 1.0 / 6.0  # the cube coefficient of the unscaled residual


def kl_oneform(pot: GaugePotential, b: FormField) -> float:
    """The first-variation pairing: integral of b ^ (E^3/6 - E^*phi)."""
    if b.k != 1:
        raise InputError("direction must be a 1-form field")
    return _finite_value(integrate(wedge_field(b, ddt.ddt_residual(curvature(pot)))),
                         "kl_oneform")


def kl_segment(base: GaugePotential, delta: FormField) -> float:
    """Integral of the one-form along the straight segment a -> a + delta."""
    if delta.k != 1:
        raise InputError("segment direction must be a 1-form field")
    return _finite_value(kl_segment_integral(curvature(base), d(delta), delta),
                         "kl_segment")


def kl_segment_integral(E0: FormField | KForm, D: FormField,
                        delta: FormField) -> float:
    """The segment integral from the start curvature E0 and D = d(delta).

    The integrand is cubic in the path parameter, so the t-integral is done
    in closed form from the four coefficient fields.  E0 is a field, or a
    constant float KForm such as ``Flux.background_form()``: ``exalg.wedge``
    sends a field ^ KForm product to ``wedge_const`` and a KForm ^ KForm
    product to the exact-table wedge, so for a constant E0 the forms E0^E0,
    r0 and the weight are constants and r1, r2 are one matmul each.
    """
    return _kl_segment(E0, _kl_constants(E0, wedge(E0, E0)), D, wedge_field(D, D),
                       delta)


def _kl_constants(E0, E0sq: FormField | KForm) -> tuple:
    """(r0, w0) at E0, from E0sq = E0 ^ E0: the coefficients of the
    residual r0 (a field's, or a constant's column) and the residual weight
    w0 = E0^2/2 - *phi.  The cube E0^3 in r0 is formed from its square by
    ``exalg.cube``.  For the flux background they are
    ``Flux._kl_constants``."""
    r0 = ddt._residual(E0, E0sq, _SIXTH)
    r0 = _column(r0) if r0.__class__ is KForm else r0.coeffs
    return r0, ddt._residual_weight(E0sq, _SIXTH)


def _kl_segment(E0, constants: tuple, D: FormField, DD: FormField,
                delta: FormField) -> float:
    """``kl_segment_integral`` from E0's ``_kl_constants`` and DD = D ^ D,
    which ``flow``'s diagnostics share with the square of E0 + D.  The cube
    D^3 in r3 is formed from DD by ``cube_field``."""
    r0, w0 = constants
    r1 = wedge(D, w0)
    r2 = 0.5 * wedge(E0, DD)
    r3 = (1.0 / 6.0) * cube(D, DD)
    avg = 0.5 * r1.coeffs + r0 + (1.0 / 3.0) * r2.coeffs + 0.25 * r3.coeffs
    return integrate(wedge_field(delta, FormField._of(D.grid, 6, avg)))


def kl_functional(pot: GaugePotential) -> float:
    """Potential of the one-form, normalized to 0 at a = 0."""
    flux, D = pot.flux, d(pot.a)
    return _finite_value(
        _kl_segment(flux._background, flux._kl_constants, D, wedge_field(D, D), pot.a),
        "kl_functional")


def _weight(pot: GaugePotential) -> FormField:
    """W = E^2/2 - *phi of the potential's curvature E: dR(b) = b ^ W."""
    E = curvature(pot)
    return ddt._residual_weight(wedge_field(E, E), _SIXTH)


def theta3(pot: GaugePotential, b1: FormField, b2: FormField, b3: FormField) -> float:
    """Integral of b1^b2^b3^(*phi - E^2/2), antisymmetrized exactly.

    The six ordered triples pair up, since b_q ^ b_p is the exact negation
    of b_p ^ b_q: the integral is the alternating sum of the three integrals
    of P_pq ^ V_r, with the pair wedges P_pq = b_p ^ b_q (p < q) and
    V_r = b_r ^ W (W = E^2/2 - *phi) each formed once, 9 wedges where the
    six triples took 18.  A swap of two arguments negates or exchanges the
    three terms exactly, and a repeated argument makes one term +0.0 and the
    other two exact negatives; math.fsum does not depend on the terms'
    order, so swapping arguments negates the result bitwise and repeated
    arguments give 0.0.
    """
    return _theta3(_weight(pot), b1, b2, b3)


def _theta3(W: FormField, b1: FormField, b2: FormField, b3: FormField) -> float:
    """theta3 from the weight W = E^2/2 - *phi, which
    ``nu_derivative_check`` shares (the integrand is minus b1^b2^b3^W)."""
    bs = (b1, b2, b3)
    terms = [sgn * integrate(wedge_field(wedge_field(bs[p], bs[q]),
                                         wedge_field(bs[r], W)))
             for (p, q, r), sgn in (((0, 1, 2), -1.0), ((0, 2, 1), 1.0),
                                    ((1, 2, 0), -1.0))]
    return _finite_value(math.fsum(terms) / 3.0, "theta3")


def dtheta4(pot: GaugePotential, b1: FormField, b2: FormField,
            b3: FormField, b4: FormField) -> float:
    """Alternating four-term sum of directional derivatives of theta3.

    Each term is the analytic derivative -integral(b_j^b_k^b_l^db_i^E);
    the total must vanish (the 3-form is closed).  The 2-forms db_i and E
    commute, so each term is taken as ((b_j ^ b_k) ^ (b_l ^ E)) ^ db_i: the
    four triples use three pair wedges and two 3-forms b_l ^ E, each formed
    once, and no 3^4 or per-term 2^2 product is left.  The terms stay
    separate (not d(b1^b2^b3^b4)), so the sum still tests closedness.
    """
    E = curvature(pot)
    P12, V4 = wedge_field(b1, b2), wedge_field(b4, E)

    def deriv(P, V, bi):
        return -integrate(wedge_field(wedge_field(P, V), d(bi)))

    # term i drops b_i; each term's temporaries go before the next is formed
    terms = [deriv(wedge_field(b2, b3), V4, b1), -deriv(wedge_field(b1, b3), V4, b2),
             deriv(P12, V4, b3), -deriv(P12, wedge_field(b3, E), b4)]
    return _finite_value(math.fsum(terms), "dtheta4")


def _moment_pair_oneform(g1: FormField, g2: FormField, dg1: FormField,
                         dg2: FormField) -> FormField:
    """(g1 dg2 - g2 dg1)/2 as a 1-form field, from dg1 = d(g1), dg2 = d(g2)."""
    vals = 0.5 * (g1.coeffs * dg2.coeffs - g2.coeffs * dg1.coeffs)
    return FormField._of(g1.grid, 1, vals)


def nu(pot: GaugePotential, g1: FormField, g2: FormField) -> float:
    """Multi-moment pairing: -integral of R(E) ^ (g1 dg2 - g2 dg1)/2."""
    if g1.k != 0 or g2.k != 0:
        raise InputError("moment arguments must be scalar fields")
    R = ddt.ddt_residual(curvature(pot))
    pair = _moment_pair_oneform(g1, g2, d(g1), d(g2))
    return _finite_value(-integrate(wedge_field(R, pair)), "nu")


def nu_derivative_check(pot: GaugePotential, g1: FormField, g2: FormField,
                        b: FormField):
    """(analytic derivative of nu along b, theta3(dg1, dg2, b)).

    The derivative uses the exact linearization of the residual,
    dR(b) = db ^ (E^2/2 - *phi).  The equality of the two numbers is the
    defining property of the multi-moment map.  Each integrand is a product
    of five band-limited fields (db, E twice and g dg; or dg1, dg2, b and E
    twice).  For fields of modes up to kmax the grid sums both exactly while
    5 * kmax < N, and the numbers agree to rounding; on coarser grids the
    products can alias and the numbers differ.  The weight
    W, d(g1) and d(g2) are built once and shared with ``_theta3``, so the
    right-hand side equals ``theta3(pot, d(g1), d(g2), b)`` bitwise.
    """
    W = _weight(pot)
    dg1, dg2 = d(g1), d(g2)
    dR = wedge_field(d(b), W)
    lhs = -integrate(wedge_field(dR, _moment_pair_oneform(g1, g2, dg1, dg2)))
    return _finite_value(lhs, "derivative of nu"), _theta3(W, dg1, dg2, b)


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
        a = a + KForm.from_coeffs(7, 1, [2.0 * math.pi * x for x in m], FLOAT)
    return GaugePotential(a, pot.flux)


# --- randomized band-limited fields ------------------------------------------


def _low_modes(axes: tuple, kmax: int) -> np.ndarray:
    """Nonzero integer modes supported on the active axes, |k|_inf <= kmax,
    one representative per {k, -k} pair, lexicographic order, as a
    (count, len(axes)) int64 array.

    The codes sum_i (k_i + kmax) (2 kmax + 1)^(n-1-i) of the box run in the
    lexicographic order of k, and -k's code is k's reflected about the zero
    mode's, so the representatives k > -k are exactly the codes above the
    zero mode's, swept in order."""
    n, side = len(axes), 2 * kmax + 1
    codes = np.arange((side ** n + 1) // 2, side ** n)
    return codes[:, None] // side ** np.arange(n - 1, -1, -1) % side - kmax


def random_field(grid: TorusGrid, k: int, rng: np.random.Generator,
                 scale: float = 1.0, kmax: int = 1) -> FormField:
    """Random band-limited real field: every coefficient is a trigonometric
    polynomial sum_m a_m cos(2 pi m.x) + b_m sin(2 pi m.x) over the nonzero
    modes m with |m|_inf <= kmax, amplitudes drawn mode by mode in
    ``_low_modes`` order.  Mode m adds a_m - i b_m to a complex spectrum at
    m mod N (so modes past N/2 alias as in the sum), and one inverse FFT
    times npts (a power of two: exact) evaluates it.

    Band-limiting keeps products of a few such fields alias-free on the
    grid, which the moment-map and closedness checks rely on.
    """
    if not scale >= 0:
        raise InputError("random fields need scale >= 0")
    check_count("kmax", kmax, 0)
    modes = _low_modes(grid.active_axes, kmax)
    dim = len(blades(7, k))
    amps = rng.normal(0.0, scale / math.sqrt(max(len(modes), 1)),
                      (len(modes), 2, dim))
    # allocated before the spectrum, an order that faulted less while glibc
    # still trimmed freed heap (see kernels._hold_freed_heap); not re-measured
    vals = np.empty((dim, grid.npts))
    spec = np.zeros((dim,) + grid.shape, dtype=np.complex128)
    np.add.at(spec, (slice(None),) + tuple(modes.T % grid.N),
              (amps[:, 0] - 1j * amps[:, 1]).T)
    for axis in range(1, grid.n_active + 1):  # ifftn would keep its input alive
        spec = np.fft.ifft(spec, axis=axis)
    np.multiply(spec.real.reshape(dim, grid.npts), grid.npts, out=vals)
    return FormField(grid, k, vals.T)


def random_potential(grid: TorusGrid, flux: Flux, rng: np.random.Generator,
                     scale: float = 1.0, kmax: int = 1) -> GaugePotential:
    return GaugePotential(random_field(grid, 1, rng, scale, kmax), flux)


def coclosed_project(a: FormField) -> FormField:
    """Project a 1-form field onto mean-zero coclosed fields (mode-wise
    removal of the span{k} component; the zero mode is dropped entirely)."""
    if a.k != 1:
        raise InputError("projection expects a 1-form field")
    k = _spectral_k(a.grid)
    k2 = np.maximum(np.sum(k * k, axis=1), 1)  # dead modes: k = 0, dot = 0

    def project(spec):
        spec -= (np.einsum("im,mi->m", spec, k) / k2) * k.T
        spec[:, 0] = 0.0
        return spec
    return FormField(a.grid, 1, _apply_modes(a, project).values)


def random_coclosed_potential(grid: TorusGrid, flux: Flux,
                              rng: np.random.Generator, scale: float = 1.0,
                              kmax: int = 1) -> GaugePotential:
    a = coclosed_project(random_field(grid, 1, rng, scale, kmax))
    return GaugePotential(a, flux)


# --- file formats ------------------------------------------------------------


def save_field(path, f: FormField) -> None:
    """Binary snapshot: magic, active axes, N, degree, little-endian doubles.
    A non-finite field is a numerical failure and is not written."""
    if not np.isfinite(f.coeffs).all():
        raise NumericalError("refusing to save a field with non-finite values")
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
    return FormField(grid, degree, data.reshape(grid.npts, dim))


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
