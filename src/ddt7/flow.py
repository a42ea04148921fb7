"""Solvers over torus fields: gradient flow, instanton solve, continuation
in the scale parameter, product-space consistency, and the per-mode
kernel/image probe of the linearized equation.

Both obstructions on the torus depend only on the integer flux class F and
are decided exactly on it: the vector part F ^ *phi leaves no instanton,
and a nonzero cube F^3 fixes the scaled residual's mean at
s^4 (2 pi)^3 F^3/6, whatever the potential.

The flow integrates da/dt = eta(E)/theta(E) pointwise over the grid
(explicit euler or rk4).  eta is A1's transport *R - i(i(*R)E)E of the
residual R = R(E) (see ``ddt``): a stage forms E ^ E, theta and R from it,
then one star of R and two interior products.  ``flow_run`` hands each
step the (E, R, theta) of its diagnostics as the first stage.  theta is
guarded: the ascent metric degenerates where the calibration weight
vanishes, so any grid point with theta <= theta_min aborts the run with
the offending point attached; theta_min and dt must be finite and
positive.

Fields inside a solver are unchecked op results (see ``torus``).  Each
solver checks what leaves it: the potential after every flow step and the
step's diagnostics, every Newton trial iterate with its residual norm and
min theta_s, and every CG residual; inf or NaN raises ``NumericalError``
naming where.
"""
from __future__ import annotations

import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import ddt, g2, tables
from .errors import (DegenerateMetricError, InputError, NonFiniteError,
                     NumericalError, ObstructionError, check_count)
from .exalg import cube, wedge
from .kernels import backend_name, bareiss_ranks
from .scalars import RATIONAL
from .torus import (Flux, FormField, GaugePotential, TorusGrid, _apply_modes,
                    _finite_field, _finite_value, _kl_segment, _spectral_k,
                    codiff, curvature, d, field_inner, field_l2, field_mean,
                    hodge_field, wedge_const, wedge_field, zero_potential)

__all__ = [
    "FlowConfig", "Trajectory", "ContinuationStep", "ContinuationResult",
    "DEFAULT_SCHEDULE", "ascent_field",
    "flow_step", "flow_run", "cylinder_check", "cylinder_check_samples",
    "instanton_solve", "continuation", "kernel_probe",
]


def _grid_point(grid: TorusGrid, index: int) -> dict:
    """{active axis: coordinate} of the grid point at a flat index."""
    coords = np.unravel_index(index, grid.shape)
    return dict(zip(grid.active_axes, (int(c) for c in coords)))


def _theta_guard(grid: TorusGrid, theta: np.ndarray, theta_min: float) -> None:
    """Raise at the grid point of least theta if theta <= theta_min there.
    argmin stops at a NaN, so a non-finite theta is found here too; it is a
    numerical failure, not a degenerate metric."""
    worst = int(np.argmin(theta))
    _finite_value(float(theta[worst]), "theta")
    if theta[worst] <= theta_min:
        point = _grid_point(grid, worst)
        raise DegenerateMetricError(
            f"theta = {theta[worst]:.6g} <= {theta_min} at grid point {point}",
            point=point, theta=float(theta[worst]))


def _positive(name: str, value) -> None:
    """Refuse a step size or theta floor that is not a finite positive
    number: a NaN floor would pass every theta, and a NaN or inf step
    poisons the potential."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise InputError(f"{name} must be a finite positive number, got {value!r}")


def _ascent(pot: GaugePotential, theta_min: float, stage=None) -> FormField:
    """ascent_field, from the (E, R(E), theta) at pot when they are known."""
    if stage is None:
        E = curvature(pot)
        E2 = wedge_field(E, E)
        stage = E, ddt._residual(E, E2, 1.0 / 6.0), ddt._theta(E2)
    E, R, theta = stage
    _theta_guard(pot.grid, theta, theta_min)
    return FormField._of(pot.grid, 1, ddt._eta(E, R).coeffs / theta)


def ascent_field(pot: GaugePotential, theta_min: float = 1e-3) -> FormField:
    """eta/theta over the grid; errors if any point leaves the guarded set."""
    _positive("theta_min", theta_min)
    return _ascent(pot, theta_min)


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-3
    steps: int = 100
    scheme: str = "euler"
    theta_min: float = 1e-3
    record_every: int = 10

    def __post_init__(self):
        _positive("dt", self.dt)
        _positive("theta_min", self.theta_min)
        check_count("steps", self.steps, 1)
        if self.scheme not in ("euler", "rk4"):
            raise InputError("scheme must be euler or rk4")
        check_count("record_every", self.record_every, 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Flow diagnostics: per-step scalars plus potentials at sample times.

    Each step also has the flat grid index where theta is least
    (``theta_argmin``, the point ``_grid_point`` names) and its wall
    seconds (``step_seconds``: the step and its diagnostics; step 0 is the
    start's diagnostics), which the run record reads."""

    times: np.ndarray
    functional: np.ndarray
    residual_l2: np.ndarray
    theta_min_per_step: np.ndarray
    theta_argmin: np.ndarray
    step_seconds: np.ndarray
    sample_times: tuple
    samples: tuple
    termination: str
    config: FlowConfig

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.functional) == len(self.residual_l2)
                == len(self.theta_min_per_step) == len(self.theta_argmin)
                == len(self.step_seconds) == n):
            raise InputError("trajectory arrays disagree in length")


def flow_step(pot: GaugePotential, dt: float, scheme: str = "euler",
              theta_min: float = 1e-3) -> GaugePotential:
    """One explicit time step of da/dt = eta/theta."""
    _positive("dt", dt)
    _positive("theta_min", theta_min)
    return _step(pot, dt, scheme, theta_min, None)


def _step(pot: GaugePotential, dt: float, scheme: str, theta_min: float,
          first) -> GaugePotential:
    """``flow_step``, given the first stage's (E, R(E), theta) when known.
    The new potential is checked for inf and NaN."""
    if scheme not in ("euler", "rk4"):
        raise InputError("scheme must be euler or rk4")
    grid, a0 = pot.grid, pot.a.coeffs
    with _finite(f"{scheme} step of dt = {dt:g}"):
        k1 = _ascent(pot, theta_min, first).coeffs
        if scheme == "euler":
            a = a0 + dt * k1
        else:
            def vf(a: np.ndarray) -> np.ndarray:
                pot_a = GaugePotential(FormField._of(grid, 1, a), pot.flux)
                return _ascent(pot_a, theta_min).coeffs
            k2 = vf(a0 + (0.5 * dt) * k1)
            k3 = vf(a0 + (0.5 * dt) * k2)
            k4 = vf(a0 + dt * k3)
            a = a0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return GaugePotential(_finite_field(FormField._of(grid, 1, a), "the new potential"),
                              pot.flux)


@contextmanager
def _finite(where: str):
    """Raise a non-finite value or float overflow inside a solver as a
    numerical failure at ``where``; numpy's overflow and invalid-value warnings
    are off, since the solver's own checks report them."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except (NonFiniteError, OverflowError) as e:
        raise NumericalError(f"{where}: {e}") from None


def _diagnostics(pot: GaugePotential):
    """(kl_functional, residual L2 norm, min theta, (E, R(E), theta), the
    flat grid index of min theta), sharing one d(a); the fourth is the next
    step's first stage.  The three floats are checked for inf and NaN.

    With D = d(a) and the constant background B, E = D + B and
    E ^ E = D ^ D + 2 (B ^ D) + B ^ B, so the D ^ D that the functional's
    segment integral forms is shared, and squaring E takes one constant
    wedge instead of a field wedge.  B's row, 2B, B ^ B and the segment's
    constants are the flux's, made once per Flux.  D ^ D takes the power
    table, being one field wedged with itself, and the residual's E^3 and
    the segment's D^3 are cubes from their squares, ``exalg.cube``."""
    flux = pot.flux
    D = d(pot.a)
    DD = wedge_field(D, D)
    E = FormField._of(pot.grid, 2, D.coeffs + flux._background_row[:, None])
    E2 = FormField._of(pot.grid, 4, DD.coeffs + wedge_const(D, flux._twice_background).coeffs
                       + flux._background_sq)
    theta = ddt._theta(E2)
    R = ddt._residual(E, E2, 1.0 / 6.0)
    worst = int(np.argmin(theta))
    functional = _kl_segment(flux._background, flux._kl_constants, D, DD, pot.a)
    return (_finite_value(functional, "functional"),
            _finite_value(field_l2(R), "residual norm"),
            _finite_value(float(theta[worst]), "min theta"),
            (E, R, theta), worst)


def flow_run(pot0: GaugePotential, cfg: FlowConfig) -> Trajectory:
    """Integrate the ascent flow.

    Scalars (functional, unscaled residual norm, min theta) are recorded at
    every step; the potential itself is stored every record_every steps and
    at the endpoint.  A degenerate-metric error inside a step truncates the
    trajectory and is reported in the termination string.  Non-finite
    values raise NumericalError naming the step.
    """
    times, funcs, resids, thetas, sample_times, samples = [], [], [], [], [], []
    worsts, seconds = [], []
    pot = pot0
    termination = "completed"
    stage = None
    for step in range(cfg.steps + 1):
        t0 = time.perf_counter()
        if step:
            try:
                pot = _step(pot, cfg.dt, cfg.scheme, cfg.theta_min, stage)
            except DegenerateMetricError as e:
                termination = f"left almost-calibrated set at step {step}: {e}"
                break
            except NumericalError as e:
                raise NumericalError(f"flow step {step}: {e}") from None
        t = step * cfg.dt
        with _finite(f"flow step {step}"):
            q, r, tmin, stage, worst = _diagnostics(pot)
        seconds.append(time.perf_counter() - t0)
        times.append(t)
        funcs.append(q)
        resids.append(r)
        thetas.append(tmin)
        worsts.append(worst)
        if step % cfg.record_every == 0 or step == cfg.steps:
            sample_times.append(t)
            samples.append(pot)
    return Trajectory(np.array(times), np.array(funcs), np.array(resids),
                      np.array(thetas), np.array(worsts, dtype=np.int64),
                      np.array(seconds), tuple(sample_times), tuple(samples),
                      termination, cfg)


def cylinder_check_samples(sample_times, potentials) -> dict:
    """Product-space consistency over uniformly spaced potential samples.

    At each interior sample, da/dt is approximated by central differences
    of the stored potentials and the L2 norms of the two product-space
    residual 6-forms are reported.  Along an exact flow both vanish, so
    the norms measure the O(spacing^2) differencing error: halving the
    sample spacing must shrink them by about 4.
    """
    potentials = tuple(potentials)
    if len(potentials) < 3:
        raise InputError("cylinder check needs at least 3 stored samples")
    ts = np.asarray(sample_times, dtype=np.float64)
    if len(ts) != len(potentials):
        raise InputError("sample times and potentials disagree in length")
    gaps = np.diff(ts)
    if np.any(gaps <= 0):
        raise InputError("sample times must be strictly increasing")
    if np.max(np.abs(gaps - gaps[0])) > 1e-9 * gaps[0]:
        raise InputError("cylinder check needs uniformly spaced samples")
    h = float(gaps[0])
    rows = []
    for i in range(1, len(potentials) - 1):
        pot = potentials[i]
        adot = (1.0 / (2.0 * h)) * (potentials[i + 1].a - potentials[i - 1].a)
        E = curvature(pot)
        E2, aEphi = wedge_field(E, E), ddt._adot_E_phi(E, adot)
        r1, r2 = ddt._res1(E, E2, adot, aEphi), ddt._res2(E2, aEphi)
        rows.append({"t": float(ts[i]), "res1_l2": field_l2(r1),
                     "res2_l2": field_l2(r2)})
    return {
        "spacing": h,
        "samples": rows,
        "max_res1": max(r["res1_l2"] for r in rows),
        "max_res2": max(r["res2_l2"] for r in rows),
    }


def cylinder_check(traj: Trajectory) -> dict:
    """cylinder_check_samples over a trajectory's stored samples."""
    return cylinder_check_samples(traj.sample_times, traj.samples)


# --- instanton solve ----------------------------------------------------------


def _flux_has_vector_part(flux: Flux) -> bool:
    """Exact check of F ^ *phi != 0 for the constant flux form."""
    F = flux.form()
    return not wedge(F, g2.star_phi_for(RATIONAL)).is_zero()


def _flux_cube_mean(flux: Flux) -> float:
    """|mean(w6)| / s^4 for the scaled residual w6 at every potential over a
    flux with F ^ *phi = 0: (2 pi)^3 |F^3| / 6, from the exact integer cube,
    and 0.0 exactly when F^3 = 0.

    With E = 2 pi F + da, every term of E^3 and E ^ *phi that holds da is
    exact (d of a periodic form, as F and *phi are closed), so
    mean(s^4 E^3/6 - E ^ *phi) = s^4 (2 pi)^3 F^3/6 - 2 pi F ^ *phi (on the
    grid, up to products of modes that alias onto the zero mode).  No
    potential moves that mean, and the residual norm is at least its norm.
    """
    F = flux.form()
    F3 = cube(F, wedge(F, F))
    norm = math.sqrt(sum(int(c) ** 2 for c in F3.coeffs))
    return (2.0 * math.pi) ** 3 / 6.0 * norm


def instanton_solve(flux: Flux, grid: TorusGrid | None = None) -> GaugePotential:
    """Mean-zero coclosed potential with (E0 + da) ^ *phi = 0 pointwise.

    The obstruction is topological: the vector-type component of the flux
    form is constant, hence never cancelled by da, and it is decided exactly
    on the integer flux.  Given that it vanishes, every Fourier mode of the
    remaining system is homogeneous (the background is constant) and the
    mode maps kill only pure gauge, so the solution is a = 0.
    """
    if grid is None:
        grid = TorusGrid((1, 2), 4)
    if _flux_has_vector_part(flux):
        raise ObstructionError("no instanton in this Chern class on the torus")
    return zero_potential(grid, flux)


# --- continuation in the scale parameter --------------------------------------


DEFAULT_SCHEDULE = (0.0, 1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0)
_OBSTRUCTION = "cohomological obstruction"  # its termination's first words


@dataclass(frozen=True, eq=False)
class ContinuationStep:
    s: float
    potential: GaugePotential
    residual_history: tuple  # the residual norm at the start and after each step
    iterates: tuple = ()  # one _NewtonIterate per accepted Newton step

    @property
    def residual_norm(self) -> float:
        return self.residual_history[-1]

    @property
    def newton_iterations(self) -> int:
        return len(self.iterates)


@dataclass(frozen=True, eq=False)
class ContinuationResult:
    steps: tuple
    termination: str

    @property
    def completed(self) -> bool:
        return self.termination == "completed"

    @property
    def obstructed(self) -> bool:  # stopped at the flux cube, F^3 != 0
        return self.termination.startswith(_OBSTRUCTION)


class _ScaledSystem:
    """G(a) = (s^4 E^3/6 - E^*phi, codiff a, mean a) and its linearization.

    The three blocks are the scaled equation over the grid, the gauge fix,
    and the harmonic (constant 1-form) fix.  The linearization of the first
    block at a is b -> db ^ W with W = s^4 E^2/2 - *phi.
    """

    def __init__(self, flux: Flux, grid: TorusGrid, s: float):
        self.flux = flux
        self.grid = grid
        self.s = float(s)

    def residual(self, a: FormField):
        """The three blocks at a, the weight W of the linearization there,
        and theta_s over the grid, all from one E ^ E.

        s^4 E^3/6 - E ^ *phi is 1/s^2 times the dDT residual of the
        curvature s^2 E, so the equation is elliptic where theta_s, the
        theta of s^2 E, is positive: theta_s = 1 - (s^4/2) *(phi ^ E^2),
        identically 1 at s = 0 and ``ddt._theta`` of E at s = 1.
        """
        E = curvature(GaugePotential(a, self.flux))
        E2 = wedge_field(E, E)
        c = self.s ** 4 / 6.0
        return ((ddt._residual(E, E2, c), codiff(a), field_mean(a)),
                ddt._residual_weight(E2, c), ddt._theta(E2 * self.s ** 4))

    def apply_j(self, W: FormField, b: FormField):
        return wedge_field(d(b), W), codiff(b), field_mean(b)

    def apply_jt(self, W: FormField, w6: FormField, w0: FormField,
                 mu: np.ndarray) -> FormField:
        """Adjoint of apply_j under the mean-based inner products.

        The 6-form block factors through d, whose adjoint is codiff; the
        adjoint of the wedge-by-W factor is y -> *(W ^ *y).
        The adjoint of the mean block sends mu to the constant field mu.
        """
        out = codiff(_wedge_by_w_adjoint(w6, W)) + d(w0)
        return FormField._of(self.grid, 1, out.coeffs + mu[:, None])


def _sq_norm(blocks) -> float:
    """|w6|^2 + |w0|^2 + |mu|^2 of blocks (w6, w0, mu), mean-based."""
    w6, w0, mu = blocks
    return field_inner(w6, w6) + field_inner(w0, w0) + float(np.dot(mu, mu))


def _wedge_by_w_adjoint(y: FormField, W: FormField) -> FormField:
    """Adjoint of the pointwise map x (2-form) -> x ^ W, W a fixed 4-form:
    *(W ^ *y), since <x ^ W, y> vol = x ^ (W ^ *y) and ** = 1 on R^7."""
    return hodge_field(wedge_field(W, hodge_field(y)))


# The blocks have condition 1 at W = -*phi and stay below 2e3 along the
# continuation of a 1e-2 perturbation to s = 1; near-singular mean weights
# (condition 1e7 and up) made PCG slower than plain CG, or stall at max_iter.
_MAX_BLOCK_COND = 1e6


def _normal_symbol(grid: TorusGrid, w_mean: np.ndarray) -> np.ndarray:
    """Per-mode blocks N_k of J^T J for the constant weight w_mean, (nspec, 7, 7).

    J b = (db ^ W, codiff b, mean b) has symbol 2*pi*i A_k on the first block
    (A_k = sum_i k_i T_i, ``tables.mode_weight_tensor``) and -2*pi*i k^T on
    the second, so N_k = 4*pi^2 (A_k^T A_k + k k^T), real and symmetric.
    The mean block makes N the identity at the zero mode.  Modes whose
    active frequencies are all 0 or Nyquist are dead (d vanishes there)
    and get the identity too.
    """
    k = _spectral_k(grid)
    T = np.tensordot(w_mean, tables.mode_weight_tensor(), axes=1)
    A = np.einsum("mi,iob->mob", k, T)
    N = np.matmul(A.transpose(0, 2, 1), A)
    N += k[:, :, None] * k[:, None, :]
    N *= 4.0 * math.pi ** 2
    N[~k.any(axis=1)] = np.eye(7)
    return N


def _mean_w_inverse(grid: TorusGrid, W: FormField):
    """The preconditioner's per-mode map for ``_apply_modes``: the inverse
    blocks of the normal operator at mean(W), or None when a block is
    singular or its 1-norm condition number exceeds _MAX_BLOCK_COND (the
    caller then runs plain CG)."""
    blocks = _normal_symbol(grid, field_mean(W))
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        return None
    norm1 = [np.abs(m).sum(axis=1).max(axis=1) for m in (blocks, inv)]
    if not np.all(norm1[0] * norm1[1] <= _MAX_BLOCK_COND):
        return None
    inv = np.ascontiguousarray(inv.transpose(1, 2, 0))  # mode axis last, as in spec
    return lambda spec: np.einsum("abm,bm->am", inv, spec)


# The forcing term: each inner solve stops at relative tolerance
# max(_INNER_TOL, min(_FORCING_CAP, |r|)) for the outer residual norm |r|,
# which keeps Newton locally quadratic (Dembo, Eisenstat and Steihaug
# 1982).  A cap of 0.1 let 0.1-noise cold starts walk min theta_s from 27
# to 0.5 and stall there.
_INNER_TOL = 1e-12
_FORCING_CAP = 1e-2


@dataclass(frozen=True)
class _InnerSolve:
    """How one inner solve ended: CG iterations, |J^T r| / |J^T rhs| at the
    end, and whether it stopped at max_iter short of the tolerance."""

    iterations: int
    rel_residual: float
    hit_max_iter: bool


def _cgnr(system: _ScaledSystem, W: FormField, r,
          tol: float = _INNER_TOL, max_iter: int = 2000):
    """Preconditioned CG on the normal equations J^T J x = J^T r for a block
    triple r, which the iteration then carries as the residual r - J x.

    The preconditioner is the exact inverse of J^T J with W replaced by its
    mean, applied per Fourier mode (Concus and Golub 1973).  The stop rule
    reads the unpreconditioned gradient, |J^T (r - J x)| <= tol * |J^T r|.
    Returns (x, _InnerSolve); a non-finite residual raises
    ``NonFiniteError`` rather than running on to max_iter.
    """
    x = FormField.zero(system.grid, 1)
    g = system.apply_jt(W, *r)
    g0 = _finite_value(field_l2(g), "CG gradient norm")
    if g0 == 0.0:
        return x, _InnerSolve(0, 0.0, False)
    inv = _mean_w_inverse(system.grid, W)
    z = g if inv is None else _apply_modes(g, inv)
    p = z
    gz = field_inner(g, z)
    rel = 1.0
    it = 0
    while it < max_iter:
        jp = system.apply_j(W, p)
        denom = _sq_norm(jp)
        if denom == 0.0:
            break
        alpha = gz / denom
        x = x + alpha * p
        r = tuple(ri - alpha * ji for ri, ji in zip(r, jp))
        g = system.apply_jt(W, *r)
        it += 1
        rel = _finite_value(field_l2(g), "CG gradient norm") / g0
        if rel <= tol:
            break
        z = g if inv is None else _apply_modes(g, inv)
        gz_new = field_inner(g, z)
        p = z + (gz_new / gz) * p
        gz = gz_new
    return x, _InnerSolve(it, rel, it == max_iter and rel > tol)


@dataclass(frozen=True)
class _NewtonIterate:
    """One accepted Newton step: its inner solve, the inner solve's
    tolerance, the step length the line search accepted, and min theta_s at
    the new iterate."""

    inner: _InnerSolve
    inner_tol: float
    step_length: float
    theta_min: float


# The line search halves the step from 1 at most _MAX_HALVINGS times.  It
# accepts a step of length lam whose residual norm is at most
# (1 - _ARMIJO lam) times the current one (Armijo's rule) and whose min
# theta_s stays above _THETA_FRACTION of the current min theta_s.
_ARMIJO = 1e-4
_MAX_HALVINGS = 10
_THETA_FRACTION = 0.25


def _line_search(system: _ScaledSystem, a: FormField, dx: FormField,
                 rnorm: float, theta_min: float):
    """The first of a + dx, a + dx/2, ... that the line search accepts, as
    (step length, iterate, parts, W, residual norm, min theta_s), so the
    next Newton step reuses its residual; None when no halving is accepted.
    Every trial and its two norms are checked for inf and NaN."""
    lam = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        trial = _finite_field(a + lam * dx, "the Newton iterate")
        parts, W, theta = system.residual(trial)
        r = _finite_value(math.sqrt(_sq_norm(parts)), "residual norm")
        t = _finite_value(float(np.min(theta)), "min theta_s")
        if r <= (1.0 - _ARMIJO * lam) * rnorm and t > _THETA_FRACTION * theta_min:
            return lam, trial, parts, W, r, t
        lam *= 0.5
    return None


def _schedule_entry(system: _ScaledSystem, a: FormField, tol: float,
                    max_newton: int, cube_mean: float):
    """Gauss-Newton from a at s = system.s, as (ContinuationStep, stop), stop
    the run's termination or None when the entry converged; the step is None
    when the start has min theta_s <= 0.  No W outlives the entry."""
    s = system.s
    try:
        with _finite(f"continuation at s = {s:g}"):
            parts, W, theta = system.residual(a)
            rnorm = _finite_value(math.sqrt(_sq_norm(parts)), "residual norm")
            mean_norm = s ** 4 * cube_mean
            if rnorm > tol and mean_norm > tol:
                return (ContinuationStep(s, GaugePotential(a, system.flux), (rnorm,)),
                        f"{_OBSTRUCTION} at s = {s:g}: the flux cube F^3 is nonzero, "
                        "so the residual's mean s^4 (2 pi)^3 F^3/6 has norm "
                        f"{mean_norm:.3e} > tol at every potential")
            _theta_guard(system.grid, theta, 0.0)
    except DegenerateMetricError as e:
        return None, f"left almost-calibrated set at s = {s:g}: {e}"
    theta_min = float(np.min(theta))
    history, iterates, cap_note = [rnorm], [], ""

    def done(stop):
        return (ContinuationStep(s, GaugePotential(a, system.flux),
                                 tuple(history), tuple(iterates)), stop)
    while rnorm > tol:
        if len(iterates) == max_newton:
            return done(f"newton divergence at s = {s:g}: residual "
                        f"{rnorm:.3e} after {len(iterates)} iterations" + cap_note)
        with _finite(f"newton iteration {len(iterates) + 1} at s = {s:g}"):
            inner_tol = max(_INNER_TOL, min(_FORCING_CAP, rnorm))
            dx, inner = _cgnr(system, W, (-parts[0], -parts[1], -parts[2]),
                              tol=inner_tol)
            if inner.hit_max_iter:
                cap_note = (f"; inner solve hit {inner.iterations} iterations "
                            f"at relative residual {inner.rel_residual:.1e}")
            accepted = _line_search(system, a, dx, rnorm, theta_min)
        if accepted is None:
            return done(f"line search failed at s = {s:g}, newton iteration "
                        f"{len(iterates) + 1}: no step length down to "
                        f"2^-{_MAX_HALVINGS} lowered the residual {rnorm:.3e} "
                        "by Armijo's rule with min theta_s above "
                        f"{_THETA_FRACTION:g} of {theta_min:.6g}" + cap_note)
        lam, a, parts, W, rnorm, theta_min = accepted
        iterates.append(_NewtonIterate(inner, inner_tol, lam, theta_min))
        history.append(rnorm)
    return done(None)


def continuation(flux: Flux, schedule=None, tol: float = 1e-10,
                 max_newton: int = 12, grid: TorusGrid | None = None,
                 initial: GaugePotential | None = None,
                 warm_start: bool = True) -> ContinuationResult:
    """Trace the gauge-fixed scaled equation along increasing s.

    Each schedule entry (``_schedule_entry``) runs Gauss-Newton from the
    previous entry's solution (warm_start) or from `initial`
    (warm_start=False; a = 0 when no initial is given).  Its inner solves
    (``_cgnr``) are inexact: each stops at the forcing term
    max(1e-12, min(1e-2, |r|)) of the residual norm |r| it starts from, so
    far from the solution a step takes few CG iterations and near it Newton
    stays quadratic; tol stops the outer iteration alone.  The scaled
    equation is elliptic where theta_s > 0 (``_ScaledSystem.residual``), and
    the iterates stay there: each step is backtracked (``_line_search``),
    lengths 1, 1/2, 1/4, ... until the residual norm falls by Armijo's rule
    and min theta_s stays above a quarter of its current value.

    The first entry that does not converge ends the run.  Each entry that
    ran keeps a ``ContinuationStep`` with a ``_NewtonIterate`` per Newton
    step, but for one whose start has min theta_s <= 0.  Termination is
    "completed" or names that start's grid point and value
    (``_theta_guard``), a line search that no halving passed (the step is
    not taken), Newton divergence after max_newton steps (these two also
    name an inner solve that stopped at its iteration cap), or the
    cohomological obstruction.  That is decided exactly from the flux: when
    F^3 != 0 the residual's mean s^4 (2 pi)^3 F^3/6 is the same at every
    potential (``_flux_cube_mean``), so an entry whose residual norm exceeds
    tol stops before its first Newton step once that mean's norm does too.
    """
    if grid is None:
        grid = TorusGrid((1, 2), 4)
    if schedule is None:
        schedule = DEFAULT_SCHEDULE
    schedule = tuple(float(s) for s in schedule)
    if not schedule or schedule[0] != 0.0:
        raise InputError("continuation schedule must start at 0")
    if any(s1 >= s2 for s1, s2 in zip(schedule, schedule[1:])):
        raise InputError("continuation schedule must be strictly increasing")
    base = instanton_solve(flux, grid)
    cube_mean = _flux_cube_mean(flux)
    if initial is not None and initial.grid != grid:
        raise InputError("initial potential lives on a different grid")
    a = (initial if initial is not None else base).a
    steps = []
    for s in schedule:
        step, stop = _schedule_entry(_ScaledSystem(flux, grid, s), a, tol,
                                     max_newton, cube_mean)
        if step is not None:
            steps.append(step)
        if stop is not None:
            return ContinuationResult(tuple(steps), stop)
        if warm_start:
            a = step.potential.a
    return ContinuationResult(tuple(steps), "completed")


# --- per-mode kernel/image probe ----------------------------------------------

# Time, not memory, caps kmax: the census takes about 1.3 s at kmax = 4
# (3,758 orbits, 76 MiB peak RSS) and 8 s at kmax = 5 (14,860 orbits).
_KMAX_CAP = 4


def kernel_probe(kmax: int) -> dict:
    """Exact per-mode linear algebra for the linearization at a = 0.

    For every integer mode k with 0 < |k|_inf <= kmax, the symbol A_k of
    b -> (dx_k ^ b) ^ *phi on 1-forms must have kernel dimension exactly 1
    (the pure gauge direction span{k}), and its column span must equal that
    of B_k, the symbol of gamma -> dx_k ^ gamma on 5-forms.  A_k = B_k L
    for the integer matrix L of b -> b ^ *phi, so span A_k lies in span B_k
    and the spans are equal exactly when rank A_k == rank B_k.

    Each signed permutation g of ``tables.phi_symmetries()`` fixes phi and
    *phi and commutes with the Hodge star, so A_{gk} and B_{gk} are A_k and
    B_k multiplied by signed-permutation matrices and have the same ranks.
    One mode per orbit is eliminated, exactly on Python ints, and counts
    with the orbit's size; ``modes``, the histogram and
    ``image_rank_matches`` are sums over all modes of the box.  ``orbits``
    is the number of modes eliminated and ``representatives`` the number of
    lines through the origin (half the primitive modes, gcd 1).
    """
    check_count("kmax", kmax, 1)
    if kmax > _KMAX_CAP:
        raise InputError(f"kmax must be at most {_KMAX_CAP}")
    T, U = tables.mode_kernel_tensors()
    reps, sizes = _mode_orbits(kmax)
    A = np.einsum("mi,ijb->mjb", reps, T)
    B = np.einsum("mi,ijg->mjg", reps, U)
    rA = bareiss_ranks(A)
    kernel_dims = 7 - rA
    image_ok = rA == bareiss_ranks(B)
    primitive = np.gcd.reduce(reps, axis=1) == 1
    hist = {int(k): int(sizes[kernel_dims == k].sum())
            for k in np.unique(kernel_dims)}
    return {
        "kmax": int(kmax),
        "modes": int(sizes.sum()),
        "representatives": int(sizes[primitive].sum()) // 2,
        "orbits": len(reps),
        "kernel_dim_histogram": hist,
        "kernel_all_dim_one": bool(np.all(kernel_dims == 1)),
        "image_rank_matches": int(sizes[image_ok].sum()),
        "image_all_match": bool(np.all(image_ok)),
        "backend": backend_name(),
        "all_pass": bool(np.all(kernel_dims == 1) and np.all(image_ok)),
    }


def _mode_orbits(kmax: int):
    """One mode per orbit of ``tables.phi_symmetries()`` on the nonzero
    modes with |k|_inf <= kmax, and the orbit sizes.

    Sweeps the codes sum_i (k_i + kmax) (2 kmax + 1)^i in order with one
    bool per code; each unseen code starts an orbit, whose images are
    marked seen.  Each orbit is enumerated once, and no array of all modes
    is built.
    """
    perms, signs = tables.phi_symmetries()
    side = 2 * kmax + 1
    place = side ** np.arange(7)
    seen = np.zeros(side ** 7, dtype=bool)
    seen[kmax * place.sum()] = True  # the zero mode
    reps, sizes = [], []
    code = 0
    while True:
        code += int(np.argmin(seen[code:]))
        if seen[code]:
            break
        k = code // place % side - kmax
        images = np.unique((signs * k[perms] + kmax) @ place)
        seen[images] = True
        reps.append(k)
        sizes.append(len(images))
    return np.array(reps), np.array(sizes)
