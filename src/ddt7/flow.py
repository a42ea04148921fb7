"""Solvers over torus fields: gradient flow, instanton solve, continuation
in the scale parameter, product-space consistency, and the per-mode
kernel/image probe of the linearized equation.

The flow integrates da/dt = eta(E)/theta(E) pointwise over the grid
(explicit euler or rk4).  theta is guarded: the ascent metric degenerates
where the calibration weight vanishes, so any grid point with
theta <= theta_min aborts the run with the offending point attached.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import g2, tables
from .errors import (DegenerateMetricError, InputError, NonFiniteError,
                     NumericalError, ObstructionError)
from .exalg import blades, wedge
from .kernels import backend_name, bareiss_ranks, wedge_fields
from .scalars import RATIONAL
from .torus import (_PHI, _STAR_PHI, Flux, FormField, GaugePotential, TorusGrid,
                    _correction, _residual, _residual_weight, _spectral_k,
                    _theta, codiff, curvature, curvature_residual, d,
                    field_inner, field_l2, field_mean, hodge_field,
                    kl_segment_integral, scalar_times, wedge_const,
                    wedge_field, zero_potential)

__all__ = [
    "FlowConfig", "Trajectory", "ContinuationStep", "ContinuationResult",
    "DEFAULT_SCHEDULE",
    "theta_field", "eta_field", "ascent_field", "spin7_residual_fields",
    "flow_step", "flow_run", "cylinder_check", "cylinder_check_samples",
    "instanton_solve", "continuation", "kernel_probe",
]

def theta_field(E: FormField) -> np.ndarray:
    """Calibration weight 1 - (1/2)*(phi ^ E^2) per grid point."""
    return _theta(wedge_field(E, E))


def _eta(E: FormField, E2: FormField) -> FormField:
    """*(R(E) + (1/2)*(phi^*E^2)^*E) from E and E2 = E ^ E."""
    return hodge_field(_residual(E, E2) + 0.5 * _correction(E, E2))


def eta_field(E: FormField) -> FormField:
    """The ascent 1-form *(E^3/6 - E^*phi + (1/2)*(phi^*E^2)^*E)."""
    return _eta(E, wedge_field(E, E))


def _theta_guard(grid: TorusGrid, theta: np.ndarray, theta_min: float) -> None:
    worst = int(np.argmin(theta))
    if theta[worst] <= theta_min:
        coords = np.unravel_index(worst, grid.shape)
        point = dict(zip(grid.active_axes, (int(c) for c in coords)))
        raise DegenerateMetricError(
            f"theta = {theta[worst]:.6g} <= {theta_min} at grid point {point}",
            point=point, theta=float(theta[worst]))


def ascent_field(pot: GaugePotential, theta_min: float = 1e-3) -> FormField:
    """eta/theta over the grid; errors if any point leaves the guarded set."""
    E = curvature(pot)
    E2 = wedge_field(E, E)
    theta = _theta(E2)
    _theta_guard(pot.grid, theta, theta_min)
    return FormField(pot.grid, 1, _eta(E, E2).values / theta[:, None])


def spin7_residual_fields(E: FormField, adot: FormField):
    """The two product-space residual 6-forms at (E, adot).

    res1 = -*phi^E + E^3/6 - theta*(*adot) + *(adot^E^phi)^*E
    res2 = (1/2) phi^*E^2 - adot^E^phi

    Both vanish identically when adot = eta/theta and theta != 0, so their
    norms along a sampled trajectory measure the time-discretization error.
    """
    E2 = wedge_field(E, E)
    aEphi = wedge_const(wedge_field(adot, E), _PHI)
    res1 = _residual(E, E2) - scalar_times(_theta(E2), hodge_field(adot)) \
        + wedge_field(hodge_field(aEphi), hodge_field(E))
    res2 = 0.5 * wedge_const(hodge_field(E2), _PHI, left=True) - aEphi
    return res1, res2


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-3
    steps: int = 100
    scheme: str = "euler"
    theta_min: float = 1e-3
    record_every: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise InputError("dt must be positive")
        if self.steps < 1:
            raise InputError("steps must be at least 1")
        if self.scheme not in ("euler", "rk4"):
            raise InputError("scheme must be euler or rk4")
        if self.theta_min <= 0:
            raise InputError("theta_min must be positive")
        if self.record_every < 1:
            raise InputError("record_every must be at least 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Flow diagnostics: per-step scalars plus potentials at sample times."""

    times: np.ndarray
    functional: np.ndarray
    residual_l2: np.ndarray
    theta_min_per_step: np.ndarray
    sample_times: tuple
    samples: tuple
    termination: str
    config: FlowConfig

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.functional) == len(self.residual_l2)
                == len(self.theta_min_per_step) == n):
            raise InputError("trajectory arrays disagree in length")


def flow_step(pot: GaugePotential, dt: float, scheme: str = "euler",
              theta_min: float = 1e-3) -> GaugePotential:
    """One explicit time step of da/dt = eta/theta."""
    with _finite(f"{scheme} step of dt = {dt:g}"):
        if scheme == "euler":
            v = ascent_field(pot, theta_min)
            return GaugePotential(pot.a + dt * v, pot.flux)
        if scheme == "rk4":
            def vf(a: FormField) -> FormField:
                return ascent_field(GaugePotential(a, pot.flux), theta_min)
            k1 = vf(pot.a)
            k2 = vf(pot.a + (0.5 * dt) * k1)
            k3 = vf(pot.a + (0.5 * dt) * k2)
            k4 = vf(pot.a + dt * k3)
            incr = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return GaugePotential(pot.a + incr, pot.flux)
    raise InputError("scheme must be euler or rk4")


@contextmanager
def _finite(where: str):
    """Raise a non-finite field or float overflow inside a solver as a numerical
    failure at ``where``; numpy's overflow warnings are off (FormField checks)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except (NonFiniteError, OverflowError) as e:
        raise NumericalError(f"{where}: {e}") from None


def _diagnostics(pot: GaugePotential):
    """(kl_functional, residual L2 norm, min theta), sharing one d(a)."""
    background = pot.flux.background(pot.grid)
    D = d(pot.a)
    E = background + D
    E2 = wedge_field(E, E)
    return (kl_segment_integral(background, D, pot.a),
            field_l2(_residual(E, E2)), float(np.min(_theta(E2))))


def flow_run(pot0: GaugePotential, cfg: FlowConfig) -> Trajectory:
    """Integrate the ascent flow.

    Scalars (functional, unscaled residual norm, min theta) are recorded at
    every step; the potential itself is stored every record_every steps and
    at the endpoint.  A degenerate-metric error inside a step truncates the
    trajectory and is reported in the termination string.  Non-finite
    values raise NumericalError naming the step.
    """
    times, funcs, resids, thetas, sample_times, samples = [], [], [], [], [], []
    pot = pot0
    termination = "completed"
    for step in range(cfg.steps + 1):
        if step:
            try:
                pot = flow_step(pot, cfg.dt, cfg.scheme, cfg.theta_min)
            except DegenerateMetricError as e:
                termination = f"left almost-calibrated set at step {step}: {e}"
                break
            except NumericalError as e:
                raise NumericalError(f"flow step {step}: {e}") from None
        t = step * cfg.dt
        with _finite(f"flow step {step}"):
            q, r, tmin = _diagnostics(pot)
        times.append(t)
        funcs.append(q)
        resids.append(r)
        thetas.append(tmin)
        if step % cfg.record_every == 0 or step == cfg.steps:
            sample_times.append(t)
            samples.append(pot)
    return Trajectory(np.array(times), np.array(funcs), np.array(resids),
                      np.array(thetas), tuple(sample_times), tuple(samples),
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
        r1, r2 = spin7_residual_fields(curvature(pot), adot)
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
    F = flux.form(RATIONAL)
    return not wedge(F, g2.star_phi_for(RATIONAL)).is_zero()


def instanton_solve(flux: Flux, grid: TorusGrid | None = None) -> GaugePotential:
    """Mean-zero coclosed potential with (E0 + da) ^ *phi = 0 pointwise.

    The obstruction is topological: the vector-type component of the flux
    form is constant, hence never cancelled by da.  Given that it vanishes,
    every Fourier mode of the remaining system is homogeneous (the
    background is constant) and the mode maps kill only pure gauge, so the
    solution is a = 0.  The mode right-hand sides are still formed and
    checked, so a nonconstant background would be caught rather than
    silently mis-solved.
    """
    if grid is None:
        grid = TorusGrid((1, 2), 4)
    if _flux_has_vector_part(flux):
        raise ObstructionError("no instanton in this Chern class on the torus")
    pot = zero_potential(grid, flux)
    w = wedge_const(curvature(pot), _STAR_PHI)
    na = grid.n_active
    spec = np.fft.fftn(w.values.reshape(grid.shape + (7,)), axes=tuple(range(na)))
    flat = np.abs(spec.reshape(grid.npts, 7)).max(axis=1)
    flat[0] = 0.0
    if np.any(flat > 1e-9 * max(float(np.max(flat)), 1.0)):
        raise NumericalError("instanton system has a nonzero mode right-hand "
                             "side; only quantized constant flux backgrounds "
                             "are supported")
    return pot


# --- continuation in the scale parameter --------------------------------------


DEFAULT_SCHEDULE = (0.0, 1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0)


@dataclass(frozen=True, eq=False)
class ContinuationStep:
    s: float
    potential: GaugePotential
    residual_norm: float
    newton_iterations: int
    residual_history: tuple
    cg_iterations: tuple = ()  # one inner-solve count per Newton iteration


@dataclass(frozen=True, eq=False)
class ContinuationResult:
    steps: tuple
    termination: str

    @property
    def completed(self) -> bool:
        return self.termination == "completed"


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
        E = curvature(GaugePotential(a, self.flux))
        return curvature_residual(E, self.s), codiff(a), field_mean(a)

    def res_norm(self, parts) -> float:
        w6, w0, mu = parts
        return math.sqrt(field_inner(w6, w6) + field_inner(w0, w0)
                         + float(np.dot(mu, mu)))

    def lin_weight(self, a: FormField) -> FormField:
        E = curvature(GaugePotential(a, self.flux))
        return _residual_weight(wedge_field(E, E), self.s)

    def apply_j(self, W: FormField, b: FormField):
        return wedge_field(d(b), W), codiff(b), field_mean(b)

    def apply_jt(self, W: FormField, w6: FormField, w0: FormField,
                 mu: np.ndarray) -> FormField:
        """Adjoint of apply_j under the mean-based inner products.

        The 6-form block factors through d, whose adjoint is codiff; the
        wedge-by-W factor is transposed against the same coefficient table.
        The adjoint of the mean block sends mu to the constant field mu.
        """
        out = codiff(_wedge_by_w_adjoint(w6, W)) + d(w0)
        return out + FormField(self.grid, 1,
                               np.tile(mu, (self.grid.npts, 1)))


def _wedge_by_w_adjoint(y: FormField, W: FormField) -> FormField:
    """Adjoint of the pointwise map x (2-form) -> x ^ W, W a fixed 4-form."""
    table = tables.wedge_adjoint_arrays(7, 2, 4)
    vals = wedge_fields(y.values, W.values, *table, len(blades(7, 2)))
    return FormField(y.grid, 2, vals)


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


def _apply_modes(blocks: np.ndarray, f: FormField) -> FormField:
    """The 1-form whose real-FFT mode m is blocks[m] times mode m of f."""
    grid = f.grid
    axes = tuple(range(grid.n_active))
    spec = np.fft.rfftn(f.values.reshape(grid.shape + (7,)), axes=axes)
    out = np.einsum("mab,mb->ma", blocks, spec.reshape(-1, 7))
    vals = np.fft.irfftn(out.reshape(spec.shape), s=grid.shape, axes=axes)
    return FormField(grid, 1, vals.reshape(grid.npts, 7))


def _mean_w_inverse(grid: TorusGrid, W: FormField):
    """Inverse blocks of the normal operator at mean(W), or None when a block
    is singular or its 1-norm condition number exceeds _MAX_BLOCK_COND (the
    caller then runs plain CG)."""
    blocks = _normal_symbol(grid, field_mean(W))
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        return None
    norm1 = [np.abs(m).sum(axis=1).max(axis=1) for m in (blocks, inv)]
    return inv if np.all(norm1[0] * norm1[1] <= _MAX_BLOCK_COND) else None


@dataclass(frozen=True)
class _InnerSolve:
    """How one inner solve ended: CG iterations, |J^T r| / |J^T rhs| at the
    end, and whether it stopped at max_iter short of the tolerance."""

    iterations: int
    rel_residual: float
    hit_max_iter: bool


def _cgnr(system: _ScaledSystem, W: FormField, rhs_parts, tol: float = 1e-12,
          max_iter: int = 2000):
    """Preconditioned CG on the normal equations J^T J x = J^T rhs.

    The preconditioner is the exact inverse of J^T J with W replaced by its
    mean, applied per Fourier mode (Concus and Golub 1973).  The stop rule
    reads the unpreconditioned gradient, |J^T r| <= tol * |J^T rhs|.
    Returns (x, _InnerSolve).
    """
    x = FormField.zero(system.grid, 1)
    r6, r0, rm = rhs_parts
    g = system.apply_jt(W, r6, r0, rm)
    g0 = field_l2(g)
    if g0 == 0.0:
        return x, _InnerSolve(0, 0.0, False)
    inv = _mean_w_inverse(system.grid, W)
    z = g if inv is None else _apply_modes(inv, g)
    p = z
    gz = field_inner(g, z)
    rel = 1.0
    it = 0
    while it < max_iter:
        j6, j0, jm = system.apply_j(W, p)
        denom = field_inner(j6, j6) + field_inner(j0, j0) + float(np.dot(jm, jm))
        if denom == 0.0:
            break
        alpha = gz / denom
        x = x + alpha * p
        r6 = r6 - alpha * j6
        r0 = r0 - alpha * j0
        rm = rm - alpha * jm
        g = system.apply_jt(W, r6, r0, rm)
        it += 1
        rel = field_l2(g) / g0
        if rel <= tol:
            break
        z = g if inv is None else _apply_modes(inv, g)
        gz_new = field_inner(g, z)
        p = z + (gz_new / gz) * p
        gz = gz_new
    return x, _InnerSolve(it, rel, it == max_iter and rel > tol)


def _mean_sector_obstructed(system: _ScaledSystem, W: FormField,
                            w6: FormField, tol: float) -> bool:
    """Is the mean of the 6-form residual outside the range of the mean
    sector of the linearization?

    The mean sector is mu(b) = mean(db ^ W) in R^7; its range equals the
    range of the Gram matrix G built from the adjoint applied to the seven
    constant 6-forms.  An unreachable mean kills the Newton step.  On a
    closed background dE = 0 forces dW = 0, so integration by parts makes
    the whole sector vanish and mean(w6) = s^4 mean(E^3)/6 is a constant of
    the iteration: a nonzero value is the cohomological obstruction.  The
    Gram eigenvalues are therefore truncated at a rounding-noise floor, so
    that a noise-rank-7 G cannot fake reachability.
    """
    mu = field_mean(w6)
    mu_norm = float(np.linalg.norm(mu))
    if mu_norm <= tol:
        return False
    zero0 = FormField.zero(system.grid, 0)
    zmean = np.zeros(7)
    adj = []
    for j in range(7):
        unit = np.zeros(7)
        unit[j] = 1.0
        cf = FormField(system.grid, 6, np.tile(unit, (system.grid.npts, 1)))
        adj.append(system.apply_jt(W, cf, zero0, zmean))
    G = np.array([[field_inner(adj[i], adj[j]) for j in range(7)]
                  for i in range(7)])
    noise = 1e-10 * field_l2(W) * (2.0 * math.pi * system.grid.N)
    evals, evecs = np.linalg.eigh(G)
    keep = evals > max(noise * noise, 1e-20 * float(evals[-1]))
    basis = evecs[:, keep]
    gap = float(np.linalg.norm(mu - basis @ (basis.T @ mu)))
    return gap > 1e-6 * mu_norm


def continuation(flux: Flux, schedule=None, tol: float = 1e-10,
                 max_newton: int = 12, grid: TorusGrid | None = None,
                 initial: GaugePotential | None = None,
                 warm_start: bool = True) -> ContinuationResult:
    """Trace the gauge-fixed scaled equation along increasing s.

    Each schedule entry runs Gauss-Newton with preconditioned conjugate-
    gradient inner solves (``_cgnr``), starting from the previously accepted
    solution (warm_start) or from `initial` at every entry (warm_start=False;
    from a = 0 when no initial is given).  Termination is "completed", a
    Newton divergence report (naming an inner solve that stopped at its
    iteration cap), or a mean-sector rank deficiency, which on the torus
    signals the cohomological obstruction mean(E^3) != 0.
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
    if initial is not None and initial.grid != grid:
        raise InputError("initial potential lives on a different grid")
    restart = initial if initial is not None else base
    current = restart
    steps = []
    termination = "completed"
    for s in schedule:
        system = _ScaledSystem(flux, grid, s)
        a = (current if warm_start else restart).a
        with _finite(f"continuation at s = {s:g}"):
            parts = system.residual(a)
            rnorm = system.res_norm(parts)
        history = [rnorm]
        cg_iters = []
        failed = None
        iters = 0
        obstructed = False
        while rnorm > tol and iters < max_newton:
            with _finite(f"newton iteration {iters + 1} at s = {s:g}"):
                W = system.lin_weight(a)
                if _mean_sector_obstructed(system, W, parts[0], tol):
                    obstructed = True
                    break
                dx, inner = _cgnr(system, W, (-parts[0], -parts[1], -parts[2]))
                cg_iters.append(inner.iterations)
                if inner.hit_max_iter:
                    failed = inner
                a = a + dx
                parts = system.residual(a)
                rnorm = system.res_norm(parts)
            history.append(rnorm)
            iters += 1
        pot = GaugePotential(a, flux)
        steps.append(ContinuationStep(s, pot, rnorm, iters, tuple(history),
                                      tuple(cg_iters)))
        if obstructed:
            termination = (f"cohomological obstruction suspected at s = {s:g}: "
                           "mean-sector rank deficiency in the linearization")
            break
        if rnorm > tol:
            termination = (f"newton divergence at s = {s:g}: residual "
                           f"{rnorm:.3e} after {iters} iterations")
            if failed is not None:
                termination += (f"; inner solve hit {failed.iterations} "
                                f"iterations at relative residual "
                                f"{failed.rel_residual:.1e}")
            break
        current = pot
    return ContinuationResult(tuple(steps), termination)


# --- per-mode kernel/image probe ----------------------------------------------


def kernel_probe(kmax: int) -> dict:
    """Exact per-mode linear algebra for the linearization at a = 0.

    For every integer mode k with 0 < |k|_inf <= kmax, the symbol of
    b -> (dx_k ^ b) ^ *phi on 1-forms must have kernel dimension exactly 1
    (the pure gauge direction span{k}), and its column span must equal the
    span of {dx_k ^ gamma : gamma a 5-form}.

    Both symbols are linear in k, so the matrices of c*k are c times those
    of k and, for every integer c != 0, have the same ranks.  Every nonzero
    mode of the box is c*k for exactly one primitive k (gcd of its entries
    1, first nonzero entry positive) and one c with 0 < |c| <= kmax //
    |k|_inf.  So only those representatives are eliminated, and each counts
    with weight 2 * (kmax // |k|_inf); ``modes``, the histogram and
    ``image_rank_matches`` are weighted sums over all modes of the box, and
    ``representatives`` is the number of modes eliminated.

    Ranks are fraction-free in int64, so every pre-division product
    ``M * pivot - colvals * pivrow`` of the elimination, not only every
    minor, must stay below 2^63.  At kmax = 16 the tests find at most
    2^59.2, exactly, on the 64 corner modes and on seeded modes of the
    outer shell; Hadamard's bound (2^63.5) is too loose to prove it.
    """
    if kmax < 1:
        raise InputError("kmax must be at least 1")
    if kmax > 16:
        raise InputError("kmax > 16 would overflow the exact integer ranks")
    T, U = tables.mode_kernel_tensors()
    reps, weights = _mode_representatives(kmax)
    n_reps = reps.shape[0]
    kernel_dims = np.empty(n_reps, dtype=np.int64)
    image_ok = np.empty(n_reps, dtype=bool)
    chunk = 1024  # 8192 ran field_bulk ~10% slower with twice the peak RSS
    for lo in range(0, n_reps, chunk):
        K = reps[lo:lo + chunk]
        A = np.einsum("mi,ijb->mjb", K, T)
        B = np.einsum("mi,ijg->mjg", K, U)
        rA = bareiss_ranks(A)
        rB = bareiss_ranks(B)
        rAB = bareiss_ranks(np.ascontiguousarray(np.concatenate([A, B], axis=2)))
        kernel_dims[lo:lo + chunk] = 7 - rA
        image_ok[lo:lo + chunk] = (rA == rB) & (rB == rAB)
    hist = {int(k): int(weights[kernel_dims == k].sum())
            for k in np.unique(kernel_dims)}
    return {
        "kmax": int(kmax),
        "modes": int(weights.sum()),
        "representatives": int(n_reps),
        "kernel_dim_histogram": hist,
        "kernel_all_dim_one": bool(np.all(kernel_dims == 1)),
        "image_rank_matches": int(weights[image_ok].sum()),
        "image_all_match": bool(np.all(image_ok)),
        "backend": backend_name(),
        "all_pass": bool(np.all(kernel_dims == 1) and np.all(image_ok)),
    }


def _mode_representatives(kmax: int):
    """One mode per line through the origin, with the number of nonzero
    modes of the box on that line: the primitive modes with |k|_inf <= kmax
    whose first nonzero entry is positive, and weights 2 * (kmax // |k|_inf).
    """
    side = np.arange(-kmax, kmax + 1, dtype=np.int64)
    modes = np.stack(np.meshgrid(*([side] * 7), indexing="ij"),
                     axis=-1).reshape(-1, 7)
    lead = modes[np.arange(modes.shape[0]), np.argmax(modes != 0, axis=1)]
    reps = modes[(lead > 0) & (np.gcd.reduce(modes, axis=1) == 1)]
    weights = 2 * (kmax // np.abs(reps).max(axis=1))
    return reps, weights
