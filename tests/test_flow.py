"""Desk-scale dynamics: ascent flow, product-space consistency, the
calibrated-background solve, scale continuation, and the per-mode probe."""

import itertools
import math

import numpy as np
import pytest

from ddt7 import flow, kernels, tables
from ddt7.errors import (DegenerateMetricError, InputError, NumericalError,
                         ObstructionError)
from ddt7.flow import (DEFAULT_SCHEDULE, FlowConfig, ascent_field,
                       continuation, cylinder_check, cylinder_check_samples,
                       eta_field, flow_run, flow_step, instanton_solve,
                       kernel_probe, spin7_residual_fields, theta_field)
from ddt7.torus import (Flux, FormField, GaugePotential, TorusGrid,
                        coclosed_project, codiff, curvature, field_l2,
                        field_mean, kl_functional, random_coclosed_potential,
                        random_field, residual_field, wedge_const,
                        zero_potential)
from ddt7.g2 import star_phi_for
from ddt7.scalars import FLOAT

GRID = TorusGrid((1, 2), 4)
CALIBRATED = Flux.from_entries({(1, 2): 1, (4, 7): 1})
OBSTRUCTED = Flux.from_entries({(1, 2): 1, (4, 7): 2, (5, 6): -1})


def test_flowconfig_validation():
    for kw in ({"dt": 0.0}, {"steps": 0}, {"scheme": "rk2"},
               {"theta_min": 0.0}, {"record_every": 0}):
        with pytest.raises(InputError):
            FlowConfig(**kw)
    with pytest.raises(InputError):
        flow_step(zero_potential(GRID, Flux.zero()), 1e-3, scheme="midpoint")


def test_instanton_zero_flux():
    pot = instanton_solve(Flux.zero(), GRID)
    assert not np.any(pot.a.values)


def test_instanton_calibrated_flux():
    """n12 = n47 = 1 has no vector-type part, so a = 0 already solves
    E ^ *phi = 0 pointwise."""
    pot = instanton_solve(CALIBRATED, GRID)
    assert not np.any(pot.a.values)
    E = curvature(pot)
    assert field_l2(wedge_const(E, star_phi_for(FLOAT))) == 0.0
    assert field_l2(codiff(pot.a)) == 0.0
    assert np.max(np.abs(field_mean(pot.a))) == 0.0


def test_instanton_obstructed_flux():
    with pytest.raises(ObstructionError) as e:
        instanton_solve(Flux.from_entries({(1, 2): 1}), GRID)
    assert "Chern class" in str(e.value)


def test_theta_field_frozen_values():
    two_pi_sq = (2 * math.pi) ** 2
    E = curvature(zero_potential(GRID, CALIBRATED))
    assert np.allclose(theta_field(E), 1 + two_pi_sq, rtol=1e-14, atol=0)
    bad = Flux.from_entries({(1, 2): 1, (4, 7): -1})
    Eb = curvature(zero_potential(GRID, bad))
    assert np.allclose(theta_field(Eb), 1 - two_pi_sq, rtol=1e-14, atol=0)


def test_degenerate_metric_guard():
    # theta = 1 - (2 pi)^2 < 0 everywhere, so the first step must refuse
    pot = zero_potential(GRID, Flux.from_entries({(1, 2): 1, (4, 7): -1}))
    with pytest.raises(DegenerateMetricError):
        ascent_field(pot)
    traj = flow_run(pot, FlowConfig(steps=5))
    assert traj.termination.startswith("left almost-calibrated set at step 1")
    assert len(traj.times) == 1


def test_calibrated_background_is_a_fixed_point():
    pot = zero_potential(GRID, CALIBRATED)
    assert field_l2(eta_field(curvature(pot))) == 0.0
    traj = flow_run(pot, FlowConfig(dt=1e-2, steps=8, record_every=4))
    assert traj.termination == "completed"
    assert field_l2(traj.samples[-1].a) == 0.0
    assert np.all(traj.functional == 0.0)
    assert np.all(traj.residual_l2 == 0.0)


def test_euler_step_is_dt_times_ascent():
    rng = np.random.default_rng(20)
    pot = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.05)
    dt = 1e-3
    v = ascent_field(pot)
    assert np.array_equal(flow_step(pot, dt).a.values,
                          pot.a.values + dt * v.values)
    inc_full = flow_step(pot, dt).a.values - pot.a.values
    inc_half = flow_step(pot, dt / 2).a.values - pot.a.values
    assert np.allclose(inc_half, inc_full / 2, rtol=0, atol=1e-15)


def test_non_finite_solver_values_are_numerical_failures():
    rng = np.random.default_rng(22)
    pot = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.05)
    with pytest.raises(NumericalError, match="rk4 step"):
        flow_step(pot, 1e308, "rk4")
    with pytest.raises(NumericalError, match="^flow step 1: rk4 step"):
        flow_run(pot, FlowConfig(dt=1e308, steps=2, scheme="rk4"))
    huge = GaugePotential(1e200 * coclosed_project(random_field(GRID, 1, rng)),
                          CALIBRATED)
    with pytest.raises(NumericalError, match="at s = 0"):
        continuation(CALIBRATED, grid=GRID, initial=huge)
    with pytest.raises(NumericalError, match="at s = 1e\\+100"):
        continuation(CALIBRATED, schedule=(0.0, 1e100), grid=GRID)


def test_flow_is_monotone_and_samples_line_up():
    rng = np.random.default_rng(21)
    pot0 = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.02)
    cfg = FlowConfig(dt=1e-3, steps=60, record_every=10)
    traj = flow_run(pot0, cfg)
    assert traj.termination == "completed"
    assert len(traj.times) == 61
    scale = max(abs(float(traj.functional[0])), abs(float(traj.functional[-1])), 1.0)
    assert np.all(np.diff(traj.functional) >= -1e-9 * scale)
    assert traj.sample_times == tuple(0.01 * i for i in range(7))
    assert len(traj.samples) == 7
    assert np.all(traj.theta_min_per_step > 0)


def test_flow_diagnostics_equal_the_public_functionals():
    """The per-step scalars share one d(a) and must equal, bit for bit, the
    public functionals evaluated on the stored samples."""
    rng = np.random.default_rng(25)
    pot0 = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.02)
    traj = flow_run(pot0, FlowConfig(dt=1e-3, steps=12, scheme="rk4",
                                     record_every=1))
    assert traj.termination == "completed"
    assert len(traj.samples) == len(traj.times) == 13
    assert np.array_equal(traj.functional,
                          [kl_functional(p) for p in traj.samples])
    assert np.array_equal(traj.residual_l2,
                          [residual_field(p)[1] for p in traj.samples])
    assert np.array_equal(traj.theta_min_per_step,
                          [np.min(theta_field(curvature(p)))
                           for p in traj.samples])


def test_spin7_residuals_vanish_along_ascent():
    rng = np.random.default_rng(22)
    pot = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.1)
    E = curvature(pot)
    adot = ascent_field(pot)
    r1, r2 = spin7_residual_fields(E, adot)
    assert field_l2(r1) < 1e-9
    assert field_l2(r2) < 1e-9
    # a wrong velocity must register in both residuals
    off = adot + random_field(GRID, 1, rng, scale=0.5)
    w1, w2 = spin7_residual_fields(E, off)
    assert field_l2(w1) > 1e-2 and field_l2(w2) > 1e-2


def test_cylinder_check_stationary_is_exactly_zero():
    pot = zero_potential(GRID, CALIBRATED)
    times = [0.0, 0.1, 0.2, 0.3]
    out = cylinder_check_samples(times, [pot] * 4)
    assert out["spacing"] == 0.1
    assert out["max_res1"] == 0.0 and out["max_res2"] == 0.0


def test_cylinder_check_input_validation():
    pot = zero_potential(GRID, CALIBRATED)
    with pytest.raises(InputError):
        cylinder_check_samples([0.0, 0.1], [pot] * 2)
    with pytest.raises(InputError):
        cylinder_check_samples([0.0, 0.1, 0.15], [pot] * 3)
    with pytest.raises(InputError):
        cylinder_check_samples([0.0, 0.1, 0.1], [pot] * 3)
    with pytest.raises(InputError):
        cylinder_check_samples([0.0, 0.1, 0.2], [pot] * 2)


def test_cylinder_residual_is_second_order_in_spacing():
    """Central differencing of the sampled flow: halving the sample spacing
    must shrink the product-space residuals by about 4."""
    rng = np.random.default_rng(23)
    pot0 = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.05)
    coarse = flow_run(pot0, FlowConfig(dt=2e-3, steps=40, scheme="rk4",
                                       record_every=10))
    fine = flow_run(pot0, FlowConfig(dt=1e-3, steps=80, scheme="rk4",
                                     record_every=10))
    a = cylinder_check(coarse)
    b = cylinder_check(fine)
    assert b["spacing"] * 2 == a["spacing"]
    for key in ("max_res1", "max_res2"):
        ratio = a[key] / b[key]
        assert 3.0 <= ratio <= 5.0, (key, ratio)


def test_continuation_trivial_branch():
    res = continuation(CALIBRATED, grid=GRID)
    assert res.completed
    assert tuple(st.s for st in res.steps) == DEFAULT_SCHEDULE
    for st in res.steps:
        assert st.residual_norm <= 1e-12
        assert st.newton_iterations == 0


def test_continuation_perturbed_restart_recovers():
    rng = np.random.default_rng(2)
    base = instanton_solve(CALIBRATED, GRID)
    noise = coclosed_project(random_field(GRID, 1, rng, scale=1e-2))
    start = GaugePotential(base.a + noise, CALIBRATED)
    res = continuation(CALIBRATED, grid=GRID, initial=start, warm_start=False)
    assert res.completed
    for st in res.steps:
        assert st.residual_norm <= 1e-10
        h = st.residual_history
        # quadratic contraction once inside the basin
        for i in range(len(h) - 1):
            if h[i] <= 0.5 and h[i] > 1e-12:
                assert h[i + 1] <= 10 * h[i] ** 2 + 1e-14
    assert any(st.newton_iterations >= 2 for st in res.steps)


@pytest.mark.parametrize("grid", [TorusGrid((1, 2), 4), TorusGrid((1, 2, 3), 8),
                                  TorusGrid((1, 2, 3, 4), 4)])
def test_normal_symbol_is_the_constant_weight_normal_operator(grid):
    """At a constant W the per-mode blocks reproduce J^T J exactly."""
    rng = np.random.default_rng(len(grid.active_axes))
    system = flow._ScaledSystem(CALIBRATED, grid, 0.5)
    w_phi = -np.array([float(c) for c in star_phi_for(FLOAT).coeffs])
    weights = [w_phi] + [rng.normal(size=35) for _ in range(2)]
    for w in weights:
        W = FormField(grid, 4, np.tile(w, (grid.npts, 1)))
        N = flow._normal_symbol(grid, w)
        for _ in range(2):
            b = random_field(grid, 1, rng, kmax=grid.N // 2 - 1) \
                + FormField(grid, 1, np.tile(rng.normal(size=7), (grid.npts, 1)))
            want = system.apply_jt(W, *system.apply_j(W, b))
            got = flow._apply_modes(N, b)
            assert field_l2(got - want) <= 1e-12 * field_l2(want)


def test_mode_weight_tensor_at_star_phi_is_the_probe_tensor():
    w = np.array([float(c) for c in star_phi_for(FLOAT).coeffs])
    T = np.tensordot(w, tables.mode_weight_tensor(), axes=1)
    assert np.array_equal(T, tables.mode_kernel_tensors()[0])


@pytest.mark.parametrize("grid", [GRID, TorusGrid((1, 2, 3), 8)])
def test_inner_solves_at_s0_stop_at_once(grid):
    """W = -*phi exactly at s = 0, so the preconditioner is J^T J's inverse."""
    rng = np.random.default_rng(2)
    noise = coclosed_project(random_field(grid, 1, rng, scale=1e-2,
                                          kmax=grid.N // 2 - 1))
    start = GaugePotential(instanton_solve(CALIBRATED, grid).a + noise,
                           CALIBRATED)
    schedule = DEFAULT_SCHEDULE if grid == GRID else (0.0,)
    res = continuation(CALIBRATED, schedule=schedule, grid=grid,
                       initial=start, warm_start=False)
    first = res.steps[0]
    assert first.s == 0.0 and first.newton_iterations >= 1
    assert all(1 <= n <= 2 for n in first.cg_iterations)
    for st in res.steps:
        assert len(st.cg_iterations) == st.newton_iterations


@pytest.mark.parametrize("grid", [GRID, TorusGrid((1, 2, 3), 8),
                                  TorusGrid((1, 2, 3), 2)])
def test_degenerate_mean_weight_falls_back(grid):
    """An all-ones mean(W) makes some blocks singular (N = 2 has only dead
    modes); the inner solve then runs unpreconditioned and still returns."""
    rng = np.random.default_rng(5)
    system = flow._ScaledSystem(CALIBRATED, grid, 0.5)
    W = FormField(grid, 4, np.ones((grid.npts, 35)))
    if grid.N > 2:
        assert flow._mean_w_inverse(grid, W) is None
    rhs = (random_field(grid, 6, rng), random_field(grid, 0, rng),
           rng.normal(size=7))
    x, inner = flow._cgnr(system, W, rhs)
    assert np.all(np.isfinite(x.values))
    assert not inner.hit_max_iter and inner.rel_residual <= 1e-12


def test_near_singular_mean_weight_falls_back():
    """Blocks that invert but with condition far above 1e6 would make PCG
    stall; the solve runs plain CG instead and converges."""
    rng = np.random.default_rng(7)
    system = flow._ScaledSystem(CALIBRATED, GRID, 0.5)
    w = np.ones(35) + 1e-6 * rng.normal(size=35)
    np.linalg.inv(flow._normal_symbol(GRID, w))  # invertible, so not caught there
    W = FormField(GRID, 4, np.tile(w, (GRID.npts, 1))
                  + 0.1 * random_field(GRID, 4, rng).values)
    W = W - FormField(GRID, 4, np.tile(field_mean(W) - w, (GRID.npts, 1)))
    assert flow._mean_w_inverse(GRID, W) is None
    rhs = (random_field(GRID, 6, rng), random_field(GRID, 0, rng),
           rng.normal(size=7))
    _, inner = flow._cgnr(system, W, rhs)
    assert not inner.hit_max_iter and inner.rel_residual <= 1e-12


def test_newton_divergence_names_the_failed_inner_solve(monkeypatch):
    cgnr = flow._cgnr
    monkeypatch.setattr(flow, "_cgnr",
                        lambda *a, **k: cgnr(*a, **dict(k, max_iter=1)))
    rng = np.random.default_rng(2)
    start = GaugePotential(coclosed_project(random_field(GRID, 1, rng, scale=0.2)),
                           CALIBRATED)
    res = continuation(CALIBRATED, schedule=(0.0, 1.0), grid=GRID,
                       initial=start, warm_start=False, max_newton=2)
    assert not res.completed
    assert "inner solve hit 1 iterations at relative residual" in res.termination


def test_continuation_reports_obstruction():
    res = continuation(OBSTRUCTED, grid=GRID)
    assert not res.completed
    assert "obstruction" in res.termination
    assert "s = 0.015625" in res.termination
    assert res.steps[0].s == 0.0
    assert res.steps[0].residual_norm <= 1e-12
    assert res.steps[-1].s == 1.0 / 64


def test_continuation_validation():
    with pytest.raises(InputError):
        continuation(CALIBRATED, schedule=(0.5, 1.0), grid=GRID)
    with pytest.raises(InputError):
        continuation(CALIBRATED, schedule=(0.0, 0.5, 0.5), grid=GRID)
    other = zero_potential(TorusGrid((1, 2), 8), CALIBRATED)
    with pytest.raises(InputError):
        continuation(CALIBRATED, grid=GRID, initial=other)


def test_kernel_probe_all_modes_once():
    out = kernel_probe(1)
    assert out["modes"] == 3 ** 7 - 1
    assert out["kernel_dim_histogram"] == {1: 3 ** 7 - 1}
    assert out["kernel_all_dim_one"]
    assert out["image_rank_matches"] == out["modes"]
    assert out["image_all_match"]
    assert out["all_pass"]
    assert out["backend"] == "numpy"
    assert out["representatives"] == 1093
    with pytest.raises(InputError):
        kernel_probe(0)
    with pytest.raises(InputError):
        kernel_probe(17)


def _kernel_probe_all_modes(kmax):
    """The census on every nonzero mode of the box, one elimination per
    mode: the oracle for the census on representatives."""
    T, U = tables.mode_kernel_tensors()
    side = np.arange(-kmax, kmax + 1, dtype=np.int64)
    modes = np.stack(np.meshgrid(*([side] * 7), indexing="ij"),
                     axis=-1).reshape(-1, 7)
    modes = modes[np.any(modes != 0, axis=1)]
    n_modes = modes.shape[0]
    kernel_dims = np.empty(n_modes, dtype=np.int64)
    image_ok = np.empty(n_modes, dtype=bool)
    chunk = 8192
    for lo in range(0, n_modes, chunk):
        K = modes[lo:lo + chunk]
        A = np.einsum("mi,ijb->mjb", K, T)
        B = np.einsum("mi,ijg->mjg", K, U)
        rA = kernels.bareiss_ranks(A)
        rB = kernels.bareiss_ranks(B)
        rAB = kernels.bareiss_ranks(
            np.ascontiguousarray(np.concatenate([A, B], axis=2)))
        kernel_dims[lo:lo + chunk] = 7 - rA
        image_ok[lo:lo + chunk] = (rA == rB) & (rB == rAB)
    hist = {int(k): int(c) for k, c in
            zip(*np.unique(kernel_dims, return_counts=True))}
    return {
        "modes": int(n_modes),
        "kernel_dim_histogram": hist,
        "image_rank_matches": int(np.count_nonzero(image_ok)),
        "backend": kernels.backend_name(),
        "all_pass": bool(np.all(kernel_dims == 1) and np.all(image_ok)),
    }


@pytest.mark.parametrize("kmax", [1, 2])
def test_kernel_probe_matches_all_modes(kmax):
    got = kernel_probe(kmax)
    want = _kernel_probe_all_modes(kmax)
    assert {key: got[key] for key in want} == want


@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_mode_representatives_partition_the_box(kmax):
    # every nonzero mode of the box is c * rep for exactly one pair
    reps, weights = flow._mode_representatives(kmax)
    assert weights.sum() == (2 * kmax + 1) ** 7 - 1
    multiples = []
    for c in range(1, kmax + 1):
        line = reps[c * np.abs(reps).max(axis=1) <= kmax]
        multiples += [c * line, -c * line]
    multiples = np.concatenate(multiples)
    assert len(multiples) == weights.sum()
    assert np.abs(multiples).max() <= kmax
    codes = (multiples + kmax) @ (2 * kmax + 1) ** np.arange(7)
    box = np.arange((2 * kmax + 1) ** 7)
    zero = (kmax * (2 * kmax + 1) ** np.arange(7)).sum()
    assert np.array_equal(np.sort(codes), box[box != zero])


def _bareiss_exact(mat):
    """Python-int Bareiss with the kernel's pivot choice (first nonzero at
    or below the row pointer).  Returns the rank and the largest magnitude
    among the two products and their difference, over every lane the
    kernel writes, before the exact division."""
    M = [[int(x) for x in row] for row in mat]
    nr, nc = len(M), len(M[0])
    r, prev, peak = 0, 1, 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pivot = M[r][col]
        for i in range(r + 1, nr):
            lead = M[i][col]
            for j in range(col, nc):
                a, b = M[i][j] * pivot, lead * M[r][j]
                peak = max(peak, abs(a), abs(b), abs(a - b))
                assert (a - b) % prev == 0
                M[i][j] = (a - b) // prev
        prev = pivot
        r += 1
    return r, peak


def test_census_int64_bound_at_kmax_16():
    # the census refuses kmax > 16; at 16 every pre-division product of
    # every matrix it eliminates must fit in int64.  Corner modes carry the
    # largest entries; seeded modes on the outer shell cover the rest.
    T, U = tables.mode_kernel_tensors()
    signs = np.array(list(itertools.product((1, -1), repeat=6)))
    corners = 16 * np.hstack([np.ones((64, 1), np.int64), signs])
    rng = np.random.default_rng(16)
    shell = rng.integers(-16, 17, size=(40, 7))
    shell[np.arange(40), rng.integers(0, 7, 40)] = rng.choice((-16, 16), 40)
    modes = np.concatenate([corners, shell]).astype(np.int64)
    A = np.einsum("mi,ijb->mjb", modes, T)
    B = np.einsum("mi,ijg->mjg", modes, U)
    peak = 0
    for mats in (A, B, np.concatenate([A, B], axis=2)):
        exact = [_bareiss_exact(m) for m in mats]
        assert kernels.bareiss_ranks(mats).tolist() == [e[0] for e in exact]
        peak = max(peak, max(e[1] for e in exact))
    assert peak < 2 ** 63


def test_mode_symbol_kernel_is_pure_gauge():
    # direct construction for k = e_1: the symbol kills exactly span{k}
    T, U = tables.mode_kernel_tensors()
    k = np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.int64)
    A = np.einsum("i,ijb->jb", k, T)
    assert not np.any(A @ k)
    assert np.linalg.matrix_rank(A.astype(float)) == 6
    B = np.einsum("i,ijg->jg", k, U)
    assert np.linalg.matrix_rank(B.astype(float)) == 6
