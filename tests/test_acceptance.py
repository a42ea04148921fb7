"""Acceptance gate: the eight headline checks, one test each, at their
stated tolerances and runtime budgets.  Run with -v for one line per
criterion."""

import math
import time

import numpy as np

from ddt7 import ddt, g2, prover
from ddt7.exalg import KForm, blades, hodge, inner, interior
from ddt7.flow import (DEFAULT_SCHEDULE, FlowConfig, continuation,
                       cylinder_check, flow_run, instanton_solve,
                       kernel_probe)
from ddt7.scalars import FLOAT, RATIONAL, frac, rational
from ddt7.torus import (Flux, GaugePotential, TorusGrid, coclosed_project,
                        gauge_shift, kl_functional, random_coclosed_potential,
                        random_field, random_potential, residual_field,
                        theta3, dtheta4, nu, nu_derivative_check)

CALIBRATED = Flux.from_entries({(1, 2): 1, (4, 7): 1})
OBSTRUCTED = Flux.from_entries({(1, 2): 1, (4, 7): 2, (5, 6): -1})


def test_criterion_1_symbolic_catalog_and_mutations():
    """All 12 identities cancel exactly; every canonical single-site
    mutation fails with a witness monomial; total time <= 60 s."""
    t0 = time.perf_counter()
    reports = prover.verify_all()
    assert len(reports) == 12
    for r in reports:
        assert r.reduced_to_zero, r.identity
    mutations = prover.canonical_mutations()
    assert len(mutations) == 12
    for ident, site, value in mutations:
        rep = prover.verify(prover.mutate(ident, site, value))
        assert not rep.reduced_to_zero, (ident, site)
        assert rep.witness is not None
        assert rep.witness["coefficient"] not in ("0", "")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"identity suite took {elapsed:.1f} s"


def test_criterion_2_float_property_suite():
    """1000 random 2-forms, coefficients uniform in [-1, 1]: every identity
    and decomposition property holds to 1e-10 relative; the deformed metric
    determinant is positive in every sample."""
    out = prover.float_suite(1000, seed=2026, tol=1e-10)
    assert out["samples"] == 1000
    assert max(out["identity_max_rel"].values()) <= 1e-10
    assert max(out["decomposition_max_rel"].values()) <= 1e-10
    assert out["det_metric_positive"]
    assert out["det_metric_min"] > 0.0
    assert out["failures"] == 0 and out["pass"]


def test_criterion_3_pairings_match_residuals():
    """200 random (E, adot): the two pairings over the 7 coordinate
    directions vanish exactly when the corresponding 6-form residuals do,
    and for theta != 0 the combined residual vanishes exactly when both
    do; all at 1e-10 relative."""
    rng = np.random.default_rng(43)
    ring = FLOAT
    basis_b = [KForm.from_blades(7, 1, {(i,): 1.0}, ring) for i in range(1, 8)]
    tol = 1e-10
    n_solved = 0
    for sample in range(200):
        E = KForm.from_coeffs(7, 2, [float(x) for x in rng.uniform(-1, 1, 21)],
                              ring)
        theta = float(ddt.theta_weight(E))
        solved = sample % 2 == 1 and abs(theta) > 0.2
        if solved:
            adot = ddt.grad_density(E)
            n_solved += 1
        else:
            adot = KForm.from_coeffs(7, 1,
                                     [float(x) for x in rng.uniform(-1, 1, 7)],
                                     ring)
        scale = max(1.0, (1.0 + float(inner(E, E))) ** 2)

        r1 = max(abs(float(c)) for c in ddt.spin7_res1(E, adot).coeffs)
        r2 = max(abs(float(c)) for c in ddt.spin7_res2(E, adot).coeffs)
        p1 = max(abs(float(g2.spin7_pair1(E, adot, b))) for b in basis_b)
        p2 = max(abs(float(g2.spin7_pair2(E, adot, b))) for b in basis_b)
        assert (p1 <= tol * scale) == (r1 <= tol * scale), sample
        assert (p2 <= tol * scale) == (r2 <= tol * scale), sample
        if abs(theta) > 0.2:
            c = max(abs(float(x)) for x in ddt.spin7_combined(E, adot).coeffs)
            both = r1 <= tol * scale and r2 <= tol * scale
            assert (c <= tol * scale) == both, sample
        if solved:
            assert max(r1, r2, p1, p2) <= tol * scale, sample
    assert n_solved >= 60  # the iff was exercised from both sides


def test_criterion_4_moment_map_at_desk_scale():
    """On the (1,2,3)-axis grid with N = 8, 50 random draws: the analytic
    derivative of the moment pairing equals the 3-form evaluation to 1e-10
    relative; antisymmetry is exact; the closedness sum and every gauge
    shift stay below 1e-10."""
    grid = TorusGrid((1, 2, 3), 8)
    rng = np.random.default_rng(44)
    flux = Flux.zero()
    for _ in range(50):
        pot = random_potential(grid, flux, rng, scale=0.05)
        g1f = random_field(grid, 0, rng)
        g2f = random_field(grid, 0, rng)
        b = random_field(grid, 1, rng)
        b1, b2, b3, b4 = (random_field(grid, 1, rng) for _ in range(4))
        chi = random_field(grid, 0, rng, scale=0.5)
        winding = tuple(int(x) for x in rng.integers(-2, 3, size=7))

        lhs, rhs = nu_derivative_check(pot, g1f, g2f, b)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

        t123 = theta3(pot, b1, b2, b3)
        assert theta3(pot, b2, b1, b3) == -t123
        assert theta3(pot, b1, b3, b2) == -t123
        assert theta3(pot, b1, b1, b2) == 0.0
        assert abs(dtheta4(pot, b1, b2, b3, b4)) <= 1e-10

        shifted = gauge_shift(pot, chi, winding)
        assert abs(theta3(shifted, b1, b2, b3) - t123) <= 1e-10
        nu0 = nu(pot, g1f, g2f)
        assert abs(nu(shifted, g1f, g2f) - nu0) <= 1e-10
        kl0 = kl_functional(pot)
        assert abs(kl_functional(gauge_shift(pot, chi)) - kl0) \
            <= 1e-10 * max(1.0, abs(kl0))
        _, r0 = residual_field(pot)
        _, r1 = residual_field(shifted)
        assert abs(r1 - r0) <= 1e-10 * max(1.0, r0)


def test_criterion_5_flow_monotone_and_cylinder_rate():
    """200-step flow at dt = 1e-3 from a random small start over the
    doubly calibrated flux: the functional never decreases (1e-9 of its
    scale); halving dt shrinks the product-space consistency residuals by
    a factor in [3, 5]; all inside 5 minutes."""
    t0 = time.perf_counter()
    grid = TorusGrid((1, 2), 4)
    rng = np.random.default_rng(45)
    pot0 = random_coclosed_potential(grid, CALIBRATED, rng, scale=0.02)
    traj = flow_run(pot0, FlowConfig(dt=1e-3, steps=200, scheme="rk4",
                                     record_every=10))
    assert traj.termination == "completed"
    scale = float(np.max(np.abs(traj.functional))) or 1.0
    assert np.all(np.diff(traj.functional) >= -1e-9 * scale)

    half = flow_run(pot0, FlowConfig(dt=5e-4, steps=400, scheme="rk4",
                                     record_every=10))
    full_chk = cylinder_check(traj)
    half_chk = cylinder_check(half)
    assert half_chk["spacing"] * 2 == full_chk["spacing"]
    for key in ("max_res1", "max_res2"):
        ratio = full_chk[key] / half_chk[key]
        assert 3.0 <= ratio <= 5.0, (key, ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0, f"flow check took {elapsed:.1f} s"


def test_criterion_6_mode_kernel_census():
    """Every nonzero integer mode with |k|_inf <= 2: kernel dimension
    exactly 1 and image ranks equal, in exact arithmetic, within 30 s."""
    t0 = time.perf_counter()
    out = kernel_probe(2)
    elapsed = time.perf_counter() - t0
    assert out["modes"] == 5 ** 7 - 1
    assert out["representatives"] == 37969
    assert out["kernel_dim_histogram"] == {1: 5 ** 7 - 1}
    assert out["kernel_all_dim_one"]
    assert out["image_all_match"]
    assert out["all_pass"]
    assert elapsed <= 30.0, f"mode census took {elapsed:.1f} s"


def test_criterion_7_scale_continuation():
    """Continuation to s = 1 over the doubly calibrated flux: the trivial
    branch stays below 1e-12 at every s; a restart from 1e-2 noise
    re-converges below 1e-10 with quadratically contracting Newton
    residuals; the flux with no vector part but a nonzero cube F^3 reports
    the cohomological obstruction at the first s > 0."""
    grid = TorusGrid((1, 2), 4)

    trivial = continuation(CALIBRATED, grid=grid)
    assert trivial.completed
    assert tuple(st.s for st in trivial.steps) == DEFAULT_SCHEDULE
    assert all(st.residual_norm <= 1e-12 for st in trivial.steps)

    rng = np.random.default_rng(46)
    base = instanton_solve(CALIBRATED, grid)
    noise = coclosed_project(random_field(grid, 1, rng, scale=1e-2))
    start = GaugePotential(base.a + noise, CALIBRATED)
    perturbed = continuation(CALIBRATED, grid=grid, initial=start,
                             warm_start=False)
    assert perturbed.completed
    quadratic_steps = 0
    for st in perturbed.steps:
        assert st.residual_norm <= 1e-10
        h = st.residual_history
        for i in range(len(h) - 1):
            if 1e-12 < h[i] <= 0.5:
                assert h[i + 1] <= 10.0 * h[i] ** 2 + 1e-14, (st.s, h)
        if st.newton_iterations >= 2:
            quadratic_steps += 1
    assert quadratic_steps >= 1

    blocked = continuation(OBSTRUCTED, grid=grid)
    assert not blocked.completed
    assert "obstruction" in blocked.termination
    assert blocked.steps[0].s == 0.0
    assert blocked.steps[-1].s == DEFAULT_SCHEDULE[1]  # first s > 0


def test_criterion_8_pointwise_residual_closed_form():
    """For u along e_1 the residual of the contracted background is
    (|u|^2 - 3) * u-flat: exact at u = (26/15) e_1, and below 1e-12 in
    float at the root |u| = sqrt(3)."""
    u = KForm(7, 1, (rational(26, 15),) + (RATIONAL.zero,) * 6, RATIONAL)
    E = interior(u, g2.phi_for(RATIONAL))
    R = ddt.ddt_residual(E)
    expected = hodge(KForm.from_blades(7, 1, {(1,): frac(RATIONAL, 26, 3375)},
                                       RATIONAL))
    assert R.as_blades() == expected.as_blades()
    norm_sq = inner(hodge(R), hodge(R))
    assert norm_sq == frac(RATIONAL, 26 * 26, 3375 * 3375)

    r3 = math.sqrt(3.0)
    uf = KForm(7, 1, (r3,) + (0.0,) * 6, FLOAT)
    Ef = interior(uf, g2.phi_for(FLOAT))
    Rf = ddt.ddt_residual(Ef)
    assert max(abs(float(c)) for c in Rf.coeffs) <= 1e-12
