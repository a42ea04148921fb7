"""Desk-scale dynamics: ascent flow, product-space consistency, the
calibrated-background solve, scale continuation, and the per-mode probe."""

import itertools
import json
import math
import weakref

import numpy as np
import pytest

from ddt7 import ddt, exalg, flow, kernels, prover, tables, torus
from ddt7.errors import (DegenerateMetricError, InputError, NonFiniteError,
                         NumericalError, ObstructionError)
from ddt7.exalg import Endo, KForm, blades, wedge
from ddt7.flow import (DEFAULT_SCHEDULE, FlowConfig, ascent_field,
                       continuation, cylinder_check, cylinder_check_samples,
                       flow_run, flow_step, flow_steps, instanton_solve,
                       kernel_probe)
from ddt7.torus import (Flux, FormField, GaugePotential, TorusGrid,
                        coclosed_project, codiff, curvature, field_l2,
                        field_mean, kl_functional, random_coclosed_potential,
                        random_field, residual_field, wedge_const,
                        zero_potential)
from ddt7.g2 import phi_for, star_phi_for
from ddt7.scalars import FLOAT, RATIONAL

GRID = TorusGrid((1, 2), 4)
GRID512 = TorusGrid((1, 2, 3), 8)
CALIBRATED = Flux.from_entries({(1, 2): 1, (4, 7): 1})
OBSTRUCTED = Flux.from_entries({(1, 2): 1, (4, 7): 2, (5, 6): -1})


def test_flowconfig_validation():
    for kw in ({"dt": 0.0}, {"steps": 0}, {"scheme": "rk2"},
               {"theta_min": 0.0}, {"record_every": 0}):
        with pytest.raises(InputError):
            FlowConfig(**kw)
    with pytest.raises(InputError):
        flow_step(zero_potential(GRID, Flux.zero()), 1e-3, scheme="midpoint")


COUNT_SITES = {
    "FlowConfig.steps": lambda n: FlowConfig(steps=n),
    "FlowConfig.record_every": lambda n: FlowConfig(record_every=n),
    "TorusGrid.N": lambda n: TorusGrid((1, 2), n),
    "kernel_probe": kernel_probe,
    "float_suite": prover.float_suite,
    "random_field.kmax": lambda n: random_field(GRID, 1, np.random.default_rng(0), kmax=n),
}


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_counts_refuse_floats_and_bools_and_take_numpy_integers(site):
    """Each count goes through ``errors.check_count``.  A float count used
    to end in a bare TypeError or IndexError, or, as record_every=1.5,
    to sample only the steps that are multiples of 1.5; True passed as 1."""
    make = COUNT_SITES[site]
    for bad in (2.5, 4.0, True, np.float64(2.0)):
        with pytest.raises(InputError, match="must be an integer"):
            make(bad)
    make(np.int64(2))


def test_non_finite_or_non_positive_dt_and_theta_min_are_refused():
    """A NaN theta floor would pass every theta (NaN comparisons are false):
    the field below, whose least theta is -38.5, would integrate without a
    degenerate-metric error.  An inf or NaN step would poison the potential."""
    pot = zero_potential(GRID, Flux.from_entries({(1, 2): 1, (4, 7): -1}))
    for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -1e-3, "1e-3", None):
        for kw in ({"dt": bad}, {"theta_min": bad}):
            with pytest.raises(InputError, match="finite positive"):
                FlowConfig(**kw)
        with pytest.raises(InputError, match="finite positive"):
            flow_step(pot, bad)
        with pytest.raises(InputError, match="finite positive"):
            flow_step(pot, 1e-3, "rk4", theta_min=bad)
        with pytest.raises(InputError, match="finite positive"):
            ascent_field(pot, theta_min=bad)
    with pytest.raises(DegenerateMetricError, match="-38.47"):
        ascent_field(pot, theta_min=1e-3)


def _kernel_calls(monkeypatch, fn):
    """fn's calls of the star, wedge and constant-wedge kernels, counted by
    wrapping the names ``torus`` calls them by."""
    calls = {"hodge_fields": 0, "wedge_fields": 0, "wedge_const": 0}
    for name in calls:
        real = getattr(torus, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(torus, name, counted)
    fn()
    monkeypatch.undo()
    return calls


def test_rk4_step_kernel_calls_are_pinned(monkeypatch):
    """A stage forms E ^ E and E^3 (2 wedge kernels), E ^ *phi and
    phi ^ E ^ E (2 constant wedges), theta's star and *R (2 stars) and two
    interior products (2 wedge kernels).  flow_run's steps take the first
    stage from the diagnostics, which hold R: one star and two interior
    products there.  The corrected form of eta, with its star of E ^ E,
    would show here."""
    pot = random_coclosed_potential(GRID, CALIBRATED, np.random.default_rng(27), scale=0.05)
    step = lambda: flow_step(pot, 1e-3, "rk4")
    assert _kernel_calls(monkeypatch, step) == {
        "hodge_fields": 8, "wedge_fields": 16, "wedge_const": 8}
    stage = flow._diagnostics(pot)[3]
    first = lambda: flow._step(pot, 1e-3, "rk4", 1e-3, stage)
    assert _kernel_calls(monkeypatch, first) == {
        "hodge_fields": 7, "wedge_fields": 14, "wedge_const": 6}


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
    assert np.allclose(ddt.theta_weight(E), 1 + two_pi_sq, rtol=1e-14, atol=0)
    bad = Flux.from_entries({(1, 2): 1, (4, 7): -1})
    Eb = curvature(zero_potential(GRID, bad))
    assert np.allclose(ddt.theta_weight(Eb), 1 - two_pi_sq, rtol=1e-14, atol=0)


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
    assert field_l2(ddt.eta(curvature(pot))) == 0.0
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


@pytest.mark.parametrize("cfg, scale", [
    (FlowConfig(dt=1e-3, steps=23, scheme="rk4", record_every=5), 0.02),
    (FlowConfig(dt=0.05, steps=400, theta_min=5.0, record_every=7), 0.5)],
    ids=["completed", "degenerate"])
def test_flow_steps_rows_are_flow_runs_arrays_and_samples(cfg, scale):
    """``flow_run`` is ``flow_steps`` collected: the same scalars bit for
    bit, a potential on exactly the sampled steps, and the termination as
    the error that ends the steps (the second flow leaves the guarded set
    at step 2)."""
    pot0 = random_coclosed_potential(GRID, CALIBRATED, np.random.default_rng(1), scale)
    traj = flow_run(pot0, cfg)
    rows, end = [], None
    try:
        for row in flow_steps(pot0, cfg):
            rows.append(row)
    except DegenerateMetricError as e:
        end = e
    assert [row.step for row in rows] == list(range(len(traj.times)))
    for key, column in (("time", traj.times), ("functional", traj.functional),
                        ("residual_l2", traj.residual_l2),
                        ("theta_min", traj.theta_min_per_step)):
        assert np.array_equal([getattr(row, key) for row in rows], column), key
    sampled = [row for row in rows if row.potential is not None]
    assert tuple(row.time for row in sampled) == traj.sample_times
    for row, want in zip(sampled, traj.samples, strict=True):
        assert np.array_equal(row.potential.a.values, want.a.values)
    if end is None:
        assert traj.termination == "completed" and rows[-1].step == cfg.steps
    else:
        assert traj.termination == str(end)
        assert traj.termination.startswith("left almost-calibrated set at step 2: ")
        assert end.point is not None and end.theta <= cfg.theta_min


@pytest.mark.parametrize("scheme, d_per_step", [("euler", 1), ("rk4", 4)])
def test_flow_run_reuses_the_diagnostics_for_the_first_stage(monkeypatch, scheme,
                                                             d_per_step):
    """One d(a) per stage: the first stage's curvature comes from the
    step's diagnostics.  Its E ^ E is D ^ D + 2 (B ^ D) + B ^ B there and
    E ^ E in flow_step, so the two trajectories, and the functionals
    along them, agree to 1e-13 relative."""
    rng = np.random.default_rng(26)
    pot0 = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.02)
    steps = 10
    pots = [pot0]
    for _ in range(steps):
        pots.append(flow_step(pots[-1], 1e-3, scheme))
    calls = []
    real_d = torus.d

    def counted(f):
        calls.append(f.k)
        return real_d(f)
    monkeypatch.setattr(torus, "d", counted)
    monkeypatch.setattr(flow, "d", counted)
    traj = flow_run(pot0, FlowConfig(dt=1e-3, steps=steps, scheme=scheme,
                                     record_every=1))
    assert len(calls) == 1 + d_per_step * steps
    for got, want in zip(traj.samples, pots):
        assert np.max(np.abs(got.a.values - want.a.values)) \
            <= 1e-13 * np.max(np.abs(want.a.values))
    monkeypatch.undo()
    for got, want in zip(traj.functional, [kl_functional(p) for p in pots]):
        assert abs(got - want) <= 1e-13 * abs(want)


def test_flow_diagnostics_equal_the_public_functionals():
    """The per-step scalars share one d(a) and equal the public functionals
    evaluated on the stored samples: the functional bit for bit (the same
    D ^ D and B ^ B), the residual norm and min theta to 1e-13 relative
    (their E ^ E is D ^ D + 2 (B ^ D) + B ^ B, not E ^ E)."""
    rng = np.random.default_rng(25)
    pot0 = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.02)
    traj = flow_run(pot0, FlowConfig(dt=1e-3, steps=12, scheme="rk4",
                                     record_every=1))
    assert traj.termination == "completed"
    assert len(traj.samples) == len(traj.times) == 13
    assert np.array_equal(traj.functional,
                          [kl_functional(p) for p in traj.samples])
    resid = np.array([residual_field(p)[1] for p in traj.samples])
    theta = np.array([np.min(ddt.theta_weight(curvature(p))) for p in traj.samples])
    assert np.all(np.abs(traj.residual_l2 - resid) <= 1e-13 * resid)
    assert np.all(np.abs(traj.theta_min_per_step - theta) <= 1e-13 * theta)


def test_flow_run_steps_repeat_no_exact_layer_work(monkeypatch):
    """Work counts that need no timing: in a 16-point rk4 ``flow_run`` over
    a fresh Flux, the background's constants (B ^ B, the segment's r0 and
    weight) take the exact layer's ``_accumulate`` only at the start's
    diagnostics; every later step makes none, and 18 wedge-kernel calls
    (14 for the step, 4 for its diagnostics)."""
    flux = Flux(CALIBRATED.upper)
    pot0 = random_coclosed_potential(GRID, flux, np.random.default_rng(28), scale=0.02)
    calls = {"_accumulate": 0, "wedge_fields": 0}
    at_diagnostics = []
    for module, name in ((exalg, "_accumulate"), (torus, "wedge_fields")):
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    real_diagnostics = flow._diagnostics

    def diagnostics(pot):
        out = real_diagnostics(pot)
        at_diagnostics.append(dict(calls))
        return out
    monkeypatch.setattr(flow, "_diagnostics", diagnostics)
    traj = flow_run(pot0, FlowConfig(dt=1e-3, steps=6, scheme="rk4", record_every=3))
    assert traj.termination == "completed" and len(at_diagnostics) == 7
    assert at_diagnostics[0]["_accumulate"] > 0
    for before, after in zip(at_diagnostics, at_diagnostics[1:]):
        assert after["_accumulate"] == before["_accumulate"]
        assert after["wedge_fields"] - before["wedge_fields"] == 18


def test_flux_constants_are_made_once_and_shared():
    """A Flux derives its background's constants once: the row is
    read-only, an equal fresh Flux derives the same numbers, and the
    functional that ``flow_run`` records from them is ``kl_functional``
    of each sample bit for bit, here on a fresh Flux equal to the run's."""
    flux = Flux(CALIBRATED.upper)
    row = flux._background_row
    assert row is flux._background_row
    assert np.array_equal(row, 2.0 * math.pi * np.array(flux.upper, dtype=np.float64))
    r0, w0 = flux._kl_constants
    for a in (row, flux._background_sq, r0):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    fresh = Flux(CALIBRATED.upper)
    assert fresh == flux and hash(fresh) == hash(flux)
    assert fresh._background_row is not row
    for name in ("_background_row", "_background_sq"):
        assert getattr(fresh, name).tobytes() == getattr(flux, name).tobytes(), name
    for name in ("_background", "_twice_background"):
        assert getattr(fresh, name).coeffs == getattr(flux, name).coeffs, name
    assert fresh.background_form() is fresh._background
    assert fresh._kl_constants[0].tobytes() == r0.tobytes()
    assert fresh._kl_constants[1].coeffs == w0.coeffs
    pot0 = random_coclosed_potential(GRID, flux, np.random.default_rng(29), scale=0.02)
    traj = flow_run(pot0, FlowConfig(dt=1e-3, steps=8, scheme="rk4", record_every=1))
    assert np.array_equal(traj.functional, [
        kl_functional(GaugePotential(p.a, Flux(CALIBRATED.upper))) for p in traj.samples])


def test_spin7_residuals_vanish_along_ascent():
    rng = np.random.default_rng(22)
    pot = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.1)
    E = curvature(pot)
    adot = ascent_field(pot)
    r1, r2 = ddt.spin7_res1(E, adot), ddt.spin7_res2(E, adot)
    assert field_l2(r1) < 1e-9
    assert field_l2(r2) < 1e-9
    # a wrong velocity must register in both residuals
    off = adot + random_field(GRID, 1, rng, scale=0.5)
    w1, w2 = ddt.spin7_res1(E, off), ddt.spin7_res2(E, off)
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
    with pytest.raises(InputError):
        cylinder_check_samples([0.0, 0.1, 0.2], [pot] * 4)


def _unread():
    """Potentials that fail the test when the first one is read."""
    raise AssertionError("a sample was read")
    yield


@pytest.mark.parametrize("times", [[0.0, 0.1, math.nan], [0.0, math.nan, 0.2],
                                   [0.0, math.inf, math.inf]])
def test_cylinder_check_refuses_non_finite_times_before_reading(times):
    """A NaN last time used to give spacing 0.1 and finite norms, a NaN
    middle one NaN norms, and two infinite ones spacing inf with numpy's
    invalid-value warning."""
    with pytest.raises(InputError, match="sample times must be finite"):
        cylinder_check_samples(times, _unread())


def test_cylinder_check_reads_its_samples_once_and_holds_three():
    """Over a generator the check reads each potential once, in order, with
    at most three alive, and equals the check over a list."""
    rng = np.random.default_rng(4)
    fields = [coclosed_project(random_field(GRID, 1, rng, 0.02)) for _ in range(9)]
    times = [0.1 * i for i in range(9)]
    alive, refs = [], []

    def lazily():
        for f in fields:
            pot = GaugePotential(f, CALIBRATED)
            refs.append(weakref.ref(pot))
            alive.append(sum(r() is not None for r in refs))
            yield pot
            del pot
    got = cylinder_check_samples(times, lazily())
    assert len(refs) == 9 and max(alive) <= 3
    assert got == cylinder_check_samples(times, [GaugePotential(f, CALIBRATED)
                                                 for f in fields])


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
            got = torus._apply_modes(
                b, lambda spec: np.einsum("mab,bm->am", N, spec))
            assert field_l2(got - want) <= 1e-12 * field_l2(want)


@pytest.mark.parametrize("grid", [GRID, TorusGrid((1, 2, 3), 8)])
def test_apply_jt_is_the_adjoint_of_apply_j(grid):
    """<J b, y> = <b, J^T y> at a non-constant W, one block of y at a time."""
    rng = np.random.default_rng(grid.npts)
    system = flow._ScaledSystem(CALIBRATED, grid, 0.75)
    pot = random_coclosed_potential(grid, CALIBRATED, rng, scale=0.3)
    _, W, _ = system.residual(pot.a)
    assert np.ptp(W.coeffs, axis=1).max() > 0.1
    zeros = (FormField.zero(grid, 6), FormField.zero(grid, 0), np.zeros(7))
    for _ in range(2):
        b = FormField(grid, 1, rng.normal(size=(grid.npts, 7)))
        jb = system.apply_j(W, b)
        for block, y in enumerate((FormField(grid, 6, rng.normal(size=(grid.npts, 7))),
                                   FormField(grid, 0, rng.normal(size=(grid.npts, 1))),
                                   rng.normal(size=7))):
            ys = zeros[:block] + (y,) + zeros[block + 1:]
            lhs = (float(np.dot(jb[2], y)) if block == 2
                   else torus.field_inner(jb[block], y))
            rhs = torus.field_inner(b, system.apply_jt(W, *ys))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_mode_weight_tensor_at_star_phi_is_the_probe_tensor():
    w = np.array([float(c) for c in star_phi_for(FLOAT).coeffs])
    T = np.tensordot(w, tables.mode_weight_tensor(), axes=1)
    assert np.array_equal(T, tables.mode_kernel_tensors()[0])


def test_mode_kernel_tensors_match_exact_wedges():
    """T and U from the wedge tables against 196 exact ``KForm`` wedges."""
    ring = RATIONAL
    star_phi = star_phi_for(ring)
    T = np.zeros((7, 7, 7), dtype=np.int64)
    U = np.zeros((7, 7, 21), dtype=np.int64)
    for i in range(7):
        ei = KForm.from_blades(7, 1, {(i + 1,): 1}, ring)
        for b in range(7):
            eb = KForm.from_blades(7, 1, {(b + 1,): 1}, ring)
            out = wedge(wedge(ei, eb), star_phi)
            T[i, :, b] = [int(c) for c in out.coeffs]
        for gpos, gblade in enumerate(blades(7, 5)):
            out = wedge(ei, KForm.from_blades(7, 5, {gblade: 1}, ring))
            U[i, :, gpos] = [int(c) for c in out.coeffs]
    got_T, got_U = tables.mode_kernel_tensors()
    assert got_T.dtype == got_U.dtype == np.int64
    assert np.array_equal(got_T, T)
    assert np.array_equal(got_U, U)


def test_mode_symbol_factors_through_the_five_form_symbol():
    """T[i] = U[i] L exactly, L the 21x7 integer matrix of b -> b ^ *phi,
    since (e_i ^ b) ^ *phi = e_i ^ (b ^ *phi).  So A_k = B_k L: span A_k
    lies in span B_k for every k, and equal ranks mean equal spans, which
    is all ``kernel_probe`` checks of the image."""
    star_phi = star_phi_for(RATIONAL)
    L = np.zeros((21, 7), dtype=np.int64)
    for b in range(7):
        eb = KForm.from_blades(7, 1, {(b + 1,): 1}, RATIONAL)
        L[:, b] = [int(c) for c in wedge(eb, star_phi).coeffs]
    T, U = tables.mode_kernel_tensors()
    assert np.array_equal(T, np.matmul(U, L))


def test_mode_symbol_normal_operator_is_k_squared_off_the_gauge_line():
    """sum_ij k_i k_j T_i^T T_j + k k^T = |k|^2 I, as 28 integer identities
    in the coefficients of k_i k_j.  So A_k^T A_k = |k|^2 I - k k^T, whose
    kernel is span{k}: ker A_k = span{k} for every nonzero k, not only for
    the modes the census sweeps."""
    T = tables.mode_kernel_tensors()[0]
    eye = np.eye(7, dtype=np.int64)
    pairs = list(itertools.combinations_with_replacement(range(7), 2))
    assert len(pairs) == 28
    for i, j in pairs:
        got = T[i].T @ T[j] + np.outer(eye[i], eye[j])
        if i != j:  # k_i k_j collects the (i, j) and (j, i) terms
            got = got + got.T
        assert np.array_equal(got, eye if i == j else 0 * eye), (i, j)


def test_mode_weight_tensor_matches_exact_wedges_at_an_integer_weight():
    """T[i][:, b] is (e_i ^ e_b) ^ W for an integer 4-form W, exactly."""
    w = [int(c) for c in np.random.default_rng(52).integers(-3, 4, 35)]
    W = KForm(7, 4, tuple(RATIONAL.coerce(c) for c in w), RATIONAL)
    T = np.tensordot(w, tables.mode_weight_tensor(), axes=1)
    for i, b in itertools.product(range(7), repeat=2):
        ei, eb = (KForm.from_blades(7, 1, {(x + 1,): 1}, RATIONAL) for x in (i, b))
        out = wedge(wedge(ei, eb), W)
        assert np.array_equal(T[i, :, b], [int(c) for c in out.coeffs]), (i, b)


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
    assert all(1 <= it.inner.iterations <= 2 for it in first.iterates)
    for st in res.steps:
        assert len(st.iterates) == st.newton_iterations


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
    monkeypatch.setattr(flow, "_MAX_CG_ITER", 1)
    rng = np.random.default_rng(2)
    start = GaugePotential(coclosed_project(random_field(GRID, 1, rng, scale=0.2)),
                           CALIBRATED)
    res = continuation(CALIBRATED, schedule=(0.0, 1.0), grid=GRID,
                       initial=start, warm_start=False, max_newton=2)
    assert not res.completed
    assert "inner solve hit 1 iterations at relative residual" in res.termination


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
def test_scaled_theta_is_the_theta_of_the_scaled_curvature(s):
    """theta_s from the residual's E ^ E is theta of s^2 E: 1 at s = 0, and
    ``ddt._theta`` of E itself at s = 1."""
    rng = np.random.default_rng(12)
    pot = random_coclosed_potential(GRID512, CALIBRATED, rng, scale=0.3)
    _, _, theta = flow._ScaledSystem(CALIBRATED, GRID512, s).residual(pot.a)
    E = curvature(pot) * s ** 2
    want = ddt._theta(torus.wedge_field(E, E))
    assert np.max(np.abs(theta - want)) <= 1e-12 * np.max(np.abs(want))
    if s == 0.0:
        assert np.all(theta == 1.0)


def _noisy_start(grid, scale, seed):
    """The calibrated instanton plus coclosed noise, as ``ddt7 continue``
    draws it from perturb_scale and seed."""
    noise = coclosed_project(random_field(grid, 1, np.random.default_rng(seed), scale))
    return GaugePotential(instanton_solve(CALIBRATED, grid).a + noise, CALIBRATED)


@pytest.mark.parametrize("seed, theta", [(1, "-1.29981"), (2, "-2.86213")])
def test_continuation_stops_at_a_start_outside_theta_positive(seed, theta):
    """From 0.4 noise every cold start up to s = 1/4 solves, and the start at
    s = 1/2 has theta_s <= 0: the run ends there, naming the point, and
    keeps the entries before it."""
    res = continuation(CALIBRATED, grid=GRID512, warm_start=False,
                       initial=_noisy_start(GRID512, 0.4, seed))
    assert not res.completed and not res.obstructed
    assert res.termination.startswith(
        f"left almost-calibrated set at s = 0.5: theta = {theta} <= 0.0 at grid point {{")
    assert [st.s for st in res.steps] == list(DEFAULT_SCHEDULE[:6])
    assert all(st.residual_norm <= 1e-10 for st in res.steps)


@pytest.mark.parametrize("seed", [1, 2])
def test_cold_starts_at_a_tenth_of_noise_complete(seed):
    """Undamped, the first Gauss-Newton step at s = 1 took min theta from
    about 26 to below 0 and the run stalled.  Backtracked, every entry
    converges; each inner tolerance is the forcing term of the residual
    it starts from, and min theta_s ends at the instanton's value."""
    res = continuation(CALIBRATED, grid=GRID512, warm_start=False,
                       initial=_noisy_start(GRID512, 0.1, seed))
    assert res.completed
    assert all(st.residual_norm <= 1e-10 for st in res.steps)
    last = res.steps[-1]
    assert last.s == 1.0 and last.iterates[-1].theta_min > 0
    assert any(it.step_length < 1.0 for it in last.iterates)
    for st in res.steps:
        for r, it in zip(st.residual_history, st.iterates):
            assert it.inner_tol == max(1e-12, min(1e-2, r))
            assert it.theta_min > 0


def test_a_failing_line_search_ends_the_entry(monkeypatch):
    """An uphill direction passes no halving: the entry ends, naming the
    line search, and the step is not taken."""
    cgnr = flow._cgnr

    def uphill(*args, **kwargs):
        dx, inner = cgnr(*args, **kwargs)
        return -dx, inner
    monkeypatch.setattr(flow, "_cgnr", uphill)
    start = _noisy_start(GRID, 1e-2, 3)
    res = continuation(CALIBRATED, grid=GRID, initial=start)
    assert not res.completed
    assert res.termination.startswith(
        "line search failed at s = 0, newton iteration 1: no step length "
        f"down to 2^-{flow._MAX_HALVINGS} lowered the residual")
    (st,) = res.steps
    assert st.newton_iterations == 0 and st.iterates == ()
    assert st.residual_history == (st.residual_norm,)
    assert np.array_equal(res.potential.a.coeffs, start.a.coeffs)


def test_no_weight_outlives_its_entry(monkeypatch):
    """Each entry's W dies with the entry: when an entry forms its first
    residual, no W that an earlier entry's residuals returned is alive."""
    residual = flow._ScaledSystem.residual
    weights, stale = [], []

    def tracking(system, a):
        if all(s != system.s for s, _ in weights):  # this entry's first residual
            stale.extend(s for s, ref in weights if ref() is not None)
        out = residual(system, a)
        weights.append((system.s, weakref.ref(out[1])))
        return out
    monkeypatch.setattr(flow._ScaledSystem, "residual", tracking)
    res = continuation(CALIBRATED, grid=GRID, initial=_noisy_start(GRID, 1e-2, 3),
                       warm_start=False)
    assert res.completed and all(st.newton_iterations >= 1 for st in res.steps)
    assert sorted({s for s, _ in weights}) == list(DEFAULT_SCHEDULE)
    assert stale == []


def test_continuation_reports_obstruction():
    res = continuation(OBSTRUCTED, grid=GRID)
    assert not res.completed
    assert "obstruction" in res.termination
    assert "s = 0.015625" in res.termination
    assert res.steps[0].s == 0.0
    assert res.steps[0].residual_norm <= 1e-12
    assert res.steps[-1].s == 1.0 / 64



@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("grid", [GRID, GRID512], ids=["16", "512"])
def test_the_residual_mean_is_the_flux_cube(grid, s):
    """Over a flux with F ^ *phi = 0 the scaled residual's mean is
    s^4 (2 pi)^3 F^3/6 at every potential: each term that holds da is exact,
    and products of kmax = 1 fields do not alias on these grids.  Its norm
    is s^4 _flux_cube_mean, zero exactly for the calibrated flux."""
    rng = np.random.default_rng(9)
    unit = s ** 4 * (2 * math.pi) ** 3 / 6
    for flux in (CALIBRATED, OBSTRUCTED):
        F = flux.form()
        F3 = np.array([float(c) for c in exalg.cube(F, wedge(F, F)).coeffs])
        pot = random_coclosed_potential(grid, flux, rng, scale=0.05)
        (w6, _, _), _, _ = flow._ScaledSystem(flux, grid, s).residual(pot.a)
        mean = field_mean(w6)
        scale = unit * max(np.max(np.abs(F3)), 1.0)
        assert np.max(np.abs(mean - unit * F3)) <= 1e-13 * scale
        assert math.isclose(s ** 4 * flow._flux_cube_mean(flux), np.linalg.norm(mean),
                            rel_tol=1e-13, abs_tol=1e-13 * unit)
    assert flow._flux_cube_mean(CALIBRATED) == 0.0
    assert flow._flux_cube_mean(OBSTRUCTED) > 0.0


def test_an_aliased_mean_is_no_obstruction(monkeypatch):
    """Newton iterates hold every mode of a 4-point axis, whose products
    alias onto the zero mode, so the residual's mean rises above tol on the
    way to s = 1.  The flux's cube is zero, so the run completes."""
    grid = TorusGrid((1, 2, 3), 4)
    means = []
    residual = flow._ScaledSystem.residual

    def recording(system, a):
        out = residual(system, a)
        means.append(float(np.linalg.norm(field_mean(out[0][0]))))
        return out
    monkeypatch.setattr(flow._ScaledSystem, "residual", recording)
    noise = random_field(grid, 1, np.random.default_rng(0), scale=0.01)
    start = GaugePotential(coclosed_project(noise), CALIBRATED)
    res = continuation(CALIBRATED, grid=grid, initial=start, warm_start=False)
    assert res.completed and not res.obstructed
    assert max(means) > 1e-10


def test_the_obstruction_is_read_against_tol():
    """From a perturbed start the obstructed flux stops at s = 1/64 on 512
    points.  At s = 1e-4 the mean's norm, 5e-14, is below tol, so that
    entry is solved from a restart and the run stops at s = 0.5; a rule on
    F^3 != 0 alone would stop at s = 1e-4."""
    rng = np.random.default_rng(1)
    noise = coclosed_project(random_field(GRID512, 1, rng, scale=0.05))
    res = continuation(OBSTRUCTED, grid=GRID512,
                       initial=GaugePotential(noise, OBSTRUCTED))
    assert res.obstructed and not res.completed
    assert [st.s for st in res.steps] == [0.0, 1.0 / 64]
    assert res.steps[0].residual_norm <= 1e-10
    assert res.steps[1].newton_iterations == 0
    noise = coclosed_project(random_field(GRID, 1, rng, scale=0.05))
    res = continuation(OBSTRUCTED, schedule=(0.0, 1e-4, 0.5), grid=GRID,
                       initial=GaugePotential(noise, OBSTRUCTED), warm_start=False)
    assert res.obstructed
    assert [st.s for st in res.steps] == [0.0, 1e-4, 0.5]
    assert res.steps[1].newton_iterations >= 1 and res.steps[1].residual_norm <= 1e-10
    assert "at s = 0.5: the flux cube F^3 is nonzero" in res.termination
    # the decision takes no Newton step, so it holds with none allowed
    res = continuation(OBSTRUCTED, grid=GRID, max_newton=0)
    assert res.obstructed and [st.s for st in res.steps] == [0.0, 1.0 / 64]


@pytest.mark.parametrize("schedule", [(0.0, math.nan), (0.0, 0.5, math.inf)])
def test_continuation_refuses_non_finite_entries_before_running(monkeypatch, schedule):
    """Both passed the order checks, ran the finite entries, and ended in
    ``NumericalError`` at the bad one."""
    def unrun(*args):
        raise AssertionError("an entry ran")
    monkeypatch.setattr(flow, "_schedule_entry", unrun)
    with pytest.raises(InputError, match="entries must be finite"):
        continuation(CALIBRATED, schedule=schedule, grid=GRID)


@pytest.mark.parametrize("warm_start", [True, False])
def test_continuation_result_holds_the_last_entrys_potential(monkeypatch, warm_start):
    """The result's potential is the last entry's final iterate, over the
    flux; no entry keeps one."""
    entry, finals = flow._schedule_entry, []

    def kept(*args):
        out = entry(*args)
        finals.append(out[1])
        return out
    monkeypatch.setattr(flow, "_schedule_entry", kept)
    res = continuation(CALIBRATED, schedule=(0.0, 0.25, 1.0), grid=GRID,
                       initial=_noisy_start(GRID, 1e-2, 5), warm_start=warm_start)
    assert res.completed and len(finals) == 3
    assert res.potential.a is finals[-1] and res.potential.flux == CALIBRATED
    assert not hasattr(res.steps[-1], "potential")


def test_continuation_validation():
    with pytest.raises(InputError):
        continuation(CALIBRATED, schedule=(0.5, 1.0), grid=GRID)
    with pytest.raises(InputError):
        continuation(CALIBRATED, schedule=(0.0, 0.5, 0.5), grid=GRID)
    other = zero_potential(TorusGrid((1, 2), 8), CALIBRATED)
    with pytest.raises(InputError):
        continuation(CALIBRATED, grid=GRID, initial=other)


# kmax: (orbits, representatives), the latter the lines through the origin
# that the census counted before it worked by orbit
CENSUS_COUNTS = {1: (10, 1093), 2: (94, 37969), 3: (708, 409585),
                 4: (3758, 2351329)}


def test_kernel_probe_all_modes_once():
    out = kernel_probe(1)
    assert out["modes"] == 3 ** 7 - 1
    assert out["kernel_dim_histogram"] == {1: 3 ** 7 - 1}
    assert out["kernel_all_dim_one"]
    assert out["image_rank_matches"] == out["modes"]
    assert out["image_all_match"]
    assert out["all_pass"]
    assert out["backend"] == "numpy"
    assert (out["orbits"], out["representatives"]) == CENSUS_COUNTS[1]
    with pytest.raises(InputError):
        kernel_probe(0)
    with pytest.raises(InputError):
        kernel_probe(17)


def _ranks_svd(M):
    """Ranks of a batch of integer matrices from their singular values: the
    oracle's own method, apart from the census's Bareiss elimination.  The
    nonzero singular values of an integer matrix of rank r multiply to the
    root of a sum of squared r x r minors, at least 1, so none lies below
    s_max^(1 - r).  On the boxes tested here (s_max < 8, r <= 7) that is
    above 3e-6: far over the 1e-9 cut, itself far over float rounding."""
    s = np.linalg.svd(M.astype(np.float64), compute_uv=False)
    assert np.all(s[..., 0] < 8)
    return np.count_nonzero(s > 1e-9, axis=-1)


def _kernel_probe_all_modes(kmax):
    """The census on every nonzero mode of the box, three ranks per mode
    from singular values: the oracle for the census by orbits."""
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
        rA = _ranks_svd(A)
        rB = _ranks_svd(B)
        rAB = _ranks_svd(np.concatenate([A, B], axis=2))
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


@pytest.mark.parametrize("kmax", [2, 3])
def test_kernel_probe_counts_by_orbit(kmax):
    modes = (2 * kmax + 1) ** 7 - 1
    out = kernel_probe(kmax)
    assert (out["orbits"], out["representatives"]) == CENSUS_COUNTS[kmax]
    assert out["modes"] == modes
    assert out["kernel_dim_histogram"] == {1: modes}
    assert out["image_rank_matches"] == modes
    assert out["all_pass"]


def test_kernel_probe_at_the_cap_in_bounded_memory(run_child):
    """kernel_probe at kmax = 4 (4,782,968 modes) in a child limited to
    512 MiB of address space, one BLAS thread so the limit does not depend
    on the core count."""
    kmax = flow._KMAX_CAP
    modes = (2 * kmax + 1) ** 7 - 1
    run = run_child("import json\n"
                    "from ddt7 import flow\n"
                    f"print(json.dumps(flow.kernel_probe({kmax})))\n",
                    address_limit=512 << 20)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert (out["orbits"], out["representatives"]) == CENSUS_COUNTS[kmax]
    assert out["modes"] == out["image_rank_matches"] == modes
    assert out["kernel_dim_histogram"] == {"1": modes}
    assert out["all_pass"]


def _signed_perm_matrix(p, s):
    """R with R x = s * x[p]."""
    R = np.zeros((7, 7), dtype=np.int64)
    R[np.arange(7), p] = s
    return R


def _pullback_matrix(R, k, cols=None):
    """M (or its columns ``cols``) with R^* a = M a on k-form coefficients:
    M[J, I] = det R[I, J], ``exalg.pullback``'s formula, rounded; every
    minor of a signed permutation matrix is 0 or +-1, which LU with
    pivoting finds exactly."""
    bl = np.array(blades(7, k)) - 1
    rows = bl if cols is None else bl[cols]
    minors = R[rows[None, :, :, None], bl[:, None, None, :]]
    return np.rint(np.linalg.det(minors)).astype(np.int64)


def _exact_pullback_matrix(R, k):
    ring = RATIONAL
    E = Endo.from_rows(7, R.tolist(), ring)
    cols = [exalg.pullback(E, KForm.from_blades(7, k, {b: 1}, ring)).coeffs
            for b in blades(7, k)]
    return np.array([[int(c) for c in col] for col in cols]).T


def test_phi_symmetries_are_the_group_fixing_phi():
    perms, signs = tables.phi_symmetries()
    assert perms.shape == signs.shape == (1344, 7)
    keys = {(tuple(p), tuple(s)) for p, s in zip(perms, signs)}
    assert len(keys) == 1344
    assert (tuple(range(7)), (1,) * 7) in keys
    assert len({tuple(p) for p in perms}) == 168
    assert np.count_nonzero(np.all(perms == np.arange(7), axis=1)) == 8
    # closed under composition: (s1, p1) after (s2, p2) is
    # x -> s1 * s2[p1] * x[p2[p1]]
    p12 = np.take_along_axis(perms[None, :, :], perms[:, None, :], axis=2)
    s12 = signs[:, None, :] * np.take_along_axis(signs[None, :, :],
                                                 perms[:, None, :], axis=2)
    code = lambda p, s: ((2 * p + (s < 0)) * 14 ** np.arange(7)).sum(axis=-1)
    assert np.isin(code(p12, s12), code(perms, signs)).all()
    # every element fixes phi and *phi under the numpy pullback, which
    # exalg.pullback confirms exactly on a seeded sample
    phi = np.array([int(c) for c in phi_for(RATIONAL).coeffs])
    star_phi = np.array([int(c) for c in star_phi_for(RATIONAL).coeffs])
    for p, s in zip(perms, signs):
        R = _signed_perm_matrix(p, s)
        for k, form in ((3, phi), (4, star_phi)):
            nz = np.flatnonzero(form)
            assert np.array_equal(_pullback_matrix(R, k, nz) @ form[nz], form)
    rng = np.random.default_rng(17)
    for e in [0, *rng.choice(1344, 4, replace=False)]:
        E = Endo.from_rows(7, _signed_perm_matrix(perms[e], signs[e]).tolist(),
                           RATIONAL)
        assert exalg.pullback(E, phi_for(RATIONAL)) == phi_for(RATIONAL)
        assert exalg.pullback(E, star_phi_for(RATIONAL)) == star_phi_for(RATIONAL)


def _equivariant(p, s, ks):
    """A_k M1 == M6 A_{s*k[p]} and B_k M5 == M6 B_{s*k[p]} for each k."""
    T, U = tables.mode_kernel_tensors()
    R = _signed_perm_matrix(p, s)
    M1, M5, M6 = (_pullback_matrix(R, k) for k in (1, 5, 6))
    gks = s * ks[:, p]
    return all(np.array_equal(np.tensordot(k, T, 1) @ M1,
                              M6 @ np.tensordot(gk, T, 1))
               and np.array_equal(np.tensordot(k, U, 1) @ M5,
                                  M6 @ np.tensordot(gk, U, 1))
               for k, gk in zip(ks, gks))


def test_census_symbols_are_equivariant_under_phi_symmetries():
    """The exact integer identity that makes both ranks constant on orbits,
    for every element; the pullback matrices are checked against
    exalg.pullback on a seeded sample."""
    perms, signs = tables.phi_symmetries()
    rng = np.random.default_rng(23)
    ks = rng.integers(-4, 5, size=(3, 7))
    assert all(_equivariant(p, s, ks) for p, s in zip(perms, signs))
    for e in rng.choice(1344, 3, replace=False):
        R = _signed_perm_matrix(perms[e], signs[e])
        for k in (1, 5, 6):
            assert np.array_equal(_pullback_matrix(R, k),
                                  _exact_pullback_matrix(R, k))
    # control: swapping axes 1 and 2 does not fix phi, and the identity fails
    swap = np.array([1, 0, 2, 3, 4, 5, 6])
    assert not _equivariant(swap, np.ones(7, dtype=np.int64), ks)


@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_mode_orbits_partition_the_box(kmax):
    # every nonzero mode of the box lies in exactly one orbit, and each
    # orbit is the group's image of any of its members
    perms, signs = tables.phi_symmetries()
    reps, sizes = flow._mode_orbits(kmax)
    side = 2 * kmax + 1
    place = side ** np.arange(7)
    assert sizes.sum() == side ** 7 - 1
    assert np.abs(reps).max() <= kmax and np.all(np.any(reps != 0, axis=1))
    orbit_of = np.full(side ** 7, -1)
    rng = np.random.default_rng(kmax)
    for n, (k, size) in enumerate(zip(reps, sizes)):
        codes = np.unique((signs * k[perms] + kmax) @ place)
        assert len(codes) == size
        assert np.all(orbit_of[codes] == -1)
        orbit_of[codes] = n
        member = codes[rng.integers(size)] // place % side - kmax
        assert np.array_equal(np.unique((signs * member[perms] + kmax) @ place),
                              codes)
    assert np.count_nonzero(orbit_of == -1) == 1  # the zero mode
    assert orbit_of[kmax * place.sum()] == -1


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


def test_kernel_probe_refuses_kmax_above_cap():
    with pytest.raises(InputError):
        kernel_probe(flow._KMAX_CAP + 1)


def test_census_int64_bound_at_kmax_16():
    # kernels.bareiss_ranks against Python-int Bareiss on large entries, and
    # a margin: even at kmax = 16, four times flow._KMAX_CAP, every
    # pre-division product of every census matrix would fit in int64.
    # Corner modes carry the largest entries; seeded modes on the outer
    # shell cover the rest.
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


def test_non_finite_theta_is_not_a_degenerate_metric():
    """An overflowed E makes theta inf or NaN at some point; the guard
    reports that as non-finite, not as leaving the calibrated set."""
    rng = np.random.default_rng(44)
    huge = GaugePotential(1e200 * coclosed_project(random_field(GRID, 1, rng)),
                          CALIBRATED)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="theta"):
            ascent_field(huge)


def test_solver_steps_build_no_checked_fields(monkeypatch):
    """On valid input an rk4 step and a theta3 call build every field as an
    unchecked op result: the constructor's checks are for inputs only."""
    rng = np.random.default_rng(42)
    pot = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.05)
    bs = [random_field(GRID, 1, rng) for _ in range(3)]
    calls = []
    checked = FormField.__post_init__

    def counted(self):
        calls.append(self.k)
        checked(self)
    monkeypatch.setattr(FormField, "__post_init__", counted)
    flow_step(pot, 1e-3, "rk4")
    torus.theta3(pot, *bs)
    assert calls == []


def test_solver_op_results_are_contiguous_float64():
    rng = np.random.default_rng(43)
    pot = random_coclosed_potential(GRID, CALIBRATED, rng, scale=0.05)
    system = flow._ScaledSystem(CALIBRATED, GRID, 0.5)
    (w6, w0, mu), W, _ = system.residual(pot.a)
    for got, k in ((flow._ascent(pot, 1e-3), 1),
                   (flow._wedge_by_w_adjoint(w6, W), 2),
                   (torus._apply_modes(pot.a, flow._mean_w_inverse(GRID, W)), 1),
                   (system.apply_jt(W, w6, w0, mu), 1)):
        c = got.coeffs
        assert got.k == k and c.dtype == np.float64 and c.flags.c_contiguous
        assert c.shape == (len(blades(7, k)), GRID.npts)
