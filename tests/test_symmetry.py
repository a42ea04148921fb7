"""Equivariance of the field layer under the signed permutations that fix phi.

An element g of ``tables.phi_symmetries()`` is the linear map
(g x)_i = sign_i x_perm(i).  When it maps the grid's active axes to
themselves it maps the grid to itself, and it pulls a field f back to
(g*f)(x) = g*(f(g x)): a gather of grid points and a signed permutation of
coefficients.  g fixes phi, *phi and the orientation, so every formula of
the dDT operator commutes with the pullback, and the functionals are
invariant.  An rk4 flow step commutes with it and a flow's functional
trace is invariant, both to rounding; the continuation solver commutes
with it to its Newton tolerance, and the exact flux obstructions are
invariant.  The plain swap of axes 1 and 2 moves phi, and is the control.
``d`` and ``codiff`` commute with every signed permutation, the swap
included; their control moves grid points and leaves the coefficients.
"""

from functools import lru_cache

import numpy as np
import pytest

from ddt7 import flow, g2, tables
from ddt7.errors import ObstructionError
from ddt7.exalg import Endo, KForm, blades, pullback
from ddt7.scalars import RATIONAL
from ddt7.torus import (FormField, Flux, GaugePotential, TorusGrid, codiff, cube_field,
                        curvature, d, field_l2, hodge_field, kl_functional, nu,
                        nu_derivative_check, random_coclosed_potential, random_field,
                        residual_field, theta3, wedge_field)

GRID16 = TorusGrid((1, 2), 4)
GRID64 = TorusGrid((1, 2, 3), 4)
GRID512 = TorusGrid((1, 2, 3), 8)
FLUXES = {"zero": Flux.zero(), "calibrated": Flux.from_entries({(1, 2): 1, (4, 7): 1})}
TOL = 1e-13
SWAP12 = (np.array([1, 0, 2, 3, 4, 5, 6]), np.ones(7, dtype=np.int64))


def _coefficient_map(perm, signs, k):
    """P with (g*form).coeffs = P @ form.coeffs: the pullback of each basis
    k-blade by g, exactly."""
    return _coefficient_matrix(tuple(map(int, perm)), tuple(map(int, signs)), k)


@lru_cache(maxsize=None)
def _coefficient_matrix(perm, signs, k):
    A = Endo(7, tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(7))
                      for i in range(7)), RATIONAL)
    n = len(blades(7, k))
    cols = [pullback(A, KForm(7, k, tuple(RATIONAL.coerce(int(i == c)) for i in range(n)),
                              RATIONAL)).coeffs for c in range(n)]
    return np.array(cols, dtype=np.float64).T


def move_points(perm, signs, f: FormField) -> FormField:
    """x -> f(g x) with the coefficients left as they are, on f's grid; g
    must map the grid's active axes to themselves."""
    grid = f.grid
    axes = [a - 1 for a in grid.active_axes]
    if sorted(perm[axes]) != axes:
        raise ValueError("the element moves an active axis off the grid")
    idx = np.indices(grid.shape)
    src = tuple((signs[a] * idx[axes.index(perm[a])]) % grid.N for a in axes)
    cube = f.coeffs.reshape((-1,) + grid.shape)[(slice(None),) + src]
    return FormField(grid, f.k, cube.reshape(cube.shape[0], -1).T)


def pull_back_field(perm, signs, f: FormField) -> FormField:
    """g*f on f's grid: the points moved, then the coefficients pulled back."""
    moved = move_points(perm, signs, f)
    vals = _coefficient_map(perm, signs, f.k) @ moved.coeffs
    return FormField(f.grid, f.k, vals.T)


def pull_back_flux(perm, signs, flux: Flux) -> Flux:
    coeffs = _coefficient_map(perm, signs, 2) @ np.array(flux.upper, dtype=np.float64)
    return Flux(tuple(int(c) for c in coeffs))


def pull_back(perm, signs, pot: GaugePotential) -> GaugePotential:
    return GaugePotential(pull_back_field(perm, signs, pot.a),
                          pull_back_flux(perm, signs, pot.flux))


def _grid_elements(grid):
    """The elements of the group that map the grid's active axes to themselves."""
    perms, signs = tables.phi_symmetries()
    axes = [a - 1 for a in grid.active_axes]
    keep = np.all(np.isin(perms[:, axes], axes), axis=1)
    return list(zip(perms[keep], signs[keep]))


def _potential(grid, flux):
    return random_coclosed_potential(grid, flux, np.random.default_rng(41), scale=0.05)


def _rel_gap(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def _gaps(perm, signs, pot):
    """Relative equivariance gaps of the square, the cube, residual_field
    (the field and its norm) and kl_functional at pot."""
    gpot = pull_back(perm, signs, pot)
    E, gE = curvature(pot), curvature(gpot)
    E2, gE2 = wedge_field(E, E), wedge_field(gE, gE)
    res, norm = residual_field(pot)
    gres, gnorm = residual_field(gpot)
    return {
        "square": _rel_gap(gE2.coeffs, pull_back_field(perm, signs, E2).coeffs),
        "cube": _rel_gap(cube_field(gE, gE2).coeffs,
                         pull_back_field(perm, signs, cube_field(E, E2)).coeffs),
        "residual": _rel_gap(gres.coeffs, pull_back_field(perm, signs, res).coeffs),
        "residual_norm": _rel_gap(gnorm, norm),
        "kl_functional": _rel_gap(kl_functional(gpot), kl_functional(pot)),
    }


def test_pullback_helpers_fix_phi_and_move_the_grid():
    perms, signs = tables.phi_symmetries()
    P3 = _coefficient_map(perms[5], signs[5], 3)
    phi = np.array([float(c) for c in g2.phi_for(RATIONAL).coeffs])
    assert np.array_equal(P3 @ phi, phi)
    assert not np.array_equal(_coefficient_map(*SWAP12, 3) @ phi, phi)
    # some usable element moves grid points, not only coefficients
    assert len(_grid_elements(GRID16)) == 64 and len(_grid_elements(GRID512)) == 192
    f = random_coclosed_potential(GRID16, Flux.zero(), np.random.default_rng(2)).a
    moved = [pull_back_field(p, s, f).coeffs for p, s in _grid_elements(GRID16)[1:]]
    assert all(not np.array_equal(m, f.coeffs) for m in moved)


@pytest.mark.parametrize("flux", list(FLUXES), ids=list(FLUXES))
@pytest.mark.parametrize("grid, stride", [(GRID16, 1), (GRID64, 7), (GRID512, 23)],
                         ids=["16", "64", "512"])
def test_field_formulas_are_equivariant(grid, stride, flux):
    """Every usable element at 16 points, every 7th at 64 (28 of 192) and
    every 23rd at 512 (9 of 192)."""
    pot = _potential(grid, FLUXES[flux])
    for perm, signs in _grid_elements(grid)[::stride]:
        gaps = _gaps(perm, signs, pot)
        assert max(gaps.values()) <= TOL, (perm.tolist(), signs.tolist(), gaps)


@pytest.mark.parametrize("flux", list(FLUXES), ids=list(FLUXES))
@pytest.mark.parametrize("grid", [GRID16, GRID64, GRID512], ids=["16", "64", "512"])
def test_the_swap_of_axes_1_and_2_is_caught(grid, flux):
    """The swap does not fix phi: the residual and the functional notice.
    Wedges commute with every linear pullback, so the square and the cube
    still agree, which shows the helper itself is sound."""
    gaps = _gaps(*SWAP12, _potential(grid, FLUXES[flux]))
    assert gaps["square"] <= TOL and gaps["cube"] <= TOL
    assert gaps["residual"] > 1e-6 and gaps["kl_functional"] > 1e-6


def _moment_args(grid):
    """Two scalar fields and three 1-forms for the moment scalars."""
    rng = np.random.default_rng(grid.npts + 3)
    return tuple(random_field(grid, k, rng) for k in (0, 0, 1, 1, 1))


def _moment_values(pot, g1, g2, b1, b2, b3) -> dict:
    lhs, rhs = nu_derivative_check(pot, g1, g2, b1)
    return {"theta3": theta3(pot, b1, b2, b3), "nu": nu(pot, g1, g2),
            "nu_derivative": lhs, "theta3_of_dg": rhs}


def _moment_gaps(perm, signs, pot, args, ref):
    """Relative gaps of theta3, nu and both numbers of nu_derivative_check
    at the pulled-back arguments against their values ``ref`` at the
    arguments."""
    got = _moment_values(pull_back(perm, signs, pot),
                         *(pull_back_field(perm, signs, f) for f in args))
    return {name: _rel_gap(got[name], ref[name]) for name in ref}


@pytest.mark.parametrize("flux", list(FLUXES), ids=list(FLUXES))
@pytest.mark.parametrize("grid, stride", [(GRID16, 3), (GRID64, 7)], ids=["16", "64"])
def test_moment_scalars_are_invariant(grid, stride, flux):
    """Every 3rd usable element at 16 points (22 of 64) and every 7th at
    64 (28 of 192).  dtheta4 is left out: it is a closedness residual near
    0, so its invariance says nothing."""
    pot, args = _potential(grid, FLUXES[flux]), _moment_args(grid)
    ref = _moment_values(pot, *args)
    for perm, signs in _grid_elements(grid)[::stride]:
        gaps = _moment_gaps(perm, signs, pot, args, ref)
        assert max(gaps.values()) <= TOL, (perm.tolist(), signs.tolist(), gaps)


@pytest.mark.parametrize("flux", list(FLUXES), ids=list(FLUXES))
@pytest.mark.parametrize("grid", [GRID16, GRID64], ids=["16", "64"])
def test_the_swap_of_axes_1_and_2_moves_the_moment_scalars(grid, flux):
    """The swap reverses the orientation and moves *phi: every value moves."""
    pot, args = _potential(grid, FLUXES[flux]), _moment_args(grid)
    gaps = _moment_gaps(*SWAP12, pot, args, _moment_values(pot, *args))
    assert min(gaps.values()) > 1e-6, gaps


CYLINDER_TIMES = (0.0, 0.1, 0.2)


def _cylinder_samples(grid, flux):
    """Three independent random potentials at uniform times: far from any
    flow, so both product-space residual norms are far from zero."""
    rng = np.random.default_rng(grid.npts + 5)
    return [random_coclosed_potential(grid, flux, rng, scale=0.05) for _ in CYLINDER_TIMES]


def _cylinder_gaps(perm, signs, pots, ref):
    """Relative gaps of cylinder_check_samples' two residual norms over
    the pulled-back samples against their values ``ref`` over the samples."""
    (got,) = flow.cylinder_check_samples(
        CYLINDER_TIMES, [pull_back(perm, signs, p) for p in pots])["samples"]
    return {name: _rel_gap(got[name], ref[name]) for name in ("res1_l2", "res2_l2")}


@pytest.mark.parametrize("flux", list(FLUXES), ids=list(FLUXES))
@pytest.mark.parametrize("grid, stride", [(GRID16, 3), (GRID64, 7)], ids=["16", "64"])
def test_cylinder_check_is_invariant(grid, stride, flux):
    """Every 3rd usable element at 16 points (22 of 64) and every 7th at
    64 (28 of 192): both residual norms to 1e-13 relative."""
    pots = _cylinder_samples(grid, FLUXES[flux])
    (ref,) = flow.cylinder_check_samples(CYLINDER_TIMES, pots)["samples"]
    assert min(ref["res1_l2"], ref["res2_l2"]) > 1e-3, ref
    for perm, signs in _grid_elements(grid)[::stride]:
        gaps = _cylinder_gaps(perm, signs, pots, ref)
        assert max(gaps.values()) <= TOL, (perm.tolist(), signs.tolist(), gaps)


@pytest.mark.parametrize("flux", list(FLUXES), ids=list(FLUXES))
@pytest.mark.parametrize("grid", [GRID16, GRID64], ids=["16", "64"])
def test_the_swap_of_axes_1_and_2_moves_the_cylinder_check(grid, flux):
    """The swap moves phi and *phi, so both residual norms move."""
    pots = _cylinder_samples(grid, FLUXES[flux])
    (ref,) = flow.cylinder_check_samples(CYLINDER_TIMES, pots)["samples"]
    gaps = _cylinder_gaps(*SWAP12, pots, ref)
    assert min(gaps.values()) > 1e-6, gaps


OPERATORS = {"d": (d, range(7)), "codiff": (codiff, range(1, 8)),
             "hodge_field": (hodge_field, range(8))}


def _operator_gaps(name, move, grid):
    """Relative gaps between op(move(f)) and move(op(f)) for a random f of
    each degree op takes."""
    op, degrees = OPERATORS[name]
    rng = np.random.default_rng(grid.npts)
    gaps = []
    for k in degrees:
        f = FormField(grid, k, rng.normal(size=(grid.npts, len(blades(7, k)))))
        gaps.append(_rel_gap(op(move(f)).coeffs, move(op(f)).coeffs))
    return gaps


def _moves_the_grid(grid, perm, signs) -> bool:
    axes = np.array(grid.active_axes) - 1
    return not (np.array_equal(perm[axes], axes) and np.all(signs[axes] == 1))


@pytest.mark.parametrize("name", list(OPERATORS))
@pytest.mark.parametrize("grid, stride", [(GRID16, 1), (GRID64, 7), (GRID512, 23)],
                         ids=["16", "64", "512"])
def test_d_codiff_and_hodge_are_equivariant(grid, stride, name):
    """Every usable element at 16 points, every 7th at 64 (28 of 192) and
    every 23rd at 512 (9 of 192), every degree."""
    for perm, signs in _grid_elements(grid)[::stride]:
        gaps = _operator_gaps(name, lambda f: pull_back_field(perm, signs, f), grid)
        assert max(gaps) <= TOL, (perm.tolist(), signs.tolist(), gaps)


@pytest.mark.parametrize("grid", [GRID16, GRID64, GRID512], ids=["16", "64", "512"])
def test_the_swap_of_axes_1_and_2_flips_the_hodge_star(grid):
    """The swap reverses the orientation, so *(g*f) = -g*(*f), while d and
    codiff stay natural under it."""
    swap = lambda f: pull_back_field(*SWAP12, f)
    assert min(_operator_gaps("hodge_field", swap, grid)) > 1
    assert max(_operator_gaps("d", swap, grid) + _operator_gaps("codiff", swap, grid)) <= TOL


@pytest.mark.parametrize("name", ["d", "codiff"])
@pytest.mark.parametrize("grid", [GRID16, GRID64, GRID512], ids=["16", "64", "512"])
def test_moving_points_without_the_coefficients_is_caught(grid, name):
    """Moving the points alone is no pullback, and d and codiff notice it
    at every degree, for the first three elements that move the grid."""
    movers = [e for e in _grid_elements(grid) if _moves_the_grid(grid, *e)][:3]
    for perm, signs in movers:
        gaps = _operator_gaps(name, lambda f: move_points(perm, signs, f), grid)
        assert min(gaps) > 1e-6, (perm.tolist(), signs.tolist(), gaps)


FLOW_DT = 1e-2
FLOW_CONFIG = flow.FlowConfig(dt=FLOW_DT, steps=4, scheme="rk4")


def _flow_gaps(perm, signs, pot, ref_step, ref_run):
    """Relative gaps of one rk4 flow_step from the pulled-back potential
    against the pulled-back step, and of a 4-step rk4 flow_run's functional
    trace against the reference trace (over their common length)."""
    gpot = pull_back(perm, signs, pot)
    step = flow.flow_step(gpot, FLOW_DT, "rk4")
    run = flow.flow_run(gpot, FLOW_CONFIG)
    n = min(len(run.functional), len(ref_run.functional))
    return {"step": _rel_gap(step.a.coeffs, pull_back_field(perm, signs, ref_step.a).coeffs),
            "trace": _rel_gap(run.functional[:n], ref_run.functional[:n]),
            "termination": run.termination == ref_run.termination}


@pytest.mark.parametrize("flux", list(FLUXES), ids=list(FLUXES))
@pytest.mark.parametrize("grid, stride", [(GRID16, 3), (GRID64, 7)], ids=["16", "64"])
def test_flow_step_and_flow_trace_are_equivariant(grid, stride, flux):
    """Every 3rd usable element at 16 points (22 of 64) and every 7th at 64
    (28 of 192): the step to 1e-13 relative, the trace the same, and the
    same termination."""
    pot = _potential(grid, FLUXES[flux])
    ref_step = flow.flow_step(pot, FLOW_DT, "rk4")
    ref_run = flow.flow_run(pot, FLOW_CONFIG)
    assert ref_run.termination == "completed"
    for perm, signs in _grid_elements(grid)[::stride]:
        gaps = _flow_gaps(perm, signs, pot, ref_step, ref_run)
        assert gaps.pop("termination"), (perm.tolist(), signs.tolist())
        assert max(gaps.values()) <= TOL, (perm.tolist(), signs.tolist(), gaps)


@pytest.mark.parametrize("grid", [GRID16, GRID64], ids=["16", "64"])
def test_the_swap_of_axes_1_and_2_moves_the_flow(grid):
    """The control, over the zero flux (the swap moves the calibrated flux
    out of the almost-calibrated set): the step and the trace both move."""
    pot = _potential(grid, FLUXES["zero"])
    gaps = _flow_gaps(*SWAP12, pot, flow.flow_step(pot, FLOW_DT, "rk4"),
                      flow.flow_run(pot, FLOW_CONFIG))
    assert gaps["step"] > 1e-6 and gaps["trace"] > 1e-6


CONTINUATION_FLUXES = {"calibrated": FLUXES["calibrated"],
                       "obstructed": Flux.from_entries({(1, 2): 1, (4, 7): 2, (5, 6): -1})}


@pytest.mark.parametrize("flux", list(CONTINUATION_FLUXES), ids=list(CONTINUATION_FLUXES))
def test_continuation_is_equivariant(flux):
    """Every 9th usable element at 16 points (8 of 64): from the pulled-back
    perturbed start, continuation over the pulled-back flux gives the
    pulled-back potential at every s to the Newton tolerance, with the same
    Newton counts and the same termination.  The calibrated flux completes
    and the other stops at its nonzero cube."""
    flux = CONTINUATION_FLUXES[flux]
    start = _potential(GRID16, flux)
    ref = flow.continuation(flux, grid=GRID16, initial=start, warm_start=False)
    for perm, signs in _grid_elements(GRID16)[::9]:
        gstart = pull_back(perm, signs, start)
        got = flow.continuation(gstart.flux, grid=GRID16, initial=gstart, warm_start=False)
        assert got.termination == ref.termination
        assert ([st.newton_iterations for st in got.steps]
                == [st.newton_iterations for st in ref.steps])
        gaps = [field_l2(mine.potential.a - pull_back_field(perm, signs, theirs.potential.a))
                for mine, theirs in zip(got.steps, ref.steps)]
        assert max(gaps) <= 1e-10, (perm.tolist(), signs.tolist(), gaps)


def test_the_flux_obstructions_are_invariant():
    """Both exact obstructions, the vector part and the cube, are the same
    for a flux and its pullback by every 21st element of the group (64 of
    1344; a flux needs no grid).  The swap of axes 1 and 2 moves *phi and
    gives the calibrated flux a vector part, so continuation over it has
    no instanton to start from."""
    perms, signs = tables.phi_symmetries()
    elements = list(zip(perms[::21], signs[::21]))
    for flux in CONTINUATION_FLUXES.values():
        vector, cube = flow._flux_has_vector_part(flux), flow._flux_cube_mean(flux)
        for perm, signs in elements:
            gflux = pull_back_flux(perm, signs, flux)
            assert flow._flux_has_vector_part(gflux) == vector
            assert flow._flux_cube_mean(gflux) == cube
    swapped = pull_back_flux(*SWAP12, CONTINUATION_FLUXES["calibrated"])
    assert flow._flux_has_vector_part(swapped)
    with pytest.raises(ObstructionError):
        flow.continuation(swapped, grid=GRID16)
