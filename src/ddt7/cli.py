"""Command-line driver: ddt7 <command> [--config FILE] [--out DIR].

Each command reads one JSON config (file keys override the documented
defaults; unknown keys are rejected), runs the corresponding library
operation, prints a short summary, and writes <out>/report.json with the
effective config echoed back so every run is self-describing.  Reports,
CSV files, and snapshots are byte-identical across runs with the same
config and seed; wall time is printed to stdout and kept out of the
report for exactly that reason.

Exit codes: 0 success, 1 verification failure, 2 invalid input (also an
unreadable or unwritable path), 3 numerical failure (Newton divergence,
degenerate metric, obstruction), 4 internal error (any other exception:
a bug, reported in one line).
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import time

import numpy as np

from . import flow, g2, prover, torus
from .errors import InputError, NumericalError, ObstructionError
from .exalg import Endo, KForm, blades, det_endo, sharp2
from .kernels import backend_name
from .scalars import FLOAT
from .torus import Flux, GaugePotential, TorusGrid

__all__ = ["main"]

# grid points x 35 blades of a 3- or 4-form, the widest field: 128 MiB each
MAX_GRID_CELLS = 2 ** 24


# --- config plumbing ---------------------------------------------------------


def _merge(defaults: dict, overrides: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, val in overrides.items():
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise InputError(f"unknown config key {prefix + str(key)!r} "
                             f"(known: {known})")
        if isinstance(defaults[key], dict) and isinstance(val, dict):
            out[key] = _merge(defaults[key], val, prefix + str(key) + ".")
        else:
            out[key] = val
    return out


def _load_config(path: str | None, defaults: dict) -> dict:
    if path is None:
        return copy.deepcopy(defaults)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read config {path}: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InputError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    return _merge(defaults, data)


def _as_int(cfg: dict, key: str) -> int:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"config key {key!r} must be an integer")
    return v


def _as_seed(cfg: dict) -> int:
    seed = _as_int(cfg, "seed")
    if seed < 0:
        raise InputError("config key 'seed' must be non-negative")
    return seed


def _is_num(v) -> bool:
    """A finite JSON number (json.load also reads NaN and Infinity)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _as_num(cfg: dict, key: str) -> float:
    v = cfg[key]
    if not _is_num(v):
        raise InputError(f"config key {key!r} must be a finite number")
    return float(v)


def _as_bool(cfg: dict, key: str) -> bool:
    v = cfg[key]
    if not isinstance(v, bool):
        raise InputError(f"config key {key!r} must be true or false")
    return v


def _flux_from(value) -> Flux:
    """Flux from config: {'i,j': n} object or a list of 21 integers."""
    if value is None:
        return Flux.zero()
    if isinstance(value, dict):
        entries = {}
        for key, v in value.items():
            parts = str(key).replace(",", " ").split()
            try:
                ij = tuple(int(p) for p in parts)
            except ValueError:
                raise InputError(f"flux key {key!r} is not an index pair "
                                 "'i,j'") from None
            if len(ij) != 2:
                raise InputError(f"flux key {key!r} is not an index pair 'i,j'")
            if isinstance(v, bool) or not isinstance(v, int):
                raise InputError(f"flux entry {key!r} must be an integer")
            entries[ij] = v
        return Flux.from_entries(entries)
    if isinstance(value, list):
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in value):
            raise InputError("flux list entries must be integers")
        return Flux(tuple(value))
    raise InputError("flux must be a {'i,j': n} object or a list of "
                     "21 integers")


def _grid_from(value: dict) -> TorusGrid:
    if not isinstance(value, dict):
        raise InputError("grid must be an object {\"axes\": [...], \"N\": n}")
    axes = value.get("axes")
    n = value.get("N")
    if not isinstance(axes, list) or not axes \
            or not all(isinstance(a, int) and not isinstance(a, bool)
                       for a in axes):
        raise InputError("grid.axes must be a nonempty list of integers")
    if isinstance(n, bool) or not isinstance(n, int):
        raise InputError("grid.N must be an integer")
    grid = TorusGrid(tuple(axes), n)
    if grid.npts * len(blades(7, 3)) > MAX_GRID_CELLS:
        raise InputError(f"a grid of {grid.npts} points exceeds the budget of "
                         f"{MAX_GRID_CELLS} float64 cells per 3-form field")
    return grid


def _as_kmax(cfg: dict, grid: TorusGrid) -> int:
    """The band limit of random fields: beyond N/2 modes only alias."""
    kmax = _as_int(cfg, "kmax")
    if not 0 <= kmax <= grid.N // 2:
        raise InputError(f"kmax must lie in 0..{grid.N // 2} on this grid")
    return kmax


# --- report plumbing ----------------------------------------------------------


def _jsonable(x):
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x).__name__}")


def _versions() -> dict:
    from . import __version__
    return {
        "ddt7": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "backend": backend_name(),
    }


def _write_report(out_dir: str, report: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2,
                            default=_jsonable) + "\n")
    return path


# --- verify -------------------------------------------------------------------

_VERIFY_DEFAULTS = {"seed": 0, "float_samples": 200, "tol": 1e-10,
                    "mutate": None}


def _canonical_mutation(identity_id: str):
    for mid, site, value in prover.canonical_mutations():
        if mid == identity_id:
            return site, value
    sites = prover.identity_sites(identity_id)
    if not sites:
        raise InputError(f"identity {identity_id} has no mutable sites")
    raise InputError(f"no canonical mutation recorded for {identity_id}")


def cmd_verify(cfg: dict, out_dir: str) -> int:
    report = {"command": "verify", "config": cfg, "versions": _versions()}
    if cfg["mutate"] is not None:
        site, value = _canonical_mutation(str(cfg["mutate"]))
        mutated_id = prover.mutate(str(cfg["mutate"]), site, value)
        rep = prover.verify(mutated_id)
        report["mutation"] = {"identity": str(cfg["mutate"]), "site": site,
                              "value": str(value)}
        report["identities"] = [rep.to_dict(deterministic=True)]
        ok = rep.reduced_to_zero
        report["pass"] = ok
        _write_report(out_dir, report)
        state = "reduced to zero" if ok else "nonzero witness found"
        print(f"{mutated_id}: {state}")
        return 0 if ok else 1
    # checked before the catalog's multi-second run
    samples, tol = _as_int(cfg, "float_samples"), _as_num(cfg, "tol")
    if samples < 1:
        raise InputError("float_samples must be at least 1")
    seed = _as_seed(cfg)
    reports = prover.verify_all()
    suite = prover.float_suite(samples, seed=seed, tol=tol)
    report["identities"] = [r.to_dict(deterministic=True) for r in reports]
    report["float_suite"] = suite
    ok = all(r.reduced_to_zero for r in reports) and suite["pass"]
    report["pass"] = ok
    _write_report(out_dir, report)
    for r in reports:
        print(f"{r.identity}: {'pass' if r.reduced_to_zero else 'FAIL'}")
    print(f"float suite ({suite['samples']} samples): "
          f"{'pass' if suite['pass'] else 'FAIL'}")
    return 0 if ok else 1


# --- decompose ------------------------------------------------------------------

_DECOMPOSE_DEFAULTS = {"seed": 0, "coefficients": None, "tol": 1e-10}


def cmd_decompose(cfg: dict, out_dir: str) -> int:
    tol = _as_num(cfg, "tol")
    if cfg["coefficients"] is not None:
        raw = cfg["coefficients"]
        if not isinstance(raw, list) or len(raw) != 21 \
                or not all(_is_num(v) for v in raw):
            raise InputError("coefficients must list 21 finite numbers "
                             "(upper triangle, row-major)")
        coeffs = [float(v) for v in raw]
    else:
        rng = np.random.default_rng(_as_seed(cfg))
        coeffs = [float(x) for x in rng.uniform(-1.0, 1.0, 21)]
    F = KForm.from_coeffs(7, 2, coeffs, FLOAT)
    dec, norms, th, checks = prover.decomposition_checks(F)
    det = float(det_endo(Endo.identity(7, FLOAT) + sharp2(F)))
    ok = all(v <= tol for v in checks.values()) and det > 0.0
    report = {
        "command": "decompose", "config": cfg, "versions": _versions(),
        "coefficients": coeffs,
        "u": [float(c) for c in dec.u.comps],
        "f7": [float(c) for c in dec.f7.coeffs],
        "f14": [float(c) for c in dec.f14.coeffs],
        "norms": norms,
        "theta": th,
        "det_metric": det,
        "checks": {k: {"residual": v, "pass": bool(v <= tol)}
                   for k, v in checks.items()},
        "det_metric_positive": bool(det > 0.0),
        "pass": bool(ok),
    }
    _write_report(out_dir, report)
    print(f"|u|^2 = {norms['u_sq']:.6g}, |f7|^2 = {norms['f7_sq']:.6g}, "
          f"|f14|^2 = {norms['f14_sq']:.6g}, theta = {th:.6g}")
    worst = max(checks.values())
    print(f"checks: max residual {worst:.3e}, det(I + F#) = {det:.6g} "
          f"({'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


# --- instanton ------------------------------------------------------------------

_INSTANTON_DEFAULTS = {"flux": None, "grid": {"axes": [1, 2], "N": 4}}


def cmd_instanton(cfg: dict, out_dir: str) -> int:
    flux = _flux_from(cfg["flux"])
    grid = _grid_from(cfg["grid"])
    report = {"command": "instanton", "config": cfg, "versions": _versions(),
              "flux_upper": list(flux.upper)}
    try:
        pot = flow.instanton_solve(flux, grid)
    except ObstructionError as e:
        report.update(obstructed=True, message=str(e))
        report["pass"] = False
        _write_report(out_dir, report)
        print(f"obstruction: {e}")
        return 3
    E = torus.curvature(pot)
    vec = torus.wedge_const(E, g2.star_phi_for(FLOAT))
    os.makedirs(out_dir, exist_ok=True)
    torus.save_field(os.path.join(out_dir, "potential.t7f"), pot.a)
    torus.save_flux(os.path.join(out_dir, "flux.txt"), flux)
    report.update(
        obstructed=False,
        a_l2=torus.field_l2(pot.a),
        vector_part_l2=torus.field_l2(vec),
        codiff_l2=torus.field_l2(torus.codiff(pot.a)),
        mean_abs=float(np.max(np.abs(torus.field_mean(pot.a)))),
        potential_file="potential.t7f",
        flux_file="flux.txt",
    )
    report["pass"] = True
    _write_report(out_dir, report)
    print(f"instanton found: |a| = {report['a_l2']:.3e}, "
          f"|E ^ *phi| = {report['vector_part_l2']:.3e}")
    return 0


# --- continue ---------------------------------------------------------------------

_CONTINUE_DEFAULTS = {
    "flux": None, "grid": {"axes": [1, 2], "N": 4}, "schedule": None,
    "tol": 1e-10, "max_newton": 12, "warm_start": True,
    "initial_snapshot": None, "perturb_scale": 0.0, "seed": 0, "kmax": 1,
}


def cmd_continue(cfg: dict, out_dir: str) -> int:
    flux = _flux_from(cfg["flux"])
    grid = _grid_from(cfg["grid"])
    if cfg["schedule"] is None:
        cfg = dict(cfg)
        cfg["schedule"] = [float(s) for s in flow.DEFAULT_SCHEDULE]
    schedule = cfg["schedule"]
    if not isinstance(schedule, list) or not all(_is_num(s) for s in schedule):
        raise InputError("schedule must be a list of finite numbers")
    tol = _as_num(cfg, "tol")
    perturb = _as_num(cfg, "perturb_scale")
    report = {"command": "continue", "config": cfg, "versions": _versions(),
              "flux_upper": list(flux.upper)}
    try:
        a0 = None
        if cfg["initial_snapshot"] is not None:
            f = torus.load_field(str(cfg["initial_snapshot"]))
            if f.k != 1:
                raise InputError("initial snapshot must hold a 1-form field")
            if f.grid != grid:
                raise InputError("initial snapshot grid does not match "
                                 "the config grid")
            a0 = f
        if perturb > 0.0:
            rng = np.random.default_rng(_as_seed(cfg))
            noise = torus.coclosed_project(
                torus.random_field(grid, 1, rng, perturb,
                                   _as_kmax(cfg, grid)))
            if a0 is None:
                a0 = flow.instanton_solve(flux, grid).a
            a0 = a0 + noise
        initial = GaugePotential(a0, flux) if a0 is not None else None
        result = flow.continuation(flux, schedule=schedule, tol=tol,
                                   max_newton=_as_int(cfg, "max_newton"),
                                   grid=grid, initial=initial,
                                   warm_start=_as_bool(cfg, "warm_start"))
    except ObstructionError as e:
        report.update(obstructed=True, message=str(e))
        report["pass"] = False
        _write_report(out_dir, report)
        print(f"obstruction: {e}")
        return 3
    report["steps"] = [
        {"s": st.s, "residual_norm": st.residual_norm,
         "newton_iterations": st.newton_iterations,
         "residual_history": list(st.residual_history)}
        for st in result.steps
    ]
    report["termination"] = result.termination
    report["completed"] = result.completed
    report["pass"] = result.completed
    if result.steps:
        os.makedirs(out_dir, exist_ok=True)
        torus.save_field(os.path.join(out_dir, "potential.t7f"),
                         result.steps[-1].potential.a)
        torus.save_flux(os.path.join(out_dir, "flux.txt"), flux)
        report["potential_file"] = "potential.t7f"
        report["flux_file"] = "flux.txt"
    _write_report(out_dir, report)
    for st in result.steps:
        print(f"s = {st.s:g}: residual {st.residual_norm:.3e} "
              f"after {st.newton_iterations} newton steps")
    print(result.termination)
    return 0 if result.completed else 3


# --- flow -------------------------------------------------------------------------

_FLOW_DEFAULTS = {
    "flux": None, "grid": {"axes": [1, 2], "N": 4},
    "dt": 1e-3, "steps": 200, "scheme": "euler", "theta_min": 1e-3,
    "record_every": 10,
    "seed": 0, "initial_scale": 0.02, "kmax": 1, "initial_snapshot": None,
}


def cmd_flow(cfg: dict, out_dir: str) -> int:
    flux = _flux_from(cfg["flux"])
    grid = _grid_from(cfg["grid"])
    if not isinstance(cfg["scheme"], str):
        raise InputError("scheme must be a string")
    run_cfg = flow.FlowConfig(dt=_as_num(cfg, "dt"),
                              steps=_as_int(cfg, "steps"),
                              scheme=cfg["scheme"],
                              theta_min=_as_num(cfg, "theta_min"),
                              record_every=_as_int(cfg, "record_every"))
    if cfg["initial_snapshot"] is not None:
        f = torus.load_field(str(cfg["initial_snapshot"]))
        if f.k != 1:
            raise InputError("initial snapshot must hold a 1-form field")
        if f.grid != grid:
            raise InputError("initial snapshot grid does not match the "
                             "config grid")
        pot0 = GaugePotential(f, flux)
    else:
        rng = np.random.default_rng(_as_seed(cfg))
        pot0 = torus.random_coclosed_potential(
            grid, flux, rng, _as_num(cfg, "initial_scale"),
            _as_kmax(cfg, grid))
    traj = flow.flow_run(pot0, run_cfg)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trajectory.csv"), "w") as fh:
        fh.write("t,functional,residual_l2,theta_min\n")
        for t, q, r, th in zip(traj.times, traj.functional,
                               traj.residual_l2, traj.theta_min_per_step):
            fh.write(f"{float(t)!r},{float(q)!r},{float(r)!r},{float(th)!r}\n")
    sample_files = []
    for i, pot in enumerate(traj.samples):
        name = f"sample_{i:04d}.t7f"
        torus.save_field(os.path.join(out_dir, name), pot.a)
        sample_files.append(name)
    torus.save_flux(os.path.join(out_dir, "flux.txt"), flux)

    deltas = np.diff(traj.functional)
    scale = max(1.0, float(np.max(np.abs(traj.functional))))
    min_delta = float(np.min(deltas)) if deltas.size else 0.0
    monotone = bool(min_delta >= -1e-9 * scale)
    report = {
        "command": "flow", "config": cfg, "versions": _versions(),
        "flux_upper": list(flux.upper),
        "termination": traj.termination,
        "steps_taken": int(len(traj.times) - 1),
        "monotone": {"min_step_delta": min_delta, "scale": scale,
                     "non_decreasing": monotone},
        "final": {"functional": float(traj.functional[-1]),
                  "residual_l2": float(traj.residual_l2[-1]),
                  "theta_min": float(traj.theta_min_per_step[-1])},
        "sample_times": [float(t) for t in traj.sample_times],
        "sample_files": sample_files,
        "flux_file": "flux.txt",
        "trajectory_csv": "trajectory.csv",
        "pass": traj.termination == "completed",
    }
    _write_report(out_dir, report)
    print(f"{report['steps_taken']} steps, functional "
          f"{float(traj.functional[0])!r} -> {float(traj.functional[-1])!r}, "
          f"non-decreasing: {monotone}")
    print(traj.termination)
    return 0 if traj.termination == "completed" else 3


# --- cylinder -----------------------------------------------------------------------

_CYLINDER_DEFAULTS = {"trajectory": None, "tol": None}


def cmd_cylinder(cfg: dict, out_dir: str) -> int:
    src = cfg["trajectory"]
    if not isinstance(src, str) or not src:
        raise InputError("config key 'trajectory' must name a flow output "
                         "directory")
    report_path = os.path.join(src, "report.json")
    try:
        with open(report_path) as fh:
            flow_report = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {report_path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{report_path} is not valid JSON: {e}") from None
    try:
        times = flow_report["sample_times"]
        files = flow_report["sample_files"]
        flux_file = flow_report["flux_file"]
    except (KeyError, TypeError):
        raise InputError(f"{report_path} is not a flow report "
                         "(missing sample_times/sample_files/flux_file)") \
            from None
    if not (isinstance(times, list) and all(_is_num(t) for t in times)
            and isinstance(files, list)
            and all(isinstance(f, str) for f in files + [flux_file])):
        raise InputError(f"{report_path}: sample_times must be numbers and "
                         "sample_files and flux_file names")
    flux = torus.load_flux(os.path.join(src, flux_file))
    pots = [GaugePotential(torus.load_field(os.path.join(src, name)), flux)
            for name in files]
    result = flow.cylinder_check_samples(times, pots)
    ok = True
    if cfg["tol"] is not None:
        tol = _as_num(cfg, "tol")
        ok = result["max_res1"] <= tol and result["max_res2"] <= tol
    report = {"command": "cylinder", "config": cfg, "versions": _versions(),
              "check": result, "pass": bool(ok)}
    _write_report(out_dir, report)
    print(f"spacing {result['spacing']!r}: max product-space residuals "
          f"{result['max_res1']:.6e} / {result['max_res2']:.6e}")
    return 0 if ok else 1


# --- moment -------------------------------------------------------------------------

_MOMENT_DEFAULTS = {
    "grid": {"axes": [1, 2, 3], "N": 8}, "flux": None,
    "samples": 10, "seed": 0, "scale": 0.05, "kmax": 1, "tol": 1e-10,
}


def cmd_moment(cfg: dict, out_dir: str) -> int:
    grid = _grid_from(cfg["grid"])
    flux = _flux_from(cfg["flux"])
    samples = _as_int(cfg, "samples")
    if samples < 1:
        raise InputError("samples must be at least 1")
    scale = _as_num(cfg, "scale")
    kmax = _as_kmax(cfg, grid)
    tol = _as_num(cfg, "tol")
    rng = np.random.default_rng(_as_seed(cfg))
    worst = {"derivative_match": 0.0, "theta3_antisymmetry": 0.0,
             "dtheta4_closedness": 0.0, "gauge_kl": 0.0, "gauge_nu": 0.0,
             "gauge_theta3": 0.0, "gauge_residual": 0.0}
    for i in range(samples):
        with flow._finite(f"moment draw {i + 1}"):
            pot = torus.random_potential(grid, flux, rng, scale, kmax)
            g1f = torus.random_field(grid, 0, rng, scale, kmax)
            g2f = torus.random_field(grid, 0, rng, scale, kmax)
            b1 = torus.random_field(grid, 1, rng, scale, kmax)
            b2 = torus.random_field(grid, 1, rng, scale, kmax)
            b3 = torus.random_field(grid, 1, rng, scale, kmax)
            b4 = torus.random_field(grid, 1, rng, scale, kmax)
            chi = torus.random_field(grid, 0, rng, scale, kmax)
            winding = tuple(int(x) for x in rng.integers(-2, 3, size=7))

            lhs, rhs = torus.nu_derivative_check(pot, g1f, g2f, b1)
            num = abs(lhs - rhs)
            if num > 0.0:
                worst["derivative_match"] = max(worst["derivative_match"],
                                                num / max(abs(lhs), abs(rhs)))
            t123 = torus.theta3(pot, b1, b2, b3)
            worst["theta3_antisymmetry"] = max(
                worst["theta3_antisymmetry"],
                abs(torus.theta3(pot, b2, b1, b3) + t123),
                abs(torus.theta3(pot, b1, b3, b2) + t123),
                abs(torus.theta3(pot, b1, b1, b2)))
            worst["dtheta4_closedness"] = max(
                worst["dtheta4_closedness"],
                abs(torus.dtheta4(pot, b1, b2, b3, b4)))

            shifted = torus.gauge_shift(pot, chi, winding)
            # the functional is only invariant under small gauges; winding
            # shifts move it by flux-dependent constants
            small = torus.gauge_shift(pot, chi)
            kl0 = torus.kl_functional(pot)
            worst["gauge_kl"] = max(
                worst["gauge_kl"],
                abs(torus.kl_functional(small) - kl0) / max(1.0, abs(kl0)))
            nu0 = torus.nu(pot, g1f, g2f)
            worst["gauge_nu"] = max(worst["gauge_nu"],
                                    abs(torus.nu(shifted, g1f, g2f) - nu0))
            worst["gauge_theta3"] = max(
                worst["gauge_theta3"],
                abs(torus.theta3(shifted, b1, b2, b3) - t123))
            _, r0 = torus.residual_field(pot)
            _, r1 = torus.residual_field(shifted)
            worst["gauge_residual"] = max(worst["gauge_residual"],
                                          abs(r1 - r0) / max(1.0, r0))
    checks = {name: {"max": v, "pass": bool(v <= tol)}
              for name, v in worst.items()}
    ok = all(c["pass"] for c in checks.values())
    report = {"command": "moment", "config": cfg, "versions": _versions(),
              "checks": checks, "pass": bool(ok)}
    _write_report(out_dir, report)
    for name, c in checks.items():
        print(f"{name}: max {c['max']:.3e} {'pass' if c['pass'] else 'FAIL'}")
    return 0 if ok else 1


# --- entry point --------------------------------------------------------------------

_COMMANDS = {
    "verify": (_VERIFY_DEFAULTS, cmd_verify,
               "exact identity catalog plus the random float suite"),
    "decompose": (_DECOMPOSE_DEFAULTS, cmd_decompose,
                  "split a 2-form into 7- and 14-dimensional parts"),
    "instanton": (_INSTANTON_DEFAULTS, cmd_instanton,
                  "solve the linear instanton equation for a flux class"),
    "continue": (_CONTINUE_DEFAULTS, cmd_continue,
                 "Newton continuation in the scale parameter"),
    "flow": (_FLOW_DEFAULTS, cmd_flow,
             "integrate the ascent flow and export the trajectory"),
    "cylinder": (_CYLINDER_DEFAULTS, cmd_cylinder,
                 "product-space residuals over stored flow samples"),
    "moment": (_MOMENT_DEFAULTS, cmd_moment,
               "randomized moment-map and gauge-invariance checks"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddt7",
        description="Deformed G2 gauge theory on the flat 7-torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="JSON config; keys override the defaults")
        sp.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current)")
        if name == "verify":
            sp.add_argument("--mutate", default=None, metavar="ID",
                            help="verify the canonical single-site mutation "
                                 "of this identity instead (expected FAIL)")
            sp.add_argument("--float-samples", type=int, default=None,
                            dest="float_samples", metavar="N")
            sp.add_argument("--seed", type=int, default=None, metavar="S")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    defaults, runner, _ = _COMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        cfg = _load_config(args.config, defaults)
        if args.command == "verify":
            if args.mutate is not None:
                cfg["mutate"] = args.mutate
            if args.float_samples is not None:
                cfg["float_samples"] = args.float_samples
            if args.seed is not None:
                cfg["seed"] = args.seed
        code = runner(cfg, args.out)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # every path read or written comes from the user
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # a bug, not the input: one line, no traceback
        msg = str(e).replace("\n", " ")
        print(f"internal error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 4
    print(f"wall time {time.perf_counter() - t0:.3f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
