"""Command-line driver: ddt7 <command> [--config FILE] [--out DIR].

Each command reads one JSON config: its keys, and verify's flags, override
the documented defaults; unknown keys are rejected, and a scalar key takes
its default's type, numbers non-negative.  ``_run`` is the one place a
report is written: <out>/report.json holds the command, the effective
config and the versions, the command's own keys, and ``pass``, true
exactly when the exit code is 0.  Reports, CSV files, and snapshots are
byte-identical across runs with the same config and seed; wall time is
printed to stdout and kept out of the report for exactly that reason.
``_run`` also writes <out>/run.json, the run record, for every command:
its ``process`` block holds the minor page faults taken over the command
(``minor_faults``) and the process's peak resident set (``peak_rss_mib``).
``verify`` adds each identity's wall time (``elapsed_s``) in the order
run, ``moment`` each draw's wall time (``elapsed_s``) in order,
``continue`` per schedule entry one record per Newton step of its inner
solve, forcing tolerance, step length and min theta_s, and ``flow`` one
record per row of trajectory.csv (step 0 is the start): the step's wall
time and the grid point of least theta, with that theta.  Nothing of the
record enters the report.

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
import resource
import sys
import time
from dataclasses import asdict

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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    """A finite JSON number (json.load also reads NaN, Infinity and integers
    beyond float64)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_scalar(name: str, default, val) -> None:
    """A scalar key takes its default's type: bool, int, finite number or
    string; no numeric key takes a negative value, and no integer key one
    beyond float64."""
    if isinstance(default, bool):
        ok, want = isinstance(val, bool), "true or false"
    elif isinstance(default, str):
        ok, want = isinstance(val, str), "a string"
    elif isinstance(default, int):
        ok, want = _is_int(val) and _is_num(val) and val >= 0, \
            "a non-negative integer within float64"
    else:
        ok, want = _is_num(val) and val >= 0, "a finite non-negative number"
    if not ok:
        raise InputError(f"config key {name!r} must be {want}")


def _merge(defaults: dict, overrides: dict, prefix: str = "") -> dict:
    """The defaults with the overrides applied, each checked against its
    default; keys that default to None or a list are checked where used."""
    out = copy.deepcopy(defaults)
    for key, val in overrides.items():
        name = prefix + str(key)
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise InputError(f"unknown config key {name!r} (known: {known})")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(val, dict):
                raise InputError(f"config key {name!r} must be an object")
            val = _merge(default, val, name + ".")
        elif isinstance(default, (bool, int, float, str)):
            _check_scalar(name, default, val)
        out[key] = val
    return out


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read config {path}: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InputError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    return data


def _flux_from(value) -> Flux:
    """Flux from config: {'i,j': n} object or a list of 21 integers.  A key
    is two integers split by commas or spaces; two keys naming one pair
    are refused."""
    if value is None:
        return Flux.zero()
    if isinstance(value, dict):
        entries, keys = {}, {}
        for key, v in value.items():
            parts = str(key).replace(",", " ").split()
            try:
                ij = tuple(int(p) for p in parts)
            except ValueError:
                raise InputError(f"flux key {key!r} is not an index pair "
                                 "'i,j'") from None
            if len(ij) != 2:
                raise InputError(f"flux key {key!r} is not an index pair 'i,j'")
            if not _is_int(v):
                raise InputError(f"flux entry {key!r} must be an integer")
            if ij in keys:
                raise InputError(f"flux keys {keys[ij]!r} and {key!r} both name "
                                 f"the pair {ij}")
            entries[ij], keys[ij] = v, key
        return Flux.from_entries(entries)
    if isinstance(value, list):
        if not all(_is_int(v) for v in value):
            raise InputError("flux list entries must be integers")
        return Flux(tuple(value))
    raise InputError("flux must be a {'i,j': n} object or a list of "
                     "21 integers")


def _grid_from(value: dict) -> TorusGrid:
    axes = value["axes"]
    if not isinstance(axes, list) or not axes \
            or not all(_is_int(a) for a in axes):
        raise InputError("grid.axes must be a nonempty list of integers")
    grid = TorusGrid(tuple(axes), value["N"])
    if grid.npts * len(blades(7, 3)) > MAX_GRID_CELLS:
        raise InputError(f"a grid of {grid.npts} points exceeds the budget of "
                         f"{MAX_GRID_CELLS} float64 cells per 3-form field")
    return grid


def _as_kmax(cfg: dict, grid: TorusGrid) -> int:
    """The band limit of random fields: beyond N/2 modes only alias."""
    kmax = cfg["kmax"]
    if kmax > grid.N // 2:
        raise InputError(f"kmax must lie in 0..{grid.N // 2} on this grid")
    return kmax


def _initial_snapshot(cfg: dict, grid: TorusGrid):
    """The 1-form field of config key 'initial_snapshot' on the config grid,
    or None."""
    src = cfg["initial_snapshot"]
    if src is None:
        return None
    if not isinstance(src, str) or not src:
        raise InputError("config key 'initial_snapshot' must name a snapshot file")
    f = torus.load_field(src)
    if f.k != 1:
        raise InputError("initial snapshot must hold a 1-form field")
    if f.grid != grid:
        raise InputError("initial snapshot grid does not match the config grid")
    return f


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


def _non_finite_key(x, path: str = "report") -> str | None:
    """The path of the first inf or NaN number in a report, or None."""
    if isinstance(x, dict):
        items = ((f"{path}.{k}", v) for k, v in x.items())
    elif isinstance(x, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(x))
    elif isinstance(x, np.ndarray):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(x.tolist()))
    elif isinstance(x, (float, np.floating)):
        return None if math.isfinite(x) else path
    else:
        return None
    for sub, v in items:
        found = _non_finite_key(v, sub)
        if found is not None:
            return found
    return None


def _write_json(out_dir: str, files: dict) -> None:
    """Write each <out_dir>/<name> of ``files``, a dict per name; a non-finite
    number in any of them is a numerical failure, raised before anything
    is written."""
    for name, payload in files.items():
        bad = _non_finite_key(payload, name.removesuffix(".json"))
        if bad is not None:
            raise NumericalError(f"{bad} is not finite")
    os.makedirs(out_dir, exist_ok=True)
    for name, payload in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2,
                                allow_nan=False, default=_jsonable) + "\n")


def _save_potential(out_dir: str, a, flux: Flux) -> dict:
    """Write potential.t7f and flux.txt; the report keys naming them."""
    os.makedirs(out_dir, exist_ok=True)
    torus.save_field(os.path.join(out_dir, "potential.t7f"), a)
    torus.save_flux(os.path.join(out_dir, "flux.txt"), flux)
    return {"potential_file": "potential.t7f", "flux_file": "flux.txt"}


# --- verify -------------------------------------------------------------------

_VERIFY_DEFAULTS = {"seed": 0, "float_samples": 200, "tol": 1e-10,
                    "mutate": None}


def _canonical_mutation(spelling: str):
    """(identity, site, value) of the canonical mutation spelled ``ID`` (the
    identity's first) or ``ID.site``, the keys of perfbench/witnesses.json."""
    identity, dot, site = spelling.partition(".")
    entries = [m for m in prover.canonical_mutations() if m[0] == identity]
    if not entries:
        if not prover.identity_sites(identity):
            raise InputError(f"identity {identity} has no mutable sites")
        raise InputError(f"no canonical mutation recorded for {identity}")
    for entry in entries:
        if not dot or entry[1] == site:
            return entry
    raise InputError(f"identity {identity} has no canonical mutation at site "
                     f"{site!r}; canonical sites: "
                     f"{', '.join(m[1] for m in entries)}")


def _identity_times(reports) -> list:
    """verify's run record: each identity's wall time, in the order run."""
    return [{"identity": r.identity, "elapsed_s": r.elapsed_s} for r in reports]


def cmd_verify(cfg: dict, out_dir: str, report: dict,
               record: dict) -> tuple[int, list]:
    if cfg["mutate"] is not None:
        identity, site, value = _canonical_mutation(str(cfg["mutate"]))
        mutated_id = prover.mutate(identity, site, value)
        rep = prover.verify(mutated_id)
        report["mutation"] = {"identity": identity, "site": site,
                              "value": str(value)}
        report["identities"] = [rep.to_dict()]
        record["identities"] = _identity_times([rep])
        ok = rep.reduced_to_zero
        state = "reduced to zero" if ok else "nonzero witness found"
        return (0 if ok else 1), [f"{mutated_id}: {state}"]
    # checked before the catalog's multi-second run
    if cfg["float_samples"] < 1:
        raise InputError("float_samples must be at least 1")
    reports = prover.verify_all()
    suite = prover.float_suite(cfg["float_samples"], seed=cfg["seed"],
                               tol=cfg["tol"])
    report["identities"] = [r.to_dict() for r in reports]
    record["identities"] = _identity_times(reports)
    report["float_suite"] = suite
    ok = all(r.reduced_to_zero for r in reports) and suite["pass"]
    lines = [f"{r.identity}: {'pass' if r.reduced_to_zero else 'FAIL'}"
             for r in reports]
    lines.append(f"float suite ({suite['samples']} samples): "
                 f"{'pass' if suite['pass'] else 'FAIL'}")
    return (0 if ok else 1), lines


# --- decompose ------------------------------------------------------------------

_DECOMPOSE_DEFAULTS = {"seed": 0, "coefficients": None, "tol": 1e-10}


def cmd_decompose(cfg: dict, out_dir: str, report: dict,
                  record: dict) -> tuple[int, list]:
    tol = cfg["tol"]
    if cfg["coefficients"] is not None:
        raw = cfg["coefficients"]
        if not isinstance(raw, list) or len(raw) != 21 \
                or not all(_is_num(v) for v in raw):
            raise InputError("coefficients must list 21 finite numbers "
                             "(upper triangle, row-major)")
        coeffs = [float(v) for v in raw]
    else:
        rng = np.random.default_rng(cfg["seed"])
        coeffs = [float(x) for x in rng.uniform(-1.0, 1.0, 21)]
    F = KForm.from_coeffs(7, 2, coeffs, FLOAT)
    dec, norms, th, checks = prover.decomposition_checks(F)
    checks = {k: float(v) for k, v in checks.items()}
    det = float(det_endo(Endo.identity(7, FLOAT) + sharp2(F)))
    ok = all(v <= tol for v in checks.values()) and det > 0.0
    report.update(
        coefficients=coeffs,
        u=[float(c) for c in dec.u.coeffs],
        f7=[float(c) for c in dec.f7.coeffs],
        f14=[float(c) for c in dec.f14.coeffs],
        norms=norms,
        theta=th,
        det_metric=det,
        checks={k: {"residual": v, "pass": bool(v <= tol)}
                for k, v in checks.items()},
        det_metric_positive=bool(det > 0.0),
    )
    return (0 if ok else 1), [
        f"|u|^2 = {norms['u_sq']:.6g}, |f7|^2 = {norms['f7_sq']:.6g}, "
        f"|f14|^2 = {norms['f14_sq']:.6g}, theta = {th:.6g}",
        f"checks: max residual {max(checks.values()):.3e}, "
        f"det(I + F#) = {det:.6g} ({'pass' if ok else 'FAIL'})"]


# --- instanton ------------------------------------------------------------------

_INSTANTON_DEFAULTS = {"flux": None, "grid": {"axes": [1, 2], "N": 4}}


def cmd_instanton(cfg: dict, out_dir: str, report: dict,
                  record: dict) -> tuple[int, list]:
    flux = _flux_from(cfg["flux"])
    grid = _grid_from(cfg["grid"])
    report["flux_upper"] = list(flux.upper)
    pot = flow.instanton_solve(flux, grid)
    E = torus.curvature(pot)
    vec = torus.wedge_const(E, g2.star_phi_for(FLOAT))
    report.update(
        obstructed=False,
        a_l2=torus.field_l2(pot.a),
        vector_part_l2=torus.field_l2(vec),
        codiff_l2=torus.field_l2(torus.codiff(pot.a)),
        mean_abs=float(np.max(np.abs(torus.field_mean(pot.a)))),
        **_save_potential(out_dir, pot.a, flux),
    )
    return 0, [f"instanton found: |a| = {report['a_l2']:.3e}, "
               f"|E ^ *phi| = {report['vector_part_l2']:.3e}"]


# --- continue ---------------------------------------------------------------------

_CONTINUE_DEFAULTS = {
    "flux": None, "grid": {"axes": [1, 2], "N": 4}, "schedule": None,
    "tol": 1e-10, "max_newton": 12, "warm_start": True,
    "initial_snapshot": None, "perturb_scale": 0.0, "seed": 0, "kmax": 1,
}


def cmd_continue(cfg: dict, out_dir: str, report: dict,
                 record: dict) -> tuple[int, list]:
    flux = _flux_from(cfg["flux"])
    grid = _grid_from(cfg["grid"])
    if cfg["schedule"] is None:  # echoed in the report as run
        cfg["schedule"] = [float(s) for s in flow.DEFAULT_SCHEDULE]
    schedule = cfg["schedule"]
    if not isinstance(schedule, list) or not all(_is_num(s) for s in schedule):
        raise InputError("schedule must be a list of finite numbers")
    kmax = _as_kmax(cfg, grid)
    report["flux_upper"] = list(flux.upper)
    a0 = _initial_snapshot(cfg, grid)
    if cfg["perturb_scale"] > 0.0:
        rng = np.random.default_rng(cfg["seed"])
        noise = torus.coclosed_project(
            torus.random_field(grid, 1, rng, cfg["perturb_scale"], kmax))
        if a0 is None:
            a0 = flow.instanton_solve(flux, grid).a
        a0 = a0 + noise
    initial = GaugePotential(a0, flux) if a0 is not None else None
    result = flow.continuation(flux, schedule=schedule, tol=cfg["tol"],
                               max_newton=cfg["max_newton"], grid=grid,
                               initial=initial, warm_start=cfg["warm_start"])
    report["steps"] = [
        {"s": st.s, "residual_norm": st.residual_norm,
         "newton_iterations": st.newton_iterations,
         "residual_history": list(st.residual_history)}
        for st in result.steps
    ]
    report["termination"] = result.termination
    report["completed"] = result.completed
    report["obstructed"] = result.obstructed
    record["steps"] = [{"s": st.s, "newton": [asdict(it) for it in st.iterates]}
                       for st in result.steps]
    if result.steps:
        report.update(_save_potential(out_dir, result.steps[-1].potential.a,
                                      flux))
    lines = [f"s = {st.s:g}: residual {st.residual_norm:.3e} "
             f"after {st.newton_iterations} newton steps"
             for st in result.steps]
    lines.append(result.termination)
    return (0 if result.completed else 3), lines


# --- flow -------------------------------------------------------------------------

_FLOW_DEFAULTS = {
    "flux": None, "grid": {"axes": [1, 2], "N": 4},
    "dt": 1e-3, "steps": 200, "scheme": "euler", "theta_min": 1e-3,
    "record_every": 10,
    "seed": 0, "initial_scale": 0.02, "kmax": 1, "initial_snapshot": None,
}


def cmd_flow(cfg: dict, out_dir: str, report: dict,
             record: dict) -> tuple[int, list]:
    flux = _flux_from(cfg["flux"])
    grid = _grid_from(cfg["grid"])
    kmax = _as_kmax(cfg, grid)
    run_cfg = flow.FlowConfig(dt=float(cfg["dt"]), steps=cfg["steps"],
                              scheme=cfg["scheme"],
                              theta_min=float(cfg["theta_min"]),
                              record_every=cfg["record_every"])
    a0 = _initial_snapshot(cfg, grid)
    if a0 is not None:
        pot0 = GaugePotential(a0, flux)
    else:
        rng = np.random.default_rng(cfg["seed"])
        pot0 = torus.random_coclosed_potential(
            grid, flux, rng, cfg["initial_scale"], kmax)
    traj = flow.flow_run(pot0, run_cfg)
    record["steps"] = [
        {"step": i, "elapsed_s": float(secs), "theta_min": float(th),
         "theta_min_point": flow._grid_point(grid, int(at))}
        for i, (secs, th, at) in enumerate(zip(
            traj.step_seconds, traj.theta_min_per_step, traj.theta_argmin))]

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
    report.update(
        flux_upper=list(flux.upper),
        termination=traj.termination,
        steps_taken=int(len(traj.times) - 1),
        monotone={"min_step_delta": min_delta, "scale": scale,
                  "non_decreasing": monotone},
        final={"functional": float(traj.functional[-1]),
               "residual_l2": float(traj.residual_l2[-1]),
               "theta_min": float(traj.theta_min_per_step[-1])},
        sample_times=[float(t) for t in traj.sample_times],
        sample_files=sample_files,
        flux_file="flux.txt",
        trajectory_csv="trajectory.csv",
    )
    return (0 if traj.termination == "completed" else 3), [
        f"{report['steps_taken']} steps, functional "
        f"{float(traj.functional[0])!r} -> {float(traj.functional[-1])!r}, "
        f"non-decreasing: {monotone}",
        traj.termination]


# --- cylinder -----------------------------------------------------------------------

_CYLINDER_DEFAULTS = {"trajectory": None, "tol": None}


def cmd_cylinder(cfg: dict, out_dir: str, report: dict,
                 record: dict) -> tuple[int, list]:
    src, tol = cfg["trajectory"], cfg["tol"]
    if not isinstance(src, str) or not src:
        raise InputError("config key 'trajectory' must name a flow output "
                         "directory")
    if tol is not None:  # a number, checked as the keys with numeric defaults
        _check_scalar("tol", 0.0, tol)
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
    ok = tol is None or (result["max_res1"] <= tol
                         and result["max_res2"] <= tol)
    report["check"] = result
    return (0 if ok else 1), [
        f"spacing {result['spacing']!r}: max product-space residuals "
        f"{result['max_res1']:.6e} / {result['max_res2']:.6e}"]


# --- moment -------------------------------------------------------------------------

_MOMENT_DEFAULTS = {
    "grid": {"axes": [1, 2, 3], "N": 8}, "flux": None,
    "samples": 10, "seed": 0, "scale": 0.05, "kmax": 1, "tol": 1e-10,
}


def cmd_moment(cfg: dict, out_dir: str, report: dict,
               record: dict) -> tuple[int, list]:
    grid = _grid_from(cfg["grid"])
    flux = _flux_from(cfg["flux"])
    samples = cfg["samples"]
    if samples < 1:
        raise InputError("samples must be at least 1")
    scale = cfg["scale"]
    kmax = _as_kmax(cfg, grid)
    # the widest integrands (nu, its derivative, theta3 of dg, dtheta4) each
    # multiply five fields of modes up to kmax; the grid sums their means
    # exactly only while no product reaches mode N
    if 5 * kmax >= grid.N:
        raise InputError(f"moment needs 5 * kmax < N, so that its five-factor "
                         f"integrands do not alias: kmax {kmax} on N = {grid.N}")
    rng = np.random.default_rng(cfg["seed"])
    worst = {"derivative_match": 0.0, "theta3_antisymmetry": 0.0,
             "dtheta4_closedness": 0.0, "gauge_kl": 0.0, "gauge_nu": 0.0,
             "gauge_theta3": 0.0, "gauge_residual": 0.0}
    record["draws"] = []
    for i in range(samples):
        start = time.perf_counter()
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
        record["draws"].append({"draw": i + 1,
                                "elapsed_s": time.perf_counter() - start})
    tol = cfg["tol"]
    report["checks"] = {name: {"max": v, "pass": bool(v <= tol)}
                        for name, v in worst.items()}
    ok = all(c["pass"] for c in report["checks"].values())
    return (0 if ok else 1), [
        f"{name}: max {c['max']:.3e} {'pass' if c['pass'] else 'FAIL'}"
        for name, c in report["checks"].items()]


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


def _run(command: str, cfg: dict, out_dir: str) -> int:
    """Run one subcommand and write its report and run record; the exit code.

    The report starts as the envelope (command, effective config, versions);
    the command adds its own keys and returns its exit code and summary
    lines.  An obstruction exits 3 with the keys added so far.  The command
    fills the run record as it goes, and the record ends with the process
    block: minor page faults over the command and the peak resident set.
    """
    report = {"command": command, "config": cfg, "versions": _versions()}
    record = {}
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        code, lines = _COMMANDS[command][1](cfg, out_dir, report, record)
    except ObstructionError as e:
        report.update(obstructed=True, message=str(e))
        code, lines = 3, [f"obstruction: {e}"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["process"] = {"minor_faults": usage.ru_minflt - faults,
                         "peak_rss_mib": usage.ru_maxrss / 1024}  # KiB on Linux
    report["pass"] = code == 0
    _write_json(out_dir, {"report.json": report, "run.json": record})
    for line in lines:
        print(line)
    return code


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
            sp.add_argument("--mutate", default=None, metavar="ID[.SITE]",
                            help="verify a canonical single-site mutation of "
                                 "this identity instead (expected FAIL): "
                                 "its first, or the one at SITE")
            sp.add_argument("--float-samples", type=int, default=None,
                            dest="float_samples", metavar="N")
            sp.add_argument("--seed", type=int, default=None, metavar="S")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        overrides = _read_config(args.config)
        for key in ("mutate", "float_samples", "seed"):  # verify's flags
            if getattr(args, key, None) is not None:
                overrides[key] = getattr(args, key)
        cfg = _merge(_COMMANDS[args.command][0], overrides)
        code = _run(args.command, cfg, args.out)
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
