"""End-to-end command-line runs in subprocesses: exit codes, report files,
and byte-level determinism; a seeded table of malformed configs and
snapshots run in-process through ``cli.main`` against the exit-code
contract."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddt7 import cli, ddt, prover
from ddt7.torus import (FormField, GaugePotential, TorusGrid, curvature, load_field,
                        load_flux, save_field)

E12 = [1.0] + [0.0] * 20


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "ddt7.cli", *args],
                          capture_output=True, text=True, timeout=600, env=env)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _no_constant(name):
    raise ValueError(f"report.json holds the non-JSON token {name}")


def read_report(out_dir):
    """The report, parsed strictly: NaN and Infinity tokens are not JSON."""
    with open(out_dir / "report.json") as fh:
        return json.load(fh, parse_constant=_no_constant)


def test_verify_mutated_identity_fails(tmp_path):
    out = tmp_path / "out"
    r = run_cli("verify", "--mutate", "A5", "--out", str(out))
    assert r.returncode == 1
    rep = read_report(out)
    assert rep["pass"] is False
    (ident,) = rep["identities"]
    assert not ident["reduced_to_zero"]
    assert ident["witness"]["monomial"] == "u_7^3"


def test_every_canonical_mutation_runs_as_id_dot_site(tmp_path):
    """``--mutate ID.site`` reaches each canonical mutation, spelled as the
    keys of perfbench/witnesses.json; each exits 1 with that witness."""
    bench = json.loads((Path(SRC).parent / "perfbench" / "witnesses.json").read_text())
    assert set(bench) == {f"{i}.{s}" for i, s, _ in prover.canonical_mutations()}
    for spelling, want in bench.items():
        out = tmp_path / spelling
        assert cli.main(["verify", "--mutate", spelling, "--out", str(out)]) == 1
        rep = read_report(out)
        identity, site = spelling.split(".")
        assert (rep["mutation"]["identity"], rep["mutation"]["site"]) == (identity, site)
        (ident,) = rep["identities"]
        keys = ("blade", "monomial", "coefficient")
        assert {k: ident["witness"][k] for k in keys} == {k: want[k] for k in keys}, spelling


def test_verify_full_catalog_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("verify", "--float-samples", "3", "--out", str(out1))
    assert r1.returncode == 0, r1.stderr
    assert "wall time" in r1.stdout
    r2 = run_cli("verify", "--float-samples", "3", "--out", str(out2))
    assert r2.returncode == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    rep = read_report(out1)
    assert rep["pass"] is True
    assert len(rep["identities"]) == 12
    assert rep["float_suite"]["pass"] is True
    assert "wall" not in json.dumps(rep)  # timing never lands in the report
    run = json.loads((out1 / "run.json").read_text())
    assert [r["identity"] for r in run["identities"]] == list(prover.CATALOG_ORDER)
    assert all(r["elapsed_s"] > 0 for r in run["identities"])
    assert "elapsed_s" not in (out1 / "report.json").read_text()


def test_verify_run_record_leaves_the_report_as_it_was(tmp_path):
    """A mutation's run.json names the identity run with its wall time; the
    report holds the identity's ``to_dict()`` alone, the same bytes twice."""
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["verify", "--mutate", "A4", "--out", str(out)]) == 1
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    rep = read_report(outs[0])
    mutated = prover.mutate(*cli._canonical_mutation("A4"))
    assert rep["identities"] == [prover.verify(mutated).to_dict()]
    (timed,) = json.loads((outs[0] / "run.json").read_text())["identities"]
    assert set(timed) == {"identity", "elapsed_s"}
    assert timed["identity"] == mutated and timed["elapsed_s"] > 0


def test_decompose_known_form(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"coefficients": E12})
    out = tmp_path / "out"
    r = run_cli("decompose", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = read_report(out)
    u = np.array(rep["u"])
    assert np.allclose(u, [0, 0, 1 / 3, 0, 0, 0, 0], rtol=0, atol=1e-14)
    assert rep["det_metric"] > 0
    assert all(c["pass"] for c in rep["checks"].values())


def test_instanton_obstructed_exit_code(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"flux": {"1,2": 1}})
    out = tmp_path / "out"
    r = run_cli("instanton", "--config", cfg, "--out", str(out))
    assert r.returncode == 3
    rep = read_report(out)
    assert rep["obstructed"] is True
    assert "Chern class" in rep["message"]


def test_instanton_writes_snapshot(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"flux": {"1,2": 1, "4,7": 1},
                        "grid": {"axes": [1, 2], "N": 4}})
    out = tmp_path / "out"
    r = run_cli("instanton", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    pot = load_field(out / "potential.t7f")
    assert pot.k == 1 and not np.any(pot.values)
    flux = load_flux(out / "flux.txt")
    assert flux.upper[0] == 1
    rep = read_report(out)
    assert rep["vector_part_l2"] <= 1e-12
    assert rep["a_l2"] == 0.0


def test_flow_then_cylinder_pipeline(tmp_path):
    flow_cfg = write_config(tmp_path, "flow.json", {
        "flux": {"1,2": 1, "4,7": 1},
        "grid": {"axes": [1, 2], "N": 4},
        "dt": 1e-3, "steps": 30, "scheme": "rk4",
        "record_every": 10, "seed": 7, "initial_scale": 0.05,
    })
    flow_out = tmp_path / "flow_out"
    r = run_cli("flow", "--config", flow_cfg, "--out", str(flow_out))
    assert r.returncode == 0, r.stderr
    rep = read_report(flow_out)
    assert rep["termination"] == "completed"
    assert rep["monotone"]["non_decreasing"] is True
    csv = (flow_out / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t,functional,residual_l2,theta_min"
    assert len(csv) == 32  # header + 31 recorded steps

    cyl_cfg = write_config(tmp_path, "cyl.json",
                           {"trajectory": str(flow_out), "tol": 1e-2})
    cyl_out = tmp_path / "cyl_out"
    r2 = run_cli("cylinder", "--config", cyl_cfg, "--out", str(cyl_out))
    assert r2.returncode == 0, r2.stderr
    crep = read_report(cyl_out)
    assert crep["pass"] is True
    assert crep["check"]["spacing"] == pytest.approx(0.01)
    assert crep["check"]["max_res1"] < 1e-2
    # a negative tol is refused like every numeric key, not read as a failed check
    bad_cfg = write_config(tmp_path, "bad.json",
                           {"trajectory": str(flow_out), "tol": -1})
    r3 = run_cli("cylinder", "--config", bad_cfg, "--out", str(tmp_path / "bad"))
    assert r3.returncode == 2
    assert r3.stderr == "error: config key 'tol' must be a finite non-negative number\n"
    assert not (tmp_path / "bad").exists()


def test_continue_short_schedule(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "flux": {"1,2": 1, "4,7": 1},
        "grid": {"axes": [1, 2], "N": 4},
        "schedule": [0.0, 0.25, 1.0],
    })
    out = tmp_path / "out"
    r = run_cli("continue", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = read_report(out)
    assert rep["termination"] == "completed"
    assert [s["s"] for s in rep["steps"]] == [0.0, 0.25, 1.0]
    assert all(s["residual_norm"] <= 1e-10 for s in rep["steps"])
    assert rep["obstructed"] is False
    pot = load_field(out / "potential.t7f")
    assert pot.k == 1


def test_continue_obstructed_exit_code(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "flux": {"1,2": 1, "4,7": 2, "5,6": -1},
        "grid": {"axes": [1, 2], "N": 4},
    })
    out = tmp_path / "out"
    r = run_cli("continue", "--config", cfg, "--out", str(out))
    assert r.returncode == 3
    rep = read_report(out)
    assert "obstruction" in rep["termination"]
    # the flux-cube stop reports the same key as a missing instanton
    assert rep["obstructed"] is True and rep["pass"] is False
    assert rep["completed"] is False


def test_continue_writes_a_run_record_beside_a_stable_report(tmp_path):
    """run.json holds one record per Newton step of every entry, and none of
    it enters report.json, which is byte-identical across two runs."""
    cfg = write_config(tmp_path, "c.json", {
        "flux": {"1,2": 1, "4,7": 1}, "perturb_scale": 0.01, "seed": 3,
        "warm_start": False, "schedule": [0.0, 0.5, 1.0]})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        r = run_cli("continue", "--config", cfg, "--out", str(out))
        assert r.returncode == 0, r.stderr
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    rep = read_report(outs[0])
    run = json.loads((outs[0] / "run.json").read_text())
    assert [st["s"] for st in run["steps"]] == [st["s"] for st in rep["steps"]]
    for st, rec in zip(rep["steps"], run["steps"]):
        assert st["newton_iterations"] >= 1
        assert len(rec["newton"]) == st["newton_iterations"]
        for it in rec["newton"]:
            assert set(it) == {"inner", "inner_tol", "step_length", "theta_min"}
            assert set(it["inner"]) == {"iterations", "rel_residual", "hit_max_iter"}
            assert it["inner"]["iterations"] >= 1 and it["theta_min"] > 0
    assert "inner_tol" not in (outs[0] / "report.json").read_text()


# sha256 of a 20-step 16-point rk4 flow's outputs (seed 7), as written
# before the run record existed: trajectory.csv then each sample file, and
# report.json without its versions (keys sorted, no indent).  Taken with
# numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64 with AVX-512; a change that
# moves these floats by rounding updates them and says so.
FLOW_OUTPUTS_SHA256 = "4dd1ac0ca3401db6e9d702a341f08d618e7396eb4285782243dada62deea2812"
FLOW_REPORT_SHA256 = "ebda48ce8ce6111a30e59b877386be7f5730aebeb71ead7196ccf3bb71a28846"


def test_flow_writes_a_run_record_beside_unchanged_outputs(tmp_path):
    """run.json holds one record per row of trajectory.csv (step 0 is the
    start): its wall seconds, min theta and the grid point where theta is
    least, named as the theta guard names it.  report.json, trajectory.csv
    and the samples are byte-identical across two runs and keep the
    bytes they had before the record."""
    cfg = write_config(tmp_path, "f.json", {
        "flux": {"1,2": 1, "4,7": 1}, "scheme": "rk4", "steps": 20,
        "record_every": 10, "seed": 7})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        r = run_cli("flow", "--config", cfg, "--out", str(out))
        assert r.returncode == 0, r.stderr
    rep = read_report(outs[0])
    files = ["report.json", "trajectory.csv"] + rep["sample_files"]
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    data = b"".join((outs[0] / name).read_bytes() for name in files[1:])
    assert hashlib.sha256(data).hexdigest() == FLOW_OUTPUTS_SHA256
    del rep["versions"]
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() \
        == FLOW_REPORT_SHA256
    run = json.loads((outs[0] / "run.json").read_text())
    rows = (outs[0] / "trajectory.csv").read_text().splitlines()[1:]
    assert len(run["steps"]) == len(rows) == rep["steps_taken"] + 1 == 21
    for i, (rec, row) in enumerate(zip(run["steps"], rows)):
        assert set(rec) == {"step", "elapsed_s", "theta_min", "theta_min_point"}
        assert rec["step"] == i and rec["elapsed_s"] > 0
        assert rec["theta_min"] == float(row.split(",")[3])
        point = rec["theta_min_point"]
        assert list(point) == ["1", "2"] and all(0 <= c < 4 for c in point.values())
    flux = load_flux(outs[0] / "flux.txt")
    for t, name in zip(rep["sample_times"], rep["sample_files"]):
        pot = GaugePotential(load_field(outs[0] / name), flux)
        theta = ddt.theta_weight(curvature(pot))
        worst = np.unravel_index(int(np.argmin(theta)), (4, 4))
        point = run["steps"][round(t / 1e-3)]["theta_min_point"]
        assert point == {"1": int(worst[0]), "2": int(worst[1])}
    assert "elapsed_s" not in (outs[0] / "report.json").read_text()


def test_continue_stops_where_theta_s_is_not_positive(tmp_path):
    """From 0.4 noise the cold start at s = 1/2 has theta_s <= 0: exit 3,
    with a report of the entries before it and the termination naming the
    point, and the run record."""
    cfg = write_config(tmp_path, "c.json", {
        "flux": {"1,2": 1, "4,7": 1}, "grid": {"axes": [1, 2, 3], "N": 8},
        "perturb_scale": 0.4, "seed": 2, "warm_start": False})
    out = tmp_path / "out"
    r = run_cli("continue", "--config", cfg, "--out", str(out))
    assert r.returncode == 3, r.stderr
    rep = read_report(out)
    assert rep["pass"] is False and rep["completed"] is False
    assert rep["obstructed"] is False
    assert rep["termination"] == ("left almost-calibrated set at s = 0.5: theta = "
                                  "-2.86213 <= 0.0 at grid point {1: 0, 2: 4, 3: 3}")
    assert [st["s"] for st in rep["steps"]] == [0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4]
    assert load_field(out / "potential.t7f").k == 1
    run = json.loads((out / "run.json").read_text())
    assert len(run["steps"]) == len(rep["steps"])


def test_continue_rejects_snapshot_of_bad_degree(tmp_path):
    grid = TorusGrid((1, 2), 4)
    snap = tmp_path / "deg9.t7f"
    save_field(snap, FormField.zero(grid, 1))
    snap.write_bytes(snap.read_bytes()[:20] + bytes([9]))
    cfg = write_config(tmp_path, "c.json", {
        "flux": {"1,2": 1, "4,7": 1},
        "grid": {"axes": [1, 2], "N": 4},
        "initial_snapshot": str(snap),
    })
    r = run_cli("continue", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "degree" in r.stderr
    assert "Traceback" not in r.stderr


def test_moment_checks_pass(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"samples": 2, "seed": 1})
    out = tmp_path / "out"
    r = run_cli("moment", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = read_report(out)
    assert rep["pass"] is True
    assert rep["checks"]["theta3_antisymmetry"]["max"] == 0.0


def test_moment_records_each_draw_in_order(tmp_path, capsys):
    """run.json holds one entry per draw, numbered from 1 in the order run,
    with its wall seconds; none of it enters report.json."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.json", {"samples": 3, "seed": 4})
    assert cli.main(["moment", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    draws = json.loads((out / "run.json").read_text())["draws"]
    assert len(draws) == read_report(out)["config"]["samples"] == 3
    assert [d["draw"] for d in draws] == [1, 2, 3]
    assert all(set(d) == {"draw", "elapsed_s"} and d["elapsed_s"] > 0 for d in draws)
    assert "elapsed_s" not in (out / "report.json").read_text()


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"tyop": 1})
    r = run_cli("verify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "tyop" in r.stderr


def test_malformed_flux_is_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"flux": {"2,1": 1}})
    r = run_cli("instanton", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 2


@pytest.mark.parametrize("n", [10 ** 400, 10 ** 308], ids=["1e400", "1e308"])
def test_flux_beyond_float64_is_bad_input(tmp_path, capsys, n):
    """An entry float64 cannot hold is refused before any background is
    built, so neither an OverflowError nor an inf 2*pi*n reaches a solver."""
    cfg = write_config(tmp_path, "c.json", {"flux": {"1,2": n, "4,7": n}})
    assert cli.main(["instanton", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "2**53" in err and "Traceback" not in err


def test_missing_subcommand_is_usage_error(tmp_path):
    r = run_cli()
    assert r.returncode == 2


def test_diverging_flow_is_a_numerical_failure(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"dt": 1e308, "steps": 3})
    r = run_cli("flow", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 3
    assert r.stderr.startswith("numerical failure:")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command, payload", [
    ("flow", {"dt": float("nan")}),
    ("flow", {"dt": float("inf")}),
    ("decompose", {"coefficients": [float("nan")] + [0.0] * 20}),
    ("continue", {"schedule": [0.0, float("inf")]}),
])
def test_non_finite_config_number_is_rejected(tmp_path, command, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    r = run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "finite" in r.stderr


def test_oversized_grid_is_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"grid": {"axes": [1, 2, 3, 4, 5, 6, 7], "N": 4096}})
    r = run_cli("flow", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "budget" in r.stderr
    assert "Traceback" not in r.stderr


def test_overflowing_moment_draw_is_a_numerical_failure(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"samples": 1, "scale": 1e200})
    r = run_cli("moment", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 3
    assert r.stderr.startswith("numerical failure: moment draw 1:")
    assert "RuntimeWarning" not in r.stderr
    assert "Traceback" not in r.stderr


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys, tmp_path):
    def boom(cfg, out_dir, report, record):
        raise RuntimeError("boom\nsecond line")
    defaults, _, help_text = cli._COMMANDS["decompose"]
    monkeypatch.setitem(cli._COMMANDS, "decompose", (defaults, boom, help_text))
    assert cli.main(["decompose", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom second line\n"


def test_non_finite_report_value_is_a_numerical_failure(monkeypatch, capsys,
                                                       tmp_path):
    def nan_report(cfg, out_dir, report, record):
        report["checks"] = {"sym": [0.0, float("nan")]}
        return 0, []
    defaults, _, help_text = cli._COMMANDS["decompose"]
    monkeypatch.setitem(cli._COMMANDS, "decompose",
                        (defaults, nan_report, help_text))
    assert cli.main(["decompose", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: report.checks.sym[1] is not finite\n"
    assert not (tmp_path / "report.json").exists()


def test_non_finite_run_record_value_writes_neither_file(monkeypatch, capsys,
                                                         tmp_path):
    def nan_record(cfg, out_dir, report, record):
        record["steps"] = [{"theta_min": float("inf")}]
        return 0, []
    defaults, _, help_text = cli._COMMANDS["decompose"]
    monkeypatch.setitem(cli._COMMANDS, "decompose",
                        (defaults, nan_record, help_text))
    assert cli.main(["decompose", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: run.steps[0].theta_min is not finite\n"
    assert list(tmp_path.iterdir()) == []


def test_every_report_has_the_envelope_and_pass_means_exit_0(tmp_path, capsys):
    """Each subcommand on a success path, a verification failure, and both
    obstruction paths (no instanton exists in the class of dx^12)."""
    calibrated, lone = {"1,2": 1, "4,7": 1}, {"1,2": 1}
    flow_out = tmp_path / "flow"
    runs = [
        (["verify", "--float-samples", "2"], None, 0),
        (["verify", "--mutate", "A5"], None, 1),
        (["decompose"], {"coefficients": E12}, 0),
        (["instanton"], {"flux": calibrated}, 0),
        (["instanton"], {"flux": lone}, 3),
        (["continue"], {"flux": calibrated, "schedule": [0.0, 1.0]}, 0),
        (["continue"], {"flux": lone}, 3),
        (["flow"], {"flux": calibrated, "steps": 20}, 0),
        (["cylinder"], {"trajectory": str(flow_out)}, 0),
        (["moment"], {"samples": 1}, 0),
    ]
    assert {argv[0] for argv, _, _ in runs} == set(cli._COMMANDS)
    for i, (argv, payload, want) in enumerate(runs):
        out = flow_out if argv[0] == "flow" else tmp_path / f"out{i}"
        if payload is not None:
            argv = argv + ["--config", write_config(tmp_path, "c.json", payload)]
        code = cli.main(argv + ["--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == want, argv
        rep = read_report(out)
        assert rep["command"] == argv[0]
        assert isinstance(rep["config"], dict)
        assert set(rep["versions"]) == {"ddt7", "python", "numpy", "backend"}
        assert rep["pass"] is (code == 0)
        if payload == {"flux": lone}:
            assert rep["obstructed"] is True and rep["flux_upper"][0] == 1
            assert stdout.startswith("obstruction: ")


def test_every_command_writes_a_process_record_beside_a_stable_report(tmp_path,
                                                                      capsys):
    """Each of the seven subcommands writes run.json with its process block
    (minor page faults over the command, peak RSS), and two runs of each
    write report.json with the same bytes."""
    calibrated = {"1,2": 1, "4,7": 1}
    runs = [
        (["verify", "--mutate", "A5"], None, 1),
        (["decompose"], {"coefficients": E12}, 0),
        (["instanton"], {"flux": calibrated}, 0),
        (["continue"], {"flux": calibrated, "schedule": [0.0, 1.0]}, 0),
        (["flow"], {"flux": calibrated, "steps": 20}, 0),
        (["cylinder"], {"trajectory": str(tmp_path / "flow" / "a")}, 0),
        (["moment"], {"samples": 1}, 0),
    ]
    assert [argv[0] for argv, _, _ in runs] == list(cli._COMMANDS)
    for argv, payload, want in runs:
        if payload is not None:
            argv = argv + ["--config", write_config(tmp_path, "c.json", payload)]
        outs = [tmp_path / argv[0] / side for side in "ab"]
        for out in outs:
            assert cli.main(argv + ["--out", str(out)]) == want, argv
        capsys.readouterr()
        assert (outs[0] / "report.json").read_bytes() \
            == (outs[1] / "report.json").read_bytes(), argv[0]
        for out in outs:
            process = json.loads((out / "run.json").read_text())["process"]
            assert set(process) == {"minor_faults", "peak_rss_mib"}
            assert isinstance(process["minor_faults"], int)
            assert process["minor_faults"] >= 0 and process["peak_rss_mib"] > 0
        assert "minor_faults" not in (outs[0] / "report.json").read_text()


@pytest.mark.parametrize("argv, payload", [
    (["flow"], {"initial_scale": -0.5}),
    (["moment"], {"scale": -0.05}),
    (["continue"], {"perturb_scale": -0.5}),
    (["continue"], {"max_newton": -1}),
    (["verify", "--seed", "-1"], None),
    (["flow"], {"dt": "1e-3"}),
], ids=["flow-initial_scale", "moment-scale", "continue-perturb_scale",
        "continue-max_newton", "verify-seed-flag", "flow-dt-string"])
def test_config_values_are_checked_against_their_defaults(tmp_path, capsys,
                                                          argv, payload):
    """A scalar key takes its default's type and, if a number, is
    non-negative; verify's flags are checked the same way."""
    if payload is not None:
        argv = argv + ["--config", write_config(tmp_path, "c.json", payload)]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


SNAP_HEAD = 21  # struct.calcsize("<8sB7BIB")


def _valid_snapshot(tmp_path):
    path = tmp_path / "valid.t7f"
    save_field(path, FormField.zero(TorusGrid((1, 2), 4), 1))
    return path.read_bytes()


def _snapshot_cases():
    """(name, bytes transform) for corrupted snapshots, plus seeded header
    byte rewrites."""
    cases = [
        ("truncated-header", lambda raw: raw[:SNAP_HEAD - 5]),
        ("bad-magic", lambda raw: b"T7FIELD9" + raw[8:]),
        ("bad-degree", lambda raw: raw[:SNAP_HEAD - 1] + bytes([200])
         + raw[SNAP_HEAD:]),
        ("short-payload", lambda raw: raw[:-8]),
        ("ragged-payload", lambda raw: raw[:-3]),
        ("nan-payload", lambda raw: raw[:SNAP_HEAD]
         + np.full(16 * 7, np.nan).astype("<f8").tobytes()),
        ("empty-file", lambda raw: b""),
    ]
    rng = np.random.default_rng(1729)
    for n in range(4):
        pos, val = int(rng.integers(8, SNAP_HEAD)), int(rng.integers(0, 256))
        cases.append((f"seeded-{n}-byte{pos}={val}",
                      lambda raw, p=pos, v=val: raw[:p] + bytes([v])
                      + raw[p + 1:]))
    return cases


# bad configs whose refusal names the fault: one flux pair named by two
# keys, and a snapshot that is not a file name
NAMED_FUZZ = [
    ("instanton", {"flux": {"1,2": 1, "1 2": 5}},
     "flux keys '1,2' and '1 2' both name the pair (1, 2)"),
    ("continue", {"flux": {"1,2": 1, " 1,2,": 1}},
     "flux keys '1,2' and ' 1,2,' both name the pair (1, 2)"),
    ("flow", {"initial_snapshot": 5},
     "config key 'initial_snapshot' must name a snapshot file"),
    ("continue", {"initial_snapshot": ""},
     "config key 'initial_snapshot' must name a snapshot file"),
    ("verify", {"mutate": "A4.theta-inner"},
     "identity A4 has no canonical mutation at site 'theta-inner'; "
     "canonical sites: rhs-scale, corr-scale"),
    ("flow", {"steps": 10 ** 400},
     "config key 'steps' must be a non-negative integer within float64"),
]


def _scalar_keys(defaults, path=()):
    """(key path, default) of each scalar key, nested objects included."""
    for key, default in defaults.items():
        if isinstance(default, dict):
            yield from _scalar_keys(default, path + (key,))
        elif isinstance(default, (bool, int, float, str)):
            yield path + (key,), default


def _scalar_sweep():
    """Every scalar key of every subcommand's defaults (``grid.N`` too) with
    a wrong type, a negative, NaN and Infinity; a bool key also with 1, and
    a number key also with a JSON integer beyond float64."""
    cases = []
    for command, (defaults, _, _) in cli._COMMANDS.items():
        for path, default in _scalar_keys(defaults):
            bad = [1 if isinstance(default, str) else "1", -1,
                   float("nan"), float("inf")]
            if isinstance(default, bool):
                bad.append(1)
            elif not isinstance(default, str):
                bad.append(10 ** 400)
            for payload in bad:
                for key in reversed(path):
                    payload = {key: payload}
                cases.append((command, payload))
    return cases

CONFIG_FUZZ = [
    ("decompose", {"coefficients": "abc"}),
    ("decompose", {"coefficients": [1.0] * 20}),
    ("decompose", {"seed": 1.5}),
    ("decompose", {"seed": -1}),
    ("decompose", {"tol": "small"}),
    ("flow", {"steps": 0}),
    ("flow", {"steps": -5}),
    ("flow", {"dt": -1e-3}),
    ("flow", {"scheme": 4}),
    ("flow", {"grid": "big"}),
    ("flow", {"grid": {"axes": [], "N": 4}}),
    ("flow", {"grid": {"axes": [2, 1], "N": 4}}),
    ("flow", {"grid": {"axes": [1, 2], "N": 0}}),
    ("flow", {"grid": {"axes": [1, 2], "N": 4.0}}),
    ("flow", {"kmax": -1}),
    ("moment", {"samples": 0}),
    ("moment", {"samples": -3}),
    ("moment", {"kmax": 10 ** 6}),
    ("instanton", {"flux": {"1,2,3": 1}}),
    ("instanton", {"flux": {"a,b": 1}}),
    ("instanton", {"flux": {"8,9": 1}}),
    ("instanton", {"flux": {"1,2": True}}),
    ("instanton", {"flux": [1] * 20}),
    ("instanton", {"flux": 5}),
    ("continue", {"schedule": []}),
    ("continue", {"schedule": [0.0, float("nan")]}),
    ("continue", {"tol": float("-inf")}),
    ("continue", {"initial_snapshot": 5}),
    ("cylinder", {"trajectory": 5}),
    ("cylinder", {"trajectory": "no/such/dir"}),
    ("verify", {"float_samples": 0}),
    ("verify", {"mutate": 12}),
    # flux entries float64 cannot hold (appended, so earlier ids stay put)
    ("instanton", {"flux": {"1,2": 10 ** 400, "4,7": 10 ** 400}}),
    ("instanton", {"flux": {"1,2": 10 ** 308, "4,7": 10 ** 308}}),
    # JSON integers float64 cannot hold, where a number is expected
    ("decompose", {"tol": 10 ** 400}),
    ("continue", {"schedule": [0.0, 10 ** 400]}),
    # kmax beyond N/2 with no noise to draw, and beside a snapshot: the
    # band limit is checked before the snapshot is read
    ("continue", {"kmax": 99}),
    ("flow", {"kmax": 99, "initial_snapshot": "no/such/snapshot.t7f"}),
    # moment grids too coarse for its five-factor products (5 * kmax >= N)
    ("moment", {"grid": {"axes": [1, 2, 3], "N": 4}, "kmax": 1}),
    ("moment", {"grid": {"axes": [1, 2, 3], "N": 8}, "kmax": 2}),
] + [(command, payload) for command, payload, _ in NAMED_FUZZ] + _scalar_sweep() + [
    # a key that defaults to None is checked where used, before any file is
    # read (appended, so earlier ids stay put)
    ("cylinder", {"trajectory": "no/such/dir", "tol": -1}),
]


def _assert_contract(code, capsys, out_dir=None):
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if out_dir is not None and (out_dir / "report.json").exists():
        read_report(out_dir)


@pytest.mark.parametrize("command, payload", CONFIG_FUZZ)
def test_fuzzed_config_follows_the_exit_contract(tmp_path, capsys,
                                                 command, payload):
    """Every entry is a bad config: exit 2, an error line, no output."""
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, payload, message", NAMED_FUZZ)
def test_refused_config_names_its_fault(tmp_path, capsys, command, payload, message):
    cfg = write_config(tmp_path, "c.json", payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, with_snapshot", [
    ("continue", False), ("continue", True), ("flow", True)])
def test_kmax_beyond_half_the_grid_exits_2(tmp_path, capsys, command,
                                            with_snapshot):
    # kmax is checked whether or not a random field is drawn with it
    payload = {"kmax": 3}  # the 4-point grid admits 0..2
    if with_snapshot:
        snap = tmp_path / "s.t7f"
        snap.write_bytes(_valid_snapshot(tmp_path))
        payload["initial_snapshot"] = str(snap)
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: kmax must lie in 0..2 on this grid\n"
    assert not out.exists()


@pytest.mark.parametrize("n, kmax", [(2, 1), (4, 1), (8, 2), (16, 4)])
def test_moment_grid_that_aliases_its_products_exits_2(tmp_path, capsys, n, kmax):
    # the parent reported these grids' aliasing as failed identities (exit 1);
    # N = 2 draws only Nyquist modes, where d is zero, so its checks were vacuous
    cfg = write_config(tmp_path, "c.json", {"grid": {"axes": [1, 2, 3], "N": n},
                                            "kmax": kmax, "samples": 1})
    out = tmp_path / "o"
    assert cli.main(["moment", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "5 * kmax < N" in err and "Traceback" not in err
    assert not out.exists()


def test_moment_grid_just_fine_enough_passes(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"grid": {"axes": [1, 2, 3], "N": 16},
                                            "kmax": 3, "samples": 1,
                                            "flux": {"1,2": 1, "4,7": 1}})
    out = tmp_path / "o"
    r = run_cli("moment", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert read_report(out)["pass"] is True


# inputs that overflow float64 inside the run: exit 3, and no report
NUMERICAL_FUZZ = [
    ("decompose", {"coefficients": [1e200] * 21}),     # NaN checks and norms
    ("decompose", {"coefficients": [1e200] + [0.0] * 20}),  # inf det(I + F#)
    ("decompose", {"coefficients": [1e100] * 21}),
]


@pytest.mark.parametrize("command, payload", NUMERICAL_FUZZ)
def test_overflowing_config_is_a_numerical_failure(tmp_path, capsys,
                                                   command, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_unwritable_output_directory_is_bad_input(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    code = cli.main(["decompose", "--out", str(tmp_path / "file" / "o")])
    assert code == 2
    _assert_contract(code, capsys)


@pytest.mark.parametrize("flow_report", [
    [1, 2],
    {"sample_times": ["a"], "sample_files": [], "flux_file": "flux.txt"},
    {"sample_times": [0.0], "sample_files": [3], "flux_file": "flux.txt"},
    {"sample_times": [0.0, 0.1, 0.2], "sample_files": ["a", "b", "c"],
     "flux_file": None},
    {"sample_times": [0.0, 0.1, 0.2], "sample_files": ["a", "b", "c"],
     "flux_file": "flux.txt"},
])
def test_fuzzed_flow_report_follows_the_exit_contract(tmp_path, capsys,
                                                      flow_report):
    src = tmp_path / "flow"
    src.mkdir()
    (src / "report.json").write_text(json.dumps(flow_report))
    (src / "flux.txt").write_bytes(b"\xff\xfe1 2")
    cfg = write_config(tmp_path, "c.json", {"trajectory": str(src)})
    code = cli.main(["cylinder", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    _assert_contract(code, capsys)


@pytest.mark.parametrize("raw", [b"[1, 2]", b"{\"seed\": ", b"\xff\xfe{}"])
def test_fuzzed_config_bytes_follow_the_exit_contract(tmp_path, capsys, raw):
    path = tmp_path / "c.json"
    path.write_bytes(raw)
    code = cli.main(["decompose", "--config", str(path),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    _assert_contract(code, capsys)


SNAPSHOT_CASES = _snapshot_cases()


@pytest.mark.parametrize("name, corrupt", SNAPSHOT_CASES,
                         ids=[c[0] for c in SNAPSHOT_CASES])
def test_fuzzed_snapshot_follows_the_exit_contract(tmp_path, capsys,
                                                   name, corrupt):
    snap = tmp_path / "s.t7f"
    snap.write_bytes(corrupt(_valid_snapshot(tmp_path)))
    cfg = write_config(tmp_path, "c.json", {
        "flux": {"1,2": 1, "4,7": 1}, "grid": {"axes": [1, 2], "N": 4},
        "schedule": [0.0], "initial_snapshot": str(snap)})
    out = tmp_path / "o"
    _assert_contract(cli.main(["continue", "--config", cfg, "--out", str(out)]),
                     capsys, out)
