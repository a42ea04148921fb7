"""End-to-end command-line runs in subprocesses: exit codes, report files,
and byte-level determinism; a seeded table of malformed configs and
snapshots run in-process through ``cli.main`` against the exit-code
contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddt7 import cli
from ddt7.torus import FormField, TorusGrid, load_field, load_flux, save_field

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


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_verify_mutated_identity_fails(tmp_path):
    out = tmp_path / "out"
    r = run_cli("verify", "--mutate", "A5", "--out", str(out))
    assert r.returncode == 1
    rep = read_report(out)
    assert rep["pass"] is False
    (ident,) = rep["identities"]
    assert not ident["reduced_to_zero"]
    assert ident["witness"]["monomial"] == "u_7^3"


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


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"tyop": 1})
    r = run_cli("verify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "tyop" in r.stderr


def test_malformed_flux_is_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"flux": {"2,1": 1}})
    r = run_cli("instanton", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 2


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
    def boom(cfg, out_dir):
        raise RuntimeError("boom\nsecond line")
    defaults, _, help_text = cli._COMMANDS["decompose"]
    monkeypatch.setitem(cli._COMMANDS, "decompose", (defaults, boom, help_text))
    assert cli.main(["decompose", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom second line\n"


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
]


def _assert_contract(code, capsys):
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, payload", CONFIG_FUZZ)
def test_fuzzed_config_follows_the_exit_contract(tmp_path, capsys,
                                                 command, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    _assert_contract(cli.main([command, "--config", cfg,
                               "--out", str(tmp_path / "o")]), capsys)


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
    _assert_contract(cli.main(["continue", "--config", cfg,
                               "--out", str(tmp_path / "o")]), capsys)
