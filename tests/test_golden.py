"""Golden outputs: small configs run through ``cli.main`` and compared with
the outputs committed as ``tests/golden/<case>.json``.

Exit codes, strings, booleans and integers must match exactly, and floats
(in report.json and trajectory.csv) to 1e-12 relative or 1e-14 absolute,
whichever is looser: values near zero, such as converged residual norms
and the moment checks' maxima, are rounding residue.  The report's
``versions`` block names the environment, and run.json holds wall times
and page faults, so both are compared by their keys and list lengths only.

A config value may be ``Output(case)``, an earlier case's output
directory: that case runs first, into the subdirectory of that name, and
every case runs from its own output directory, so the value reads the
same in the report wherever the test runs.

A change that moves an expected value rewrites the files in the same
commit and lists each moved key in CHANGES.md.  From the repository root,

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

rewrites the named cases, or every case, from the current sources.
"""

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from ddt7 import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CALIBRATED = {"1,2": 1, "4,7": 1}
GRID16 = {"axes": [1, 2], "N": 4}
GRID512 = {"axes": [1, 2, 3], "N": 8}


class Output(str):
    """A config value naming an earlier case's output directory."""


# case: (command, config, exit code)
CASES = {
    "flow512": ("flow", {"flux": CALIBRATED, "grid": GRID512, "scheme": "rk4",
                         "steps": 30, "record_every": 10, "seed": 5}, 0),
    "flow4096": ("flow", {"flux": CALIBRATED, "grid": {"axes": [1, 2, 3, 4], "N": 8},
                          "scheme": "rk4", "steps": 20, "record_every": 10,
                          "seed": 6}, 0),
    "moment512": ("moment", {"flux": CALIBRATED, "grid": GRID512, "samples": 5,
                             "seed": 2}, 0),
    "continue512": ("continue", {"flux": CALIBRATED, "grid": GRID512,
                                 "perturb_scale": 1e-2, "seed": 1,
                                 "warm_start": False}, 0),
    "decompose": ("decompose", {"seed": 3}, 0),
    "instanton16": ("instanton", {"flux": CALIBRATED, "grid": GRID16}, 0),
    # the flux's vector-type part is a topological obstruction
    "instanton16_obstructed": ("instanton", {"flux": {"1,2": 1}, "grid": GRID16}, 3),
    "continue16_obstructed": ("continue", {"flux": {"1,2": 1, "4,7": 2, "5,6": -1},
                                           "grid": GRID16}, 3),
    # README's flow example
    "flow16": ("flow", {"flux": CALIBRATED, "grid": GRID16, "dt": 1e-3, "steps": 200,
                        "scheme": "rk4", "record_every": 10, "seed": 7,
                        "initial_scale": 0.02}, 0),
    # theta falls below theta_min at step 2, which truncates the run
    "flow16_degenerate": ("flow", {"flux": CALIBRATED, "grid": GRID16, "dt": 0.05,
                                   "steps": 400, "scheme": "euler", "theta_min": 5.0,
                                   "record_every": 7, "seed": 1, "initial_scale": 0.5}, 3),
    "cylinder16": ("cylinder", {"trajectory": Output("flow16")}, 0),
    "verify": ("verify", {"float_samples": 20}, 0),
}
ROUNDING = 1e-14


def _run(name: str, out: Path) -> int:
    """Run a case from its output directory, after the cases it names."""
    command, config, _ = CASES[name]
    out.mkdir(parents=True, exist_ok=True)
    for value in config.values():
        if isinstance(value, Output) and _run(value, out / value) != CASES[value][2]:
            raise AssertionError(f"{name}: its input case {value} exited wrongly")
    (out / "config.json").write_text(json.dumps(config))
    cwd = os.getcwd()
    os.chdir(out)
    try:
        return cli.main([command, "--config", "config.json", "--out", "."])
    finally:
        os.chdir(cwd)


def _keys(x):
    """The key structure of a JSON value: objects by key, lists by length,
    and every scalar as None."""
    if isinstance(x, dict):
        return {k: _keys(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_keys(v) for v in x]
    return None


def _outputs(out: Path) -> dict:
    """A run's compared outputs: the report without its versions, the key
    structures of the versions and of run.json, and trajectory.csv's rows
    when the run wrote one."""
    report = json.loads((out / "report.json").read_text())
    got = {"versions": _keys(report.pop("versions")), "report": report,
           "run_keys": _keys(json.loads((out / "run.json").read_text()))}
    csv = out / "trajectory.csv"
    if csv.exists():
        header, *rows = csv.read_text().splitlines()
        got["trajectory"] = [header.split(",")] + [[float(c) for c in row.split(",")]
                                                   for row in rows]
    return got


def _assert_same(got, want, path):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float, path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=ROUNDING), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_golden_files(tmp_path, capsys, name):
    assert _run(name, tmp_path) == CASES[name][2]
    capsys.readouterr()
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    _assert_same(_outputs(tmp_path), want, name)


def main(names) -> None:
    """Rewrite the named cases' golden files, or every case's, from the
    current sources."""
    GOLDEN.mkdir(exist_ok=True)
    for name in names or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code = _run(name, Path(tmp))
            if code != CASES[name][2]:
                sys.exit(f"{name}: exit {code}, expected {CASES[name][2]}")
            text = json.dumps(_outputs(Path(tmp)), indent=1, sort_keys=True)
        (GOLDEN / f"{name}.json").write_text(text + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
