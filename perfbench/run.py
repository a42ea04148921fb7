"""The ddt7 benchmark: one workload per run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``verify``,
``field_desk`` and ``field_bulk``.  The program is imported from ``src/``
of the checkout the script sits in; it is never installed.  The metrics
printed are exactly those BENCHMARK.json lists, beside this directory.

With ``--trace 0`` a run first measures set-up: it starts five fresh
interpreters, one after another, that each import ddt7 and build the
workload's seeded inputs, and reports the median wall time as ``setup_s``.
It then repeats the workload's fixed pass while another pass still fits
in ``--seconds`` (always at least one) and reports the median pass time
as ``wall_s``, and the process's peak RSS.

Times are scaled to a reference host speed, because a shared host can
run the same code up to twice as slowly for stretches of seconds to
minutes.  A pass runs ``hostspeed.HostProbe``, fixed work that never calls
the program, every two seconds or so between the program's calls, and
scales each stretch by the probe times at its ends (see ``workloads.Pass``);
a pass's time leaves the probes out.  The run pins itself, and so the
probe and every interpreter it starts, to one CPU, because the host's
noise differs between CPUs.  Set-up interpreters alternate with
baseline interpreters that import the same libraries but not ddt7, and
set-up is scaled by the baseline's median.  Peak RSS is not scaled.  The
unscaled times, probe and baseline times are printed on the environment
line.

With ``--trace 1`` it runs one untraced pass, then the same pass with the
public functions of the program's modules wrapped (see ``layers.py``),
and reports every per-layer metric: the layer rows of the traced pass,
the phase rows (time per catalog, flow steps per second, ...) of the
untraced pass, and ``trace.overhead_s``, traced minus untraced pass time.
A row whose layer or phase the workload never reaches reads 0.

Every pass checks its own outputs; ``attempted`` and ``failed`` count
those checks, and ``correct`` is true when none failed.  Standard output
ends with one line of JSON::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the environment block, the unscaled set-up and
pass times, the baseline times, each pass's segments (wall time and the
probe times at its ends), the phase figures and the failed checks.
"""
from __future__ import annotations

import os

# single-threaded numerics, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
# A fresh interpreter that imports the libraries set-up imports, but not
# ddt7.  Set-up times are scaled by REFERENCE_BASELINE_S over its median.
BASELINE = "import argparse, dataclasses, fractions, json, numpy, subprocess"
REFERENCE_BASELINE_S = 0.2


def _import_program():
    """Import ddt7 from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "ddt7" / "__init__.py").is_file():
        raise SystemExit(f"error: no ddt7 sources under {src}")
    sys.path.insert(0, str(src))
    import ddt7

    if Path(ddt7.__file__).resolve().parent != (src / "ddt7").resolve():
        raise SystemExit(f"error: imported ddt7 from {ddt7.__file__}, not {src}")
    return ddt7


def _importable(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(ddt7, cpus) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": _importable("numba"),
        "gmpy2_imports": _importable("gmpy2"),
        "backend": ddt7.backend_name(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "cpu_model": _cpu_model(),
    }


def _wall(cmd) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> tuple:
    """Wall times of fresh interpreters that import ddt7 and set up, and of
    baseline interpreters, taken in turn, one at a time."""
    setup = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"]
    baseline = [sys.executable, "-c", BASELINE]
    setups, baselines = [], []
    for _ in range(SETUP_SAMPLES):
        baselines.append(_wall(baseline))
        setups.append(_wall(setup))
    return setups, baselines


def phase_figures(units) -> dict:
    """Units pooled per phase into {phase: (value, unit)}: total amount per
    total second for a rate, total seconds per amount otherwise."""
    totals = {}
    for phase, amount, secs in units:
        a, s = totals.get(phase, (0.0, 0.0))
        totals[phase] = (a + amount, s + secs)
    return {phase: ((a / s, "1/s") if phase.endswith("_per_s") else (s / a, "s"))
            for phase, (a, s) in totals.items()}


def timed_passes(work, probe, seconds: float) -> list:
    """The workload's passes while another still fits in ``seconds``."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(work.pass_(probe))
        elapsed = time.perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs


def traced_rows(work, probe) -> tuple:
    """An untraced then a traced pass, and the per-layer rows they give."""
    import layers
    import workloads

    plain = work.pass_(probe)
    with layers.LayerTracer() as tracer:
        workloads.install(tracer)
        traced = work.pass_(probe, tracer)
    rows = workloads.layer_metrics(tracer)
    rows.update({name: (value, "count") for name, value in traced.counts.items()})
    rows.update(phase_figures(plain.scaled_units))
    rows["trace.overhead_s"] = (traced.scaled_seconds - plain.scaled_seconds, "s")
    return [plain, traced], rows


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (set-up probe)")
    args = ap.parse_args(argv)

    # Host noise differs between CPUs, so the program, the host probe and the
    # set-up interpreters (which inherit this) all run on one CPU.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    ddt7 = _import_program()
    import hostspeed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed)
        return 0

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(ddt7, cpus)
    if not args.trace:
        setups, baselines = measure_setup(args.workload, args.seed)
    work = make(args.seed)

    with hostspeed.HostProbe() as probe:
        if args.trace:
            runs, rows = traced_rows(work, probe)
        else:
            runs = timed_passes(work, probe, args.seconds)
    if args.trace:
        wanted = manifest["per_layer"]
    else:
        wanted = manifest["end_to_end"]
        setup_scale = REFERENCE_BASELINE_S / statistics.median(baselines)
        rows = {"setup_s": (statistics.median(setups) * setup_scale, "s"),
                "wall_s": (statistics.median(run.scaled_seconds for run in runs), "s"),
                "peak_rss_mib": (_peak_rss_mib(), "MiB")}
        env["unscaled"] = {"setup_s": setups, "pass_s": [run.seconds for run in runs]}
        env["baseline_s"] = baselines
        env["segments"] = [run.segments for run in runs]
        env["phases"] = {phase: value for phase, (value, _) in phase_figures(
            [unit for run in runs for unit in run.scaled_units]).items()}

    metrics = {}
    for row in wanted:
        value, unit = rows.pop(row["name"], (0.0, row["unit"]))
        if unit != row["unit"]:
            raise SystemExit(f"error: {row['name']} measured in {unit}, "
                             f"BENCHMARK.json says {row['unit']}")
        metrics[row["name"]] = {"value": value, "unit": unit}
    if rows:
        env["unlisted"] = {name: value for name, (value, _) in rows.items()}

    checks = [c for run in runs for c in run.checks]
    failed = [name for name, ok in checks if not ok]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": env,
                      "fail_ratio": len(failed) / len(checks),
                      "failed_checks": failed}))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
