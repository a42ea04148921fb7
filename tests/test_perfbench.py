"""The benchmark's per-layer tracer against the program: every span of
``perfbench/workloads.SPANS`` names a function that exists, and a traced
field formula, exact verification and batched float suite run without
error.  ``perfbench/`` is only imported, never changed."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ddt7 import ddt, prover
from ddt7.torus import TorusGrid, random_field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    import workloads
    return layers, workloads


def test_every_span_resolves(bench):
    _, workloads = bench
    for module, name, _, _ in workloads.SPANS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_traced_field_formula_and_verification(bench):
    layers, workloads = bench
    E = random_field(TorusGrid((1, 2), 4), 2, np.random.default_rng(3))
    want = ddt.eta(E).values
    with layers.LayerTracer() as tracer:
        workloads.install(tracer)
        got = ddt.eta(E).values
        assert prover.verify("A5").reduced_to_zero
        rows = workloads.layer_metrics(tracer)
    assert np.array_equal(got, want)
    assert tracer.calls["torus.wedge_field.2x2.16"] >= 1
    assert "prover.verify.A5.s" in rows


def test_traced_float_suite_is_the_untraced_one(bench):
    layers, workloads = bench
    want = prover.float_suite(4, seed=3)
    with layers.LayerTracer() as tracer:
        workloads.install(tracer)
        got = prover.float_suite(4, seed=3)
    assert got == want
    # the batch runs det_endo on BATCH, which the float span must not count
    assert tracer.calls["g2.decompose2"] >= 1
    assert "exalg.det_endo.float" not in tracer.calls
