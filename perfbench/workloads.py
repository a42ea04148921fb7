"""The three benchmark workloads.

Each workload builds its inputs from the seed when it is constructed (the
set-up), then runs fixed passes.  ``pass_(probe, tracer)`` takes a
``hostspeed.HostProbe`` and the active ``LayerTracer`` or None, and returns
the finished ``Pass``: its times, the units it timed, every check of its
outputs, and exact work counts the program reports (monomials, Newton
iterations).

A unit is one call into the program, timed as (phase, amount, seconds):
a phase ending in ``_s`` is read as seconds per unit of amount, one ending
in ``_per_s`` as amount per second.  The amount of work in a pass does not
depend on the seed.

The seed reaches the program only as generated inputs: potentials, noise,
moment draws and the float-suite sample seed.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

import hostspeed
from ddt7 import ddt, exalg, flow, g2, kernels, prover, tables, torus
from ddt7.flow import (FlowConfig, continuation, cylinder_check, flow_run,
                       instanton_solve, kernel_probe)
from ddt7.torus import (Flux, GaugePotential, TorusGrid, coclosed_project,
                        dtheta4, gauge_shift, nu, nu_derivative_check,
                        random_coclosed_potential, random_field,
                        random_potential, residual_field, theta3)

clock = time.perf_counter

# the doubly calibrated flux of the acceptance suite
CALIBRATED = {(1, 2): 1, (4, 7): 1}


def _streams(seed: int, workload: int, count: int):
    """Independent generators for the parts of one workload."""
    seq = np.random.SeedSequence([seed, workload])
    return [np.random.default_rng(s) for s in seq.spawn(count)]


def _warm_tables():
    """Fill the lazy structure-table caches every workload reads."""
    for p in range(8):
        tables.hodge_arrays(7, p)
        for q in range(8 - p):
            tables.wedge_arrays(7, p, q)
        if p:
            exalg.contract_table(7, p)
    g2.standard()


def _monotone(functional: np.ndarray) -> bool:
    """Criterion 5's test: no decrease beyond 1e-9 of the functional's scale."""
    scale = float(np.max(np.abs(functional))) or 1.0
    return bool(np.all(np.diff(functional) >= -1e-9 * scale))


def _check_flow(p, tag: str, traj) -> None:
    p.check(f"{tag}:completed", traj.termination == "completed")
    p.check(f"{tag}:non-decreasing", _monotone(traj.functional))


class Pass:
    """One pass's timed units, checks and counts, and its times.

    A workload spreads the units of each phase over its pass, so that each
    phase is measured across the whole window rather than one slice of it.
    The host probe runs at the start, after a unit once ``PROBE_EVERY_S``
    has passed since it last ran, and at the end.  It cuts the pass into
    segments; each segment's times are scaled by the mean of the probe
    points at its two ends (see ``hostspeed``).  When done, ``segments``
    holds each segment's wall time and end probes, ``seconds`` is the pass's
    wall time less the probes', ``scaled_seconds`` the same scaled, and
    ``scaled_units`` the units scaled.
    """

    PROBE_EVERY_S = 2.0

    def __init__(self, probe):
        self.probe = probe
        self.units = []
        self.checks = []
        self.counts = {}
        self._marks = []    # (units so far, probe start, probe end, probe seconds)
        self._mark()

    def _mark(self):
        t0 = clock()
        probe_s = self.probe()
        self._marks.append((len(self.units), t0, clock(), probe_s))

    def time(self, phase, amount, fn):
        t0 = clock()
        out = fn()
        self.units.append((phase, amount, clock() - t0))
        if clock() - self._marks[-1][2] >= self.PROBE_EVERY_S:
            self._mark()
        return out

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))

    def done(self):
        self._mark()
        self.segments = []      # (seconds, probe at start, probe at end)
        self.scaled_units = []
        for (i0, _, end0, probe0), (i1, start1, _, probe1) in zip(self._marks,
                                                                  self._marks[1:]):
            self.segments.append((start1 - end0, probe0, probe1))
            factor = 2 * hostspeed.REFERENCE_S / (probe0 + probe1)
            self.scaled_units += [(phase, amount, secs * factor)
                                  for phase, amount, secs in self.units[i0:i1]]
        self.seconds = sum(secs for secs, _, _ in self.segments)
        self.scaled_seconds = sum(2 * hostspeed.REFERENCE_S * secs / (probe0 + probe1)
                                  for secs, probe0, probe1 in self.segments)
        return self


class Verify:
    """The exact catalog, its canonical mutations, and the float suite."""

    FLOAT_EVERY = 3       # a float-suite chunk after every third identity
    FLOAT_CHUNK = 30      # samples per chunk

    def __init__(self, seed: int):
        rng, = _streams(seed, 0, 1)
        n_exact = len(prover.catalog_ids()) + len(prover.canonical_mutations())
        self.float_seeds = [int(x) for x in
                            rng.integers(0, 2 ** 31, n_exact // self.FLOAT_EVERY)]
        path = Path(__file__).with_name("witnesses.json")
        self.witnesses = json.loads(path.read_text())
        _warm_tables()

    def pass_(self, probe, tracer=None):
        p = Pass(probe)
        ids = prover.catalog_ids()
        mutations = prover.canonical_mutations()
        exact = [(ident, None, None) for ident in ids] + list(mutations)
        seeds = iter(self.float_seeds)
        monomials = 0
        for n, (ident, site, value) in enumerate(exact, 1):
            if site is None:
                rep = p.time("catalog_s", 1 / len(ids), lambda: prover.verify(ident))
                p.check(f"zero:{ident}", rep.reduced_to_zero)
                monomials += rep.monomial_count_before_cancellation
            else:
                rep = p.time("mutations_s", 1 / len(mutations),
                             lambda: prover.verify(prover.mutate(ident, site, value)))
                want = self.witnesses[f"{ident}.{site}"]
                got = rep.witness or {}
                p.check(f"witness:{ident}.{site}", not rep.reduced_to_zero and all(
                    got.get(k) == want[k] for k in ("blade", "monomial", "coefficient")))
            if n % self.FLOAT_EVERY == 0:
                seed = next(seeds)
                suite = p.time("float_samples_per_s", self.FLOAT_CHUNK,
                               lambda: prover.float_suite(self.FLOAT_CHUNK, seed=seed))
                p.check(f"float-suite:{seed}",
                        suite["pass"] and suite["samples"] == self.FLOAT_CHUNK)
        p.counts["prover.verify.monomials"] = monomials
        return p.done()


class FieldDesk:
    """Desk-scale field solvers: a 16-point rk4 flow with its cylinder
    check, continuation on 512 points, and moment-map draws on 512 points."""

    FLOW_STEPS = 200
    DRAW_BLOCKS = 3
    DRAW_BLOCK = 10

    def __init__(self, seed: int):
        r_flow, r_draw, r_cont = _streams(seed, 1, 3)
        _warm_tables()
        self.flux = Flux.from_entries(CALIBRATED)
        self.pot0 = random_coclosed_potential(TorusGrid((1, 2), 4), self.flux,
                                              r_flow, scale=0.02)
        self.grid512 = TorusGrid((1, 2, 3), 8)
        base = instanton_solve(self.flux, self.grid512)
        # the solver's Newton work from this noise does not depend on the seed
        self.start = GaugePotential(base.a + coclosed_project(
            random_field(self.grid512, 1, r_cont, scale=1e-2)), self.flux)
        self.blocks = [[self._draw(r_draw) for _ in range(self.DRAW_BLOCK)]
                       for _ in range(self.DRAW_BLOCKS)]

    def _draw(self, rng):
        """Inputs of one criterion-4 moment draw."""
        grid = self.grid512
        pot = random_potential(grid, Flux.zero(), rng, scale=0.05)
        g1f = random_field(grid, 0, rng)
        g2f = random_field(grid, 0, rng)
        b = random_field(grid, 1, rng)
        bs = tuple(random_field(grid, 1, rng) for _ in range(4))
        chi = random_field(grid, 0, rng, scale=0.5)
        winding = tuple(int(x) for x in rng.integers(-2, 3, size=7))
        return pot, g1f, g2f, b, bs, chi, winding

    @staticmethod
    def _moment_draw(pot, g1f, g2f, b, bs, chi, winding) -> bool:
        """Criterion 4's conditions on one draw, at its tolerances."""
        b1, b2, b3, b4 = bs
        lhs, rhs = nu_derivative_check(pot, g1f, g2f, b)
        ok = abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
        t123 = theta3(pot, b1, b2, b3)
        ok &= theta3(pot, b2, b1, b3) == -t123
        ok &= theta3(pot, b1, b3, b2) == -t123
        ok &= theta3(pot, b1, b1, b2) == 0.0
        ok &= abs(dtheta4(pot, b1, b2, b3, b4)) <= 1e-10
        shifted = gauge_shift(pot, chi, winding)
        ok &= abs(theta3(shifted, b1, b2, b3) - t123) <= 1e-10
        ok &= abs(nu(shifted, g1f, g2f) - nu(pot, g1f, g2f)) <= 1e-10
        # through the module, so a traced run sees these calls
        kl0 = torus.kl_functional(pot)
        ok &= abs(torus.kl_functional(gauge_shift(pot, chi)) - kl0) \
            <= 1e-10 * max(1.0, abs(kl0))
        _, r0 = residual_field(pot)
        _, r1 = residual_field(shifted)
        ok &= abs(r1 - r0) <= 1e-10 * max(1.0, r0)
        return bool(ok)

    def _flow(self, p, n):
        traj = p.time("flow_steps_per_s", self.FLOW_STEPS, lambda: flow_run(
            self.pot0, FlowConfig(dt=1e-3, steps=self.FLOW_STEPS, scheme="rk4",
                                  record_every=10)))
        cyl = cylinder_check(traj)
        _check_flow(p, f"flow16.{n}", traj)
        p.check(f"flow16.{n}:cylinder-finite",
                math.isfinite(cyl["max_res1"]) and math.isfinite(cyl["max_res2"]))

    def _draws(self, p, n):
        oks = p.time("moment_draws_per_s", self.DRAW_BLOCK,
                     lambda: [self._moment_draw(*draw) for draw in self.blocks[n]])
        for i, ok in enumerate(oks):
            p.check(f"moment:{n}.{i}", ok)

    def _continuation(self, p, tracer):
        """Continue from the noisy start; record its work in the pass's counts."""
        if tracer is not None:
            d0, codiff0 = tracer.total_calls("torus.d."), tracer.total_calls("torus.codiff.")
        cont = p.time("continuation_s", 1, lambda: continuation(
            self.flux, grid=self.grid512, initial=self.start, warm_start=False))
        p.check("continuation:completed", cont.completed)
        for st in cont.steps:
            p.check(f"continuation:s={st.s:g}", st.residual_norm <= 1e-10)
        work = {"flow.continuation.newton_iters":
                sum(st.newton_iterations for st in cont.steps)}
        if tracer is not None:
            work["flow.continuation.d_calls"] = tracer.total_calls("torus.d.") - d0
            work["flow.continuation.codiff_calls"] = \
                tracer.total_calls("torus.codiff.") - codiff0
        p.counts.update(work)

    def pass_(self, probe, tracer=None):
        p = Pass(probe)
        self._flow(p, 0)
        self._draws(p, 0)
        self._continuation(p, tracer)
        self._draws(p, 1)
        self._flow(p, 1)
        self._draws(p, 2)
        return p.done()


class FieldBulk:
    """Array-bound field work: rk4 flows on 4096 points and the exact
    per-mode census at kmax = 2."""

    FLOW_STEPS = 15
    CENSUS_KMAX = 2
    CENSUS_MODES = (2 * CENSUS_KMAX + 1) ** 7 - 1

    def __init__(self, seed: int):
        r_flow, = _streams(seed, 2, 1)
        _warm_tables()
        tables.mode_kernel_tensors()
        self.pot0 = random_coclosed_potential(TorusGrid((1, 2, 3, 4), 8),
                                              Flux.from_entries(CALIBRATED),
                                              r_flow, scale=0.02)

    def _flow(self, p, n):
        cfg = FlowConfig(dt=1e-3, steps=self.FLOW_STEPS, scheme="rk4",
                         record_every=self.FLOW_STEPS)
        traj = p.time("flow_steps_per_s", self.FLOW_STEPS,
                      lambda: flow_run(self.pot0, cfg))
        _check_flow(p, f"flow4096.{n}", traj)

    def _census(self, p, n):
        census = p.time("census_modes_per_s", self.CENSUS_MODES,
                        lambda: kernel_probe(self.CENSUS_KMAX))
        p.check(f"census.{n}:all-pass",
                census["all_pass"] and census["modes"] == self.CENSUS_MODES)

    def pass_(self, probe, tracer=None):
        p = Pass(probe)
        self._flow(p, 0)
        self._census(p, 0)
        self._flow(p, 1)
        self._census(p, 1)
        self._flow(p, 2)
        return p.done()


WORKLOADS = {"verify": Verify, "field_desk": FieldDesk, "field_bulk": FieldBulk}


# --- per-layer spans ---------------------------------------------------------


def _const(label):
    return lambda args, kwargs: label


def _on_ring(prefix, ring_name, pos=0):
    """Record calls whose form argument lives on the named scalar ring."""
    return lambda args, kwargs: (f"{prefix}.{ring_name}"
                                 if args[pos].ring.name == ring_name else None)


def _npts(prefix):
    return lambda args, kwargs: f"{prefix}.{args[0].grid.npts}"


def _verify_label(args, kwargs):
    ident = args[0]
    if "[" not in ident:
        return f"prover.verify.{ident}"
    base, site = ident.rstrip("]").split("[", 1)
    return f"prover.verify_mutation.{base}.{site.split('=', 1)[0]}"


def _flow_step_label(args, kwargs):
    scheme = args[2] if len(args) > 2 else kwargs.get("scheme", "euler")
    return f"flow.flow_step.{scheme}.{args[0].grid.npts}"


def _wedge_work(args):
    """Computed, not measured: per table entry and grid point one multiply
    and one add, reading an A and a B column and updating an output column
    (four float64 accesses)."""
    cells = len(args[2]) * args[0].shape[0]
    return {"kernels.wedge_fields.flops": 2 * cells,
            "kernels.wedge_fields.bytes": 32 * cells}


COMPUTED_UNITS = {"kernels.wedge_fields.flops": "flop-computed",
                  "kernels.wedge_fields.bytes": "byte-computed"}


# (module, function, span key, how the span is reported)
#   "s": total seconds; "us"/"ms": mean per call; "kernel": call count and
#   total seconds; "batch": a kernel whose mean call is also reported
# det_endo never sees a polynomial ring (DET's polynomial path is packed
# inside prover), so the exact layer's cofactor determinants are timed
# through pullback.  The per-step flow diagnostics have no public function.
SPANS = (
    (prover, "verify", _verify_label, "s"),
    (exalg, "wedge", _on_ring("exalg.wedge", "poly"), "s"),
    (exalg, "pullback", _on_ring("exalg.pullback", "poly", pos=1), "s"),
    (exalg, "det_endo", _on_ring("exalg.det_endo", "float"), "us"),
    (prover, "evaluate_float", lambda a, k: f"prover.evaluate_float.{a[0]}", "us"),
    (g2, "decompose2", _const("g2.decompose2"), "us"),
    (ddt, "theta_weight", _const("ddt.theta_weight"), "us"),
    (torus, "wedge_field",
     lambda a, k: f"torus.wedge_field.{a[0].k}x{a[1].k}.{a[0].grid.npts}", "us"),
    (torus, "wedge_const", _npts("torus.wedge_const"), "us"),
    (torus, "hodge_field", _npts("torus.hodge_field"), "us"),
    (torus, "d", _npts("torus.d"), "us"),
    (torus, "codiff", _npts("torus.codiff"), "us"),
    (torus, "kl_functional", _npts("torus.kl_functional"), "ms"),
    (flow, "flow_step", _flow_step_label, "ms"),
    (flow, "_diagnostics", _npts("flow.diagnostics"), "ms"),
    (kernels, "wedge_fields", _const("kernels.wedge_fields"), "kernel"),
    (kernels, "hodge_fields", _const("kernels.hodge_fields"), "kernel"),
    (kernels, "bareiss_ranks", _const("kernels.bareiss_ranks"), "batch"),
)

_WORK = {"wedge_fields": _wedge_work}


def install(tracer) -> None:
    for module, name, key, how in SPANS:
        tracer.wrap(module, name, key, how, _WORK.get(name))


def layer_metrics(tracer) -> dict:
    """{metric name: (value, unit)} for every span the pass recorded."""
    out = {}
    for label, calls in tracer.calls.items():
        secs = tracer.seconds[label]
        how = tracer.tags[label]
        if how == "s":
            out[f"{label}.s"] = (secs, "s")
        elif how == "us":
            out[f"{label}.us"] = (1e6 * secs / calls, "us")
        elif how == "ms":
            out[f"{label}.ms"] = (1e3 * secs / calls, "ms")
        else:
            out[f"{label}.calls"] = (calls, "count")
            out[f"{label}.s"] = (secs, "s")
            if how == "batch":
                out[f"{label}.batch.ms"] = (1e3 * secs / calls, "ms")
    for counter, amount in tracer.work.items():
        out[counter] = (amount, COMPUTED_UNITS[counter])
    return out
