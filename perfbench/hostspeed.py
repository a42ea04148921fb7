"""A host-speed probe: fixed work shaped like the program's, which never
calls the program.

A shared host can run the same code up to twice as slowly for stretches
of seconds to minutes, as other tenants contend for its caches and
memory.  No statistic over one run removes that.  So the benchmark runs
this probe between the program's calls and reports each time multiplied
by ``REFERENCE_S`` over the probe's time around it: seconds on a host
where one probe point takes ``REFERENCE_S``.

The probe mixes the kinds of work the program does: products of sparse
polynomials held in dicts with Python integer coefficients, like the exact
layer; small and medium numpy operations with fresh allocations and
gathers, like the field layer at desk scale; and passes over arrays of
4096 x 35 floats, like the field layer at bulk scale.  Its inputs are
fixed, never drawn from the workload seed, so every run probes the same
work.

The probe runs in a helper interpreter of its own, so that the program's
memory state cannot change its speed: run in the benchmark's process on a
shared 2-vCPU Xeon host, it ran twice as fast after one exact DET
verification as before.  The helper probes only when asked, while
the benchmark waits for its answer, so the two never run at once.  It must
share the benchmark's CPU: there, a probe run concurrently on the other
CPU did not follow the program's slowdowns at all (correlation -0.36 over
4 s windows), while one on the same CPU did (0.5 to 0.6).

Run as a script, this file is the helper: it answers each line on
standard input with the seconds of one probe point.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# one probe point's time on a quiet host of the kind the baseline ran on
REFERENCE_S = 0.5


class ProbeWork:
    REPEATS = 3           # probes timed together as one point

    def __init__(self):
        rng = np.random.default_rng(0)
        keys = [tuple(int(v) for v in rng.integers(0, 4, 7)) for _ in range(60)]
        self.p = {k: int(c) for k, c in zip(keys, rng.integers(-50, 50, 60))}
        self.q = {k: int(c) for k, c in zip(keys[::-1], rng.integers(-50, 50, 60))}
        self.small = [rng.normal(size=(16, 21)) for _ in range(8)]
        self.mid = rng.normal(size=(512, 35))
        self.cols = rng.integers(0, 35, 200), rng.integers(0, 35, 200)
        self.blocks = np.arange(0, 200, 10)
        self.bulk = rng.normal(size=(4096, 35))
        self.out = np.empty_like(self.bulk)
        self.point()  # the first points are slow (cold caches, first allocations)
        self.point()

    def _polynomials(self):
        r = self.p
        for _ in range(3):
            out = {}
            for ea, ca in r.items():
                for eb, cb in self.q.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    out[e] = out.get(e, 0) + ca * cb
            r = dict(list((e, c) for e, c in out.items() if c)[:400])

    def _arrays(self):
        ii, jj = self.cols
        for _ in range(60):
            for s in self.small:
                (s * 0.5 + s).sum(axis=1)
            np.add.reduceat(self.mid[:, ii] * self.mid[:, jj], self.blocks, axis=1)
        for _ in range(100):
            np.multiply(self.bulk, 1.0001, out=self.out)
            np.add(self.bulk, self.out, out=self.out)
            self.out.sum(axis=1)

    def point(self) -> float:
        """Seconds for one probe point."""
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            self._polynomials()
            self._arrays()
        return time.perf_counter() - t0


class HostProbe:
    """The helper interpreter, started on entering a ``with`` block and
    stopped, and waited for, on leaving it.  Calling it returns the seconds
    of one probe point."""

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"host probe exited with code {self._proc.wait()}")
        return float(answer)

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        return False


def serve() -> None:
    work = ProbeWork()
    for _ in sys.stdin:
        print(repr(work.point()), flush=True)


if __name__ == "__main__":
    serve()
