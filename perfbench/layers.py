"""Per-layer tracing from outside the program.

``LayerTracer`` wraps public functions of the ddt7 modules for the length
of a ``with`` block.  Each wrapper records a call count and the inclusive
wall time under a label that its ``key`` function derives from the call's
arguments (identity id, ring, form degrees, grid size).  A wrapped function
is rebound in every ddt7 module that holds it, so calls through names
imported with ``from .x import f`` are seen too.  Nothing inside the
program changes; leaving the block restores every binding.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict


class LayerTracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.work = defaultdict(float)
        self.tags = {}
        self._undo = []

    def wrap(self, module, name, key, tag=None, work=None):
        """Wrap ``module.name``; ``key(args, kwargs)`` names the span (None
        passes the call through unrecorded), ``tag`` is kept per span name
        for the reader, ``work(args)`` optionally returns
        {counter: increment}."""
        orig = getattr(module, name)
        calls, seconds, tally, tags = self.calls, self.seconds, self.work, self.tags
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = key(args, kwargs)
            if label is None:
                return orig(*args, **kwargs)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                seconds[label] += clock() - t0
                calls[label] += 1
                tags[label] = tag
                if work is not None:
                    for counter, amount in work(args).items():
                        tally[counter] += amount

        for mod in [m for n, m in sys.modules.items()
                    if n == "ddt7" or n.startswith("ddt7.")]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, orig))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()
        return False

    def total_calls(self, prefix: str) -> int:
        return sum(c for k, c in self.calls.items() if k.startswith(prefix))
