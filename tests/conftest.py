"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_child(code: str, address_limit: int | None = None):
    """Run ``code`` in a fresh interpreter that imports ddt7 from ``src``,
    with one BLAS thread so that memory and timings do not depend on the
    core count, and, when ``address_limit`` is given, under an RLIMIT_AS of
    that many bytes set before anything else is imported.  Returns the
    completed process, output captured as text."""
    if address_limit is not None:
        code = ("import resource\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({address_limit},) * 2)\n"
                + code)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600, env=env)


@pytest.fixture
def run_child():
    """``_run_child``: code in a child interpreter, optionally address-limited."""
    return _run_child
