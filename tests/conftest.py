import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpurify
from qpurify import MixedQubit, random_direction

# the directory that holds the qpurify package, and the repository above it
SRC = Path(qpurify.__file__).resolve().parents[1]
ROOT = SRC.parent


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_qubit(rng, lam=None):
    lam = float(rng.uniform(0.0, 1.0)) if lam is None else lam
    return MixedQubit(lam, random_direction(rng))


def run_python(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports qpurify from these sources, its output captured;
    past ``timeout`` seconds it is killed and ``subprocess.TimeoutExpired`` fails the caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=timeout)


# runs argv[1:] and writes the child's peak RSS in KiB, from os.wait4, as the last line of stderr
_WAIT4 = (
    "import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:]); _, status, usage = os.wait4(child.pid, 0); "
    "print(usage.ru_maxrss, file=sys.stderr); sys.exit(os.waitstatus_to_exitcode(status))"
)


def run_cli_peak_rss(*argv: str) -> tuple[subprocess.CompletedProcess, float]:
    """``python -m qpurify *argv`` in a fresh process: its output, and its own peak RSS in MiB from ``os.wait4``.

    A lean interpreter starts and reaps the child.  On Linux a child that subprocess starts by vfork begins its
    ru_maxrss at its parent's peak, which in a test process can exceed the child's own."""
    run = run_python("-c", _WAIT4, sys.executable, "-m", "qpurify", *argv)
    err, _, peak = run.stderr.rstrip(b"\n").rpartition(b"\n")
    run.stderr = err + b"\n" if err else b""
    return run, int(peak) / 1024
