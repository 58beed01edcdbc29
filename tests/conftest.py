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
