import numpy as np
import pytest

from qpurify import MixedQubit, random_direction


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_qubit(rng, lam=None):
    lam = float(rng.uniform(0.0, 1.0)) if lam is None else lam
    return MixedQubit(lam, random_direction(rng))
