import math

import numpy as np
import pytest

from qpurify import MixedQubit, block_spectrum, mixed_cloning_fidelity, pure_cloning_fidelity, random_direction


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_qubit(rng, lam=None):
    lam = float(rng.uniform(0.0, 1.0)) if lam is None else lam
    return MixedQubit(lam, random_direction(rng))


def closed_form_fidelity(n, m, lam):
    """The block formula's per-output fidelity of an n -> m map, for m < n as well as m >= n.

    mixed_cloning_fidelity for m >= n.  Below, a spin-j outcome clones its
    2j purified qubits to max(m, 2j) outputs, so g = 1 when m <= 2j, and
    the spin-0 outcome, which keeps nothing, scores g = 1/2.
    """
    if m >= n:
        return mixed_cloning_fidelity(n, m, lam)
    spect = block_spectrum(n, lam)
    terms = []
    for j, (p, f) in enumerate(zip(spect.probabilities, spect.fidelities)):
        g = pure_cloning_fidelity(j, max(m, 2 * j)) if j else 0.5
        terms.append(p * (g * f + (1.0 - g) * (1.0 - f)))
    return math.fsum(terms) / spect.total()
