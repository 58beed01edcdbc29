"""Optimal cloning and state-estimation fidelities for mixed qubits.

The N -> M cloning fidelity of a mixed input decomposes over the spin
blocks: each block clones like 2j pure copies, degraded by the block
fidelity, so 2F - 1 = (2F_inf - 1)(M + 2)/M block by block.  The limit
M -> infinity is the best state-estimation fidelity, as a Bloch length.
The tests' primal-dual bound over all N -> M channels finds both optimal.
Both averages divide by the fsum of the p_j, as ``analytics.yield_factor``
and ``analytics.mean_fidelity`` do.  The inputs are checked where they
are used: the spectrum rejects an odd n and lam outside [0, 1], and
``pure_cloning_fidelity`` rejects m_out < 2j, so m_out < n at j = n/2.
"""

from __future__ import annotations

import math

from . import analytics


def pure_cloning_fidelity(j: int, m_out: float) -> float:
    """Best per-clone fidelity for 2j pure copies cloned to m_out outputs.

    m_out = math.inf gives the estimation limit (2j+1)/(2j+2); j = 0 is
    the no-information boundary value 1/2.
    """
    if j < 0:
        raise ValueError("total spin j must be nonnegative")
    if math.isinf(m_out):
        return (2 * j + 1) / (2 * j + 2)
    m = int(m_out)
    if m != m_out or m < 2 * j:
        raise ValueError(f"m_out must be an integer >= 2j = {2 * j} or infinity, got {m_out}")
    return (m * (2 * j + 1) + 2 * j) / (m * (2 * j + 2))


def mixed_cloning_fidelity(n_in: int, m_out: float, lam: float) -> float:
    """Optimal per-clone fidelity for n_in mixed copies cloned to m_out (an integer or math.inf).

    Block-probability average of the pure bound applied to each block,
    with the complementary weight landing on the orthogonal state.
    """
    spect = analytics.block_spectrum(n_in, lam)
    columns = enumerate(zip(spect.probabilities, spect.fidelities))
    terms = (block_clone_term(p, f, pure_cloning_fidelity(j, m_out)) for j, (p, f) in columns)
    return math.fsum(terms) / spect.total()


def block_clone_term(probability: float, fidelity: float, f_pure: float) -> float:
    """One block's share of the mixed cloning fidelity.

    A clone matches the block's kept qubit with probability f_pure and its
    orthogonal state otherwise, weighted by the block probability.
    """
    return probability * (f_pure * fidelity + (1.0 - f_pure) * (1.0 - fidelity))


def estimation_lambda(n: int, lam: float) -> float:
    """Bloch length achievable by estimating the aligned state from n copies.

    Equals 2 F - 1 at m_out = infinity; the spin-0 block carries no
    direction information and contributes nothing.  The value is not
    bounded by lam: it tends to 1 as n grows and already exceeds lam at
    n = 6 for lam = 0.2 (superbroadcasting).  Estimate-and-prepare is one
    purification map, so it never exceeds 2 mean_fidelity(n, lam) - 1.
    """
    spect = analytics.block_spectrum(n, lam)
    columns = zip(range(1, n // 2 + 1), spect.probabilities[1:], spect.fidelities[1:])
    terms = (p * (2.0 * f - 1.0) * j / (j + 1) for j, p, f in columns)
    return math.fsum(terms) / spect.total()

