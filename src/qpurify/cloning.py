"""Optimal cloning and state-estimation fidelities for mixed qubits.

The N -> M cloning fidelity of a mixed input decomposes over the spin
blocks: a spin-j outcome clones its 2j purified qubits like 2j pure copies
(Gisin & Massar, PRL 79, 2153 (1997)), degraded by the block fidelity, so
2F - 1 = (2F_inf - 1)(M + 2)/M block by block when M >= N.  A block with
2j >= M keeps M of its qubits and the spin-0 block guesses, so the same
rule serves every M >= 1.  M -> infinity is the best state estimation.
The tests' primal-dual bound over all N -> M channels finds both optimal.
Both averages divide by the fsum of the p_j, as ``analytics`` does.  The
spectrum rejects an odd n and lam outside [0, 1], and
``pure_cloning_fidelity`` an m_out that is not an integer >= 1 or inf.
"""

from __future__ import annotations

import math

from . import analytics


def pure_cloning_fidelity(j: int, m_out: float) -> float:
    """Best per-clone fidelity for 2j pure copies cloned to m_out outputs.

    m_out = math.inf gives the estimation limit (2j+1)/(2j+2); j = 0 is
    the no-information boundary value 1/2.  For m_out <= 2j the block
    keeps m_out of its 2j copies, so each output is perfect.
    """
    if j < 0:
        raise ValueError("total spin j must be nonnegative")
    if m_out == math.inf:
        return (2 * j + 1) / (2 * j + 2)
    if not (m_out >= 1 and m_out == math.floor(m_out)):  # nan and -inf fail the first test
        raise ValueError(f"m_out must be an integer >= 1 or infinity, got {m_out}")
    m = int(m_out)
    if m <= 2 * j:
        return 1.0
    return (m * (2 * j + 1) + 2 * j) / (m * (2 * j + 2))


def clone_terms(spect: analytics.BlockSpectrum, m_out: float) -> list[tuple[float, float]]:
    """Each block's (f_pur, term) for clones to m_out outputs, from a spectrum the caller built.

    f_pur is ``pure_cloning_fidelity`` of the block.  A clone matches the
    block's kept qubit with probability f_pur and its orthogonal state
    otherwise, so the block's share of the mixed fidelity, its term, is
    p_j (f_pur f_j + (1 - f_pur)(1 - f_j)).
    """
    terms = []
    for j, (p, f) in enumerate(zip(spect.probabilities, spect.fidelities)):
        g = pure_cloning_fidelity(j, m_out)
        terms.append((g, p * (g * f + (1.0 - g) * (1.0 - f))))
    return terms


def mixed_cloning_fidelity(n_in: int, m_out: float, lam: float) -> float:
    """Optimal per-clone fidelity for n_in mixed copies cloned to m_out (an integer >= 1 or math.inf)."""
    spect = analytics.block_spectrum(n_in, lam)
    return math.fsum(term for _, term in clone_terms(spect, m_out)) / spect.total()


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
