"""Optimal cloning and state-estimation fidelities for mixed qubits.

The N -> M cloning fidelity of a mixed input decomposes over the spin
blocks: a spin-j outcome clones its 2j purified qubits like 2j pure copies
(Gisin & Massar, PRL 79, 2153 (1997)) with per-clone fidelity f_pur, so a
clone's Bloch length is (2 f_pur - 1) delta_j block by block, and
2F - 1 = (2F_inf - 1)(M + 2)/M when M >= N.  A block with 2j >= M keeps M
of its qubits and the spin-0 block guesses, so the same rule serves every
M >= 1.  M -> infinity is the best state estimation.  The tests' bounds
over all N -> M channels and over all measurements find both optimal.  The
spectrum rejects an odd n and lam outside [0, 1], and ``_clone_count`` an
m_out that is not an integer >= 1 or inf.
"""

from __future__ import annotations

import itertools
import math

from . import analytics


def _clone_count(m_out: float) -> float:
    """m_out as an int, or math.inf; ValueError unless it is an integer >= 1 or infinity."""
    if m_out == math.inf:
        return math.inf
    if not (m_out >= 1 and m_out == math.floor(m_out)):  # nan and -inf fail the first test
        raise ValueError(f"m_out must be an integer >= 1 or infinity, got {m_out}")
    return int(m_out)


def pure_cloning_fidelity(j: int, m_out: float) -> float:
    """Best per-clone fidelity for 2j pure copies cloned to m_out outputs.

    m_out = math.inf gives the estimation limit (2j+1)/(2j+2); j = 0 is
    the no-information boundary value 1/2.  For m_out <= 2j the block
    keeps m_out of its 2j copies, so each output is perfect.
    """
    if j < 0:
        raise ValueError("total spin j must be nonnegative")
    m = _clone_count(m_out)
    if m == math.inf:
        return (2 * j + 1) / (2 * j + 2)
    if m <= 2 * j:
        return 1.0
    return (m * (2 * j + 1) + 2 * j) / (m * (2 * j + 2))


def _clone_weights(m_out: float):
    """w_j = 2 f_pur - 1 for j = 0, 1, ..., each one correctly rounded ratio of integers:
    1 for m_out <= 2j, j (m_out + 2) / (m_out (j + 1)) above, and j / (j + 1) at m_out = inf."""
    m = _clone_count(m_out)
    if m == math.inf:
        return (j / (j + 1) for j in itertools.count())
    return (1.0 if m <= 2 * j else j * (m + 2) / (m * (j + 1)) for j in itertools.count())


def clone_terms(spect: analytics.BlockSpectrum, m_out: float) -> list[tuple[float, float]]:
    """Each block's (f_pur, term) for clones to m_out outputs, from a spectrum the caller built.

    f_pur is ``pure_cloning_fidelity`` of the block.  A clone matches the
    block's kept qubit with probability f_pur and its orthogonal state
    otherwise, so the block's share of the mixed fidelity, its term, is
    p_j (1/2 + (f_pur - 1/2) delta_j).
    """
    fpurs = (pure_cloning_fidelity(j, m_out) for j in itertools.count())
    return [(g, p * (0.5 + (g - 0.5) * delta)) for g, p, delta in zip(fpurs, spect.probabilities, spect.bloch_lengths)]


def clone_bloch_length(spect: analytics.BlockSpectrum, m_out: float) -> float:
    """Bloch length of each of m_out clones: the bloch_average with w_j = 2 f_pur - 1 of ``_clone_weights``."""
    return spect.bloch_average(_clone_weights(m_out))


def mixed_cloning_fidelity(n_in: int, m_out: float, lam: float) -> float:
    """Optimal per-clone fidelity for n_in mixed copies cloned to m_out (an integer >= 1 or math.inf)."""
    return 0.5 + 0.5 * clone_bloch_length(analytics.block_spectrum(n_in, lam), m_out)


def estimation_lambda(n: int, lam: float) -> float:
    """Bloch length achievable by estimating the aligned state from n copies: ``clone_bloch_length`` at m_out = inf.

    The spin-0 block carries no direction information and contributes
    nothing.  The value is not bounded by lam: it tends to 1 as n grows and
    already exceeds lam at n = 6 for lam = 0.2 (superbroadcasting).
    Estimate-and-prepare is one purification map, so it never exceeds
    2 mean_fidelity(n, lam) - 1.
    """
    return clone_bloch_length(analytics.block_spectrum(n, lam), math.inf)
