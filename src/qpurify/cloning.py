"""Optimal cloning and state-estimation fidelities for mixed qubits.

The N -> M cloning fidelity of a mixed input decomposes over the spin
blocks: each block clones like 2j pure copies, degraded by the block
fidelity.  The M -> infinity limit doubles as the best achievable
state-estimation fidelity, conveniently expressed as a Bloch length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import analytics


@dataclass(frozen=True)
class CloneSettings:
    """Cloning task: n_in identical copies in, m_out clones out."""

    n_in: int
    m_out: float  # integer count, or math.inf for the estimation limit
    lam: float

    def __post_init__(self) -> None:
        if self.n_in < 2 or self.n_in % 2:
            raise ValueError(f"n_in must be a positive even integer, got {self.n_in}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"Bloch length must lie in [0, 1], got {self.lam}")
        if math.isinf(self.m_out):
            return
        if self.m_out != int(self.m_out) or self.m_out < self.n_in:
            raise ValueError(f"m_out must be an integer >= n_in or infinity, got {self.m_out}")


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


def mixed_cloning_fidelity(settings: CloneSettings) -> float:
    """Optimal per-clone fidelity for n_in mixed copies cloned to m_out.

    Block-probability average of the pure bound applied to each block,
    with the complementary weight landing on the orthogonal state.
    """
    spect = analytics.block_spectrum(settings.n_in, settings.lam)
    return math.fsum(
        block_clone_term(row, pure_cloning_fidelity(row.j, settings.m_out)) for row in spect.rows
    )


def block_clone_term(row: analytics.SpectrumRow, f_pure: float) -> float:
    """One block's share of the mixed cloning fidelity.

    A clone matches the block's kept qubit with probability f_pure and its
    orthogonal state otherwise, weighted by the block probability.
    """
    return row.probability * (f_pure * row.fidelity + (1.0 - f_pure) * (1.0 - row.fidelity))


def estimation_lambda(n: int, lam: float) -> float:
    """Bloch length achievable by estimating the aligned state from n copies.

    Equals 2 F - 1 at m_out = infinity; the spin-0 block carries no
    direction information and contributes nothing.  The value is not
    bounded by lam: it tends to 1 as n grows and already exceeds lam at
    n = 6 for lam = 0.2 (superbroadcasting).  Estimate-and-prepare is one
    purification map, so it never exceeds 2 mean_fidelity(n, lam) - 1.
    """
    spect = analytics.block_spectrum(n, lam)
    return math.fsum(
        row.probability * (2.0 * row.fidelity - 1.0) * row.j / (row.j + 1)
        for row in spect.rows
        if row.j >= 1
    )


def scaling_relation_check(settings: CloneSettings) -> float:
    """Residual of the finite-M identity 2F - 1 = (2F_inf - 1)(M + 2)/M."""
    if math.isinf(settings.m_out):
        raise ValueError("the scaling relation needs a finite m_out")
    lhs = 2.0 * mixed_cloning_fidelity(settings) - 1.0
    rhs = estimation_lambda(settings.n_in, settings.lam) * (settings.m_out + 2.0) / settings.m_out
    return abs(lhs - rhs)
