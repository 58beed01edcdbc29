"""Closed-form statistics of the total-spin blocks of N identical qubits.

Everything here is binomial/geometric arithmetic on plain floats and exact
integers, so it needs only the standard library and stays cheap for
register sizes far beyond any dense 2^N object.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .core import _check_lambda, _check_memory, _check_register


def multiplicity(n: int, j: int) -> int:
    """Number of equivalent spin-j blocks in n qubits (exact integer)."""
    _check_register(n)
    J = n // 2
    if not 0 <= j <= J:
        raise ValueError(f"total spin must lie in 0..{J}, got {j}")
    return math.comb(n, J - j) * (2 * j + 1) // (J + j + 1)


def cross_power_sum(c1: float, c0: float, m: int) -> float:
    """sum_{k=0..m} c1^k c0^(m-k), a cancellation-free form of
    (c1^(m+1) - c0^(m+1)) / (c1 - c0)."""
    return math.fsum(c1**k * c0 ** (m - k) for k in range(m + 1))


def _prefix_sums(lam: float, J: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """log S0[2j] and delta_j for j = 0..J, read off the cached columns of lam."""
    _check_lambda(lam)  # before the lookup, so no bad lam becomes a key
    log_s0, blochs = _lambda_columns(lam, 1 << J.bit_length())
    return log_s0[: J + 1], blochs[: J + 1]


@functools.lru_cache(maxsize=32)
def _lambda_columns(lam: float, size: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """log S0[2j] and the kept qubit's Bloch length delta_j = 2 f_j - 1 for j < size.

    A spin-j block holds k = 0..2j anti-aligned qubits with weight r^k,
    r = c0/c1.  With S0[m] = sum_{k<=m} r^k, delta_j = nu_j / (j S0[2j]) for
    nu_j = sum_k (j - k) r^k = r nu_{j-1} + (1 - r) j S0[2j-1], nu_0 = 0, and
    1 - r = 2 lam/(1 + lam) formed directly: every term is positive, so
    nothing cancels for any lam.  j = 0 takes the continuous limit.  The sums
    run in order, so each entry is the same float whatever ``size`` is; callers
    round size up to a power of two, so a growing J costs O(log J) builds.
    """
    r, gap = (1.0 - lam) / (1.0 + lam), 2.0 * lam / (1.0 + lam)
    s0 = list(itertools.accumulate(r**k for k in range(2 * size - 1)))
    steps = (gap * j * s0[2 * j - 1] for j in range(1, size))
    nus = itertools.accumulate(steps, lambda nu, step: r * nu + step)
    blochs = (nu / (j * s0[2 * j]) for j, nu in enumerate(nus, 1))
    return tuple(map(math.log, s0[::2])), (_bloch_limit_j0(lam), *blochs)


def _check_multiplicity_size(n: int) -> None:
    """Refuse an n whose exact d_j, about n^2/20 bytes, exceed MemAvailable; read only above 64 MiB."""
    if n * n // 20 > 2**26:
        _check_memory(n * n // 20, f"n={n}", " of exact multiplicities")


@functools.lru_cache(maxsize=1)
def _multiplicity_columns(n: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Exact d_j = C(n, J-j)(2j+1)/(J+j+1) and log d_j for j = 0..n/2, once n passes the size check."""
    _check_multiplicity_size(n)
    J = n // 2
    mults = []
    comb = math.comb(n, J)  # C(n, J - j)
    for j in range(J + 1):
        mults.append(comb * (2 * j + 1) // (J + j + 1))
        comb = comb * (J - j) // (J + j + 1)
    return tuple(mults), tuple(map(math.log, mults))


def _spectrum_columns(n: int, lam: float) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """Exact d_j and float p_j, delta_j for j = 0..n/2."""
    probs = _probabilities(n, lam, range(n // 2 + 1))  # first, so a bad n or lam is refused before any build
    return _multiplicity_columns(n)[0], probs, _prefix_sums(lam, n // 2)[1]


def _probabilities(n: int, lam: float, js) -> tuple[float, ...]:
    """Float p_j for j in ``js``, read off the cached columns.

    p_j = d_j (c0 c1)^(J-j) c1^(2j) S0[2j] is evaluated in log space; at
    c0 = 0 (lam = 1) the logarithm is undefined and p_j is the top-block
    indicator.
    """
    _check_register(n)
    _check_lambda(lam)
    J = n // 2
    log_mults = _multiplicity_columns(n)[1]  # first, so an oversized n is refused before any build
    log_s0 = _lambda_columns(lam, 1 << J.bit_length())[0]
    c1, c0 = (1.0 + lam) / 2.0, (1.0 - lam) / 2.0
    if c0 == 0.0:
        return tuple(float(j == J) for j in js)
    log_pair, log_c1 = math.log(c0 * c1), math.log(c1)
    return tuple(math.exp(log_mults[j] + (J - j) * log_pair + 2 * j * log_c1 + log_s0[j]) for j in js)


def block_probability(n: int, lam: float, j: int) -> float:
    """Probability that n copies with Bloch length lam land in total spin j, evaluated for row j alone."""
    if not 0 <= j <= n // 2:
        raise ValueError(f"total spin must lie in 0..{n // 2}, got {j}")
    return _probabilities(n, lam, (j,))[0]


def _bloch_limit_j0(lam: float) -> float:
    # continuous j -> 0 limit of delta_j, by its series where the closed form cancels
    if lam < 1e-2:
        l2 = lam * lam
        return lam * (2.0 / 3.0 + l2 * (2.0 / 15.0 + 2.0 * l2 / 35.0))
    if lam == 1.0:
        return 1.0
    return 1.0 / lam - (1.0 - lam * lam) * math.atanh(lam) / lam**2


def block_fidelity(lam: float, j: int) -> float:
    """Fidelity (1 + delta_j)/2 of each kept qubit after the spin-j measurement outcome.

    j = 0 keeps no qubits; the continuous j -> 0 limit returned there is a
    convention, above the 1/2 that any channel achieves on that outcome.
    """
    if j < 0:
        raise ValueError("total spin j must be nonnegative")
    return (1.0 + _prefix_sums(lam, j)[1][j]) / 2.0


SpectrumRow = namedtuple("SpectrumRow", "j multiplicity probability fidelity")


class BlockSpectrum(namedtuple("BlockSpectrum", "n lam multiplicities probabilities bloch_lengths")):
    """Per-j columns of block multiplicity, probability and the kept qubit's Bloch length delta_j, as tuples."""

    __slots__ = ()

    @property
    def fidelities(self) -> tuple[float, ...]:
        """The kept qubit's fidelity f_j = (1 + delta_j)/2, built on each read."""
        return tuple((1.0 + delta) / 2.0 for delta in self.bloch_lengths)

    @property
    def rows(self) -> tuple[SpectrumRow, ...]:
        """The columns as (j, d_j, p_j, f_j) rows, built on each read."""
        return tuple(map(SpectrumRow, itertools.count(), self.multiplicities, self.probabilities, self.fidelities))

    def total(self) -> float:
        """The fsum of the p_j, which every average divides by."""
        return math.fsum(self.probabilities)

    def bloch_average(self, weights) -> float:
        """sum_j p_j w_j delta_j / total() for weights w_0, w_1, ...; every fidelity average is 1/2 + 1/2 of one."""
        return math.fsum(p * w * d for p, w, d in zip(self.probabilities, weights, self.bloch_lengths)) / self.total()


def block_spectrum(n: int, lam: float) -> BlockSpectrum:
    """All (j, d_j, p_j, delta_j) columns for a register of n qubits."""
    return BlockSpectrum(n, lam, *_spectrum_columns(n, lam))


def yield_factor(n: int, lam: float) -> float:
    """Expected fraction of qubits kept by the block measurement, over the fsum of the p_j."""
    spect = block_spectrum(n, lam)
    J = n // 2
    return math.fsum(p * j / J for j, p in enumerate(spect.probabilities)) / spect.total()


def mean_fidelity(n: int, lam: float) -> float:
    """Probability-weighted kept-qubit fidelity: 1/2 + 1/2 the bloch_average with w_j = 1.

    The spin-0 outcome, which keeps no qubits, is scored at the continuity value
    block_fidelity(lam, 0), a convention shared with simulate's fidelity_target and
    run_protocol_dense that lifts the average p_0 (f_0 - 1/2) above the best over all channels.
    """
    return 0.5 + 0.5 * block_spectrum(n, lam).bloch_average(itertools.repeat(1.0))


def yield_asymptote(n: int, lam: float) -> float:
    """Large-N approximation of yield_factor: lam + (1 - lam)/(n lam).

    There is no power-law remainder: yield_factor minus this value is two
    binomial tails, the Binomial(n, c0) mass above n/2 and the Binomial(n, c1)
    mass below it, so it falls exponentially in n.
    """
    if lam <= 0.0:
        raise ValueError("asymptote requires lam > 0")
    return lam + (1.0 - lam) / (n * lam)


def mean_fidelity_asymptote(n: int, lam: float) -> float:
    """Large-N approximation of mean_fidelity: 1 - (1 - lam)/(2 n lam^2).

    The leading terms of a series in 1/(n lam^2); the next term is
    -(1 - lam)^2/(2 n^2 lam^3), and exponentially small binomial tails
    come on top.
    """
    if lam <= 0.0:
        raise ValueError("asymptote requires lam > 0")
    return 1.0 - (1.0 - lam) / (2.0 * n * lam * lam)
